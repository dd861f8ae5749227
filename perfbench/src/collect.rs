//! The engine's packet tap: runs the clinical decision on every emission
//! and stamps it, exactly where a served deployment would consume the
//! fleet's output.

use crate::inputs::{Patient, WINDOW};
use crate::stats::Clock;
use cs_clinical::{ClinicalConfig, ClinicalEngine, ClinicalEvent};
use cs_core::{FleetPacket, PacketOutcome};
use cs_telemetry::{AlarmKind, AlarmSeverity, TelemetryRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Missing,
    Decoded,
    Concealed,
    Quarantined,
}

/// Extra stamps of a traced run.
pub struct TraceStamps {
    /// Per lane and window: `ClinicalEngine::on_packet` duration.
    pub analyze_ns: Vec<Vec<u64>>,
    /// Emission order as (stream, channel, window).
    pub order: Vec<(usize, u8, usize)>,
}

pub struct Collector {
    pub clinical: ClinicalEngine,
    events: Vec<ClinicalEvent>,
    clock: Clock,
    lane_base: Vec<usize>,
    windows: Vec<usize>,
    pub recon: Vec<Vec<f32>>,
    pub outcome: Vec<Vec<Outcome>>,
    pub emissions: Vec<Vec<u8>>,
    next: Vec<usize>,
    pub out_of_order: Vec<u64>,
    pub stray: u64,
    pub decided_ns: Vec<Vec<u64>>,
    pub solve_ns: Vec<Vec<u64>>,
    pub iterations: Vec<Vec<u32>>,
    /// Alarm raises as (stream, kind, sample).
    pub raises: Vec<(usize, AlarmKind, usize)>,
    pub trace: Option<TraceStamps>,
    /// Emissions so far, readable while the engine runs.
    pub decided: Arc<AtomicUsize>,
}

impl Collector {
    /// Preallocates every per-window slot, so the tap does not allocate
    /// while the engine runs.
    pub fn new(
        patients: &[Patient],
        telemetry: &TelemetryRegistry,
        clock: Clock,
        trace: bool,
    ) -> Self {
        let channels = patients.iter().map(|p| p.leads.len()).max().unwrap_or(1);
        let mut lane_base = Vec::with_capacity(patients.len());
        let mut windows = Vec::new();
        for p in patients {
            lane_base.push(windows.len());
            windows.extend(std::iter::repeat_n(p.windows(), p.leads.len()));
        }
        let per_lane = |v| windows.iter().map(|&w| vec![v; w]).collect::<Vec<_>>();
        let total: usize = windows.iter().sum();
        Collector {
            clinical: ClinicalEngine::new(
                ClinicalConfig::at_256_hz(),
                patients.len(),
                channels,
                telemetry.clone(),
            ),
            events: Vec::with_capacity(256),
            clock,
            recon: windows.iter().map(|&w| vec![0.0f32; w * WINDOW]).collect(),
            outcome: windows.iter().map(|&w| vec![Outcome::Missing; w]).collect(),
            emissions: windows.iter().map(|&w| vec![0u8; w]).collect(),
            next: vec![0; windows.len()],
            out_of_order: vec![0; windows.len()],
            stray: 0,
            decided_ns: per_lane(0u64),
            solve_ns: per_lane(0u64),
            iterations: windows.iter().map(|&w| vec![0u32; w]).collect(),
            raises: Vec::with_capacity(64),
            trace: trace.then(|| TraceStamps {
                analyze_ns: per_lane(0u64),
                order: Vec::with_capacity(total + 64),
            }),
            decided: Arc::new(AtomicUsize::new(0)),
            lane_base,
            windows,
        }
    }

    /// Clears every slot for another run over the same patients, keeping
    /// the buffers, so repeated set-ups do not churn the allocator.
    pub fn reset(&mut self, telemetry: &TelemetryRegistry) {
        let patients = self.lane_base.len();
        let channels = (0..patients)
            .map(|p| {
                self.lane_base
                    .get(p + 1)
                    .copied()
                    .unwrap_or(self.windows.len())
                    - self.lane_base[p]
            })
            .max()
            .unwrap_or(1);
        self.clinical = ClinicalEngine::new(
            ClinicalConfig::at_256_hz(),
            patients,
            channels,
            telemetry.clone(),
        );
        self.events.clear();
        self.recon.iter_mut().for_each(|l| l.fill(0.0));
        self.outcome
            .iter_mut()
            .for_each(|l| l.fill(Outcome::Missing));
        self.emissions.iter_mut().for_each(|l| l.fill(0));
        self.next.fill(0);
        self.out_of_order.fill(0);
        self.stray = 0;
        self.decided_ns.iter_mut().for_each(|l| l.fill(0));
        self.solve_ns.iter_mut().for_each(|l| l.fill(0));
        self.iterations.iter_mut().for_each(|l| l.fill(0));
        self.raises.clear();
        if let Some(t) = self.trace.as_mut() {
            t.analyze_ns.iter_mut().for_each(|l| l.fill(0));
            t.order.clear();
        }
        self.decided.store(0, Ordering::Relaxed);
    }

    pub fn lane(&self, stream: usize, lead: usize) -> usize {
        self.lane_base[stream] + lead
    }

    pub fn on_packet(&mut self, pkt: &FleetPacket<f32>) {
        let emitted = self.trace.as_ref().map(|_| self.clock.ns());
        self.clinical.on_packet(pkt, &mut self.events);
        let decided = self.clock.ns();
        for event in self.events.drain(..) {
            if let ClinicalEvent::Alarm { stream, transition } = event {
                if transition.from == AlarmSeverity::Normal && transition.to > AlarmSeverity::Normal
                {
                    self.raises
                        .push((stream, transition.kind, transition.sample));
                }
            }
        }
        let k = usize::try_from(pkt.packet.index).unwrap_or(usize::MAX);
        let lane = match self.lane_base.get(pkt.stream) {
            Some(&base)
                if base + usize::from(pkt.channel)
                    < self
                        .lane_base
                        .get(pkt.stream + 1)
                        .copied()
                        .unwrap_or(self.windows.len()) =>
            {
                base + usize::from(pkt.channel)
            }
            _ => {
                self.stray += 1;
                return;
            }
        };
        if k >= self.windows[lane] {
            self.stray += 1;
            return;
        }
        if k != self.next[lane] {
            self.out_of_order[lane] += 1;
        }
        self.next[lane] = k + 1;
        self.emissions[lane][k] = self.emissions[lane][k].saturating_add(1);
        self.outcome[lane][k] = match pkt.outcome {
            PacketOutcome::Decoded => Outcome::Decoded,
            PacketOutcome::Concealed(_) => Outcome::Concealed,
            _ => Outcome::Quarantined,
        };
        self.decided_ns[lane][k] = decided;
        self.solve_ns[lane][k] =
            u64::try_from(pkt.packet.solve_time.as_nanos()).unwrap_or(u64::MAX);
        self.iterations[lane][k] = u32::try_from(pkt.packet.iterations).unwrap_or(u32::MAX);
        let samples = &pkt.packet.samples;
        if samples.len() == WINDOW {
            self.recon[lane][k * WINDOW..(k + 1) * WINDOW].copy_from_slice(samples);
        }
        if let (Some(trace), Some(emitted)) = (self.trace.as_mut(), emitted) {
            trace.analyze_ns[lane][k] = decided - emitted;
            trace.order.push((pkt.stream, pkt.channel, k));
        }
        self.decided.fetch_add(1, Ordering::Relaxed);
    }
}
