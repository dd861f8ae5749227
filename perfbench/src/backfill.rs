//! `backfill`: re-analysis of an archived ward. The corpus (and the two
//! scripted beds' first two leads) is written through `ArchiveSink` at
//! set-up; each round reopens it with `Archive::open` and replays it from
//! one thread into the wire engine as fast as the bounded feed accepts,
//! with clinical analysis on every emission. Closed loop, no sockets.

use crate::checks::{check_run, Ledger};
use crate::collect::{Collector, Outcome};
use crate::inputs::{bed, corpus, Patient, Role, SCRIPT_WINDOWS};
use crate::stats::{self, Clock};
use crate::{encode_lanes, metric, Metric, Mote, Scraper, TraceData, FEED_CAPACITY};
use cs_archive::{Archive, ArchiveConfig, ArchiveSink};
use cs_core::{run_fleet_wire_stream, FleetConfig, FrameSink, SolverPolicy, WireFrame};
use cs_telemetry::TelemetryRegistry;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Leads of each scripted bed carried into the archived ward.
const BED_LEADS_ARCHIVED: usize = 2;

pub struct BackfillRun {
    pub metrics: Vec<Metric>,
    pub ledger: Ledger,
    pub trace: Option<TraceData>,
}

/// Writes the ward's frames window-major, as a live ward would have.
fn write_archive(root: &Path, patients: &[Patient], frames: &[Vec<Vec<u8>>]) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(root);
    let mut sink =
        ArchiveSink::create(root, ArchiveConfig::default()).map_err(|e| format!("archive: {e}"))?;
    let windows = patients.iter().map(Patient::windows).max().unwrap_or(0);
    for k in 0..windows {
        let mut lane = 0;
        for (p, patient) in patients.iter().enumerate() {
            for _ in 0..patient.leads.len() {
                if let Some(frame) = frames[lane].get(k) {
                    sink.append_frame(p, frame)
                        .map_err(|e| format!("append: {e}"))?;
                }
                lane += 1;
            }
        }
    }
    sink.finish().map_err(|e| format!("archive seal: {e}"))
}

struct Round {
    collector: Collector,
    report: cs_core::FleetReport,
    renders: Vec<f64>,
    reprocess_s: f64,
    residence_ms: Vec<f64>,
    queue_ms: Vec<f64>,
}

fn round(
    root: &Path,
    patients: &[Patient],
    frames: &[Vec<Vec<u8>>],
    mote: &Mote,
    clock: Clock,
    trace: bool,
    ledger: &mut Ledger,
) -> Result<Round, String> {
    let telemetry = TelemetryRegistry::new();
    let collector = Collector::new(patients, &telemetry, clock, trace);
    let (feed, source) = crossbeam::channel::bounded::<WireFrame>(FEED_CAPACITY);
    let scraper = Scraper::start(telemetry.clone());
    let opened = clock.ns();
    let (archive, _) = Archive::open(root).map_err(|e| format!("archive open: {e}"))?;
    let engine = {
        let (config, codebook, telemetry) = (
            mote.config.clone(),
            Arc::clone(&mote.codebook),
            telemetry.clone(),
        );
        std::thread::spawn(move || {
            let mut collector = collector;
            let report = run_fleet_wire_stream::<f32, _>(
                &config,
                codebook,
                source,
                SolverPolicy::default(),
                &FleetConfig::default(),
                &telemetry,
                |packet| collector.on_packet(packet),
            );
            (report, collector)
        })
    };
    let mut replays = Vec::with_capacity(frames.len());
    for (p, patient) in patients.iter().enumerate() {
        for lead in 0..patient.leads.len() {
            replays.push(
                archive
                    .replay_range(p as u32, lead as u8, 0..u64::MAX)
                    .map_err(|e| format!("replay: {e}"))?,
            );
        }
    }
    let mut handoff_ns: Vec<Vec<u64>> = frames.iter().map(|l| vec![0; l.len()]).collect();
    let windows = frames.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..windows {
        let mut lane = 0;
        for (p, patient) in patients.iter().enumerate() {
            for _ in 0..patient.leads.len() {
                if k < frames[lane].len() {
                    let read = replays[lane].next();
                    let ok = matches!(&read, Some(Ok(f)) if f.seq == k as u64 && f.bytes == frames[lane][k]);
                    ledger.check(ok, || {
                        "archived frame did not read back byte-identical".into()
                    });
                    if let Some(Ok(f)) = read {
                        feed.send(WireFrame {
                            stream: p,
                            bytes: f.bytes,
                        })
                        .map_err(|_| "engine feed closed")?;
                        handoff_ns[lane][k] = clock.ns();
                    }
                }
                lane += 1;
            }
        }
    }
    drop(feed);
    let (report, collector) = engine
        .join()
        .map_err(|_| "engine thread panicked".to_string())?;
    let report = report.map_err(|e| format!("engine: {e}"))?;
    let renders = scraper.stop();
    let mut last = opened;
    let mut residence_ms = Vec::new();
    let mut queue_ms = Vec::new();
    for (lane, handoffs) in handoff_ns.iter().enumerate() {
        for (k, &h) in handoffs.iter().enumerate() {
            if collector.outcome[lane][k] == Outcome::Missing {
                continue;
            }
            let decided = collector.decided_ns[lane][k];
            last = last.max(decided);
            let ms = decided.saturating_sub(h) as f64 / 1e6;
            residence_ms.push(ms);
            if let Some(t) = &collector.trace {
                queue_ms
                    .push(ms - (collector.solve_ns[lane][k] + t.analyze_ns[lane][k]) as f64 / 1e6);
            }
        }
    }
    Ok(Round {
        collector,
        report,
        renders,
        reprocess_s: (last - opened) as f64 / 1e9,
        residence_ms,
        queue_ms,
    })
}

pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    work: &Path,
    mote: &Mote,
) -> Result<BackfillRun, String> {
    let mut patients = corpus();
    patients.push(bed(
        Role::Episodes,
        BED_LEADS_ARCHIVED,
        SCRIPT_WINDOWS,
        seed,
    ));
    patients.push(bed(
        Role::Control,
        BED_LEADS_ARCHIVED,
        SCRIPT_WINDOWS,
        seed ^ 0xB0B,
    ));
    let frames = encode_lanes(mote, &patients);
    let clock = Clock::new();
    let root = work.join("ward");

    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let started = Instant::now();
        if encode_lanes(mote, &patients) != frames {
            return Err("mote encoding is not deterministic".into());
        }
        write_archive(&root, &patients, &frames)?;
        setups.push(started.elapsed().as_secs_f64());
    }

    // Whole rounds within the time: every round attempts the same
    // operations, so the failed share is the same in every run.
    let mut ledger = Ledger::default();
    let (mut reprocess, mut residence) = (Vec::new(), Vec::new());
    let (mut signal_s, mut cpu_s) = (0.0, 0.0);
    let started = Instant::now();
    let (mut last, mut quality) = (None, None);
    let budget = std::time::Duration::from_secs(seconds);
    let mut round_time = std::time::Duration::ZERO;
    // Start another round only if it is expected to end within the time.
    while last.is_none() || started.elapsed() + round_time <= budget {
        let round_started = Instant::now();
        let cpu0 = stats::process_cpu_seconds();
        let r = round(&root, &patients, &frames, mote, clock, trace, &mut ledger)?;
        cpu_s += stats::process_cpu_seconds() - cpu0;
        let emitted = r
            .collector
            .outcome
            .iter()
            .flatten()
            .filter(|&&o| o != Outcome::Missing)
            .count();
        signal_s += emitted as f64 * 2.0;
        reprocess.push(r.reprocess_s);
        residence.extend_from_slice(&r.residence_ms);
        let f = &r.report.faults;
        ledger.check(
            f.frames
                == f.frame_rejects
                    + f.duplicates
                    + f.late
                    + f.decoded
                    + f.concealed_desync
                    + f.quarantined,
            || format!("engine frame accounting does not balance: {f:?}"),
        );
        quality = Some(check_run(&mut ledger, &patients, &r.collector, None));
        last = Some(r);
        round_time = round_started.elapsed();
    }
    let (r, quality) = (
        last.expect("at least one round"),
        quality.expect("at least one round"),
    );
    let rounds = reprocess.len();
    println!(
        "backfill: {} patients, {} lanes, {} windows per round, {} rounds, reprocess {:?} s",
        patients.len(),
        frames.len(),
        frames.iter().map(Vec::len).sum::<usize>(),
        rounds,
        reprocess
            .iter()
            .map(|s| (s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    let wire_bytes: usize = frames.iter().flatten().map(Vec::len).sum();
    let window_count: usize = frames.iter().map(Vec::len).sum();
    let metrics = vec![
        metric("setup_s", stats::median(&setups), "s"),
        metric("decision_p50_ms", stats::percentile(&residence, 0.50), "ms"),
        metric("decision_p99_ms", stats::percentile(&residence, 0.99), "ms"),
        metric("reprocess_s", stats::median(&reprocess), "s"),
        metric("lanes_per_core", signal_s / cpu_s, "lanes"),
        metric("decoded_windows", quality.decoded as f64, "windows"),
        metric("prd_pct", quality.prd_pct(), "%"),
        metric(
            "wire_bytes_per_window",
            wire_bytes as f64 / window_count as f64,
            "B",
        ),
        metric("alarm_delay_s", stats::mean(&quality.alarm_delays), "s"),
    ];
    let trace = trace.then(|| TraceData {
        sessions: (0..patients.len())
            .map(|p| {
                let lanes = p * 2..p * 2 + patients[p].leads.len();
                let windows = patients[p].windows();
                (0..windows)
                    .flat_map(|k| frames[lanes.clone()].iter().map(move |l| l[k].clone()))
                    .collect()
            })
            .collect(),
        patients,
        frames,
        archive_root: root,
        handshake_ms: Vec::new(),
        render_ms: r.renders,
        queue_ms: r.queue_ms,
        report: r.report,
        collector: r.collector,
    });
    Ok(BackfillRun {
        metrics,
        ledger,
        trace,
    })
}
