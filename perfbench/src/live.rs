//! `bedside` and `flaky`: two 12-lead beds streaming over TCP into the
//! served stack (ingest sessions → archive tap → wire engine → clinical
//! decision), open loop at a fixed offered rate.

use crate::checks::{check_run, Ledger};
use crate::collect::{Collector, Outcome};
use crate::inputs::{bed, Patient, Role, BED_LEADS, SCRIPT_WINDOWS};
use crate::stats::{self, Clock};
use crate::{encode_lanes, metric, Metric, Mote, Scraper, TraceData, FEED_CAPACITY};
use cs_archive::{ArchiveConfig, ArchiveSink};
use cs_core::{
    run_fleet_wire_stream_archived, FleetConfig, FleetReport, PipelineError, SolverPolicy,
    WireFrame,
};
use cs_ingest::{Connect, DrainSummary, IngestClient, IngestConfig, IngestServer, LaneResume};
use cs_platform::{FaultSpec, GilbertElliottParams, LossyLink};
use cs_telemetry::TelemetryRegistry;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Boundary period: every 320 ms each bed writes its twelve 2 s windows,
/// a 6.25× compressed cadence. Offered: 24 lanes × 6.25 = 150 real-time
/// lead equivalents (75 windows/s). A bed's burst of twelve solves
/// (≈ 90 ms single-threaded) ends well inside the half period before the
/// other bed writes.
const PERIOD_NS: u64 = 320_000_000;
/// Bed B writes half a period after bed A: the beds are not in phase.
const BED_OFFSET_NS: [u64; 2] = [0, PERIOD_NS / 2];
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// `flaky`: each session is torn and resumed every 16 boundaries (bed A
/// at boundary 5, 21, …; bed B at 13, 29, …), replaying its last 12
/// records.
const RECONNECT_EVERY: usize = 16;
const RECONNECT_PHASE: [usize; 2] = [5, 13];
const TAIL_RECORDS: usize = 12;
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);
const GOODBYE_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest the set-up waits for the warm-up windows' decisions.
const WARMUP_TIMEOUT: Duration = Duration::from_secs(60);

/// `flaky`: the link damage schedule is part of the workload, not of the
/// seed. The seed varies the rhythms and noise the frames carry; every
/// run sees the same drops, duplicates, reorders, cuts and bit errors at
/// the same frame positions, so concealment hits the same windows.
const LINK_SEEDS: [u64; 2] = [0xF1A4_0001, 0xF1A4_0002];

/// `flaky` link damage per frame, plus burst bit errors at mean BER 1e-5.
fn damage() -> FaultSpec {
    FaultSpec {
        drop: 0.02,
        duplicate: 0.02,
        reorder: 0.02,
        truncate: 0.005,
        gilbert_elliott: Some(GilbertElliottParams::for_mean_ber(1e-5)),
    }
}

/// What one bed writes: per boundary the records (after link damage),
/// and per lead and window whether an intact copy crossed the link.
struct BedPlan {
    sends: Vec<Vec<Vec<u8>>>,
    intact: Vec<Vec<bool>>,
}

/// Boundary 0 is the warm-up: it crosses undamaged, so set-up ends on a
/// known set of decisions. Later boundaries cross the seeded link.
fn plan(frames: &[Vec<Vec<u8>>], flaky: bool, seed: u64) -> BedPlan {
    let windows = frames[0].len();
    let leads = frames.len();
    let mut sends = vec![Vec::new(); windows];
    let mut intact = vec![vec![!flaky; windows]; leads];
    for (lead, lane) in frames.iter().enumerate() {
        sends[0].push(lane[0].clone());
        intact[lead][0] = true;
    }
    if !flaky {
        for (k, send) in sends.iter_mut().enumerate().skip(1) {
            send.extend(frames.iter().map(|lane| lane[k].clone()));
        }
        return BedPlan { sends, intact };
    }
    let mut link = LossyLink::new(damage(), seed);
    let mut out = Vec::new();
    for k in 1..windows {
        for lane in frames {
            link.offer(&lane[k], &mut out);
        }
        if k == windows - 1 {
            link.flush(&mut out);
        }
        for d in out.drain(..) {
            let (w, lead) = (1 + d.origin / leads, d.origin % leads);
            intact[lead][w] |= d.intact;
            sends[k].push(d.bytes);
        }
    }
    BedPlan { sends, intact }
}

type EngineResult = (Result<FleetReport, PipelineError>, Collector);

/// One running copy of the served stack with both beds connected.
struct Stack {
    server: IngestServer,
    engine: JoinHandle<EngineResult>,
    sink: Arc<Mutex<ArchiveSink>>,
    telemetry: TelemetryRegistry,
    clients: Vec<IngestClient>,
}

pub struct LiveOptions<'a> {
    pub flaky: bool,
    pub trace: bool,
    pub seed: u64,
    pub seconds: u64,
    pub work: &'a Path,
}

pub struct LiveRun {
    pub metrics: Vec<Metric>,
    pub ledger: Ledger,
    pub lateness_ms: Vec<f64>,
    pub trace: Option<TraceData>,
}

fn connect(
    addr: std::net::SocketAddr,
    patient: u32,
    from: u32,
    handshakes: &mut Vec<f64>,
) -> Result<IngestClient, String> {
    let lanes: Vec<LaneResume> = (0..BED_LEADS)
        .map(|l| LaneResume {
            lane: l as u8,
            resume_from: from,
        })
        .collect();
    let started = Instant::now();
    let client = match IngestClient::connect(addr, patient, &lanes, TAIL_RECORDS, HANDSHAKE_TIMEOUT)
    {
        Ok(Connect::Accepted(c)) => c,
        Ok(Connect::Refused(ctrl)) => return Err(format!("patient {patient} refused: {ctrl:?}")),
        Err(e) => return Err(format!("patient {patient} connect: {e}")),
    };
    handshakes.push(started.elapsed().as_secs_f64() * 1e3);
    Ok(client)
}

#[allow(clippy::too_many_arguments)]
fn start(
    mote: &Mote,
    beds: &[Patient],
    plans: &[BedPlan],
    expected: &[Vec<Vec<u8>>],
    mut collector: Collector,
    root: &Path,
    handshakes: &mut Vec<f64>,
) -> Result<(Stack, f64), String> {
    let started = Instant::now();
    // The motes' own work: encode every window of every lead.
    if encode_lanes(mote, beds) != expected {
        return Err("mote encoding is not deterministic".into());
    }
    let telemetry = TelemetryRegistry::new();
    let (feed, source) = crossbeam::channel::bounded::<WireFrame>(FEED_CAPACITY);
    let sink = Arc::new(Mutex::new(
        ArchiveSink::create(root, ArchiveConfig::default()).map_err(|e| format!("archive: {e}"))?,
    ));
    collector.reset(&telemetry);
    let decided = Arc::clone(&collector.decided);
    let engine = {
        let (config, codebook, telemetry, sink) = (
            mote.config.clone(),
            Arc::clone(&mote.codebook),
            telemetry.clone(),
            Arc::clone(&sink),
        );
        std::thread::spawn(move || {
            let mut collector = collector;
            let report = run_fleet_wire_stream_archived::<f32, _>(
                &config,
                codebook,
                source,
                SolverPolicy::default(),
                &FleetConfig::default(),
                &telemetry,
                &*sink,
                |packet| collector.on_packet(packet),
            );
            (report, collector)
        })
    };
    let server = IngestServer::bind(
        "127.0.0.1:0",
        IngestConfig::default(),
        telemetry.clone(),
        feed,
    )
    .map_err(|e| format!("ingest bind: {e}"))?;
    let mut clients = Vec::with_capacity(beds.len());
    for b in 0..beds.len() {
        clients.push(connect(
            server.local_addr(),
            1000 + b as u32,
            0,
            handshakes,
        )?);
    }
    // Warm-up boundary: every lane's first window, decided before timing.
    for (client, plan) in clients.iter_mut().zip(plans) {
        for record in &plan.sends[0] {
            client
                .send_frame(record)
                .map_err(|e| format!("warm-up send: {e}"))?;
        }
    }
    let lanes = beds.len() * BED_LEADS;
    let deadline = Instant::now() + WARMUP_TIMEOUT;
    while decided.load(Ordering::Relaxed) < lanes {
        if Instant::now() > deadline || engine.is_finished() {
            return Err("warm-up windows were not decided".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let setup_s = started.elapsed().as_secs_f64();
    Ok((
        Stack {
            server,
            engine,
            sink,
            telemetry,
            clients,
        },
        setup_s,
    ))
}

fn stop(stack: Stack) -> Result<(FleetReport, Collector, DrainSummary), String> {
    for client in stack.clients {
        client
            .finish(GOODBYE_TIMEOUT)
            .map_err(|e| format!("session finish: {e}"))?;
    }
    let summary = stack.server.drain();
    let (report, collector) = stack
        .engine
        .join()
        .map_err(|_| "engine thread panicked".to_string())?;
    let report = report.map_err(|e| format!("engine: {e}"))?;
    let sink = Arc::into_inner(stack.sink)
        .ok_or("archive sink still shared")?
        .into_inner()
        .map_err(|_| "archive sink poisoned")?;
    sink.finish().map_err(|e| format!("archive seal: {e}"))?;
    Ok((report, collector, summary))
}

pub fn run(opts: &LiveOptions<'_>, mote: &Mote) -> Result<LiveRun, String> {
    let windows = SCRIPT_WINDOWS.max(1 + (opts.seconds * 1_000_000_000 / PERIOD_NS) as usize);
    let beds = vec![
        bed(Role::Episodes, BED_LEADS, windows, opts.seed),
        bed(Role::Control, BED_LEADS, windows, opts.seed ^ 0xB0B),
    ];
    let frames = encode_lanes(mote, &beds);
    let plans: Vec<BedPlan> = (0..beds.len())
        .map(|b| {
            plan(
                &frames[b * BED_LEADS..(b + 1) * BED_LEADS],
                opts.flaky,
                LINK_SEEDS[b],
            )
        })
        .collect();
    let clock = Clock::new();

    // Several full set-ups; the last one carries the timed phase.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut handshakes = Vec::new();
    let mut live = None;
    // One set of per-window slots, reset for every set-up.
    let mut collector = Some(Collector::new(
        &beds,
        &TelemetryRegistry::disabled(),
        clock,
        opts.trace,
    ));
    for s in 0..SETUPS {
        let root = opts.work.join(format!("archive-{s}"));
        let _ = std::fs::remove_dir_all(&root);
        let slots = collector
            .take()
            .expect("collector returned by the last set-up");
        let (stack, setup_s) = start(mote, &beds, &plans, &frames, slots, &root, &mut handshakes)?;
        setups.push(setup_s);
        if s + 1 < SETUPS {
            collector = Some(stop(stack)?.1);
            let _ = std::fs::remove_dir_all(&root);
        } else {
            live = Some((stack, root));
        }
    }
    let (mut stack, archive_root) = live.expect("at least one set-up");
    let mut sent: Vec<Vec<Vec<u8>>> = plans.iter().map(|p| p.sends[0].clone()).collect();

    // Timed phase: open loop, every window timed from its due time.
    let t0 = clock.ns() + 10_000_000;
    let due = |b: usize, k: usize| t0 + (k as u64 - 1) * PERIOD_NS + BED_OFFSET_NS[b];
    let scraper = Scraper::start(stack.telemetry.clone());
    let (cpu0, gen0) = (stats::process_cpu_seconds(), stats::thread_cpu_seconds());
    let mut lateness_ms = Vec::with_capacity(2 * windows);
    for k in 1..windows {
        for b in 0..beds.len() {
            let at = due(b, k);
            let now = clock.ns();
            if at > now {
                std::thread::sleep(Duration::from_nanos(at - now));
            }
            lateness_ms.push(clock.ns().saturating_sub(at) as f64 / 1e6);
            if opts.flaky && k % RECONNECT_EVERY == RECONNECT_PHASE[b] {
                // Tear the session, then resume under the same patient id,
                // replaying the last records it wrote. The old connection
                // closes first: never more than one per bed.
                let tail = stack.clients.remove(b).into_tail();
                let addr = stack.server.local_addr();
                let fresh = connect(addr, 1000 + b as u32, k as u32, &mut handshakes)?;
                stack.clients.insert(b, fresh);
                stack.clients[b]
                    .replay(&tail)
                    .map_err(|e| format!("replay: {e}"))?;
                if opts.trace {
                    sent[b].extend(
                        tail.iter()
                            .map(|r| r[cs_ingest::RECORD_PREFIX_BYTES..].to_vec()),
                    );
                }
            }
            for record in &plans[b].sends[k] {
                stack.clients[b]
                    .send_frame(record)
                    .map_err(|e| format!("send: {e}"))?;
            }
            if opts.trace {
                sent[b].extend(plans[b].sends[k].iter().cloned());
            }
        }
    }
    let gen_cpu = stats::thread_cpu_seconds() - gen0;
    let (report, collector, summary) = stop(stack)?;
    let renders = scraper.stop();
    let program_cpu = stats::process_cpu_seconds() - cpu0 - gen_cpu;

    // Checks.
    let mut ledger = Ledger::default();
    let intact: Vec<Vec<bool>> = plans
        .iter()
        .flat_map(|p| p.intact.iter().cloned())
        .collect();
    let quality = check_run(
        &mut ledger,
        &beds,
        &collector,
        opts.flaky.then_some(&intact[..]),
    );
    let f = &report.faults;
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
    ledger.check(summary.frames == f.frames, || {
        format!(
            "ingest forwarded {} frames, engine counted {}",
            summary.frames, f.frames
        )
    });

    // End-to-end figures over the timed windows (boundary 0 is warm-up).
    let mut latency_ms = Vec::new();
    let mut queue_ms = Vec::new();
    let mut last_decision = t0;
    let mut emitted = 0usize;
    for b in 0..beds.len() {
        for lead in 0..BED_LEADS {
            let lane = collector.lane(b, lead);
            for k in 1..windows {
                if collector.outcome[lane][k] == Outcome::Missing {
                    continue;
                }
                emitted += 1;
                let decided = collector.decided_ns[lane][k];
                last_decision = last_decision.max(decided);
                let ms = decided.saturating_sub(due(b, k)) as f64 / 1e6;
                latency_ms.push(ms);
                if let Some(trace) = &collector.trace {
                    let busy =
                        (collector.solve_ns[lane][k] + trace.analyze_ns[lane][k]) as f64 / 1e6;
                    queue_ms.push(ms - busy);
                }
            }
        }
    }
    let signal_s = emitted as f64 * 2.0;
    let wire_bytes: usize = frames.iter().flatten().map(Vec::len).sum();
    let metrics = vec![
        metric("setup_s", stats::median(&setups), "s"),
        metric(
            "decision_p50_ms",
            stats::percentile(&latency_ms, 0.50),
            "ms",
        ),
        metric(
            "decision_p99_ms",
            stats::percentile(&latency_ms, 0.99),
            "ms",
        ),
        metric("reprocess_s", (last_decision - t0) as f64 / 1e9, "s"),
        metric("lanes_per_core", signal_s / program_cpu, "lanes"),
        metric("decoded_windows", quality.decoded as f64, "windows"),
        metric("prd_pct", quality.prd_pct(), "%"),
        metric(
            "wire_bytes_per_window",
            wire_bytes as f64 / frames.iter().map(Vec::len).sum::<usize>() as f64,
            "B",
        ),
        metric("alarm_delay_s", stats::mean(&quality.alarm_delays), "s"),
    ];
    println!(
        "timed phase: {} boundaries x {} beds x {BED_LEADS} leads, {} windows decided, \
         program CPU {program_cpu:.2} s, generator CPU {gen_cpu:.2} s",
        windows - 1,
        beds.len(),
        latency_ms.len()
    );
    println!(
        "faults: frames {} rejects {} duplicates {} late {} decoded {} concealed {} (loss {}, desync {}) quarantined {}",
        f.frames, f.frame_rejects, f.duplicates, f.late, f.decoded, f.concealed(), f.concealed_loss,
        f.concealed_desync, f.quarantined
    );
    let trace = opts.trace.then(|| TraceData {
        patients: beds,
        frames,
        sessions: sent,
        archive_root: archive_root.clone(),
        handshake_ms: handshakes,
        render_ms: renders,
        queue_ms,
        report,
        collector,
    });
    if trace.is_none() {
        let _ = std::fs::remove_dir_all(&archive_root);
    }
    Ok(LiveRun {
        metrics,
        ledger,
        lateness_ms,
        trace,
    })
}
