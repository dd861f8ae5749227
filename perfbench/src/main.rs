//! Socket-to-alarm benchmark of the served CS-ECG pipeline.
//!
//! ```text
//! cs-perfbench --workload bedside|flaky|backfill --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload against the stack exactly as `cs-ingestd` serves it
//! (library defaults for `FleetConfig`, `SolverPolicy`, `IngestConfig`
//! and `ArchiveConfig`, a live `TelemetryRegistry`, `uniform_codebook`),
//! checks every output against the synthesized inputs, and prints one
//! JSON object as the last line of standard output. With `--trace 1` it
//! also makes a traced run and replays that run's inputs single-threaded
//! through each layer's public calls, reporting the per-layer ledger
//! instead of the end-to-end metrics. See `perfbench/README.md`.

mod backfill;
mod checks;
mod collect;
mod inputs;
mod layers;
mod live;
mod stats;

use cs_codec::Codebook;
use cs_core::{uniform_codebook, Encoder, FleetReport, SystemConfig};
use cs_telemetry::TelemetryRegistry;
use inputs::Patient;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine feed depth: `cs-ingestd`'s default `--feed-capacity`.
pub const FEED_CAPACITY: usize = 256;
/// Cadence of the stand-in `/metrics` scraper.
const SCRAPE_EVERY: Duration = Duration::from_millis(250);

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The motes' shared configuration: the paper's defaults and the
/// uniform codebook `cs-ingestd` decodes with.
pub struct Mote {
    pub config: SystemConfig,
    pub codebook: Arc<Codebook>,
}

impl Mote {
    fn served() -> Result<Mote, String> {
        let config = SystemConfig::paper_default();
        let codebook = uniform_codebook(config.alphabet()).map_err(|e| format!("codebook: {e}"))?;
        Ok(Mote {
            config,
            codebook: Arc::new(codebook),
        })
    }
}

/// Encodes every lead of every patient: one wire frame per window, lane
/// tag = lead index. Returned per lane (patient-major), per window.
pub fn encode_lanes(mote: &Mote, patients: &[Patient]) -> Vec<Vec<Vec<u8>>> {
    let n = mote.config.packet_len();
    let mut lanes = Vec::new();
    for patient in patients {
        for (lead, samples) in patient.leads.iter().enumerate() {
            let mut encoder = Encoder::new(&mote.config, Arc::clone(&mote.codebook))
                .expect("paper config encoder");
            lanes.push(
                samples
                    .chunks(n)
                    .map(|w| {
                        encoder
                            .encode_packet(w)
                            .expect("window encodes")
                            .to_bytes_tagged(lead as u8)
                    })
                    .collect(),
            );
        }
    }
    lanes
}

/// Renders the live registry as Prometheus text on a fixed cadence, as a
/// `/metrics` scraper would make the server do, and times each render.
pub struct Scraper {
    stop: crossbeam::channel::Sender<()>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

impl Scraper {
    pub fn start(telemetry: TelemetryRegistry) -> Scraper {
        let (stop, stopped) = crossbeam::channel::bounded::<()>(1);
        let handle = std::thread::spawn(move || {
            let mut renders = Vec::new();
            while let Err(crossbeam::channel::RecvTimeoutError::Timeout) =
                stopped.recv_timeout(SCRAPE_EVERY)
            {
                let started = Instant::now();
                std::hint::black_box(telemetry.prometheus());
                renders.push(started.elapsed().as_secs_f64() * 1e3);
            }
            renders
        });
        Scraper { stop, handle }
    }

    pub fn stop(self) -> Vec<f64> {
        let _ = self.stop.send(());
        self.handle.join().expect("scraper thread")
    }
}

/// Everything a traced run hands to the per-layer replays.
pub struct TraceData {
    pub patients: Vec<Patient>,
    /// Per lane and window, the frames as the motes encoded them.
    pub frames: Vec<Vec<Vec<u8>>>,
    /// Per session (patient), the frames in the order they were written.
    pub sessions: Vec<Vec<Vec<u8>>>,
    pub archive_root: PathBuf,
    pub handshake_ms: Vec<f64>,
    pub render_ms: Vec<f64>,
    /// Per window: decision latency − solve time − analysis time.
    pub queue_ms: Vec<f64>,
    pub report: FleetReport,
    pub collector: collect::Collector,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Bedside,
    Flaky,
    Backfill,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut work = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "bedside" => Workload::Bedside,
                    "flaky" => Workload::Flaky,
                    "backfill" => Workload::Backfill,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => trace = value == "1",
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        work: work.ok_or("--work is required")?,
    })
}

struct RunOutput {
    metrics: Vec<Metric>,
    ledger: checks::Ledger,
    lateness_ms: Vec<f64>,
    trace: Option<TraceData>,
}

fn run_workload(args: &Args, mote: &Mote, trace: bool) -> Result<RunOutput, String> {
    let mut out = match args.workload {
        Workload::Bedside | Workload::Flaky => {
            let run = live::run(
                &live::LiveOptions {
                    flaky: args.workload == Workload::Flaky,
                    trace,
                    seed: args.seed,
                    seconds: args.seconds,
                    work: &args.work,
                },
                mote,
            )?;
            RunOutput {
                metrics: run.metrics,
                ledger: run.ledger,
                lateness_ms: run.lateness_ms,
                trace: run.trace,
            }
        }
        Workload::Backfill => {
            let run = backfill::run(args.seed, args.seconds, trace, &args.work, mote)?;
            RunOutput {
                metrics: run.metrics,
                ledger: run.ledger,
                lateness_ms: Vec::new(),
                trace: run.trace,
            }
        }
    };
    out.metrics
        .push(metric("peak_rss_mb", stats::peak_rss_mb(), "MB"));
    Ok(out)
}

fn print_metrics(label: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{label} {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn json_result(ledger: &checks::Ledger, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.correct(),
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("cs-perfbench: work dir {}: {e}", args.work.display());
        return ExitCode::FAILURE;
    }
    let code = match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cs-perfbench: {e}");
            ExitCode::FAILURE
        }
    };
    let _ = std::fs::remove_dir_all(&args.work);
    code
}

fn run(args: &Args) -> Result<String, String> {
    println!(
        "host: {} | nproc {} | load {} (start)",
        stats::cpu_model(),
        std::thread::available_parallelism().map_or(1, usize::from),
        stats::load_average()
    );
    println!(
        "workload {:?}, seed {}, {} s, trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mote = Mote::served()?;
    let untraced = run_workload(args, &mote, false)?;
    print_metrics("e2e", &untraced.metrics);
    let lateness = &untraced.lateness_ms;
    if lateness.is_empty() {
        println!("generator lateness: none (closed loop)");
    } else {
        println!(
            "generator lateness: max {:.3} ms, p99 {:.3} ms over {} sends",
            lateness.iter().copied().fold(0.0, f64::max),
            stats::percentile(lateness, 0.99),
            lateness.len()
        );
    }
    let result = if args.trace {
        let traced = run_workload(args, &mote, true)?;
        for (a, b) in untraced.metrics.iter().zip(&traced.metrics) {
            println!(
                "tracing overhead {:<24} {:+.4} {} (traced {:.4} - untraced {:.4})",
                a.name,
                b.value - a.value,
                a.unit,
                b.value,
                a.value
            );
        }
        let data = traced
            .trace
            .as_ref()
            .ok_or("traced run kept no trace data")?;
        let p50 = untraced
            .metrics
            .iter()
            .find(|m| m.name == "decision_p50_ms")
            .map_or(f64::NAN, |m| m.value);
        let layers = layers::replay(data, &mote, &args.work, p50)?;
        print_metrics("layer", &layers);
        traced.ledger.print();
        json_result(&traced.ledger, &layers)
    } else {
        untraced.ledger.print();
        json_result(&untraced.ledger, &untraced.metrics)
    };
    println!("host load {} (end)", stats::load_average());
    Ok(result)
}
