//! The per-layer ledger: replays a traced run's exact inputs
//! single-threaded through each layer's public calls, timed from outside.
//! Nothing inside the program is instrumented.

use crate::collect::Outcome;
use crate::inputs::WINDOW;
use crate::stats;
use crate::{metric, Metric, Mote, TraceData, FEED_CAPACITY};
use cs_archive::{Archive, ArchiveConfig, ArchiveSink};
use cs_clinical::{ClinicalConfig, ClinicalEngine};
use cs_codec::{symbol_to_value, BitReader, DiffConfig, DiffDecoder};
use cs_core::{
    parse_frame, ConcealmentReason, DecodeWorkspace, DecodedPacket, Decoder, EncodedPacket,
    Encoder, FleetConfig, FleetPacket, FrameSink, PacketKind, PacketOutcome, SolverPolicy,
};
use cs_dsp::wavelet::{Dwt, Wavelet};
use cs_ingest::{
    encode_record, Connect, Deframer, IngestClient, IngestConfig, IngestServer, LaneResume,
};
use cs_telemetry::TelemetryRegistry;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-window mean of a total, guarding an empty count.
fn per(total_us: f64, count: usize) -> f64 {
    total_us / count.max(1) as f64
}

fn encoded_packet(frame: &[u8]) -> Result<EncodedPacket, String> {
    let (info, payload) = parse_frame(frame).map_err(|e| format!("replayed frame: {e}"))?;
    Ok(EncodedPacket {
        index: info.index,
        kind: info.kind,
        payload: payload.to_vec(),
        payload_bits: info.payload_bits,
    })
}

/// Handshake probe for workloads that have no sessions of their own.
fn probe_handshakes() -> Result<Vec<f64>, String> {
    let (feed, _source) = crossbeam::channel::bounded(FEED_CAPACITY);
    let server = IngestServer::bind(
        "127.0.0.1:0",
        IngestConfig::default(),
        TelemetryRegistry::new(),
        feed,
    )
    .map_err(|e| format!("probe bind: {e}"))?;
    let lanes = [
        LaneResume {
            lane: 0,
            resume_from: 0,
        },
        LaneResume {
            lane: 1,
            resume_from: 0,
        },
    ];
    let mut times = Vec::new();
    for patient in 0..4 {
        let started = Instant::now();
        match IngestClient::connect(
            server.local_addr(),
            patient,
            &lanes,
            0,
            Duration::from_secs(2),
        ) {
            Ok(Connect::Accepted(client)) => {
                times.push(started.elapsed().as_secs_f64() * 1e3);
                client
                    .finish(Duration::from_secs(5))
                    .map_err(|e| format!("probe finish: {e}"))?;
            }
            other => return Err(format!("probe handshake: {other:?}")),
        }
    }
    server.drain();
    Ok(times)
}

pub fn replay(
    data: &TraceData,
    mote: &Mote,
    work: &Path,
    decision_p50_ms: f64,
) -> Result<Vec<Metric>, String> {
    let config = &mote.config;
    let n = config.packet_len();
    let lanes = data.frames.len();
    let lane_samples: Vec<&[i16]> = data
        .patients
        .iter()
        .flat_map(|p| p.leads.iter().map(Vec::as_slice))
        .collect();

    // Mote: Φ projection, DPCM and Huffman per window.
    let (mut encode_total, mut encodes) = (0.0, 0);
    for samples in &lane_samples {
        let mut encoder =
            Encoder::new(config, Arc::clone(&mote.codebook)).map_err(|e| e.to_string())?;
        for w in samples.chunks(n) {
            let started = Instant::now();
            black_box(
                encoder
                    .encode_packet(black_box(w))
                    .map_err(|e| e.to_string())?,
            );
            encode_total += us(started.elapsed());
            encodes += 1;
        }
    }

    // Ingest: deframe each session's written byte stream; validate each
    // record's frame (header + CRC).
    let (mut deframe_total, mut deframed) = (0.0, 0usize);
    let (mut validate_total, mut validated) = (0.0, 0usize);
    let mut wire = Vec::new();
    for session in &data.sessions {
        wire.clear();
        for frame in session {
            encode_record(frame, &mut wire);
        }
        let mut deframer = Deframer::new();
        let mut pos = 0;
        let started = Instant::now();
        while pos < wire.len() {
            let spare = deframer.spare();
            let take = spare.len().min(wire.len() - pos);
            if take == 0 {
                return Err("deframer buffer full".into());
            }
            spare[..take].copy_from_slice(&wire[pos..pos + take]);
            deframer.commit(take);
            pos += take;
            while let Some(frame) = deframer.next_frame() {
                black_box(frame);
                deframed += 1;
            }
        }
        deframe_total += us(started.elapsed());
        let started = Instant::now();
        for frame in session {
            black_box(parse_frame(black_box(frame)).is_ok());
        }
        validate_total += us(started.elapsed());
        validated += session.len();
    }

    // Archive: append every written frame through the default sink, in
    // arrival order (round-robin across sessions), then reopen and replay
    // the run's own archive.
    let scratch = work.join("layer-archive");
    let _ = std::fs::remove_dir_all(&scratch);
    let mut sink =
        ArchiveSink::create(&scratch, ArchiveConfig::default()).map_err(|e| e.to_string())?;
    let (mut append_total, mut appended) = (0.0, 0usize);
    let longest = data.sessions.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (stream, session) in data.sessions.iter().enumerate() {
            if let Some(frame) = session.get(i) {
                let started = Instant::now();
                sink.append_frame(stream, frame)
                    .map_err(|e| e.to_string())?;
                append_total += us(started.elapsed());
                appended += 1;
            }
        }
    }
    sink.finish().map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&scratch);
    let mut opens = Vec::new();
    let mut archive = None;
    for _ in 0..3 {
        let started = Instant::now();
        let (a, _) = Archive::open(&data.archive_root).map_err(|e| format!("archive open: {e}"))?;
        opens.push(started.elapsed().as_secs_f64() * 1e3);
        archive = Some(a);
    }
    let archive = archive.expect("opened");
    let (mut replay_total, mut replayed) = (0.0, 0usize);
    for patient in archive.patients() {
        for lane in archive.lanes_of(patient) {
            let started = Instant::now();
            for frame in archive
                .replay_range(patient, lane, 0..u64::MAX)
                .map_err(|e| e.to_string())?
            {
                black_box(frame.map_err(|e| e.to_string())?);
                replayed += 1;
            }
            replay_total += us(started.elapsed());
        }
    }

    // Decode side, per lane in window order, mirroring the engine's lane
    // decoder: entropy + DPCM decode alone, then the whole decode (the
    // single-threaded baseline), concealment where the run concealed.
    let m = config.measurements();
    let alphabet = config.alphabet();
    let (mut entropy_total, mut entropy_n) = (0.0, 0usize);
    let (mut decode_total, mut decode_n) = (0.0, 0usize);
    let (mut conceal_total, mut conceal_n) = (0.0, 0usize);
    let (mut probe_total, mut probe_n) = (0.0, 0usize);
    let (mut synth_total, mut synth_n) = (0.0, 0usize);
    let mut mismatched = 0usize;
    let (mut iterations, mut iter_n) = (0u64, 0usize);
    let wavelet = Wavelet::new(config.wavelet_family()).map_err(|e| e.to_string())?;
    let dwt: Dwt<f32> = Dwt::new(&wavelet, n, config.levels()).map_err(|e| e.to_string())?;
    let mut coeffs = vec![0.0f32; n];
    let mut synth = vec![0.0f32; n];
    let mut scratch_buf = vec![0.0f32; n];
    let mut symbols = Vec::with_capacity(m);
    let mut deltas: Vec<i16> = Vec::with_capacity(m);
    let mut refs: Vec<i32> = Vec::with_capacity(m);
    for lane in 0..lanes {
        let outcomes = &data.collector.outcome[lane];
        let mut diff = DiffDecoder::new(DiffConfig {
            vector_len: m,
            reference_interval: config.reference_interval(),
            alphabet,
        });
        let mut decoder: Decoder<f32> =
            Decoder::new(config, Arc::clone(&mote.codebook), SolverPolicy::default())
                .map_err(|e| e.to_string())?;
        decoder.set_warm_start(FleetConfig::default().warm_start);
        decoder.set_concealment(true);
        let mut ws = DecodeWorkspace::for_config(config);
        let mut out = DecodedPacket::default();
        for (k, &outcome) in outcomes.iter().enumerate() {
            if outcome == Outcome::Missing {
                continue;
            }
            if outcome != Outcome::Decoded {
                diff.desynchronize();
                decoder.desynchronize();
                let started = Instant::now();
                decoder.conceal_packet_with(k as u64, &mut ws, &mut out);
                conceal_total += us(started.elapsed());
                conceal_n += 1;
                continue;
            }
            let frame = &data.frames[lane][k];
            let packet = encoded_packet(frame)?;
            let started = Instant::now();
            let mut reader = BitReader::new(&packet.payload);
            let state_ok = match packet.kind {
                PacketKind::Reference => {
                    refs.clear();
                    for _ in 0..m {
                        refs.push(i32::from(
                            reader.read_bits(16).map_err(|e| e.to_string())? as u16 as i16,
                        ));
                    }
                    diff.decode_reference(&refs)
                        .map(|s| black_box(s.len()))
                        .is_ok()
                }
                PacketKind::Delta => {
                    let shift = reader.read_bits(4).map_err(|e| e.to_string())? as u8;
                    mote.codebook
                        .decode_into(&mut reader, m, &mut symbols)
                        .map_err(|e| e.to_string())?;
                    deltas.clear();
                    for &s in &symbols {
                        deltas
                            .push(symbol_to_value(s, alphabet).map_err(|e| e.to_string())? as i16);
                    }
                    diff.decode_delta(shift, &deltas)
                        .map(|s| black_box(s.len()))
                        .is_ok()
                }
            };
            entropy_total += us(started.elapsed());
            entropy_n += 1;
            if !state_ok {
                return Err(format!(
                    "lane {lane} window {k}: DPCM replay lost its reference"
                ));
            }
            let started = Instant::now();
            decoder
                .decode_packet_with(&packet, &mut ws, &mut out)
                .map_err(|e| format!("decode replay: {e}"))?;
            decode_total += us(started.elapsed());
            decode_n += 1;
            let live = &data.collector.recon[lane][k * WINDOW..(k + 1) * WINDOW];
            if out
                .samples
                .iter()
                .zip(live)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                mismatched += 1;
            }
            iterations += u64::from(data.collector.iterations[lane][k]);
            iter_n += 1;
            // Inverse DWT of this window's wavelet coefficients.
            dwt.analyze_scratch(live, &mut coeffs, &mut scratch_buf);
            let started = Instant::now();
            dwt.synthesize_scratch(black_box(&coeffs), &mut synth, &mut scratch_buf);
            synth_total += us(started.elapsed());
            synth_n += 1;
            black_box(&synth);
        }
        // Concealment probe: one replay of the last retained window per
        // lane, for workloads whose path concealed nothing.
        let started = Instant::now();
        decoder.conceal_packet_with(outcomes.len() as u64, &mut ws, &mut out);
        probe_total += us(started.elapsed());
        probe_n += 1;
    }
    let conceal_on_path = conceal_n > 0;
    let conceal_us = if conceal_on_path {
        per(conceal_total, conceal_n)
    } else {
        per(probe_total, probe_n)
    };

    // Clinical analysis: the run's emissions, in emission order, through
    // a fresh engine.
    let order = &data
        .collector
        .trace
        .as_ref()
        .ok_or("no emission order recorded")?
        .order;
    let channels = data
        .patients
        .iter()
        .map(|p| p.leads.len())
        .max()
        .unwrap_or(1);
    let mut clinical = ClinicalEngine::new(
        ClinicalConfig::at_256_hz(),
        data.patients.len(),
        channels,
        TelemetryRegistry::new(),
    );
    let lane_base: Vec<usize> = data
        .patients
        .iter()
        .scan(0, |acc, p| {
            let base = *acc;
            *acc += p.leads.len();
            Some(base)
        })
        .collect();
    let mut events = Vec::with_capacity(64);
    let mut pkt = FleetPacket {
        stream: 0,
        channel: 0,
        outcome: PacketOutcome::Decoded,
        e2e: None,
        packet: DecodedPacket::<f32>::default(),
    };
    pkt.packet.samples = vec![0.0; WINDOW];
    let (mut analyze_total, mut analyzed) = (0.0, 0usize);
    for &(stream, channel, k) in order {
        let lane = lane_base[stream] + usize::from(channel);
        pkt.stream = stream;
        pkt.channel = channel;
        pkt.packet.index = k as u64;
        pkt.outcome = match data.collector.outcome[lane][k] {
            Outcome::Decoded => PacketOutcome::Decoded,
            Outcome::Quarantined => PacketOutcome::Quarantined,
            _ => PacketOutcome::Concealed(ConcealmentReason::Loss),
        };
        pkt.packet
            .samples
            .copy_from_slice(&data.collector.recon[lane][k * WINDOW..(k + 1) * WINDOW]);
        let started = Instant::now();
        clinical.on_packet(&pkt, &mut events);
        analyze_total += us(started.elapsed());
        analyzed += 1;
        events.clear();
    }

    let handshakes = if data.handshake_ms.is_empty() {
        probe_handshakes()?
    } else {
        data.handshake_ms.clone()
    };
    let report = &data.report;
    let worker_mean = stats::mean(
        &report
            .worker_packets
            .iter()
            .map(|&p| p as f64)
            .collect::<Vec<_>>(),
    );
    let worker_max = report.worker_packets.iter().copied().max().unwrap_or(0) as f64;
    let f = &report.faults;

    let deframe_ns = per(deframe_total, deframed) * 1e3;
    let validate_ns = per(validate_total, validated) * 1e3;
    let append_us = per(append_total, appended);
    let replay_us = per(replay_total, replayed);
    let decode_ms = per(decode_total, decode_n) / 1e3;
    let analyze_us = per(analyze_total, analyzed);
    let metrics = vec![
        metric("core.encode_us", per(encode_total, encodes), "us"),
        metric("ingest.deframe_ns", deframe_ns, "ns"),
        metric("core.validate_ns", validate_ns, "ns"),
        metric("ingest.handshake_ms", stats::median(&handshakes), "ms"),
        metric("archive.append_us", append_us, "us"),
        metric("archive.open_ms", stats::median(&opens), "ms"),
        metric("archive.replay_us", replay_us, "us"),
        metric(
            "codec.entropy_decode_us",
            per(entropy_total, entropy_n),
            "us",
        ),
        metric("core.decode_ms", decode_ms, "ms"),
        metric(
            "recovery.fista_iters",
            iterations as f64 / iter_n.max(1) as f64,
            "count",
        ),
        metric("dsp.synthesis_us", per(synth_total, synth_n), "us"),
        metric("core.conceal_us", conceal_us, "us"),
        metric("clinical.analyze_us", analyze_us, "us"),
        metric("telemetry.render_ms", stats::median(&data.render_ms), "ms"),
        metric(
            "core.queue_wait_p50_ms",
            stats::percentile(&data.queue_ms, 0.50),
            "ms",
        ),
        metric(
            "core.queue_wait_p99_ms",
            stats::percentile(&data.queue_ms, 0.99),
            "ms",
        ),
        metric("core.worker_imbalance", worker_max / worker_mean, "ratio"),
        metric(
            "core.backpressure_stalls",
            report.backpressure_stalls as f64,
            "count",
        ),
        metric("core.frames_rejected", f.frame_rejects as f64, "count"),
        metric("core.frames_duplicate", f.duplicates as f64, "count"),
        metric("core.windows_concealed", f.concealed() as f64, "count"),
    ];

    println!(
        "single-threaded baseline: {decode_n} windows decoded in {:.3} s on one thread \
         ({:.3} ms/window); {mismatched} windows differ bit-wise from the live engine's output",
        decode_total / 1e6,
        decode_ms
    );
    if !conceal_on_path {
        println!(
            "core.conceal_us: nothing was concealed on this path; figure is one probe per lane"
        );
    }
    if data.handshake_ms.is_empty() {
        println!(
            "ingest.handshake_ms / ingest.deframe_ns: no sockets on this path; figures are probes"
        );
    }
    // A window's path through the layers, against the measured median.
    let path_ms =
        (deframe_ns + validate_ns) / 1e6 + (append_us + replay_us + analyze_us) / 1e3 + decode_ms;
    println!(
        "window path: deframe + validate + archive + decode + analyze = {path_ms:.3} ms of \
         decision p50 {decision_p50_ms:.3} ms; remainder {:.3} ms is waiting (queue wait p50 {:.3} ms)",
        decision_p50_ms - path_ms,
        stats::percentile(&data.queue_ms, 0.50)
    );
    if path_ms > decision_p50_ms {
        println!("WARNING: summed per-layer time exceeds the measured decision p50");
    }
    Ok(metrics)
}
