//! The traced run's per-layer spans and counts. Every span is taken from
//! this benchmark's side, around a call into one layer's public functions:
//! the client call itself, then in-process replays of the same job through
//! the wire codec, the service, each pipeline engine and the trace codec.

use crate::corpus::{JobKind, Request, WINDOW_EVENTS};
use bytes::Bytes;
use clocksync::{synchronize_stream, synchronize_stream_incremental, PipelineStats};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use syncd::{JobInput, JobSpec, ServiceConfig, SyncService};
use syncd_client::JobOutcome;
use syncd_wire::{Frame, FrameScanner, CHUNK_PAYLOAD};
use tracefmt::io::{from_binary_columnar, to_binary_columnar_blocked};

/// Events per block of the server's batch reply encoding.
const REPLY_BLOCK_EVENTS: usize = 4096;

/// Jumps per `Jumps` frame in the server's reply.
const JUMP_BATCH: usize = 8192;

/// Socket read size of the client, used to feed the replayed scanner.
const READ_BYTES: usize = 64 * 1024;

/// Pipeline stages reported one by one, with their metric; every
/// `census:*` stage folds into `census`. The streamed path ingests instead
/// of gathering, so there is no `gather` stage to report.
const STAGES: [(&str, &str); 8] = [
    ("ingest", "pipeline.ingest_ms"),
    ("match", "pipeline.match_ms"),
    ("lower", "pipeline.lower_ms"),
    ("plan", "pipeline.plan_ms"),
    ("census", "pipeline.census_ms"),
    ("presync", "pipeline.presync_ms"),
    ("clc", "pipeline.clc_ms"),
    ("scatter", "pipeline.scatter_ms"),
];

/// Every per-layer metric of the traced run, with its unit.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("client.submit_ms", "ms"),
    ("client.upload_bytes", "bytes"),
    ("client.reply_bytes", "bytes"),
    ("wire.frames", "count"),
    ("wire.encode_ms", "ms"),
    ("wire.scan_ms", "ms"),
    ("syncd.queue_wait_ms", "ms"),
    ("syncd.run_ms", "ms"),
    ("syncd.attempts", "count"),
    ("syncd.inproc_ms", "ms"),
    ("net.residual_ms", "ms"),
    ("pipeline.ingest_ms", "ms"),
    ("pipeline.match_ms", "ms"),
    ("pipeline.lower_ms", "ms"),
    ("pipeline.plan_ms", "ms"),
    ("pipeline.census_ms", "ms"),
    ("pipeline.presync_ms", "ms"),
    ("pipeline.clc_ms", "ms"),
    ("pipeline.scatter_ms", "ms"),
    ("pipeline.total_ms", "ms"),
    ("pipeline.stage_coverage", "fraction"),
    ("pipeline.events", "count"),
    ("pipeline.messages", "count"),
    ("pipeline.logical_messages", "count"),
    ("pipeline.clc_jumps", "count"),
    ("pipeline.violations_raw", "count"),
    ("pipeline.violations_presync", "count"),
    ("pipeline.violations_clc", "count"),
    ("windowed.total_ms", "ms"),
    ("windowed.frames", "count"),
    ("windowed.peak_resident_bytes", "bytes"),
    ("windowed.stage_coverage", "fraction"),
    ("onlinesync.total_ms", "ms"),
    ("onlinesync.stage_coverage", "fraction"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("setup.simulate_s", "s"),
    ("setup.encode_s", "s"),
    ("setup.reference_s", "s"),
    ("setup.server_start_s", "s"),
    ("trace.untraced_latency_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The metrics of the job's own path (client, wire, service, net, and the
/// client-side decode), which differ by job kind and are also reported
/// per kind. The engine replays run every engine on every traced job.
pub const JOB_PATH: [&str; 12] = [
    "client.submit_ms",
    "client.upload_bytes",
    "client.reply_bytes",
    "wire.frames",
    "wire.encode_ms",
    "wire.scan_ms",
    "syncd.queue_wait_ms",
    "syncd.run_ms",
    "syncd.attempts",
    "syncd.inproc_ms",
    "net.residual_ms",
    "codec.decode_ms",
];

/// One traced job's spans (ms) and counts, by metric name.
#[derive(Debug, Default)]
pub struct LayerSample(BTreeMap<&'static str, f64>);

impl LayerSample {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f`, returning its result and the elapsed wall time.
fn span<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed())
}

/// Replays traced jobs in-process. Owns a service of its own, configured
/// like the server's, for the in-process span of the same job.
pub struct Tracer {
    service: SyncService,
}

impl Tracer {
    pub fn start() -> Tracer {
        Tracer {
            service: SyncService::start(ServiceConfig::default()),
        }
    }

    pub fn shutdown(self) {
        self.service.shutdown();
    }

    /// Spans and counts of one job that `submit` took over the socket
    /// and that came back as `outcome` (already checked).
    pub fn trace_job(&self, req: &Request, outcome: &JobOutcome, submit: Duration) -> LayerSample {
        let mut s = LayerSample::default();
        let summary = &outcome.summary;
        let queue_wait_ms = summary.queue_wait_us as f64 / 1e3;
        let run_ms = summary.run_time_us as f64 / 1e3;
        s.set("client.submit_ms", ms(submit));
        s.set("syncd.queue_wait_ms", queue_wait_ms);
        s.set("syncd.run_ms", run_ms);
        s.set("syncd.attempts", f64::from(summary.attempts));
        s.set("net.residual_ms", ms(submit) - queue_wait_ms - run_ms);
        replay_wire(req, outcome, &mut s);
        s.set("syncd.inproc_ms", ms(self.replay_service(req)));
        let reply = Bytes::from(outcome.stream.concat());
        let (decoded, took) = span(|| from_binary_columnar(reply));
        decoded.expect("checked reply decodes");
        s.set("codec.decode_ms", ms(took));
        replay_engines(req, &mut s);
        s
    }

    /// The same job through an in-process `SyncService`: submit and wait.
    fn replay_service(&self, req: &Request) -> Duration {
        let chunks: Vec<Vec<u8>> = req.job.chunks[0]
            .chunks(CHUNK_PAYLOAD)
            .map(<[u8]>::to_vec)
            .collect();
        let input = match req.kind {
            JobKind::Incremental => JobInput::StreamIncremental {
                chunks,
                window_events: WINDOW_EVENTS as usize,
            },
            JobKind::Batch | JobKind::Online => JobInput::Stream(chunks),
        };
        let r = &req.replay;
        let cfg = if req.kind == JobKind::Online {
            &r.online
        } else {
            &r.batch
        };
        let spec = JobSpec::new(
            input,
            r.init.clone(),
            Some(r.fin.clone()),
            r.lmin.clone(),
            cfg.clone(),
        );
        let (outcome, took) = span(|| {
            let handle = self
                .service
                .submit(spec)
                .expect("in-process service admits the job");
            handle.wait()
        });
        outcome.expect("in-process job succeeds");
        took
    }
}

/// Re-encode the job's request and reply frames as the client and server
/// wrote them, then scan them back in socket-sized reads. Credit frames
/// depend on timing and are left out.
fn replay_wire(req: &Request, outcome: &JobOutcome, s: &mut LayerSample) {
    let mut request = vec![Frame::JobConfig(Box::new(req.job.config.clone()))];
    for chunk in &req.job.chunks {
        request.extend(
            chunk
                .chunks(CHUNK_PAYLOAD)
                .map(|c| Frame::Chunk(c.to_vec())),
        );
    }
    request.push(Frame::ChunkEnd);
    let mut reply: Vec<Frame> = match req.kind {
        JobKind::Incremental => (0u64..)
            .zip(&outcome.stream)
            .map(|(index, bytes)| Frame::CorrectedFrame {
                index,
                bytes: bytes.clone(),
            })
            .collect(),
        JobKind::Batch | JobKind::Online => outcome
            .stream
            .iter()
            .map(|c| Frame::Chunk(c.clone()))
            .collect(),
    };
    reply.extend(
        outcome
            .jumps
            .chunks(JUMP_BATCH)
            .map(|b| Frame::Jumps(b.to_vec())),
    );
    reply.push(Frame::JobResult(outcome.summary));

    // Each side encodes frame by frame and writes each buffer whole.
    let encode = |frames: &[Frame]| -> Vec<Vec<u8>> { frames.iter().map(Frame::encode).collect() };
    let ((up, down), enc) = span(|| (encode(&request), encode(&reply)));
    let (up, down) = (up.concat(), down.concat());
    let (frames, scan) = span(|| {
        [&up, &down]
            .iter()
            .map(|bytes| {
                let mut scanner = FrameScanner::new();
                for read in bytes.chunks(READ_BYTES) {
                    std::hint::black_box(scanner.feed(read).expect("replayed frames scan"));
                }
                scanner.frames()
            })
            .sum::<u64>()
    });
    s.set("client.upload_bytes", up.len() as f64);
    s.set("client.reply_bytes", down.len() as f64);
    s.set("wire.frames", frames as f64);
    s.set("wire.encode_ms", ms(enc));
    s.set("wire.scan_ms", ms(scan));
}

/// Run the job's input through every engine — batch pipeline, windowed
/// engine, online method — and the reply encoder, whatever the job's
/// kind, so each layer is measured on every workload's inputs.
fn replay_engines(req: &Request, s: &mut LayerSample) {
    let r = &req.replay;
    let bytes = &req.job.chunks[0];
    let chunks = || bytes.chunks(CHUNK_PAYLOAD);

    let (out, took) =
        span(|| synchronize_stream(chunks(), &r.init, Some(&r.fin), &*r.lmin, &r.batch));
    let (trace, report) = out.expect("batch replay runs");
    s.set("pipeline.total_ms", ms(took));
    for (stage, metric) in STAGES {
        let secs: f64 = report
            .stats
            .stages
            .iter()
            .filter(|st| st.name == stage || (stage == "census" && st.name.starts_with("census:")))
            .map(|st| st.seconds)
            .sum();
        s.set(metric, secs * 1e3);
    }
    s.set("pipeline.stage_coverage", coverage(&report.stats, took));
    let clc = report.clc.as_ref().expect("batch replay runs the CLC");
    s.set("pipeline.events", trace.n_events() as f64);
    s.set("pipeline.messages", report.raw.p2p.total as f64);
    s.set(
        "pipeline.logical_messages",
        report.raw.coll.logical_total as f64,
    );
    s.set("pipeline.clc_jumps", clc.jumps.len() as f64);
    s.set(
        "pipeline.violations_raw",
        report.raw.total_violations() as f64,
    );
    s.set(
        "pipeline.violations_presync",
        report.after_presync.total_violations() as f64,
    );
    let after_clc = report.after_clc.as_ref().expect("CLC census ran");
    s.set(
        "pipeline.violations_clc",
        after_clc.total_violations() as f64,
    );

    let (encoded, took) = span(|| to_binary_columnar_blocked(&trace, REPLY_BLOCK_EVENTS));
    drop((encoded, trace));
    s.set("codec.encode_ms", ms(took));

    let slices: Vec<&[u8]> = chunks().collect();
    let (out, took) = span(|| {
        synchronize_stream_incremental(
            &slices,
            &r.init,
            Some(&r.fin),
            &*r.lmin,
            &r.batch,
            WINDOW_EVENTS as usize,
        )
    });
    let (frames, inc) = out.expect("windowed replay runs");
    drop(frames);
    s.set("windowed.total_ms", ms(took));
    s.set("windowed.frames", inc.frames as f64);
    s.set(
        "windowed.peak_resident_bytes",
        inc.stats.peak_resident_column_bytes as f64,
    );
    s.set("windowed.stage_coverage", coverage(&inc.stats, took));

    let (out, took) =
        span(|| synchronize_stream(chunks(), &r.init, Some(&r.fin), &*r.lmin, &r.online));
    let (_, online) = out.expect("online replay runs");
    s.set("onlinesync.total_ms", ms(took));
    s.set("onlinesync.stage_coverage", coverage(&online.stats, took));
}

/// Share of the span that the engine's own stage timings account for.
fn coverage(stats: &PipelineStats, span: Duration) -> f64 {
    stats.stages.iter().map(|st| st.seconds).sum::<f64>() / span.as_secs_f64()
}
