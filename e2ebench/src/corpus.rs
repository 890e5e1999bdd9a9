//! The workloads: seeded job corpora, their wire requests, and the
//! in-process reference each reply is checked against.

use crate::check::Reference;
use clocksync::{synchronize_stream, OffsetMeasurement, OnlineSpec, PipelineConfig, SyncMethod};
use experiments::fig7::{pop_program, smg_program, traced_run};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{Dur, Time};
use std::sync::Arc;
use std::time::{Duration, Instant};
use syncd_client::JobRequest;
use syncd_wire::{WireJobConfig, WireLatency, WireMode};
use tracefmt::io::to_binary_columnar_blocked;
use tracefmt::{EventKind, MinLatency, Rank, Tag, Trace};

/// Events per block of the generated DTC2 input streams.
pub const INPUT_BLOCK_EVENTS: usize = 4096;

/// Window of the incremental jobs, in events.
pub const WINDOW_EVENTS: u64 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SynthUnique,
    Pop,
    SmgMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SynthUnique, Workload::Pop, Workload::SmgMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthUnique => "synth-unique",
            Workload::Pop => "pop",
            Workload::SmgMixed => "smg-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections (the host has 2 CPUs).
    pub fn clients(self) -> usize {
        match self {
            Workload::SmgMixed => 2,
            Workload::SynthUnique | Workload::Pop => 1,
        }
    }

    /// Distinct traces per corpus. Jobs cycle through them, so one run's
    /// figures average over several inputs of the seed, not one.
    fn distinct_traces(self) -> usize {
        match self {
            Workload::SmgMixed => 8,
            Workload::SynthUnique | Workload::Pop => 4,
        }
    }

    /// Job kinds in the workload's fixed round-robin order.
    pub fn kinds(self) -> &'static [JobKind] {
        match self {
            Workload::SmgMixed => &[JobKind::Batch, JobKind::Incremental, JobKind::Online],
            Workload::SynthUnique | Workload::Pop => &[JobKind::Batch],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobKind {
    /// Batch presync + CLC; the corrected trace comes back after the run.
    Batch,
    /// The windowed engine; corrected frames stream back while it runs.
    Incremental,
    /// The online (Kalman) method in batch mode.
    Online,
}

impl JobKind {
    pub const ALL: [JobKind; 3] = [JobKind::Batch, JobKind::Incremental, JobKind::Online];

    pub fn name(self) -> &'static str {
        match self {
            JobKind::Batch => "batch",
            JobKind::Incremental => "incremental",
            JobKind::Online => "online",
        }
    }
}

/// One distinct job: the request a client uploads and what must come back.
pub struct Request {
    pub kind: JobKind,
    pub job: JobRequest,
    /// Trace events the job corrects.
    pub events: usize,
    pub reference: Arc<Reference>,
    /// The trace's inputs in pipeline types, for the traced run's
    /// in-process layer replays.
    pub replay: Arc<Replay>,
}

/// One trace's pipeline inputs, shared by every request built from it.
pub struct Replay {
    pub init: Vec<Option<OffsetMeasurement>>,
    pub fin: Vec<Option<OffsetMeasurement>>,
    pub lmin: Arc<dyn MinLatency + Send + Sync>,
    /// Presync + CLC, as batch and incremental jobs run it.
    pub batch: PipelineConfig,
    /// The online method over the trace's probe schedule.
    pub online: PipelineConfig,
}

/// Time spent in each part of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub simulate: Duration,
    pub encode: Duration,
    pub reference: Duration,
}

pub struct Corpus {
    pub workload: Workload,
    /// Grouped by trace: `requests[t * kinds + k]` is kind `k` of trace `t`.
    pub requests: Vec<Request>,
}

impl Corpus {
    /// FNV-1a over every request's bytes and header: equal fingerprints
    /// mean the seed rebuilt the same inputs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for req in &self.requests {
            let header = format!("{:?}", req.job.config);
            for &b in req.job.chunks.iter().flatten().chain(header.as_bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The request client `client` sends as its `n`-th job. Kinds rotate
    /// in fixed order and each client starts one kind further on, so
    /// concurrent clients mix kinds; traces advance once per kind cycle.
    pub fn pick(&self, client: usize, n: usize) -> &Request {
        let kinds = self.workload.kinds().len();
        let kind = (n + client) % kinds;
        let trace = (n / kinds + client) % (self.requests.len() / kinds);
        &self.requests[trace * kinds + kind]
    }
}

/// A trace with its interpolation anchors and latency model.
struct Traced {
    trace: Trace,
    init: Vec<Option<OffsetMeasurement>>,
    fin: Vec<Option<OffsetMeasurement>>,
    /// Per-process probe schedule for the online method.
    probes: Vec<Vec<OffsetMeasurement>>,
    lmin: WireLatency,
}

/// Build the workload's corpus from `seed`: simulate, encode, and compute
/// every reference in-process.
pub fn build(workload: Workload, seed: u64) -> (Corpus, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut requests = Vec::new();
    for t in 0..workload.distinct_traces() {
        let trace_seed = mix(seed, (workload as u64) << 32 | t as u64);
        let t0 = Instant::now();
        let traced = match workload {
            Workload::SynthUnique => synth_unique(trace_seed),
            Workload::Pop => application(pop_program(20), trace_seed),
            Workload::SmgMixed => application(smg_program(60), trace_seed),
        };
        times.simulate += t0.elapsed();

        let t0 = Instant::now();
        let bytes = to_binary_columnar_blocked(&traced.trace, INPUT_BLOCK_EVENTS).to_vec();
        times.encode += t0.elapsed();
        let events = traced.trace.n_events();
        drop(traced.trace);

        let online = PipelineConfig {
            method: SyncMethod::Online(OnlineSpec::new(traced.probes)),
            ..PipelineConfig::default()
        };
        let replay = Arc::new(Replay {
            lmin: traced.lmin.to_model(),
            init: traced.init,
            fin: traced.fin,
            batch: PipelineConfig::default(),
            online,
        });
        let base = WireJobConfig::new(&replay.batch, traced.lmin)
            .with_measurements(&replay.init, Some(&replay.fin));
        let mut batch_reference = None;
        for &kind in workload.kinds() {
            let config = match kind {
                JobKind::Batch => base.clone(),
                JobKind::Incremental => WireJobConfig {
                    mode: WireMode::Incremental {
                        window_events: WINDOW_EVENTS,
                    },
                    ..base.clone()
                },
                JobKind::Online => WireJobConfig::new(&replay.online, base.lmin.clone())
                    .with_measurements(&replay.init, Some(&replay.fin)),
            };
            let t0 = Instant::now();
            // The windowed engine is bit-identical to batch, so an
            // incremental job shares its trace's batch reference.
            let reference = match (kind, &batch_reference) {
                (JobKind::Incremental, Some(r)) => Arc::clone(r),
                _ => Arc::new(reference_for(&config, &bytes)),
            };
            if kind == JobKind::Batch {
                batch_reference = Some(Arc::clone(&reference));
            }
            times.reference += t0.elapsed();
            requests.push(Request {
                kind,
                job: JobRequest {
                    config,
                    chunks: vec![bytes.clone()],
                },
                events,
                reference,
                replay: Arc::clone(&replay),
            });
        }
    }
    (Corpus { workload, requests }, times)
}

/// Run the request through the batch pipeline in-process, exactly as the
/// server's executor will.
fn reference_for(config: &WireJobConfig, bytes: &[u8]) -> Reference {
    let pipeline = config
        .pipeline_config()
        .expect("benchmark configs are valid");
    let (init, fin) = config.measurements();
    let lmin = config.lmin.to_model();
    let (trace, report) = synchronize_stream([bytes], &init, fin.as_deref(), &*lmin, &pipeline)
        .expect("reference pipeline runs on generated inputs");
    Reference::new(&trace, &report)
}

/// SplitMix64 finalizer: decorrelated per-trace seeds from one run seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 16-process, 120k-event drifting generator of the
/// `pipeline_parallel` bench: skewed, linearly drifting clocks, and a tag
/// per message — the hash matcher's worst case.
fn synth_unique(seed: u64) -> Traced {
    const PROCS: usize = 16;
    const MSGS: usize = 60_000;
    const LMIN_US: i64 = 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let offsets: Vec<i64> = (0..PROCS)
        .map(|p| {
            if p == 0 {
                0
            } else {
                rng.gen_range(-500i64..500)
            }
        })
        .collect();
    let rates: Vec<f64> = (0..PROCS)
        .map(|p| {
            if p == 0 {
                0.0
            } else {
                rng.gen_range(-30e-6..30e-6)
            }
        })
        .collect();
    let local = |p: usize, true_us: i64| -> i64 {
        true_us + offsets[p] + (rates[p] * true_us as f64).round() as i64
    };
    let mut trace = Trace::for_ranks(PROCS);
    let mut now = [0i64; PROCS];
    for m in 0..MSGS {
        let from = rng.gen_range(0usize..PROCS);
        let to = (from + rng.gen_range(1usize..PROCS)) % PROCS;
        let send_true = now[from] + rng.gen_range(5i64..40);
        now[from] = send_true;
        let recv_true = send_true.max(now[to]) + LMIN_US + rng.gen_range(0i64..20);
        now[to] = recv_true;
        trace.procs[from].push(
            Time::from_us(local(from, send_true)),
            EventKind::Send {
                to: Rank(to as u32),
                tag: Tag(m as u32),
                bytes: 64,
            },
        );
        trace.procs[to].push(
            Time::from_us(local(to, recv_true)),
            EventKind::Recv {
                from: Rank(from as u32),
                tag: Tag(m as u32),
                bytes: 64,
            },
        );
    }
    let end = *now.iter().max().expect("non-empty") + 100;
    let measure = |p: usize, true_us: i64| -> Option<OffsetMeasurement> {
        (p != 0).then(|| OffsetMeasurement {
            worker_time: Time::from_us(local(p, true_us)),
            offset: Dur::from_us(true_us - local(p, true_us) + 3),
            rtt: Dur::from_us(10),
        })
    };
    let init: Vec<_> = (0..PROCS).map(|p| measure(p, 0)).collect();
    let fin: Vec<_> = (0..PROCS).map(|p| measure(p, end)).collect();
    let probes = init
        .iter()
        .zip(&fin)
        .map(|(a, b)| a.iter().chain(b).copied().collect())
        .collect();
    Traced {
        trace,
        init,
        fin,
        probes,
        lmin: WireLatency::Uniform(Dur::from_us(LMIN_US).as_ps()),
    }
}

/// A 32-rank application traced on the simulated Xeon cluster, with the
/// cluster's per-pair minimum latencies and its probe epochs
/// (init, eight interior, finalize) as the online probe schedule.
fn application(
    (program, duration_s, compression): (mpisim::Program, f64, f64),
    seed: u64,
) -> Traced {
    let run = traced_run(&program, duration_s, compression, seed);
    let n = run.trace.n_procs();
    let l_min = run.cluster.l_min_model();
    let entries = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .map(|(a, b)| l_min(Rank(a as u32), Rank(b as u32)).as_ps())
        .collect();
    let probes = (0..n)
        .map(|p| {
            std::iter::once(&run.init)
                .chain(&run.mid)
                .chain(std::iter::once(&run.fin))
                .filter_map(|epoch| epoch[p])
                .collect()
        })
        .collect();
    Traced {
        lmin: WireLatency::Table {
            n: n as u32,
            entries,
        },
        init: run.init,
        fin: run.fin,
        probes,
        trace: run.trace,
    }
}
