//! Wire-protocol overhead: the same job set pushed through `syncd`
//! in-process versus over a real loopback socket through `syncd-client`.
//!
//! The socket path pays for everything the in-process path skips — frame
//! encode/decode, two kernel copies per direction, credit round-trips,
//! and re-encoding the corrected trace for the reply — so it cannot win;
//! the gate bounds how much it may lose. The two sides run as strictly
//! alternating rounds (in-process, socket, in-process, …; the
//! arXiv:1505.07734 methodology): each round repeats the whole job set
//! against a fresh service or server until at least 200 ms of timed work
//! has accumulated, and each in-process/socket pair gives one throughput
//! ratio. The report carries the median, minimum and maximum ratio over
//! the pairs; the gate reads the median.
//!
//! Run with `cargo bench -p bench --bench syncd_net` (add `-- --test`
//! for the CI smoke run). Writes `BENCH_syncd_net.json` at the repo
//! root; `scripts/ci.sh` gates on `socket_over_inproc_ratio >= 0.7`.

use clocksync::{OffsetMeasurement, PipelineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simclock::{Dur, Time};
use std::sync::Arc;
use std::time::{Duration, Instant};
use syncd::{
    chunked, JobInput, JobSpec, NetServer, NetServerConfig, ServiceConfig, SyncService,
    TenantConfig,
};
use syncd_client::{JobRequest, SyncClient};
use syncd_wire::{WireJobConfig, WireLatency};
use tracefmt::io::to_binary_columnar_blocked;
use tracefmt::{EventKind, MinLatency, Rank, Tag, Trace, UniformLatency};

const PROCS: usize = 8;

type Measurements = Vec<Option<OffsetMeasurement>>;

/// Same causally-valid skewed-clock generator as the throughput bench.
fn job_trace(seed: u64, msgs: usize) -> (Trace, Measurements, Measurements) {
    let mut rng = StdRng::seed_from_u64(seed);
    let offsets: Vec<i64> = (0..PROCS)
        .map(|p| if p == 0 { 0 } else { rng.gen_range(-400i64..400) })
        .collect();
    let local = |p: usize, t: i64| t + offsets[p];
    let mut trace = Trace::for_ranks(PROCS);
    let mut now = [0i64; PROCS];
    for m in 0..msgs {
        let from = rng.gen_range(0usize..PROCS);
        let to = (from + rng.gen_range(1usize..PROCS)) % PROCS;
        let send_true = now[from] + rng.gen_range(5i64..40);
        now[from] = send_true;
        let recv_true = send_true.max(now[to]) + 4 + rng.gen_range(0i64..20);
        now[to] = recv_true;
        trace.procs[from].push(
            Time::from_us(local(from, send_true)),
            EventKind::Send { to: Rank(to as u32), tag: Tag(m as u32), bytes: 64 },
        );
        trace.procs[to].push(
            Time::from_us(local(to, recv_true)),
            EventKind::Recv { from: Rank(from as u32), tag: Tag(m as u32), bytes: 64 },
        );
    }
    let end = *now.iter().max().expect("non-empty") + 100;
    let measure = |p: usize, t: i64| -> Option<OffsetMeasurement> {
        (p != 0).then(|| OffsetMeasurement {
            worker_time: Time::from_us(local(p, t)),
            offset: Dur::from_us(-offsets[p] + 2),
            rtt: Dur::from_us(10),
        })
    };
    let init: Vec<_> = (0..PROCS).map(|p| measure(p, 0)).collect();
    let fin: Vec<_> = (0..PROCS).map(|p| measure(p, end)).collect();
    (trace, init, fin)
}

/// One job, pre-encoded both ways: as a service `JobSpec` (stream input,
/// so both sides run the identical decode) and as a wire request.
struct BenchJob {
    init: Measurements,
    fin: Measurements,
    bytes: Vec<u8>,
}

fn job_set(jobs: usize, msgs: usize) -> (Vec<BenchJob>, usize) {
    let mut events = 0;
    let set = (0..jobs)
        .map(|j| {
            let (trace, init, fin) = job_trace(2000 + j as u64, msgs);
            events += trace.n_events();
            let bytes = to_binary_columnar_blocked(&trace, 1024).to_vec();
            BenchJob { init, fin, bytes }
        })
        .collect();
    (set, events)
}

/// In-process side: submit every job to a fresh service as a stream
/// input, wait for all outcomes. Seconds of wall time.
fn run_inproc(set: &[BenchJob], lmin: &Arc<dyn MinLatency + Send + Sync>) -> f64 {
    let service = SyncService::start(ServiceConfig {
        queue_capacity: set.len().max(64),
        ..ServiceConfig::default()
    });
    let t0 = Instant::now();
    let handles: Vec<_> = set
        .iter()
        .map(|j| {
            let spec = JobSpec::new(
                JobInput::Stream(chunked(&j.bytes, 256 * 1024)),
                j.init.clone(),
                Some(j.fin.clone()),
                Arc::clone(lmin),
                PipelineConfig::default(),
            );
            service.submit(spec).expect("admitted")
        })
        .collect();
    for h in handles {
        h.wait().expect("in-process job succeeds");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    service.shutdown();
    elapsed
}

/// Socket side: `clients` connections submit the job set round-robin
/// through the framed protocol against a fresh loopback server.
fn run_socket(set: &[BenchJob], lmin: UniformLatency, clients: usize) -> f64 {
    let server = NetServer::start_loopback(NetServerConfig {
        tenants: vec![TenantConfig::new("bench")],
        ingest_window: 4 << 20,
        service: ServiceConfig {
            queue_capacity: set.len().max(64),
            ..ServiceConfig::default()
        },
    })
    .expect("bind loopback");
    let addr = server.local_addr();

    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let set = &set;
            scope.spawn(move || {
                let mut client = SyncClient::connect(addr, "bench").expect("connect");
                for j in set.iter().skip(c).step_by(clients) {
                    let config = WireJobConfig::new(
                        &PipelineConfig::default(),
                        WireLatency::Uniform(lmin.0.as_ps()),
                    )
                    .with_measurements(&j.init, Some(&j.fin));
                    let req = JobRequest { config, chunks: vec![j.bytes.clone()] };
                    let out = client.submit(&req).expect("socket job succeeds");
                    assert!(!out.stream.is_empty(), "corrected stream came back");
                    std::hint::black_box(&out);
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    server.shutdown();
    elapsed
}

/// Alternating round pairs, and the least timed work one round may do.
const ROUNDS: usize = 7;
const MIN_ROUND: Duration = Duration::from_millis(200);

/// Jobs per second of one round: repeat `run` (one pass over the `jobs`
/// job set, returning its timed seconds) until [`MIN_ROUND`] of timed
/// work has accumulated.
fn round_jobs_per_sec(jobs: usize, mut run: impl FnMut() -> f64) -> f64 {
    let (mut secs, mut passes) = (0.0, 0usize);
    while secs < MIN_ROUND.as_secs_f64() {
        secs += run();
        passes += 1;
    }
    (jobs * passes) as f64 / secs
}

/// Median, min and max of the per-round values.
fn spread(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    (xs[xs.len() / 2], xs[0], xs[xs.len() - 1])
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (jobs, msgs) = if test_mode { (24, 800) } else { (96, 2500) };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = cpus.clamp(1, 4);
    let lmin = UniformLatency(Dur::from_us(4));
    let lmin_arc: Arc<dyn MinLatency + Send + Sync> = Arc::new(lmin);

    let (set, events) = job_set(jobs, msgs);
    println!(
        "syncd_net: {jobs} jobs, {events} events total, {clients} client(s), {cpus} cpu(s)"
    );

    let (mut inproc, mut socket, mut ratios) = (vec![], vec![], vec![]);
    for round in 0..ROUNDS {
        let i = round_jobs_per_sec(jobs, || run_inproc(&set, &lmin_arc));
        let s = round_jobs_per_sec(jobs, || run_socket(&set, lmin, clients));
        println!(
            "  round {}: in-process {i:.1} jobs/s, socket {s:.1} jobs/s, ratio {:.3}x",
            round + 1,
            s / i
        );
        inproc.push(i);
        socket.push(s);
        ratios.push(s / i);
    }
    let (inproc_jps, ..) = spread(inproc);
    let (socket_jps, ..) = spread(socket);
    let (ratio, ratio_min, ratio_max) = spread(ratios);
    println!("  in-process  {inproc_jps:>9.1} jobs/s  (median of {ROUNDS} rounds)");
    println!("  socket      {socket_jps:>9.1} jobs/s  (median of {ROUNDS} rounds)");
    println!(
        "  socket/in-process ratio: median {ratio:.3}x [{ratio_min:.3}, {ratio_max:.3}]"
    );

    let json = format!(
        "{{\n  \"jobs\": {jobs},\n  \"events\": {events},\n  \"cpus\": {cpus},\n  \
         \"clients\": {clients},\n  \"rounds\": {ROUNDS},\n  \
         \"min_round_ms\": {},\n  \
         \"inproc_jobs_per_sec\": {inproc_jps:.2},\n  \
         \"socket_jobs_per_sec\": {socket_jps:.2},\n  \
         \"socket_over_inproc_ratio\": {ratio:.3},\n  \
         \"socket_over_inproc_ratio_min\": {ratio_min:.3},\n  \
         \"socket_over_inproc_ratio_max\": {ratio_max:.3}\n}}\n",
        MIN_ROUND.as_millis()
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_syncd_net.json");
    std::fs::write(out, json).expect("write BENCH_syncd_net.json");
    println!("wrote {out}");

    // CPU-aware floor. On one CPU the socket path time-slices with the
    // executors and pays serialization on the critical path: allow 30%.
    // With real cores the framing work overlaps job execution, so the
    // wire should cost little — but keep the same floor and let the JSON
    // trend line catch soft regressions; hard-failing CI on loopback
    // scheduler noise costs more than it protects.
    assert!(
        ratio >= 0.7,
        "socket path below 0.7x of in-process throughput on {cpus} cpu(s): {ratio:.3}x"
    );
}
