//! The closed-loop load generator: each client connection sends its next
//! job only after the previous reply arrived and was checked.

use crate::check::verify;
use crate::corpus::{Corpus, JobKind, Request};
use crate::layers::{LayerSample, Tracer};
use crate::stats::process_cpu_seconds;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use syncd::{NetServer, NetServerConfig, ServiceConfig, TenantConfig};
use syncd_client::{ClientError, JobOutcome, SyncClient};

/// The tenant token the benchmark's clients present.
pub const TOKEN: &str = "e2ebench";

/// A loopback server with the service defaults (executors and pool sized
/// to the host's CPUs) and the `syncd_net` bench's 4 MiB ingest window.
pub fn serve() -> NetServer {
    NetServer::start_loopback(NetServerConfig {
        tenants: vec![TenantConfig::new(TOKEN)],
        ingest_window: 4 << 20,
        service: ServiceConfig::default(),
    })
    .expect("bind a loopback port")
}

/// One finished job as the client saw it.
pub struct JobRecord {
    pub kind: JobKind,
    /// Events the job corrected (0 when it failed).
    pub events: usize,
    /// `SyncClient::submit` call to terminal frame.
    pub latency: Duration,
    pub ok: bool,
    pub error: Option<String>,
    /// Started in a traced round (see [`Mode::Alternating`]).
    pub traced: bool,
    /// Per-layer spans and counts, for jobs run in a traced round.
    pub layers: Option<LayerSample>,
}

impl JobRecord {
    /// Check `result` against the request's reference and record it.
    pub fn new(
        req: &Request,
        result: &Result<JobOutcome, ClientError>,
        latency: Duration,
        full_check: bool,
    ) -> JobRecord {
        let verdict = verify(req.kind, result, &req.reference, full_check);
        JobRecord {
            kind: req.kind,
            events: if verdict.is_ok() { req.events } else { 0 },
            latency,
            ok: verdict.is_ok(),
            error: verdict.err(),
            traced: false,
            layers: None,
        }
    }
}

/// Submit every distinct request once, from the workload's clients
/// concurrently, checking each reply bit for bit. This also fills caches
/// and finishes lazy set-up before timing starts.
pub fn warm_up(corpus: &Corpus, addr: SocketAddr) -> Vec<JobRecord> {
    let clients = corpus.workload.clients();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = match SyncClient::connect(addr, TOKEN) {
                        Ok(client) => client,
                        Err(e) => return vec![connect_failure(corpus, e)],
                    };
                    corpus
                        .requests
                        .iter()
                        .skip(c)
                        .step_by(clients)
                        .map(|req| {
                            let t0 = Instant::now();
                            let result = client.submit(&req.job);
                            JobRecord::new(req, &result, t0.elapsed(), true)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up client panicked"))
            .collect()
    })
}

fn connect_failure(corpus: &Corpus, e: ClientError) -> JobRecord {
    let req = &corpus.requests[0];
    JobRecord::new(req, &Err(e), Duration::ZERO, false)
}

/// How a window treats its jobs.
#[derive(Clone, Copy)]
pub enum Mode<'a> {
    /// Submit and check only: the end-to-end figures.
    Untraced,
    /// Strictly alternating rounds of `round`: untraced, traced, … A job
    /// that starts in a traced round has its layers replayed in-process
    /// after its reply, on the client's thread.
    Alternating { tracer: &'a Tracer, round: Duration },
}

/// The jobs of one timed window and what the process spent on them.
pub struct Window {
    pub records: Vec<JobRecord>,
    /// From the common start to the last client's last reply.
    pub wall: Duration,
    /// Process CPU (user + system, every thread) over the same interval.
    pub cpu_seconds: f64,
}

/// Run `clients` closed-loop connections for `seconds`. A job still in
/// flight at the deadline completes and counts; none starts after it.
pub fn run_window(corpus: &Corpus, addr: SocketAddr, seconds: u64, mode: Mode<'_>) -> Window {
    let clients = corpus.workload.clients();
    let barrier = Barrier::new(clients + 1);
    let budget = Duration::from_secs(seconds);
    let (records, wall, cpu_seconds) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                scope.spawn(move || client_loop(corpus, addr, c, barrier, budget, mode))
            })
            .collect();
        barrier.wait();
        let (t0, cpu0) = (Instant::now(), process_cpu_seconds());
        let records: Vec<JobRecord> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        (records, t0.elapsed(), process_cpu_seconds() - cpu0)
    });
    Window {
        records,
        wall,
        cpu_seconds,
    }
}

fn client_loop(
    corpus: &Corpus,
    addr: SocketAddr,
    c: usize,
    barrier: &Barrier,
    budget: Duration,
    mode: Mode<'_>,
) -> Vec<JobRecord> {
    let mut client = SyncClient::connect(addr, TOKEN);
    barrier.wait();
    let t0 = Instant::now();
    let mut records = Vec::new();
    for n in 0.. {
        let start = Instant::now();
        if start - t0 >= budget {
            break;
        }
        let conn = match &mut client {
            Ok(conn) => conn,
            Err(e) => {
                records.push(connect_failure(corpus, e.clone()));
                break;
            }
        };
        let req = corpus.pick(c, n);
        let result = conn.submit(&req.job);
        let latency = start.elapsed();
        let mut record = JobRecord::new(req, &result, latency, false);
        if let Mode::Alternating { tracer, round } = mode {
            record.traced = ((start - t0).as_nanos() / round.as_nanos().max(1)) % 2 == 1;
            if let (true, Ok(outcome)) = (record.traced && record.ok, &result) {
                record.layers = Some(tracer.trace_job(req, outcome, latency));
            }
        }
        if result.is_err() {
            // The connection may be dead mid-protocol: start a fresh one.
            client = SyncClient::connect(addr, TOKEN);
        }
        records.push(record);
    }
    records
}
