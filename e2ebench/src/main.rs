//! End-to-end benchmark of the syncd job path: closed-loop `SyncClient`
//! jobs against a loopback `NetServer` in the same process, each reply
//! checked against an in-process reference.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <synth-unique|pop|smg-mixed|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. A
//! mismatch against the reference fails the job and the run exits 1.

mod check;
mod corpus;
mod layers;
mod load;
mod stats;

use corpus::{Corpus, JobKind, SetupTimes, Workload};
use layers::{Tracer, JOB_PATH, PER_LAYER};
use load::{JobRecord, Mode, Window};
use stats::{median, peak_rss_mb, percentile, tail_percentile, HostRecord};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use syncd::NetServer;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Untraced/traced round pairs in a traced run.
const ROUND_PAIRS: u32 = 5;

/// The end-to-end metrics of an untraced run, with their units.
/// `error_rate` and `peak_rss_mb` are printed beside them.
const END_TO_END: [(&str, &str); 5] = [
    ("events_per_s", "events/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_job", "ms"),
    ("setup_s", "s"),
];

/// One set-up's wall time, its corpus parts, and the server start.
struct Setup {
    total: Duration,
    parts: SetupTimes,
    server_start: Duration,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: e2ebench --workload <synth-unique|pop|smg-mixed|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match Workload::parse(&args.workload) {
        Some(w) => run(w, &args),
        None => run_all(&args),
    }
}

/// Every workload, each in a fresh process so each gets its own peak RSS.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut status = ExitCode::SUCCESS;
    for w in Workload::ALL {
        let ok = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .is_ok_and(|s| s.success());
        if !ok {
            status = ExitCode::FAILURE;
        }
    }
    status
}

/// Set-up, repeated: corpus simulation, encoding and references, then the
/// server start. Returns the last corpus and server, every repetition's
/// timings, and whether every repetition built the identical corpus.
fn set_up(workload: Workload, seed: u64) -> (Corpus, NetServer, Vec<Setup>, bool) {
    let mut timings = Vec::new();
    let mut fingerprints = Vec::new();
    let mut kept: Option<(Corpus, NetServer)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, old_server)) = kept.take() {
            old_server.shutdown();
        }
        let t0 = Instant::now();
        let (corpus, parts) = corpus::build(workload, seed);
        let t1 = Instant::now();
        let server = load::serve();
        timings.push(Setup {
            total: t0.elapsed(),
            parts,
            server_start: t1.elapsed(),
        });
        fingerprints.push(corpus.fingerprint());
        kept = Some((corpus, server));
    }
    let (corpus, server) = kept.expect("at least one set-up");
    let deterministic = fingerprints.windows(2).all(|w| w[0] == w[1]);
    (corpus, server, timings, deterministic)
}

fn run(workload: Workload, args: &Args) -> ExitCode {
    let host = HostRecord::probe();
    println!(
        "# e2ebench {} seed={} seconds={} trace={} clients={} kinds={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload.clients(),
        workload
            .kinds()
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(":"),
    );
    println!("# host {}", host.to_json(workload.name(), args.seed));

    let (corpus, server, setups, deterministic) = set_up(workload, args.seed);
    let addr = server.local_addr();
    let events: Vec<usize> = corpus.requests.iter().map(|r| r.events).collect();
    println!(
        "# corpus: {} distinct requests, {}..{} events per job, {} set-ups{}",
        corpus.requests.len(),
        events.iter().min().expect("non-empty corpus"),
        events.iter().max().expect("non-empty corpus"),
        setups.len(),
        if deterministic {
            ""
        } else {
            " (NOT identical: seed does not fix the inputs)"
        },
    );

    let warm = load::warm_up(&corpus, addr);
    let verified = warm.iter().filter(|r| r.ok).count();
    println!(
        "# verify: {verified}/{} distinct replies bit-identical to their reference",
        warm.len()
    );

    let tracer = args.trace.then(Tracer::start);
    let mode = match &tracer {
        None => Mode::Untraced,
        Some(tracer) => Mode::Alternating {
            tracer,
            round: Duration::from_secs(args.seconds) / (2 * ROUND_PAIRS),
        },
    };
    let window = load::run_window(&corpus, addr, args.seconds, mode);
    let server_metrics = server.metrics();
    server.shutdown();
    if let Some(t) = tracer {
        t.shutdown();
    }

    let attempted = warm.len() + window.records.len();
    let failures: Vec<&JobRecord> = warm
        .iter()
        .chain(&window.records)
        .filter(|r| !r.ok)
        .collect();
    for f in failures.iter().take(5) {
        println!(
            "# FAILED {} job: {}",
            f.kind.name(),
            f.error.as_deref().unwrap_or("?")
        );
    }
    let correct = failures.is_empty() && deterministic;
    println!(
        "# server: {} jobs completed, {} retried",
        server_metrics.counter(syncd::Counter::Completed),
        server_metrics.counter(syncd::Counter::Retried),
    );
    println!("{:<18} {:>14}  {:<9} note", "metric", "value", "unit");
    println!(
        "{:<18} {:>14.4}  {:<9} {} of {attempted} jobs failed (JSON: failed/attempted)",
        "error_rate",
        failures.len() as f64 / attempted as f64,
        "fraction",
        failures.len(),
    );
    let metrics = if args.trace {
        per_layer(&window, &setups)
    } else {
        match end_to_end(&window, &setups) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("e2ebench: {e}");
                return ExitCode::from(3);
            }
        }
    };
    if let Some((name, _, _)) = metrics.iter().find(|m| !m.2.is_finite()) {
        eprintln!("e2ebench: {name} was not measured");
        return ExitCode::from(3);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.len(),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn sorted_latencies_ms<'a>(records: impl Iterator<Item = &'a JobRecord>) -> Vec<f64> {
    let mut v: Vec<f64> = records
        .filter(|r| r.ok)
        .map(|r| r.latency.as_secs_f64() * 1e3)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

fn end_to_end(window: &Window, setups: &[Setup]) -> Result<Metrics, String> {
    let lat = sorted_latencies_ms(window.records.iter());
    let jobs = lat.len();
    let p90 = tail_percentile(&lat, 0.9).ok_or(format!(
        "{jobs} completed jobs: latency_p90_ms needs at least 100; raise --seconds"
    ))?;
    let events: usize = window.records.iter().map(|r| r.events).sum();
    let wall = window.wall.as_secs_f64();
    let values = [
        events as f64 / wall,
        percentile(&lat, 0.5).expect("jobs completed"),
        p90,
        window.cpu_seconds * 1e3 / jobs as f64,
        median(
            &setups
                .iter()
                .map(|s| s.total.as_secs_f64())
                .collect::<Vec<_>>(),
        ),
    ];
    let notes = [
        format!("{events} events in {wall:.3} s"),
        format!("n={jobs}"),
        format!("n={jobs}, {} beyond", jobs - (jobs * 9).div_ceil(10)),
        format!("{:.3} CPU s over {jobs} jobs", window.cpu_seconds),
        format!("median of {} set-ups", setups.len()),
    ];
    for (((name, unit), value), note) in END_TO_END.iter().zip(values).zip(&notes) {
        println!("{name:<18} {value:>14.4}  {unit:<9} {note}");
    }
    // Printed, not gated: the peak depends on which glibc arenas the
    // executor threads happen to reuse, and moved by a quarter between
    // runs of one seed.
    println!(
        "{:<18} {:>14.4}  {:<9} VmHWM of the process (not a JSON metric)",
        "peak_rss_mb",
        peak_rss_mb(),
        "MB"
    );
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect())
}

fn per_layer(window: &Window, setups: &[Setup]) -> Metrics {
    let traced: Vec<_> = window
        .records
        .iter()
        .filter_map(|r| r.layers.as_ref().map(|l| (r.kind, l)))
        .collect();
    let p50_of = |name: &str, kind: Option<JobKind>| -> Option<f64> {
        let values: Vec<f64> = traced
            .iter()
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .filter_map(|(_, l)| l.get(name))
            .collect();
        (!values.is_empty()).then(|| median(&values))
    };
    let setup_s = |pick: fn(&Setup) -> Duration| {
        median(
            &setups
                .iter()
                .map(|s| pick(s).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let untraced = sorted_latencies_ms(window.records.iter().filter(|r| !r.traced));
    let traced_lat = sorted_latencies_ms(window.records.iter().filter(|r| r.traced));
    let lat_traced = percentile(&traced_lat, 0.5).unwrap_or(f64::NAN);
    let lat_untraced = percentile(&untraced, 0.5).unwrap_or(f64::NAN);

    let kinds: Vec<JobKind> = JobKind::ALL
        .into_iter()
        .filter(|k| traced.iter().any(|(kind, _)| kind == k))
        .collect();
    println!(
        "# traced {} of {} jobs ({} untraced) in {} alternating round pairs",
        traced.len(),
        window.records.len(),
        untraced.len(),
        ROUND_PAIRS
    );
    print!("{:<30}", "job path, p50 per kind");
    for k in &kinds {
        print!(" {:>13}", k.name());
    }
    println!();
    for name in JOB_PATH {
        print!("{name:<30}");
        for &k in &kinds {
            print!(" {:>13.4}", p50_of(name, Some(k)).unwrap_or(f64::NAN));
        }
        println!();
    }

    let metrics: Metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup.simulate_s" => setup_s(|s| s.parts.simulate),
                "setup.encode_s" => setup_s(|s| s.parts.encode),
                "setup.reference_s" => setup_s(|s| s.parts.reference),
                "setup.server_start_s" => setup_s(|s| s.server_start),
                "trace.untraced_latency_p50_ms" => lat_untraced,
                "trace.overhead_ratio" => lat_traced / lat_untraced,
                _ => p50_of(name, None).unwrap_or(f64::NAN),
            };
            (name, unit, value)
        })
        .collect();
    println!(
        "{:<30} {:>14}  unit (p50 over all traced jobs)",
        "metric", "value"
    );
    for (name, unit, value) in &metrics {
        println!("{name:<30} {value:>14.4}  {unit}");
    }
    let stage_sum: f64 = metrics
        .iter()
        .filter(|(n, _, _)| {
            n.starts_with("pipeline.") && n.ends_with("_ms") && *n != "pipeline.total_ms"
        })
        .map(|m| m.2)
        .sum();
    let get = |want: &str| {
        metrics
            .iter()
            .find(|m| m.0 == want)
            .map_or(f64::NAN, |m| m.2)
    };
    println!(
        "# reconciliation: stage p50s sum to {stage_sum:.3} of pipeline.total_ms {:.3}; \
         windowed stages cover {:.3}, online stages {:.3} of their spans",
        get("pipeline.total_ms"),
        get("windowed.stage_coverage"),
        get("onlinesync.stage_coverage"),
    );
    for &k in &kinds {
        println!(
            "# {}: submit {:.3} ms = queue {:.3} + run {:.3} + net residual {:.3}",
            k.name(),
            p50_of("client.submit_ms", Some(k)).unwrap_or(f64::NAN),
            p50_of("syncd.queue_wait_ms", Some(k)).unwrap_or(f64::NAN),
            p50_of("syncd.run_ms", Some(k)).unwrap_or(f64::NAN),
            p50_of("net.residual_ms", Some(k)).unwrap_or(f64::NAN),
        );
    }
    println!(
        "# tracing overhead: latency p50 {lat_traced:.3} ms traced vs {lat_untraced:.3} ms untraced ({:.3}x)",
        lat_traced / lat_untraced
    );
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark definition and the program agree on every metric name.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let names = json.matches("\"name\":").count();
        let ours = END_TO_END.iter().chain(&PER_LAYER);
        assert_eq!(
            names,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{}",
                w.name()
            );
        }
        for (name, unit) in ours {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
