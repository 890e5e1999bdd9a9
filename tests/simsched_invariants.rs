//! Simulation-harness invariants: a seeded smoke campaign, one
//! hand-crafted schedule per `JobError` variant, and pinned regression
//! seeds for the bugs the chaos campaign has already caught.
//!
//! The smoke campaign is the cheap always-on slice of the full VOPR run
//! (`cargo run -p simsched --bin vopr -- --seeds 2000`); the crafted
//! schedules prove each typed failure is *reachable on purpose*, not only
//! by luck of the PRNG.

use simsched::{replay, run_random, Decision, FaultOp, SimConfig};

/// First seed below `bound` whose single-item workload satisfies `shape`
/// and whose replay under `decisions` settles the job as `expected`.
/// Workload generation and replay are both pure functions of the seed, so
/// the search is deterministic — it exists so these tests survive workload
/// re-tuning without hand-picked magic constants going stale silently.
fn find_crafted_seed(
    cfg: &SimConfig,
    shape: impl Fn(&simsched::workload::WorkItem) -> bool,
    decisions: &[Decision],
    expected: &'static str,
) -> u64 {
    const BOUND: u64 = 20_000;
    for seed in 0..BOUND {
        let items = simsched::workload::generate(seed, 1);
        if !shape(&items[0]) {
            continue;
        }
        let rep = replay(seed, cfg, decisions);
        assert!(
            rep.violation.is_none(),
            "seed {seed}: crafted schedule broke an invariant: {:?}",
            rep.violation
        );
        if rep.outcomes.first().copied() == Some(expected) {
            return seed;
        }
    }
    panic!("no seed below {BOUND} reaches outcome {expected:?}");
}

fn one_job_config() -> SimConfig {
    SimConfig {
        jobs: 1,
        ..SimConfig::default()
    }
}

#[test]
fn smoke_campaign_500_seeds() {
    let cfg = SimConfig::default();
    for seed in 0..500 {
        let rec = run_random(seed, &cfg);
        assert!(
            rec.violation.is_none(),
            "seed {seed} broke an invariant: {:?}\nreproduce: cargo run -p simsched --bin vopr -- --seed {seed}",
            rec.violation
        );
        let rep = replay(seed, &cfg, &rec.decisions);
        assert_eq!(
            rep.fingerprint, rec.fingerprint,
            "seed {seed}: replay diverged from recording"
        );
    }
}

#[test]
fn crafted_schedule_reaches_success() {
    // An unpoisoned in-memory trace submitted and drained: completes.
    let cfg = one_job_config();
    find_crafted_seed(
        &cfg,
        |item| !item.poisoned && item.spec.deadline.is_none(),
        &[Decision::Submit],
        "ok",
    );
}

#[test]
fn crafted_schedule_reaches_pipeline_error() {
    // A poisoned stream with no retry budget fails typed on the first
    // attempt. The service default of zero retries applies because the
    // shape filter rejects per-job overrides.
    let cfg = SimConfig {
        max_retries: 0,
        ..one_job_config()
    };
    find_crafted_seed(
        &cfg,
        |item| item.poisoned && item.spec.max_retries.is_none() && item.spec.deadline.is_none(),
        &[Decision::Submit],
        "pipeline",
    );
}

#[test]
fn crafted_schedule_reaches_panicked() {
    // Dispatch the job, then step its attempt with a crash fault armed at
    // the first pipeline checkpoint. Zero retries makes the crash
    // terminal: the worker is lost mid-replay and the caller sees it.
    let cfg = SimConfig {
        max_retries: 0,
        ..one_job_config()
    };
    find_crafted_seed(
        &cfg,
        |item| !item.poisoned && item.spec.max_retries.is_none(),
        &[
            Decision::Submit,
            Decision::Exec { exec: 0 },
            Decision::ExecFault {
                exec: 0,
                skip: 0,
                op: FaultOp::Crash,
            },
        ],
        "panicked",
    );
}

#[test]
fn crafted_schedule_reaches_cancelled() {
    // Cancel from outside while the job is still queued; the first
    // checkpoint of the dispatched run observes the flag.
    let cfg = one_job_config();
    find_crafted_seed(
        &cfg,
        |_| true,
        &[Decision::Submit, Decision::Cancel { nth: 0 }],
        "cancelled",
    );
}

#[test]
fn crafted_schedule_reaches_deadline_exceeded() {
    // Park the job in the queue while the virtual clock jumps a full
    // second — far past any workload deadline (at most 8 ms) — so the
    // dispatch-time deadline check fires before the first attempt.
    let cfg = one_job_config();
    find_crafted_seed(
        &cfg,
        |item| item.spec.deadline.is_some(),
        &[
            Decision::Submit,
            Decision::Advance { ns: 1_000_000_000 },
        ],
        "deadline",
    );
}

#[test]
fn crafted_schedule_reaches_shutdown() {
    // Abandoning shutdown drains the queue; the still-queued job settles
    // as JobError::Shutdown.
    let cfg = one_job_config();
    find_crafted_seed(
        &cfg,
        |_| true,
        &[
            Decision::Submit,
            Decision::Shutdown { abandon: true },
        ],
        "shutdown",
    );
}

/// Seed 61 used to park a retry in a backoff that expired *after* the
/// job's deadline: the retry was doomed, and the executor head-of-line
/// blocked on it for the rest of the deadline. Fixed by failing fast
/// (`DeadlineExceeded`) when the next backoff cannot beat the deadline.
///
/// The test keeps the name of the seed that first exposed the bug. The
/// workload generator has changed since, and seed 61 no longer reaches
/// that shape; seed 2 is the first seed whose run fails with the doomed
/// parking when the fix is reverted, so it is the pin.
#[test]
fn regression_seed_61_doomed_backoff_parking() {
    let rec = run_random(2, &SimConfig::default());
    assert!(
        rec.violation.is_none(),
        "doomed-backoff pin (seed 2) regressed: {:?}",
        rec.violation
    );
}

/// Seed 283 used to panic with a capacity overflow: a flipped byte in a
/// DTC2 block header decoded into a ~4-billion rank id, and the dense
/// `l_min` table allocation (`n * n`) blew up far from the corrupt input.
/// Fixed by validating header rank/thread ids at decode time (typed
/// `CodecError::BadField`) plus a quadratic-table guard in the pipeline.
///
/// As above, the name is historical: seed 283 no longer reaches that
/// shape, and seed 508 is the first seed whose run dies in the `l_min`
/// table allocation when both fixes are reverted, so it is the pin.
#[test]
fn regression_seed_283_corrupt_rank_capacity_overflow() {
    let rec = run_random(508, &SimConfig::default());
    assert!(
        rec.violation.is_none(),
        "corrupt-rank pin (seed 508) regressed: {:?}",
        rec.violation
    );
}
