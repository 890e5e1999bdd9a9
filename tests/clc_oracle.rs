//! The CLC against its map-based oracle.
//!
//! `controlled_logical_clock` runs match → CSR `DepGraph` → gather →
//! columnar kernels → scatter. The oracle in `tests/common/oracle.rs` is
//! the map-based implementation those kernels were ported from. Across
//! drift models × PreSync variants × CLC parameters, the mixed
//! point-to-point/collective fixtures, timestamps at the `i64` edges and
//! malformed or cyclic traces, both must agree on every corrected
//! timestamp, the jump sequence, `max_jump` and `events_moved` — and fail
//! with the same [`ClcError`] where they fail.

mod common;

use common::oracle::{assert_reports_identical, controlled_logical_clock_oracle};
use common::{assert_identical, drifted_trace, mixed_trace};
use drift_lab::clocksync::{
    controlled_logical_clock, synchronize, ClcError, ClcParams, PipelineConfig, PreSync,
};
use drift_lab::simclock::{Dur, Time};
use drift_lab::tracefmt::{
    CollOp, CommId, EventKind, MinLatency, Rank, RegionId, Tag, Trace, UniformLatency,
};

/// CLC parameter sets the comparisons sweep: the default, forward-only
/// (whose zero backward window is then legal), no forward decay, and a
/// tight backward window.
fn param_sets() -> [(&'static str, ClcParams); 4] {
    let forward_only = ClcParams {
        backward: false,
        backward_window_factor: 0.0,
        ..ClcParams::default()
    };
    [
        ("default", ClcParams::default()),
        ("forward-only", forward_only),
        (
            "mu=1",
            ClcParams {
                mu: 1.0,
                ..ClcParams::default()
            },
        ),
        (
            "window=1",
            ClcParams {
                backward_window_factor: 1.0,
                ..ClcParams::default()
            },
        ),
    ]
}

/// Run both CLCs on clones of `base` and require identical output.
fn assert_matches_oracle(base: &Trace, lmin: &dyn MinLatency, params: &ClcParams, ctx: &str) {
    let mut want = base.clone();
    let want_rep = controlled_logical_clock_oracle(&mut want, lmin, params)
        .unwrap_or_else(|e| panic!("{ctx}: oracle failed: {e}"));
    let mut got = base.clone();
    let got_rep = controlled_logical_clock(&mut got, lmin, params)
        .unwrap_or_else(|e| panic!("{ctx}: CLC failed: {e}"));
    assert_identical(&want, &got, ctx);
    assert_reports_identical(&want_rep, &got_rep, ctx);
}

/// Drift models × PreSync × CLC parameters: presync the drifted trace,
/// then correct it with both implementations.
#[test]
fn clc_matches_the_oracle_across_drift_models_and_presync() {
    let models = ["constant", "sinusoid", "randomwalk"];
    let presyncs = [PreSync::None, PreSync::AlignOnly, PreSync::Linear];
    let mut jumps = 0;
    for (mi, model) in models.iter().enumerate() {
        for (size, &(procs, msgs)) in [(4usize, 300usize), (7, 1200)].iter().enumerate() {
            let seed = 12_000 + (size * 10 + mi) as u64;
            let (base, init, fin, lmin) = drifted_trace(procs, msgs, model, seed);
            for presync in presyncs {
                let mut presynced = base.clone();
                let cfg = PipelineConfig {
                    presync,
                    clc: None,
                    ..PipelineConfig::default()
                };
                synchronize(&mut presynced, &init, Some(&fin), &lmin, &cfg).expect("presync runs");
                for (name, params) in param_sets() {
                    let ctx = format!("{procs}p/{msgs}m {model} {presync:?} {name}");
                    assert_matches_oracle(&presynced, &lmin, &params, &ctx);
                    let mut t = presynced.clone();
                    jumps += controlled_logical_clock(&mut t, &lmin, &params)
                        .unwrap()
                        .n_jumps();
                }
            }
        }
    }
    assert!(jumps > 0, "the matrix must exercise real corrections");
}

/// The mixed ring + Allreduce fixtures of the CLC unit tests.
#[test]
fn clc_matches_the_oracle_on_the_mixed_fixtures() {
    let lmin = UniformLatency(Dur::from_us(4));
    for (procs, rounds) in [(2, 8), (5, 17), (8, 25)] {
        let base = mixed_trace(procs, rounds);
        for (name, params) in param_sets() {
            let ctx = format!("mixed {procs}x{rounds} {name}");
            assert_matches_oracle(&base, &lmin, &params, &ctx);
        }
    }
}

/// Timestamps pinned to the `i64` edges: the remote bound, the
/// amortized-gap arithmetic and the backward-window extrapolation all
/// overflow plain `i64` ops here. Both implementations saturate and must
/// still agree bit for bit.
#[test]
fn clc_matches_the_oracle_at_the_i64_edges() {
    let mut t = Trace::for_ranks(2);
    t.procs[0].push(
        Time::from_ps(i64::MIN + 3),
        EventKind::Enter {
            region: RegionId(0),
        },
    );
    t.procs[0].push(
        Time::from_ps(i64::MAX - 2),
        EventKind::Send {
            to: Rank(1),
            tag: Tag(0),
            bytes: 0,
        },
    );
    t.procs[1].push(
        Time::from_ps(i64::MIN),
        EventKind::Enter {
            region: RegionId(0),
        },
    );
    t.procs[1].push(
        Time::from_ps(i64::MIN + 10),
        EventKind::Recv {
            from: Rank(0),
            tag: Tag(0),
            bytes: 0,
        },
    );
    t.procs[1].push(
        Time::from_ps(i64::MAX - 1),
        EventKind::Exit {
            region: RegionId(0),
        },
    );
    let lmin = UniformLatency(Dur::from_us(4));
    for (name, params) in param_sets() {
        assert_matches_oracle(&t, &lmin, &params, &format!("i64 edges {name}"));
    }
}

fn send(to: u32, tag: u32) -> EventKind {
    EventKind::Send {
        to: Rank(to),
        tag: Tag(tag),
        bytes: 0,
    }
}

fn recv(from: u32, tag: u32) -> EventKind {
    EventKind::Recv {
        from: Rank(from),
        tag: Tag(tag),
        bytes: 0,
    }
}

fn coll(op: CollOp, root: Option<Rank>, begin: bool) -> EventKind {
    let comm = CommId::WORLD;
    if begin {
        EventKind::CollBegin {
            op,
            comm,
            root,
            bytes: 0,
        }
    } else {
        EventKind::CollEnd {
            op,
            comm,
            root,
            bytes: 0,
        }
    }
}

/// A trace from per-timeline event lists, timestamps 10 µs apart.
fn trace_of(timelines: Vec<Vec<EventKind>>) -> Trace {
    let mut t = Trace::for_ranks(timelines.len());
    for (p, kinds) in timelines.into_iter().enumerate() {
        for (i, kind) in kinds.into_iter().enumerate() {
            t.procs[p].push(Time::from_us(10 * i as i64), kind);
        }
    }
    t
}

/// Malformed and cyclic traces, and out-of-range parameters: both
/// implementations return the same error, and the production CLC leaves
/// the trace untouched when it fails.
#[test]
fn malformed_traces_fail_alike() {
    let barrier = |begin| coll(CollOp::Barrier, None, begin);
    let cases: Vec<(&str, Trace, ClcParams)> = vec![
        (
            // A timeline that receives its own later send.
            "self-message cycle",
            trace_of(vec![vec![recv(0, 0), send(0, 0)]]),
            ClcParams::default(),
        ),
        (
            // Each timeline receives before it sends the other's message.
            "two-timeline message cycle",
            trace_of(vec![
                vec![recv(1, 0), send(1, 1)],
                vec![recv(0, 1), send(0, 0)],
            ]),
            ClcParams::default(),
        ),
        (
            // p0's barrier end needs p1's begin, which follows a receive
            // whose send follows p0's barrier.
            "collective cycle",
            trace_of(vec![
                vec![barrier(true), barrier(false), send(1, 0)],
                vec![recv(0, 0), barrier(true), barrier(false)],
            ]),
            ClcParams::default(),
        ),
        (
            "op mismatch",
            trace_of(vec![
                vec![
                    coll(CollOp::Bcast, Some(Rank(0)), true),
                    coll(CollOp::Bcast, Some(Rank(0)), false),
                ],
                vec![
                    coll(CollOp::Allreduce, None, true),
                    coll(CollOp::Allreduce, None, false),
                ],
            ]),
            ClcParams::default(),
        ),
        (
            "missing collective end",
            trace_of(vec![
                vec![barrier(true)],
                vec![barrier(true), barrier(false)],
            ]),
            ClcParams::default(),
        ),
        (
            "missing collective call",
            trace_of(vec![
                vec![barrier(true), barrier(false), barrier(true), barrier(false)],
                vec![barrier(true), barrier(false)],
            ]),
            ClcParams::default(),
        ),
        (
            // Bad collectives are reported before bad parameters.
            "bad collectives and bad params",
            trace_of(vec![
                vec![barrier(true)],
                vec![barrier(true), barrier(false)],
            ]),
            ClcParams {
                mu: 0.0,
                ..ClcParams::default()
            },
        ),
        (
            "mu = 0",
            mixed_trace(3, 5),
            ClcParams {
                mu: 0.0,
                ..ClcParams::default()
            },
        ),
        (
            "mu > 1",
            mixed_trace(3, 5),
            ClcParams {
                mu: 1.5,
                ..ClcParams::default()
            },
        ),
        (
            "zero backward window",
            mixed_trace(3, 5),
            ClcParams {
                backward_window_factor: 0.0,
                ..ClcParams::default()
            },
        ),
    ];
    let lmin = UniformLatency(Dur::from_us(4));
    for (name, base, params) in cases {
        let mut want = base.clone();
        let want_err = controlled_logical_clock_oracle(&mut want, &lmin, &params)
            .expect_err(&format!("{name}: oracle accepted the trace"));
        let mut got = base.clone();
        let got_err = controlled_logical_clock(&mut got, &lmin, &params)
            .expect_err(&format!("{name}: CLC accepted the trace"));
        assert_eq!(want_err, got_err, "{name}: errors diverge");
        assert_identical(
            &base,
            &got,
            &format!("{name}: failed CLC rewrote the trace"),
        );
        let expected_kind = match name {
            "self-message cycle" | "two-timeline message cycle" | "collective cycle" => {
                matches!(got_err, ClcError::CyclicTrace)
            }
            "mu = 0" | "mu > 1" | "zero backward window" => {
                matches!(got_err, ClcError::BadParams(_))
            }
            _ => matches!(got_err, ClcError::BadCollectives(_)),
        };
        assert!(expected_kind, "{name}: unexpected error {got_err:?}");
    }
}
