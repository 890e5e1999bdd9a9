//! Differential guarantee of the columnar pipeline: for every drift model
//! and pre-synchronisation variant, [`synchronize`] — which runs every
//! timestamp stage on gathered `i64` columns with the planned census
//! kernels and the CSR CLC — must produce **bit-identical** corrected
//! timestamps, violation reports and CLC reports to the record-based
//! reference chain (presync maps applied per event record, the per-item
//! reference censuses and the map-based oracle CLC of
//! `tests/common/oracle.rs`). The streaming-ingest entry point
//! [`synchronize_stream`] must reproduce the same results again from the
//! chunked binary encoding, for both wire versions: the big-endian `DTC2`
//! default and the aligned little-endian `DTC3` zero-copy variant.

mod common;

use common::oracle::{assert_reports_identical, reference_pipeline};
use common::{assert_identical, drifted_trace};
use drift_lab::clocksync::{
    synchronize, synchronize_stream, ClcParams, PipelineConfig, PipelineError, PreSync,
    StageReport,
};
use drift_lab::tracefmt::io::to_binary_columnar_blocked;
use drift_lab::tracefmt::{CollReport, P2pReport};

/// Comparable census totals without requiring PartialEq on reports.
fn totals(r: &StageReport) -> (usize, usize, usize) {
    (
        r.p2p.violations.len(),
        r.p2p.reversed,
        r.coll.logical_violated,
    )
}

/// Assert a pipeline stage census equals a reference census field for
/// field.
fn assert_census(got: &StageReport, want: &(P2pReport, CollReport), ctx: &str) {
    let (p, c) = want;
    assert_eq!(got.p2p.total, p.total, "{ctx}: p2p total");
    assert_eq!(got.p2p.violations, p.violations, "{ctx}: p2p violation lists");
    assert_eq!(got.p2p.reversed, p.reversed, "{ctx}: p2p reversed");
    assert_eq!(got.coll.instances, c.instances, "{ctx}: collective instances");
    assert_eq!(got.coll.logical_total, c.logical_total, "{ctx}: logical total");
    assert_eq!(got.coll.logical_violated, c.logical_violated, "{ctx}: logical violated");
    assert_eq!(got.coll.logical_reversed, c.logical_reversed, "{ctx}: logical reversed");
    assert_eq!(
        got.coll.instances_affected, c.instances_affected,
        "{ctx}: instances affected"
    );
}

/// The full matrix: sizes × drift models × PreSync variants × CLC on/off.
/// The record-based reference chain is the reference; the pipeline must
/// reproduce it bit for bit — corrected timestamps, every census and the
/// CLC report.
#[test]
fn columnar_is_bit_identical_across_the_config_matrix() {
    let sizes: &[(usize, usize)] = &[(3, 60), (5, 400), (8, 1500)];
    let models = ["constant", "sinusoid", "randomwalk"];
    let presyncs = [PreSync::None, PreSync::AlignOnly, PreSync::Linear];
    for (si, &(procs, msgs)) in sizes.iter().enumerate() {
        for (mi, model) in models.iter().enumerate() {
            let seed = 9000 + (si * 10 + mi) as u64;
            let (base, init, fin, lmin) = drifted_trace(procs, msgs, model, seed);
            for presync in presyncs {
                for clc in [Some(ClcParams::default()), None] {
                    let ctx =
                        format!("{procs}p/{msgs}m {model} {presync:?} clc={}", clc.is_some());
                    let mut ref_trace = base.clone();
                    let want = reference_pipeline(
                        &mut ref_trace,
                        &init,
                        &fin,
                        &lmin,
                        presync,
                        clc.as_ref(),
                    )
                    .unwrap_or_else(|e| panic!("{ctx}: reference chain failed: {e}"));
                    let cfg = PipelineConfig { presync, clc, ..PipelineConfig::default() };
                    let mut col_trace = base.clone();
                    let got = synchronize(&mut col_trace, &init, Some(&fin), &lmin, &cfg)
                        .unwrap_or_else(|e| panic!("{ctx}: pipeline failed: {e}"));

                    assert_identical(&ref_trace, &col_trace, &ctx);
                    assert_census(&got.raw, &want.raw, &format!("{ctx} raw"));
                    assert_census(
                        &got.after_presync,
                        &want.after_presync,
                        &format!("{ctx} presync"),
                    );
                    assert_eq!(got.after_clc.is_some(), want.after_clc.is_some(), "{ctx}");
                    if let (Some(g), Some(w)) = (&got.after_clc, &want.after_clc) {
                        assert_census(g, w, &format!("{ctx} clc"));
                    }
                    assert_eq!(got.clc.is_some(), want.clc.is_some(), "{ctx}");
                    if let (Some(g), Some(w)) = (&got.clc, &want.clc) {
                        assert_reports_identical(w, g, &ctx);
                    }
                    // The pipeline reports its layout conversions.
                    assert!(got.stats.stage("gather").is_some(), "{ctx}: no gather stage");
                    assert!(got.stats.stage("scatter").is_some(), "{ctx}: no scatter stage");
                }
            }
        }
    }
}

/// Streaming ingest end-to-end: encode the drifted trace into the blocked
/// columnar binary format, feed it through [`synchronize_stream`] in small
/// chunks, and require bit-identity with the in-memory pipeline run — plus
/// an `"ingest"` stage (and no `"gather"` stage, since the decoder's
/// columns feed the engine directly).
#[test]
fn streamed_ingest_matches_in_memory_pipeline() {
    for (model, chunk) in [("constant", 7usize), ("sinusoid", 64), ("randomwalk", 4096)] {
        let (base, init, fin, lmin) = drifted_trace(6, 900, model, 31337);
        let cfg = PipelineConfig::default();
        let mut mem_trace = base.clone();
        let mem = synchronize(&mut mem_trace, &init, Some(&fin), &lmin, &cfg)
            .expect("in-memory pipeline runs");

        let bytes = to_binary_columnar_blocked(&base, 256);
        let (stream_trace, stream) = synchronize_stream(
            bytes.chunks(chunk),
            &init,
            Some(&fin),
            &lmin,
            &cfg,
        )
        .expect("streamed pipeline runs");

        let ctx = format!("{model} chunk={chunk}");
        assert_identical(&mem_trace, &stream_trace, &ctx);
        assert_eq!(
            mem.after_clc.as_ref().map(totals),
            stream.after_clc.as_ref().map(totals),
            "{ctx}: post-CLC census diverges"
        );
        let ingest = stream.stats.stage("ingest").expect("ingest stage recorded");
        assert_eq!(ingest.items, base.n_events(), "{ctx}: ingest event accounting");
        assert!(ingest.blocks > 0, "{ctx}: ingest block accounting");
        assert!(
            stream.stats.stage("gather").is_none(),
            "{ctx}: decoder columns must skip the gather stage"
        );
    }
}

/// A truncated stream must surface as a codec error from the pipeline, not
/// a panic or a silently shorter trace.
#[test]
fn streamed_ingest_rejects_truncated_input() {
    let (base, init, fin, lmin) = drifted_trace(3, 100, "constant", 7);
    let bytes = to_binary_columnar_blocked(&base, 64);
    let cut = &bytes[..bytes.len() - 1];
    let err = synchronize_stream(
        cut.chunks(16),
        &init,
        Some(&fin),
        &lmin,
        &PipelineConfig::default(),
    );
    assert!(
        matches!(err, Err(PipelineError::Codec(_))),
        "expected a codec error, got {err:?}"
    );
}

/// v3 zero-copy streamed ingest against one-shot v2 decode + synchronize,
/// across drift models × presync (see
/// `common::v3_ingest_differential_matrix`; widened by `DRIFT_STRESS=1`).
/// This binary runs the kernels the host CPU offers (AVX2 where present);
/// `columnar_differential_scalar.rs` repeats it with the scalar kernels.
#[test]
fn v3_streamed_ingest_is_bit_identical_to_v2_decode() {
    common::v3_ingest_differential_matrix();
}

/// The census kernels (AVX2 where the host has it) against the reference
/// checks on adversarial lanes; `columnar_differential_scalar.rs` repeats
/// it with the scalar kernels.
#[test]
fn census_kernels_agree_with_the_reference_on_adversarial_lanes() {
    common::census_agreement_on_adversarial_lanes();
}

/// ~1M-event stress run through the pipeline. `#[ignore]`d: run with
/// `cargo test -- --ignored` (scripts/ci.sh does under `DRIFT_STRESS=1`).
/// Checks the [`PipelineStats`] accounting — every event-mapping stage
/// sees every event once — and that the CLC still ends violation-free.
///
/// [`PipelineStats`]: drift_lab::clocksync::PipelineStats
#[test]
#[ignore = "~1M-event stress run; exercised by scripts/ci.sh"]
fn stress_million_event_pipeline() {
    let procs = 16;
    let msgs = 500_000; // 1M message events + barrier events on top
    let (mut trace, init, fin, lmin) = drifted_trace(procs, msgs, "sinusoid", 4242);
    let n_events = trace.n_events();
    assert!(n_events >= 1_000_000, "stress trace too small: {n_events}");
    let rep = synchronize(&mut trace, &init, Some(&fin), &lmin, &PipelineConfig::default())
        .expect("stress pipeline runs");
    for stage in ["match", "lower", "gather", "presync", "clc", "scatter"] {
        let items = rep.stats.stage(stage).map(|s| s.items);
        assert_eq!(items, Some(n_events), "{stage} stage accounting != event total");
    }
    assert_eq!(
        rep.after_clc.expect("clc ran").total_violations(),
        0,
        "CLC must restore the clock condition on the stress trace"
    );
    assert!(trace.is_locally_monotone(), "stress output lost local order");
}
