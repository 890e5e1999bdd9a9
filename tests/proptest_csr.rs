//! Property-based round-trip guarantees for the CSR dependency-graph
//! lowering: over random traces — including traces rebuilt from chunked
//! *and truncated* streamed ingest — every edge the communication analysis
//! implies must come back out of the flat offsets/edges arrays with its
//! correct `l_min` latency, and no phantom edge may appear.

mod common;

use common::{graph_edges, reference_edges};
use drift_lab::clocksync::{DepGraph, TraceAnalysis};
use drift_lab::prelude::*;
use drift_lab::tracefmt::io::{to_binary_columnar, StreamDecoder, TraceBuilder};
use drift_lab::tracefmt::CollOp;
use proptest::prelude::*;

// ------------------------------------------------------------ strategies --

/// A random causally valid trace mixing point-to-point rounds with
/// occasional world collectives of every data-flow flavour, recorded
/// through per-process clock skews.
fn arb_mixed_trace() -> impl Strategy<Value = (Trace, i64)> {
    (
        2usize..6,
        4usize..30,
        prop::collection::vec(-200i64..200, 6),
        1i64..15,
        0usize..5,
    )
        .prop_map(|(procs, rounds, skews, lmin_us, coll_kind)| {
            let mut trace = Trace::for_ranks(procs);
            let mut now = vec![0i64; procs];
            for m in 0..rounds {
                let from = m % procs;
                let to = (m * 5 + 1) % procs;
                if from != to {
                    let send_true = now[from] + 8 + (m as i64 * 11) % 40;
                    now[from] = send_true;
                    let recv_true = send_true.max(now[to]) + lmin_us + (m as i64 * 3) % 25;
                    now[to] = recv_true;
                    trace.procs[from].push(
                        Time::from_us(send_true + skews[from]),
                        EventKind::Send { to: Rank(to as u32), tag: Tag(m as u32), bytes: 8 },
                    );
                    trace.procs[to].push(
                        Time::from_us(recv_true + skews[to]),
                        EventKind::Recv { from: Rank(from as u32), tag: Tag(m as u32), bytes: 8 },
                    );
                }
                if m % 4 == 3 {
                    let (op, root) = match coll_kind {
                        0 => (CollOp::Barrier, None),
                        1 => (CollOp::Bcast, Some(Rank((m % procs) as u32))),
                        2 => (CollOp::Reduce, Some(Rank((m % procs) as u32))),
                        3 => (CollOp::Scan, None),
                        _ => (CollOp::Allreduce, None),
                    };
                    let enter = *now.iter().max().expect("non-empty");
                    for (p, t_p) in now.iter_mut().enumerate() {
                        let my_enter = enter + (p as i64 * 3) % 7;
                        let exit = my_enter + 4 + (p as i64) % 5;
                        trace.procs[p].push(
                            Time::from_us(my_enter + skews[p]),
                            EventKind::CollBegin { op, comm: CommId::WORLD, root, bytes: 8 },
                        );
                        trace.procs[p].push(
                            Time::from_us(exit + skews[p]),
                            EventKind::CollEnd { op, comm: CommId::WORLD, root, bytes: 8 },
                        );
                        *t_p = exit;
                    }
                }
            }
            (trace, lmin_us)
        })
}

/// Edge-set equality between the CSR lowering and the analysis-implied
/// reference on `trace`; also checks the in/out views against each other.
/// Panics on any divergence; silently returns when the trace does not
/// analyse (a truncated trace can legitimately cut a collective in half —
/// the pipeline rejects it before any lowering would run).
fn assert_round_trip(trace: &Trace, lmin_us: i64) {
    let lmin = UniformLatency(Dur::from_us(lmin_us));
    let analysis = match TraceAnalysis::capture(trace) {
        Ok(a) => a,
        Err(_) => return,
    };
    let graph = DepGraph::from_trace(trace, &analysis.matching, &analysis.instances, &lmin);
    let want = reference_edges(&analysis, &lmin);
    let (via_in, via_out) = graph_edges(trace, &graph);
    assert_eq!(via_in, want, "in-edge view diverges from the analysis");
    assert_eq!(via_out, want, "out-edge view diverges from the analysis");
    assert_eq!(graph.n_edges(), want.len(), "edge count diverges");
    assert_eq!(graph.n_events(), trace.n_events());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Direct round trip: lower a random trace into CSR and read every
    /// edge back out — nothing dropped, nothing invented.
    #[test]
    fn csr_recovers_every_edge_and_no_phantoms((trace, lmin_us) in arb_mixed_trace()) {
        assert_round_trip(&trace, lmin_us);
    }

    /// The same round trip on a trace rebuilt from *streamed* ingest fed
    /// in bounded chunks, and on a trace rebuilt from only a truncated
    /// prefix of the byte stream (the decoder keeps whole frames; the
    /// partial tail frame stays pending). Whatever events survive
    /// truncation must lower to exactly the edges their analysis implies.
    #[test]
    fn csr_round_trips_streamed_and_truncated_ingest(
        (trace, lmin_us) in arb_mixed_trace(),
        chunk in 16usize..512,
        keep_per_mille in 100u32..1001,
    ) {
        let bytes = to_binary_columnar(&trace);

        // Full stream, chunked feeding: must reproduce the trace exactly.
        let mut dec = StreamDecoder::new();
        let mut builder = TraceBuilder::new();
        for c in bytes.chunks(chunk) {
            dec.feed_into(c, &mut builder).expect("stream decodes");
        }
        dec.finish().expect("stream complete");
        let (streamed, _cols) = builder.finish_parts();
        prop_assert_eq!(streamed.n_events(), trace.n_events());
        assert_round_trip(&streamed, lmin_us);

        // Truncated prefix: frames that arrived in full still decode; the
        // partial tail is simply never delivered.
        let cut = (bytes.len() as u64 * keep_per_mille as u64 / 1000) as usize;
        let mut dec = StreamDecoder::new();
        let mut builder = TraceBuilder::new();
        let mut parse_ok = true;
        for c in bytes[..cut].chunks(chunk) {
            if dec.feed_into(c, &mut builder).is_err() {
                // A cut inside a header can make the prefix undecodable —
                // that is a parse error, not a lowering concern.
                parse_ok = false;
                break;
            }
        }
        if parse_ok {
            let (truncated, _cols) = builder.finish_parts();
            prop_assert!(truncated.n_events() <= trace.n_events());
            assert_round_trip(&truncated, lmin_us);
        }
    }
}
