//! Property tests for the sort-based message matcher against the
//! hash-queue matcher it replaced, kept here as the test-only oracle.
//!
//! The random traces are deliberately hostile to the matcher: several
//! timelines may carry the same rank, sends and receives dangle, ranks and
//! tags sit near `u32::MAX`, messages name destination ranks that no
//! timeline carries, and some timelines are empty. On every one,
//! `match_messages` must reproduce the oracle's `Matching` exactly, and a
//! `MessageMatcher` fed in any other order must reproduce
//! `match_messages`.

use drift_lab::simclock::Time;
use drift_lab::tracefmt::{
    match_messages, EventId, EventKind, Location, Matching, MessageMatch, MessageMatcher,
    ProcessTrace, Rank, RegionId, Tag, Trace,
};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

fn us(n: i64) -> Time {
    Time::from_us(n)
}

// ---------------------------------------------------------------- oracle --

/// The hash-queue matcher: FIFO queues of pending sends per
/// `(from, to, tag)`, filled by a pass over every timeline's sends in
/// timeline order, then drained by a pass over every timeline's receives
/// in timeline order.
fn oracle_match(trace: &Trace) -> Matching {
    let mut pending: HashMap<(Rank, Rank, u32), VecDeque<(EventId, u64)>> = HashMap::new();
    for (p, pt) in trace.procs.iter().enumerate() {
        let from = pt.location.rank;
        for (i, e) in pt.events.iter().enumerate() {
            if let EventKind::Send { to, tag, bytes } = e.kind {
                pending
                    .entry((from, to, tag.0))
                    .or_default()
                    .push_back((EventId::new(p, i), bytes));
            }
        }
    }
    let mut out = Matching::default();
    for (p, pt) in trace.procs.iter().enumerate() {
        let to = pt.location.rank;
        for (i, e) in pt.events.iter().enumerate() {
            if let EventKind::Recv { from, tag, .. } = e.kind {
                let recv = EventId::new(p, i);
                match pending
                    .get_mut(&(from, to, tag.0))
                    .and_then(|q| q.pop_front())
                {
                    Some((send, bytes)) => out.messages.push(MessageMatch {
                        send,
                        recv,
                        from,
                        to,
                        bytes,
                    }),
                    None => out.unmatched_recvs.push(recv),
                }
            }
        }
    }
    for q in pending.values() {
        out.unmatched_sends.extend(q.iter().map(|&(id, _)| id));
    }
    out.unmatched_sends.sort();
    out
}

// ------------------------------------------------------------ strategies --

/// SplitMix64: a tiny deterministic generator, so one drawn seed expands
/// into a whole trace.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick(&mut self, pool: &[u32]) -> u32 {
        pool[self.below(pool.len())]
    }
}

/// Ranks the timelines and the messages draw from: small ids, ids near
/// `u32::MAX`, ids on radix digit boundaries, and ids whose high bits
/// order them differently from their low bits.
const RANKS: [u32; 10] =
    [0, 1, 2, 255, 256, 65_536, 0x0100_0000, 0x80FF_FFFF, u32::MAX - 1, u32::MAX];

/// Tags, drawn from a small pool so that keys repeat and FIFO order
/// matters.
const TAGS: [u32; 10] =
    [0, 1, 7, 255, 256, 65_535, 0x00FF_FFFF, 0x8000_0000, u32::MAX - 1, u32::MAX];

/// A random message trace over `procs` timelines. Each timeline's rank is
/// drawn from [`RANKS`] (so duplicates occur); a third of the timelines
/// stay empty. Every event is a send, a receive, or a region enter — the
/// enters shift event indices. Sends and receives are drawn
/// independently, so many dangle, and their peer ranks come from the
/// whole pool, including ranks no timeline carries.
fn build_trace(seed: u64, procs: usize, events: usize) -> Trace {
    let mut rng = Mix(seed);
    let rank_pool: Vec<u32> = (0..3).map(|_| rng.pick(&RANKS)).collect();
    let mut trace = Trace {
        procs: (0..procs)
            .map(|_| ProcessTrace::new(Location::rank(rng.pick(&rank_pool))))
            .collect(),
    };
    let live: Vec<usize> = (0..procs).filter(|_| rng.below(3) != 0).collect();
    if live.is_empty() {
        return trace;
    }
    for k in 0..events {
        let p = live[rng.below(live.len())];
        // Peers mostly come from the ranks the timelines carry, so
        // messages meet; one in four comes from the whole pool.
        let peer = if rng.below(4) == 0 {
            rng.pick(&RANKS)
        } else {
            rng.pick(&rank_pool)
        };
        let n_tags = 1 + rng.below(TAGS.len());
        let tag = Tag(rng.pick(&TAGS[..n_tags]));
        let kind = match rng.below(5) {
            0 | 1 => EventKind::Send {
                to: Rank(peer),
                tag,
                bytes: rng.next() % 4096,
            },
            2 | 3 => EventKind::Recv {
                from: Rank(peer),
                tag,
                bytes: rng.next() % 4096,
            },
            _ => EventKind::Enter {
                region: RegionId(0),
            },
        };
        trace.procs[p].push(us(k as i64), kind);
    }
    trace
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    (0u64..u64::MAX, 1usize..7, 0usize..120)
        .prop_map(|(seed, procs, events)| build_trace(seed, procs, events))
}

// --------------------------------------------------------------- helpers --

fn assert_same(got: &Matching, want: &Matching) {
    assert_eq!(got.messages, want.messages);
    assert_eq!(got.unmatched_sends, want.unmatched_sends);
    assert_eq!(got.unmatched_recvs, want.unmatched_recvs);
}

/// Feed `trace` into a fresh matcher in the given `(timeline, index)`
/// order.
fn feed_in_order(trace: &Trace, order: &[(usize, usize)]) -> Matching {
    let mut m = MessageMatcher::new();
    for &(p, i) in order {
        let rank = trace.procs[p].location.rank;
        let kind = &trace.procs[p].events[i].kind;
        m.feed_send(rank, p, i, kind);
        m.feed_recv(rank, p, i, kind);
    }
    m.finish()
}

// ---------------------------------------------------------------- checks --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sort_matcher_equals_hash_queue_oracle(trace in arb_trace()) {
        assert_same(&match_messages(&trace), &oracle_match(&trace));
    }

    #[test]
    fn interleaved_per_timeline_feed_equals_match_messages(
        (trace, seed) in (arb_trace(), 0u64..u64::MAX)
    ) {
        // One pass over a random interleaving of the timelines: each step
        // feeds the next event of a randomly chosen timeline, so sends and
        // receives mix and every timeline keeps its program order.
        let mut rng = Mix(seed);
        let mut cursor = vec![0usize; trace.n_procs()];
        let mut order = Vec::with_capacity(trace.n_events());
        while order.len() < trace.n_events() {
            let p = rng.below(trace.n_procs());
            if cursor[p] < trace.procs[p].events.len() {
                order.push((p, cursor[p]));
                cursor[p] += 1;
            }
        }
        assert_same(&feed_in_order(&trace, &order), &match_messages(&trace));
    }

    #[test]
    fn any_feed_order_equals_match_messages(trace in arb_trace()) {
        // Timelines last to first, each one backwards: the matcher's
        // result does not depend on the order events arrive in.
        let order: Vec<(usize, usize)> = (0..trace.n_procs())
            .rev()
            .flat_map(|p| (0..trace.procs[p].events.len()).rev().map(move |i| (p, i)))
            .collect();
        assert_same(&feed_in_order(&trace, &order), &match_messages(&trace));
    }
}

#[test]
fn fifo_per_key_survives_duplicate_ranks() {
    // Two timelines both carry rank 5 and send to rank 9 on one tag; the
    // receiver's receives take the sends timeline by timeline, each in
    // program order — the oracle's queue order.
    let mut t = Trace {
        procs: vec![
            ProcessTrace::new(Location::rank(5)),
            ProcessTrace::new(Location::rank(9)),
            ProcessTrace::new(Location::rank(5)),
        ],
    };
    let send = EventKind::Send {
        to: Rank(9),
        tag: Tag(u32::MAX),
        bytes: 1,
    };
    let recv = EventKind::Recv {
        from: Rank(5),
        tag: Tag(u32::MAX),
        bytes: 1,
    };
    t.procs[2].push(us(0), send);
    t.procs[0].push(us(1), send);
    t.procs[0].push(us(2), send);
    for k in 0..4 {
        t.procs[1].push(us(3 + k), recv);
    }
    let m = match_messages(&t);
    let pairs: Vec<(EventId, EventId)> = m.messages.iter().map(|x| (x.send, x.recv)).collect();
    assert_eq!(
        pairs,
        vec![
            (EventId::new(0, 0), EventId::new(1, 0)),
            (EventId::new(0, 1), EventId::new(1, 1)),
            (EventId::new(2, 0), EventId::new(1, 2)),
        ]
    );
    assert_eq!(m.unmatched_recvs, vec![EventId::new(1, 3)]);
    assert!(m.unmatched_sends.is_empty());
    assert_same(&m, &oracle_match(&t));
}

#[test]
fn large_traces_equal_the_oracle() {
    // Thousands of messages widen the radix digits past one byte.
    for seed in 0..12u64 {
        let trace = build_trace(seed, 2 + seed as usize % 5, 500 << (seed % 4));
        assert_same(&match_messages(&trace), &oracle_match(&trace));
    }
}

#[test]
fn empty_and_message_free_traces_match_nothing() {
    for trace in [Trace::default(), Trace::for_ranks(3), build_trace(1, 4, 0)] {
        let m = match_messages(&trace);
        assert!(m.messages.is_empty() && m.is_complete());
    }
}
