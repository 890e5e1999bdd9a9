//! The compressed-sparse-row (CSR) event-dependency graph.
//!
//! A map-based dependency structure answers "what constrains this event?"
//! with a hash + probe over scattered heap nodes per lookup. This module
//! lowers the same structure ([`Matching`] message edges plus the
//! collective → point-to-point mapped edges of the paper's [30] extension)
//! into flat arrays indexed by a *global event id* (`gid`): event `(p, i)`
//! is `base[p] + i`, timelines concatenated in proc order — exactly the
//! layout of a flattened [`tracefmt::TraceColumns`].
//!
//! Per event the graph stores both directions of every constraint edge:
//!
//! * `in_offsets`/`in_edges` — CSR of *producers*: `in_edges[in_offsets[v]
//!   .. in_offsets[v+1]]` are the events whose corrected times bound event
//!   `v` from below (the matched send of a receive; the relevant begins of
//!   a collective end);
//! * `out_offsets`/`out_edges` — CSR of *consumers*: the transpose, used
//!   by backward amortization to clamp shifts;
//! * `in_lat_ps`/`out_lat_ps` — the minimum latency of each edge in
//!   picoseconds, baked in at build time from the frozen latency model, so
//!   the hot loops never touch a rank pair again. An edge's contribution
//!   to its consumer is exactly `corrected(producer) + lat`.
//!
//! Per-consumer in-edge order is the dependency-dispatch order (the single
//! message edge, or [`super::CollInst::deps_of_end`] order), so a forward
//! pass walking `in_edges` observes dependencies in the same sequence as
//! the map-based reference the tests keep as an oracle.

use super::CollInst;
use simclock::Dur;
use tracefmt::{CollectiveInstance, EventId, Matching, MinLatency, Trace};

/// Flat CSR dependency graph over the events of one trace. See the module
/// docs for the encoding.
pub struct DepGraph {
    /// `base[p]` is the gid of event `(p, 0)`; `base[n_procs]` the total
    /// event count. Prefix sums of the timeline lengths.
    base: Vec<u32>,
    /// `proc_of[gid]` is the timeline of event `gid` — the inverse of
    /// `base`, materialized so the hot kernels resolve gid → timeline in
    /// one load instead of a binary search over `base`.
    proc_of: Vec<u32>,
    /// CSR offsets into `in_edges`, one slot per event plus a terminator.
    in_offsets: Vec<u32>,
    /// Producer gids, grouped per consumer in dependency-dispatch order.
    in_edges: Vec<u32>,
    /// Minimum latency of each in-edge, aligned with `in_edges`.
    in_lat_ps: Vec<i64>,
    /// CSR offsets into `out_edges`, one slot per event plus a terminator.
    out_offsets: Vec<u32>,
    /// Consumer gids, grouped per producer.
    out_edges: Vec<u32>,
    /// Minimum latency of each out-edge, aligned with `out_edges`.
    out_lat_ps: Vec<i64>,
}

impl DepGraph {
    /// Lower a reconstructed communication analysis into CSR form.
    ///
    /// `proc_lens[p]` is the event count of timeline `p`; `lmin` is
    /// queried once per edge (rank pairs come from the matches and the
    /// collective members) and never again.
    pub fn build(
        matching: &Matching,
        instances: &[CollectiveInstance],
        proc_lens: &[usize],
        lmin: &dyn MinLatency,
    ) -> DepGraph {
        let n = proc_lens.len();
        let mut base = Vec::with_capacity(n + 1);
        let mut total: u32 = 0;
        for &len in proc_lens {
            base.push(total);
            total = total
                .checked_add(u32::try_from(len).expect("timeline length fits u32"))
                .expect("event count fits u32");
        }
        base.push(total);
        let mut proc_of = Vec::with_capacity(total as usize);
        for (p, &len) in proc_lens.iter().enumerate() {
            proc_of.extend(std::iter::repeat_n(p as u32, len));
        }
        let gid = |id: EventId| base[id.p()] + id.idx;

        // Gather the edge triples in lowering order: message edges in
        // matching order, then collective edges in instance order with the
        // begins of each end in `deps_of_end` order. A consumer is either
        // a receive (one message edge) or a collective end (only
        // collective edges), so per-consumer insertion order is exactly
        // the dependency-dispatch order.
        let insts: Vec<CollInst> = instances
            .iter()
            .map(|inst| {
                let root_pos = inst
                    .root
                    .and_then(|r| inst.members.iter().position(|m| m.rank == r));
                CollInst {
                    flavor: inst.op.flavor(),
                    root_pos,
                    members: inst.members.iter().map(|m| (m.rank, m.begin, m.end)).collect(),
                }
            })
            .collect();

        let mut triples: Vec<(EventId, EventId, i64)> = Vec::with_capacity(matching.messages.len());
        for m in &matching.messages {
            triples.push((m.send, m.recv, lmin.l_min(m.from, m.to).as_ps()));
        }
        for inst in &insts {
            for pos in 0..inst.members.len() {
                let (my_rank, _, end) = inst.members[pos];
                for j in inst.deps_of_end(pos) {
                    let (jrank, jbegin, _) = inst.members[j];
                    triples.push((jbegin, end, lmin.l_min(jrank, my_rank).as_ps()));
                }
            }
        }
        let n_edges = triples.len();
        assert!(
            u32::try_from(n_edges).is_ok(),
            "edge count fits u32"
        );

        // Counting sort into both CSR directions: degree count, prefix
        // sum, then a cursor fill that preserves triple order per slot.
        let total = total as usize;
        let mut in_offsets = vec![0u32; total + 1];
        let mut out_offsets = vec![0u32; total + 1];
        for &(src, dst, _) in &triples {
            in_offsets[gid(dst) as usize + 1] += 1;
            out_offsets[gid(src) as usize + 1] += 1;
        }
        for v in 0..total {
            in_offsets[v + 1] += in_offsets[v];
            out_offsets[v + 1] += out_offsets[v];
        }
        let mut in_edges = vec![0u32; n_edges];
        let mut in_lat_ps = vec![0i64; n_edges];
        let mut out_edges = vec![0u32; n_edges];
        let mut out_lat_ps = vec![0i64; n_edges];
        let mut in_cursor: Vec<u32> = in_offsets[..total].to_vec();
        let mut out_cursor: Vec<u32> = out_offsets[..total].to_vec();
        for &(src, dst, lat) in &triples {
            let (s, d) = (gid(src), gid(dst));
            let c = in_cursor[d as usize] as usize;
            in_edges[c] = s;
            in_lat_ps[c] = lat;
            in_cursor[d as usize] += 1;
            let c = out_cursor[s as usize] as usize;
            out_edges[c] = d;
            out_lat_ps[c] = lat;
            out_cursor[s as usize] += 1;
        }

        DepGraph {
            base,
            proc_of,
            in_offsets,
            in_edges,
            in_lat_ps,
            out_offsets,
            out_edges,
            out_lat_ps,
        }
    }

    /// [`DepGraph::build`] with timeline lengths read off the trace.
    pub fn from_trace(
        trace: &Trace,
        matching: &Matching,
        instances: &[CollectiveInstance],
        lmin: &dyn MinLatency,
    ) -> DepGraph {
        let lens: Vec<usize> = trace.procs.iter().map(|p| p.events.len()).collect();
        DepGraph::build(matching, instances, &lens, lmin)
    }

    /// Number of timelines.
    pub fn n_procs(&self) -> usize {
        self.base.len() - 1
    }

    /// Total events across all timelines.
    pub fn n_events(&self) -> usize {
        *self.base.last().expect("base non-empty") as usize
    }

    /// Total constraint edges.
    pub fn n_edges(&self) -> usize {
        self.in_edges.len()
    }

    /// Global event id of `(p, 0)` — gids of timeline `p` are
    /// `base(p) .. base(p) + len(p)` in program order.
    #[inline]
    pub(crate) fn base(&self, p: usize) -> u32 {
        self.base[p]
    }

    /// Timeline of event `gid`, in one load.
    #[inline]
    pub(crate) fn proc_of(&self, gid: u32) -> usize {
        self.proc_of[gid as usize] as usize
    }

    /// Map a gid back to its `(proc, index)` pair.
    #[inline]
    pub(crate) fn locate(&self, gid: u32) -> (usize, usize) {
        let p = self.proc_of(gid);
        (p, (gid - self.base[p]) as usize)
    }

    /// In-edges of `gid`: parallel slices of producer gids and edge
    /// latencies, in dependency-dispatch order.
    #[inline]
    pub(crate) fn in_of(&self, gid: u32) -> (&[u32], &[i64]) {
        let a = self.in_offsets[gid as usize] as usize;
        let b = self.in_offsets[gid as usize + 1] as usize;
        (&self.in_edges[a..b], &self.in_lat_ps[a..b])
    }

    /// Out-edges of `gid`: parallel slices of consumer gids and edge
    /// latencies.
    #[inline]
    pub(crate) fn out_of(&self, gid: u32) -> (&[u32], &[i64]) {
        let a = self.out_offsets[gid as usize] as usize;
        let b = self.out_offsets[gid as usize + 1] as usize;
        (&self.out_edges[a..b], &self.out_lat_ps[a..b])
    }

    /// Events whose corrected times bound `id` from below, with the
    /// minimum latency of each edge, in dependency-dispatch order.
    pub fn in_deps(&self, id: EventId) -> impl Iterator<Item = (EventId, Dur)> + '_ {
        let (srcs, lats) = self.in_of(self.base(id.p()) + id.idx);
        srcs.iter().zip(lats).map(|(&s, &lat)| {
            let (p, i) = self.locate(s);
            (EventId::new(p, i), Dur::from_ps(lat))
        })
    }

    /// Events bounded from below by `id`'s corrected time, with the
    /// minimum latency of each edge.
    pub fn out_deps(&self, id: EventId) -> impl Iterator<Item = (EventId, Dur)> + '_ {
        let (dsts, lats) = self.out_of(self.base(id.p()) + id.idx);
        dsts.iter().zip(lats).map(|(&d, &lat)| {
            let (p, i) = self.locate(d);
            (EventId::new(p, i), Dur::from_ps(lat))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures;
    use super::*;
    use std::collections::HashSet;
    use tracefmt::{match_collectives, match_messages, EventKind, Rank, Tag, UniformLatency};

    const LMIN: UniformLatency = UniformLatency(Dur::from_ps(4_000_000));

    fn graph_of(trace: &Trace) -> DepGraph {
        let matching = match_messages(trace);
        let insts = match_collectives(trace).unwrap();
        DepGraph::from_trace(trace, &matching, &insts, &LMIN)
    }

    /// Expected edge set straight from the analysis: each matched
    /// message, plus each collective end's `deps_of_end` begins.
    fn reference_edges(trace: &Trace) -> HashSet<(EventId, EventId, i64)> {
        let lat = LMIN.0.as_ps();
        let mut edges: HashSet<_> = match_messages(trace)
            .messages
            .iter()
            .map(|m| (m.send, m.recv, lat))
            .collect();
        for inst in match_collectives(trace).unwrap() {
            let root_pos = inst.root.and_then(|r| inst.members.iter().position(|m| m.rank == r));
            let ci = CollInst {
                flavor: inst.op.flavor(),
                root_pos,
                members: inst.members.iter().map(|m| (m.rank, m.begin, m.end)).collect(),
            };
            for (pos, &(_, _, end)) in ci.members.iter().enumerate() {
                for j in ci.deps_of_end(pos) {
                    edges.insert((ci.members[j].1, end, lat));
                }
            }
        }
        edges
    }

    #[test]
    fn csr_edges_match_the_analysis() {
        for (procs, rounds) in [(2, 5), (4, 12), (7, 21)] {
            let t = fixtures::mixed_trace(procs, rounds);
            let g = graph_of(&t);
            let want = reference_edges(&t);
            let mut got = HashSet::new();
            for (id, _) in t.iter_events() {
                for (src, lat) in g.in_deps(id) {
                    got.insert((src, id, lat.as_ps()));
                }
            }
            assert_eq!(got, want, "{procs}x{rounds} in-edge set");
            // The transpose carries exactly the same edges.
            let mut out_edges = HashSet::new();
            for (id, _) in t.iter_events() {
                for (dst, lat) in g.out_deps(id) {
                    out_edges.insert((id, dst, lat.as_ps()));
                }
            }
            assert_eq!(out_edges, want, "{procs}x{rounds} out-edge set");
            assert_eq!(g.n_edges(), want.len());
        }
    }

    #[test]
    fn gid_locate_round_trip() {
        let t = fixtures::mixed_trace(5, 9);
        let g = graph_of(&t);
        assert_eq!(g.n_events(), t.n_events());
        assert_eq!(g.n_procs(), t.n_procs());
        for (id, _) in t.iter_events() {
            let gid = g.base(id.p()) + id.idx;
            assert_eq!(g.locate(gid), (id.p(), id.i()));
        }
    }

    #[test]
    fn empty_timelines_are_handled() {
        let mut t = Trace::for_ranks(3);
        // Only timelines 0 and 2 carry events; 1 stays empty.
        t.procs[0].push(
            simclock::Time::from_us(1),
            EventKind::Send { to: Rank(2), tag: Tag(0), bytes: 0 },
        );
        t.procs[2].push(
            simclock::Time::from_us(9),
            EventKind::Recv { from: Rank(0), tag: Tag(0), bytes: 0 },
        );
        let g = graph_of(&t);
        assert_eq!(g.n_events(), 2);
        assert_eq!(g.locate(1), (2, 0));
        let deps: Vec<_> = g.in_deps(EventId::new(2, 0)).collect();
        assert_eq!(deps, vec![(EventId::new(0, 0), Dur::from_ps(4_000_000))]);
    }
}
