//! The map-based Controlled Logical Clock, kept as the test oracle.
//!
//! This is the reference implementation the production kernels
//! (`clocksync::clc::columnar` over the CSR `DepGraph`) were ported from,
//! statement for statement: a forward pass in dependency order over
//! `HashMap` dependency lookups on the event records, then per-timeline
//! backward amortization against a post-forward snapshot, then a final
//! μ = 1 forward sweep. It is deliberately kept in its original,
//! straightforward shape — a second, independent route to the same
//! corrected timestamps — so the differential tests can hold the fast path
//! to it bit for bit.
//!
//! [`reference_pipeline`] chains it with the record-based presync maps and
//! the per-item reference censuses, rebuilding the array-of-structs
//! pipeline from public pieces.

use drift_lab::clocksync::{
    ClcError, ClcParams, ClcReport, IdentityMap, Jump, LinearInterpolation, OffsetAlignment,
    OffsetMeasurement, PreSync, TimestampMap,
};
use drift_lab::simclock::{Dur, Time};
use drift_lab::tracefmt::{
    check_collectives, check_p2p, match_collectives, match_messages, CollFlavor, CollReport,
    EventId, EventKind, MinLatency, P2pReport, ProcessTrace, Rank, Trace,
};
use std::collections::HashMap;

/// Dependency structure of a trace as hash maps.
struct Deps {
    /// recv event -> (send event, sender rank).
    send_of: HashMap<EventId, (EventId, Rank)>,
    /// Collective instances.
    insts: Vec<CollInst>,
    /// CollEnd event -> (instance index, member position).
    end_info: HashMap<EventId, (usize, usize)>,
    /// CollBegin event -> (instance index, member position).
    begin_info: HashMap<EventId, (usize, usize)>,
    /// send event -> recv event (for backward clamping).
    recv_of: HashMap<EventId, (EventId, Rank)>,
}

/// One collective instance in dependency form.
struct CollInst {
    flavor: CollFlavor,
    root_pos: Option<usize>,
    /// (rank, begin, end) per member.
    members: Vec<(Rank, EventId, EventId)>,
}

impl CollInst {
    /// Member positions whose *begin* the end at `pos` depends on.
    fn deps_of_end(&self, pos: usize) -> Vec<usize> {
        (0..self.members.len())
            .filter(|&j| match self.flavor {
                // Non-root ends depend on the root's begin only.
                CollFlavor::OneToN => Some(pos) != self.root_pos && Some(j) == self.root_pos,
                // The root's end depends on every non-root begin.
                CollFlavor::NToOne => Some(pos) == self.root_pos && Some(j) != self.root_pos,
                // Every end depends on every other begin.
                CollFlavor::NToN => j != pos,
                // Prefix: end at pos depends on every lower begin.
                CollFlavor::Prefix => j < pos,
            })
            .collect()
    }

    /// Member positions whose *end* depends on the begin at `pos`.
    fn dependents_of_begin(&self, pos: usize) -> Vec<usize> {
        match self.flavor {
            CollFlavor::OneToN => {
                if Some(pos) == self.root_pos {
                    (0..self.members.len()).filter(|&j| j != pos).collect()
                } else {
                    Vec::new()
                }
            }
            CollFlavor::NToOne => {
                if Some(pos) == self.root_pos {
                    Vec::new()
                } else {
                    vec![self.root_pos.expect("rooted flavour")]
                }
            }
            CollFlavor::NToN => (0..self.members.len()).filter(|&j| j != pos).collect(),
            // Prefix: begin at pos feeds every higher member's end.
            CollFlavor::Prefix => (pos + 1..self.members.len()).collect(),
        }
    }
}

fn extract_deps(trace: &Trace) -> Result<Deps, ClcError> {
    let matching = match_messages(trace);
    let raw = match_collectives(trace).map_err(ClcError::BadCollectives)?;
    let mut send_of = HashMap::with_capacity(matching.messages.len());
    let mut recv_of = HashMap::with_capacity(matching.messages.len());
    for m in &matching.messages {
        send_of.insert(m.recv, (m.send, m.from));
        recv_of.insert(m.send, (m.recv, m.to));
    }
    let mut insts = Vec::with_capacity(raw.len());
    let mut end_info = HashMap::new();
    let mut begin_info = HashMap::new();
    for (idx, inst) in raw.iter().enumerate() {
        let root_pos = inst
            .root
            .and_then(|r| inst.members.iter().position(|m| m.rank == r));
        let members: Vec<(Rank, EventId, EventId)> = inst
            .members
            .iter()
            .map(|m| (m.rank, m.begin, m.end))
            .collect();
        for (pos, m) in members.iter().enumerate() {
            begin_info.insert(m.1, (idx, pos));
            end_info.insert(m.2, (idx, pos));
        }
        insts.push(CollInst {
            flavor: inst.op.flavor(),
            root_pos,
            members,
        });
    }
    Ok(Deps {
        send_of,
        insts,
        end_info,
        begin_info,
        recv_of,
    })
}

fn times_of(trace: &Trace) -> Vec<Vec<Time>> {
    trace
        .procs
        .iter()
        .map(|p| p.events.iter().map(|e| e.time).collect())
        .collect()
}

/// The map-based CLC, in place. Same contract as
/// `clocksync::controlled_logical_clock`, except that on
/// [`ClcError::CyclicTrace`] the trace is left partially rewritten.
pub fn controlled_logical_clock_oracle(
    trace: &mut Trace,
    lmin: &dyn MinLatency,
    params: &ClcParams,
) -> Result<ClcReport, ClcError> {
    let deps = extract_deps(trace)?;
    if !(params.mu > 0.0 && params.mu <= 1.0) {
        return Err(ClcError::BadParams(format!("mu = {}", params.mu)));
    }
    if params.backward && params.backward_window_factor <= 0.0 {
        return Err(ClcError::BadParams("non-positive backward window".into()));
    }
    let originals = times_of(trace);
    let mut report = forward_pass(trace, &originals, &deps, lmin, params.mu)?;
    if params.backward {
        backward_amortization(trace, &deps, lmin, params, &report.jumps);
        let post = times_of(trace);
        let _ = forward_pass(trace, &post, &deps, lmin, 1.0)?;
    }
    report.events_total = trace.n_events();
    report.events_moved = trace
        .procs
        .iter()
        .zip(&originals)
        .map(|(p, orig)| {
            p.events
                .iter()
                .zip(orig)
                .filter(|(e, &o)| e.time != o)
                .count()
        })
        .sum();
    Ok(report)
}

/// The forward pass: assign corrected times in dependency order,
/// round-robin across timelines, blocking on the first pending producer.
fn forward_pass(
    trace: &mut Trace,
    originals: &[Vec<Time>],
    deps: &Deps,
    lmin: &dyn MinLatency,
    mu: f64,
) -> Result<ClcReport, ClcError> {
    let n = trace.n_procs();
    let mut pc = vec![0usize; n];
    let mut prev_orig = vec![Time::MIN; n];
    let mut prev_corr = vec![Time::MIN; n];
    let mut report = ClcReport::default();

    loop {
        let mut progressed = false;
        for p in 0..n {
            'events: while pc[p] < trace.procs[p].events.len() {
                let i = pc[p];
                let id = EventId::new(p, i);
                let orig = originals[p][i];
                let my_rank = trace.procs[p].location.rank;

                // Remote constraint, if any.
                let mut remote: Option<Time> = None;
                match trace.procs[p].events[i].kind {
                    EventKind::Recv { .. } => {
                        if let Some(&(send, from)) = deps.send_of.get(&id) {
                            if send.i() >= pc[send.p()] {
                                break 'events; // send not yet corrected
                            }
                            remote =
                                Some(trace.time(send).saturating_add(lmin.l_min(from, my_rank)));
                        }
                    }
                    EventKind::CollEnd { .. } => {
                        if let Some(&(inst_idx, pos)) = deps.end_info.get(&id) {
                            let inst = &deps.insts[inst_idx];
                            let mut bound: Option<Time> = None;
                            for j in inst.deps_of_end(pos) {
                                let (jrank, jbegin, _) = inst.members[j];
                                if jbegin.i() >= pc[jbegin.p()] {
                                    break 'events; // dependency pending
                                }
                                let c = trace
                                    .time(jbegin)
                                    .saturating_add(lmin.l_min(jrank, my_rank));
                                bound = Some(bound.map_or(c, |b: Time| b.max(c)));
                            }
                            remote = bound;
                        }
                    }
                    _ => {}
                }

                // Amortized local candidate (saturating at the i64 edges).
                let candidate = if i == 0 {
                    orig
                } else {
                    let gap = orig.saturating_since(prev_orig[p]).max(Dur::ZERO);
                    orig.max(prev_corr[p].saturating_add(gap.scale(mu)))
                };
                let corrected = match remote {
                    Some(r) if r > candidate => {
                        let size = r.saturating_since(candidate);
                        report.jumps.push(Jump { event: id, size });
                        report.max_jump = report.max_jump.max(size);
                        r
                    }
                    _ => candidate,
                };
                trace.procs[p].events[i].time = corrected;
                prev_orig[p] = orig;
                prev_corr[p] = corrected;
                pc[p] += 1;
                progressed = true;
            }
        }
        if (0..n).all(|p| pc[p] == trace.procs[p].events.len()) {
            return Ok(report);
        }
        if !progressed {
            return Err(ClcError::CyclicTrace);
        }
    }
}

/// Backward amortization: smooth each jump over a window of preceding
/// events with a linear ramp, clamped against a post-forward snapshot so
/// no outgoing message or collective contribution becomes violated.
fn backward_amortization(
    trace: &mut Trace,
    deps: &Deps,
    lmin: &dyn MinLatency,
    params: &ClcParams,
    jumps: &[Jump],
) {
    let snapshot = times_of(trace);
    let mut per_proc: Vec<Vec<Jump>> = vec![Vec::new(); trace.n_procs()];
    for j in jumps {
        per_proc[j.event.p()].push(*j);
    }
    for list in per_proc.iter_mut() {
        list.sort_by_key(|j| j.event.i());
    }
    for (p, pt) in trace.procs.iter_mut().enumerate() {
        backward_pass_proc(p, pt, &per_proc[p], deps, lmin, params, &snapshot);
    }
}

fn backward_pass_proc(
    p: usize,
    pt: &mut ProcessTrace,
    jumps: &[Jump],
    deps: &Deps,
    lmin: &dyn MinLatency,
    params: &ClcParams,
    snapshot: &[Vec<Time>],
) {
    let my_rank = pt.location.rank;
    for jump in jumps {
        let k = jump.event.i();
        if k == 0 {
            continue;
        }
        let delta = jump.size;
        let t_pre = pt.events[k].time.saturating_sub(delta);
        let window = delta.scale(params.backward_window_factor);
        let w_start = t_pre.saturating_sub(window);
        // Walk backward applying min(ramp, cap, shift_of_successor).
        let mut shift_above = delta;
        for i in (0..k).rev() {
            let t_i = pt.events[i].time;
            if t_i <= w_start {
                break;
            }
            let frac = t_i.saturating_since(w_start).as_ps() as f64 / window.as_ps().max(1) as f64;
            let ramp = delta.scale(frac.clamp(0.0, 1.0));
            let id = EventId::new(p, i);
            let mut cap = Dur::MAX;
            if let Some(&(recv, to)) = deps.recv_of.get(&id) {
                cap = cap.min(
                    snapshot[recv.p()][recv.i()]
                        .saturating_sub(lmin.l_min(my_rank, to))
                        .saturating_since(t_i),
                );
            }
            if let Some(&(inst_idx, pos)) = deps.begin_info.get(&id) {
                let inst = &deps.insts[inst_idx];
                for j in inst.dependents_of_begin(pos) {
                    let (jrank, _, jend) = inst.members[j];
                    cap = cap.min(
                        snapshot[jend.p()][jend.i()]
                            .saturating_sub(lmin.l_min(my_rank, jrank))
                            .saturating_since(t_i),
                    );
                }
            }
            let shift = ramp.min(cap).min(shift_above).max(Dur::ZERO);
            pt.events[i].time = t_i.saturating_add(shift);
            shift_above = shift;
            if shift == Dur::ZERO {
                break;
            }
        }
    }
}

/// Assert two CLC reports agree on the jump sequence (event and size, in
/// order), `max_jump`, `events_moved` and `events_total`.
pub fn assert_reports_identical(want: &ClcReport, got: &ClcReport, ctx: &str) {
    let jumps = |r: &ClcReport| -> Vec<(EventId, Dur)> {
        r.jumps.iter().map(|j| (j.event, j.size)).collect()
    };
    assert_eq!(jumps(want), jumps(got), "{ctx}: jump sequences diverge");
    assert_eq!(want.max_jump, got.max_jump, "{ctx}: max_jump diverges");
    assert_eq!(
        want.events_moved, got.events_moved,
        "{ctx}: events_moved diverges"
    );
    assert_eq!(
        want.events_total, got.events_total,
        "{ctx}: events_total diverges"
    );
}

/// Censuses and CLC report of [`reference_pipeline`].
pub struct ReferenceRun {
    /// Census on the raw trace: (p2p, collectives).
    pub raw: (P2pReport, CollReport),
    /// Census after pre-synchronisation.
    pub after_presync: (P2pReport, CollReport),
    /// Census after the CLC, when it ran.
    pub after_clc: Option<(P2pReport, CollReport)>,
    /// CLC report, when it ran.
    pub clc: Option<ClcReport>,
}

/// The record-based reference chain for `synchronize` under the CLC
/// method: the presync maps applied per event record, the per-item
/// reference censuses, and the map-based oracle CLC. `trace` is rewritten
/// in place.
pub fn reference_pipeline(
    trace: &mut Trace,
    init: &[Option<OffsetMeasurement>],
    fin: &[Option<OffsetMeasurement>],
    lmin: &dyn MinLatency,
    presync: PreSync,
    clc: Option<&ClcParams>,
) -> Result<ReferenceRun, ClcError> {
    let matching = match_messages(trace);
    let insts = match_collectives(trace).map_err(ClcError::BadCollectives)?;
    let census = |t: &Trace| {
        (
            check_p2p(t, &matching, lmin),
            check_collectives(t, &insts, lmin),
        )
    };
    let raw = census(trace);
    let maps: Option<Vec<Box<dyn TimestampMap>>> = match presync {
        PreSync::None => None,
        PreSync::AlignOnly => Some(
            init.iter()
                .map(|m| -> Box<dyn TimestampMap> {
                    match m {
                        Some(m) => Box::new(OffsetAlignment::new(m)),
                        None => Box::new(IdentityMap),
                    }
                })
                .collect(),
        ),
        PreSync::Linear => Some(
            init.iter()
                .zip(fin)
                .map(|(a, b)| -> Box<dyn TimestampMap> {
                    match (a, b) {
                        (Some(a), Some(b)) => Box::new(LinearInterpolation::new(a, b)),
                        _ => Box::new(IdentityMap),
                    }
                })
                .collect(),
        ),
    };
    let after_presync = match maps {
        None => census(trace),
        Some(maps) => {
            trace.map_times(|p, t| maps[p].map(t));
            census(trace)
        }
    };
    let (after_clc, clc) = match clc {
        None => (None, None),
        Some(params) => {
            let rep = controlled_logical_clock_oracle(trace, lmin, params)?;
            (Some(census(trace)), Some(rep))
        }
    };
    Ok(ReferenceRun {
        raw,
        after_presync,
        after_clc,
        clc,
    })
}
