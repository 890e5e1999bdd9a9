//! Postmortem trace analysis: reconstructing the communication structure.
//!
//! Tracers record sends and receives independently on each process; which
//! send pairs with which receive is recovered afterwards from MPI's
//! non-overtaking rule — messages between one (source, destination, tag)
//! triple match in FIFO order. Collective instances are recovered from the
//! per-communicator call order, and OpenMP parallel regions from the POMP
//! fork/join bracketing. These reconstructions are purely *logical*: they
//! use event order within each timeline, never the (unreliable) timestamps,
//! so corrupted clocks cannot corrupt the structure.
//!
//! Message matching is a sort, not a queue simulation: sends and receives
//! are stably sorted by their `(from, to, tag)` key, and the k-th send of a
//! key pairs with the k-th receive of the same key. Both lists enter the
//! sort in event-id order — program order within each timeline — so the
//! stable sort keeps every key's sends and receives in program order, which
//! is exactly the FIFO order the non-overtaking rule speaks about.

use crate::event::{CollOp, EventKind};
use crate::ids::{CommId, EventId, Rank, RegionId};
use crate::trace::Trace;
use std::cmp::Ordering;
use std::collections::HashMap;

/// A matched point-to-point message: its send and receive events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageMatch {
    /// The `Send` event.
    pub send: EventId,
    /// The matching `Recv` event.
    pub recv: EventId,
    /// Source rank.
    pub from: Rank,
    /// Destination rank.
    pub to: Rank,
    /// Payload size.
    pub bytes: u64,
}

/// Result of message matching, including any dangling events (normally a
/// sign of a truncated or partial trace).
#[derive(Debug, Clone, Default)]
pub struct Matching {
    /// Matched send/receive pairs.
    pub messages: Vec<MessageMatch>,
    /// Sends with no matching receive in the trace.
    pub unmatched_sends: Vec<EventId>,
    /// Receives with no matching send in the trace.
    pub unmatched_recvs: Vec<EventId>,
}

impl Matching {
    /// True if every message event found its partner.
    pub fn is_complete(&self) -> bool {
        self.unmatched_sends.is_empty() && self.unmatched_recvs.is_empty()
    }
}

/// Packs the key bits that vary across every fed key into one value:
/// word `w`'s varying span — its lowest to its highest varying bit — is
/// shifted down by `lo[w]` and placed at bit `at[w]`. Words keep their
/// significance order and the dropped bits are equal in every key, so
/// packed keys sort exactly like the keys they came from.
struct Packing {
    lo: [u32; 3],
    mask: [u32; 3],
    at: [u32; 3],
    /// The dropped (constant) bits of each word.
    fixed: [u32; 3],
    width: u32,
}

impl Packing {
    /// The packing for keys whose bitwise OR is `any` and AND is `all`.
    fn new(any: [u32; 3], all: [u32; 3]) -> Packing {
        let mut p = Packing { lo: [0; 3], mask: [0; 3], at: [0; 3], fixed: all, width: 0 };
        for w in (0..3).rev() {
            let varying = any[w] ^ all[w];
            if varying == 0 {
                continue;
            }
            let lo = varying.trailing_zeros();
            let bits = 32 - varying.leading_zeros() - lo;
            p.lo[w] = lo;
            p.mask[w] = u32::MAX >> (32 - bits);
            p.at[w] = p.width;
            p.fixed[w] &= !(p.mask[w] << lo);
            p.width += bits;
        }
        p
    }

    /// Pack a fed key, `from << 64 | to << 32 | tag`.
    fn pack(&self, key: u128) -> u128 {
        (0..3).fold(0, |acc, w| {
            let word = (key >> (64 - 32 * w)) as u32;
            acc | u128::from((word >> self.lo[w]) & self.mask[w]) << self.at[w]
        })
    }

    /// Word `w` of the key that packed to `packed`.
    fn unpack(&self, packed: u128, w: usize) -> u32 {
        ((packed >> self.at[w]) as u32 & self.mask[w]) << self.lo[w] | self.fixed[w]
    }
}

/// A fed send or receive as a sort entry: its key, stored as
/// `hi << 64 | lo`, and its feed position. The key is
/// `from << 64 | to << 32 | tag` when fed and its [`Packing`] once sorted.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    lo: u64,
    hi: u32,
    pos: u32,
}

impl Entry {
    fn fed(key: [u32; 3], pos: usize) -> Entry {
        Entry { lo: u64::from(key[1]) << 32 | u64::from(key[2]), hi: key[0], pos: pos as u32 }
    }

    fn key(&self) -> u128 {
        u128::from(self.hi) << 64 | u128::from(self.lo)
    }

    fn set_key(&mut self, key: u128) {
        (self.lo, self.hi) = (key as u64, (key >> 64) as u32);
    }
}

/// Pack the keys of `entries`, then stable-LSD-radix-sort them by packed
/// key, using `scratch` as the second buffer. Digits cover only the packed
/// (varying) bits and are 8 to 16 bits wide — about
/// `log2(entries.len())`, so no histogram outgrows the list it sorts: 60k
/// messages among 16 ranks with 16-bit tags sort in two passes. All
/// histograms fill in the packing pass.
fn radix_sort(entries: &mut Vec<Entry>, scratch: &mut Vec<Entry>, packing: &Packing) {
    let max_bits = (usize::BITS - entries.len().leading_zeros()).clamp(8, 16);
    let passes = packing.width.div_ceil(max_bits);
    let bits = packing.width.div_ceil(passes.max(1));
    let radix = 1usize << bits;
    let digit = |key: u128, d: u32| (key >> (d * bits)) as usize & (radix - 1);

    let mut hist = vec![0u32; passes as usize * radix];
    for e in entries.iter_mut() {
        let key = packing.pack(e.key());
        e.set_key(key);
        for d in 0..passes {
            hist[d as usize * radix + digit(key, d)] += 1;
        }
    }
    scratch.clear();
    scratch.resize(entries.len(), Entry::default());
    for (d, start) in (0..passes).zip(hist.chunks_mut(radix)) {
        let mut sum = 0;
        for c in start.iter_mut() {
            let k = *c;
            *c = sum;
            sum += k;
        }
        for e in entries.iter() {
            let slot = &mut start[digit(e.key(), d)];
            scratch[*slot as usize] = *e;
            *slot += 1;
        }
        std::mem::swap(entries, scratch);
    }
}

/// Push-only message matcher: the one matcher behind [`match_messages`],
/// also fed directly by callers that never materialize a [`Trace`]
/// (block-directory scans over an on-disk stream).
///
/// Feeding only appends a key and an event id — no hashing, no per-key
/// queue. Events may arrive in any order, sends and receives interleaved.
/// [`finish`] puts each list in event-id order — already the case when
/// timelines are fed one after another, each in program order, as every
/// caller here does — then stably sorts both lists by key and zips the
/// equal-key runs, so the result is the same for every feed order.
///
/// [`finish`]: MessageMatcher::finish
#[derive(Debug)]
pub struct MessageMatcher {
    sends: Vec<Entry>,
    /// Event and payload size of each send, by feed position.
    send_meta: Vec<(EventId, u64)>,
    recvs: Vec<Entry>,
    /// Event of each receive, by feed position.
    recv_ids: Vec<EventId>,
    /// Bitwise OR and AND over every fed key.
    any: [u32; 3],
    all: [u32; 3],
    /// Some list was fed out of event-id order.
    unordered: bool,
}

impl Default for MessageMatcher {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl MessageMatcher {
    /// Fresh matcher with nothing fed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh matcher with room for `messages` sends and as many receives.
    pub fn with_capacity(messages: usize) -> Self {
        MessageMatcher {
            sends: Vec::with_capacity(messages),
            send_meta: Vec::with_capacity(messages),
            recvs: Vec::with_capacity(messages),
            recv_ids: Vec::with_capacity(messages),
            any: [0; 3],
            all: [u32::MAX; 3],
            unordered: false,
        }
    }

    /// Record a fed key and whether `id` breaks event-id order after
    /// `last`, the previous id of the same list.
    fn note(&mut self, key: [u32; 3], last: Option<EventId>, id: EventId) {
        for (w, k) in key.into_iter().enumerate() {
            self.any[w] |= k;
            self.all[w] &= k;
        }
        self.unordered |= last.is_some_and(|last| last > id);
    }

    /// Feed event `i` of timeline `p` (whose location rank is `from`).
    /// Non-`Send` kinds are ignored.
    pub fn feed_send(&mut self, from: Rank, p: usize, i: usize, kind: &EventKind) {
        if let EventKind::Send { to, tag, bytes } = *kind {
            let (key, id) = ([from.0, to.0, tag.0], EventId::new(p, i));
            self.note(key, self.send_meta.last().map(|m| m.0), id);
            self.sends.push(Entry::fed(key, self.send_meta.len()));
            self.send_meta.push((id, bytes));
        }
    }

    /// Feed event `i` of timeline `p` (whose location rank is `to`).
    /// Non-`Recv` kinds are ignored.
    pub fn feed_recv(&mut self, to: Rank, p: usize, i: usize, kind: &EventKind) {
        if let EventKind::Recv { from, tag, .. } = *kind {
            let (key, id) = ([from.0, to.0, tag.0], EventId::new(p, i));
            self.note(key, self.recv_ids.last().copied(), id);
            self.recvs.push(Entry::fed(key, self.recv_ids.len()));
            self.recv_ids.push(id);
        }
    }

    /// Match everything fed. `messages` and `unmatched_recvs` come out in
    /// receive event-id order, `unmatched_sends` in send event-id order.
    pub fn finish(mut self) -> Matching {
        let (meta, recv_ids, unordered) = (&self.send_meta, &self.recv_ids, self.unordered);
        if unordered {
            self.sends.sort_by_key(|e| meta[e.pos as usize].0);
            self.recvs.sort_by_key(|e| recv_ids[e.pos as usize]);
        }
        let packing = Packing::new(self.any, self.all);
        let mut scratch = Vec::new();
        radix_sort(&mut self.sends, &mut scratch, &packing);
        radix_sort(&mut self.recvs, &mut scratch, &packing);
        drop(scratch);
        let (s, r) = (&self.sends, &self.recvs);

        // Zip the equal-key runs: the k-th send of a key pairs with the
        // k-th receive of that key (FIFO, since the sorts are stable).
        // `partner` maps a receive's feed position to its send's index
        // in `s`.
        const UNMATCHED: u32 = u32::MAX;
        let mut partner = vec![UNMATCHED; r.len()];
        let mut matched = vec![false; s.len()];
        let (mut i, mut j, mut pairs) = (0, 0, 0);
        while i < s.len() && j < r.len() {
            match s[i].key().cmp(&r[j].key()) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    partner[r[j].pos as usize] = i as u32;
                    matched[s[i].pos as usize] = true;
                    (i, j, pairs) = (i + 1, j + 1, pairs + 1);
                }
            }
        }

        let mut out = Matching {
            messages: Vec::with_capacity(pairs),
            unmatched_sends: Vec::with_capacity(s.len() - pairs),
            unmatched_recvs: Vec::with_capacity(r.len() - pairs),
        };
        for (&recv, &si) in recv_ids.iter().zip(&partner) {
            if si == UNMATCHED {
                out.unmatched_recvs.push(recv);
                continue;
            }
            let send = s[si as usize];
            let (id, bytes) = meta[send.pos as usize];
            let key = send.key();
            out.messages.push(MessageMatch {
                send: id,
                recv,
                from: Rank(packing.unpack(key, 0)),
                to: Rank(packing.unpack(key, 1)),
                bytes,
            });
        }
        out.unmatched_sends
            .extend((meta.iter().zip(&matched)).filter(|&(_, &m)| !m).map(|(&(id, _), _)| id));
        if unordered {
            out.messages.sort_by_key(|m| m.recv);
            out.unmatched_sends.sort();
            out.unmatched_recvs.sort();
        }
        out
    }
}

/// Match sends to receives by (source, destination, tag) in FIFO order.
///
/// The trace's timelines are indexed by rank position in `trace.procs`;
/// ranks referenced by `Send`/`Recv` events are resolved through each
/// timeline's location. One pass over the trace feeds a
/// [`MessageMatcher`], sized for a trace of only point-to-point events,
/// half sends and half receives.
pub fn match_messages(trace: &Trace) -> Matching {
    let mut m = MessageMatcher::with_capacity(trace.n_events() / 2);
    for (p, pt) in trace.procs.iter().enumerate() {
        let rank = pt.location.rank;
        for (i, e) in pt.events.iter().enumerate() {
            m.feed_send(rank, p, i, &e.kind);
            m.feed_recv(rank, p, i, &e.kind);
        }
    }
    m.finish()
}

/// One member's participation in a collective instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollMember {
    /// Rank of the member.
    pub rank: Rank,
    /// Its `CollBegin` event.
    pub begin: EventId,
    /// Its `CollEnd` event.
    pub end: EventId,
}

/// A reconstructed collective operation instance across all participants.
#[derive(Debug, Clone)]
pub struct CollectiveInstance {
    /// Which operation.
    pub op: CollOp,
    /// Communicator.
    pub comm: CommId,
    /// Root rank for rooted flavours.
    pub root: Option<Rank>,
    /// Begin/end pair per participating rank.
    pub members: Vec<CollMember>,
}

impl CollectiveInstance {
    /// The member entry for the root, if the operation is rooted.
    pub fn root_member(&self) -> Option<&CollMember> {
        let root = self.root?;
        self.members.iter().find(|m| m.rank == root)
    }
}

/// One collective call of one timeline, in call order — the unit a
/// [`CollectiveScanner`] scans out and [`assemble_collective_instances`]
/// zips into instances.
#[derive(Debug, Clone, Copy)]
pub struct CollCall {
    /// Rank of the calling timeline.
    pub rank: Rank,
    /// The call's `CollBegin` event.
    pub begin: EventId,
    /// The call's `CollEnd` event (`None` for a truncated trace).
    pub end: Option<EventId>,
    /// Which operation the caller recorded.
    pub op: CollOp,
    /// Root rank for rooted flavours.
    pub root: Option<Rank>,
}

/// Per-event collective call scanner for one timeline. Feed every event
/// of timeline `p` in program order; [`finish`] yields its
/// per-communicator call lists, ready for
/// [`assemble_collective_instances`].
///
/// [`finish`]: CollectiveScanner::finish
#[derive(Debug)]
pub struct CollectiveScanner {
    p: usize,
    rank: Rank,
    out: HashMap<CommId, Vec<CollCall>>,
    // comm -> open call stack position for this proc.
    open: HashMap<CommId, usize>,
}

impl CollectiveScanner {
    /// Scanner for timeline `p` whose location rank is `rank`.
    pub fn new(p: usize, rank: Rank) -> Self {
        Self {
            p,
            rank,
            out: HashMap::new(),
            open: HashMap::new(),
        }
    }

    /// Feed event `i` of the timeline. Errors on a `CollEnd` with no open
    /// `CollBegin` on the same communicator.
    pub fn feed(&mut self, i: usize, kind: &EventKind) -> Result<(), String> {
        match *kind {
            EventKind::CollBegin { op, comm, root, .. } => {
                let list = self.out.entry(comm).or_default();
                self.open.insert(comm, list.len());
                list.push(CollCall {
                    rank: self.rank,
                    begin: EventId::new(self.p, i),
                    end: None,
                    op,
                    root,
                });
            }
            EventKind::CollEnd { comm, .. } => {
                let p = self.p;
                let idx = *self
                    .open
                    .get(&comm)
                    .ok_or_else(|| format!("CollEnd without CollBegin at proc {p}"))?;
                self.out.get_mut(&comm).expect("open implies list")[idx].end =
                    Some(EventId::new(self.p, i));
            }
            _ => {}
        }
        Ok(())
    }

    /// The per-communicator call lists, in call order.
    pub fn finish(self) -> HashMap<CommId, Vec<CollCall>> {
        self.out
    }
}

/// Zip the per-timeline call lists of one communicator into instances:
/// the k-th call of every participating timeline belongs to instance k.
/// `lists[p]` is timeline `p`'s call list (empty for non-participants).
/// One communicator of [`match_collectives`]'s assembly pass.
pub fn assemble_collective_instances(
    comm: CommId,
    lists: &[Vec<CollCall>],
) -> Result<Vec<CollectiveInstance>, String> {
    let participating: Vec<usize> = (0..lists.len()).filter(|&p| !lists[p].is_empty()).collect();
    let n_calls = participating
        .iter()
        .map(|&p| lists[p].len())
        .max()
        .unwrap_or(0);
    let mut out = Vec::with_capacity(n_calls);
    for k in 0..n_calls {
        let mut members = Vec::new();
        let mut op: Option<CollOp> = None;
        let mut root: Option<Rank> = None;
        for &p in &participating {
            let Some(call) = lists[p].get(k) else {
                return Err(format!("rank at proc {p} missing collective #{k} on {comm}"));
            };
            match op {
                None => {
                    op = Some(call.op);
                    root = call.root;
                }
                Some(o) if o != call.op => {
                    return Err(format!(
                        "collective #{k} on {comm}: op mismatch {o:?} vs {:?}",
                        call.op
                    ));
                }
                _ => {}
            }
            let end = call.end.ok_or_else(|| {
                format!("collective #{k} on {comm}: missing CollEnd at proc {p}")
            })?;
            members.push(CollMember {
                rank: call.rank,
                begin: call.begin,
                end,
            });
        }
        out.push(CollectiveInstance {
            op: op.expect("non-empty instance"),
            comm,
            root,
            members,
        });
    }
    Ok(out)
}

/// Reconstruct collective instances: within one communicator, the k-th
/// collective call of every rank belongs to instance k (MPI requires all
/// ranks of a communicator to issue collectives in the same order).
///
/// Returns instances in per-communicator call order. Instances whose `op`
/// differs across ranks indicate a malformed trace and are reported via
/// `Err` with the instance index.
pub fn match_collectives(trace: &Trace) -> Result<Vec<CollectiveInstance>, String> {
    let n = trace.n_procs();
    let mut per_comm: HashMap<CommId, Vec<Vec<CollCall>>> = HashMap::new();
    for (p, pt) in trace.procs.iter().enumerate() {
        let mut scanner = CollectiveScanner::new(p, pt.location.rank);
        for (i, e) in pt.events.iter().enumerate() {
            scanner.feed(i, &e.kind)?;
        }
        for (comm, list) in scanner.finish() {
            per_comm.entry(comm).or_insert_with(|| vec![Vec::new(); n])[p] = list;
        }
    }

    let mut comms: Vec<_> = per_comm.keys().copied().collect();
    comms.sort();
    let mut out = Vec::new();
    for comm in comms {
        out.extend(assemble_collective_instances(comm, &per_comm[&comm])?);
    }
    Ok(out)
}

/// One thread's view of a parallel region instance (POMP model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionThread {
    /// Timeline index of the thread.
    pub proc: usize,
    /// The thread's first event of the region (index into its timeline).
    pub first: u32,
    /// The thread's last event of the region (inclusive).
    pub last: u32,
    /// Barrier enter event, if present.
    pub barrier_enter: Option<EventId>,
    /// Barrier exit event, if present.
    pub barrier_exit: Option<EventId>,
}

/// A reconstructed OpenMP parallel region instance.
#[derive(Debug, Clone)]
pub struct ParallelRegion {
    /// Region id from the fork event.
    pub region: RegionId,
    /// The master's `Fork` event.
    pub fork: EventId,
    /// The master's `Join` event.
    pub join: EventId,
    /// Per-thread spans (including the master's own work inside the
    /// region).
    pub threads: Vec<RegionThread>,
}

/// Reconstruct parallel regions from POMP events.
///
/// Assumes the trace's timelines are the threads of one team (as produced by
/// [`Trace::for_threads`]): thread 0 carries `Fork`/`Join`, every thread
/// carries its in-region events bracketed (logically) between consecutive
/// fork/join pairs, in the same instance order on all threads.
pub fn match_parallel_regions(trace: &Trace) -> Result<Vec<ParallelRegion>, String> {
    if trace.procs.is_empty() {
        return Ok(Vec::new());
    }
    // Collect fork/join pairs on the master timeline.
    let master = 0usize;
    let mut forks: Vec<(RegionId, EventId)> = Vec::new();
    let mut joins: Vec<EventId> = Vec::new();
    for (i, e) in trace.procs[master].events.iter().enumerate() {
        match e.kind {
            EventKind::Fork { region } => forks.push((region, EventId::new(master, i))),
            EventKind::Join { .. } => joins.push(EventId::new(master, i)),
            _ => {}
        }
    }
    if forks.len() != joins.len() {
        return Err(format!(
            "unbalanced fork/join: {} forks, {} joins",
            forks.len(),
            joins.len()
        ));
    }

    // Per thread, split its event stream into region instances by counting
    // barrier enters/exits per instance: thread-local events between the
    // k-th region markers belong to instance k. We use explicit per-thread
    // instance cursors driven by BarrierExit (every instance ends with the
    // implicit barrier in the POMP model).
    let mut regions: Vec<ParallelRegion> = forks
        .iter()
        .zip(&joins)
        .map(|(&(region, fork), &join)| ParallelRegion {
            region,
            fork,
            join,
            threads: Vec::new(),
        })
        .collect();

    for (p, pt) in trace.procs.iter().enumerate() {
        let mut inst = 0usize;
        let mut current: Option<RegionThread> = None;
        for (i, e) in pt.events.iter().enumerate() {
            match e.kind {
                // Fork/Join live outside the per-thread span.
                EventKind::Fork { .. } | EventKind::Join { .. } => {}
                EventKind::BarrierEnter { .. } => {
                    let cur = current.get_or_insert(RegionThread {
                        proc: p,
                        first: i as u32,
                        last: i as u32,
                        barrier_enter: None,
                        barrier_exit: None,
                    });
                    cur.barrier_enter = Some(EventId::new(p, i));
                    cur.last = i as u32;
                }
                EventKind::BarrierExit { .. } => {
                    let cur = current.get_or_insert(RegionThread {
                        proc: p,
                        first: i as u32,
                        last: i as u32,
                        barrier_enter: None,
                        barrier_exit: None,
                    });
                    cur.barrier_exit = Some(EventId::new(p, i));
                    cur.last = i as u32;
                    // The implicit barrier exit closes the instance.
                    let done = current.take().expect("just inserted");
                    let reg = regions.get_mut(inst).ok_or_else(|| {
                        format!("thread {p} has more region instances than the master forked")
                    })?;
                    reg.threads.push(done);
                    inst += 1;
                }
                _ => {
                    let cur = current.get_or_insert(RegionThread {
                        proc: p,
                        first: i as u32,
                        last: i as u32,
                        barrier_enter: None,
                        barrier_exit: None,
                    });
                    cur.last = i as u32;
                }
            }
        }
        if current.is_some() {
            return Err(format!("thread {p}: trailing region without barrier exit"));
        }
    }
    Ok(regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Tag;
    use simclock::Time;

    fn us(n: i64) -> Time {
        Time::from_us(n)
    }

    #[test]
    fn fifo_matching_is_order_based_not_time_based() {
        let mut t = Trace::for_ranks(2);
        // Two messages 0 -> 1 with the same tag; timestamps deliberately
        // scrambled — matching must follow program order.
        t.procs[0].push(us(10), EventKind::Send { to: Rank(1), tag: Tag(7), bytes: 1 });
        t.procs[0].push(us(11), EventKind::Send { to: Rank(1), tag: Tag(7), bytes: 2 });
        t.procs[1].push(us(5), EventKind::Recv { from: Rank(0), tag: Tag(7), bytes: 1 });
        t.procs[1].push(us(6), EventKind::Recv { from: Rank(0), tag: Tag(7), bytes: 2 });
        let m = match_messages(&t);
        assert!(m.is_complete());
        assert_eq!(m.messages.len(), 2);
        assert_eq!(m.messages[0].send, EventId::new(0, 0));
        assert_eq!(m.messages[0].recv, EventId::new(1, 0));
        assert_eq!(m.messages[0].bytes, 1);
        assert_eq!(m.messages[1].bytes, 2);
    }

    #[test]
    fn different_tags_do_not_cross_match() {
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(us(1), EventKind::Send { to: Rank(1), tag: Tag(1), bytes: 0 });
        t.procs[1].push(us(2), EventKind::Recv { from: Rank(0), tag: Tag(2), bytes: 0 });
        let m = match_messages(&t);
        assert_eq!(m.messages.len(), 0);
        assert_eq!(m.unmatched_sends.len(), 1);
        assert_eq!(m.unmatched_recvs.len(), 1);
        assert!(!m.is_complete());
    }

    #[test]
    fn collective_reconstruction_by_call_order() {
        let mut t = Trace::for_ranks(2);
        for p in 0..2 {
            for _ in 0..2 {
                t.procs[p].push(
                    us(1),
                    EventKind::CollBegin {
                        op: CollOp::Allreduce,
                        comm: CommId::WORLD,
                        root: None,
                        bytes: 8,
                    },
                );
                t.procs[p].push(
                    us(2),
                    EventKind::CollEnd {
                        op: CollOp::Allreduce,
                        comm: CommId::WORLD,
                        root: None,
                        bytes: 8,
                    },
                );
            }
        }
        let insts = match_collectives(&t).unwrap();
        assert_eq!(insts.len(), 2);
        assert_eq!(insts[0].members.len(), 2);
        assert_eq!(insts[0].op, CollOp::Allreduce);
    }

    #[test]
    fn collective_op_mismatch_is_detected() {
        let mut t = Trace::for_ranks(2);
        t.procs[0].push(
            us(1),
            EventKind::CollBegin { op: CollOp::Barrier, comm: CommId::WORLD, root: None, bytes: 0 },
        );
        t.procs[0].push(
            us(2),
            EventKind::CollEnd { op: CollOp::Barrier, comm: CommId::WORLD, root: None, bytes: 0 },
        );
        t.procs[1].push(
            us(1),
            EventKind::CollBegin { op: CollOp::Bcast, comm: CommId::WORLD, root: Some(Rank(0)), bytes: 0 },
        );
        t.procs[1].push(
            us(2),
            EventKind::CollEnd { op: CollOp::Bcast, comm: CommId::WORLD, root: Some(Rank(0)), bytes: 0 },
        );
        assert!(match_collectives(&t).is_err());
    }

    #[test]
    fn rooted_collective_finds_root_member() {
        let mut t = Trace::for_ranks(3);
        for p in 0..3 {
            t.procs[p].push(
                us(1),
                EventKind::CollBegin {
                    op: CollOp::Bcast,
                    comm: CommId::WORLD,
                    root: Some(Rank(1)),
                    bytes: 4,
                },
            );
            t.procs[p].push(
                us(2),
                EventKind::CollEnd {
                    op: CollOp::Bcast,
                    comm: CommId::WORLD,
                    root: Some(Rank(1)),
                    bytes: 4,
                },
            );
        }
        let insts = match_collectives(&t).unwrap();
        assert_eq!(insts.len(), 1);
        let rm = insts[0].root_member().unwrap();
        assert_eq!(rm.rank, Rank(1));
    }

    #[test]
    fn parallel_region_reconstruction() {
        let mut t = Trace::for_threads(2);
        let r = RegionId(3);
        // Master: fork, work, barrier, join.
        t.procs[0].push(us(0), EventKind::Fork { region: r });
        t.procs[0].push(us(1), EventKind::Enter { region: r });
        t.procs[0].push(us(2), EventKind::Exit { region: r });
        t.procs[0].push(us(3), EventKind::BarrierEnter { region: r });
        t.procs[0].push(us(4), EventKind::BarrierExit { region: r });
        t.procs[0].push(us(5), EventKind::Join { region: r });
        // Worker: work, barrier.
        t.procs[1].push(us(1), EventKind::Enter { region: r });
        t.procs[1].push(us(2), EventKind::Exit { region: r });
        t.procs[1].push(us(3), EventKind::BarrierEnter { region: r });
        t.procs[1].push(us(4), EventKind::BarrierExit { region: r });

        let regions = match_parallel_regions(&t).unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].threads.len(), 2);
        assert_eq!(regions[0].region, r);
        let master = &regions[0].threads[0];
        assert!(master.barrier_enter.is_some() && master.barrier_exit.is_some());
    }

    #[test]
    fn unbalanced_fork_join_rejected() {
        let mut t = Trace::for_threads(1);
        t.procs[0].push(us(0), EventKind::Fork { region: RegionId(0) });
        assert!(match_parallel_regions(&t).is_err());
    }
}
