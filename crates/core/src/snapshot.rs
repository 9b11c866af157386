//! Consistent data-plane snapshots (§5).
//!
//! A distributed snapshot of the FIBs is *consistent* when it reflects
//! the entries a packet could encounter at one instant: "if a FIB
//! snapshot from one router R was taken after applying a route update U,
//! then the FIB snapshot from every other router that had previously
//! received U must also have been taken after applying U."
//!
//! Operationally, the verifier only ever sees the I/O records that have
//! *arrived* (each router exports its log in order, but with skew — the
//! Fig. 1c problem). The check here is causal closure of the arrived set:
//! every arrived `recv` from an in-domain router must be matched by the
//! arrived `send` that produced it. Because per-router export is FIFO,
//! having the send means having everything the sender did before it —
//! including the FIB update the paper's walk looks for. An orphan recv is
//! exactly the §7 signature ("the HBG on R3 contains a route via R1 that
//! has not been announced in the HBG received from R1"), and the verifier
//! answers by *waiting* for the named routers instead of raising a false
//! alarm.

use crate::rules::FoldRecord;
use cpvr_dataplane::{DataPlane, FibUpdate};
use cpvr_sim::{EventId, IoEvent, Proto, Trace};
use cpvr_topo::Topology;
use cpvr_types::hash::WordMap;
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use cpvr_verify::{verify, Policy, VerifyReport};
use std::collections::{BTreeMap, VecDeque};

/// The verdict on a snapshot horizon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotStatus {
    /// The arrived events are causally closed; the snapshot is safe to
    /// verify.
    Consistent,
    /// Records from these routers are outstanding; the verifier should
    /// wait for them before judging the data plane.
    WaitFor(Vec<RouterId>),
}

impl SnapshotStatus {
    /// True when consistent.
    pub fn is_consistent(&self) -> bool {
        matches!(self, SnapshotStatus::Consistent)
    }
}

/// Checks causal closure of the events that have arrived by `horizon`.
pub fn consistency_check(trace: &Trace, horizon: SimTime) -> SnapshotStatus {
    let mut sends: BTreeMap<ConvKey, Vec<SimTime>> = BTreeMap::new();
    let mut recvs: BTreeMap<ConvKey, Vec<SimTime>> = BTreeMap::new();
    for e in trace.arrived_by(horizon) {
        if let Some((key, is_send)) = classify_conv(e) {
            let side = if is_send { &mut sends } else { &mut recvs };
            side.entry(key).or_default().push(e.time);
        }
    }
    let mut missing: Vec<RouterId> = Vec::new();
    for (key, mut rs) in recvs {
        rs.sort();
        let mut ss = sends.remove(&key).unwrap_or_default();
        ss.sort();
        // The i-th recv (in time order) needs at least i+1 sends no later
        // than it.
        for (i, rt) in rs.iter().enumerate() {
            let avail = ss.iter().filter(|st| *st <= rt).count();
            if avail < i + 1 {
                missing.push(key.0);
                break;
            }
        }
    }
    missing.sort();
    missing.dedup();
    if missing.is_empty() {
        SnapshotStatus::Consistent
    } else {
        SnapshotStatus::WaitFor(missing)
    }
}

/// A send/recv conversation: `(sender, addressee, proto, prefix)`.
pub type ConvKey = (RouterId, RouterId, Proto, Option<Ipv4Prefix>);

/// Classifies an event as one side of an internal conversation
/// ([`FoldRecord::conv`]): `Some((key, is_send))` for internal send/recv
/// advert/withdraw events, `None` otherwise. This is the routing
/// predicate the sharded collector uses to decide which shard's
/// conversation slice an event must also reach.
pub fn classify_conv(e: &IoEvent) -> Option<(ConvKey, bool)> {
    FoldRecord::of(e).conv()
}

/// One ingested record on a router's export stream.
#[derive(Clone)]
struct StreamRecord {
    rec: FoldRecord,
    /// Raw sampled arrival; `None` = the record was lost.
    raw: Option<SimTime>,
}

/// One router's export stream: the not-yet-consumed records in
/// `(time, id)` order behind the consumption frontier.
#[derive(Clone, Default)]
struct RouterStream {
    records: VecDeque<StreamRecord>,
    /// `(time, id)` of the last record consumed (arrived and applied) or
    /// permanently lost; consumed records are dropped.
    consumed: Option<(SimTime, EventId)>,
    /// Running maximum of raw arrivals — the FIFO-export clamp of
    /// [`Trace::effective_arrivals`].
    high: Option<SimTime>,
}

impl RouterStream {
    fn push(&mut self, rec: FoldRecord, raw: Option<SimTime>) {
        let key = rec.key();
        debug_assert!(
            self.consumed.is_none_or(|c| c < key),
            "event {} at {} ingested behind the consumption frontier",
            rec.id,
            rec.time
        );
        // A router exports in order, so the record nearly always extends
        // the stream.
        if self.records.back().is_none_or(|b| b.rec.key() < key) {
            self.records.push_back(StreamRecord { rec, raw });
        } else {
            let pos = self.records.partition_point(|r| r.rec.key() < key);
            self.records.insert(pos, StreamRecord { rec, raw });
        }
    }

    /// Removes and returns the next record if it has arrived by
    /// `horizon`, stepping over lost ones.
    fn pop_arrived(&mut self, horizon: SimTime) -> Option<FoldRecord> {
        loop {
            let StreamRecord { rec, raw } = self.records.front()?;
            match *raw {
                // Lost: never arrives, never clamps later records. Step
                // over it permanently — but only once the horizon has
                // passed its event time, so that a not-yet-ingested event
                // with an earlier stamp (a future-stamped loss can
                // precede one) cannot land behind the frontier. Nothing
                // is missed by stopping: records after it are stamped
                // even later, so none of them can have arrived by this
                // horizon either.
                None if rec.time > horizon => return None,
                None => {}
                Some(raw) => {
                    let eff = self.high.map_or(raw, |h| h.max(raw));
                    if eff > horizon {
                        // Effective arrivals are monotone along the
                        // stream, so nothing further has arrived either.
                        return None;
                    }
                    self.high = Some(eff);
                }
            }
            let StreamRecord { rec, raw } = self.records.pop_front().expect("peeked");
            self.consumed = Some(rec.key());
            if raw.is_some() {
                return Some(rec);
            }
        }
    }
}

/// One conversation's records still waiting for their counterpart. The
/// i-th recv (time order) needs at least i+1 sends no later than it;
/// both sides live on a single router each and so arrive in time order,
/// which makes that "the i-th send is no later than the i-th recv" — a
/// pair, once matched, stays matched and is dropped.
#[derive(Clone, Default)]
struct Conv {
    /// Times of the side that is ahead: sends no recv has claimed yet,
    /// or recvs whose send has not arrived — the failing state.
    ahead: VecDeque<SimTime>,
    recvs_ahead: bool,
    /// A recv's send was stamped after it: nothing that arrives later
    /// can satisfy it, so nothing more is kept.
    broken: bool,
}

impl Conv {
    fn failing(&self) -> bool {
        self.broken || (self.recvs_ahead && !self.ahead.is_empty())
    }
}

/// The causal-closure verdict over the conversations, kept current per
/// record: resident times are bounded by what is in flight.
#[derive(Clone, Default)]
struct Conversations {
    convs: WordMap<ConvKey, Conv>,
    /// Per sender, how many of its conversations fail causal closure
    /// (entries stay once made, possibly at zero).
    failing: BTreeMap<RouterId, u32>,
}

impl Conversations {
    fn note(&mut self, d: &ConvDigest) {
        let c = self.convs.entry(d.key).or_default();
        if c.broken {
            return;
        }
        let was_failing = c.failing();
        if c.ahead.is_empty() || c.recvs_ahead != d.is_send {
            c.recvs_ahead = !d.is_send;
            c.ahead.push_back(d.time);
        } else {
            let other = c.ahead.pop_front().expect("checked non-empty");
            let (send, recv) = if d.is_send {
                (d.time, other)
            } else {
                (other, d.time)
            };
            if send > recv {
                c.broken = true;
                c.ahead = VecDeque::new();
            }
        }
        if c.failing() != was_failing {
            let n = self.failing.entry(d.key.0).or_default();
            *n = if was_failing { *n - 1 } else { *n + 1 };
        }
    }

    /// Senders of the failing conversations, sorted and deduplicated.
    fn missing(&self) -> Vec<RouterId> {
        let failing = self.failing.iter().filter(|(_, n)| **n > 0);
        failing.map(|(sender, _)| *sender).collect()
    }
}

/// The per-router half of the tracker — export streams and the data
/// plane replayed from them — shared by [`ConsistencyTracker`] and
/// [`TrackerSlice`].
#[derive(Clone)]
struct Streams {
    streams: Vec<RouterStream>,
    dp: DataPlane,
}

impl Streams {
    fn new(n_routers: usize) -> Self {
        Streams {
            streams: vec![RouterStream::default(); n_routers],
            dp: DataPlane::new(n_routers),
        }
    }

    fn ingest(&mut self, rec: FoldRecord, raw: Option<SimTime>) {
        self.streams[rec.router.index()].push(rec, raw);
    }

    /// Consumes every record that has arrived by `horizon`, each
    /// router's in stream order: FIB records are applied to the data
    /// plane and reported to `on_fib`, conversation records are handed
    /// to `on_conv`.
    fn replay(
        &mut self,
        horizon: SimTime,
        mut on_conv: impl FnMut(ConvDigest),
        mut on_fib: impl FnMut(FibUpdate),
    ) {
        for (r, stream) in self.streams.iter_mut().enumerate() {
            let router = RouterId(r as u32);
            while let Some(rec) = stream.pop_arrived(horizon) {
                if let Some((key, is_send)) = rec.conv() {
                    on_conv(ConvDigest {
                        key,
                        is_send,
                        time: rec.time,
                    });
                } else if let Some(u) = rec.fib_update() {
                    self.dp.apply(&u);
                    on_fib(u);
                }
                self.dp
                    .set_taken_at(router, rec.time.max(self.dp.taken_at(router)));
            }
        }
    }
}

/// Incremental consistency checking and snapshot assembly.
///
/// [`consistency_check`] + [`snapshot_arrived_by`] re-scan the whole
/// trace at every verification epoch. The tracker instead ingests each
/// [`IoEvent`] once (as the capture stream delivers it) and answers
/// [`advance`](Self::advance) in time proportional to the records that
/// *newly arrived* since the previous horizon.
///
/// Correctness rests on two monotonicity facts. First, capture delay is
/// non-negative, so a record's (FIFO-clamped) arrival is never before
/// its event time; combined with per-router FIFO export this makes the
/// arrived set of each router a *prefix* of its `(time, id)`-ordered
/// stream, so a per-router frontier suffices — and because FIB
/// state and capture times are per-router, replaying each router's
/// prefix independently reconstructs exactly the
/// [`snapshot_arrived_by`] data plane. Second, both sides of a
/// conversation key live on a single router each, so per-key send/recv
/// times arrive in order: a recv once matched by its send stays
/// matched, and only the unmatched tail of a conversation is kept.
#[derive(Clone)]
pub struct ConsistencyTracker {
    streams: Streams,
    convs: Conversations,
    /// FIB updates applied to the data plane since the last
    /// [`drain_applied`](Self::drain_applied) — the delta feed for an
    /// incremental verifier mirroring this tracker's data plane.
    applied: Vec<FibUpdate>,
    /// Consistent→waiting transitions seen by [`advance`](Self::advance):
    /// how many times the tracker chose to *wait* instead of raising a
    /// false alarm (the paper's Fig. 1c discipline, as a number).
    waits_issued: u64,
    /// Waiting→consistent transitions: waits that resolved once the
    /// missing messages arrived.
    waits_resolved: u64,
    /// Whether the last advance verdict was a wait.
    waiting: bool,
}

impl ConsistencyTracker {
    /// A tracker for a network of `n_routers`.
    pub fn new(n_routers: usize) -> Self {
        ConsistencyTracker {
            streams: Streams::new(n_routers),
            convs: Conversations::default(),
            applied: Vec::new(),
            waits_issued: 0,
            waits_resolved: 0,
            waiting: false,
        }
    }

    /// Buffers one captured event (cheap; nothing is applied until its
    /// record *arrives*, i.e. until [`advance`](Self::advance) passes its
    /// arrival time). Events must be stamped after the last advanced
    /// horizon — the simulator guarantees this for a live tap, since
    /// everything stamped ≤ `t` has been emitted once the clock reaches
    /// `t`.
    pub fn ingest(&mut self, e: &IoEvent) {
        self.ingest_record(FoldRecord::of(e), e.arrived_at);
    }

    /// [`ingest`](Self::ingest) of an already classified event and its
    /// raw arrival (`None` = the record was lost).
    pub fn ingest_record(&mut self, rec: FoldRecord, arrived_at: Option<SimTime>) {
        self.streams.ingest(rec, arrived_at);
    }

    /// Advances the verification horizon: applies every record that has
    /// arrived by `horizon`, matches the conversation records among them,
    /// and returns the causal-closure verdict — identical to
    /// [`consistency_check`] over the same events.
    pub fn advance(&mut self, horizon: SimTime) -> SnapshotStatus {
        let (convs, applied) = (&mut self.convs, &mut self.applied);
        self.streams
            .replay(horizon, |d| convs.note(&d), |u| applied.push(u));
        let st = self.status();
        match (self.waiting, st.is_consistent()) {
            (false, false) => {
                self.waits_issued += 1;
                self.waiting = true;
            }
            (true, true) => {
                self.waits_resolved += 1;
                self.waiting = false;
            }
            _ => {}
        }
        st
    }

    /// `(issued, resolved)` wait transitions over this tracker's life:
    /// issued counts consistent→waiting flips of the
    /// [`advance`](Self::advance) verdict, resolved counts the flips
    /// back. `issued - resolved` is 1 while a wait is outstanding and 0
    /// otherwise.
    pub fn wait_stats(&self) -> (u64, u64) {
        (self.waits_issued, self.waits_resolved)
    }

    /// The verdict at the current horizon, without advancing.
    pub fn status(&self) -> SnapshotStatus {
        let missing = self.convs.missing();
        if missing.is_empty() {
            SnapshotStatus::Consistent
        } else {
            SnapshotStatus::WaitFor(missing)
        }
    }

    /// The data plane assembled from the arrived FIB records — identical
    /// to [`snapshot_arrived_by`] at the current horizon.
    pub fn dataplane(&self) -> &DataPlane {
        &self.streams.dp
    }

    /// Takes the FIB updates applied since the last drain, in application
    /// order. Replaying them against a mirror of the previous drain's
    /// data plane reproduces [`dataplane`](Self::dataplane) exactly,
    /// which is how the control loop feeds its incremental verifier.
    /// Whoever advances a tracker must drain it: the feed grows by one
    /// entry per arrived FIB record until taken.
    pub fn drain_applied(&mut self) -> Vec<FibUpdate> {
        std::mem::take(&mut self.applied)
    }

    /// Rebuilds a tracker from a durably logged history: ingests every
    /// event, then advances once to `horizon`. The verdict, data plane,
    /// and per-router frontiers come out identical to a tracker that
    /// processed the same events live with any interleaving of advances
    /// up to the same horizon — application order within one `advance`
    /// is the per-stream `(time, id)` order either way. The only live
    /// state *not* reproduced is the [`drain_applied`](Self::drain_applied)
    /// delta feed (a recovering verifier rebuilds from
    /// [`dataplane`](Self::dataplane) instead), so recovery drains and
    /// discards it.
    pub fn recover<'a, I>(n_routers: usize, events: I, horizon: SimTime) -> Self
    where
        I: IntoIterator<Item = &'a IoEvent>,
    {
        let mut t = Self::new(n_routers);
        for e in events {
            t.ingest(e);
        }
        t.advance(horizon);
        t.drain_applied();
        t
    }
}

/// One side of a conversation, observed on a router stream owned by
/// some shard and addressed to the shard owning the conversation.
///
/// The exchange of these digests at each watermark barrier is the whole
/// cross-shard interface of the sharded fold: everything else the
/// tracker computes is per-router (streams, FIBs, capture clamps) and
/// stays shard-local.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvDigest {
    /// The conversation.
    pub key: ConvKey,
    /// True for the send side, false for the recv side.
    pub is_send: bool,
    /// The record's canonical event time (already FIFO-clamp admitted
    /// by the owning stream, so the receiving slice appends it without
    /// re-deriving arrival order).
    pub time: SimTime,
}

// Hand-rolled (not `impl_json_struct!`) because `ConvKey` is a 4-tuple
// and the JSON layer only derives pairs; the key is flattened into the
// digest object. This is the wire form federation peers exchange in
// `BoundaryEdges` round batches.
impl cpvr_types::json::ToJson for ConvDigest {
    fn to_json(&self) -> cpvr_types::json::Value {
        use cpvr_types::json::Value;
        let (from, to, proto, prefix) = &self.key;
        Value::Object(vec![
            ("from".to_string(), from.to_json()),
            ("to".to_string(), to.to_json()),
            ("proto".to_string(), proto.to_json()),
            ("prefix".to_string(), prefix.to_json()),
            ("is_send".to_string(), self.is_send.to_json()),
            ("time".to_string(), self.time.to_json()),
        ])
    }
}

impl cpvr_types::json::FromJson for ConvDigest {
    fn from_json(v: &cpvr_types::json::Value) -> Result<Self, cpvr_types::json::JsonError> {
        use cpvr_types::json::FromJson;
        Ok(ConvDigest {
            key: (
                FromJson::from_json(v.field("from")?)?,
                FromJson::from_json(v.field("to")?)?,
                FromJson::from_json(v.field("proto")?)?,
                FromJson::from_json(v.field("prefix")?)?,
            ),
            is_send: FromJson::from_json(v.field("is_send")?)?,
            time: FromJson::from_json(v.field("time")?)?,
        })
    }
}

/// One shard's slice of a [`ConsistencyTracker`].
///
/// A slice owns a subset of router streams (whole streams — the FIFO
/// arrival clamp makes a stream indivisible) and a subset of
/// conversations (by [`ShardPlan::of_conv`](crate::shard::ShardPlan)).
/// [`advance_collect`](Self::advance_collect) replays the owned streams
/// exactly like [`ConsistencyTracker::advance`], but sends/recvs whose
/// conversation another shard owns are emitted into a per-destination
/// outbox instead of being applied; the destination slice applies them
/// via [`absorb`](Self::absorb). Per conversation side, records originate
/// from exactly one stream and are delivered in stream order, so each
/// slice's send/recv lists are identical to the monolithic tracker's —
/// which makes the union of [`missing`](Self::missing) across slices
/// equal to the monolithic [`ConsistencyTracker::status`] verdict.
///
/// Wait-transition counting is deliberately absent: a wait is a verdict
/// on the *merged* missing set, so the coordinator counts transitions
/// on the merged sequence.
#[derive(Clone)]
pub struct TrackerSlice {
    shard: u32,
    plan: crate::shard::ShardPlan,
    streams: Streams,
    convs: Conversations,
}

impl TrackerSlice {
    /// Shard `shard`'s slice of a tracker for `n_routers` routers.
    pub fn new(n_routers: usize, plan: crate::shard::ShardPlan, shard: u32) -> Self {
        TrackerSlice {
            shard,
            plan,
            streams: Streams::new(n_routers),
            convs: Conversations::default(),
        }
    }

    /// Buffers one classified event and its raw arrival, exactly like
    /// [`ConsistencyTracker::ingest_record`]. The caller routes events so
    /// that `rec.router` is owned by this slice's shard.
    pub fn ingest_record(&mut self, rec: FoldRecord, arrived_at: Option<SimTime>) {
        debug_assert_eq!(
            self.plan.of_router(rec.router),
            self.shard,
            "event for router {:?} ingested into slice {}",
            rec.router,
            self.shard
        );
        self.streams.ingest(rec, arrived_at);
    }

    /// Replays the owned streams up to `horizon` (the
    /// [`ConsistencyTracker::advance`] replay, including the lost-record
    /// and FIFO-clamp discipline), applying owned-conversation digests
    /// locally and pushing foreign ones into `outbox[owner]`.
    ///
    /// Callers follow with the barrier exchange and
    /// [`absorb`](Self::absorb) of delivered digests.
    pub fn advance_collect(&mut self, horizon: SimTime, outbox: &mut [Vec<ConvDigest>]) {
        let (convs, plan, shard) = (&mut self.convs, &self.plan, self.shard);
        self.streams.replay(
            horizon,
            |d| {
                let owner = plan.of_conv(&d.key);
                if owner == shard {
                    convs.note(&d);
                } else {
                    outbox[owner as usize].push(d);
                }
            },
            |_| {},
        );
    }

    /// Applies a digest delivered from another shard's
    /// [`advance_collect`](Self::advance_collect). Digests for one
    /// conversation side must be applied in origin-stream order; the
    /// barrier guarantees this by forwarding each origin's outbox as an
    /// ordered batch.
    pub fn absorb(&mut self, d: &ConvDigest) {
        debug_assert_eq!(self.plan.of_conv(&d.key), self.shard);
        self.convs.note(d);
    }

    /// Senders of this slice's failing conversations, sorted and
    /// deduplicated. Concatenating all slices' lists, sorting, and
    /// deduplicating yields exactly the monolithic
    /// [`SnapshotStatus::WaitFor`] list.
    pub fn missing(&self) -> Vec<RouterId> {
        self.convs.missing()
    }

    /// The slice's data plane: only the owned routers' FIBs and capture
    /// times are ever touched, so the coordinator merges slices by
    /// copying per-router state from each owner.
    pub fn dataplane(&self) -> &DataPlane {
        &self.streams.dp
    }
}

/// Assembles the FIB state from the FIB events that arrived by `horizon`
/// — the naive snapshot a data-plane verifier without HBG support would
/// use.
pub fn snapshot_arrived_by(trace: &Trace, n_routers: usize, horizon: SimTime) -> DataPlane {
    let mut arrived = trace.arrived_by(horizon);
    arrived.sort_by_key(|e| (e.time, e.id));
    let mut dp = DataPlane::new(n_routers);
    for e in arrived {
        if let Some(u) = FoldRecord::of(e).fib_update() {
            dp.apply(&u);
        }
        dp.set_taken_at(e.router, e.time.max(dp.taken_at(e.router)));
    }
    dp
}

/// Verifies at `horizon` the naive way: whatever arrived is the truth.
/// This is what produces Fig. 1c's false loop alarm.
pub fn naive_verify_at(
    trace: &Trace,
    topo: &Topology,
    policies: &[Policy],
    horizon: SimTime,
) -> VerifyReport {
    let dp = snapshot_arrived_by(trace, topo.num_routers(), horizon);
    verify(topo, &dp, policies)
}

/// Verifies the HBG-gated way: if the horizon is not causally closed,
/// advance it by `step` (waiting for more records) up to `max_horizon`.
/// Returns the horizon actually verified at and the report, or `None` if
/// consistency was never reached (e.g. records were lost).
pub fn verify_when_consistent(
    trace: &Trace,
    topo: &Topology,
    policies: &[Policy],
    mut horizon: SimTime,
    max_horizon: SimTime,
    step: SimTime,
) -> Option<(SimTime, VerifyReport)> {
    while !consistency_check(trace, horizon).is_consistent() {
        if horizon >= max_horizon {
            return None;
        }
        horizon = (horizon + step).min(max_horizon);
    }
    let dp = snapshot_arrived_by(trace, topo.num_routers(), horizon);
    Some((horizon, verify(topo, &dp, policies)))
}

/// A sweep of the data plane's true state across an interval: one
/// verification after every FIB change.
#[derive(Clone, Debug, Default)]
pub struct TransientReport {
    /// FIB-change checkpoints examined.
    pub checkpoints: usize,
    /// Checkpoints at which at least one policy was violated:
    /// `(time, violation count)`.
    pub violating: Vec<(SimTime, usize)>,
}

impl TransientReport {
    /// True if no checkpoint violated.
    pub fn ok(&self) -> bool {
        self.violating.is_empty()
    }

    /// The total time spent in violation, approximated as the span from
    /// each violating checkpoint to the next checkpoint.
    pub fn first_violation(&self) -> Option<SimTime> {
        self.violating.first().map(|(t, _)| *t)
    }
}

/// Verifies the *sequence* of data-plane states across `[from, to]`:
/// replay every FIB event in (event-time) order and verify after each
/// one. §5's goal — "the verifier detects all transient and persistent
/// violations" — needs exactly this: a single converged check misses
/// windows where the network was briefly broken.
///
/// Uses the completed trace's event times, i.e. the *true* succession of
/// global FIB states, so transients found here are real (no capture-skew
/// artifacts).
pub fn verify_throughout(
    trace: &Trace,
    topo: &Topology,
    policies: &[Policy],
    from: SimTime,
    to: SimTime,
) -> TransientReport {
    let mut events: Vec<&IoEvent> = trace.events.iter().collect();
    events.sort_by_key(|e| (e.time, e.id));
    let n = topo.num_routers();
    let mut dp = DataPlane::new(n);
    let mut report = TransientReport::default();
    for e in events {
        let Some(update) = FoldRecord::of(e).fib_update() else {
            continue;
        };
        if e.time > to {
            break;
        }
        dp.apply(&update);
        if e.time < from {
            continue;
        }
        report.checkpoints += 1;
        let vr = cpvr_verify::verify_incremental(topo, &dp, policies, &[update.prefix]);
        if !vr.ok() {
            report.violating.push((e.time, vr.violations.len()));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_bgp::PeerRef;
    use cpvr_dataplane::FibAction;
    use cpvr_sim::IoKind;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    struct TB {
        trace: Trace,
    }

    impl TB {
        fn new() -> Self {
            TB {
                trace: Trace::default(),
            }
        }
        fn ev(&mut self, router: u32, t_ms: u64, arrived_ms: Option<u64>, kind: IoKind) -> EventId {
            let id = EventId(self.trace.events.len() as u32);
            self.trace.events.push(IoEvent {
                id,
                router: RouterId(router),
                time: SimTime::from_millis(t_ms),
                arrived_at: arrived_ms.map(SimTime::from_millis),
                kind,
            });
            id
        }
    }

    fn send(to: u32, p: Ipv4Prefix) -> IoKind {
        IoKind::SendAdvert {
            proto: Proto::Bgp,
            prefix: Some(p),
            to: Some(PeerRef::Internal(RouterId(to))),
            route: None,
        }
    }

    fn recv(from: u32, p: Ipv4Prefix) -> IoKind {
        IoKind::RecvAdvert {
            proto: Proto::Bgp,
            prefix: Some(p),
            from: Some(PeerRef::Internal(RouterId(from))),
            route: None,
        }
    }

    #[test]
    fn matched_send_recv_is_consistent() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        b.ev(1, 10, Some(11), send(0, p));
        b.ev(0, 18, Some(19), recv(1, p));
        assert_eq!(
            consistency_check(&b.trace, SimTime::from_millis(100)),
            SnapshotStatus::Consistent
        );
    }

    #[test]
    fn orphan_recv_names_the_sender() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        // R2's send record is delayed beyond the horizon; R1's recv
        // arrived. This is the paper's §7 inconsistency signature.
        b.ev(1, 10, Some(500), send(0, p));
        b.ev(0, 18, Some(19), recv(1, p));
        assert_eq!(
            consistency_check(&b.trace, SimTime::from_millis(100)),
            SnapshotStatus::WaitFor(vec![RouterId(1)])
        );
        // Waiting long enough resolves it.
        assert!(consistency_check(&b.trace, SimTime::from_millis(600)).is_consistent());
    }

    #[test]
    fn counting_matches_repeated_updates() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        // Two sends, two recvs: consistent. One send arrived, two recvs:
        // not.
        b.ev(1, 10, Some(11), send(0, p));
        b.ev(0, 18, Some(19), recv(1, p));
        b.ev(1, 30, Some(200), send(0, p));
        b.ev(0, 38, Some(39), recv(1, p));
        assert_eq!(
            consistency_check(&b.trace, SimTime::from_millis(100)),
            SnapshotStatus::WaitFor(vec![RouterId(1)])
        );
        assert!(consistency_check(&b.trace, SimTime::from_millis(300)).is_consistent());
    }

    #[test]
    fn external_recvs_do_not_require_sends() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        b.ev(
            0,
            5,
            Some(6),
            IoKind::RecvAdvert {
                proto: Proto::Bgp,
                prefix: Some(p),
                from: Some(PeerRef::External(cpvr_topo::ExtPeerId(0))),
                route: None,
            },
        );
        assert!(consistency_check(&b.trace, SimTime::from_millis(100)).is_consistent());
    }

    #[test]
    fn lost_send_record_never_becomes_consistent() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        b.ev(1, 10, None, send(0, p));
        b.ev(0, 18, Some(19), recv(1, p));
        assert!(!consistency_check(&b.trace, SimTime::from_secs(10)).is_consistent());
    }

    #[test]
    fn snapshot_uses_arrivals_not_event_times() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        b.ev(
            0,
            10,
            Some(100),
            IoKind::FibInstall {
                prefix: p,
                action: FibAction::Drop,
            },
        );
        let dp50 = snapshot_arrived_by(&b.trace, 1, SimTime::from_millis(50));
        assert!(dp50.fib(RouterId(0)).is_empty(), "record not arrived yet");
        let dp150 = snapshot_arrived_by(&b.trace, 1, SimTime::from_millis(150));
        assert_eq!(dp150.fib(RouterId(0)).len(), 1);
    }

    fn dataplanes_equal(a: &DataPlane, b: &DataPlane) -> bool {
        a.num_routers() == b.num_routers()
            && (0..a.num_routers()).all(|i| {
                let r = RouterId(i as u32);
                a.fib(r).entries() == b.fib(r).entries() && a.taken_at(r) == b.taken_at(r)
            })
    }

    /// The tracker must agree with the batch check and batch snapshot at
    /// every horizon, on a skewed-capture trace where waits actually
    /// happen.
    #[test]
    fn tracker_matches_batch_across_horizons() {
        use cpvr_sim::scenario::paper_scenario;
        use cpvr_sim::{CaptureProfile, LatencyProfile};
        for seed in [1u64, 7, 42] {
            let mut s = paper_scenario(LatencyProfile::cisco(), CaptureProfile::syslog(), seed);
            s.sim.start();
            s.sim.run_to_quiescence(100_000);
            s.sim.schedule_ext_announce(
                s.sim.now() + SimTime::from_millis(5),
                s.ext_r1,
                &[s.prefix],
            );
            s.sim.schedule_ext_announce(
                s.sim.now() + SimTime::from_millis(100),
                s.ext_r2,
                &[s.prefix],
            );
            s.sim.run_to_quiescence(100_000);
            let trace = s.sim.trace().clone();
            let n = 3;
            let mut tracker = ConsistencyTracker::new(n);
            for e in &trace.events {
                tracker.ingest(e);
            }
            let end = trace.events.iter().map(|e| e.time).max().unwrap();
            let mut saw_wait = false;
            for step in 0..40 {
                let horizon = SimTime::from_nanos(end.as_nanos() / 40 * step + 1);
                let got = tracker.advance(horizon);
                let want = consistency_check(&trace, horizon);
                assert_eq!(got, want, "seed {seed} horizon {horizon}");
                saw_wait |= !got.is_consistent();
                assert!(
                    dataplanes_equal(
                        tracker.dataplane(),
                        &snapshot_arrived_by(&trace, n, horizon)
                    ),
                    "seed {seed} horizon {horizon}: snapshots diverge"
                );
            }
            assert!(
                saw_wait,
                "seed {seed}: skewed capture should force at least one wait"
            );
            // Syslog capture loses nothing, so once every record has
            // arrived the view must be consistent.
            assert!(tracker.advance(SimTime::MAX).is_consistent());
        }
    }

    /// Ingest may interleave with advances (the live-stream pattern) and
    /// lost records must neither block nor clamp later ones.
    #[test]
    fn tracker_handles_interleaving_and_loss() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        b.ev(1, 10, None, send(0, p)); // lost send
        b.ev(0, 18, Some(19), recv(1, p));
        b.ev(1, 30, Some(31), send(0, p));
        let mut tracker = ConsistencyTracker::new(2);
        tracker.ingest(&b.trace.events[0]);
        assert!(tracker.advance(SimTime::from_millis(15)).is_consistent());
        tracker.ingest(&b.trace.events[1]);
        assert_eq!(
            tracker.advance(SimTime::from_millis(25)),
            SnapshotStatus::WaitFor(vec![RouterId(1)]),
            "orphan recv: its send record was lost"
        );
        tracker.ingest(&b.trace.events[2]);
        // The later send arrives (the lost record does not clamp it), but
        // it is *after* the recv, so the key stays unsatisfied — matching
        // the batch verdict.
        assert_eq!(
            tracker.advance(SimTime::from_secs(10)),
            consistency_check(&b.trace, SimTime::from_secs(10))
        );
    }

    /// One conversation, a thousand updates, every third send record
    /// late: the verdict tracks the batch check at every horizon, and
    /// what the tracker keeps of the conversation is what is in flight —
    /// not its history.
    #[test]
    fn a_busy_conversation_keeps_only_what_is_in_flight() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        let at = |us: u64| Some(SimTime::from_micros(us));
        for i in 0..1000u64 {
            let late = if i % 3 == 0 { 10 } else { 0 };
            let (sent, rcvd) = (10 * i + 1, 10 * i + 5);
            for (router, t_us, arrives, kind) in [
                (1, sent, sent + 1 + late, send(0, p)),
                (0, rcvd, rcvd + 1, recv(1, p)),
            ] {
                let id = b.ev(router, 0, None, kind);
                let e = &mut b.trace.events[id.index()];
                (e.time, e.arrived_at) = (SimTime::from_micros(t_us), at(arrives));
            }
        }
        // Delivered as captured: each update just ahead of its horizon.
        let mut tracker = ConsistencyTracker::new(2);
        let mut delivered = Trace::default();
        let mut waits = 0;
        for (i, update) in b.trace.events.chunks(2).enumerate() {
            for e in update {
                tracker.ingest(e);
                delivered.events.push(e.clone());
            }
            let horizon = SimTime::from_micros(10 * i as u64 + 9);
            let got = tracker.advance(horizon);
            assert_eq!(got, consistency_check(&delivered, horizon), "advance {i}");
            waits += usize::from(!got.is_consistent());
            let resident: usize = tracker.convs.convs.values().map(|c| c.ahead.len()).sum();
            assert!(resident <= 1, "advance {i}: {resident} times resident");
        }
        assert_eq!(waits, 334, "every late send is waited for");
        assert_eq!(tracker.wait_stats(), (334, 333));
        assert_eq!(tracker.convs.convs.len(), 1);
        assert!(tracker
            .convs
            .convs
            .values()
            .all(|c| c.ahead.capacity() <= 8));
    }

    #[test]
    fn drain_applied_replays_to_the_tracker_dataplane() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        let q = pfx("9.9.9.0/24");
        b.ev(
            0,
            10,
            Some(11),
            IoKind::FibInstall {
                prefix: p,
                action: FibAction::Drop,
            },
        );
        b.ev(
            0,
            20,
            Some(21),
            IoKind::FibInstall {
                prefix: q,
                action: FibAction::Local,
            },
        );
        b.ev(0, 30, Some(90), IoKind::FibRemove { prefix: q });
        let mut tracker = ConsistencyTracker::new(1);
        for e in &b.trace.events {
            tracker.ingest(e);
        }
        let mut mirror = DataPlane::new(1);
        tracker.advance(SimTime::from_millis(50));
        let batch = tracker.drain_applied();
        assert_eq!(batch.len(), 2, "only the arrived installs");
        for u in &batch {
            mirror.fib_mut(u.router).apply(u);
        }
        assert_eq!(
            mirror.fib(RouterId(0)).entries(),
            tracker.dataplane().fib(RouterId(0)).entries()
        );
        // Drain is destructive; the next advance delivers only the rest.
        assert!(tracker.drain_applied().is_empty());
        tracker.advance(SimTime::from_millis(100));
        let rest = tracker.drain_applied();
        assert_eq!(rest.len(), 1);
        for u in &rest {
            mirror.fib_mut(u.router).apply(u);
        }
        assert_eq!(
            mirror.fib(RouterId(0)).entries(),
            tracker.dataplane().fib(RouterId(0)).entries()
        );
    }

    /// Sharded slices joined by the digest barrier must reproduce the
    /// monolithic tracker's verdict and data plane at every horizon —
    /// the §5 partitioning claim, as an executable oracle.
    #[test]
    fn sliced_tracker_matches_monolithic() {
        use crate::shard::ShardPlan;
        use cpvr_sim::scenario::paper_scenario;
        use cpvr_sim::{CaptureProfile, LatencyProfile};
        for seed in [1u64, 7] {
            let mut s = paper_scenario(LatencyProfile::cisco(), CaptureProfile::syslog(), seed);
            s.sim.start();
            s.sim.run_to_quiescence(100_000);
            s.sim.schedule_ext_announce(
                s.sim.now() + SimTime::from_millis(5),
                s.ext_r1,
                &[s.prefix],
            );
            s.sim.schedule_ext_announce(
                s.sim.now() + SimTime::from_millis(100),
                s.ext_r2,
                &[s.prefix],
            );
            s.sim.run_to_quiescence(100_000);
            let trace = s.sim.trace().clone();
            let n = 3;
            for shards in [2u32, 3] {
                let plan = ShardPlan::uniform(shards);
                let mut mono = ConsistencyTracker::new(n);
                let mut slices: Vec<TrackerSlice> = (0..shards)
                    .map(|k| TrackerSlice::new(n, plan.clone(), k))
                    .collect();
                for e in &trace.events {
                    mono.ingest(e);
                    slices[plan.of_router(e.router) as usize]
                        .ingest_record(FoldRecord::of(e), e.arrived_at);
                }
                let end = trace.events.iter().map(|e| e.time).max().unwrap();
                for step in 1..=20u64 {
                    let horizon = SimTime::from_nanos(end.as_nanos() / 20 * step + 1);
                    // One barrier round.
                    let mut outboxes: Vec<Vec<Vec<ConvDigest>>> = Vec::new();
                    for slice in slices.iter_mut() {
                        let mut out = vec![Vec::new(); shards as usize];
                        slice.advance_collect(horizon, &mut out);
                        outboxes.push(out);
                    }
                    for outbox in &outboxes {
                        for (dest, digests) in outbox.iter().enumerate() {
                            for d in digests {
                                slices[dest].absorb(d);
                            }
                        }
                    }
                    let mut missing: Vec<RouterId> = Vec::new();
                    for slice in &slices {
                        missing.extend(slice.missing());
                    }
                    missing.sort();
                    missing.dedup();
                    let merged = if missing.is_empty() {
                        SnapshotStatus::Consistent
                    } else {
                        SnapshotStatus::WaitFor(missing)
                    };
                    assert_eq!(
                        merged,
                        mono.advance(horizon),
                        "seed {seed} shards {shards} horizon {horizon}"
                    );
                    for r in 0..n {
                        let router = RouterId(r as u32);
                        let owner = plan.of_router(router) as usize;
                        let sdp = slices[owner].dataplane();
                        let mdp = mono.dataplane();
                        assert_eq!(sdp.fib(router).entries(), mdp.fib(router).entries());
                        assert_eq!(sdp.taken_at(router), mdp.taken_at(router));
                    }
                }
            }
        }
    }

    #[test]
    fn fifo_export_orders_a_routers_records() {
        let mut b = TB::new();
        let p = pfx("8.8.8.0/24");
        // Raw arrivals inverted (20ms event sampled to arrive before the
        // 10ms one); FIFO export must clamp the later event's arrival.
        b.ev(
            0,
            10,
            Some(90),
            IoKind::FibInstall {
                prefix: p,
                action: FibAction::Drop,
            },
        );
        b.ev(0, 20, Some(30), IoKind::FibRemove { prefix: p });
        let dp = snapshot_arrived_by(&b.trace, 1, SimTime::from_millis(50));
        assert!(
            dp.fib(RouterId(0)).is_empty(),
            "neither record is visible: the remove cannot overtake the install"
        );
        let dp = snapshot_arrived_by(&b.trace, 1, SimTime::from_millis(95));
        assert!(
            dp.fib(RouterId(0)).is_empty(),
            "both visible: install then remove"
        );
    }
}
