//! The verification state fed by the collector, and its crash recovery.
//!
//! [`IngestPipeline`] bundles the two incremental consumers of the
//! event stream — [`HbgBuilder`] for happens-before inference and
//! [`ConsistencyTracker`] for causally consistent snapshots — behind
//! one ingest/advance surface. It is the in-process *reference fold*:
//! what WAL recovery rebuilds, and what every collector deployment —
//! any shard count, any federation — is held bit-identical to.
//!
//! The pipeline also owns the `SourceTable`: per-router sequence
//! cursors (duplicate/gap detection for at-least-once delivery),
//! frontier-gated watermark promises, and liveness state
//! (`SourceState`). The table is what turns a set of unreliable
//! per-router streams into one stream the deterministic fold can trust:
//! an event is folded at most once, and the global watermark — the
//! *minimum* applied promise across all non-evicted sources — never
//! passes an event that was sent but lost in flight.
//!
//! Recovery replays the WAL. The scan (`WalScan::read`) decodes every
//! intact record as a wire frame, replays events' sequence numbers into
//! the table (so a reconnecting client's replay is deduplicated even
//! across a collector restart), and lets eviction and re-admission
//! records rebuild the watermark gate. A collector seeds its fold
//! workers from the scan (`Shards::start`);
//! [`IngestPipeline::recover`], the in-process oracle, re-ingests the
//! scanned events into one pipeline and advances once to the largest
//! durably logged watermark.
//! Because both consumers fold events in `(time, id)` order regardless
//! of how advances were batched (see
//! [`ConsistencyTracker::recover`]), the recovered state is
//! bit-identical to the state the crashed process had at that
//! watermark — and the connections can resume from there.

use crate::codec::{Decoder, Frame};
use crate::link::Cursor;
use crate::repair_journal::RepairLedger;
use crate::shard::RULES;
use crate::wal;
use cpvr_core::builder::HbgBuilder;
use cpvr_core::snapshot::{ConsistencyTracker, SnapshotStatus};
use cpvr_core::FoldRecord;
use cpvr_sim::IoEvent;
use cpvr_types::{RouterId, SimTime};
use std::io;
use std::path::Path;

/// What the pipeline needs to know about the deployment.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Number of routers in the network (sizes the tracker, and tells
    /// the collector when every source has connected).
    pub(crate) n_routers: u32,
}

impl PipelineConfig {
    /// A config for `n_routers`.
    pub fn new(n_routers: u32) -> Self {
        PipelineConfig { n_routers }
    }
}

/// Liveness of one router source, as seen by the collector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SourceState {
    /// No connection has ever presented this router. The source still
    /// gates the watermark — the fold must not run ahead of a router
    /// that simply has not come up yet.
    NeverConnected,
    /// Heard from within its liveness lease.
    Live,
    /// Silent past the warning threshold but not yet evicted; still
    /// gates the watermark.
    Lagging,
    /// Silent past the eviction threshold. Its promise is excluded from
    /// the global minimum so the fold can resume without it; journaled,
    /// and reversed by [`SourceTable::admit`] when it reconnects.
    Evicted,
}

/// What [`SourceTable::offer`] decided about an incoming event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Offer {
    /// Next in sequence: ingest it.
    Fresh,
    /// Already accepted (a reconnect replay): drop it.
    Duplicate,
    /// Ahead of the expected sequence — something in between was lost
    /// in flight. Drop it and wait for the retransmission; accepting it
    /// would let a later watermark promise seal the gap permanently.
    Gap,
}

/// How a [`SourceTable::hello`] related to what the table knew.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum HelloKind {
    /// First handshake for this router.
    First,
    /// Same session as before: a reconnect. Sequence state is kept so
    /// the replay deduplicates.
    Resumed,
    /// A different session: the client restarted and its numbering
    /// starts over at its `first_seq`.
    NewSession,
}

#[derive(Clone, Debug)]
struct SourceEntry {
    state: SourceState,
    /// The applied watermark promise; `None` until the first one.
    promise: Option<SimTime>,
    /// A promise received but held back because events below its
    /// frontier have not all arrived yet: `(time, frontier)`.
    pending: Option<(SimTime, u64)>,
    /// The sequence cursor; its `next_seq` is what the collector acks,
    /// and recovery re-learns its session from the journaled hellos.
    cursor: Cursor,
}

impl SourceEntry {
    fn new() -> Self {
        SourceEntry {
            state: SourceState::NeverConnected,
            promise: None,
            pending: None,
            cursor: Cursor::default(),
        }
    }

    /// Applies the pending promise if its frontier has been reached.
    fn settle_pending(&mut self) {
        if let Some((t, frontier)) = self.pending {
            if self.cursor.next_seq >= frontier {
                self.promise = Some(self.promise.map_or(t, |p| p.max(t)));
                self.pending = None;
            }
        }
    }
}

/// Per-source delivery and liveness state for all routers of the
/// deployment. See the module docs for the invariants it maintains.
#[derive(Clone, Debug)]
pub(crate) struct SourceTable {
    entries: Vec<SourceEntry>,
}

impl SourceTable {
    /// A table with every router [`SourceState::NeverConnected`].
    pub(crate) fn new(n_routers: u32) -> Self {
        SourceTable {
            entries: (0..n_routers).map(|_| SourceEntry::new()).collect(),
        }
    }

    fn entry(&self, r: RouterId) -> &SourceEntry {
        &self.entries[r.0 as usize]
    }

    fn entry_mut(&mut self, r: RouterId) -> &mut SourceEntry {
        &mut self.entries[r.0 as usize]
    }

    /// How many routers this table was sized for.
    pub(crate) fn n_routers(&self) -> usize {
        self.entries.len()
    }

    /// Whether `r` names a router this table was sized for.
    pub(crate) fn contains(&self, r: RouterId) -> bool {
        (r.0 as usize) < self.entries.len()
    }

    /// The liveness state of `r`.
    pub(crate) fn state(&self, r: RouterId) -> SourceState {
        self.entry(r).state
    }

    /// The sequence number `r`'s next event must carry — and the value
    /// the collector acknowledges.
    pub(crate) fn next_seq(&self, r: RouterId) -> u64 {
        self.entry(r).cursor.next_seq
    }

    /// The applied promise of `r`, if any.
    pub(crate) fn promise_of(&self, r: RouterId) -> Option<SimTime> {
        self.entry(r).promise
    }

    /// Handshake: marks `r` live and reconciles the sequence cursor
    /// with the client's session (see [`HelloKind`]).
    pub(crate) fn hello(&mut self, r: RouterId, session: u64, first_seq: u64) -> HelloKind {
        let e = self.entry_mut(r);
        let kind = e.cursor.hello(session, first_seq);
        if kind != HelloKind::Resumed {
            e.pending = None;
        }
        // An evicted source is only re-admitted explicitly (and
        // journaled) via `admit` — a handshake alone must not widen
        // the watermark gate behind the session loop's back.
        if e.state != SourceState::Evicted {
            e.state = SourceState::Live;
        }
        kind
    }

    /// Classifies an incoming event by sequence number, advancing the
    /// cursor (and settling any pending promise) when it is fresh.
    pub(crate) fn offer(&mut self, r: RouterId, seq: u64) -> Offer {
        let e = self.entry_mut(r);
        let offer = e.cursor.offer(seq);
        if offer == Offer::Fresh {
            e.settle_pending();
        }
        offer
    }

    /// Records a watermark promise `(t, frontier)`. Returns whether it
    /// was applied now; a promise whose frontier outruns the received
    /// prefix is parked until [`offer`](SourceTable::offer) catches up.
    /// Promises only ever tighten: the maximum of everything applied.
    pub(crate) fn promise(&mut self, r: RouterId, t: SimTime, frontier: u64) -> bool {
        let e = self.entry_mut(r);
        if e.cursor.next_seq >= frontier {
            e.promise = Some(e.promise.map_or(t, |p| p.max(t)));
            // A newer promise supersedes a parked older one only if it
            // is at least as late; keep whichever promises more.
            if let Some((pt, _)) = e.pending {
                if pt <= t {
                    e.pending = None;
                }
            }
            true
        } else {
            let replace = match e.pending {
                Some((pt, _)) => pt <= t,
                None => true,
            };
            if replace {
                e.pending = Some((t, frontier));
            }
            false
        }
    }

    /// Graceful end-of-stream: a promise of "forever", gated on the
    /// final frontier like any other.
    pub(crate) fn bye(&mut self, r: RouterId, frontier: u64) -> bool {
        self.promise(r, SimTime::MAX, frontier)
    }

    /// Whether `r` has delivered its entire stream (a settled bye).
    pub(crate) fn finished(&self, r: RouterId) -> bool {
        self.entry(r).promise == Some(SimTime::MAX)
    }

    /// Moves `r` from state `from` to `to`; returns whether it was in
    /// `from` (a no-op in any other state).
    fn shift(&mut self, r: RouterId, from: SourceState, to: SourceState) -> bool {
        let e = self.entry_mut(r);
        let moved = e.state == from;
        if moved {
            e.state = to;
        }
        moved
    }

    /// Marks a lagging source live again — it spoke within its lease.
    pub(crate) fn refresh(&mut self, r: RouterId) -> bool {
        self.shift(r, SourceState::Lagging, SourceState::Live)
    }

    /// Marks a silent live source as lagging (diagnostic only — it still
    /// gates the watermark).
    pub(crate) fn set_lagging(&mut self, r: RouterId) -> bool {
        self.shift(r, SourceState::Live, SourceState::Lagging)
    }

    /// Evicts a source from the watermark gate. Returns whether the
    /// state changed (callers journal the eviction exactly when it
    /// does).
    pub(crate) fn evict(&mut self, r: RouterId) -> bool {
        let e = self.entry_mut(r);
        if e.state == SourceState::Evicted {
            false
        } else {
            e.state = SourceState::Evicted;
            true
        }
    }

    /// Re-admits an evicted source (it reconnected).
    pub(crate) fn admit(&mut self, r: RouterId) -> bool {
        self.shift(r, SourceState::Evicted, SourceState::Live)
    }

    /// The global watermark the fold may advance to: the minimum
    /// applied promise across all non-evicted sources, or `None` while
    /// any non-evicted source has never promised. An evicted source
    /// neither gates nor contributes — that is the whole point of
    /// eviction.
    pub(crate) fn global_min(&self) -> Option<SimTime> {
        let mut min: Option<SimTime> = None;
        let mut gated = false;
        for e in &self.entries {
            if e.state == SourceState::Evicted {
                continue;
            }
            match e.promise {
                None => gated = true,
                Some(p) => min = Some(min.map_or(p, |m: SimTime| m.min(p))),
            }
        }
        if gated {
            None
        } else {
            min
        }
    }

    /// The sources currently holding the watermark back: every
    /// non-evicted router that has never applied a promise (it never
    /// connected, never promised, or its promise is parked behind lost
    /// events awaiting retransmission). Empty when the fold is free to
    /// advance.
    pub(crate) fn stalled(&self) -> Vec<RouterId> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state != SourceState::Evicted && e.promise.is_none())
            .map(|(i, _)| RouterId(i as u32))
            .collect()
    }

    /// Every currently evicted source.
    pub(crate) fn evicted(&self) -> Vec<RouterId> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state == SourceState::Evicted)
            .map(|(i, _)| RouterId(i as u32))
            .collect()
    }
}

/// The incremental verification state downstream of the collector.
pub struct IngestPipeline {
    builder: HbgBuilder,
    tracker: ConsistencyTracker,
    sources: SourceTable,
    /// The last globally advanced watermark; `None` until the first
    /// advance.
    watermark: Option<SimTime>,
    events: u64,
    /// The repair-lifecycle fold over journaled kind-16 records.
    repairs: RepairLedger,
}

impl IngestPipeline {
    /// A fresh, empty pipeline.
    pub fn new(cfg: PipelineConfig) -> Self {
        IngestPipeline {
            builder: HbgBuilder::new(&RULES),
            tracker: ConsistencyTracker::new(cfg.n_routers as usize),
            sources: SourceTable::new(cfg.n_routers),
            watermark: None,
            events: 0,
            repairs: RepairLedger::new(),
        }
    }

    /// The repair-lifecycle ledger.
    pub fn repairs(&self) -> &RepairLedger {
        &self.repairs
    }

    /// Classifies one event and buffers the record into both consumers.
    /// The caller is responsible for having deduplicated it (see
    /// `SourceTable::offer`); the fold is deterministic, not
    /// idempotent.
    pub fn ingest(&mut self, e: &IoEvent) {
        let rec = FoldRecord::of(e);
        self.builder.ingest_record(rec);
        self.tracker.ingest_record(rec, e.arrived_at);
        self.events += 1;
    }

    /// Advances both consumers to `watermark` and returns the snapshot
    /// verdict there. Watermarks never move backwards; a stale value is
    /// clamped to the current one.
    pub fn advance(&mut self, watermark: SimTime) -> SnapshotStatus {
        let wm = self.watermark.map_or(watermark, |w| w.max(watermark));
        self.watermark = Some(wm);
        self.builder.advance(wm);
        self.tracker.advance(wm)
    }

    /// The last advanced watermark, if any.
    pub fn watermark(&self) -> Option<SimTime> {
        self.watermark
    }

    /// Total events ingested.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The happens-before graph builder.
    pub fn builder(&self) -> &HbgBuilder {
        &self.builder
    }

    /// The consistency tracker.
    pub fn tracker(&self) -> &ConsistencyTracker {
        &self.tracker
    }

    /// The verdict at the current watermark, without advancing.
    pub fn status(&self) -> SnapshotStatus {
        self.tracker.status()
    }

    /// Rebuilds a pipeline from the WAL at `dir`: the scan of the
    /// directory (`WalScan`), folded. Every scanned event is ingested in
    /// `(time, id)` order and the pipeline is advanced once to the
    /// recovered watermark. The collector logs an event frame *before*
    /// ingesting it and a watermark frame *before* advancing, so the
    /// durable log is always at least as complete as the in-memory
    /// state it is recovered to — and deterministic folding makes
    /// "ingest all, then advance once" equal to the live interleaving.
    ///
    /// Per-source *promises* are not journaled (only the global
    /// advances they produced), so recovered sources start unpromised:
    /// the watermark cannot move again until the reconnecting clients
    /// re-promise, which they do as part of their reconnect protocol.
    pub fn recover(cfg: PipelineConfig, dir: &Path) -> io::Result<(Self, RecoveryReport)> {
        let (pipeline, report, _) = Self::recover_parts(cfg, dir, 1)?;
        Ok((pipeline, report))
    }

    /// [`recover`](Self::recover), exposing the replayed event list and
    /// replaying independent WAL series on up to `threads` reader
    /// threads. The result is identical at every thread count: series
    /// are merged in deterministic series order regardless of which
    /// thread read them.
    pub fn recover_parts(
        cfg: PipelineConfig,
        dir: &Path,
        threads: usize,
    ) -> io::Result<(Self, RecoveryReport, Vec<IoEvent>)> {
        let scan = WalScan::read(cfg, dir, threads)?;
        let mut pipeline = Self::new(cfg);
        pipeline.sources = scan.sources;
        pipeline.repairs = scan.repairs;
        for (_, e) in &scan.events {
            pipeline.ingest(e);
        }
        if let Some(wm) = scan.report.watermark {
            pipeline.advance(wm);
        }
        let events = scan.events.into_iter().map(|(_, e)| e).collect();
        Ok((pipeline, scan.report, events))
    }
}

/// What a WAL directory says, before anything is folded: the part of
/// recovery the collector's engine start and [`IngestPipeline::recover`]
/// share. The engine seeds its fold shards from `events`; `recover`
/// folds them into one pipeline.
pub(crate) struct WalScan {
    /// Sequence cursors, sessions, and eviction state of every source.
    pub(crate) sources: SourceTable,
    /// Every journaled event with its source sequence number, in
    /// `(time, id)` order.
    pub(crate) events: Vec<(u64, IoEvent)>,
    /// Series 0's round markers, peer-protocol records and accepted
    /// repair records (the latter two live in series 0 only), in journal
    /// order: what a federation member replays through its live apply
    /// path.
    pub(crate) peer_log: Vec<Frame>,
    /// The fold of every journaled repair-lifecycle record.
    pub(crate) repairs: RepairLedger,
    /// The summary, including the recovered watermark.
    pub(crate) report: RecoveryReport,
}

impl WalScan {
    /// Decodes every intact record of every series in `dir` (series
    /// replayed on up to `threads` threads, merged in series order).
    ///
    /// A collector journals into one series per fold shard, each
    /// logging every barrier watermark *before* folding to it. The
    /// recovered watermark is therefore the **minimum over all series
    /// of that series' largest logged watermark** (`None` if any series
    /// never logged one): an event missing from series `k` was accepted
    /// after `k` last logged a watermark `W_k`, and events accepted
    /// after a barrier at `W` are stamped later than `W`, so nothing at
    /// or below `min_k W_k` can be missing. With a single series this
    /// is the largest logged watermark.
    pub(crate) fn read(cfg: PipelineConfig, dir: &Path, threads: usize) -> io::Result<Self> {
        let replayed = wal::replay_all(dir, threads)?;
        let mut sources = SourceTable::new(cfg.n_routers);
        let mut events: Vec<(u64, IoEvent)> = Vec::new();
        let mut peer_log: Vec<Frame> = Vec::new();
        let mut repairs = RepairLedger::new();
        let mut repairs_replayed = 0usize;
        // Each series' largest logged watermark (`None` = that series
        // never logged one).
        let mut series_wms: Vec<Option<SimTime>> = Vec::with_capacity(replayed.len());
        let mut torn = false;
        let mut segments = 0usize;
        let mut corrupt = 0usize;
        for (i, (_series, r)) in replayed.iter().enumerate() {
            torn |= r.torn;
            segments += r.segments;
            let mut series_wm: Option<SimTime> = None;
            // Symbol definitions are journaled into the same series as
            // the events that use them, *before* first use, so one
            // decoder per series, fed in scan order, resolves every
            // symbol — exactly like the live connection's did.
            let mut dec = Decoder::new();
            for record in &r.records {
                // A WAL record is one full wire frame; its bytes were
                // already checked by the record-level checksum, so a
                // decode failure here means a writer bug, not disk
                // corruption. Skip and count rather than abort
                // recovery.
                match dec.decode_record(record) {
                    Ok(Frame::Event { seq, event }) if sources.contains(event.router) => {
                        let cur = &mut sources.entry_mut(event.router).cursor;
                        cur.next_seq = cur.next_seq.max(seq + 1);
                        events.push((seq, event));
                    }
                    Ok(Frame::Watermark { t, frontier }) => {
                        series_wm = Some(series_wm.map_or(t, |w| w.max(t)));
                        if i == 0 {
                            peer_log.push(Frame::Watermark { t, frontier });
                        }
                    }
                    Ok(Frame::Hello(h)) => {
                        if sources.contains(h.source) {
                            let e = sources.entry_mut(h.source);
                            e.cursor.session = Some(h.session);
                            if e.state == SourceState::NeverConnected {
                                e.state = SourceState::Live;
                            }
                        }
                    }
                    Ok(Frame::Evict { source }) => {
                        if sources.contains(source) {
                            sources.evict(source);
                        }
                    }
                    Ok(Frame::Admit { source }) => {
                        if sources.contains(source) {
                            sources.admit(source);
                        }
                    }
                    // `replay_all` returns series in deterministic
                    // order, so the ledger's fold order is identical on
                    // every recovery.
                    Ok(Frame::Repair(r)) => {
                        if repairs.accept(&r) {
                            repairs_replayed += 1;
                            peer_log.push(Frame::Repair(r));
                        }
                    }
                    // Repairs and (only on federation members) peer frames
                    // are all journaled into series 0, in session order.
                    Ok(
                        peer @ (Frame::PeerHello(_)
                        | Frame::FrontierExchange(_)
                        | Frame::BoundaryEdges(_)
                        | Frame::PartialVerdict(_)
                        | Frame::PeerRepairProof(_)),
                    ) => peer_log.push(peer),
                    // The decoder already bound the definition. Dump
                    // requests are a live diagnostic exchange, never
                    // journaled, but tolerated if found.
                    Ok(Frame::Intern(_))
                    | Ok(Frame::DumpReq)
                    | Ok(Frame::DumpResp { .. })
                    | Ok(Frame::Bye { .. })
                    | Ok(Frame::Ack { .. })
                    | Ok(Frame::Fin)
                    | Ok(Frame::Heartbeat)
                    | Ok(Frame::MetricsReq { .. })
                    | Ok(Frame::MetricsResp { .. }) => {}
                    // An event naming no router of the table was never
                    // accepted live: seeding it would index past the
                    // fold's streams.
                    Ok(Frame::Event { .. }) | Err(_) => corrupt += 1,
                }
            }
            series_wms.push(series_wm);
        }
        // min-of-max across series: any series without a watermark
        // holds the recovered frontier at None (nothing was ever
        // durably folded that every series has caught up to).
        let watermark: Option<SimTime> = if series_wms.iter().any(Option::is_none) {
            None
        } else {
            series_wms.iter().filter_map(|w| *w).min()
        };
        // Events may interleave across series in stamp order; sort so
        // duplicate-free ingest order is deterministic. (Within one
        // series the journal order already respects the fold frontier;
        // across series only the (time, id) order is meaningful.)
        events.sort_by_key(|(_, e)| (e.time, e.id));
        let report = RecoveryReport {
            events_replayed: events.len(),
            repairs_replayed,
            watermark,
            torn_tail: torn,
            segments,
            corrupt_records: corrupt,
            evicted: sources.evicted(),
        };
        Ok(WalScan {
            sources,
            events,
            peer_log,
            repairs,
            report,
        })
    }
}

/// What a WAL recovery found.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Event frames replayed into the pipeline.
    pub events_replayed: usize,
    /// Repair-lifecycle records replayed into the ledger (duplicates
    /// excluded).
    pub repairs_replayed: usize,
    /// The watermark the pipeline was advanced to (`None` if the log
    /// held no watermark record — nothing was ever durably folded).
    pub watermark: Option<SimTime>,
    /// Whether the log ended in a torn record (expected after a crash
    /// mid-append; the tear is excluded from the replay).
    pub torn_tail: bool,
    /// Segment files scanned.
    pub segments: usize,
    /// Records that were intact on disk but failed frame decoding, or
    /// events naming a router outside the source table — a writer bug
    /// if ever nonzero.
    pub corrupt_records: usize,
    /// Sources that were evicted at the time of the crash (journaled
    /// evictions not cancelled by a journaled re-admission).
    pub evicted: Vec<RouterId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offer_classifies_fresh_duplicate_gap() {
        let mut t = SourceTable::new(2);
        let r = RouterId(0);
        t.hello(r, 1, 0);
        assert_eq!(t.offer(r, 0), Offer::Fresh);
        assert_eq!(t.offer(r, 1), Offer::Fresh);
        assert_eq!(t.offer(r, 1), Offer::Duplicate);
        assert_eq!(t.offer(r, 0), Offer::Duplicate);
        assert_eq!(t.offer(r, 3), Offer::Gap, "seq 2 was never offered");
        assert_eq!(t.next_seq(r), 2, "a gap must not advance the cursor");
        assert_eq!(t.offer(r, 2), Offer::Fresh, "retransmission fills the gap");
        assert_eq!(t.offer(r, 3), Offer::Fresh);
    }

    #[test]
    fn promises_are_gated_on_the_frontier() {
        let mut t = SourceTable::new(1);
        let r = RouterId(0);
        t.hello(r, 1, 0);
        assert_eq!(t.offer(r, 0), Offer::Fresh);
        // Promise covering 3 events when only 1 arrived: parked.
        assert!(!t.promise(r, SimTime::from_millis(10), 3));
        assert_eq!(t.promise_of(r), None);
        assert_eq!(t.offer(r, 1), Offer::Fresh);
        assert_eq!(t.promise_of(r), None, "frontier 3 still unreached");
        assert_eq!(t.offer(r, 2), Offer::Fresh);
        assert_eq!(
            t.promise_of(r),
            Some(SimTime::from_millis(10)),
            "promise settles the moment the prefix is complete"
        );
    }

    #[test]
    fn global_min_requires_every_nonevicted_source() {
        let mut t = SourceTable::new(3);
        for r in 0..3 {
            t.hello(RouterId(r), 1, 0);
        }
        assert_eq!(t.global_min(), None);
        assert!(t.promise(RouterId(0), SimTime::from_millis(5), 0));
        assert!(t.promise(RouterId(1), SimTime::from_millis(9), 0));
        assert_eq!(t.global_min(), None, "router 2 never promised");
        assert_eq!(t.stalled(), vec![RouterId(2)]);
        // Evicting the straggler releases the fold at the others' min.
        assert!(t.evict(RouterId(2)));
        assert_eq!(t.global_min(), Some(SimTime::from_millis(5)));
        assert!(t.stalled().is_empty());
        // Re-admission restores the gate until it promises again.
        assert!(t.admit(RouterId(2)));
        assert_eq!(t.global_min(), None);
        assert!(t.promise(RouterId(2), SimTime::from_millis(7), 0));
        assert_eq!(t.global_min(), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn same_session_resumes_new_session_resets() {
        let mut t = SourceTable::new(1);
        let r = RouterId(0);
        assert_eq!(t.hello(r, 42, 0), HelloKind::First);
        for s in 0..5 {
            assert_eq!(t.offer(r, s), Offer::Fresh);
        }
        // Reconnect, same session, replaying from its oldest unacked.
        assert_eq!(t.hello(r, 42, 2), HelloKind::Resumed);
        assert_eq!(t.offer(r, 2), Offer::Duplicate);
        assert_eq!(t.offer(r, 5), Offer::Fresh);
        // A restarted client with a fresh session renumbers from 0.
        assert_eq!(t.hello(r, 43, 0), HelloKind::NewSession);
        assert_eq!(t.next_seq(r), 0);
        assert_eq!(t.offer(r, 0), Offer::Fresh);
    }

    #[test]
    fn bye_is_a_gated_promise_of_forever() {
        let mut t = SourceTable::new(1);
        let r = RouterId(0);
        t.hello(r, 1, 0);
        assert_eq!(t.offer(r, 0), Offer::Fresh);
        assert!(!t.bye(r, 2), "bye before its last event arrives parks");
        assert!(!t.finished(r));
        assert_eq!(t.offer(r, 1), Offer::Fresh);
        assert!(t.finished(r));
        assert_eq!(t.global_min(), Some(SimTime::MAX));
    }

    /// Each advance leaves the tracker's data plane equal to every
    /// arrived FIB event applied in order, removes of absent prefixes
    /// included.
    #[test]
    fn advance_applies_the_arrived_fib_events() {
        use cpvr_dataplane::DataPlane;
        use cpvr_sim::workload::prefix_block;
        use cpvr_sim::{EventId, IoKind};
        const N: u64 = 600;
        let prefixes = prefix_block(8);
        let mut p = IngestPipeline::new(PipelineConfig::new(2));
        let mut mirror = DataPlane::new(2);
        for k in 0..6 {
            for i in k * N / 6..(k + 1) * N / 6 {
                let time = SimTime::from_micros(i + 1);
                let prefix = prefixes[i as usize % prefixes.len()];
                let e = IoEvent {
                    id: EventId(i as u32),
                    router: RouterId((i % 2) as u32),
                    time,
                    arrived_at: Some(time),
                    kind: if (i / 16) % 2 == 1 {
                        IoKind::FibInstall {
                            prefix,
                            action: cpvr_dataplane::FibAction::Drop,
                        }
                    } else {
                        IoKind::FibRemove { prefix }
                    },
                };
                p.ingest(&e);
                mirror.apply(&FoldRecord::of(&e).fib_update().expect("a FIB event"));
            }
            p.advance(SimTime::from_micros((k + 1) * N / 6));
            for r in (0..2).map(RouterId) {
                let got = p.tracker().dataplane().fib(r);
                assert_eq!(got.entries(), mirror.fib(r).entries(), "advance {k}");
            }
        }
        assert_eq!(p.builder().processed() as u64, N);
        assert!(!mirror.fib(RouterId(1)).is_empty());
    }

    #[test]
    fn lagging_is_diagnostic_eviction_is_not() {
        let mut t = SourceTable::new(2);
        t.hello(RouterId(0), 1, 0);
        t.hello(RouterId(1), 1, 0);
        assert!(t.promise(RouterId(0), SimTime::from_millis(3), 0));
        assert!(t.set_lagging(RouterId(1)));
        assert_eq!(t.state(RouterId(1)), SourceState::Lagging);
        assert_eq!(t.global_min(), None, "lagging still gates");
        assert!(t.evict(RouterId(1)));
        assert!(!t.evict(RouterId(1)), "double eviction is a no-op");
        assert_eq!(t.global_min(), Some(SimTime::from_millis(3)));
        // A hello from the evicted source does not silently re-admit —
        // the session loop must do that explicitly (and journal it).
        t.hello(RouterId(1), 2, 0);
        assert_eq!(t.state(RouterId(1)), SourceState::Evicted);
        assert!(t.admit(RouterId(1)));
        assert_eq!(t.state(RouterId(1)), SourceState::Live);
    }
}
