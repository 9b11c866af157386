//! The one ingest engine: a single session loop that owns everything
//! protocol-shaped, over a [`Backend`] that owns the fold.
//!
//! Every collector — one fold shard, `N` fold shards, or one member of
//! a federation — runs [`run`] on its session thread. The loop holds the
//! [`SourceTable`] (dedup cursors, frontier-gated promises, lease
//! state), the connection → router map, the late-event gate, the
//! duplicate/gap/late counters, the liveness-lease sweep (evict →
//! journal → hang up → flight dump), the watermark-stall watchdog, the
//! repair ledger and its flight records, and the publication of
//! [`SharedStats`] and the metrics gauges. Each of those decisions is
//! made here and nowhere else; DESIGN.md §6 "One ingest engine" lists
//! them.
//!
//! What differs between deployments is only *how a watermark becomes a
//! verdict*, and that is the [`Backend`]:
//!
//! - [`Shards`](crate::shard::Shards): `N ≥ 1` worker threads, each
//!   with a [`FoldShard`](crate::shard::FoldShard), its own WAL series
//!   and the ack sockets of the routers it owns, joined by a two-phase
//!   channel barrier and one group-commit thread.
//! - [`MemberState`](crate::federation::MemberState): one
//!   `FoldShard` folded on the session thread, whose sibling shards are
//!   remote collectors reached over go-back-N peer links; the barrier
//!   is the serial federated round.
//!
//! ## Durability ordering
//!
//! The session hands a control record (hello, eviction, re-admission,
//! repair) to [`Backend::journal`] *before* it changes the state the
//! record describes, and a backend appends an event's wire bytes
//! before folding the event, a watermark record before advancing to
//! it, and writes an ack only after the events it covers were
//! journaled (and committed, per the fsync policy). The log is
//! therefore always at least as complete as the in-memory state.

use crate::codec::{encode_frame, Frame, PeerHello, RepairRecord, RepairStage};
use crate::collector::{CollectorConfig, EventRec, LeaseConfig, Msg, SharedStats};
use crate::federation::PeerFrame;
use crate::metrics::CollectorMetrics;
use crate::pipeline::{Offer, SourceState, SourceTable};
use crate::repair_journal::RepairLedger;
use crate::shard::{FoldGauges, FoldReport, Verdict};
use cpvr_obs::trace::stage;
use cpvr_obs::RingHandle;
use cpvr_types::{RouterId, SimTime, TraceCtx};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Flight-recorder ring capacity of a fold thread (the session's ring,
/// and a federation member's): they record every journal/fold/repair
/// and round stamp, so they are deeper than a reader's.
pub(crate) const FOLD_RING_SLOTS: usize = 512;

/// Sampled flights the session holds between journaling and the
/// consistent verdict that completes them (overflow drops the flight and
/// counts it — tracing is best-effort by design).
const TRACED_PENDING_MAX: usize = 1024;

/// One sampled flight between the hand-off to the backend and the
/// verdict that completes it.
struct Flight {
    /// The event's own (simulated) timestamp: the watermark that passes
    /// it is the advance that folds it.
    time: SimTime,
    ctx: TraceCtx,
    /// When the reader decoded the frame.
    received: Instant,
    /// When a watermark advance folded it, once one has.
    folded: Option<Instant>,
}

/// What the session loop needs from whatever folds the events.
///
/// A backend sees only deduplicated, in-order, non-late events and
/// already-decided protocol transitions; it never touches the source
/// table except to read the gate.
pub(crate) trait Backend {
    /// Whether this engine folds `r`'s stream (a federation member
    /// folds only the routers its plan assigns it).
    fn owns(&self, r: RouterId) -> bool;
    /// The late gate: the horizon the fold has been (or is being)
    /// advanced to. A fresh event at or behind it can no longer be
    /// folded in order.
    fn gate(&self) -> Option<SimTime>;
    /// The horizon of the last *global* verdict.
    fn watermark(&self) -> Option<SimTime>;
    /// The verdict at [`watermark`](Self::watermark) and its wait
    /// accounting.
    fn verdict(&self) -> &Verdict;
    /// Fold counters as of the last advance.
    fn gauges(&self) -> FoldGauges;
    /// Appends one control record to the series that journals `home`'s
    /// stream (`None`: the series global records live in), signalling
    /// `done` once the append is flushed.
    fn journal(&mut self, home: Option<RouterId>, bytes: Vec<u8>, done: Option<SyncSender<()>>);
    /// Journals and buffers a batch of fresh events from `source`, then
    /// acks `upto` (and `fin`) on `conn`.
    fn ingest(&mut self, conn: u64, source: RouterId, batch: Vec<EventRec>, upto: u64, fin: bool);
    /// Takes over a greeted connection's write handle.
    fn adopt(&mut self, conn: u64, source: RouterId, ack: Option<TcpStream>);
    /// Acks `upto` (and `fin`) on `conn`.
    fn ack(&mut self, conn: u64, source: RouterId, upto: u64, fin: bool);
    /// Forgets `conn` and hangs up on it (`source` is `None` for a
    /// connection that never greeted as a router).
    fn drop_conn(&mut self, conn: u64, source: Option<RouterId>);
    /// The source table's minimum promise may have moved: advance the
    /// fold as far as it allows.
    fn gate_moved(&mut self, sources: &SourceTable);
    /// A repair record was journaled and was new to the ledger.
    fn repair_accepted(&mut self, _ledger: &RepairLedger, _record: &RepairRecord) {}
    /// A sibling collector's handshake.
    fn peer_hello(&mut self, _conn: u64, _hello: PeerHello, _ack: Option<TcpStream>) {}
    /// A sibling collector's frame; may complete rounds.
    fn peer_frame(
        &mut self,
        _conn: u64,
        _frame: PeerFrame,
        _raw: Option<Vec<u8>>,
        _sources: &SourceTable,
    ) {
    }
    /// How often [`tick`](Self::tick) must run even when no message
    /// arrives (`None`: only as often as the lease sweep).
    fn link_tick(&self) -> Option<Duration> {
        None
    }
    /// Periodic upkeep that no message drives (peer-link reconnects).
    fn tick(&mut self, _sources: &SourceTable) {}
    /// Closes the journal and hands the fold state back.
    fn finish(
        self,
        stalled: Vec<RouterId>,
        repairs: RepairLedger,
    ) -> (FoldReport, Option<io::Error>);
}

/// The ack write handles of a set of connections. An ack is written by
/// whichever thread journaled the events it covers, so the fold workers
/// and the federation member each hold one of these.
#[derive(Default)]
pub(crate) struct AckSockets(HashMap<u64, TcpStream>);

impl AckSockets {
    pub(crate) fn adopt(&mut self, conn: u64, ack: Option<TcpStream>) {
        if let Some(a) = ack {
            self.0.insert(conn, a);
        }
    }

    /// Acks the contiguous prefix below `upto` and, once the source's
    /// bye promise has been *applied* (`fin`), confirms end-of-stream
    /// with a fin: byes carry no sequence number, so the fin is the only
    /// way a draining client can know its bye was not lost in flight. A
    /// failed or timed-out write forfeits the handle (the client
    /// reconnects on ack stall). Returns whether the ack went out —
    /// callers that count acked events must not count a forfeited write.
    pub(crate) fn ack(&mut self, conn: u64, upto: u64, fin: bool) -> bool {
        let Some(s) = self.0.get_mut(&conn) else {
            return false;
        };
        if s.write_all(&encode_frame(&Frame::Ack { upto })).is_err() {
            self.0.remove(&conn);
            return false;
        }
        if fin && s.write_all(&encode_frame(&Frame::Fin)).is_err() {
            self.0.remove(&conn);
        }
        true
    }

    /// Forgets `conn` and hangs up on it.
    pub(crate) fn drop_conn(&mut self, conn: u64) {
        if let Some(s) = self.0.remove(&conn) {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// The flight-recorder stage code for one repair-lifecycle stage.
fn repair_stage_code(s: RepairStage) -> u32 {
    match s {
        RepairStage::Proposed => stage::REPAIR_PROPOSED,
        RepairStage::Proven => stage::REPAIR_PROVEN,
        RepairStage::Gated => stage::REPAIR_GATED,
        RepairStage::Applied => stage::REPAIR_APPLIED,
        RepairStage::Blocked => stage::REPAIR_BLOCKED,
        RepairStage::RolledBack => stage::REPAIR_ROLLED_BACK,
    }
}

/// Emits one repair-lifecycle flight record (minting the deterministic
/// repair trace when the journaled record carries none) and, when the
/// gate came back DIVERGED or ERROR, freezes an anomaly dump.
fn flight_repair_record(
    record: &RepairRecord,
    flight: Option<&RingHandle>,
    metrics: Option<&CollectorMetrics>,
) {
    let ctx = record
        .trace
        .unwrap_or_else(|| TraceCtx::for_repair(record.repair_id));
    let verdict = u64::from(record.verdict.unwrap_or(0));
    if let Some(f) = flight {
        f.record(
            repair_stage_code(record.stage),
            Some(ctx),
            record.repair_id,
            verdict,
        );
    }
    if record.stage == RepairStage::Gated && matches!(record.verdict, Some(1) | Some(2)) {
        if let Some(f) = flight {
            f.record(
                stage::GATE_ANOMALY,
                Some(ctx.child(stage::REPAIR_GATED)),
                record.repair_id,
                verdict,
            );
        }
        if let Some(m) = metrics {
            m.flight_dump(if record.verdict == Some(1) {
                "diverged"
            } else {
                "gate-error"
            });
        }
    }
}

/// The watermark-stall watchdog: tracks how long the verdict horizon
/// has sat still while ingested events wait behind it, publishing the
/// `cpvr_watermark_stall_seconds` gauge and firing the one-shot flight
/// dump past [`LeaseConfig::stall_after`].
struct StallWatch {
    last: Option<SimTime>,
    since: Instant,
    /// Events ingested since the watermark last moved — a still
    /// watermark with nothing behind it is idle, not stalled.
    pending: bool,
}

impl StallWatch {
    fn new(initial: Option<SimTime>) -> StallWatch {
        StallWatch {
            last: initial,
            since: Instant::now(),
            pending: false,
        }
    }

    /// One watchdog tick against the current watermark.
    fn observe(
        &mut self,
        wm: Option<SimTime>,
        stall_after: Duration,
        metrics: Option<&CollectorMetrics>,
        flight: Option<&RingHandle>,
    ) {
        if wm != self.last {
            self.last = wm;
            self.since = Instant::now();
            self.pending = false;
            if let Some(m) = metrics {
                m.watermark_stall_seconds.set(0);
                m.flight.clear_stall();
            }
            return;
        }
        if !self.pending {
            return;
        }
        let stalled = self.since.elapsed();
        let Some(m) = metrics else { return };
        m.watermark_stall_seconds.set(stalled.as_secs() as i64);
        if stalled >= stall_after {
            if let Some(f) = flight {
                f.record(stage::WATERMARK_STALL, None, stalled.as_secs(), 0);
            }
            m.flight_stall_dump();
        }
    }
}

/// The session loop's state: everything protocol-shaped.
struct Session<'a, B> {
    backend: B,
    sources: SourceTable,
    repairs: RepairLedger,
    /// Which router each live connection speaks for. A reconnect
    /// replaces the connection; the router's state lives in `sources`.
    conn_source: HashMap<u64, RouterId>,
    /// Liveness leases: every source starts its clock at session start,
    /// so a router that never comes up at all is still evicted on
    /// schedule instead of gating the fold forever.
    last_heard: Vec<Instant>,
    /// Sampled flights handed to the backend and not yet part of a
    /// consistent snapshot.
    traced: Vec<Flight>,
    /// Events folded as of the last published advance.
    folded: usize,
    stall: StallWatch,
    lease: LeaseConfig,
    stats: &'a SharedStats,
    metrics: Option<&'a CollectorMetrics>,
    flight: Option<RingHandle>,
}

impl<B: Backend> Session<'_, B> {
    /// Looks up the router behind `conn` and renews its lease.
    fn heard_from(&mut self, conn: u64) -> Option<RouterId> {
        let source = *self.conn_source.get(&conn)?;
        self.last_heard[source.0 as usize] = Instant::now();
        self.sources.refresh(source);
        Some(source)
    }

    fn ack(&mut self, conn: u64, source: RouterId) {
        let upto = self.sources.next_seq(source);
        self.backend
            .ack(conn, source, upto, self.sources.finished(source));
    }

    /// Runs one backend step that may land verdicts, then publishes
    /// whatever horizon it reached.
    fn drive(&mut self, step: impl FnOnce(&mut B, &SourceTable)) {
        let before = self.backend.watermark();
        let start = Instant::now();
        step(&mut self.backend, &self.sources);
        let Some(wm) = self.backend.watermark().filter(|wm| Some(*wm) != before) else {
            return;
        };
        if let Some(m) = self.metrics {
            m.fold_nanos.observe_since(start);
        }
        let folded_before = self.folded;
        self.publish();
        if let Some(m) = self.metrics {
            m.fold_batch
                .observe(self.folded.saturating_sub(folded_before) as u64);
        }
        // Sampled flights at or behind the new horizon are folded — the
        // first advance to pass one closes its session-side hop — and a
        // folded flight completes at the first consistent verdict: the
        // time in between is §4.3's wait instead of a false alarm.
        let consistent = self.backend.verdict().status().is_consistent();
        let (flight, metrics) = (self.flight.as_ref(), self.metrics);
        let now = Instant::now();
        self.traced.retain_mut(|fl| {
            if fl.time > wm {
                return true;
            }
            let folded = *fl.folded.get_or_insert_with(|| {
                if let Some(f) = flight {
                    f.record(
                        stage::FOLDED,
                        Some(fl.ctx.child(stage::JOURNALED)),
                        fl.time.as_nanos(),
                        0,
                    );
                }
                if let Some(m) = metrics {
                    m.flight_received_to_folded.observe_since(fl.received);
                }
                now
            });
            if let (true, Some(m)) = (consistent, metrics) {
                m.flight_folded_to_consistent
                    .observe(now.duration_since(folded).as_nanos() as u64);
                m.flights_completed.inc();
            }
            !consistent
        });
        // Last: whoever polls the stats for this watermark may rely on
        // the gauges and flight records above being there already.
        self.stats.set_watermark(wm);
    }

    fn gate_moved(&mut self) {
        self.drive(|b, sources| b.gate_moved(sources));
    }

    /// Publishes the fold and per-source gauges.
    fn publish(&mut self) {
        let gauges = self.backend.gauges();
        self.folded = gauges.processed;
        if let Some(m) = self.metrics {
            m.publish_fold(&gauges, self.backend.verdict(), self.backend.watermark());
            m.publish_sources(&self.sources);
        }
    }

    fn on_msg(&mut self, msg: Msg) {
        match msg {
            Msg::Hello { conn, hello, ack } => {
                let source = hello.source;
                if !self.backend.owns(source) {
                    // A mis-wired client: this router belongs to
                    // another collector. Dropping the ack handle hangs
                    // up; the sink will resolve its real collector.
                    return;
                }
                self.last_heard[source.0 as usize] = Instant::now();
                if self.sources.state(source) == SourceState::Evicted {
                    // Journal the re-admission before widening the
                    // gate, mirroring the eviction in `sweep`.
                    self.backend.journal(
                        Some(source),
                        encode_frame(&Frame::Admit { source }),
                        None,
                    );
                    self.sources.admit(source);
                    self.stats.readmissions.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = self.metrics {
                        m.readmissions.inc();
                    }
                }
                // Journal the handshake so recovery re-learns the
                // session and keeps deduplicating its replays.
                let (session, first_seq) = (hello.session, hello.first_seq);
                self.backend
                    .journal(Some(source), encode_frame(&Frame::Hello(hello)), None);
                self.sources.hello(source, session, first_seq);
                self.conn_source.insert(conn, source);
                self.backend.adopt(conn, source, ack);
                // An immediate ack tells a reconnecting client how much
                // of its planned replay is already here.
                self.ack(conn, source);
                if let Some(m) = self.metrics {
                    // A hello can flip a source back to Live — republish
                    // so lease-state scrapes see it now, not at the next
                    // watermark advance.
                    m.publish_sources(&self.sources);
                }
                self.gate_moved();
            }
            Msg::Events { conn, batch } => {
                let Some(source) = self.heard_from(conn) else {
                    return;
                };
                let gate = self.backend.gate();
                let mut fresh: Vec<EventRec> = Vec::with_capacity(batch.len());
                let (mut late, mut dups, mut gaps) = (0u64, 0u64, 0u64);
                for rec in batch {
                    match self.sources.offer(source, rec.seq) {
                        Offer::Duplicate => dups += 1,
                        Offer::Gap => gaps += 1,
                        // Events at or behind the gate land behind the
                        // fold frontier; only possible for sources
                        // replaying after an eviction let the fold pass
                        // them. Count and drop — the ack still covers
                        // them so the client stops re-sending.
                        Offer::Fresh if gate.is_some_and(|wm| rec.event.time <= wm) => late += 1,
                        Offer::Fresh => {
                            // The hop is stamped at the hand-off: the
                            // backend journals the batch before it folds
                            // or acks any of it, and before the barrier
                            // that stamps `FOLDED`.
                            if let Some((ctx, received)) = rec.trace {
                                if let Some(f) = &self.flight {
                                    f.record(
                                        stage::JOURNALED,
                                        Some(ctx.child(stage::DECODED)),
                                        u64::from(source.0),
                                        rec.seq,
                                    );
                                }
                                let room = self.traced.len() < TRACED_PENDING_MAX;
                                if room {
                                    self.traced.push(Flight {
                                        time: rec.event.time,
                                        ctx,
                                        received,
                                        folded: None,
                                    });
                                }
                                if let Some(m) = self.metrics {
                                    let n = if room {
                                        &m.flights_started
                                    } else {
                                        &m.flights_dropped
                                    };
                                    n.inc();
                                }
                            }
                            fresh.push(rec);
                        }
                    }
                }
                let ingested = fresh.len() as u64;
                self.stats.events.fetch_add(ingested, Ordering::Relaxed);
                self.stats.late_events.fetch_add(late, Ordering::Relaxed);
                self.stats
                    .duplicate_events
                    .fetch_add(dups, Ordering::Relaxed);
                self.stats.gap_events.fetch_add(gaps, Ordering::Relaxed);
                if let Some(m) = self.metrics {
                    m.events_received.add(ingested);
                    m.events_duplicate.add(dups);
                    m.events_gap.add(gaps);
                    m.events_late.add(late);
                }
                if ingested > 0 {
                    self.stall.pending = true;
                }
                let upto = self.sources.next_seq(source);
                let fin = self.sources.finished(source);
                self.backend.ingest(conn, source, fresh, upto, fin);
                // Filling a gap may have settled a parked promise.
                self.gate_moved();
            }
            Msg::Watermark { conn, t, frontier } => {
                let Some(source) = self.heard_from(conn) else {
                    return;
                };
                self.sources.promise(source, t, frontier);
                self.gate_moved();
                self.ack(conn, source);
            }
            Msg::Heartbeat { conn } => {
                if let Some(source) = self.heard_from(conn) {
                    self.ack(conn, source);
                }
            }
            Msg::Bye { conn, frontier } => {
                let Some(source) = self.heard_from(conn) else {
                    return;
                };
                // A graceful goodbye: the source promises it will never
                // emit again, gated on its final frontier like any other
                // promise.
                self.sources.bye(source, frontier);
                self.gate_moved();
                self.ack(conn, source);
            }
            // A symbol definition journals into the series that will
            // journal the events using it — ahead of them, because the
            // reader flushed its batch first and channel order is stream
            // order — so a per-series replay sees define-before-use.
            // Idempotent on replay, so a definition whose events never
            // arrive is harmless.
            Msg::Intern { router, raw } => self.backend.journal(Some(RouterId(router)), raw, None),
            Msg::Repair { record, done } => {
                // Journal the lifecycle record before folding it, so the
                // ledger never runs ahead of the log; `done` (signalled
                // once the append is flushed) is the caller's durability
                // barrier.
                self.backend
                    .journal(None, encode_frame(&Frame::Repair(record.clone())), done);
                self.stats.repair_records.fetch_add(1, Ordering::Relaxed);
                if self.repairs.accept(&record) {
                    if let Some(m) = self.metrics {
                        m.publish_repair(&record, self.repairs.in_flight().len());
                    }
                    flight_repair_record(&record, self.flight.as_ref(), self.metrics);
                    self.backend.repair_accepted(&self.repairs, &record);
                }
            }
            Msg::PeerHello { conn, hello, ack } => self.backend.peer_hello(conn, hello, ack),
            Msg::Peer { conn, frame, raw } => {
                self.drive(|b, sources| b.peer_frame(conn, frame, raw, sources));
            }
            Msg::Closed { conn } => {
                // Keep the router's state: an abnormal close stalls the
                // global merge at its promise until the lease evicts it —
                // the conservative choice.
                let source = self.conn_source.remove(&conn);
                self.backend.drop_conn(conn, source);
            }
        }
    }

    /// One pass of the liveness leases: flag silent sources as lagging,
    /// evict ones silent past the eviction threshold (journaled first),
    /// and advance the fold if an eviction released the gate.
    fn sweep(&mut self) {
        let now = Instant::now();
        let mut evicted_any = false;
        for i in 0..self.last_heard.len() {
            let r = RouterId(i as u32);
            // A source that delivered its whole stream (settled bye)
            // owes nobody a heartbeat; an evicted one is already out (as
            // is every router a federation member does not own).
            if self.sources.state(r) == SourceState::Evicted || self.sources.finished(r) {
                continue;
            }
            let silent = now.saturating_duration_since(self.last_heard[i]);
            if silent >= self.lease.evict_after {
                self.backend
                    .journal(Some(r), encode_frame(&Frame::Evict { source: r }), None);
                self.sources.evict(r);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                // Every eviction freezes exactly one black box: the dump
                // holds the ring state that explains *why* the fold was
                // gated when the lease gave up on this source.
                if let Some(f) = &self.flight {
                    f.record(stage::EVICTION, None, u64::from(r.0), silent.as_secs());
                }
                if let Some(m) = self.metrics {
                    m.evictions.inc();
                    m.flight_dump("eviction");
                }
                evicted_any = true;
                // Hang up on the evicted source: re-admission requires a
                // fresh hello, and clients only re-hello on reconnect, so
                // leaving the connection up would strand a source that is
                // merely slow (not dead) in un-admitted limbo.
                let backend = &mut self.backend;
                self.conn_source.retain(|&conn, source| {
                    if *source == r {
                        backend.drop_conn(conn, Some(r));
                    }
                    *source != r
                });
            } else if silent >= self.lease.lagging_after {
                self.sources.set_lagging(r);
            }
        }
        if evicted_any {
            self.gate_moved();
        }
        if let Some(m) = self.metrics {
            // Every sweep republishes the lease gauges, so a scrape sees
            // a source flip Live → Lagging → Evicted as it happens rather
            // than only when the watermark next moves.
            m.publish_sources(&self.sources);
        }
    }
}

/// Starts the session thread: [`run`] over `backend`, resuming from the
/// recovered `sources` and `repairs`.
pub(crate) fn spawn<B: Backend + Send + 'static>(
    rx: Receiver<Msg>,
    backend: B,
    sources: SourceTable,
    repairs: RepairLedger,
    cfg: &CollectorConfig,
    stats: &Arc<SharedStats>,
    metrics: &Option<Arc<CollectorMetrics>>,
) -> io::Result<JoinHandle<(FoldReport, Option<io::Error>)>> {
    let (lease, stats, metrics) = (cfg.lease, Arc::clone(stats), metrics.clone());
    thread::Builder::new()
        .name("cpvr-session".into())
        .spawn(move || {
            run(
                rx,
                backend,
                sources,
                repairs,
                lease,
                &stats,
                metrics.as_deref(),
            )
        })
}

/// Runs the session loop until every sender of `rx` is gone, then
/// closes the backend and returns the fold.
fn run<B: Backend>(
    rx: Receiver<Msg>,
    backend: B,
    sources: SourceTable,
    repairs: RepairLedger,
    lease: LeaseConfig,
    stats: &SharedStats,
    metrics: Option<&CollectorMetrics>,
) -> (FoldReport, Option<io::Error>) {
    // Resuming after recovery: the recovered watermark keeps gating
    // late events even before sources reconnect.
    let recovered = backend.watermark();
    let last_heard = vec![Instant::now(); sources.n_routers()];
    let mut s = Session {
        backend,
        sources,
        repairs,
        conn_source: HashMap::new(),
        last_heard,
        traced: Vec::new(),
        folded: 0,
        stall: StallWatch::new(recovered),
        lease,
        stats,
        metrics,
        flight: metrics.map(|m| m.flight.register("session", FOLD_RING_SLOTS)),
    };
    if let Some(wm) = recovered {
        stats.set_watermark(wm);
    }
    // Scrapes arriving before any traffic should still see the
    // recovered state, not all-zero gauges.
    s.publish();
    // A recovered backend may have work its journal had not finished.
    s.gate_moved();

    let sweep_every = lease.sweep_interval.min(Duration::from_secs(3600));
    let tick = s
        .backend
        .link_tick()
        .map_or(sweep_every, |t| t.min(sweep_every));
    let mut last_sweep = Instant::now();
    let mut last_tick: Option<Instant> = None;
    loop {
        // Tick-granular, not per-message: link upkeep blocks ~1 ms per
        // link polling acks, which would pace the whole round machine
        // if paid on every inbound frame.
        if last_tick.is_none_or(|t| t.elapsed() >= tick) {
            s.backend.tick(&s.sources);
            last_tick = Some(Instant::now());
        }
        match rx.recv_timeout(tick) {
            Ok(msg) => s.on_msg(msg),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if last_sweep.elapsed() >= sweep_every {
            s.sweep();
            last_sweep = Instant::now();
        }
        s.stall.observe(
            s.backend.watermark(),
            lease.stall_after,
            metrics,
            s.flight.as_ref(),
        );
    }
    s.backend.finish(s.sources.stalled(), s.repairs)
}
