//! The session loop: the one place everything protocol-shaped is
//! decided, in front of the one ingest engine, [`Shards`].
//!
//! Every collector — one fold shard, `N` fold shards, or a member of a
//! federation running either — runs [`run`] on its session thread. The
//! loop holds the [`SourceTable`] (dedup cursors, frontier-gated
//! promises, lease state), the connection → router map, the late-event
//! gate, the duplicate/gap/late counters, the liveness-lease sweep
//! (evict → journal → hang up → flight dump), the watermark-stall
//! watchdog, the repair ledger and its flight records, and the
//! publication of the registry's gauges, watermark last ([`CollectorStats`]
//! is a view of that registry). Each of those decisions is made here and
//! nowhere else; DESIGN.md §6 "One ingest engine" lists them. The loop
//! blocks on its inbox until the next lease sweep, its one clock. How a
//! watermark becomes a verdict — the fold workers, their barrier round,
//! and on a member the peers taking part in it — is [`Shards`]'.
//!
//! ## Durability ordering
//!
//! The session hands a control record (hello, eviction, re-admission,
//! repair) to [`Shards::journal`] *before* it changes the state the
//! record describes, and the engine appends an event's wire bytes
//! before folding the event, a watermark record before advancing to
//! it, and writes an ack only after the events it covers were
//! journaled (and committed, per the fsync policy). The log is
//! therefore always at least as complete as the in-memory state.
//!
//! [`CollectorStats`]: crate::collector::CollectorStats

use crate::codec::{encode_frame, Frame, RepairRecord, RepairStage};
use crate::collector::{CollectorConfig, EventRec, LeaseConfig, Msg};
use crate::metrics::CollectorMetrics;
use crate::pipeline::{Offer, SourceState, SourceTable};
use crate::repair_journal::RepairLedger;
use crate::shard::{FoldReport, Shards, WorkerMsg};
use cpvr_obs::trace::stage;
use cpvr_obs::RingHandle;
use cpvr_types::{RouterId, SimTime, TraceCtx};
use std::collections::HashMap;
use std::io;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Flight-recorder ring capacity of the session thread's rings (its
/// own, and a federation member's round machine): they record every
/// journal/fold/repair and round stamp, so they are deeper than a
/// reader's.
pub(crate) const FOLD_RING_SLOTS: usize = 512;

/// Sampled flights the session holds between journaling and the
/// consistent verdict that completes them (overflow drops the flight and
/// counts it — tracing is best-effort by design).
const TRACED_PENDING_MAX: usize = 1024;

/// One sampled flight between the hand-off to the engine and the
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
fn flight_repair_record(record: &RepairRecord, flight: &RingHandle, metrics: &CollectorMetrics) {
    let ctx = record
        .trace
        .unwrap_or_else(|| TraceCtx::for_repair(record.repair_id));
    let verdict = u64::from(record.verdict.unwrap_or(0));
    flight.record(
        repair_stage_code(record.stage),
        Some(ctx),
        record.repair_id,
        verdict,
    );
    if record.stage == RepairStage::Gated && matches!(record.verdict, Some(1) | Some(2)) {
        flight.record(
            stage::GATE_ANOMALY,
            Some(ctx.child(stage::REPAIR_GATED)),
            record.repair_id,
            verdict,
        );
        metrics.flight_dump(if record.verdict == Some(1) {
            "diverged"
        } else {
            "gate-error"
        });
    }
}

/// The watermark-stall watchdog: tracks how long the verdict horizon
/// has sat still while ingested events wait behind it, publishing the
/// `cpvr_watermark_stall_seconds` gauge and, once per stall episode past
/// [`LeaseConfig::stall_after`], recording one stall marker and firing
/// the one-shot flight dump.
struct StallWatch {
    last: Option<SimTime>,
    since: Instant,
    /// Events ingested since the watermark last moved — a still
    /// watermark with nothing behind it is idle, not stalled.
    pending: bool,
    /// This episode's marker is recorded; re-armed when the watermark
    /// moves.
    marked: bool,
}

impl StallWatch {
    fn new(initial: Option<SimTime>) -> StallWatch {
        StallWatch {
            last: initial,
            since: Instant::now(),
            pending: false,
            marked: false,
        }
    }

    /// One watchdog tick against the current watermark.
    fn observe(
        &mut self,
        wm: Option<SimTime>,
        stall_after: Duration,
        metrics: &CollectorMetrics,
        flight: &RingHandle,
    ) {
        if wm != self.last {
            self.last = wm;
            self.since = Instant::now();
            self.pending = false;
            self.marked = false;
            metrics.watermark_stall_seconds.set(0);
            metrics.flight.clear_stall();
            return;
        }
        if !self.pending {
            return;
        }
        let stalled = self.since.elapsed();
        metrics
            .watermark_stall_seconds
            .set(stalled.as_secs() as i64);
        // Once per episode: repeated markers would overwrite the ring
        // records a later dump needs to explain the stall.
        if stalled >= stall_after && !self.marked {
            self.marked = true;
            flight.record(stage::WATERMARK_STALL, None, stalled.as_secs(), 0);
            metrics.flight_stall_dump();
        }
    }
}

/// The session loop's state: everything protocol-shaped.
struct Session<'a> {
    shards: Shards,
    sources: SourceTable,
    repairs: RepairLedger,
    /// Which router each live connection speaks for. A reconnect
    /// replaces the connection; the router's state lives in `sources`.
    conn_source: HashMap<u64, RouterId>,
    /// Liveness leases: every source starts its clock at session start,
    /// so a router that never comes up at all is still evicted on
    /// schedule instead of gating the fold forever.
    last_heard: Vec<Instant>,
    /// Sampled flights handed to the engine and not yet part of a
    /// consistent snapshot.
    traced: Vec<Flight>,
    /// Events folded as of the last published advance.
    folded: usize,
    stall: StallWatch,
    lease: LeaseConfig,
    metrics: &'a CollectorMetrics,
    flight: RingHandle,
}

impl Session<'_> {
    /// Looks up the router behind `conn` and renews its lease.
    fn heard_from(&mut self, conn: u64) -> Option<RouterId> {
        let source = *self.conn_source.get(&conn)?;
        self.last_heard[source.0 as usize] = Instant::now();
        self.sources.refresh(source);
        Some(source)
    }

    fn ack(&mut self, conn: u64, source: RouterId) {
        let (upto, fin) = (self.sources.next_seq(source), self.sources.finished(source));
        self.shards
            .send(Some(source), WorkerMsg::Ack { conn, upto, fin });
    }

    /// Runs one engine step that may land verdicts, then publishes
    /// whatever horizon it reached.
    fn drive(&mut self, step: impl FnOnce(&mut Shards, &SourceTable)) {
        let before = self.shards.completed;
        let start = Instant::now();
        step(&mut self.shards, &self.sources);
        let Some(wm) = self.shards.completed.filter(|wm| Some(*wm) != before) else {
            return;
        };
        let m = self.metrics;
        m.fold_nanos.observe_since(start);
        let folded_before = self.folded;
        self.publish();
        m.fold_batch
            .observe(self.folded.saturating_sub(folded_before) as u64);
        // Sampled flights at or behind the new horizon are folded — the
        // first advance to pass one closes its session-side hop — and a
        // folded flight completes at the first consistent verdict: the
        // time in between is §4.3's wait instead of a false alarm.
        let consistent = self.shards.verdict.status().is_consistent();
        let flight = &self.flight;
        let now = Instant::now();
        self.traced.retain_mut(|fl| {
            if fl.time > wm {
                return true;
            }
            let folded = *fl.folded.get_or_insert_with(|| {
                flight.record(
                    stage::FOLDED,
                    Some(fl.ctx.child(stage::JOURNALED)),
                    fl.time.as_nanos(),
                    0,
                );
                m.flight_received_to_folded.observe_since(fl.received);
                now
            });
            if consistent {
                m.flight_folded_to_consistent
                    .observe(now.duration_since(folded).as_nanos() as u64);
                m.flights_completed.inc();
            }
            !consistent
        });
        // Last: whoever polls the stats for this watermark may rely on
        // the gauges and flight records above being there already.
        m.publish_watermark(wm);
    }

    fn gate_moved(&mut self) {
        self.drive(|b, sources| b.gate_moved(sources));
    }

    /// Publishes the fold and per-source gauges.
    fn publish(&mut self) {
        self.folded = self.shards.gauges.processed;
        self.metrics
            .publish_fold(&self.shards.gauges, &self.shards.verdict);
        self.metrics.publish_sources(&self.sources);
    }

    fn on_msg(&mut self, msg: Msg) {
        match msg {
            Msg::Hello { conn, hello, ack } => {
                let source = hello.source;
                if !self.shards.owns(source) {
                    // A mis-wired client: this router belongs to
                    // another collector. Dropping the ack handle hangs
                    // up; the sink will resolve its real collector.
                    return;
                }
                self.last_heard[source.0 as usize] = Instant::now();
                if self.sources.state(source) == SourceState::Evicted {
                    // Journal the re-admission before widening the
                    // gate, mirroring the eviction in `sweep`.
                    self.shards
                        .journal(Some(source), encode_frame(&Frame::Admit { source }));
                    self.sources.admit(source);
                    self.metrics.readmissions.inc();
                }
                // Journal the handshake so recovery re-learns the
                // session and keeps deduplicating its replays.
                let (session, first_seq) = (hello.session, hello.first_seq);
                self.shards
                    .journal(Some(source), encode_frame(&Frame::Hello(hello)));
                self.sources.hello(source, session, first_seq);
                self.conn_source.insert(conn, source);
                self.shards
                    .send(Some(source), WorkerMsg::Adopt { conn, ack });
                // An immediate ack tells a reconnecting client how much
                // of its planned replay is already here.
                self.ack(conn, source);
                // A hello can flip a source back to Live — republish so
                // lease-state scrapes see it now, not at the next
                // watermark advance.
                self.metrics.publish_sources(&self.sources);
                self.gate_moved();
            }
            Msg::Events { conn, batch, defs } => {
                let Some(source) = self.heard_from(conn) else {
                    return;
                };
                let gate = self.shards.advanced;
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
                        Offer::Fresh if gate.is_some_and(|wm| rec.rec.time <= wm) => late += 1,
                        Offer::Fresh => {
                            // The hop is stamped at the hand-off: the
                            // engine journals the batch before it folds
                            // or acks any of it, and before the barrier
                            // that stamps `FOLDED`.
                            if let Some((ctx, received)) = rec.trace {
                                self.flight.record(
                                    stage::JOURNALED,
                                    Some(ctx.child(stage::DECODED)),
                                    u64::from(source.0),
                                    rec.seq,
                                );
                                let m = self.metrics;
                                if self.traced.len() < TRACED_PENDING_MAX {
                                    self.traced.push(Flight {
                                        time: rec.rec.time,
                                        ctx,
                                        received,
                                        folded: None,
                                    });
                                    m.flights_started.inc();
                                } else {
                                    m.flights_dropped.inc();
                                }
                            }
                            fresh.push(rec);
                        }
                    }
                }
                let (ingested, m) = (fresh.len() as u64, self.metrics);
                m.events_received.add(ingested);
                m.events_duplicate.add(dups);
                m.events_gap.add(gaps);
                m.events_late.add(late);
                if ingested > 0 {
                    self.stall.pending = true;
                }
                let upto = self.sources.next_seq(source);
                let fin = self.sources.finished(source);
                self.shards.ingest(conn, source, fresh, defs, upto, fin);
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
            Msg::Repair { record, done } => {
                // Journal the lifecycle record before folding it, so the
                // ledger never runs ahead of the log.
                self.shards
                    .journal(None, encode_frame(&Frame::Repair(record.clone())));
                if self.repairs.accept(&record) {
                    self.metrics
                        .publish_repair(&record, self.repairs.in_flight().len());
                    flight_repair_record(&record, &self.flight, self.metrics);
                    // The moment a repair is `Gated`, its proof goes to
                    // every peer.
                    if let (Some(p), RepairStage::Gated) = (&mut self.shards.peers, record.stage) {
                        p.broadcast_repair(&self.repairs, record.repair_id);
                    }
                }
                // Worker 0 handles this after the append above, so the
                // caller returns once the record is durable *and* folded.
                if let Some(done) = done {
                    self.shards.send(None, WorkerMsg::Done(done));
                }
            }
            Msg::PeerHello { conn, hello, ack } => {
                if let Some(p) = &mut self.shards.peers {
                    p.hello(conn, hello, ack);
                }
            }
            Msg::Peer { conn, frame, raw } => {
                self.drive(|b, sources| b.peer_frame(conn, frame, raw, sources));
            }
            Msg::Closed { conn } => {
                // Keep the router's state: an abnormal close stalls the
                // global merge at its promise until the lease evicts it —
                // the conservative choice.
                let source = self.conn_source.remove(&conn);
                self.shards.drop_conn(conn, source);
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
                self.shards
                    .journal(Some(r), encode_frame(&Frame::Evict { source: r }));
                self.sources.evict(r);
                self.metrics.evictions.inc();
                // Every eviction freezes exactly one black box: the dump
                // holds the ring state that explains *why* the fold was
                // gated when the lease gave up on this source.
                self.flight
                    .record(stage::EVICTION, None, u64::from(r.0), silent.as_secs());
                self.metrics.flight_dump("eviction");
                evicted_any = true;
                // Hang up on the evicted source: re-admission requires a
                // fresh hello, and clients only re-hello on reconnect, so
                // leaving the connection up would strand a source that is
                // merely slow (not dead) in un-admitted limbo.
                let shards = &mut self.shards;
                self.conn_source.retain(|&conn, source| {
                    if *source == r {
                        shards.drop_conn(conn, Some(r));
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
        // Every sweep republishes the lease gauges (and a member's peer
        // gauges), so a scrape sees a source flip Live → Lagging →
        // Evicted as it happens rather than only when the watermark next
        // moves.
        self.metrics.publish_sources(&self.sources);
        if let Some(p) = &self.shards.peers {
            p.publish_peers(&self.sources);
        }
    }
}

/// Starts the session thread: [`run`] over `shards`, resuming from the
/// recovered `sources` and `repairs`.
pub(crate) fn spawn(
    rx: Receiver<Msg>,
    shards: Shards,
    sources: SourceTable,
    repairs: RepairLedger,
    cfg: &CollectorConfig,
    metrics: &Arc<CollectorMetrics>,
) -> io::Result<JoinHandle<(FoldReport, Option<io::Error>)>> {
    let (lease, metrics) = (cfg.lease, Arc::clone(metrics));
    thread::Builder::new()
        .name("cpvr-session".into())
        .spawn(move || run(rx, shards, sources, repairs, lease, &metrics))
}

/// Runs the session loop until every sender of `rx` is gone, then
/// closes the engine and returns the fold.
fn run(
    rx: Receiver<Msg>,
    shards: Shards,
    sources: SourceTable,
    repairs: RepairLedger,
    lease: LeaseConfig,
    metrics: &CollectorMetrics,
) -> (FoldReport, Option<io::Error>) {
    // Resuming after recovery: the recovered watermark keeps gating
    // late events even before sources reconnect.
    let recovered = shards.completed;
    let last_heard = vec![Instant::now(); sources.n_routers()];
    let mut s = Session {
        shards,
        sources,
        repairs,
        conn_source: HashMap::new(),
        last_heard,
        traced: Vec::new(),
        folded: 0,
        stall: StallWatch::new(recovered),
        lease,
        metrics,
        flight: metrics.flight.register("session", FOLD_RING_SLOTS),
    };
    // Scrapes arriving before any traffic should still see the
    // recovered state, not all-zero gauges — the watermark last, as
    // after every advance.
    s.publish();
    if let Some(wm) = recovered {
        metrics.publish_watermark(wm);
    }
    // A recovered engine may have work its journal had not finished.
    s.gate_moved();

    // Between lease sweeps the loop wakes only for a message.
    let sweep_every = lease.sweep_interval();
    let mut next_sweep = Instant::now() + sweep_every;
    loop {
        match rx.recv_timeout(next_sweep.saturating_duration_since(Instant::now())) {
            Ok(msg) => s.on_msg(msg),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if Instant::now() >= next_sweep {
            s.sweep();
            next_sweep = Instant::now() + sweep_every;
        }
        s.stall
            .observe(s.shards.completed, lease.stall_after, metrics, &s.flight);
    }
    s.shards.finish(s.sources.stalled(), s.repairs)
}
