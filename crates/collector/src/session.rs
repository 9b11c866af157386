//! The session loop: the one place everything protocol-shaped is
//! decided, in front of the one ingest engine, [`Shards`].
//!
//! Every collector — one fold shard, `N` fold shards, or a member of a
//! federation running either — runs [`run`] on its session thread. The
//! loop holds the [`SourceTable`] (dedup cursors, frontier-gated
//! promises, lease state), the connection → router map, the late-event
//! gate, the duplicate/gap/late counters, the liveness leases (evict →
//! journal → hang up → flight dump), the watermark-stall watchdog, the
//! repair ledger and its flight records, and the publication of the
//! registry's gauges, watermark last ([`CollectorStats`] is a view of
//! that registry). Each of those decisions is made here and nowhere
//! else; DESIGN.md §6 "One ingest engine" lists them. How a watermark
//! becomes a verdict — the fold workers, their barrier round, and on a
//! member the peers taking part in it — is [`Shards`]'.
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

/// The flight-recorder stage code for one repair-lifecycle stage: codes
/// 10–15 follow the stages' wire bytes.
fn repair_stage_code(s: RepairStage) -> u32 {
    stage::REPAIR_PROPOSED + u32::from(s.byte())
}

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

/// Emits one repair-lifecycle flight record (minting the deterministic
/// repair trace when the journaled record carries none) and, when the
/// gate came back DIVERGED or ERROR, freezes an anomaly dump.
fn flight_repair_record(
    record: &RepairRecord,
    flight: &RingHandle,
    metrics: &CollectorMetrics,
    now: Instant,
) {
    let ctx = record
        .trace
        .unwrap_or_else(|| TraceCtx::for_repair(record.repair_id));
    let verdict = u64::from(record.verdict.unwrap_or(0));
    flight.record(
        now,
        repair_stage_code(record.stage),
        Some(ctx),
        record.repair_id,
        verdict,
    );
    if record.stage == RepairStage::Gated && matches!(record.verdict, Some(1) | Some(2)) {
        flight.record(
            now,
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

/// The watermark-stall watchdog: how long the first event still waiting
/// behind an unmoved verdict horizon has waited. It publishes the
/// `cpvr_watermark_stall_seconds` gauge as each whole second passes
/// and, once per stall episode past [`LeaseConfig::stall_after`],
/// records one stall marker and fires the one-shot flight dump.
#[derive(Default)]
struct StallWatch {
    /// When the first event began waiting behind the still watermark:
    /// the episode's start. `None` while nothing waits — a still
    /// watermark with nothing behind it is idle, not stalled.
    since: Option<Instant>,
    /// Waited as of the last step (the gauge shows its whole seconds).
    seen: Duration,
    /// This episode's marker is recorded.
    marked: bool,
    /// The newest event time ingested so far: while it lies beyond the
    /// verdict horizon, events wait.
    newest: Option<SimTime>,
}

impl StallWatch {
    /// The watchdog's next step: the marker, or the gauge's next second.
    fn deadline(&self, stall_after: Duration) -> Option<Instant> {
        let since = self.since?;
        let tick = since + Duration::from_secs(self.seen.as_secs() + 1);
        let marker = since.checked_add(stall_after).filter(|_| !self.marked);
        Some(marker.map_or(tick, |m| m.min(tick)))
    }

    /// Events up to `newest` were ingested at `now`: the first to wait
    /// starts the stall clock.
    fn ingested(&mut self, newest: SimTime, now: Instant) {
        self.newest = self.newest.max(Some(newest));
        self.since.get_or_insert(now);
    }

    /// The watermark moved to `wm` at `now`: what waited behind it is
    /// folded, so the episode ends. Events ingested beyond `wm` are
    /// still waiting, so for them a new episode starts at `now`.
    fn moved(&mut self, wm: SimTime, now: Instant, metrics: &CollectorMetrics) {
        let newest = self.newest;
        *self = StallWatch {
            since: newest.filter(|t| *t > wm).map(|_| now),
            newest,
            ..StallWatch::default()
        };
        metrics.watermark_stall_seconds.set(0);
        metrics.flight.clear_stall();
    }

    /// One watchdog step at `now`.
    fn tick(&mut self, now: Instant, after: Duration, m: &CollectorMetrics, flight: &RingHandle) {
        let Some(since) = self.since else { return };
        let (seen, stalled) = (self.seen, now.saturating_duration_since(since));
        self.seen = stalled;
        if stalled.as_secs() != seen.as_secs() {
            m.watermark_stall_seconds.set(stalled.as_secs() as i64);
        }
        // Once per episode: repeated markers would overwrite the ring
        // records a later dump needs to explain the stall.
        if stalled >= after && !self.marked {
            self.marked = true;
            flight.record(now, stage::WATERMARK_STALL, None, stalled.as_secs(), 0);
            m.flight_stall_dump();
        }
    }
}

/// The session loop's state: everything protocol-shaped. It decides on
/// the `now` it is handed with each input (a message, or a timer that
/// fired) and works out its next [`deadline`](Session::deadline) from
/// its own state; [`run`] reads the clock for it.
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
    stall: StallWatch,
    lease: LeaseConfig,
    metrics: &'a CollectorMetrics,
    flight: RingHandle,
}

impl<'a> Session<'a> {
    /// A session over `shards` resuming from the recovered `sources` and
    /// `repairs`, started at `now`.
    fn new(
        shards: Shards,
        sources: SourceTable,
        repairs: RepairLedger,
        lease: LeaseConfig,
        metrics: &'a CollectorMetrics,
        now: Instant,
    ) -> Self {
        let mut s = Session {
            last_heard: vec![now; sources.n_routers()],
            shards,
            sources,
            repairs,
            conn_source: HashMap::new(),
            traced: Vec::new(),
            stall: StallWatch::default(),
            lease,
            metrics,
            flight: metrics.flight.register("session", FOLD_RING_SLOTS),
        };
        // Scrapes arriving before any traffic should still see the
        // recovered state, not all-zero gauges — the watermark last, as
        // after every advance.
        s.publish();
        if let Some(wm) = s.shards.completed {
            metrics.publish_watermark(wm);
        }
        // A recovered engine may have work its journal had not finished.
        s.gate_moved(now);
        s
    }

    /// When the session next decides anything without a message: the
    /// earliest lease expiry, or the stall watchdog's next step.
    fn deadline(&self) -> Option<Instant> {
        let ids = (0..self.last_heard.len() as u32).map(RouterId);
        let stall = self.stall.deadline(self.lease.stall_after);
        ids.filter_map(|r| self.lease_expiry(r)).chain(stall).min()
    }

    /// When `r`'s lease next runs out (into lagging if live, else into
    /// eviction); `None` once `r` delivered its whole stream or is out
    /// (as is every router a federation member does not own).
    fn lease_expiry(&self, r: RouterId) -> Option<Instant> {
        let after = match self.sources.state(r) {
            _ if self.sources.finished(r) => return None,
            SourceState::Evicted => return None,
            SourceState::Live => self.lease.lagging_after,
            SourceState::NeverConnected | SourceState::Lagging => self.lease.evict_after,
        };
        self.last_heard[r.0 as usize].checked_add(after)
    }

    /// Looks up the router behind `conn` and renews its lease.
    fn heard_from(&mut self, conn: u64, now: Instant) -> Option<RouterId> {
        let source = *self.conn_source.get(&conn)?;
        self.last_heard[source.0 as usize] = now;
        if self.sources.refresh(source) {
            self.metrics.publish_sources(&self.sources);
        }
        Some(source)
    }

    fn ack(&mut self, conn: u64, source: RouterId) {
        let (upto, fin) = (self.sources.next_seq(source), self.sources.finished(source));
        self.shards
            .send(Some(source), WorkerMsg::Ack { conn, upto, fin });
    }

    /// Runs one engine step, for an input handed to the session at
    /// `now`, that may land verdicts; then publishes whatever horizon it
    /// reached.
    fn drive(&mut self, now: Instant, step: impl FnOnce(&mut Shards, &SourceTable)) {
        let before = self.shards.completed;
        step(&mut self.shards, &self.sources);
        let Some(wm) = self.shards.completed.filter(|wm| Some(*wm) != before) else {
            return;
        };
        let m = self.metrics;
        self.stall.moved(wm, now, m);
        self.publish();
        // Sampled flights at or behind the new horizon are folded — the
        // first advance to pass one closes its session-side hop — and a
        // folded flight completes at the first consistent verdict: the
        // time in between is §4.3's wait instead of a false alarm.
        let consistent = self.shards.verdict.status().is_consistent();
        let flight = &self.flight;
        self.traced.retain_mut(|fl| {
            if fl.time > wm {
                return true;
            }
            let folded = *fl.folded.get_or_insert_with(|| {
                flight.record(
                    now,
                    stage::FOLDED,
                    Some(fl.ctx.child(stage::JOURNALED)),
                    fl.time.as_nanos(),
                    0,
                );
                m.flight_received_to_folded
                    .observe(nanos_since(fl.received, now));
                now
            });
            if consistent {
                m.flight_folded_to_consistent
                    .observe(nanos_since(folded, now));
                m.flights_completed.inc();
            }
            !consistent
        });
        // Last: whoever polls the stats for this watermark may rely on
        // the gauges and flight records above being there already.
        m.publish_watermark(wm);
    }

    /// The source table changed at `now`: republish it, then advance
    /// the fold.
    fn gate_moved(&mut self, now: Instant) {
        self.metrics.publish_sources(&self.sources);
        self.drive(now, |b, sources| b.gate_moved(sources, now));
    }

    /// Publishes the fold and per-source gauges.
    fn publish(&self) {
        self.metrics
            .publish_fold(&self.shards.gauges, &self.shards.verdict);
        self.metrics.publish_sources(&self.sources);
    }

    /// One message from a reader (or the handle), received at `now`.
    fn on_msg(&mut self, msg: Msg, now: Instant) {
        match msg {
            Msg::Hello { conn, hello, ack } => {
                let source = hello.source;
                if !self.shards.owns(source) {
                    // A mis-wired client: this router belongs to
                    // another collector. Dropping the ack handle hangs
                    // up; the sink will resolve its real collector.
                    return;
                }
                self.last_heard[source.0 as usize] = now;
                if self.sources.state(source) == SourceState::Evicted {
                    // Journal the re-admission before widening the
                    // gate, mirroring the eviction in `on_timer`.
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
                self.gate_moved(now);
            }
            Msg::Events { conn, batch, defs } => {
                let Some(source) = self.heard_from(conn, now) else {
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
                                    now,
                                    stage::JOURNALED,
                                    Some(ctx.child(stage::DECODED)),
                                    u64::from(source.0),
                                    rec.seq,
                                );
                                let m = self.metrics;
                                m.flight_received_to_journaled
                                    .observe(nanos_since(received, now));
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
                if let Some(newest) = fresh.iter().map(|rec| rec.rec.time).max() {
                    self.stall.ingested(newest, now);
                }
                let upto = self.sources.next_seq(source);
                let fin = self.sources.finished(source);
                self.shards
                    .ingest(conn, source, fresh, defs, (upto, fin), now);
                // Filling a gap may have settled a parked promise.
                self.gate_moved(now);
            }
            Msg::Watermark { conn, t, frontier } => {
                let Some(source) = self.heard_from(conn, now) else {
                    return;
                };
                self.sources.promise(source, t, frontier);
                self.gate_moved(now);
                self.ack(conn, source);
            }
            Msg::Heartbeat { conn } => {
                if let Some(source) = self.heard_from(conn, now) {
                    self.ack(conn, source);
                }
            }
            Msg::Bye { conn, frontier } => {
                let Some(source) = self.heard_from(conn, now) else {
                    return;
                };
                // A graceful goodbye: the source promises it will never
                // emit again, gated on its final frontier like any other
                // promise.
                self.sources.bye(source, frontier);
                self.gate_moved(now);
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
                    flight_repair_record(&record, &self.flight, self.metrics, now);
                    // The moment a repair is `Gated`, its proof goes to
                    // every peer.
                    if let (Some(p), RepairStage::Gated) = (&mut self.shards.peers, record.stage) {
                        p.broadcast_repair(&self.repairs, record.repair_id, now);
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
                self.drive(now, |b, sources| {
                    b.peer_frame(conn, frame, raw, sources, now)
                });
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

    /// A deadline passed: flags or evicts (journaled first) each source
    /// whose lease ran out, advances the fold, steps the stall watchdog.
    fn on_timer(&mut self, now: Instant) {
        let mut expired = false;
        for i in 0..self.last_heard.len() {
            let r = RouterId(i as u32);
            if self.lease_expiry(r).is_none_or(|t| t > now) {
                continue;
            }
            expired = true;
            let silent = now.saturating_duration_since(self.last_heard[i]);
            if silent < self.lease.evict_after {
                self.sources.set_lagging(r);
                continue;
            }
            self.shards
                .journal(Some(r), encode_frame(&Frame::Evict { source: r }));
            self.sources.evict(r);
            self.metrics.evictions.inc();
            // Every eviction freezes exactly one black box: the dump
            // holds the ring state that explains *why* the fold was
            // gated when the lease gave up on this source.
            let (a, b) = (u64::from(r.0), silent.as_secs());
            self.flight.record(now, stage::EVICTION, None, a, b);
            self.metrics.flight_dump("eviction");
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
        }
        if expired {
            self.gate_moved(now);
        }
        let (after, flight) = (self.lease.stall_after, &self.flight);
        self.stall.tick(now, after, self.metrics, flight);
    }
}

/// The nanoseconds from `since` to `now` (0 if `now` is earlier).
fn nanos_since(since: Instant, now: Instant) -> u64 {
    now.saturating_duration_since(since).as_nanos() as u64
}

/// Starts the session thread: [`run`] over `shards`, resuming from the
/// recovered `sources` and `repairs`, started at `now`.
pub(crate) fn spawn(
    rx: Receiver<Msg>,
    shards: Shards,
    (sources, repairs): (SourceTable, RepairLedger),
    cfg: &CollectorConfig,
    metrics: &Arc<CollectorMetrics>,
    now: Instant,
) -> io::Result<JoinHandle<(FoldReport, Option<io::Error>)>> {
    let (lease, metrics) = (cfg.lease, Arc::clone(metrics));
    thread::Builder::new()
        .name("cpvr-session".into())
        .spawn(move || {
            let s = Session::new(shards, sources, repairs, lease, &metrics, now);
            run(rx, s, now)
        })
}

/// The [`Session`]'s shell, from its start at `now` until every sender
/// of `rx` is gone; then closes the engine and returns the fold. It
/// reads the clock once per wake.
fn run(rx: Receiver<Msg>, mut s: Session<'_>, mut now: Instant) -> (FoldReport, Option<io::Error>) {
    loop {
        let deadline = s.deadline();
        let got = match deadline {
            Some(d) => rx.recv_timeout(d.saturating_duration_since(now)),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        now = Instant::now();
        match got {
            Ok(msg) => s.on_msg(msg, now),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if deadline.is_some_and(|d| d <= now) {
            s.on_timer(now);
        }
    }
    s.shards.finish(s.sources.stalled(), s.repairs)
}

#[cfg(test)]
mod driver;

#[cfg(test)]
mod tests {
    //! The session in virtual time: no sockets, no sleeps. Each test
    //! starts the real engine over a throwaway journal, hands the session
    //! constructed instants, and reads the decisions it made.

    use super::*;
    use crate::codec::Hello;
    use crate::collector::CollectorStats;
    use crate::metrics::source_state_code;
    use crate::pipeline::{IngestPipeline, PipelineConfig, WalScan};
    use cpvr_sim::scenario::paper_scenario;
    use cpvr_sim::{CaptureProfile, IoEvent, LatencyProfile};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;
    use std::ops::Range;
    use std::sync::OnceLock;

    /// Routers in the paper scenario.
    const N: u32 = 3;

    const MS: Duration = Duration::from_millis(1);

    // A collector's engine and registry over a fresh journal.
    use super::driver::Member as Rig;

    /// Router `r`'s handshake on connection `conn`, with no ack socket.
    fn hello(conn: u64, r: u32, first_seq: u64) -> Msg {
        let hello = Hello {
            source: RouterId(r),
            n_routers: N,
            session: 0x5e55_0000 + u64::from(r),
            first_seq,
        };
        Msg::Hello {
            conn,
            hello,
            ack: None,
        }
    }

    fn promise(conn: u64, t: SimTime, frontier: u64) -> Msg {
        Msg::Watermark { conn, t, frontier }
    }

    fn events<'e>(conn: u64, batch: impl IntoIterator<Item = (u64, &'e IoEvent)>) -> Msg {
        let batch = batch.into_iter().map(|(seq, e)| EventRec::new(seq, e));
        Msg::Events {
            conn,
            batch: batch.collect(),
            defs: Vec::new(),
        }
    }

    /// The paper scenario's capture, announce and re-announce: 104
    /// events over three routers.
    fn trace() -> &'static [IoEvent] {
        static TRACE: OnceLock<Vec<IoEvent>> = OnceLock::new();
        TRACE.get_or_init(|| {
            let latency = LatencyProfile::fast();
            let mut s = paper_scenario(latency, CaptureProfile::ideal(), 1);
            s.sim.start();
            s.sim.run_to_quiescence(100_000);
            let later = |ms| s.sim.now() + SimTime::from_millis(ms);
            let (first, second) = (later(5), later(400));
            s.sim.schedule_ext_announce(first, s.ext_r1, &[s.prefix]);
            s.sim.schedule_ext_announce(second, s.ext_r2, &[s.prefix]);
            s.sim.run_to_quiescence(100_000);
            s.sim.trace().events.clone()
        })
    }

    /// Router `r`'s events in wire order.
    fn stream(r: u32) -> Vec<IoEvent> {
        let mut mine: Vec<IoEvent> = trace()
            .iter()
            .filter(|e| e.router == RouterId(r))
            .cloned()
            .collect();
        mine.sort_by_key(|e| (e.time, e.id));
        mine
    }

    /// At the default leases an idle collector with live sources sleeps
    /// until the first lagging deadline, and a source is marked lagging
    /// exactly there — published at once — and live again, published at
    /// once, on its next word.
    #[test]
    fn a_source_is_marked_lagging_exactly_at_lagging_after() {
        let lease = LeaseConfig::default();
        let rig = Rig::new(1, lease);
        let t0 = Instant::now();
        let mut s = rig.session(t0);
        for r in 0..N {
            s.on_msg(hello(u64::from(r), r, 0), t0);
        }
        let later = t0 + 5 * MS;
        s.on_msg(Msg::Heartbeat { conn: 0 }, later);
        assert_eq!(s.deadline(), Some(t0 + lease.lagging_after));

        let live = source_state_code(SourceState::Live);
        let lagging = source_state_code(SourceState::Lagging);
        s.on_timer(t0 + lease.lagging_after - Duration::from_nanos(1));
        assert_eq!(rig.state_gauge(1), Some(live));
        s.on_timer(t0 + lease.lagging_after);
        assert_eq!(s.sources.state(RouterId(1)), SourceState::Lagging);
        assert_eq!(s.sources.state(RouterId(0)), SourceState::Live);
        assert_eq!(rig.state_gauge(1), Some(lagging), "published when it flips");
        assert_eq!(s.deadline(), Some(later + lease.lagging_after));

        s.on_msg(Msg::Heartbeat { conn: 1 }, t0 + lease.lagging_after + MS);
        assert_eq!(s.sources.state(RouterId(1)), SourceState::Live);
        assert_eq!(
            rig.state_gauge(1),
            Some(live),
            "Lagging → Live is published too"
        );
        assert_eq!(rig.metrics.stats().evictions, 0);
        s.shards.finish(Vec::new(), RepairLedger::new());
    }

    /// A silent source is evicted exactly `evict_after` after it was
    /// last heard: the eviction is journaled, its connection hung up,
    /// and one dump frozen; a later hello re-admits it.
    #[test]
    fn a_source_is_evicted_journaled_and_hung_up_exactly_at_evict_after() {
        let lease = LeaseConfig {
            lagging_after: Duration::from_secs(1),
            evict_after: Duration::from_secs(3),
            stall_after: Duration::MAX,
        };
        let rig = Rig::new(2, lease).armed();
        let t0 = Instant::now();
        let mut s = rig.session(t0);
        for r in 0..N {
            s.on_msg(hello(u64::from(r), r, 0), t0);
        }
        let heard = t0 + 700 * MS;
        for conn in [0, 1] {
            s.on_msg(Msg::Heartbeat { conn }, heard);
        }
        // Router 2's lease: lagging at 1 s, out at 3 s.
        s.on_timer(t0 + lease.lagging_after);
        assert_eq!(s.deadline(), Some(heard + lease.lagging_after));
        s.on_timer(heard + lease.lagging_after);
        assert_eq!(s.deadline(), Some(t0 + lease.evict_after));

        s.on_timer(t0 + lease.evict_after - Duration::from_nanos(1));
        assert_eq!(s.sources.state(RouterId(2)), SourceState::Lagging);
        assert!(s.conn_source.contains_key(&2));
        s.on_timer(t0 + lease.evict_after);
        assert_eq!(s.sources.state(RouterId(2)), SourceState::Evicted);
        assert!(!s.conn_source.contains_key(&2), "hung up");
        assert_eq!(rig.metrics.stats().evictions, 1);
        assert_eq!(
            rig.metrics.flight.last_reason().as_deref(),
            Some("eviction")
        );
        let evicted = source_state_code(SourceState::Evicted);
        assert_eq!(rig.state_gauge(2), Some(evicted));
        assert_eq!(s.deadline(), Some(heard + lease.evict_after));

        // The hung-up connection is not heard from any more.
        let e = &stream(2)[0];
        s.on_msg(events(2, [(0, e)]), t0 + lease.evict_after + MS);
        assert_eq!(rig.metrics.stats().events, 0);
        let (_, err) = s.shards.finish(Vec::new(), RepairLedger::new());
        assert!(err.is_none());
        let scan = WalScan::read(rig.cfg.pipeline, rig.dir.path(), 2).unwrap();
        assert_eq!(
            scan.sources.state(RouterId(2)),
            SourceState::Evicted,
            "journaled"
        );
        assert_eq!(scan.sources.state(RouterId(1)), SourceState::Live);
    }

    /// The stall clock starts when the first event waits behind a still
    /// watermark, not when the watermark last moved: after an idle spell
    /// far longer than `stall_after`, the marker lands exactly
    /// `stall_after` after the first waiting event. With no leases and
    /// nothing waiting the session has no deadline at all.
    #[test]
    fn a_stall_marker_lands_exactly_at_stall_after_the_first_waiting_event() {
        let stall_after = Duration::from_millis(400);
        let lease = LeaseConfig {
            stall_after,
            ..LeaseConfig::disabled()
        };
        let rig = Rig::new(1, lease).armed();
        let t0 = Instant::now();
        let mut s = rig.session(t0);
        for r in 0..N {
            s.on_msg(hello(u64::from(r), r, 0), t0);
        }
        assert_eq!(s.deadline(), None, "idle and lease-free: never wakes");

        // Router 0 sends after a long idle spell and promises past it;
        // routers 1 and 2 never promise, so the event waits.
        let t1 = t0 + Duration::from_secs(10);
        let mine = stream(0);
        s.on_msg(events(0, [(0, &mine[0])]), t1);
        let (t, frontier) = (mine[1].time, 1);
        s.on_msg(promise(0, t, frontier), t1);
        assert_eq!(s.shards.completed, None, "the watermark is still");
        assert_eq!(rig.metrics.flight.dumps_written(), 0, "no dump at once");
        assert_eq!(s.deadline(), Some(t1 + stall_after));

        s.on_timer(t1 + stall_after - Duration::from_nanos(1));
        assert_eq!(rig.metrics.flight.dumps_written(), 0);
        s.on_timer(t1 + stall_after);
        assert_eq!(rig.metrics.flight.dumps_written(), 1);
        assert_eq!(rig.metrics.flight.last_reason().as_deref(), Some("stall"));
        // The gauge ticks each whole second; the marker does not repeat.
        assert_eq!(s.deadline(), Some(t1 + Duration::from_secs(1)));
        s.on_timer(t1 + Duration::from_secs(2));
        assert_eq!(rig.metrics.watermark_stall_seconds.value(), 2);
        assert_eq!(rig.metrics.flight.dumps_written(), 1);

        // The other routers promise: the watermark moves, the episode ends.
        let now = t1 + Duration::from_secs(2);
        for conn in [1, 2] {
            s.on_msg(promise(conn, t, 0), now);
        }
        assert_eq!(s.shards.completed, Some(t));
        assert_eq!(rig.metrics.watermark_stall_seconds.value(), 0);
        assert_eq!(s.deadline(), None);
        s.shards.finish(Vec::new(), RepairLedger::new());
    }

    /// Events still waiting beyond an advance start a new stall episode
    /// at that advance: router 0 sends 35 events, every router promises
    /// the first one's time, the fold advances to it — and then nothing
    /// more arrives. The session keeps a deadline, and the one marker
    /// lands `stall_after` after the advance.
    #[test]
    fn events_waiting_beyond_an_advance_still_stall() {
        let stall_after = Duration::from_millis(400);
        let lease = LeaseConfig {
            stall_after,
            ..LeaseConfig::disabled()
        };
        let rig = Rig::new(1, lease).armed();
        let t0 = Instant::now();
        let mut s = rig.session(t0);
        for r in 0..N {
            s.on_msg(hello(u64::from(r), r, 0), t0);
        }
        let mine = stream(0);
        let sent = &mine[..35];
        s.on_msg(events(0, (0..).zip(sent)), t0);
        let t = sent[0].time;
        assert!(sent.iter().any(|e| e.time > t), "some events lie beyond it");

        let t1 = t0 + 100 * MS;
        s.on_msg(promise(0, t, sent.len() as u64), t1);
        for conn in [1, 2] {
            s.on_msg(promise(conn, t, 0), t1);
        }
        assert_eq!(s.shards.completed, Some(t), "the fold advanced");
        assert_eq!(s.deadline(), Some(t1 + stall_after));

        s.on_timer(t1 + stall_after - Duration::from_nanos(1));
        assert_eq!(rig.metrics.flight.dumps_written(), 0);
        s.on_timer(t1 + stall_after);
        assert_eq!(rig.metrics.flight.dumps_written(), 1);
        assert_eq!(rig.metrics.flight.last_reason().as_deref(), Some("stall"));
        s.on_timer(t1 + Duration::from_secs(3));
        assert_eq!(rig.metrics.watermark_stall_seconds.value(), 3);
        assert_eq!(rig.metrics.flight.dumps_written(), 1, "one marker");
        s.shards.finish(Vec::new(), RepairLedger::new());
    }

    /// The seeded driver's leases: short enough that a scripted silence
    /// evicts its source, and that the stall watchdog fires meanwhile.
    const DRIVER_LEASE: LeaseConfig = LeaseConfig {
        lagging_after: Duration::from_secs(1),
        evict_after: Duration::from_secs(3),
        stall_after: Duration::from_secs(2),
    };

    /// One router's sender as the driver plays it.
    struct Sender {
        r: u32,
        stream: Vec<IoEvent>,
        /// The sequence number of the next event it sends in order.
        sent: u64,
        /// The connection it speaks on.
        conn: u64,
        /// A scripted silence: it says nothing until then, and then
        /// speaks on a new connection.
        silent_until: Option<Instant>,
        byed: bool,
    }

    /// What the script delivered, classified by the driver's own model
    /// of the session's rules: a cursor per source, and the late gate as
    /// read before each delivery.
    #[derive(Default)]
    struct Script {
        cursor: [u64; N as usize],
        accepted: Vec<IoEvent>,
        dups: u64,
        gaps: u64,
        late: u64,
        silences: u64,
    }

    impl Script {
        /// Delivers `sd`'s events `seqs` as one batch at `now`.
        fn deliver(&mut self, s: &mut Session<'_>, sd: &Sender, seqs: Range<u64>, now: Instant) {
            let (gate, next) = (s.shards.advanced, &mut self.cursor[sd.r as usize]);
            for seq in seqs.clone() {
                let e = &sd.stream[seq as usize];
                match seq.cmp(next) {
                    Ordering::Less => self.dups += 1,
                    Ordering::Greater => self.gaps += 1,
                    Ordering::Equal if gate.is_some_and(|g| e.time <= g) => {
                        *next += 1;
                        self.late += 1;
                    }
                    Ordering::Equal => {
                        *next += 1;
                        self.accepted.push(e.clone());
                    }
                }
            }
            let batch = seqs.map(|q| (q, &sd.stream[q as usize]));
            s.on_msg(events(sd.conn, batch), now);
        }
    }

    /// One seeded run: the three routers' streams delivered in a seeded
    /// interleaving under virtual time, with duplicate batches, gaps
    /// later refilled, same-session reconnect replays, silences past
    /// `evict_after` followed by re-admission, and byes. Timers fire at
    /// the session's own deadlines, as the shell's would. Returns the
    /// fold, the script, and the session's counters.
    fn drive(seed: u64, shards: u32) -> (FoldReport, Script, CollectorStats) {
        let rig = Rig::new(shards, DRIVER_LEASE);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = Instant::now();
        let mut s = rig.session(now);
        let mut script = Script::default();
        let mut senders: Vec<Sender> = (0..N)
            .map(|r| Sender {
                r,
                stream: stream(r),
                sent: 0,
                conn: u64::from(r),
                silent_until: None,
                byed: false,
            })
            .collect();
        let mut next_conn = u64::from(N);
        for sd in &senders {
            s.on_msg(hello(sd.conn, sd.r, 0), now);
        }
        loop {
            let awake: Vec<usize> = (0..senders.len())
                .filter(|&i| !senders[i].byed && senders[i].silent_until.is_none_or(|t| t <= now))
                .collect();
            let to = if awake.is_empty() {
                let wakes = senders.iter().filter_map(|sd| sd.silent_until);
                match wakes.min() {
                    Some(t) => t,
                    None => break,
                }
            } else {
                now + rng.gen_range(0..=20u32) * MS
            };
            while let Some(d) = s.deadline().filter(|d| *d <= to) {
                s.on_timer(d);
                let moved = s.deadline().is_none_or(|next| next > d);
                assert!(moved, "seed {seed}: a timer step must move the deadline");
            }
            now = to;
            if awake.is_empty() {
                continue;
            }
            let sd = &mut senders[awake[rng.gen_range(0..awake.len())]];
            if sd.silent_until.take().is_some() || !s.conn_source.contains_key(&sd.conn) {
                // A reconnect after a silence or a hang-up: the old
                // reader's close and the new connection's hello arrive in
                // either order, and the sender replays from a little
                // behind where it was.
                let (old, back) = (sd.conn, rng.gen_range(0..=4u64).min(sd.sent));
                let closed_first = rng.gen_bool(0.5);
                if closed_first {
                    s.on_msg(Msg::Closed { conn: old }, now);
                }
                (sd.conn, sd.sent) = (next_conn, sd.sent - back);
                next_conn += 1;
                s.on_msg(hello(sd.conn, sd.r, sd.sent), now);
                if !closed_first {
                    s.on_msg(Msg::Closed { conn: old }, now);
                }
                continue;
            }
            let len = sd.stream.len() as u64;
            match rng.gen_range(0..100u32) {
                // A duplicate batch: events already sent, again.
                0..=7 if sd.sent > 0 => {
                    let end = rng.gen_range(1..=sd.sent);
                    let start = end.saturating_sub(rng.gen_range(1..=4u64));
                    script.deliver(&mut s, sd, start..end, now);
                }
                // A gap: a batch from past the next event, which the
                // in-order batches refill later.
                8..=15 if sd.sent + 2 <= len => {
                    let start = rng.gen_range(sd.sent + 1..len);
                    let end = (start + rng.gen_range(1..=4u64)).min(len);
                    script.deliver(&mut s, sd, start..end, now);
                }
                // The connection drops; the next turn reconnects.
                16..=19 => s.on_msg(Msg::Closed { conn: sd.conn }, now),
                // A silence past the eviction threshold.
                20..=21 if script.silences < 2 => {
                    let extra = rng.gen_range(0..1000u32) * MS;
                    sd.silent_until = Some(now + DRIVER_LEASE.evict_after + extra);
                    script.silences += 1;
                }
                22..=27 => s.on_msg(Msg::Heartbeat { conn: sd.conn }, now),
                _ => {
                    let end = (sd.sent + rng.gen_range(1..=8u64)).min(len);
                    script.deliver(&mut s, sd, sd.sent..end, now);
                    sd.sent = end;
                    let (conn, frontier) = (sd.conn, end);
                    if end == len {
                        s.on_msg(Msg::Bye { conn, frontier }, now);
                        sd.byed = true;
                    } else if rng.gen_bool(0.5) {
                        // Everything before the next event is sent.
                        let t = sd.stream[end as usize].time.as_nanos() - 1;
                        let t = SimTime::from_nanos(t);
                        s.on_msg(promise(conn, t, end), now);
                    }
                }
            }
        }
        let ended = s.shards.completed == Some(SimTime::MAX);
        assert!(ended, "seed {seed}: every stream ended");
        let (report, err) = s.shards.finish(s.sources.stalled(), s.repairs);
        assert!(err.is_none(), "seed {seed}: {err:?}");
        (report, script, rig.metrics.stats())
    }

    /// Everything about a fold two runs of one script must agree on.
    fn fold_of(r: &FoldReport) -> impl PartialEq + std::fmt::Debug {
        let dp = r.dataplane();
        let fibs: Vec<_> = (0..N)
            .map(|i| (dp.fib(RouterId(i)).entries(), dp.taken_at(RouterId(i))))
            .collect();
        let (edges, counts) = (r.canonical_edges(), r.edge_counts());
        let shape = (r.events(), r.processed(), r.pending(), r.watermark());
        (shape, edges, counts, r.status(), r.wait_stats(), fibs)
    }

    /// One seed's two checks: the fold equals the in-process pipeline
    /// over exactly the events the script says the session accepted,
    /// with the counters the script predicts; and a second run of the
    /// seed gives the identical fold and counters.
    fn check_seed(seed: u64, shards: u32) {
        let (report, script, stats) = drive(seed, shards);
        let label = format!("seed {seed} at {shards} shard(s)");
        let mut reference = IngestPipeline::new(PipelineConfig::new(N));
        for e in &script.accepted {
            reference.ingest(e);
        }
        reference.advance(SimTime::MAX);
        let dp = reference.tracker().dataplane();
        let fibs: Vec<_> = (0..N)
            .map(|i| (dp.fib(RouterId(i)).entries(), dp.taken_at(RouterId(i))))
            .collect();
        let b = reference.builder();
        assert_eq!(report.events(), reference.events(), "{label}: events");
        assert_eq!(report.processed(), b.processed(), "{label}: folded");
        let edges = b.hbg().canonical_edges();
        assert_eq!(report.canonical_edges(), edges, "{label}: HBG");
        assert_eq!(report.edge_counts(), b.edge_counts(), "{label}: per rule");
        assert_eq!(report.status(), reference.status(), "{label}: verdict");
        assert_eq!(report.watermark(), reference.watermark(), "{label}");
        let got: Vec<_> = (0..N)
            .map(|i| {
                let dp = report.dataplane();
                (dp.fib(RouterId(i)).entries(), dp.taken_at(RouterId(i)))
            })
            .collect();
        assert_eq!(got, fibs, "{label}: data plane");
        let counted = (stats.events, stats.duplicate_events, stats.gap_events);
        let scripted = (script.accepted.len() as u64, script.dups, script.gaps);
        assert_eq!(counted, scripted, "{label}: fresh, duplicate, gap");
        assert_eq!(stats.late_events, script.late, "{label}: late");
        let leases = (stats.evictions, stats.readmissions);
        assert_eq!(leases, (script.silences, script.silences), "{label}");

        let (again, _, stats_again) = drive(seed, shards);
        assert_eq!(fold_of(&report), fold_of(&again), "{label}: rerun");
        assert_eq!(format!("{stats:?}"), format!("{stats_again:?}"), "{label}");
    }

    /// Flight stage codes 10–15 are the repair stages in wire-byte
    /// order; dumps from older builds keep their meaning.
    #[test]
    fn repair_stage_codes_follow_the_wire_bytes() {
        let codes: Vec<u32> = RepairStage::ALL.map(repair_stage_code).to_vec();
        assert_eq!(codes, [10, 11, 12, 13, 14, 15]);
        let named = [
            stage::REPAIR_PROPOSED,
            stage::REPAIR_PROVEN,
            stage::REPAIR_GATED,
            stage::REPAIR_APPLIED,
            stage::REPAIR_BLOCKED,
            stage::REPAIR_ROLLED_BACK,
        ];
        assert_eq!(codes, named);
    }

    #[test]
    fn seeded_driver_matches_the_in_process_fold() {
        for seed in 0..64 {
            check_seed(seed, 1 + (seed % 2) as u32);
        }
    }

    /// The sweep CI runs: a thousand seeds at one and at two fold
    /// shards, one seed after another.
    #[test]
    #[ignore = "a thousand seeds per shard count; CI runs it"]
    fn seeded_driver_sweep() {
        for shards in [1, 2] {
            for seed in 0..1000 {
                check_seed(seed, shards);
            }
        }
    }
}
