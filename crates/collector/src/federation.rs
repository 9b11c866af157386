//! Federated collectors: N members, each folding a disjoint router
//! subset, exchanging *partial* happens-before state instead of raw
//! streams.
//!
//! A federation member is one slot of the [`FederationPlan`], promoted
//! to its own process, and runs the one engine every collector runs:
//! the session loop over `shard::Shards`, with
//! `cfg.shards` workers folding the member's slot
//! ([`FederationPlan::shard_plan`]). The other members' shards are
//! remote, and `Peers` — which `Shards` owns only on a member — stands
//! in for them in every barrier round over the wire codec's peer frames
//! (kinds 12–15). This module holds the peer links — each kept up by
//! its own thread, which dials, replays and drops a stalled connection,
//! so the session never ticks for them — the inbound cursors, the
//! frontier advertisements and round grid, the eager boundary frames,
//! and peer repair-proof checks.
//!
//! ## The federated round
//!
//! Every member advertises its own source-table minimum with
//! [`FrontierExchange`] frames whenever it moves. The **federated
//! minimum** is the least of all members' advertised minima; each
//! observed value is queued as a fold horizon, and rounds are strictly
//! serial. In a round, a member ships each peer its boundary digests as
//! a [`BoundaryEdges`] frame tagged with the round (an empty one still
//! ships — it is the round-completion marker), delivers the peers'
//! once all arrived, broadcasts its shards' missing sets as a
//! [`PartialVerdict`], and merges every member's into the *global*
//! verdict once all arrived — bit-identical to the monolithic
//! tracker's by the tracker slice's decomposition property.
//!
//! Cross-member happens-before edges need the boundary conversation
//! sides, and a side crosses to a peer exactly as it crosses to another
//! own shard: as its [`FoldRecord`]. `Shards::route_cross` groups every
//! ingested batch's records by the global shard owning their
//! conversations; own shards get them over their channel, and each peer
//! owning some gets them in one untagged [`BoundaryEdges`] frame,
//! eagerly, not at round open. TCP FIFO ordering makes the fold sound:
//! a member forwards every boundary record at or below `F` before it
//! advertises a minimum of `F` on the same link.
//!
//! ## Durability and recovery
//!
//! Members journal like every collector, plus — into series 0, in
//! session order — inbound peer frames (before the ack that follows
//! them there: a peer link is the same go-back-N link as a client
//! sink's, the `link` module), peer hellos, their own
//! [`FrontierExchange`] records (so a recovering member regenerates the
//! very frontier history its peers gated rounds on), and a marker per
//! opened round. Recovery scans the journal like any collector's, seeds
//! the workers (forwarding boundary records afresh), then replays series
//! 0's peer and round records through the live apply path with
//! journaling off, regenerating every round digest and partial verdict
//! into the link windows under a fresh session. Receivers deduplicate
//! semantically — frontier minima max-merge, round frames at or behind
//! the completed horizon drop, boundary records deduplicate by event id.

use crate::client::ReconnectPolicy;
use crate::codec::{
    encode_frame, BoundaryEdges, Frame, FrontierExchange, PartialVerdict, PeerHello,
    PeerRepairProof,
};
use crate::collector::CollectorConfig;
use crate::link::{fresh_session, Cursor, Link, Next, ReplyReader, Sender};
use crate::metrics::{furthest, gauge_nanos, lag_nanos, CollectorMetrics};
use crate::pipeline::{Offer, SourceTable};
use crate::repair_journal::RepairLedger;
use crate::session::FOLD_RING_SLOTS;
use crate::shard::{FoldReport, WorkerMsg};
use cpvr_core::snapshot::{ConvDigest, SnapshotStatus};
use cpvr_core::{chain_over, FederationPlan, FoldRecord, RepairProof};
use cpvr_obs::trace::stage;
use cpvr_obs::RingHandle;
use cpvr_sim::EventId;
use cpvr_types::json::{from_str, to_string_compact};
use cpvr_types::trace::TRACE_CTX_WIRE_LEN;
use cpvr_types::{fnv1a64, RouterId, SimTime, TraceCtx};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Write timeout on outbound peer links; a stalled peer forfeits the
/// connection (frames stay buffered and replay on reconnect).
const PEER_WRITE_TIMEOUT: Duration = Duration::from_millis(250);
/// Connect timeout for (re)dialing a peer.
const PEER_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// Reconnect backoff bounds.
pub(crate) const PEER_RECONNECT_MIN: Duration = Duration::from_millis(50);
pub(crate) const PEER_RECONNECT_MAX: Duration = Duration::from_secs(2);
/// How long unacked frames may wait on a live link with no ack progress
/// before the link is dropped to replay them. A frame damaged in flight
/// is quarantined by the peer, which then drops every later frame as a
/// gap and re-acks the same cursor: only a go-back-N replay heals that.
/// A healthy member's acks can pause too: they leave behind worker 0's
/// journaling backlog, and on a 2-vCPU box under bulk ingest, healthy
/// links went up to ~770 ms between ack advances (two federations
/// sharing the box; ~570 ms alone). The bound sits well clear of that,
/// so a busy peer is not sent its whole window again;
/// `cpvr_peer_ack_stalls_total` counts the drops.
pub(crate) const PEER_ACK_STALL: Duration = Duration::from_secs(2);
/// A peer link's redials and stall bound. It never gives up, never
/// solicits (acks follow every frame the peer journals), and redials
/// without jitter: a federation has a handful of links, not a storm.
pub(crate) const PEER_POLICY: ReconnectPolicy = ReconnectPolicy {
    max_attempts: u32::MAX,
    base_delay: PEER_RECONNECT_MIN,
    max_delay: PEER_RECONNECT_MAX,
    stall_after: PEER_ACK_STALL,
};

/// Federation membership for one collector.
#[derive(Clone, Debug)]
pub struct FederationConfig {
    /// Which member owns which routers (and conversations).
    pub plan: FederationPlan,
    /// This collector's member index, `0..plan.members()`.
    pub member: u32,
    /// Every member's listen address, self included (the own slot is
    /// never dialed). Must have exactly `plan.members()` entries.
    pub peers: Vec<SocketAddr>,
}

/// What kind of collector produced a
/// [`CollectorReport`](crate::collector::CollectorReport): a standalone/sharded
/// collector, or one member of a federation — with its last view of
/// every peer.
#[derive(Clone, Debug)]
pub enum CollectorRole {
    /// Not federated: its fold shards all run in-process.
    Standalone,
    /// One member of an N-collector federation.
    Member {
        /// This collector's member index.
        member: u32,
        /// Total federation size.
        members: u32,
        /// Final state of every *other* member, as seen over the wire.
        peers: Vec<PeerSummary>,
    },
}

/// A member's last knowledge of one peer.
#[derive(Clone, Debug)]
pub struct PeerSummary {
    /// The peer's member index.
    pub member: u32,
    /// The peer's last advertised source-table minimum.
    pub min: Option<SimTime>,
}

/// The `(member, link sequence)` header of a peer frame (kinds 12–15,
/// the ones that travel member to member over a go-back-N link); `None`
/// for any other frame.
pub(crate) fn peer_header(frame: &Frame) -> Option<(u32, u64)> {
    Some(match frame {
        Frame::FrontierExchange(f) => (f.member, f.seq),
        Frame::BoundaryEdges(b) => (b.member, b.seq),
        Frame::PartialVerdict(p) => (p.member, p.seq),
        Frame::PeerRepairProof(r) => (r.member, r.seq),
        _ => return None,
    })
}

/// A member's record of one peer-advertised repair proof, after
/// independent re-validation: the receiving member does not trust the
/// owner's verdict blindly — it reparses the proof, recomputes the
/// provenance hash chain, and re-derives the content digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerProofStatus {
    /// Which member gated (and advertised) the repair.
    pub from: u32,
    /// The owner's gate verdict code (0 reproduced / 1 diverged /
    /// 2 error).
    pub verdict: u8,
    /// Whether the proof parsed and its recomputed hash chain over the
    /// provenance path matches the embedded chain (and is non-empty).
    pub chain_ok: bool,
    /// Whether the proof's re-encoded binary digest matches the digest
    /// the owner advertised — i.e. both members hold the same bytes.
    pub digest_ok: bool,
}

impl PeerProofStatus {
    /// A peer verdict this member may act on: the owner said
    /// REPRODUCED *and* both independent re-checks passed.
    pub fn trusted_reproduced(&self) -> bool {
        self.verdict == 0 && self.chain_ok && self.digest_ok
    }
}

/// One outbound peer connection: a link window numbered from 1,
/// replayed in order behind a fresh [`PeerHello`] on every reconnect.
/// The session thread numbers, holds and first-sends frames; the link's
/// own thread, from [`go_live`](Peers::go_live) until the link drops,
/// dials, hellos, replays, and drops a connection that died or whose
/// acks stalled.
struct PeerLink {
    link: Arc<Link>,
    /// The handshake every (re)connect opens with; `first_seq` is
    /// filled in at connect time.
    hello: PeerHello,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl PeerLink {
    fn new(hello: PeerHello, addr: SocketAddr) -> Self {
        PeerLink {
            link: Link::new(Sender::new(1, PEER_POLICY, None, None)),
            hello,
            addr,
            thread: None,
        }
    }

    /// Numbers, holds and best-effort writes one frame; returns its size.
    /// A failed write ends the connection, which wakes the link's thread
    /// to reconnect and replay.
    fn send(&mut self, make: impl FnOnce(u64) -> Frame) -> usize {
        let (mut guard, now) = (self.link.lock(), Instant::now());
        let s = &mut *guard;
        let bytes = s.window.push(now, |seq| encode_frame(&make(seq)));
        if let Some(mut c) = s.conn.as_ref() {
            if c.write_all(bytes).is_err() {
                let _ = c.shutdown(Shutdown::Both);
            }
        }
        let n = bytes.len();
        drop(guard);
        // The link's thread may now have a stall clock to watch.
        self.link.notify();
        n
    }

    /// Starts the link's thread.
    fn go_live(&mut self, metrics: &Arc<CollectorMetrics>) {
        let (link, hello, addr) = (Arc::clone(&self.link), self.hello.clone(), self.addr);
        let metrics = Arc::clone(metrics);
        let thread = thread::Builder::new()
            .name(format!("cpvr-peer-{}", hello.member))
            .spawn(move || keep_up(&link, hello, addr, &metrics));
        self.thread = thread.ok();
    }
}

impl Drop for PeerLink {
    fn drop(&mut self) {
        self.link.lock().stopped = true;
        self.link.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A peer link's thread, a shell around its sender: dials when told
/// to — hello, then the whole window — and drops the connection it is
/// told died or stalled, until the link drops.
fn keep_up(link: &Arc<Link>, mut hello: PeerHello, addr: SocketAddr, metrics: &CollectorMetrics) {
    let mut replies = None;
    while let Next::Redial { stalled } = link.ask(None, |s| s.stopped) {
        if stalled {
            metrics.peer_ack_stalls.inc();
        }
        // The old connection's reader stops before a new one starts.
        drop(replies.take());
        replies = dial(link, &mut hello, addr).ok();
    }
}

/// Connects to a peer and, holding the link so no first send can slip
/// in ahead of it, writes the hello — announcing where the replay
/// starts — and the entire unacked window, then starts its replies.
fn dial(link: &Arc<Link>, hello: &mut PeerHello, addr: SocketAddr) -> io::Result<ReplyReader> {
    let c = TcpStream::connect_timeout(&addr, PEER_CONNECT_TIMEOUT)?;
    c.set_nodelay(true)?;
    c.set_write_timeout(Some(PEER_WRITE_TIMEOUT))?;
    let mut s = link.lock();
    hello.first_seq = s.window.first_seq();
    let mut w = &c;
    w.write_all(&encode_frame(&Frame::PeerHello(hello.clone())))?;
    for bytes in s.window.frames() {
        w.write_all(bytes)?;
    }
    ReplyReader::start(&c, link, &mut s)
}

/// A federation member's peers, as the [`Shards`](crate::shard::Shards)
/// engine sees them: the remote participants of every barrier round. It
/// holds the outbound links and inbound cursors, the frontier
/// advertisements and the round grid they build, the peers' round
/// contributions until their round merges, the eager boundary frames
/// (sent as `Shards::send_crosses` groups them, received through the
/// late gate, deduplication and the router check), and peer
/// repair-proof checks. The same methods serve the live loop and WAL
/// replay: during replay nothing is journaled or acked, and outbound
/// frames accumulate in the link buffers.
pub(crate) struct Peers {
    pub(crate) member: u32,
    pub(crate) members: u32,
    n_routers: u32,
    plan: FederationPlan,
    /// Outbound links, indexed by member; `None` at the own index.
    links: Vec<Option<PeerLink>>,
    /// Inbound cursors, indexed by member.
    cursors: Vec<Cursor>,
    /// Which member each inbound peer connection speaks for.
    conn_peer: HashMap<u64, u32>,
    /// Each peer's last advertised minimum (own slot unused).
    peer_min: Vec<Option<SimTime>>,
    /// Each peer's last advertised frontier detail (own slot unused).
    peer_frontier: Vec<Vec<(RouterId, Option<SimTime>)>>,
    /// The highest own minimum ever advertised (and journaled).
    last_sent_min: Option<SimTime>,
    /// The round grid: every advertised minimum (own and peers') not yet
    /// opened. Advertisements reach every member in FIFO order, so all
    /// members converge on the *same* horizon set — a member must never
    /// fold at a horizon a peer's own-minimum sampling skipped, or the
    /// peers' round grids diverge and rounds deadlock.
    pending_horizons: BTreeSet<SimTime>,
    /// The peers' round digests and partial verdicts, by `(horizon,
    /// member)`, until their round merges.
    digests: BTreeMap<(SimTime, u32), Vec<ConvDigest>>,
    partials: BTreeMap<(SimTime, u32), Vec<RouterId>>,
    /// Ids (with times) of foreign boundary records already handed to a
    /// cross builder; pruned at each opened horizon.
    cross_seen: HashMap<EventId, SimTime>,
    /// Worker 0's inbox, which journals this member's peer, frontier and
    /// round records into series 0 and holds the inbound peers' ack
    /// sockets. `None` while the journal replays.
    series0: Option<SyncSender<WorkerMsg>>,
    /// The registry and the round machine's flight-recorder ring, both
    /// `None` until [`go_live`](Self::go_live): the journal replay leaves
    /// no telemetry — the live run already counted and recorded what it
    /// regenerates.
    metrics: Option<Arc<CollectorMetrics>>,
    flight: Option<RingHandle>,
    /// Peer-gated repairs received as [`PeerRepairProof`] frames, after
    /// independent re-validation. Keyed by repair id; first frame wins
    /// (regenerated replays are duplicates).
    peer_repairs: BTreeMap<u64, PeerProofStatus>,
}

impl Peers {
    pub(crate) fn new(cfg: &CollectorConfig, fed: &FederationConfig) -> Self {
        let n_routers = cfg.pipeline.n_routers;
        let members = fed.plan.members();
        let hello = PeerHello {
            member: fed.member,
            members,
            n_routers,
            session: fresh_session(),
            first_seq: 1,
        };
        let links = (0..members)
            .map(|j| (j != fed.member).then(|| PeerLink::new(hello.clone(), fed.peers[j as usize])))
            .collect();
        Peers {
            member: fed.member,
            members,
            n_routers,
            plan: fed.plan.clone(),
            links,
            cursors: vec![Cursor::default(); members as usize],
            conn_peer: HashMap::new(),
            peer_min: vec![None; members as usize],
            peer_frontier: vec![Vec::new(); members as usize],
            last_sent_min: None,
            pending_horizons: BTreeSet::new(),
            digests: BTreeMap::new(),
            partials: BTreeMap::new(),
            cross_seen: HashMap::new(),
            series0: None,
            metrics: None,
            flight: None,
            peer_repairs: BTreeMap::new(),
        }
    }

    /// Ends replay: from here on records are journaled through worker 0,
    /// horizons open on their own, and the round machine leaves flight
    /// records.
    pub(crate) fn go_live(
        &mut self,
        series0: SyncSender<WorkerMsg>,
        metrics: &Arc<CollectorMetrics>,
    ) {
        self.series0 = Some(series0);
        self.flight = Some(metrics.flight.register("member", FOLD_RING_SLOTS));
        self.metrics = Some(Arc::clone(metrics));
        for l in self.links.iter_mut().flatten() {
            l.go_live(metrics);
        }
    }

    /// Whether this member folds `r`'s stream.
    pub(crate) fn owns(&self, r: RouterId) -> bool {
        self.plan.of_router(r) == self.member
    }

    /// Hands worker 0 a message (journal or peer ack); a no-op during
    /// replay.
    fn to_series0(&self, msg: WorkerMsg) {
        if let Some(tx) = &self.series0 {
            let _ = tx.send(msg);
        }
    }

    fn journal(&self, bytes: Vec<u8>) {
        self.to_series0(WorkerMsg::Journal { bytes });
    }

    /// The other members' indices.
    fn peers(&self) -> impl Iterator<Item = usize> {
        let me = self.member as usize;
        (0..self.members as usize).filter(move |j| *j != me)
    }

    /// Sends a frame on the link to member `j` (no-op for self).
    fn send_to(&mut self, j: usize, make: impl FnOnce(u64) -> Frame) {
        if let Some(link) = self.links[j].as_mut() {
            let n = link.send(make);
            if let Some(m) = &self.metrics {
                m.boundary_bytes_sent.add(n as u64);
            }
        }
    }

    /// Sends every peer the frame `make` builds for its link sequence
    /// number, counting the trace trailer if the frame carries one.
    fn broadcast(&mut self, traced: bool, make: impl Fn(u64) -> Frame) {
        for j in self.peers() {
            self.send_to(j, &make);
            if traced {
                self.count_trace();
            }
        }
    }

    fn count_trace(&self) {
        if let Some(m) = &self.metrics {
            m.trace_bytes.add(TRACE_CTX_WIRE_LEN as u64);
        }
    }

    /// Leaves one round-machine flight record (none during replay).
    fn record(&self, stage: u32, ctx: TraceCtx, a: u64, b: u64) {
        if let Some(f) = &self.flight {
            f.record(stage, Some(ctx), a, b);
        }
    }

    /// Ships member `j` the records of one ingested batch whose
    /// conversations its shards own, as an untagged [`BoundaryEdges`]
    /// frame.
    pub(crate) fn forward(&mut self, j: usize, records: Vec<FoldRecord>) {
        let (count, member) = (records.len() as u64, self.member);
        self.send_to(j, move |seq| {
            Frame::BoundaryEdges(BoundaryEdges {
                member,
                seq,
                round: None,
                records,
                digests: Vec::new(),
                // Eager forwards stay untraced: stamping every boundary
                // record would put the 12-byte trailer on the hot path
                // for no causal gain — the flight they belong to is
                // already traced at the sink.
                trace: None,
            })
        });
        if let Some(m) = &self.metrics {
            m.boundary_events_sent.add(count);
        }
    }

    /// Ships a gated repair's proof (and this member's verdict for it)
    /// to every peer. The proof travels as its JSON encoding plus the
    /// FNV-1a digest of the stored binary bytes, so receivers can prove
    /// they reconstructed the identical artifact. Recovery replays this
    /// same path, so a recovering owner regenerates its proof
    /// advertisements the way it regenerates frontier history.
    pub(crate) fn broadcast_repair(&mut self, ledger: &RepairLedger, repair_id: u64) {
        let Some(e) = ledger.get(repair_id) else {
            return;
        };
        let Some(verdict) = e.verdict else { return };
        if e.proof.is_empty() {
            return;
        }
        let digest = fnv1a64(&e.proof);
        let proof_json = match RepairProof::decode_binary(&e.proof) {
            Ok(p) => to_string_compact(&p),
            Err(_) => return,
        };
        let member = self.member;
        // The proof advertisement carries the repair's trace context so
        // peers stitch their re-validation onto the same causal chain.
        let ctx = TraceCtx::for_repair(repair_id);
        let trace = Some(ctx.child(stage::PROOF_BROADCAST));
        let gated = ctx.child(stage::REPAIR_GATED);
        self.record(stage::PROOF_BROADCAST, gated, repair_id, u64::from(verdict));
        self.broadcast(true, |seq| {
            Frame::PeerRepairProof(PeerRepairProof {
                member,
                seq,
                repair_id,
                digest,
                verdict,
                proof: proof_json.clone(),
                trace,
            })
        });
    }

    /// The federated fold minimum: the least of the own source-table
    /// minimum and every peer's advertised minimum (`None` while any
    /// of them is unknown).
    fn fed_min(&self, sources: &SourceTable) -> Option<SimTime> {
        let mut min = sources.global_min()?;
        for j in self.peers() {
            min = min.min(self.peer_min[j]?);
        }
        Some(min)
    }

    /// The next round to open: the lowest grid value above `advanced`,
    /// once nothing is in flight *and* the federated minimum has reached
    /// it (every member's streams are complete up to the horizon, so
    /// every member will open the very same round). Never during
    /// replay, where the journaled markers are the sole authority on
    /// which rounds opened.
    pub(crate) fn next_horizon(
        &mut self,
        sources: &SourceTable,
        advanced: Option<SimTime>,
    ) -> Option<SimTime> {
        self.series0.as_ref()?;
        if let Some(a) = advanced {
            self.supersede(a);
        }
        let f = *self.pending_horizons.first()?;
        if self.fed_min(sources) < Some(f) {
            return None;
        }
        self.pending_horizons.remove(&f);
        Some(f)
    }

    /// Drops the grid values at or below an opened horizon.
    pub(crate) fn supersede(&mut self, opened: SimTime) {
        self.pending_horizons = self.pending_horizons.split_off(&opened);
        self.pending_horizons.remove(&opened);
    }

    /// Advertises the own source-table minimum to every peer if it
    /// moved, journaling the record first: a recovering member must
    /// regenerate the identical frontier history, or a peer that never
    /// saw some intermediate value would fold a different round grid.
    pub(crate) fn advertise(&mut self, sources: &SourceTable) {
        let Some(m) = sources.global_min() else {
            return;
        };
        if self.last_sent_min >= Some(m) {
            return;
        }
        let f = FrontierExchange {
            member: self.member,
            seq: 0,
            min: Some(m),
            frontier: (0..self.n_routers)
                .map(RouterId)
                .filter(|r| self.owns(*r))
                .map(|r| (r, sources.promise_of(r)))
                .collect(),
        };
        self.journal(encode_frame(&Frame::FrontierExchange(f.clone())));
        self.replay_own_frontier(f);
        self.publish_peers(sources);
    }

    /// Applies one own frontier record — live, or replayed from the
    /// journal: restores the advertised-minimum history and sends it.
    pub(crate) fn replay_own_frontier(&mut self, f: FrontierExchange) {
        self.last_sent_min = self.last_sent_min.max(f.min);
        self.pending_horizons.extend(f.min);
        self.broadcast(false, |seq| {
            Frame::FrontierExchange(FrontierExchange {
                seq,
                frontier: f.frontier.clone(),
                ..f
            })
        });
    }

    /// Ships each peer its round digests as a [`BoundaryEdges`] frame
    /// tagged with the round (an empty digest list still ships — it is
    /// the round-completion marker).
    pub(crate) fn open_round(&mut self, f: SimTime, outboxes: Vec<Vec<ConvDigest>>) {
        // Boundary records at or behind the horizon are folded; their
        // dedup entries have no future duplicates to catch (the late
        // gate drops those first).
        self.cross_seen.retain(|_, t| *t > f);
        let member = self.member;
        // Round frames are trace-stamped with the horizon-derived
        // context: every member mints the same id for the same horizon,
        // so the round's hops stitch without any clock agreement.
        let ctx = TraceCtx::for_round(f);
        let round_trace = Some(ctx.child(stage::ROUND_OPENED));
        self.record(stage::ROUND_OPENED, ctx, f.as_nanos(), u64::from(member));
        for (j, digests) in outboxes.into_iter().enumerate() {
            if j == self.member as usize {
                continue;
            }
            self.send_to(j, move |seq| {
                Frame::BoundaryEdges(BoundaryEdges {
                    member,
                    seq,
                    round: Some(f),
                    records: Vec::new(),
                    digests,
                    trace: round_trace,
                })
            });
            self.count_trace();
        }
    }

    /// Broadcasts this member's partial verdict for round `f`.
    pub(crate) fn send_partial(&mut self, f: SimTime, missing: &[RouterId]) {
        let (member, ctx) = (self.member, TraceCtx::for_round(f));
        let boundary = ctx.child(stage::ROUND_BOUNDARY);
        self.record(
            stage::ROUND_PARTIAL,
            boundary,
            f.as_nanos(),
            missing.len() as u64,
        );
        self.broadcast(true, |seq| {
            Frame::PartialVerdict(PartialVerdict {
                member,
                seq,
                round: f,
                missing: missing.to_vec(),
                trace: Some(ctx.child(stage::ROUND_PARTIAL)),
            })
        });
    }

    /// The round at `f` merged its global verdict.
    pub(crate) fn round_complete(&mut self, f: SimTime, status: &SnapshotStatus, opened: Instant) {
        let missing = match status {
            SnapshotStatus::WaitFor(m) => m.len() as u64,
            _ => 0,
        };
        let ctx = TraceCtx::for_round(f).child(stage::ROUND_PARTIAL);
        self.record(stage::ROUND_COMPLETE, ctx, f.as_nanos(), missing);
        // Digests a recovering peer re-sent while the round was in
        // flight are duplicates now.
        self.digests.retain(|(t, _), _| *t > f);
        if let Some(m) = &self.metrics {
            m.fed_rounds.inc();
            m.partial_verdict_nanos.observe_since(opened);
        }
    }

    /// Files member `from`'s round digests for horizon `t` (first frame
    /// wins). A round tag is always some member's advertised value, so
    /// it joins the grid even if the advertisement is still in flight.
    pub(crate) fn file_digests(&mut self, t: SimTime, from: u32, digests: Vec<ConvDigest>) {
        self.pending_horizons.insert(t);
        self.digests.entry((t, from)).or_insert(digests);
    }

    /// Files member `from`'s partial verdict for horizon `t`, likewise.
    pub(crate) fn file_partial(&mut self, t: SimTime, from: u32, missing: Vec<RouterId>) {
        self.pending_horizons.insert(t);
        self.partials.entry((t, from)).or_insert(missing);
    }

    /// Every peer's round digests for `f`, in member order — `None`
    /// until all of them arrived.
    pub(crate) fn take_digests(&mut self, f: SimTime) -> Option<Vec<ConvDigest>> {
        let filed = take_round(&mut self.digests, f, self.members - 1)?;
        Some(filed.into_iter().flatten().collect())
    }

    /// Every peer's missing set for `f` — `None` until all of them
    /// arrived.
    pub(crate) fn take_partials(&mut self, f: SimTime) -> Option<Vec<RouterId>> {
        let filed = take_round(&mut self.partials, f, self.members - 1)?;
        Some(filed.into_iter().flatten().collect())
    }

    /// Validates a peer handshake and applies it to the inbound cursor.
    /// Returns whether the hello was acceptable.
    pub(crate) fn greet(&mut self, hello: &PeerHello) -> bool {
        let pm = hello.member;
        let fits = hello.members == self.members && hello.n_routers == self.n_routers;
        if !fits || pm >= self.members || pm == self.member {
            return false;
        }
        // A reconnect keeps the cursor; a new peer instance (first contact
        // or crash-recovered) restarts it at the announced sequence.
        self.cursors[pm as usize].hello(hello.session, hello.first_seq);
        true
    }

    /// A live peer handshake: journaled so replay re-learns the session
    /// and keeps deduplicating the peer's regenerated stream, then acked
    /// with the cursor.
    pub(crate) fn hello(&mut self, conn: u64, hello: PeerHello, ack: Option<TcpStream>) {
        if !self.greet(&hello) {
            return;
        }
        let member = hello.member;
        self.journal(encode_frame(&Frame::PeerHello(hello)));
        self.conn_peer.insert(conn, member);
        self.to_series0(WorkerMsg::Adopt { conn, ack });
        let upto = self.cursors[member as usize].next_seq;
        self.to_series0(WorkerMsg::Ack {
            conn,
            upto,
            fin: false,
        });
    }

    /// Moves the go-back-N cursor past `frame` if it is exactly next in
    /// sequence; duplicates and gaps drop (the link replay heals gaps).
    pub(crate) fn in_sequence(&mut self, frame: &Frame) -> bool {
        let Some((pm, seq)) = peer_header(frame).filter(|(pm, _)| *pm != self.member) else {
            return false;
        };
        // A frame before any hello drops: the cursor follows no session.
        self.cursors
            .get_mut(pm as usize)
            .is_some_and(|cur| cur.session.is_some() && cur.offer(seq) == Offer::Fresh)
    }

    /// A live inbound peer frame: whether to apply it — iff it is next
    /// in sequence on a connection greeted as its sender — after handing
    /// its wire bytes to series 0, appended before the ack that follows
    /// them there.
    pub(crate) fn receive(&mut self, conn: u64, frame: &Frame, raw: Vec<u8>) -> bool {
        // Drop a frame mislabeled against its connection's handshake.
        let member = peer_header(frame).map(|(m, _)| m);
        let Some(&pm) = self.conn_peer.get(&conn).filter(|pm| Some(**pm) == member) else {
            return false;
        };
        let fresh = self.in_sequence(frame);
        if fresh {
            self.journal(raw);
        }
        // Ack the cursor even on duplicates: re-acks let a replaying
        // peer prune its buffer.
        let upto = self.cursors[pm as usize].next_seq;
        self.to_series0(WorkerMsg::Ack {
            conn,
            upto,
            fin: false,
        });
        fresh
    }

    /// Forgets an inbound peer connection; returns whether it was one.
    pub(crate) fn forget(&mut self, conn: u64) -> bool {
        self.conn_peer.remove(&conn).is_some()
    }

    /// A peer's frontier advertisement.
    pub(crate) fn frontier(&mut self, f: FrontierExchange, sources: &SourceTable) {
        let pm = f.member as usize;
        // Max-merge: a recovering peer replays its frontier history from
        // genesis; regressions are stale.
        if f.min > self.peer_min[pm] {
            self.peer_min[pm] = f.min;
            self.peer_frontier[pm] = f.frontier;
        }
        // Every advertised value joins the round grid, even a stale
        // replay's: grid values are forever.
        self.pending_horizons.extend(f.min);
        self.publish_peers(sources);
    }

    /// The records of a peer's eager boundary batch that are new, ahead
    /// of the late gate, about conversations this member owns, and name
    /// only routers of the plan: the cross builders index their cells by
    /// router, so a hostile id must not reach them.
    pub(crate) fn boundary_events(
        &mut self,
        records: Vec<FoldRecord>,
        advanced: Option<SimTime>,
    ) -> Vec<FoldRecord> {
        let n = self.n_routers;
        let mut fresh = Vec::new();
        for rec in records {
            if advanced.is_some_and(|wm| rec.time <= wm)
                || self.cross_seen.contains_key(&rec.id)
                || rec.router.0 >= n
                || rec.peer.is_some_and(|p| p.0 >= n)
            {
                continue;
            }
            if rec
                .conv()
                .is_some_and(|(key, _)| self.plan.of_conv(&key) == self.member)
            {
                self.cross_seen.insert(rec.id, rec.time);
                fresh.push(rec);
            }
        }
        if let Some(m) = &self.metrics {
            m.boundary_events_received.add(fresh.len() as u64);
        }
        fresh
    }

    /// Re-validates a peer-advertised repair proof. First frame per
    /// repair wins: a recovering owner's regenerated broadcast is a
    /// duplicate, and the validation is deterministic in the frame
    /// contents anyway.
    pub(crate) fn check_proof(&mut self, p: &PeerRepairProof) {
        if self.peer_repairs.contains_key(&p.repair_id) {
            return;
        }
        let (chain_ok, digest_ok) = match from_str::<RepairProof>(&p.proof) {
            Ok(proof) => (
                !proof.provenance.is_empty() && chain_over(&proof.provenance) == proof.chain,
                fnv1a64(&proof.encode_binary()) == p.digest,
            ),
            Err(_) => (false, false),
        };
        self.peer_repairs.insert(
            p.repair_id,
            PeerProofStatus {
                from: p.member,
                verdict: p.verdict,
                chain_ok,
                digest_ok,
            },
        );
        // Stitch the peer's re-validation onto the owner's repair chain:
        // the frame's context (or the digest-minted fallback) keys the
        // same trace id on every member.
        let ctx = p
            .trace
            .unwrap_or_else(|| TraceCtx::for_repair(p.repair_id))
            .child(stage::PROOF_BROADCAST);
        let checks = u64::from(p.member) << 2 | u64::from(chain_ok) << 1 | u64::from(digest_ok);
        self.record(stage::PEER_PROOF_VERIFIED, ctx, p.repair_id, checks);
        if p.trace.is_some() {
            self.count_trace();
        }
        if let Some(m) = &self.metrics {
            m.repair_peer_proofs.inc();
        }
    }

    /// Publishes the per-peer frontier and lag gauges (the own slot
    /// carries the own source-table minimum).
    pub(crate) fn publish_peers(&self, sources: &SourceTable) {
        let Some(m) = &self.metrics else { return };
        if m.peer_frontier.len() != self.members as usize {
            return;
        }
        let mut mins = self.peer_min.clone();
        mins[self.member as usize] = sources.global_min();
        let furthest = furthest(mins.iter().copied());
        for (j, v) in mins.into_iter().enumerate() {
            m.peer_frontier[j].set(v.map_or(-1, gauge_nanos));
            m.peer_lag[j].set(lag_nanos(furthest, v));
        }
    }

    /// What the member's fold report carries beside the fold.
    pub(crate) fn into_fold(self) -> MemberFold {
        let peers = self
            .peers()
            .map(|j| PeerSummary {
                member: j as u32,
                min: self.peer_min[j],
            })
            .collect();
        MemberFold {
            member: self.member,
            members: self.members,
            peers,
            peer_repairs: self.peer_repairs,
        }
    }
}

/// Removes and returns, in member order, the `n` peers' entries filed
/// for round `f` — once all of them are.
fn take_round<T>(filed: &mut BTreeMap<(SimTime, u32), T>, f: SimTime, n: u32) -> Option<Vec<T>> {
    let round = (f, 0)..=(f, u32::MAX);
    if filed.range(round.clone()).count() < n as usize {
        return None;
    }
    let keys: Vec<(SimTime, u32)> = filed.range(round).map(|(k, _)| *k).collect();
    Some(keys.iter().filter_map(|k| filed.remove(k)).collect())
}

/// What a federation member's [`FoldReport`] carries beside the fold:
/// its place in the federation and its last view of its peers.
pub struct MemberFold {
    member: u32,
    members: u32,
    peers: Vec<PeerSummary>,
    peer_repairs: BTreeMap<u64, PeerProofStatus>,
}

impl MemberFold {
    /// Repairs other members gated and advertised to this one, with the
    /// outcome of this member's independent re-validation.
    pub fn peer_repairs(&self) -> &BTreeMap<u64, PeerProofStatus> {
        &self.peer_repairs
    }

    /// The member's role, for the collector report.
    pub(crate) fn role(&self) -> CollectorRole {
        CollectorRole::Member {
            member: self.member,
            members: self.members,
            peers: self.peers.clone(),
        }
    }
}

/// Merges every member's fold into a single global report: the members'
/// fold shards side by side, exactly as a sharded collector reports its
/// workers'. Errors if the members disagree on the global verdict, wait
/// statistics, or completed watermark: the federation's invariant is
/// that they cannot.
pub fn merge_members(mut folds: Vec<FoldReport>) -> io::Result<FoldReport> {
    let invalid = |why: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, why));
    let index = |f: &FoldReport| f.member.as_ref().map(|m| (m.member, m.members));
    folds.sort_by_key(index);
    let complete = folds
        .iter()
        .enumerate()
        .all(|(i, f)| index(f) == Some((i as u32, folds.len() as u32)));
    if folds.is_empty() || !complete {
        return invalid("member folds do not form one complete federation");
    }
    let mut global = folds.remove(0);
    global.member = None;
    for (i, f) in folds.into_iter().enumerate() {
        if (&f.status, f.waits, f.watermark) != (&global.status, global.waits, global.watermark) {
            return Err(io::Error::other(format!(
                "federation members disagree on the global verdict (member {} vs member 0)",
                i + 1
            )));
        }
        global.repairs.absorb(&f.repairs);
        global.parts.extend(f.parts);
        global.stalled.extend(f.stalled);
    }
    global.stalled.sort_unstable();
    global.stalled.dedup();
    Ok(global)
}
