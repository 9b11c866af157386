//! The whole collector in one process, on one virtual clock.
//!
//! A [`World`] is one or more members — each the real engine
//! ([`Shards`](crate::shard::Shards): fold workers on their threads and
//! a group-commit thread, over a journal in a temporary directory) under
//! a [`Session`] and its connections' [`Reader`]s — and the clients that
//! speak to them: the routers' sinks (a `link::Sender` over a window of
//! [`EventEncoder`] frames) and the members' peer links (the very
//! `Sender`s the members' `Peers` hold). A connection is a pair of byte
//! buffers. The driver is every thread's shell: it moves each client's
//! bytes through that client's [`FaultCursor`] into its reader, drains
//! the reader's messages into the session, steps the fold workers to
//! quiescence (`WorkerMsg::Done`) before it reads any ack, applies the
//! acks to the clients' windows, and asks every sender what next. Each
//! member's clock is its flight recorder's epoch plus the world's
//! virtual offset, and every decision and flight stamp is handed that
//! clock, so a seed is one story: the same seed gives the same fold, the
//! same counters and byte-identical flight dumps, and nothing sleeps.
//!
//! The scenarios below are the network-fault suite: seeded byte faults
//! at one, two and four fold shards and across a two-member federation
//! (a thousand seeds each in the ignored sweep), a scripted eviction and
//! re-admission, a full replay window behind one damaged frame, a
//! partitioned and healed federation, and a damaged peer frame that only
//! a `PEER_ACK_STALL` replay heals. Last, one table of every fault class
//! the harness can inject, each told from telemetry alone: DESIGN.md §6
//! "Every fault class in telemetry alone".

use super::Session;
use crate::client::{ReconnectPolicy, REPLAY_CAPACITY, SOLICIT_EVERY};
use crate::codec::{
    encode_frame, write_frame, Decoder, EventEncoder, Frame, Hello, PeerHello, RepairRecord,
    RepairStage,
};
use crate::collector::CHANNEL_CAPACITY;
use crate::collector::IDLE_TIMEOUT;
use crate::collector::{CollectorConfig, CollectorStats, LeaseConfig, Msg, Reader, Wire};
use crate::fault::{FaultCursor, FaultKind, FaultPlan, Step};
use crate::federation::{merge_members, FederationConfig, PEER_ACK_STALL};
use crate::link::{Link, Next, Sender};
use crate::metrics::CollectorMetrics;
use crate::pipeline::{IngestPipeline, PipelineConfig, WalScan};
use crate::shard::{FoldReport, Shards};
use crate::wal::{FsyncPolicy, TempDir, WalConfig};
use cpvr_core::FederationPlan;
use cpvr_obs::trace::stage;
use cpvr_obs::{FlightDump, Snapshot};
use cpvr_sim::scenario::paper_scenario;
use cpvr_sim::{CaptureProfile, EventId, IoEvent, IoKind, LatencyProfile};
use cpvr_types::{RouterId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const MS: Duration = Duration::from_millis(1);

/// Routers in the paper scenario.
const N: u32 = 3;

/// The most bytes one reader wake is handed.
const CHUNK: usize = 2048;

/// One collector's engine, registry and journal: what `Collector::start`
/// builds, minus the acceptor, the reader threads, the session thread
/// and the peer links' threads — the driver is their shell.
pub(super) struct Member {
    pub(super) dir: TempDir,
    pub(super) cfg: CollectorConfig,
    pub(super) metrics: Arc<CollectorMetrics>,
}

impl Member {
    /// A standalone collector on `shards` fold workers.
    pub(super) fn new(shards: u32, lease: LeaseConfig) -> Member {
        Member::with(shards, lease, None)
    }

    fn with(shards: u32, lease: LeaseConfig, fed: Option<FederationConfig>) -> Member {
        let dir = TempDir::new("driver").expect("temp dir");
        let mut wal = WalConfig::new(dir.path());
        wal.fsync = FsyncPolicy::Never;
        let mut cfg = CollectorConfig::new(N)
            .with_wal(wal)
            .with_shards(shards)
            .with_lease(lease);
        let members = fed.as_ref().map_or(0, |f| f.plan.members());
        let member = fed.as_ref().map(|f| i64::from(f.member));
        if let Some(fed) = fed {
            cfg = cfg.with_federation(fed);
        }
        let metrics = Arc::new(CollectorMetrics::new(N, cfg.fold_shards(), members));
        if let Some(m) = member {
            metrics.flight.set_member(m);
        }
        Member { dir, cfg, metrics }
    }

    /// Arms the flight recorder next to the journal, as a collector does.
    pub(super) fn armed(self) -> Member {
        self.metrics.flight.arm(self.dir.path());
        self
    }

    /// The members of a federation of `shards.len()` over the paper
    /// scenario's routers, member `i` folding on `shards[i]` workers.
    fn federation(shards: &[u32], lease: LeaseConfig) -> Vec<Member> {
        let plan = FederationPlan::uniform(shards.len() as u32);
        // Never dialed: the driver carries the peer links.
        let peers = vec!["127.0.0.1:9".parse().expect("addr"); shards.len()];
        (0..)
            .zip(shards)
            .map(|(member, &k)| {
                let plan = plan.clone();
                let fed = FederationConfig {
                    plan,
                    member,
                    peers: peers.clone(),
                };
                Member::with(k, lease, Some(fed))
            })
            .collect()
    }

    /// Where this member's clock starts: its flight records' stamps are
    /// then the world's virtual offsets.
    fn epoch(&self) -> Instant {
        self.metrics.flight.epoch()
    }

    /// The member routing `r` reaches.
    fn owner(members: &[Member], r: u32) -> usize {
        members[0]
            .cfg
            .federation
            .as_ref()
            .map_or(0, |f| f.plan.of_router(RouterId(r)) as usize)
    }

    /// Recovers the journal, starts the engine, and a session on it at
    /// `now`.
    pub(super) fn session(&self, now: Instant) -> Session<'_> {
        let workers = self.cfg.fold_shards() as usize;
        let mut scan = WalScan::read(self.cfg.pipeline, self.dir.path(), workers).unwrap();
        let wal = self.cfg.wal.as_ref().expect("a journal");
        let shards = Shards::start(&self.cfg, wal, &mut scan, &self.metrics, now).unwrap();
        let (sources, repairs, lease) = (scan.sources, scan.repairs, self.cfg.lease);
        Session::new(shards, sources, repairs, lease, &self.metrics, now)
    }

    /// The lease state gauge of router `r`.
    pub(super) fn state_gauge(&self, r: u32) -> Option<i64> {
        let label = r.to_string();
        let snap = self.metrics.snapshot();
        snap.gauge("cpvr_source_state", &[("router", &label)])
    }
}

/// A connection's two byte streams, as both of its ends hold them.
#[derive(Default)]
struct Pipe {
    /// Client → member bytes the driver has not carried yet.
    up: Vec<u8>,
    /// Member → client bytes (acks, fins) the client has not read.
    down: Vec<u8>,
    /// An end hung up.
    closed: bool,
}

/// One end of a connection, standing in for its socket: writes go to
/// the other end, and a hang-up ends both.
#[derive(Clone)]
struct End {
    pipe: Arc<Mutex<Pipe>>,
    member_side: bool,
}

impl Write for End {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let mut p = self.pipe.lock().unwrap();
        if p.closed {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let to = if self.member_side {
            &mut p.down
        } else {
            &mut p.up
        };
        to.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Wire for End {
    fn handle(&self) -> Option<Box<dyn Wire>> {
        Some(Box::new(self.clone()))
    }

    fn hang_up(&self) {
        self.pipe.lock().unwrap().closed = true;
    }
}

/// One connection, as the member side sees it.
struct Conn<'r> {
    member: usize,
    client: usize,
    pipe: Arc<Mutex<Pipe>>,
    /// `None` once the reader closed.
    reader: Option<Reader<'r, End>>,
    /// The client's bytes after its fault cursor, not yet delivered.
    steps: VecDeque<Step>,
    /// A `Delay` fault holds delivery until then.
    held: Duration,
    /// The client let go: what is in flight arrives, then the end.
    dropped: bool,
    /// The connection was cut: what is in flight is lost.
    cut: bool,
}

/// What a router's sink is blocked on, weakest first: a connection (a
/// frame to say on a dead one), room in its replay window, or the acks
/// of everything it sent (`drain`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Want {
    Up,
    Room,
    Drained,
}

/// A router's sink, as the driver plays `SocketSink`.
struct Router {
    events: Vec<IoEvent>,
    /// The next event it sends.
    next: usize,
    enc: EventEncoder,
    hello: Hello,
    last_wm: Option<(SimTime, u64)>,
    want: Option<Want>,
}

enum Role {
    Router(Box<Router>),
    /// Member `from`'s link to the client's `to`.
    Peer {
        from: usize,
        hello: PeerHello,
    },
}

/// One client: a sender, its byte story and its live connection.
struct Client {
    role: Role,
    /// The member it dials.
    to: usize,
    /// The clock its sender's stamps live on.
    epoch: Instant,
    link: Arc<Link>,
    cursor: FaultCursor,
    conn: Option<usize>,
    replies: Decoder,
    /// Dials that connected.
    connects: u64,
}

/// Members, their sessions and connections, and their clients, on one
/// virtual clock.
struct World<'r> {
    members: &'r [Member],
    sessions: Vec<Session<'r>>,
    inbox: Vec<(SyncSender<Msg>, Receiver<Msg>)>,
    conns: Vec<Conn<'r>>,
    clients: Vec<Client>,
    next_conn: Vec<u64>,
    /// Virtual time since the world started.
    t: Duration,
    /// Member pairs `(from, to)` whose links are partitioned.
    cut: Vec<(usize, usize)>,
    /// A member that hangs: its session, its readers and its peer links
    /// stand still, and what is sent to it piles up unread.
    hung: Option<usize>,
}

impl<'r> World<'r> {
    /// Sessions on every member, and every member's peer links, each
    /// carrying `peer_plan(from, to)`'s faults.
    fn new(members: &'r [Member], peer_plan: impl Fn(usize, usize) -> FaultPlan) -> Self {
        let mut w = World {
            members,
            sessions: members.iter().map(|m| m.session(m.epoch())).collect(),
            inbox: (0..members.len())
                .map(|_| std::sync::mpsc::sync_channel(CHANNEL_CAPACITY))
                .collect(),
            conns: Vec::new(),
            clients: Vec::new(),
            next_conn: vec![0; members.len()],
            t: Duration::ZERO,
            cut: Vec::new(),
            hung: None,
        };
        for from in 0..members.len() {
            for to in 0..members.len() {
                let peers = w.sessions[from].shards.peers.as_ref();
                let Some((link, hello)) = peers.and_then(|p| p.link_to(to)) else {
                    continue;
                };
                w.clients.push(Client {
                    role: Role::Peer { from, hello },
                    to,
                    epoch: members[from].epoch(),
                    link,
                    cursor: FaultCursor::new(peer_plan(from, to)),
                    conn: None,
                    replies: Decoder::new(),
                    connects: 0,
                });
            }
        }
        w
    }

    /// Adds router `r`'s sink over `events`, dialing its member under
    /// `policy` with `plan`'s faults; returns its client index.
    fn router(
        &mut self,
        r: u32,
        events: Vec<IoEvent>,
        plan: FaultPlan,
        policy: ReconnectPolicy,
    ) -> usize {
        let to = Member::owner(self.members, r);
        let session = 0x5e55_0000 + u64::from(r);
        let jitter = StdRng::seed_from_u64(session);
        let sender = Sender::new(0, policy, Some(SOLICIT_EVERY), Some(jitter));
        let hello = Hello {
            source: RouterId(r),
            n_routers: N,
            session,
            first_seq: 0,
        };
        self.clients.push(Client {
            role: Role::Router(Box::new(Router {
                events,
                next: 0,
                enc: EventEncoder::default(),
                hello,
                last_wm: None,
                want: Some(Want::Up),
            })),
            to,
            epoch: self.members[to].epoch(),
            link: Link::new(sender),
            cursor: FaultCursor::new(plan),
            conn: None,
            replies: Decoder::new(),
            connects: 0,
        });
        self.clients.len() - 1
    }

    fn now(&self, m: usize) -> Instant {
        self.members[m].epoch() + self.t
    }

    fn client_now(&self, c: usize) -> Instant {
        self.clients[c].epoch + self.t
    }

    fn sink(&mut self, c: usize) -> &mut Router {
        match &mut self.clients[c].role {
            Role::Router(r) => r,
            Role::Peer { .. } => panic!("client {c} is a peer link"),
        }
    }

    /// Blocks router `c` on `want` (a stronger block stays).
    fn block(&mut self, c: usize, want: Want) {
        let r = self.sink(c);
        r.want = r.want.max(Some(want));
    }

    // ---- what a router's sink does ----

    /// Sends up to `k` of router `c`'s next events, as `SocketSink::send`
    /// does: each is held, and written if a connection is up. A full
    /// window blocks it on room; a dead connection on a redial.
    fn send(&mut self, c: usize, k: usize) {
        let now = self.client_now(c);
        for _ in 0..k {
            let link = Arc::clone(&self.clients[c].link);
            let mut s = link.lock();
            if s.window.len() >= REPLAY_CAPACITY {
                drop(s);
                return self.block(c, Want::Room);
            }
            let seq = s.window.next_seq();
            let r = self.sink(c);
            let Some(e) = r.events.get(r.next) else {
                return;
            };
            let mut bytes = Vec::new();
            r.enc.encode_into(seq, e, &mut bytes);
            r.next += 1;
            let wrote = s.conn.as_mut().is_some_and(|w| w.write_all(&bytes).is_ok());
            s.window.push(now, |_| bytes);
            let up = wrote && s.up;
            drop(s);
            if !up {
                self.block(c, Want::Up);
            }
        }
    }

    /// Writes one control frame on router `c`'s connection, or blocks it
    /// on a redial, which re-sends what the frame carried.
    fn say(&mut self, c: usize, frame: &Frame) {
        let link = Arc::clone(&self.clients[c].link);
        let mut s = link.lock();
        let up = s.up;
        let wrote = s
            .conn
            .as_mut()
            .is_some_and(|w| w.write_all(&encode_frame(frame)).is_ok());
        drop(s);
        if !(up && wrote) {
            self.block(c, Want::Up);
        }
    }

    /// Router `c` promises everything stamped ≤ `t` is sent.
    fn promise(&mut self, c: usize, t: SimTime) {
        let frontier = self.clients[c].link.lock().window.next_seq();
        self.sink(c).last_wm = Some((t, frontier));
        self.say(c, &Frame::Watermark { t, frontier });
    }

    fn heartbeat(&mut self, c: usize) {
        self.say(c, &Frame::Heartbeat);
    }

    fn bye(&mut self, c: usize) {
        let frontier = {
            let mut s = self.clients[c].link.lock();
            let f = s.window.next_seq();
            s.bye = Some(f);
            f
        };
        self.say(c, &Frame::Bye { frontier });
    }

    /// Router `c` waits until everything it sent is acked (and its bye
    /// confirmed), soliciting and replaying as told.
    fn drain(&mut self, c: usize) {
        let now = self.client_now(c);
        self.clients[c].link.lock().window.restart_clock(now);
        self.block(c, Want::Drained);
    }

    /// Router `c` sent its whole stream, and every frame of it is acked.
    fn drained(&self, c: usize) -> bool {
        let Role::Router(r) = &self.clients[c].role else {
            return false;
        };
        let s = self.clients[c].link.lock();
        r.next == r.events.len() && r.want.is_none() && !s.outstanding()
    }

    fn sent(&self, c: usize) -> u64 {
        self.clients[c].link.lock().window.next_seq()
    }

    // ---- the shell ----

    /// Everything that happens at the current instant, until nothing
    /// does: timers fire, the workers quiesce, clients read their
    /// replies, bytes reach the readers and their messages the sessions,
    /// and every sender is asked what next.
    fn settle(&mut self) {
        for round in 0.. {
            assert!(round < 100_000, "the world never settles at {:?}", self.t);
            let mut moved = false;
            let hung = self.hung;
            for m in (0..self.members.len()).filter(|m| Some(*m) != hung) {
                moved |= self.fire_timers(m);
            }
            for s in &self.sessions {
                s.shards.quiesce();
            }
            for c in 0..self.clients.len() {
                moved |= self.hear(c);
            }
            for k in 0..self.conns.len() {
                moved |= self.deliver(k);
            }
            for c in 0..self.clients.len() {
                moved |= self.ask(c);
            }
            if !moved {
                return;
            }
        }
    }

    fn fire_timers(&mut self, m: usize) -> bool {
        let now = self.now(m);
        let s = &mut self.sessions[m];
        let mut fired = false;
        while s.deadline().is_some_and(|d| d <= now) {
            s.on_timer(now);
            fired = true;
            let moved = s.deadline().is_none_or(|d| d > now);
            assert!(moved, "a timer step must move the session's deadline");
        }
        fired
    }

    /// Hands member `m`'s session every message its readers queued.
    fn drain_inbox(&mut self, m: usize) {
        let now = self.now(m);
        while let Ok(msg) = self.inbox[m].1.try_recv() {
            self.sessions[m].on_msg(msg, now);
        }
    }

    /// Client `c` reads its connection's replies; an ended connection
    /// is down for it, and cut for its reader.
    fn hear(&mut self, c: usize) -> bool {
        let Some(k) = self.clients[c].conn.filter(|_| !self.frozen(c)) else {
            return false;
        };
        let now = self.client_now(c);
        let (bytes, closed) = {
            let mut p = self.conns[k].pipe.lock().unwrap();
            (std::mem::take(&mut p.down), p.closed)
        };
        let client = &mut self.clients[c];
        client.replies.feed(&bytes);
        let mut s = client.link.lock();
        while let Some(msg) = client.replies.next_message(false) {
            match msg.map(|m| m.frame) {
                Ok(Frame::Ack { upto }) => s.window.ack(upto, now),
                Ok(Frame::Fin) => s.fin = true,
                _ => {}
            }
        }
        if closed {
            (s.conn, s.up) = (None, false);
            client.conn = None;
            self.conns[k].cut = true;
        }
        !bytes.is_empty() || closed
    }

    /// Carries connection `k`'s bytes into its reader, through the
    /// client's fault cursor, as far as a held delay allows; then the
    /// end, if the connection ended.
    fn deliver(&mut self, k: usize) -> bool {
        let (m, client) = (self.conns[k].member, self.conns[k].client);
        if self.conns[k].reader.is_none() || Some(m) == self.hung {
            return false;
        }
        let now = self.now(m);
        let bytes = std::mem::take(&mut self.conns[k].pipe.lock().unwrap().up);
        let mut moved = !bytes.is_empty();
        if moved {
            let steps = self.clients[client].cursor.apply(&bytes);
            self.conns[k].steps.extend(steps);
        }
        if self.conns[k].cut {
            self.conns[k].steps.clear();
        }
        while self.conns[k].held <= self.t {
            let Some(step) = self.conns[k].steps.pop_front() else {
                break;
            };
            moved = true;
            match step {
                Step::Write(bytes) => {
                    for chunk in bytes.chunks(CHUNK) {
                        let rd = self.conns[k].reader.as_mut().expect("open");
                        let open = rd.feed(chunk, now);
                        self.drain_inbox(m);
                        if !open {
                            self.conns[k].steps.clear();
                            return self.end(k, false);
                        }
                    }
                }
                Step::Sleep(d) => self.conns[k].held = self.t + d,
                Step::Disconnect => {
                    self.conns[k].steps.clear();
                    return self.end(k, true);
                }
            }
        }
        let c = &self.conns[k];
        let deadline = c.reader.as_ref().and_then(|rd| rd.deadline());
        let idle = deadline.is_some_and(|t| t <= now);
        if c.cut || c.dropped && c.steps.is_empty() || idle {
            return self.end(k, true);
        }
        moved
    }

    /// Ends connection `k`'s reader — at EOF it decodes what is left —
    /// once the workers wrote everything they owe the connection, so
    /// which acks make it out does not hang on thread timing.
    fn end(&mut self, k: usize, eof: bool) -> bool {
        let m = self.conns[k].member;
        if let Some(mut rd) = self.conns[k].reader.take() {
            if eof {
                rd.finish(self.now(m));
                self.drain_inbox(m);
            }
            self.sessions[m].shards.quiesce();
            rd.close();
            self.drain_inbox(m);
        }
        true
    }

    /// Asks client `c`'s sender what next — a router's only while it is
    /// blocked on something, a peer link's always — and does it.
    fn ask(&mut self, c: usize) -> bool {
        if self.frozen(c) {
            return false;
        }
        let now = self.client_now(c);
        let link = Arc::clone(&self.clients[c].link);
        let mut s = link.lock();
        let done = match &self.clients[c].role {
            Role::Router(r) => match r.want {
                None => return false,
                Some(Want::Up) => s.up,
                Some(Want::Room) => s.window.len() < REPLAY_CAPACITY,
                Some(Want::Drained) => !s.outstanding(),
            },
            Role::Peer { .. } => false,
        };
        let next = s.next(now, done);
        drop(s);
        match next {
            Next::Done => {
                self.sink(c).want = None;
                true
            }
            Next::Wait(_) => false,
            Next::Solicit(frame) => {
                let mut s = link.lock();
                let wrote = s
                    .conn
                    .as_mut()
                    .is_some_and(|w| w.write_all(&encode_frame(&frame)).is_ok());
                if !wrote {
                    s.up = false;
                }
                true
            }
            Next::Redial { stalled } => {
                if let (Role::Peer { from, .. }, true) = (&self.clients[c].role, stalled) {
                    self.members[*from].metrics.peer_ack_stalls.inc();
                }
                self.hang_up(c);
                self.dial(c);
                true
            }
            Next::GiveUp => panic!("client {c} gave up at {:?}", self.t),
        }
    }

    /// Client `c` is a peer link of the hung member.
    fn frozen(&self, c: usize) -> bool {
        matches!(self.clients[c].role, Role::Peer { from, .. } if Some(from) == self.hung)
    }

    /// Client `c` lets its connection go.
    fn hang_up(&mut self, c: usize) {
        let client = &mut self.clients[c];
        if let Some(k) = client.conn.take() {
            self.conns[k].dropped = true;
        }
        let mut s = client.link.lock();
        (s.conn, s.up) = (None, false);
    }

    /// Client `c` dials its member: a new connection and reader, then
    /// what a dial writes — the hello, and the replay behind it. A dial
    /// across a partition fails.
    fn dial(&mut self, c: usize) {
        let to = self.clients[c].to;
        if let Role::Peer { from, .. } = self.clients[c].role {
            if self.cut.contains(&(from, to)) {
                return;
            }
        }
        let members: &'r [Member] = self.members;
        let member = &members[to];
        let conn = self.next_conn[to];
        self.next_conn[to] += 1;
        member.metrics.connections.inc();
        let pipe = Arc::new(Mutex::new(Pipe::default()));
        let end = |member_side| End {
            pipe: Arc::clone(&pipe),
            member_side,
        };
        let tx = self.inbox[to].0.clone();
        let reader = Reader::new(
            end(true),
            conn,
            tx,
            &member.cfg,
            &member.metrics,
            self.now(to),
        );
        self.conns.push(Conn {
            member: to,
            client: c,
            pipe: Arc::clone(&pipe),
            reader: Some(reader),
            steps: VecDeque::new(),
            held: Duration::ZERO,
            dropped: false,
            cut: false,
        });
        let client = &mut self.clients[c];
        let link = Arc::clone(&client.link);
        let mut s = link.lock();
        let mut w = Vec::new();
        match &mut client.role {
            Role::Router(r) => {
                r.hello.first_seq = s.window.first_seq();
                write_frame(&mut w, &Frame::Hello(r.hello.clone())).expect("encode");
                w.extend_from_slice(r.enc.definition_frames());
                w.extend(s.window.frames().flatten());
                if let Some((t, frontier)) = r.last_wm {
                    write_frame(&mut w, &Frame::Watermark { t, frontier }).expect("encode");
                }
                if let Some(frontier) = s.bye {
                    write_frame(&mut w, &Frame::Bye { frontier }).expect("encode");
                }
            }
            Role::Peer { hello, .. } => {
                hello.first_seq = s.window.first_seq();
                write_frame(&mut w, &Frame::PeerHello(hello.clone())).expect("encode");
                w.extend(s.window.frames().flatten());
            }
        }
        pipe.lock().unwrap().up = w;
        let wire: Box<dyn Wire> = Box::new(end(false));
        (s.conn, s.fin, s.up) = (Some(wire), false, true);
        client.conn = Some(self.conns.len() - 1);
        client.replies = Decoder::new();
        client.connects += 1;
    }

    /// The next instant anything is due after now: a session's timer, a
    /// sender that is being asked, or a held delivery.
    fn next_wake(&self) -> Option<Duration> {
        let sessions = (self.sessions.iter().zip(self.members))
            .filter_map(|(s, m)| Some(s.deadline()?.saturating_duration_since(m.epoch())));
        let asked = self.clients.iter().filter(|c| match &c.role {
            Role::Router(r) => r.want.is_some(),
            Role::Peer { .. } => true,
        });
        let senders = asked
            .filter_map(|c| Some(c.link.lock().deadline()?.saturating_duration_since(c.epoch)));
        let held = (self.conns.iter())
            .filter(|c| c.reader.is_some() && !c.steps.is_empty())
            .map(|c| c.held);
        let idle = self.conns.iter().filter_map(|c| {
            let at = c.reader.as_ref()?.deadline()?;
            Some(at.saturating_duration_since(self.members[c.member].epoch()))
        });
        (sessions.chain(senders).chain(held).chain(idle))
            .filter(|w| *w > self.t)
            .min()
    }

    /// Moves the clock on by `dt`, through every wake on the way.
    fn advance(&mut self, dt: Duration) {
        let until = self.t + dt;
        self.run_until(until, |_| false);
    }

    /// Runs until `done` holds, or the clock reaches `until`; returns
    /// whether `done` held.
    fn run_until(&mut self, until: Duration, mut done: impl FnMut(&World<'r>) -> bool) -> bool {
        loop {
            self.settle();
            if done(self) {
                return true;
            }
            if self.t >= until {
                return false;
            }
            self.t = self.next_wake().map_or(until, |w| w.min(until));
        }
    }

    /// Member `m`'s last merged verdict horizon.
    fn completed(&self, m: usize) -> Option<SimTime> {
        self.sessions[m].shards.completed
    }

    fn everywhere(&self, t: SimTime) -> bool {
        (0..self.members.len()).all(|m| self.completed(m) == Some(t))
    }

    /// Cuts (or heals) every peer link touching member `m`, both ways:
    /// live connections die and dials fail until healed.
    fn partition(&mut self, m: usize, on: bool) {
        self.cut.clear();
        if !on {
            return;
        }
        for j in (0..self.members.len()).filter(|j| *j != m) {
            self.cut.extend([(m, j), (j, m)]);
        }
        for client in &self.clients {
            let Role::Peer { from, .. } = client.role else {
                continue;
            };
            if let (true, Some(k)) = (self.cut.contains(&(from, client.to)), client.conn) {
                self.conns[k].pipe.lock().unwrap().closed = true;
            }
        }
    }

    /// Closes every member's engine: its fold, counters, final metrics
    /// and flight-recorder dump, in member order.
    fn finish(self) -> Vec<Outcome> {
        let World {
            members, sessions, ..
        } = self;
        (sessions.into_iter().zip(members))
            .map(|(s, m)| {
                let (fold, err) = s.shards.finish(s.sources.stalled(), s.repairs);
                assert!(err.is_none(), "{err:?}");
                Outcome {
                    fold,
                    stats: m.metrics.stats(),
                    metrics: m.metrics.snapshot(),
                    dump: m.metrics.flight.snapshot("driver"),
                }
            })
            .collect()
    }
}

/// One member's end state.
struct Outcome {
    fold: FoldReport,
    stats: CollectorStats,
    metrics: Snapshot,
    dump: FlightDump,
}

/// A run's observables two runs of one seed must agree on, byte for
/// byte: every member's fold, counters and flight dump.
fn fingerprint(outcomes: &[Outcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| {
            let f = &o.fold;
            let dp = f.dataplane();
            let fibs: Vec<_> = (0..N)
                .map(|i| (dp.fib(RouterId(i)).entries(), dp.taken_at(RouterId(i))))
                .collect();
            let fold = (
                f.events(),
                f.processed(),
                f.canonical_edges(),
                f.edge_counts(),
            );
            let verdict = (f.status(), f.wait_stats(), f.watermark(), fibs);
            let dump = cpvr_types::json::to_string_compact(&o.dump);
            format!("{fold:?} {verdict:?} {:?} {dump}", o.stats)
        })
        .collect()
}

/// The paper scenario's capture: announce, then re-announce. `skewed`
/// captures through syslog, so intermediate horizons cut conversations
/// open and the verdict waits.
fn trace(skewed: bool) -> &'static [IoEvent] {
    static IDEAL: OnceLock<Vec<IoEvent>> = OnceLock::new();
    static SKEWED: OnceLock<Vec<IoEvent>> = OnceLock::new();
    let (cell, capture, seed) = match skewed {
        false => (&IDEAL, CaptureProfile::ideal(), 7),
        true => (&SKEWED, CaptureProfile::syslog(), 17),
    };
    cell.get_or_init(|| {
        let mut s = paper_scenario(LatencyProfile::fast(), capture, seed);
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
fn stream(events: &[IoEvent], r: u32) -> Vec<IoEvent> {
    let mut mine: Vec<IoEvent> = events
        .iter()
        .filter(|e| e.router == RouterId(r))
        .cloned()
        .collect();
    mine.sort_by_key(|e| (e.time, e.id));
    mine
}

/// The bytes `events` take as one stream, intern definitions included:
/// the span a router's fault plan covers.
fn stream_len(events: &[IoEvent]) -> u64 {
    let (mut enc, mut out) = (EventEncoder::default(), Vec::new());
    for (seq, e) in (0u64..).zip(events) {
        enc.encode_into(seq, e, &mut out);
    }
    out.len() as u64
}

/// The in-process fold of every event, advanced through `grid`.
fn reference(events: &[IoEvent], grid: &[SimTime]) -> IngestPipeline {
    let mut p = IngestPipeline::new(PipelineConfig::new(N));
    for e in events {
        p.ingest(e);
    }
    for &t in grid {
        p.advance(t);
    }
    p
}

/// Everything about a fold that does not depend on how its advances
/// were batched: events, HBG, verdict, watermark, data plane.
fn assert_same_fold(got: &FoldReport, want: &IngestPipeline, label: &str) {
    let b = want.builder();
    assert_eq!(got.events(), want.events(), "{label}: events");
    assert_eq!(got.processed(), b.processed(), "{label}: folded");
    assert_eq!(
        got.canonical_edges(),
        b.hbg().canonical_edges(),
        "{label}: HBG"
    );
    assert_eq!(got.edge_counts(), b.edge_counts(), "{label}: per rule");
    assert_eq!(got.status(), want.status(), "{label}: verdict");
    assert_eq!(got.watermark(), want.watermark(), "{label}: watermark");
    let (dp, ref_dp) = (got.dataplane(), want.tracker().dataplane());
    for r in (0..N).map(RouterId) {
        let fib = (dp.fib(r).entries(), dp.taken_at(r));
        assert_eq!(
            fib,
            (ref_dp.fib(r).entries(), ref_dp.taken_at(r)),
            "{label}: {r:?}"
        );
    }
}

/// An aggressive sink: it redials fast and takes short ack stalls for
/// loss, so replays are frequent and runs short.
fn chaos_policy() -> ReconnectPolicy {
    ReconnectPolicy {
        max_attempts: 40,
        base_delay: Duration::from_millis(2),
        max_delay: Duration::from_millis(100),
        stall_after: Duration::from_millis(150),
    }
}

/// The deployments the seeded faults run against.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One collector on `k` fold workers.
    Alone(u32),
    /// Two members, the first on two fold workers, the second on one.
    Federation,
}

impl Shape {
    fn members(self) -> Vec<Member> {
        let lease = LeaseConfig::disabled();
        match self {
            Shape::Alone(k) => vec![Member::new(k, lease)],
            Shape::Federation => Member::federation(&[2, 1], lease),
        }
    }
}

/// One seeded run under network faults: every router streams the trace
/// in a seeded interleaving, promising twelve horizons on the way, then
/// says bye and drains, over a byte path that drops, flips, duplicates,
/// delays and disconnects (30 faults across each router's stream, and 6
/// on each peer link). With `faults` off the path is transparent.
/// Checks the run and returns its fingerprint.
fn chaos(seed: u64, shape: Shape, faults: bool) -> Vec<String> {
    let label = format!("seed {seed}, {shape:?}");
    let events = trace(false);
    let members = shape.members();
    let plan = |s: u64, horizon: u64, n: usize| match faults {
        true => FaultPlan::from_seed(s, horizon, n),
        false => FaultPlan::none(),
    };
    let peer_seed =
        |from: usize, to: usize| seed.wrapping_mul(31).wrapping_add((from * 8 + to) as u64);
    let mut w = World::new(&members, |from, to| plan(peer_seed(from, to), 4096, 6));
    let mut rng = StdRng::seed_from_u64(seed);
    let routers: Vec<usize> = (0..N)
        .map(|r| {
            let mine = stream(events, r);
            let s = seed.wrapping_mul(0x9e37_79b9).wrapping_add(u64::from(r));
            let p = plan(s, stream_len(&mine), 30);
            w.router(r, mine, p, chaos_policy())
        })
        .collect();
    let end = events.iter().map(|e| e.time).max().expect("events");
    let steps: Vec<SimTime> = (1..=12)
        .map(|i| SimTime::from_nanos(end.as_nanos() / 12 * i))
        .collect();
    // Each router's next horizon; past the last one it says bye.
    let mut at = vec![0usize; routers.len()];
    loop {
        let busy: Vec<usize> = (0..routers.len())
            .filter(|&i| {
                at[i] <= steps.len() && w.sink(routers[i]).want.is_none_or(|x| x == Want::Up)
            })
            .collect();
        if busy.is_empty() {
            if at.iter().all(|a| *a > steps.len()) {
                break;
            }
            w.advance(rng.gen_range(1..=20u32) * MS);
            continue;
        }
        let i = busy[rng.gen_range(0..busy.len())];
        let c = routers[i];
        let r = w.sink(c);
        let horizon = steps.get(at[i]).copied().unwrap_or(SimTime::MAX);
        let due = r.events.get(r.next).is_some_and(|e| e.time <= horizon);
        if due {
            w.send(c, rng.gen_range(1..=8));
        } else if at[i] < steps.len() {
            w.promise(c, horizon);
            at[i] += 1;
        } else {
            w.bye(c);
            w.drain(c);
            at[i] += 1;
        }
        w.advance(rng.gen_range(0..=20u32) * MS);
    }
    let converged = w.run_until(w.t + Duration::from_secs(600), |w| {
        routers.iter().all(|&c| w.drained(c)) && w.everywhere(SimTime::MAX)
    });
    assert!(converged, "{label}: never converged");
    let sent: Vec<u64> = routers.iter().map(|&c| w.sent(c)).collect();
    assert_eq!(sent.iter().sum::<u64>() as usize, events.len(), "{label}");
    let faults_into = |m: usize| -> (u64, u64) {
        let into = w.clients.iter().filter(|c| c.to == m);
        into.fold((0, 0), |(i, f), c| {
            (i + c.cursor.injected, f + c.cursor.flipped)
        })
    };
    let damage: Vec<(u64, u64)> = (0..members.len()).map(faults_into).collect();
    let mut sent_to = vec![0u64; members.len()];
    for (r, s) in (0..N).zip(&sent) {
        sent_to[Member::owner(&members, r)] += s;
    }
    let injected: u64 = w.clients.iter().map(|c| c.cursor.injected).sum();
    let connects: u64 = routers.iter().map(|&c| w.clients[c].connects).sum();
    let outcomes = w.finish();
    for (m, o) in outcomes.iter().enumerate() {
        let label = format!("{label}, member {m}");
        assert_telemetry(o, sent_to[m], damage[m].1, &label);
    }
    let want = reference(events, &[SimTime::MAX]);
    if faults {
        // Dense plans: a pass-through run would be a harness bug.
        assert!(injected > 0, "{label}: no fault fired");
    } else {
        assert_eq!(injected, 0, "{label}: an empty plan fired");
        for o in &outcomes {
            let damage = (o.stats.corrupt_frames, o.stats.duplicate_events);
            assert_eq!(damage, (0, 0), "{label}: a transparent path damaged frames");
        }
        assert_eq!(connects, u64::from(N), "{label}: no sink reconnected");
    }
    let prints = fingerprint(&outcomes);
    match shape {
        Shape::Alone(_) => {
            assert_same_fold(&outcomes[0].fold, &want, &label);
            // The journal reconstructs the same state again: a crash
            // after the chaos is still exactly-once.
            let cfg = PipelineConfig::new(N);
            let (mut recovered, rr) = IngestPipeline::recover(cfg, members[0].dir.path()).unwrap();
            assert_eq!(rr.corrupt_records, 0, "{label}: the journal is clean");
            recovered.advance(SimTime::MAX);
            let edges = recovered.builder().hbg().canonical_edges();
            assert_eq!(
                edges,
                want.builder().hbg().canonical_edges(),
                "{label}: recovery"
            );
            assert_eq!(recovered.status(), want.status(), "{label}: recovery");
            let (dp, ref_dp) = (recovered.tracker().dataplane(), want.tracker().dataplane());
            for r in (0..N).map(RouterId) {
                assert_eq!(
                    dp.fib(r).entries(),
                    ref_dp.fib(r).entries(),
                    "{label}: recovery"
                );
            }
        }
        Shape::Federation => {
            let folds = outcomes.into_iter().map(|o| o.fold).collect();
            let merged = merge_members(folds).expect("members agree");
            assert_same_fold(&merged, &want, &label);
        }
    }
    prints
}

/// What the registry must say after any faulty run, whichever faults
/// fired: it agrees with the session's counters, with exactly-once
/// ingestion, with durability ordering, and with the damage dealt.
fn assert_telemetry(o: &Outcome, sent: u64, flipped: u64, label: &str) {
    let (m, s) = (&o.metrics, &o.stats);
    let counted = |name| m.counter_total(name);
    assert_eq!(counted("cpvr_events_received_total"), s.events, "{label}");
    assert_eq!(
        counted("cpvr_frames_corrupt_total"),
        s.corrupt_frames,
        "{label}"
    );
    assert_eq!(
        counted("cpvr_events_duplicate_total"),
        s.duplicate_events,
        "{label}"
    );
    assert_eq!(counted("cpvr_events_gap_total"), s.gap_events, "{label}");
    // With leases off nothing is folded past: no event arrives late.
    assert_eq!(counted("cpvr_events_late_total"), 0, "{label}: late");
    assert_eq!(s.late_events, 0, "{label}: late");
    assert_eq!(
        counted("cpvr_events_received_total"),
        sent,
        "{label}: received == sent"
    );
    assert_eq!(
        m.gauge("cpvr_events_folded", &[]),
        Some(sent as i64),
        "{label}: folded"
    );
    assert_eq!(
        m.gauge("cpvr_events_pending", &[]),
        Some(0),
        "{label}: pending"
    );
    let (journaled, acked) = (
        counted("cpvr_events_journaled_total"),
        counted("cpvr_events_acked_total"),
    );
    assert!(
        journaled >= acked,
        "{label}: journaled {journaled} < acked {acked}"
    );
    assert_eq!(journaled, sent, "{label}: every fresh event journaled");
    assert!(
        counted("cpvr_wal_appends_total") >= journaled,
        "{label}: appends"
    );
    if flipped > 0 {
        let seen =
            counted("cpvr_frames_corrupt_total") + counted("cpvr_decoder_resync_bytes_total");
        assert!(
            seen > 0,
            "{label}: {flipped} flips, but the decoder saw none"
        );
    }
}

/// Each seed twice: the checks hold, and the second run is the first,
/// byte for byte.
fn check(seed: u64, shape: Shape) {
    let first = chaos(seed, shape, true);
    assert_eq!(
        first,
        chaos(seed, shape, true),
        "seed {seed}, {shape:?}: rerun"
    );
}

const SHAPES: [Shape; 4] = [
    Shape::Alone(1),
    Shape::Alone(2),
    Shape::Alone(4),
    Shape::Federation,
];

#[test]
fn seeded_faults_leave_the_fold_bit_identical() {
    for seed in 1..=16 {
        for shape in SHAPES {
            check(seed, shape);
        }
    }
}

/// The sweep CI runs: a thousand seeds at each shape.
#[test]
#[ignore = "a thousand seeds per shape; CI runs it"]
fn seeded_faults_sweep() {
    for seed in 0..1000 {
        for shape in SHAPES {
            check(seed, shape);
        }
    }
}

/// A transparent path changes nothing: the harness itself is no source
/// of divergence.
#[test]
fn a_transparent_path_is_invisible() {
    for shape in SHAPES {
        chaos(5, shape, false);
    }
}

/// A `Delay` is virtual time: the held bytes reach the collector exactly
/// when it runs out, and not a nanosecond before.
#[test]
fn a_delay_holds_delivery_for_exactly_its_virtual_time() {
    let members = [Member::new(1, LeaseConfig::disabled())];
    let mut w = World::new(&members, |_, _| FaultPlan::none());
    let mine = stream(trace(false), 0);
    let plan = FaultPlan::from_schedule(vec![(200, FaultKind::Delay { ms: 400 })]);
    let c = w.router(0, mine, plan, chaos_policy());
    w.settle();
    w.send(c, 20);
    let held = w.t + 400 * MS;
    w.advance(400 * MS - Duration::from_nanos(1));
    let before = w.members[0].metrics.stats().events;
    w.advance(Duration::from_nanos(1));
    assert_eq!(w.t, held);
    let after = w.members[0].metrics.stats().events;
    assert!(
        before < 20,
        "{before} events arrived before the delay ran out"
    );
    assert_eq!(after, 20, "everything arrives when it does");
}

/// A reader closes a silent connection exactly `IDLE_TIMEOUT` after
/// its last wake, and the client sees the hang-up.
#[test]
fn a_silent_connection_closes_exactly_at_its_idle_deadline() {
    let members = [Member::new(1, LeaseConfig::disabled())];
    let mut w = World::new(&members, |_, _| FaultPlan::none());
    let c = w.router(
        0,
        stream(trace(false), 0),
        FaultPlan::none(),
        chaos_policy(),
    );
    w.settle();
    let k = w.clients[c].conn.expect("dialed");
    w.advance(IDLE_TIMEOUT - Duration::from_nanos(1));
    assert!(w.conns[k].reader.is_some(), "open until the deadline");
    w.advance(Duration::from_nanos(1));
    assert!(w.conns[k].reader.is_none(), "closed at the deadline");
    assert!(w.clients[c].conn.is_none(), "the client saw the hang-up");
    assert!(!w.clients[c].link.lock().up);
}

/// The eviction path, scripted: a straggler hands over everything below
/// the midpoint without promising it, then goes silent; the lease evicts
/// it and the fold provably resumes (the watermark reaches the healthy
/// routers' promise); the straggler's next send finds its connection
/// hung up, reconnects and is re-admitted, with no loss of identity.
#[test]
fn eviction_unblocks_the_fold_and_readmission_restores_identity() {
    for shards in [1, 2] {
        evict_and_readmit(shards);
    }
}

fn evict_and_readmit(shards: u32) {
    let label = format!("{shards} shard(s)");
    let events = trace(false);
    let end = events.iter().map(|e| e.time).max().expect("events");
    let mid = SimTime::from_nanos(end.as_nanos() / 2);
    let lease = LeaseConfig {
        lagging_after: 100 * MS,
        evict_after: 300 * MS,
        stall_after: Duration::from_secs(30),
    };
    let members = [Member::new(shards, lease).armed()];
    let mut w = World::new(&members, |_, _| FaultPlan::none());
    let routers: Vec<usize> = (0..N)
        .map(|r| {
            w.router(
                r,
                stream(events, r),
                FaultPlan::none(),
                ReconnectPolicy::default(),
            )
        })
        .collect();
    let split = |w: &mut World<'_>, c: usize| {
        let r = w.sink(c);
        r.events.partition_point(|e| e.time <= mid)
    };
    let (straggler, healthy) = (routers[0], &routers[1..]);
    for &c in healthy {
        let k = split(&mut w, c);
        w.send(c, k);
        w.promise(c, mid);
    }
    let k = split(&mut w, straggler);
    w.send(straggler, k);
    w.drain(straggler);
    let acked = w.run_until(w.t + Duration::from_secs(30), |w| {
        !w.clients[straggler].link.lock().outstanding()
    });
    assert!(acked, "{label}: the straggler's first half was never acked");
    assert_eq!(
        w.completed(0),
        None,
        "{label}: the straggler gates the fold"
    );

    // The healthy routers heartbeat; the straggler says nothing.
    let stats = |w: &World<'_>| w.members[0].metrics.stats();
    let mut released = false;
    for _ in 0..1000 {
        for &c in healthy {
            w.heartbeat(c);
        }
        w.advance(20 * MS);
        let s = stats(&w);
        if s.evictions >= 1 && s.watermark == Some(mid) {
            released = true;
            break;
        }
    }
    assert!(
        released,
        "{label}: eviction never released the fold: {:?}",
        stats(&w)
    );

    // The straggler comes back with the rest: its first frame finds the
    // connection hung up, so it redials and is re-admitted.
    let rest = w.sink(straggler).events.len();
    w.send(straggler, rest);
    w.bye(straggler);
    w.drain(straggler);
    let back = w.run_until(w.t + Duration::from_secs(60), |w| {
        w.drained(straggler) && stats(w).readmissions >= 1
    });
    assert!(
        back,
        "{label}: the straggler was never re-admitted: {:?}",
        stats(&w)
    );
    // Then the healthy routers' second half.
    for &c in healthy {
        let rest = w.sink(c).events.len();
        w.send(c, rest);
        w.bye(c);
        w.drain(c);
    }
    let done = w.run_until(w.t + Duration::from_secs(60), |w| {
        routers.iter().all(|&c| w.drained(c)) && w.everywhere(SimTime::MAX)
    });
    assert!(
        done,
        "{label}: never converged after re-admission: {:?}",
        stats(&w)
    );
    let outcome = w.finish().remove(0);
    let s = outcome.stats;

    assert!(s.evictions >= 1 && s.readmissions >= 1, "{label}: {s:?}");
    // Every eviction froze exactly one anomaly dump next to the journal.
    let dumps = std::fs::read_dir(members[0].dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("flight-eviction-") && name.ends_with(".json")
        })
        .count() as u64;
    assert_eq!(dumps, s.evictions, "{label}: one flight dump per eviction");
    // Its first half was journaled before the eviction, and its second
    // half lies past `mid`: nothing was folded past.
    assert_eq!(s.late_events, 0, "{label}");
    assert_same_fold(&outcome.fold, &reference(events, &[SimTime::MAX]), &label);
    // The journaled eviction and re-admission are durable history.
    let cfg = PipelineConfig::new(N);
    let (_, rr) = IngestPipeline::recover(cfg, members[0].dir.path()).unwrap();
    assert!(rr.evicted.is_empty(), "{label}: {:?}", rr.evicted);
}

/// A sink that never drains fills its replay window behind one damaged
/// frame: the collector quarantines it and drops everything after as a
/// gap, so the acks stop at the damage. Waiting for room must then do
/// what a drain does on a stall — redial and replay.
#[test]
fn a_full_window_behind_a_lost_frame_replays() {
    const EVENTS: u32 = 20_000;
    let members = [Member::new(1, LeaseConfig::disabled())];
    let mut w = World::new(&members, |_, _| FaultPlan::none());
    let events: Vec<IoEvent> = (0..EVENTS)
        .map(|i| IoEvent {
            id: EventId(i),
            router: RouterId(0),
            time: SimTime::from_micros(u64::from(i) + 1),
            arrived_at: None,
            kind: IoKind::FibRemove {
                prefix: "10.0.0.0/8".parse().unwrap(),
            },
        })
        .collect();
    let plan = FaultPlan::from_schedule(vec![(2_010, FaultKind::FlipBit { mask: 0x40 })]);
    let c = w.router(0, events, plan, chaos_policy());
    let mut full = false;
    while w.sink(c).next < EVENTS as usize {
        if w.sink(c).want.is_none_or(|x| x == Want::Up) {
            w.send(c, 4096);
        }
        full |= w.sink(c).want == Some(Want::Room);
        w.advance(MS);
    }
    assert!(full, "the window filled behind the damage");
    w.drain(c);
    let drained = w.run_until(w.t + Duration::from_secs(60), |w| w.drained(c));
    assert!(drained, "the replay never got every event acked");
    assert!(w.clients[c].connects >= 2, "only a replay heals the gap");
    assert_eq!(w.clients[c].cursor.flipped, 1, "the one fault fired");
    // A one-router collector of a 3-router config never completes: the
    // others gate it. Only the ingest counts here.
    let s = w.members[0].metrics.stats();
    assert_eq!(s.events, u64::from(EVENTS));
    assert!(s.corrupt_frames >= 1, "the damage was seen");
}

/// The lockstep grid of the phased schedule (every event sent and
/// acked, then the grid promised in lockstep, each step merged
/// everywhere before the next — which pins the barrier sequence, so the
/// §4.3 wait counters compare bit for bit): every capture *arrival*
/// falls under some step.
fn grid(events: &[IoEvent]) -> Vec<SimTime> {
    const STEP: SimTime = SimTime::from_millis(2);
    let end = events
        .iter()
        .map(|e| e.arrived_at.unwrap_or(e.time))
        .max()
        .expect("events");
    let mut steps = vec![STEP];
    while *steps.last().expect("a step") < end + STEP {
        steps.push(*steps.last().expect("a step") + STEP);
    }
    steps
}

/// Routers that stream `events` into `w` with no faults, sent and acked.
fn phased_sources(w: &mut World<'_>, events: &[IoEvent]) -> Vec<usize> {
    let routers: Vec<usize> = (0..N)
        .map(|r| {
            w.router(
                r,
                stream(events, r),
                FaultPlan::none(),
                ReconnectPolicy::default(),
            )
        })
        .collect();
    for &c in &routers {
        let all = w.sink(c).events.len();
        w.send(c, all);
        w.drain(c);
    }
    let acked = w.run_until(w.t + Duration::from_secs(30), |w| {
        routers.iter().all(|&c| w.drained(c))
    });
    assert!(acked, "the phased sources were never acked");
    routers
}

/// One lockstep step: promise `t` everywhere, then run until the global
/// verdict for `t` landed on every member.
fn step(w: &mut World<'_>, routers: &[usize], t: SimTime) {
    for &c in routers {
        w.promise(c, t);
    }
    let landed = w.run_until(w.t + Duration::from_secs(30), |w| w.everywhere(t));
    assert!(landed, "the watermark never reached {t:?}");
}

fn say_bye(w: &mut World<'_>, routers: &[usize]) {
    for &c in routers {
        w.bye(c);
    }
    let ended = w.run_until(w.t + Duration::from_secs(30), |w| {
        w.everywhere(SimTime::MAX)
    });
    assert!(ended, "the byes never pushed the watermark to the end");
}

/// The single collector under the phased schedule: the oracle.
fn phased_single(events: &[IoEvent]) -> Outcome {
    let members = [Member::new(1, LeaseConfig::default())];
    let mut w = World::new(&members, |_, _| FaultPlan::none());
    let routers = phased_sources(&mut w, events);
    for t in grid(events) {
        step(&mut w, &routers, t);
    }
    say_bye(&mut w, &routers);
    w.finish().remove(0)
}

/// Every observable the verifier exposes matches the single collector:
/// verdict, wait statistics, HBG multiset, counters, data plane,
/// watermark — and each member's last view of its peers is the end.
fn assert_equivalent(members: Vec<Outcome>, single: &Outcome, label: &str) {
    let n = members.len() as u32;
    for (m, o) in members.iter().enumerate() {
        let member = o.fold.member().expect("a member").role();
        let crate::federation::CollectorRole::Member { peers, members, .. } = member else {
            panic!("{label}: member {m} reported standalone");
        };
        assert_eq!((members, peers.len() as u32), (n, n - 1), "{label}");
        for p in peers {
            assert_eq!(p.min, Some(SimTime::MAX), "{label}: final peer frontier");
        }
    }
    let got = merge_members(members.into_iter().map(|o| o.fold).collect()).expect("merge");
    let base = &single.fold;
    assert_eq!(got.events(), base.events(), "{label}: events");
    assert_eq!(got.processed(), base.processed(), "{label}: folded");
    assert_eq!(got.pending(), 0, "{label}: pending");
    assert_eq!(
        got.canonical_edges(),
        base.canonical_edges(),
        "{label}: HBG"
    );
    assert_eq!(got.edge_counts(), base.edge_counts(), "{label}: per rule");
    assert_eq!(got.status(), base.status(), "{label}: verdict");
    assert_eq!(
        got.wait_stats(),
        base.wait_stats(),
        "{label}: wait accounting"
    );
    assert_eq!(got.watermark(), base.watermark(), "{label}: watermark");
    let (dp, ref_dp) = (got.dataplane(), base.dataplane());
    for r in (0..N).map(RouterId) {
        let fib = (dp.fib(r).entries(), dp.taken_at(r));
        assert_eq!(
            fib,
            (ref_dp.fib(r).entries(), ref_dp.taken_at(r)),
            "{label}: {r:?}"
        );
    }
}

/// Cuts every peer link touching member 0, both ways (router links stay
/// up), holds the partition long enough to show the fold stalls rather
/// than diverges, heals, and requires the go-back-N replay to converge
/// to the single collector bit for bit.
#[test]
fn partition_heal_converges_bit_identical() {
    let events = trace(true);
    let single = phased_single(events);
    assert!(single.fold.wait_stats().0 > 0, "the phased schedule waits");
    let members = Member::federation(&[1, 1, 1], LeaseConfig::default());
    let mut w = World::new(&members, |_, _| FaultPlan::none());
    let routers = phased_sources(&mut w, events);
    let steps = grid(events);
    let (first, rest) = steps.split_at(steps.len() / 2);
    for &t in first {
        step(&mut w, &routers, t);
    }
    let held = first[first.len() - 1];
    w.partition(0, true);
    // The sources keep promising into the partition; the federated
    // minimum cannot move without member 0's frontier, so every member
    // holds the last merged horizon instead of folding ahead.
    let during = &rest[..3];
    for &t in during {
        for &c in &routers {
            w.promise(c, t);
        }
    }
    w.advance(500 * MS);
    for m in 0..members.len() {
        assert_eq!(
            w.completed(m),
            Some(held),
            "member {m} folded ahead during the partition"
        );
    }
    // Heal: the links redial on their backoff and the windows replay
    // every frontier, boundary batch and partial in order.
    w.partition(0, false);
    let last = during[during.len() - 1];
    let healed = w.run_until(w.t + Duration::from_secs(30), |w| w.everywhere(last));
    assert!(healed, "never converged to {last:?} after the heal");
    for &t in &rest[during.len()..] {
        step(&mut w, &routers, t);
    }
    say_bye(&mut w, &routers);
    assert_equivalent(w.finish(), &single, "post-heal");
}

/// One bit flipped on every member→member link while the links stay up:
/// each receiver quarantines the damaged frame, then drops every later
/// one as a gap and re-acks the same cursor. Only the sender's
/// `PEER_ACK_STALL` — drop the live link, redial, replay the unacked
/// window — gets the federation past that, to the single collector's
/// fold; in virtual time, the stall costs no wall time.
#[test]
fn a_corrupted_peer_frame_is_retransmitted() {
    let events = trace(true);
    let single = phased_single(events);
    let started = Instant::now();
    let members = Member::federation(&[1, 1, 1], LeaseConfig::default());
    let flip = || FaultPlan::from_schedule(vec![(600, FaultKind::FlipBit { mask: 0x10 })]);
    let mut w = World::new(&members, |_, _| flip());
    let routers = phased_sources(&mut w, events);
    for t in grid(events) {
        step(&mut w, &routers, t);
    }
    say_bye(&mut w, &routers);
    assert!(
        w.t >= PEER_ACK_STALL,
        "the stall bound passed in virtual time"
    );
    let outcomes = w.finish();
    let wall = started.elapsed();
    for (m, o) in outcomes.iter().enumerate() {
        assert!(
            o.stats.corrupt_frames > 0,
            "member {m}: the flip never landed"
        );
    }
    // Each member received a damaged frame, so at least one link into
    // each was dropped on a stall and replayed.
    let stalls: u64 = (outcomes.iter())
        .map(|o| o.metrics.counter_total("cpvr_peer_ack_stalls_total"))
        .sum();
    assert!(stalls >= 3, "{stalls} stall drops for 3 damaged links");
    assert_equivalent(outcomes, &single, "after a corrupted peer frame");
    assert!(
        wall < Duration::from_secs(1),
        "the stall replay took {wall:?} of wall time"
    );
}

/// A peer hello for another plan is a protocol violation: the reader
/// counts one decode error and hangs up, rather than keep a connection
/// whose every frame the member would drop.
#[test]
fn a_peer_hello_for_another_plan_is_refused() {
    let members = Member::federation(&[1, 1], LeaseConfig::disabled());
    let mut w = World::new(&members, |_, _| FaultPlan::none());
    let link = w.peer_link(0, 1);
    if let Role::Peer { hello, .. } = &mut w.clients[link].role {
        hello.members = 3;
    }
    w.settle();
    assert_eq!(w.conns.len(), 2, "each member dialed the other once");
    let k = (0..w.conns.len()).find(|&k| w.conns[k].client == link);
    let k = k.expect("member 0 dialed member 1");
    assert!(w.conns[k].reader.is_none(), "member 1 hung up");
    assert!(w.clients[link].conn.is_none(), "member 0 saw the hang-up");
    let snap = members[1].metrics.snapshot();
    assert_eq!(snap.counter_total("cpvr_decode_errors_total"), 1);
}

// ---- every fault class, told apart by telemetry alone ----

/// The leases the fault classes run under: a source silent for 3 s is
/// evicted, and an event waiting 2 s behind a still watermark stalls.
const WATCHED: LeaseConfig = LeaseConfig {
    lagging_after: Duration::from_secs(1),
    evict_after: Duration::from_secs(3),
    stall_after: Duration::from_secs(2),
};

/// How long a run goes on after its script: past every bound above and
/// past `PEER_ACK_STALL`, so each class has fired once.
const SPAN: Duration = Duration::from_millis(3500);

/// The byte of member 0's link to member 1 a peer-link fault hits.
const PEER_AT: u64 = 600;

/// One fault class the harness can inject, into a two-member federation
/// of the paper scenario: routers 0 and 2 stream to member 0, router 1
/// to member 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// One byte fault halfway into router 0's stream.
    Router(FaultKind),
    /// One byte fault on member 0's link to member 1.
    Peer(FaultKind),
    /// Router 2 sends half its stream, promises nothing and goes silent.
    Silent,
    /// Router 2 promises the first horizon and no later one, though it
    /// keeps talking.
    Withheld,
    /// Member 1 hangs once the first horizon is promised.
    Hung,
    /// Router 0's stream carries an event of router 1.
    Foreign,
    /// Member 0's link greets member 1 as one of three members.
    WrongPlan,
    /// Every router captures through syslog.
    Skewed,
    /// Member 0 journals a `Gated` repair record with this verdict.
    Gated(u8),
}

/// What an operator reads for a fault class; each reads 0 on a
/// fault-free run.
#[derive(Clone, Copy, Debug)]
enum Signal {
    /// A counter family's total.
    Counter(&'static str),
    /// An unlabelled gauge.
    Gauge(&'static str),
    /// `cpvr_connections_total` beyond the one dial of each of the
    /// member's clients (its routers and its peer).
    Redials,
    /// The flight records of one stage.
    Stage(u32),
}

/// How a class's culprit is named.
#[derive(Clone, Copy, Debug)]
enum Blame {
    /// By the `EVICTION` record's router, whose `cpvr_source_state`
    /// reads 3.
    Evicted,
    /// By the one series of a lag gauge family above 0, through its
    /// label.
    Lag(&'static str, &'static str),
}

/// One row of DESIGN.md's fault-class table: the class, what moves at
/// which member, and who the telemetry names as the culprit.
struct Class {
    fault: Fault,
    moves: &'static [(usize, Signal)],
    culprit: Option<(usize, Blame, &'static str)>,
}

/// One member's telemetry: its registry and its flight recorder.
type Telemetry = (Snapshot, FlightDump);

impl Signal {
    fn read(self, (snap, dump): &Telemetry, member: usize) -> i64 {
        match self {
            Signal::Counter(name) => snap.counter_total(name) as i64,
            Signal::Gauge(name) => snap.gauge(name, &[]).expect("a published gauge"),
            Signal::Redials => {
                // Member 0: routers 0 and 2 and member 1's link; member
                // 1: router 1 and member 0's link.
                let clients = [3, 2][member];
                snap.counter_total("cpvr_connections_total") as i64 - clients
            }
            Signal::Stage(code) => dump.records.iter().filter(|r| r.stage == code).count() as i64,
        }
    }
}

impl Blame {
    fn name(self, (snap, dump): &Telemetry) -> String {
        match self {
            Blame::Evicted => {
                let evicted = dump.records.iter().filter(|r| r.stage == stage::EVICTION);
                let routers: Vec<String> = evicted.map(|r| r.a.to_string()).collect();
                let [router] = &routers[..] else {
                    panic!("evictions of {routers:?}");
                };
                let state = snap.gauge("cpvr_source_state", &[("router", router)]);
                assert_eq!(state, Some(3), "router {router} reads evicted");
                router.clone()
            }
            Blame::Lag(family, label) => {
                let lagging = snap
                    .gauges
                    .iter()
                    .filter(|g| g.name == family && g.value > 0);
                let named: Vec<&str> = lagging
                    .flat_map(|g| g.labels.iter().filter(|(k, _)| k == label))
                    .map(|(_, v)| v.as_str())
                    .collect();
                let [one] = &named[..] else {
                    panic!("{family} lags at {named:?}");
                };
                one.to_string()
            }
        }
    }
}

const DROP: FaultKind = FaultKind::Drop { len: 16 };
const FLIP: FaultKind = FaultKind::FlipBit { mask: 0x10 };
const DUPLICATE: FaultKind = FaultKind::Duplicate { len: 64 };
/// Shorter than every lease, stall bound and sink policy: no trace.
const DELAY: FaultKind = FaultKind::Delay { ms: 50 };

const CORRUPT: Signal = Signal::Counter("cpvr_frames_corrupt_total");
const ACK_STALLS: Signal = Signal::Counter("cpvr_peer_ack_stalls_total");
const DECODE_ERRORS: Signal = Signal::Counter("cpvr_decode_errors_total");

/// Every fault class, in DESIGN.md's order. Byte faults name no
/// culprit: no family is kept per source for them.
const CLASSES: &[Class] = &[
    Class {
        fault: Fault::Router(DROP),
        moves: &[(0, CORRUPT)],
        culprit: None,
    },
    Class {
        fault: Fault::Router(FLIP),
        moves: &[(0, CORRUPT)],
        culprit: None,
    },
    Class {
        fault: Fault::Router(DUPLICATE),
        moves: &[(0, Signal::Counter("cpvr_events_duplicate_total"))],
        culprit: None,
    },
    Class {
        fault: Fault::Router(DELAY),
        moves: &[],
        culprit: None,
    },
    Class {
        fault: Fault::Router(FaultKind::Disconnect),
        moves: &[(0, Signal::Redials)],
        culprit: None,
    },
    Class {
        fault: Fault::Peer(DROP),
        moves: &[(1, CORRUPT), (0, ACK_STALLS)],
        culprit: None,
    },
    Class {
        fault: Fault::Peer(FLIP),
        moves: &[(1, CORRUPT), (0, ACK_STALLS)],
        culprit: None,
    },
    Class {
        fault: Fault::Peer(DUPLICATE),
        moves: &[(1, CORRUPT), (0, ACK_STALLS)],
        culprit: None,
    },
    Class {
        fault: Fault::Peer(DELAY),
        moves: &[],
        culprit: None,
    },
    Class {
        fault: Fault::Peer(FaultKind::Disconnect),
        moves: &[(1, Signal::Redials)],
        culprit: None,
    },
    Class {
        fault: Fault::Silent,
        moves: &[
            (0, Signal::Counter("cpvr_evictions_total")),
            (0, Signal::Stage(stage::EVICTION)),
        ],
        culprit: Some((0, Blame::Evicted, "2")),
    },
    Class {
        fault: Fault::Withheld,
        moves: &[
            (0, Signal::Gauge("cpvr_watermark_stall_seconds")),
            (0, Signal::Stage(stage::WATERMARK_STALL)),
        ],
        culprit: Some((0, Blame::Lag("cpvr_source_lag_nanos", "router"), "2")),
    },
    Class {
        fault: Fault::Hung,
        moves: &[(0, ACK_STALLS)],
        culprit: Some((0, Blame::Lag("cpvr_peer_lag_nanos", "peer"), "1")),
    },
    Class {
        fault: Fault::Foreign,
        moves: &[(0, DECODE_ERRORS)],
        culprit: None,
    },
    Class {
        fault: Fault::WrongPlan,
        moves: &[(1, DECODE_ERRORS)],
        culprit: None,
    },
    Class {
        fault: Fault::Skewed,
        moves: &[
            (0, Signal::Gauge("cpvr_tracker_waits_issued")),
            (0, Signal::Gauge("cpvr_tracker_waits_resolved")),
            (1, Signal::Gauge("cpvr_tracker_waits_issued")),
            (1, Signal::Gauge("cpvr_tracker_waits_resolved")),
        ],
        culprit: None,
    },
    Class {
        fault: Fault::Gated(0),
        moves: &[(0, Signal::Counter("cpvr_repair_gate_reproduced_total"))],
        culprit: None,
    },
    Class {
        fault: Fault::Gated(1),
        moves: &[
            (0, Signal::Counter("cpvr_repair_gate_diverged_total")),
            (0, Signal::Stage(stage::GATE_ANOMALY)),
        ],
        culprit: None,
    },
    Class {
        fault: Fault::Gated(2),
        moves: &[
            (0, Signal::Counter("cpvr_repair_gate_error_total")),
            (0, Signal::Stage(stage::GATE_ANOMALY)),
        ],
        culprit: None,
    },
];

impl World<'_> {
    /// The client that is member `from`'s link to member `to`.
    fn peer_link(&self, from: usize, to: usize) -> usize {
        let link = |c: &Client| matches!(c.role, Role::Peer { from: f, .. } if f == from);
        (self.clients.iter())
            .position(|c| link(c) && c.to == to)
            .expect("a peer link")
    }
}

/// Every member's telemetry after one run under `fault` (`None`: the
/// fault-free run). The routers send their streams, promise a horizon
/// every 20 ms of the trace, say bye and drain; then the run goes on
/// for `SPAN`, or until every stream is folded to the end, with every
/// router that has not said bye heartbeating.
fn observe(fault: Option<Fault>) -> Vec<Telemetry> {
    let events = trace(fault == Some(Fault::Skewed));
    let members = Member::federation(&[1, 1], WATCHED);
    let mut w = World::new(&members, |from, to| match fault {
        Some(Fault::Peer(kind)) if (from, to) == (0, 1) => {
            FaultPlan::from_schedule(vec![(PEER_AT, kind)])
        }
        _ => FaultPlan::none(),
    });
    if fault == Some(Fault::WrongPlan) {
        let link = w.peer_link(0, 1);
        if let Role::Peer { hello, .. } = &mut w.clients[link].role {
            hello.members = 3;
        }
    }
    let routers: Vec<usize> = (0..N)
        .map(|r| {
            let mut mine = stream(events, r);
            let mut plan = FaultPlan::none();
            match fault {
                Some(Fault::Router(kind)) if r == 0 => {
                    plan = FaultPlan::from_schedule(vec![(stream_len(&mine) / 2, kind)]);
                }
                Some(Fault::Foreign) if r == 0 => {
                    let mid = mine.len() / 2;
                    let foreign = IoEvent {
                        router: RouterId(1),
                        ..mine[mid].clone()
                    };
                    mine.insert(mid, foreign);
                }
                _ => {}
            }
            w.router(r, mine, plan, chaos_policy())
        })
        .collect();
    let culprit = routers[2];
    let silent = |c: usize| c == culprit && fault == Some(Fault::Silent);
    for &c in &routers {
        let all = w.sink(c).events.len();
        w.send(c, if silent(c) { all / 2 } else { all });
    }
    for (i, t) in grid(events).into_iter().step_by(10).enumerate() {
        for &c in &routers {
            let withheld = c == culprit && fault == Some(Fault::Withheld) && i > 0;
            if !silent(c) && !withheld {
                w.promise(c, t);
            }
        }
        w.advance(MS);
        if i == 0 && fault == Some(Fault::Hung) {
            w.hung = Some(1);
        }
    }
    let byes = !matches!(fault, Some(Fault::Withheld | Fault::Hung));
    let talking: Vec<usize> = routers.iter().copied().filter(|&c| !silent(c)).collect();
    for &c in talking.iter().filter(|_| byes) {
        w.bye(c);
        w.drain(c);
    }
    if let Some(Fault::Gated(verdict)) = fault {
        let record = RepairRecord {
            repair_id: 0x9a7e,
            stage: RepairStage::Gated,
            at: SimTime::ZERO,
            verdict: Some(verdict),
            proof: Vec::new(),
            trace: None,
        };
        let now = w.now(0);
        w.sessions[0].on_msg(Msg::Repair { record, done: None }, now);
    }
    let until = w.t + SPAN;
    let done = |w: &World<'_>| routers.iter().all(|&c| w.drained(c)) && w.everywhere(SimTime::MAX);
    while w.t < until {
        for &c in talking.iter().filter(|_| !byes) {
            w.heartbeat(c);
        }
        if w.run_until(until.min(w.t + 250 * MS), done) {
            break;
        }
    }
    let outcomes = w.finish();
    outcomes.into_iter().map(|o| (o.metrics, o.dump)).collect()
}

/// A run's telemetry two runs of it must agree on: every counter and
/// gauge series, every histogram's count (histograms stamped off the
/// wall clock vary in value), and the flight dumps byte for byte.
fn telemetry_print(run: &[Telemetry]) -> Vec<String> {
    run.iter()
        .map(|(snap, dump)| {
            let counts: Vec<_> = (snap.histograms.iter())
                .map(|h| (&h.name, &h.labels, h.count))
                .collect();
            let dump = cpvr_types::json::to_string_compact(dump);
            format!("{:?} {:?} {counts:?} {dump}", snap.counters, snap.gauges)
        })
        .collect()
}

/// Every fault class the harness injects shows in telemetry alone: the
/// fault-free run leaves every signal of the table at 0; each class
/// moves the signals its row names (a `Delay` shorter than every lease
/// moves none) and names its culprit where the table says one is named.
/// A second pass gives the same telemetry.
#[test]
fn telemetry_names_every_fault_class() {
    let pass = || {
        let runs = CLASSES.iter().map(|c| observe(Some(c.fault)));
        std::iter::once(observe(None))
            .chain(runs)
            .collect::<Vec<_>>()
    };
    let first = pass();
    let signals: Vec<Signal> = CLASSES
        .iter()
        .flat_map(|c| c.moves.iter().map(|m| m.1))
        .collect();
    let still = |run: &[Telemetry], label: &str| {
        for (m, t) in run.iter().enumerate() {
            for s in &signals {
                assert_eq!(s.read(t, m), 0, "{label}: {s:?} moved at member {m}");
            }
        }
    };
    still(&first[0], "fault-free");
    for (class, run) in CLASSES.iter().zip(&first[1..]) {
        let label = format!("{:?}", class.fault);
        if class.moves.is_empty() {
            still(run, &label);
        }
        for &(m, s) in class.moves {
            assert!(s.read(&run[m], m) > 0, "{label}: {s:?} still at member {m}");
        }
        if let Some((m, blame, who)) = class.culprit {
            assert_eq!(blame.name(&run[m]), who, "{label}: culprit");
        }
    }
    let second = pass();
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(telemetry_print(a), telemetry_print(b), "a rerun");
    }
}
