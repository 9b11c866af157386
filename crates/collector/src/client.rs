//! The sender side: a socket-backed [`EventSink`] a router (or the
//! simulator standing in for one) plugs into its capture tap — now
//! fault-tolerant.
//!
//! One [`SocketSink`] speaks for one router. The driving loop is:
//! connect (which sends the hello), feed events as the tap emits them,
//! call [`watermark`](SocketSink::watermark) whenever the local clock
//! guarantees everything stamped ≤ `t` has been emitted,
//! [`heartbeat`](SocketSink::heartbeat) while idle so the collector's
//! liveness lease stays fresh, and [`bye`](SocketSink::bye) at the end
//! of the stream. [`drain`](SocketSink::drain) blocks until the
//! collector has acknowledged every event.
//!
//! ## Fault tolerance
//!
//! Every event is stamped with a session-scoped **sequence number** and
//! kept in a bounded in-memory **replay buffer** until the collector's
//! cumulative [`Ack`](crate::codec::Frame::Ack) covers it. The acks are
//! read by the connection's own reply reader (the `link` module), which
//! prunes the buffer and wakes a sink blocked on it; sends never wait
//! for an ack unless the buffer is full. A failed write, a connection
//! the reply reader saw die, or an ack stall while the sink waits for
//! room or in `drain` (which is how a *silent* loss downstream is
//! detected) triggers **reconnect with capped exponential backoff and
//! jitter**: the sink re-Hellos with the same session, replays
//! everything unacknowledged, and re-promises its last watermark. The
//! collector deduplicates the replay by sequence number, so delivery is
//! at-least-once on the wire and exactly-once in the fold. When to
//! solicit, redial or give up is the link's sender's decision; the sink
//! passes it its [`ReconnectPolicy`], its jitter and `SOLICIT_EVERY`.
//!
//! `EventSink::on_event` cannot return an error, so unrecoverable I/O
//! failures (reconnect attempts exhausted, replay buffer overflow) are
//! latched: the first error sticks, later sends become no-ops, and the
//! driver observes it via [`take_error`](SocketSink::take_error) (or
//! the next fallible call). A capture tap must never take down the
//! control plane it is observing — shedding the stream is the designed
//! last-resort failure mode.

use crate::codec::{encode_frame, write_frame, CodecVersion, EventEncoder, Frame, Hello};
use crate::link::{fresh_session, read_frames, Link, Next, ReplyReader, Sender};
use cpvr_obs::{ExpoFormat, Snapshot};
use cpvr_sim::{EventSink, IoEvent};
use cpvr_types::{RouterId, SimTime, TraceCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum unacknowledged events held for replay. When full, sends block
/// on ack progress, replaying on a stall, then fail: bounded memory
/// inside a router.
const REPLAY_CAPACITY: usize = 16 * 1024;

/// How often a sink waiting on the collector re-solicits an ack (and
/// re-sends an unconfirmed bye).
pub(crate) const SOLICIT_EVERY: Duration = Duration::from_millis(25);

/// Reconnection and replay tuning.
#[derive(Clone, Copy, Debug)]
pub struct ReconnectPolicy {
    /// Failed connection attempts in a row before giving up and
    /// latching the error.
    pub max_attempts: u32,
    /// Backoff after a failed attempt, doubling per failure; also the
    /// least gap between a connection that came up and the next attempt.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
    /// While waiting for acks — for room in a full replay buffer, or in
    /// [`drain`](SocketSink::drain) — with the connection apparently
    /// healthy but acks not advancing for this long, assume frames were
    /// lost downstream and force a reconnect + replay (the go-back-N
    /// retransmission trigger).
    pub stall_after: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 12,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
            stall_after: Duration::from_millis(500),
        }
    }
}

/// A buffered, reconnecting TCP connection to the collector, usable
/// directly or as an [`EventSink`].
pub struct SocketSink {
    addr: SocketAddr,
    /// The connection and its reply reader; dropping them flushes what
    /// was buffered, ends the connection and joins the reader.
    conn: Option<(BufWriter<TcpStream>, ReplyReader)>,
    /// The handshake every (re)connect opens with; `first_seq` is
    /// filled in at connect time.
    hello: Hello,
    policy: ReconnectPolicy,
    /// The sender, numbering events from 0; shared with the reader.
    link: Arc<Link>,
    /// The last promise made, re-issued after a reconnect.
    last_wm: Option<(SimTime, u64)>,
    /// Encodes event frames into reusable scratch buffers and owns this
    /// session's intern tables, whose definition frames are replayed on
    /// every reconnect.
    enc: EventEncoder,
    /// First unrecoverable error, latched; everything after is dropped.
    error: Option<io::Error>,
    /// Successful connection establishments.
    connects: u64,
    /// Trace-stamp every Nth event with a [`TraceCtx`] trailer
    /// (0 = tracing off).
    trace_every: u64,
}

impl SocketSink {
    /// Connects (with the default [`ReconnectPolicy`]) and performs the
    /// hello handshake for `source`.
    pub fn connect(addr: impl ToSocketAddrs, source: RouterId, n_routers: u32) -> io::Result<Self> {
        Self::connect_with(addr, source, n_routers, ReconnectPolicy::default())
    }

    /// Connects with an explicit policy.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        source: RouterId,
        n_routers: u32,
        policy: ReconnectPolicy,
    ) -> io::Result<Self> {
        Self::connect_with_codec(addr, source, n_routers, policy, CodecVersion::V3)
    }

    /// The one constructor. `codec` selects nothing — there is one event
    /// codec; the parameter is pinned by the benchmark ledger's sources
    /// (see [`CodecVersion`]), so call [`connect_with`](Self::connect_with).
    pub fn connect_with_codec(
        addr: impl ToSocketAddrs,
        source: RouterId,
        n_routers: u32,
        policy: ReconnectPolicy,
        codec: CodecVersion,
    ) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        let session = fresh_session();
        // Jittered redials: reconnect storms from many clients
        // decorrelate instead of synchronizing.
        let jitter = StdRng::seed_from_u64(session ^ u64::from(source.0));
        let mut sink = SocketSink {
            addr,
            conn: None,
            hello: Hello {
                source,
                n_routers,
                session,
                first_seq: 0,
            },
            policy,
            link: Link::new(Sender::new(0, policy, Some(SOLICIT_EVERY), Some(jitter))),
            last_wm: None,
            enc: EventEncoder::new(codec),
            error: None,
            connects: 0,
            trace_every: 0,
        };
        sink.establish()?;
        Ok(sink)
    }

    /// Samples every `every`-th event for causal tracing: the sampled
    /// event's frame carries a [`TraceCtx`] trailer minted from
    /// `(session, seq)`, which the collector's flight recorder follows
    /// through every hop (decode, journal, fold) as a child of this
    /// sink's send. The collector samples flights on its own — the same
    /// context for every 64th sequence number that arrives untraced —
    /// so this only adds the sender-side hop, or a denser sample. `0`
    /// disables it. Deterministic: the same session and sequence always
    /// mint the same trace id, so a go-back-N replay re-sends the same
    /// context.
    pub fn set_trace_sampling(&mut self, every: u64) {
        self.trace_every = every;
    }

    /// The router this connection speaks for.
    pub fn source(&self) -> RouterId {
        self.hello.source
    }

    /// This client instance's session id.
    pub fn session(&self) -> u64 {
        self.hello.session
    }

    /// Events accepted so far.
    pub fn sent(&self) -> u64 {
        self.link.lock().window.next_seq()
    }

    /// Events currently held for replay (sent but unacknowledged).
    pub fn unacked(&self) -> usize {
        self.link.lock().window.len()
    }

    /// Successful reconnections (establishments beyond the first).
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Takes the latched error, if any. After this the sink tries to
    /// send again (usually to fail and latch once more).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    fn check_latched(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            self.error = Some(io::Error::new(e.kind(), e.to_string()));
            return Err(e);
        }
        Ok(())
    }

    fn latch(&mut self, e: &io::Error) {
        if self.error.is_none() {
            self.error = Some(io::Error::new(e.kind(), e.to_string()));
        }
    }

    /// Drops the connection and redials until one is up; when the sender
    /// gives up, the error is latched and returned.
    fn establish(&mut self) -> io::Result<()> {
        self.conn = None;
        self.wait(None, |s| s.up).map(drop)
    }

    /// One dial: the handshake, the intern definitions, the replay, the
    /// last watermark promise, and the bye if one was issued.
    fn try_establish(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        let mut w = BufWriter::new(stream);
        // No reply reader runs yet, so holding the link across the
        // replay's writes keeps nobody waiting.
        let mut link = self.link.lock();
        self.hello.first_seq = link.window.first_seq();
        write_frame(&mut w, &Frame::Hello(self.hello.clone()))?;
        // Re-send every intern definition made this session before
        // any event can reference one. The collector we reach may have
        // restarted with an empty symbol table, and acked (pruned)
        // events may have been the ones carrying the original
        // definitions; redefinition is idempotent, so blanket replay is
        // always safe and always sufficient.
        w.write_all(self.enc.definition_frames())?;
        for bytes in link.window.frames() {
            w.write_all(bytes)?;
        }
        if let Some((t, frontier)) = self.last_wm {
            write_frame(&mut w, &Frame::Watermark { t, frontier })?;
        }
        if let Some(frontier) = link.bye {
            write_frame(&mut w, &Frame::Bye { frontier })?;
        }
        w.flush()?;
        // The fin is connection-scoped: the re-sent bye above solicits
        // a fresh one, which this reader hears.
        let replies = ReplyReader::start(w.get_ref(), &self.link, &mut link)?;
        drop(link);
        self.conn = Some((w, replies));
        Ok(())
    }

    /// Writes and flushes one control frame on a live connection;
    /// `false` if the reply reader saw it end or the write failed.
    fn write(&mut self, frame: &Frame) -> bool {
        let up = self.link.lock().up;
        let conn = self.conn.as_mut().filter(|_| up);
        conn.is_some_and(|(w, _)| write_frame(&mut *w, frame).and_then(|_| w.flush()).is_ok())
    }

    /// Writes one control frame, or reconnects — at once, so a quiet
    /// source does not sit on a dead connection — and the reconnect
    /// re-sends whatever state the frame carried.
    fn say(&mut self, frame: &Frame) -> io::Result<()> {
        if self.write(frame) {
            return Ok(());
        }
        self.establish()
    }

    /// The sink's shell around its sender: blocks until `done` holds
    /// (`Ok(true)`) or `until` passes (`Ok(false)`), soliciting and
    /// redialing as told. When the sender gives up, the last dial's
    /// error is latched and returned.
    fn wait(&mut self, until: Option<Instant>, done: impl Fn(&Sender) -> bool) -> io::Result<bool> {
        // A failed flush drops the connection, and the sender redials.
        if self.conn.as_mut().is_some_and(|(w, _)| w.flush().is_err()) {
            self.conn = None;
        }
        let mut failed = None;
        loop {
            match self.link.ask(until, &done) {
                Next::Done => return Ok(true),
                Next::Wait(_) => return Ok(false),
                Next::Solicit(frame) => {
                    if !self.write(&frame) {
                        self.conn = None;
                    }
                }
                Next::Redial { .. } => {
                    self.conn = None;
                    match self.try_establish() {
                        Ok(()) => self.connects += 1,
                        Err(e) => failed = Some(e),
                    }
                }
                Next::GiveUp => {
                    let e =
                        failed.unwrap_or_else(|| io::Error::other("reconnect attempts exhausted"));
                    self.latch(&e);
                    return Err(e);
                }
            }
        }
    }

    /// Sends one event (buffered; held for replay until acknowledged).
    /// With the replay buffer full it waits for room, replaying on a
    /// stall, and fails if the collector will not ack.
    pub fn send(&mut self, e: &IoEvent) -> io::Result<()> {
        self.check_latched()?;
        let room = |s: &Sender| s.window.len() < REPLAY_CAPACITY;
        if !room(&self.link.lock()) {
            let patience = self.policy.stall_after.max(Duration::from_secs(1)) * 4;
            if !self.wait(Some(Instant::now() + patience), room)? {
                let e = io::Error::other(format!(
                    "replay buffer full at {} events and the collector is not acking",
                    self.unacked()
                ));
                self.latch(&e);
                return Err(e);
            }
        }
        // The held bytes include any fresh intern definition frames
        // ahead of the event frame, so a go-back-N replay re-delivers
        // the definitions in order too (redefinition is idempotent).
        let seq = self.sent();
        let ctx = (self.trace_every > 0 && seq.is_multiple_of(self.trace_every))
            .then(|| TraceCtx::for_flight(self.hello.session, seq));
        let mut bytes = Vec::new();
        self.enc.encode_into_traced(seq, e, ctx, &mut bytes);
        // Written before it is held, so the link is never locked across
        // a write; a failure reconnects, and the replay covers it.
        let wrote = self
            .conn
            .as_mut()
            .is_some_and(|(w, _)| w.write_all(&bytes).is_ok());
        let mut link = self.link.lock();
        link.window.push(Instant::now(), |_| bytes);
        if wrote && link.up {
            return Ok(());
        }
        drop(link);
        self.establish()
    }

    /// Promises that every event stamped ≤ `t` has been sent, and
    /// flushes so the collector can act on the promise immediately.
    /// The promise carries the current send frontier, so the collector
    /// applies it only once it has actually received everything it
    /// covers. Returns without waiting for an ack.
    pub fn watermark(&mut self, t: SimTime) -> io::Result<()> {
        self.check_latched()?;
        let frontier = self.sent();
        self.last_wm = Some((t, frontier));
        self.say(&Frame::Watermark { t, frontier })
    }

    /// Tells the collector this source is alive (refreshing its
    /// liveness lease) and solicits an ack. Call this periodically when
    /// there is nothing else to say.
    pub fn heartbeat(&mut self) -> io::Result<()> {
        self.check_latched()?;
        self.say(&Frame::Heartbeat)
    }

    /// Announces end-of-stream and flushes. The connection stays open
    /// (drop the sink to close it); [`drain`](Self::drain) afterwards
    /// guarantees delivery.
    pub fn bye(&mut self) -> io::Result<()> {
        self.check_latched()?;
        let frontier = self.sent();
        self.link.lock().bye = Some(frontier);
        self.say(&Frame::Bye { frontier })
    }

    /// Blocks until the collector has acknowledged every event sent
    /// (i.e. journaled them: every collector runs a WAL) — and, if
    /// [`bye`](Self::bye) was called, until the collector confirmed the
    /// bye promise was applied — reconnecting and replaying as needed,
    /// including on a *silent* stall, where the connection looks
    /// healthy but acks stop advancing because frames were lost in
    /// flight. Returns `Ok(true)` once fully acknowledged, `Ok(false)`
    /// on timeout.
    pub fn drain(&mut self, timeout: Duration) -> io::Result<bool> {
        self.check_latched()?;
        let now = Instant::now();
        self.link.lock().window.restart_clock(now);
        self.wait(Some(now + timeout), |s| !s.outstanding())
    }
}

impl Drop for SocketSink {
    /// Flushes the connection and, before it closes, lingers up to
    /// `stall_after` for the acks of what was sent — soliciting them,
    /// never redialing — so the collector's last acks do not meet a
    /// closed socket.
    fn drop(&mut self) {
        if self.conn.as_mut().is_some_and(|(w, _)| w.flush().is_ok()) {
            let until = Instant::now().checked_add(self.policy.stall_after);
            while let Next::Solicit(frame) = self.link.ask(until, |s| s.window.is_empty()) {
                if !self.write(&frame) {
                    break;
                }
            }
        }
    }
}

/// One request/response exchange on a bare connection: connects, sends
/// `request`, and returns the body of the first frame `body_of` accepts
/// (anything else interleaved on the wire is not ours). No hello is
/// needed — probes are legal without joining the event protocol.
fn probe(
    addr: impl ToSocketAddrs,
    request: &Frame,
    what: &str,
    body_of: impl Fn(Frame) -> Option<Vec<u8>>,
) -> io::Result<String> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // A collector that stays silent this long is not answering.
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(&encode_frame(request))?;
    stream.flush()?;
    let mut body = None;
    let ended = read_frames(&stream, |f| {
        body = body_of(f);
        body.is_none()
    });
    let Some(body) = body else {
        let e = ended.expect_err("only a body ends the read early");
        return Err(match e.kind() {
            io::ErrorKind::UnexpectedEof => io::Error::new(
                e.kind(),
                format!("collector closed the connection before answering the {what}"),
            ),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{what} timed out waiting for a response"),
            ),
            _ => e,
        });
    };
    String::from_utf8(body)
        .map_err(|_| io::Error::other(format!("{what} response body was not UTF-8")))
}

/// Scrapes a collector's metrics over the wire: sends one
/// [`Frame::MetricsReq`] and returns the response body rendered in
/// `format`. A monitoring probe is a three-frame exchange.
pub fn scrape(addr: impl ToSocketAddrs, format: ExpoFormat) -> io::Result<String> {
    let request = Frame::MetricsReq {
        format: format.as_byte(),
    };
    probe(addr, &request, "scrape", |f| match f {
        Frame::MetricsResp { body } => Some(body),
        _ => None,
    })
}

/// Requests an on-demand flight-recorder dump over the wire: sends one
/// [`Frame::DumpReq`] and returns the JSON-encoded
/// [`FlightDump`](cpvr_obs::FlightDump) body. Like a metrics scrape, a
/// stuck collector can be interrogated without joining the protocol.
pub fn dump_flight(addr: impl ToSocketAddrs) -> io::Result<String> {
    probe(addr, &Frame::DumpReq, "dump request", |f| match f {
        Frame::DumpResp { body } => Some(body),
        _ => None,
    })
}

/// Scrapes a collector in JSON and parses the body back into a typed
/// [`Snapshot`] — the programmatic twin of [`scrape`].
pub fn scrape_snapshot(addr: impl ToSocketAddrs) -> io::Result<Snapshot> {
    let body = scrape(addr, ExpoFormat::Json)?;
    Snapshot::from_json_str(&body).map_err(|e| {
        io::Error::other(format!(
            "metrics response was not valid snapshot JSON: {e:?}"
        ))
    })
}

impl EventSink for SocketSink {
    fn on_event(&mut self, e: &IoEvent) {
        if self.error.is_some() {
            return; // latched: shed the stream, never panic the tap
        }
        let _ = self.send(e);
    }

    fn flush(&mut self) {
        // Once latched there is nothing useful to do; a failure latches.
        if self.error.is_none() && self.conn.as_mut().is_some_and(|(w, _)| w.flush().is_err()) {
            let _ = self.establish();
        }
    }
}
