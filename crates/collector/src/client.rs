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
//! cumulative [`Ack`](crate::codec::Frame::Ack) covers it. A failed
//! write (or an ack stall during `drain`, which is how a *silent* loss
//! downstream is detected) triggers **reconnect with capped
//! exponential backoff and jitter**: the sink re-Hellos with the same
//! session, replays everything unacknowledged, and re-promises its last
//! watermark. The collector deduplicates the replay by sequence number,
//! so delivery is at-least-once on the wire and exactly-once in the
//! fold.
//!
//! `EventSink::on_event` cannot return an error, so unrecoverable I/O
//! failures (reconnect attempts exhausted, replay buffer overflow) are
//! latched: the first error sticks, later sends become no-ops, and the
//! driver observes it via [`take_error`](SocketSink::take_error) (or
//! the next fallible call). A capture tap must never take down the
//! control plane it is observing — shedding the stream is the designed
//! last-resort failure mode.

use crate::codec::{encode_frame, write_frame, CodecVersion, Decoder, EventEncoder, Frame, Hello};
use cpvr_obs::{ExpoFormat, Snapshot};
use cpvr_sim::{EventSink, IoEvent};
use cpvr_types::{RouterId, SimTime, TraceCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Reconnection and replay tuning.
#[derive(Clone, Copy, Debug)]
pub struct ReconnectPolicy {
    /// Connection attempts per (re)connect episode before giving up and
    /// latching the error.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per failure.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
    /// Maximum unacknowledged events held for replay. When full, sends
    /// briefly block on ack progress and then fail — bounded memory
    /// beats silent unbounded growth inside a router.
    pub replay_capacity: usize,
    /// During [`drain`](SocketSink::drain): with the connection
    /// apparently healthy but acks not advancing for this long, assume
    /// frames were lost downstream and force a reconnect + replay (the
    /// go-back-N retransmission trigger).
    pub stall_after: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 12,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
            replay_capacity: 16 * 1024,
            stall_after: Duration::from_millis(500),
        }
    }
}

/// A process-unique session id: identifies this client *instance* so
/// the collector can tell a reconnect (same session, keep the sequence
/// cursor) from a restart (new session, numbering starts over).
fn fresh_session() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    (u64::from(std::process::id()) << 32) | COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// What one non-blocking ack read produced.
enum Pump {
    Data(usize),
    Idle,
    Dead,
}

/// A buffered, reconnecting TCP connection to the collector, usable
/// directly or as an [`EventSink`].
pub struct SocketSink {
    addr: SocketAddr,
    stream: Option<BufWriter<TcpStream>>,
    source: RouterId,
    n_routers: u32,
    session: u64,
    policy: ReconnectPolicy,
    /// Sequence number the next event will carry.
    next_seq: u64,
    /// One past the highest sequence number the collector has
    /// cumulatively acknowledged.
    acked: u64,
    /// Unacknowledged events, oldest first: `(seq, encoded frame)`.
    /// Contiguous — pruned only from the front as acks arrive.
    buffer: VecDeque<(u64, Vec<u8>)>,
    /// The last promise made, re-issued after a reconnect.
    last_wm: Option<(SimTime, u64)>,
    /// The bye frontier, if the stream was ended; re-issued likewise.
    bye_frontier: Option<u64>,
    /// Whether the collector confirmed (via [`Frame::Fin`]) that the
    /// bye promise was applied on the *current* connection. Byes carry
    /// no sequence number, so this is the only proof one was not lost.
    fin_seen: bool,
    /// Decodes the collector→client ack stream; reset per connection.
    ack_dec: Decoder,
    /// Encodes event frames into reusable scratch buffers and owns this
    /// session's intern tables, whose definition frames are replayed on
    /// every reconnect.
    enc: EventEncoder,
    /// Backoff jitter.
    rng: StdRng,
    /// First unrecoverable error, latched; everything after is dropped.
    error: Option<io::Error>,
    /// Events accepted (assigned a sequence number) so far.
    sent: u64,
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
        let mut sink = SocketSink {
            addr,
            stream: None,
            source,
            n_routers,
            session,
            policy,
            next_seq: 0,
            acked: 0,
            buffer: VecDeque::new(),
            last_wm: None,
            bye_frontier: None,
            fin_seen: false,
            ack_dec: Decoder::new(),
            enc: EventEncoder::new(codec),
            rng: StdRng::seed_from_u64(session ^ u64::from(source.0)),
            error: None,
            sent: 0,
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
        self.source
    }

    /// This client instance's session id.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Events accepted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// One past the highest event sequence the collector acknowledged.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Events currently held for replay (sent but unacknowledged).
    pub fn unacked(&self) -> usize {
        self.buffer.len()
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

    /// Establishes a connection with capped exponential backoff +
    /// jitter, then re-sends the handshake, the unacknowledged replay,
    /// the last watermark promise, and the bye if one was issued. On
    /// exhaustion the error is latched and returned.
    fn establish(&mut self) -> io::Result<()> {
        self.stream = None;
        let mut delay = self.policy.base_delay;
        let mut last_err: Option<io::Error> = None;
        for attempt in 0..self.policy.max_attempts.max(1) {
            if attempt > 0 {
                // Jitter in [0.5, 1.5): reconnect storms from many
                // clients decorrelate instead of synchronizing.
                let jitter = self.rng.gen_range(0.5f64..1.5);
                std::thread::sleep(delay.mul_f64(jitter));
                delay = (delay * 2).min(self.policy.max_delay);
            }
            match self.try_establish() {
                Ok(()) => {
                    self.connects += 1;
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        let e = last_err.unwrap_or_else(|| io::Error::other("no connection attempts made"));
        self.latch(&e);
        Err(e)
    }

    fn try_establish(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        // Ack reads poll with a tiny timeout instead of O_NONBLOCK —
        // nonblocking mode would be shared with the write side of the
        // same socket and turn sends into spin loops.
        stream.set_read_timeout(Some(Duration::from_millis(1)))?;
        let mut w = BufWriter::new(stream);
        let first_seq = self.buffer.front().map_or(self.next_seq, |(s, _)| *s);
        write_frame(
            &mut w,
            &Frame::Hello(Hello {
                source: self.source,
                n_routers: self.n_routers,
                session: self.session,
                first_seq,
            }),
        )?;
        // Re-send every intern definition made this session before
        // any event can reference one. The collector we reach may have
        // restarted with an empty symbol table, and acked (pruned)
        // events may have been the ones carrying the original
        // definitions; redefinition is idempotent, so blanket replay is
        // always safe and always sufficient.
        w.write_all(self.enc.definition_frames())?;
        for (_, bytes) in &self.buffer {
            w.write_all(bytes)?;
        }
        if let Some((t, frontier)) = self.last_wm {
            write_frame(&mut w, &Frame::Watermark { t, frontier })?;
        }
        if let Some(frontier) = self.bye_frontier {
            write_frame(&mut w, &Frame::Bye { frontier })?;
        }
        w.flush()?;
        self.ack_dec = Decoder::new();
        // The fin confirmation is connection-scoped: the re-sent bye
        // above will solicit a fresh one.
        self.fin_seen = false;
        self.stream = Some(w);
        Ok(())
    }

    /// Writes pre-encoded bytes, falling back to a full reconnect (which
    /// re-sends all recorded state, including whatever `bytes` encoded
    /// if it was an event/watermark/bye) on failure.
    fn write_or_reconnect(&mut self, bytes: &[u8]) -> io::Result<()> {
        if let Some(w) = self.stream.as_mut() {
            if w.write_all(bytes).is_ok() {
                return Ok(());
            }
            self.stream = None;
        }
        self.establish()
    }

    fn flush_stream(&mut self) -> io::Result<()> {
        if let Some(w) = self.stream.as_mut() {
            if w.flush().is_err() {
                self.stream = None;
                return self.establish();
            }
        }
        Ok(())
    }

    /// Drains any acks the collector has sent, pruning the replay
    /// buffer. Never blocks beyond the 1 ms read timeout; a dead
    /// connection is noted (reconnect happens lazily at the next write).
    fn pump_acks(&mut self) {
        let mut buf = [0u8; 4096];
        loop {
            let pumped = match self.stream.as_ref() {
                None => return,
                Some(w) => match w.get_ref().read(&mut buf) {
                    Ok(0) => Pump::Dead,
                    Ok(n) => Pump::Data(n),
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        Pump::Idle
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => Pump::Dead,
                },
            };
            match pumped {
                Pump::Idle => return,
                Pump::Dead => {
                    self.stream = None;
                    return;
                }
                Pump::Data(n) => {
                    self.ack_dec.feed(&buf[..n]);
                    while let Some(msg) = self.ack_dec.next_message(false) {
                        match msg.map(|m| m.frame) {
                            Ok(Frame::Ack { upto }) => {
                                if upto > self.acked {
                                    self.acked = upto;
                                }
                                while self.buffer.front().is_some_and(|(s, _)| *s < self.acked) {
                                    self.buffer.pop_front();
                                }
                            }
                            Ok(Frame::Fin) => self.fin_seen = true,
                            _ => {}
                        }
                    }
                }
            }
        }
    }

    /// Blocks until the replay buffer has room, failing if acks make no
    /// progress for long enough that the collector must be gone.
    fn wait_for_room(&mut self) -> io::Result<()> {
        if self.buffer.len() < self.policy.replay_capacity {
            return Ok(());
        }
        let _ = self.flush_stream();
        let deadline = Instant::now() + self.policy.stall_after.max(Duration::from_secs(1)) * 4;
        while self.buffer.len() >= self.policy.replay_capacity {
            self.pump_acks();
            if self.buffer.len() < self.policy.replay_capacity {
                break;
            }
            if Instant::now() >= deadline {
                let e = io::Error::other(format!(
                    "replay buffer full at {} events and the collector is not acking",
                    self.buffer.len()
                ));
                self.latch(&e);
                return Err(e);
            }
            if self.stream.is_none() {
                self.establish()?;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Sends one event (buffered; held for replay until acknowledged).
    pub fn send(&mut self, e: &IoEvent) -> io::Result<()> {
        self.check_latched()?;
        self.wait_for_room()?;
        let seq = self.next_seq;
        // The buffered bytes include any fresh intern definition frames
        // ahead of the event frame, so a go-back-N replay re-delivers
        // the definitions in order too (redefinition is idempotent).
        let mut bytes = Vec::new();
        let ctx = (self.trace_every > 0 && seq.is_multiple_of(self.trace_every))
            .then(|| TraceCtx::for_flight(self.session, seq));
        self.enc.encode_into_traced(seq, e, ctx, &mut bytes);
        self.next_seq += 1;
        self.sent += 1;
        self.buffer.push_back((seq, bytes));
        // Write straight from the buffer entry (no clone); a failure
        // reconnects, and the reconnect replay covers it.
        if let Some(w) = self.stream.as_mut() {
            let bytes = &self.buffer.back().expect("just pushed").1;
            if w.write_all(bytes).is_ok() {
                return Ok(());
            }
            self.stream = None;
        }
        self.establish()
    }

    /// Promises that every event stamped ≤ `t` has been sent, and
    /// flushes so the collector can act on the promise immediately.
    /// The promise carries the current send frontier, so the collector
    /// applies it only once it has actually received everything it
    /// covers.
    pub fn watermark(&mut self, t: SimTime) -> io::Result<()> {
        self.check_latched()?;
        let frontier = self.next_seq;
        self.last_wm = Some((t, frontier));
        self.write_or_reconnect(&encode_frame(&Frame::Watermark { t, frontier }))?;
        self.flush_stream()?;
        self.pump_acks();
        if self.stream.is_none() {
            // The write landed in a kernel buffer the peer will never
            // read (it closed under us — restart or fault injection);
            // the ack pump just noticed. Re-establish now rather than
            // lazily: a quiet source may not write again for a long
            // time, and the reconnect replay re-delivers this promise.
            self.establish()?;
        }
        Ok(())
    }

    /// Tells the collector this source is alive (refreshing its
    /// liveness lease) and solicits an ack. Call this periodically when
    /// there is nothing else to say.
    pub fn heartbeat(&mut self) -> io::Result<()> {
        self.check_latched()?;
        self.write_or_reconnect(&encode_frame(&Frame::Heartbeat))?;
        self.flush_stream()?;
        self.pump_acks();
        if self.stream.is_none() {
            // Same eager reconnect as `watermark`: liveness pings are
            // exactly the traffic of an otherwise-quiet source.
            self.establish()?;
        }
        Ok(())
    }

    /// Announces end-of-stream and flushes. The connection stays open
    /// (drop the sink to close it); [`drain`](Self::drain) afterwards
    /// guarantees delivery.
    pub fn bye(&mut self) -> io::Result<()> {
        self.check_latched()?;
        let frontier = self.next_seq;
        self.bye_frontier = Some(frontier);
        self.write_or_reconnect(&encode_frame(&Frame::Bye { frontier }))?;
        self.flush_stream()
    }

    /// Flushes buffered frames to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.error.is_some() {
            return Ok(()); // already latched; nothing useful to do
        }
        let r = self.flush_stream();
        if let Err(e) = &r {
            self.latch(e);
        }
        r
    }

    /// Blocks until the collector has acknowledged every event sent
    /// (i.e. journaled them, when it runs a WAL) — and, if
    /// [`bye`](Self::bye) was called, until the collector confirmed the
    /// bye promise was applied — reconnecting and replaying as needed,
    /// including on a *silent* stall, where the connection looks
    /// healthy but acks stop advancing because frames were lost in
    /// flight. Returns `Ok(true)` once fully acknowledged, `Ok(false)`
    /// on timeout.
    pub fn drain(&mut self, timeout: Duration) -> io::Result<bool> {
        self.check_latched()?;
        let deadline = Instant::now() + timeout;
        let mut last_progress = Instant::now();
        let mut last_acked = self.acked;
        let mut last_solicit = Instant::now();
        let _ = self.flush_stream();
        loop {
            self.pump_acks();
            if self.acked > last_acked {
                last_acked = self.acked;
                last_progress = Instant::now();
            }
            if self.acked >= self.next_seq && (self.bye_frontier.is_none() || self.fin_seen) {
                return Ok(true);
            }
            if Instant::now() >= deadline {
                return Ok(false);
            }
            if self.stream.is_none() {
                self.establish()?;
                last_progress = Instant::now();
            } else if last_progress.elapsed() >= self.policy.stall_after {
                // Go-back-N: the collector stopped acking, which means
                // it is stuck before a gap our frames were supposed to
                // fill. Reconnect and replay from the ack cursor.
                self.stream = None;
                self.establish()?;
                last_progress = Instant::now();
            } else if last_solicit.elapsed() >= Duration::from_millis(25) {
                // Solicit acks (and keep the lease fresh). An
                // unconfirmed bye is re-sent instead of a heartbeat:
                // byes are unsequenced, so retransmission until the fin
                // arrives is what makes end-of-stream reliable.
                let solicit = match self.bye_frontier {
                    Some(frontier) if !self.fin_seen => Frame::Bye { frontier },
                    _ => Frame::Heartbeat,
                };
                let _ = self.write_or_reconnect(&encode_frame(&solicit));
                let _ = self.flush_stream();
                last_solicit = Instant::now();
            }
            std::thread::sleep(Duration::from_millis(1));
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
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    stream.write_all(&encode_frame(request))?;
    stream.flush()?;
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut dec = Decoder::new();
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("collector closed the connection before answering the {what}"),
                ))
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("{what} timed out waiting for a response"),
                    ));
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        dec.feed(&buf[..n]);
        while let Some(msg) = dec.next_message(false) {
            if let Some(body) = msg.ok().and_then(|m| body_of(m.frame)) {
                return String::from_utf8(body)
                    .map_err(|_| io::Error::other(format!("{what} response body was not UTF-8")));
            }
        }
    }
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
        let _ = SocketSink::flush(self);
    }
}
