//! The go-back-N link both reliable hops run: a router's
//! [`SocketSink`](crate::client::SocketSink) to its collector, and a
//! federation member's peer link to each other member.
//!
//! The sender numbers every frame and holds it in a [`Window`] until
//! the receiver's cumulative [`Frame::Ack`] passes it; a reconnect
//! hellos with the window's first sequence number and replays the whole
//! window. The receiver's [`Cursor`] accepts only the next frame, so a
//! frame lost or damaged in flight stalls the acks until the sender
//! replays from the gap.
//!
//! One [`Sender`] decides, on the `now` it is handed, when to solicit,
//! redial or give up; what differs per hop is data handed to it, and
//! what a (re)connect writes stays with the hop. The threads are shells:
//! [`Link::ask`] reads the clock once per wake and sleeps on the link's
//! condvar until the sender's deadline, and the hop does the I/O the
//! answer names. Acks wake the sender; nothing polls for them. Each
//! connection's [`ReplyReader`] blocks in `read`, applies every `Ack`
//! and `Fin` and wakes the waiter, and marks the connection down on EOF;
//! it is stopped by `shutdown(Both)` on its socket, then join.

use crate::client::ReconnectPolicy;
use crate::codec::{Decoder, Frame};
use crate::collector::Wire;
use crate::pipeline::{HelloKind, Offer};
use cpvr_types::fnv1a64;
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering as Cmp;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, UNIX_EPOCH};

/// A session id for a new link instance. A receiver keeps its cursor
/// for a session it has seen (a reconnect) and restarts it for a new
/// one, so an id must not repeat across sender processes — not even
/// under a reused PID, as PID 1 in a container is.
pub(crate) fn fresh_session() -> u64 {
    static START: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let start = *START.get_or_init(|| UNIX_EPOCH.elapsed().map_or(0, |d| d.as_nanos() as u64));
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    mint_session(std::process::id(), start, n)
}

/// The `counter`-th session id of the process `pid` that minted its
/// first one `start_nanos` after the Unix epoch.
fn mint_session(pid: u32, start_nanos: u64, counter: u64) -> u64 {
    let instance = [&pid.to_le_bytes()[..], &start_nanos.to_le_bytes()].concat();
    fnv1a64(&instance).wrapping_add(counter)
}

/// The sender half: numbered frames held until acked, and the stall
/// clock that tells a slow link from one that lost a frame.
pub(crate) struct Window {
    /// Sequence number the next frame will carry.
    next_seq: u64,
    /// Unacked frames, oldest first: `(seq, wire bytes)`. Contiguous.
    frames: VecDeque<(u64, Vec<u8>)>,
    /// Restarted (at the `now` handed in) when acks advance, when the
    /// window fills from empty, and by [`restart_clock`](Self::restart_clock).
    progress: Option<Instant>,
}

impl Window {
    /// An empty window whose first frame will carry `first_seq`.
    pub(crate) fn new(first_seq: u64) -> Self {
        Window {
            next_seq: first_seq,
            frames: VecDeque::new(),
            progress: None,
        }
    }

    /// Numbers one frame, holds the bytes `encode` makes for its
    /// sequence number, and returns them for the first send.
    pub(crate) fn push(&mut self, now: Instant, encode: impl FnOnce(u64) -> Vec<u8>) -> &[u8] {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.frames.is_empty() {
            self.restart_clock(now);
        }
        self.frames.push_back((seq, encode(seq)));
        &self.frames.back().expect("just pushed").1
    }

    /// Applies a cumulative ack: every frame below `upto` arrived.
    pub(crate) fn ack(&mut self, upto: u64, now: Instant) {
        let before = self.frames.len();
        while self.frames.front().is_some_and(|(s, _)| *s < upto) {
            self.frames.pop_front();
        }
        if self.frames.len() < before {
            self.restart_clock(now);
        }
    }

    /// Where a replay starts: the oldest unacked frame, else the next.
    pub(crate) fn first_seq(&self) -> u64 {
        self.frames.front().map_or(self.next_seq, |(s, _)| *s)
    }

    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The unacked frames' bytes, oldest first: the replay.
    pub(crate) fn frames(&self) -> impl Iterator<Item = &[u8]> {
        self.frames.iter().map(|(_, b)| b.as_slice())
    }

    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    pub(crate) fn restart_clock(&mut self, now: Instant) {
        self.progress = Some(now);
    }

    /// When the stall clock runs out: `after` past the last progress,
    /// while any frame is unacked.
    pub(crate) fn stall_at(&self, after: Duration) -> Option<Instant> {
        self.progress
            .filter(|_| !self.frames.is_empty())?
            .checked_add(after)
    }
}

/// What a [`Sender`] answers at a `now`: what the caller waits for
/// holds; wait until an instant (`None`: until woken); write a frame
/// that solicits an ack; drop the connection, if any, and dial — hello,
/// then the window (`stalled`: it was up, but its acks stalled); or give
/// up, the hop's dial attempts spent.
#[derive(Debug, PartialEq)]
pub(crate) enum Next {
    Done,
    Wait(Option<Instant>),
    Solicit(Frame),
    Redial { stalled: bool },
    GiveUp,
}

/// A sender's side of a link, shared by the threads that send on it and
/// the [`ReplyReader`] of its current connection: the window, the fin,
/// whether a connection is up, and the state machine on them — the
/// solicit clock and the redial backoff. It reads no clock:
/// [`next`](Self::next) decides on the `now` it is handed.
pub(crate) struct Sender {
    pub(crate) window: Window,
    /// Whether the receiver sent a [`Frame::Fin`] on this connection.
    pub(crate) fin: bool,
    /// The bye frontier, once the stream ended: byes are unsequenced, so
    /// a solicit re-sends it until a fin arrives on the connection.
    pub(crate) bye: Option<u64>,
    /// Whether a connection is up (its reply reader runs), and that
    /// connection, on which a peer link writes its first sends.
    pub(crate) up: bool,
    pub(crate) conn: Option<Box<dyn Wire>>,
    /// Set when the link's owner lets go, for a thread that waits on it.
    pub(crate) stopped: bool,
    /// What differs per hop, as data: the stall bound and the redial
    /// backoff, the period of ack solicits while something is
    /// outstanding, and the jitter that scales each dial's delay by a
    /// draw in [0.5, 1.5).
    policy: ReconnectPolicy,
    solicit_every: Option<Duration>,
    jitter: Option<StdRng>,
    solicit_at: Option<Instant>,
    /// The earliest next dial (`None`: at once), the delay before the
    /// one after it, and the dials answered since one was seen to
    /// connect, which resets both.
    dial_at: Option<Instant>,
    delay: Duration,
    dials: u32,
}

impl Sender {
    /// A sender with no connection whose first frame carries `first_seq`.
    pub(crate) fn new(
        first_seq: u64,
        policy: ReconnectPolicy,
        solicit_every: Option<Duration>,
        jitter: Option<StdRng>,
    ) -> Self {
        Sender {
            window: Window::new(first_seq),
            fin: false,
            bye: None,
            up: false,
            conn: None,
            stopped: false,
            delay: policy.base_delay,
            policy,
            solicit_every,
            jitter,
            solicit_at: None,
            dial_at: None,
            dials: 0,
        }
    }

    /// Whether the receiver owes an ack: unacked frames, or a bye's fin.
    pub(crate) fn outstanding(&self) -> bool {
        !self.window.is_empty() || self.bye.is_some() && !self.fin
    }

    /// What next at `now`, given whether what the caller waits for
    /// holds. After a `Redial`, the caller dials before it asks again.
    pub(crate) fn next(&mut self, now: Instant, done: bool) -> Next {
        let base = self.policy.base_delay;
        if self.up && self.dials > 0 {
            // A dial connected, and its replay went out since: the acks
            // are due from now, and the next dial is `base` off.
            (self.dials, self.delay, self.dial_at) = (0, base, now.checked_add(base));
            self.window.restart_clock(now);
        }
        if done {
            self.solicit_at = None;
            return Next::Done;
        }
        if !self.up && self.dials >= self.policy.max_attempts.max(1) {
            (self.dials, self.delay, self.dial_at) = (0, base, None);
            return Next::GiveUp;
        }
        let stall = self.window.stall_at(self.policy.stall_after);
        let stalled = self.up && stall.is_some_and(|t| t <= now);
        if stalled || !self.up && self.dial_at.is_none_or(|t| t <= now) {
            let scale = self.jitter.as_mut().map_or(1.0, |r| r.gen_range(0.5..1.5));
            self.dial_at = now.checked_add(self.delay.mul_f64(scale));
            self.delay = (self.delay * 2).min(self.policy.max_delay);
            self.dials += 1;
            return Next::Redial { stalled };
        }
        let every = self.solicit_every.filter(|_| self.up && self.outstanding());
        self.solicit_at = every.map(|e| self.solicit_at.unwrap_or(now + e));
        match (every, self.solicit_at) {
            (Some(e), Some(t)) if t <= now => {
                self.solicit_at = Some(now + e);
                Next::Solicit(match self.bye {
                    Some(frontier) if !self.fin => Frame::Bye { frontier },
                    _ => Frame::Heartbeat,
                })
            }
            _ => Next::Wait(self.deadline()),
        }
    }

    /// When the caller's wait should end: the next dial while the
    /// connection is down, else the stall bound or the next solicit.
    /// `None` while nothing ticks.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        if !self.up {
            return self.dial_at;
        }
        let stall = self.window.stall_at(self.policy.stall_after);
        stall.into_iter().chain(self.solicit_at).min()
    }
}

/// A [`Sender`] behind a mutex, and the condvar its waiters sleep on.
pub(crate) struct Link {
    state: Mutex<Sender>,
    woken: Condvar,
}

impl Link {
    pub(crate) fn new(sender: Sender) -> Arc<Link> {
        let (state, woken) = (Mutex::new(sender), Condvar::new());
        Arc::new(Link { state, woken })
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Sender> {
        self.state.lock().unwrap()
    }

    /// Wakes every waiter to re-check its predicate.
    pub(crate) fn notify(&self) {
        self.woken.notify_all();
    }

    /// The one wait both hops use: asks the sender what next, reading
    /// the clock once per wake, and sleeps on the condvar while the
    /// answer is to wait — until the sender's deadline or `until`.
    /// Returns any other answer, or the wait once `until` has passed.
    pub(crate) fn ask(&self, until: Option<Instant>, done: impl Fn(&Sender) -> bool) -> Next {
        let mut s = self.lock();
        loop {
            let (now, done) = (Instant::now(), done(&s));
            let next = s.next(now, done);
            let Next::Wait(deadline) = next else {
                return next;
            };
            s = match deadline.into_iter().chain(until).min() {
                Some(_) if until.is_some_and(|t| t <= now) => return next,
                Some(t) => {
                    let left = t.saturating_duration_since(now);
                    self.woken.wait_timeout(s, left).unwrap().0
                }
                None => self.woken.wait(s).unwrap(),
            };
        }
    }
}

/// The thread that reads one connection's replies into its [`Link`].
/// Dropping it ends the connection, which ends the reader's `read`, and
/// joins it.
pub(crate) struct ReplyReader {
    conn: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl ReplyReader {
    /// Makes `conn` the live connection of `link` — whose sender the
    /// caller holds as `s`, so no send sees the link between two
    /// connections — with no fin yet, and starts reading its replies.
    pub(crate) fn start(conn: &TcpStream, link: &Arc<Link>, s: &mut Sender) -> io::Result<Self> {
        let (read, stop, live) = (conn.try_clone()?, conn.try_clone()?, conn.try_clone()?);
        let link = Arc::clone(link);
        let thread = thread::Builder::new()
            .name("cpvr-replies".into())
            .spawn(move || read_replies(read, &link))?;
        let live: Box<dyn Wire> = Box::new(live);
        (s.conn, s.fin, s.up) = (Some(live), false, true);
        let thread = Some(thread);
        Ok(ReplyReader { conn: stop, thread })
    }
}

impl Drop for ReplyReader {
    fn drop(&mut self) {
        let _ = self.conn.shutdown(Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Applies every reply, waking the link's waiters after each, until the
/// connection ends; then marks it down.
fn read_replies(conn: TcpStream, link: &Link) {
    let _ = read_frames(&conn, |frame| {
        let mut s = link.lock();
        match frame {
            Frame::Ack { upto } => s.window.ack(upto, Instant::now()),
            Frame::Fin => s.fin = true,
            _ => {}
        }
        drop(s);
        link.notify();
        true
    });
    let mut s = link.lock();
    (s.conn, s.up) = (None, false);
    drop(s);
    link.notify();
}

/// Hands every intact frame read off `conn` to `on_frame` until it
/// returns `false`; otherwise returns the error that ended the
/// connection (`UnexpectedEof` for a close).
pub(crate) fn read_frames(
    mut conn: &TcpStream,
    mut on_frame: impl FnMut(Frame) -> bool,
) -> io::Result<()> {
    let (mut dec, mut buf) = (Decoder::new(), [0u8; 4096]);
    loop {
        match conn.read(&mut buf) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => dec.feed(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        while let Some(msg) = dec.next_message(false) {
            if msg.is_ok_and(|m| !on_frame(m.frame)) {
                return Ok(());
            }
        }
    }
}

/// The receiver half: the sender session the cursor follows, and the
/// next sequence number it accepts — also the cumulative ack.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Cursor {
    /// `None` before the first hello, and after a recovery from a
    /// journal that holds no hello for this sender.
    pub(crate) session: Option<u64>,
    pub(crate) next_seq: u64,
}

impl Cursor {
    /// Reconciles the cursor with a sender's handshake: a reconnect of
    /// its session keeps it, so the replay deduplicates; a new session
    /// restarts it at `first_seq`. With the session unknown but the
    /// cursor moved, a replay that overlaps the cursor is a reconnect.
    pub(crate) fn hello(&mut self, session: u64, first_seq: u64) -> HelloKind {
        let kind = match self.session {
            None if self.next_seq == 0 => HelloKind::First,
            None if first_seq <= self.next_seq => HelloKind::Resumed,
            Some(s) if s == session => HelloKind::Resumed,
            _ => HelloKind::NewSession,
        };
        if kind != HelloKind::Resumed {
            self.next_seq = first_seq;
        }
        self.session = Some(session);
        kind
    }

    /// Classifies a frame by sequence number, moving past the next one.
    pub(crate) fn offer(&mut self, seq: u64) -> Offer {
        match seq.cmp(&self.next_seq) {
            Cmp::Less => Offer::Duplicate,
            Cmp::Greater => Offer::Gap,
            Cmp::Equal => {
                self.next_seq += 1;
                Offer::Fresh
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::SOLICIT_EVERY;
    use crate::codec::write_frame;
    use crate::federation::{PEER_ACK_STALL, PEER_POLICY, PEER_RECONNECT_MAX, PEER_RECONNECT_MIN};
    use rand::SeedableRng;
    use std::io::Write;
    use std::net::TcpListener;

    const STALL: Duration = Duration::from_secs(30);
    const NS: Duration = Duration::from_nanos(1);

    /// Whether `w`'s stall clock has run out at `now`.
    fn stalled(w: &Window, now: Instant) -> bool {
        w.stall_at(STALL).is_some_and(|t| t <= now)
    }

    fn push(w: &mut Window, now: Instant) -> u64 {
        let mut seq = None;
        w.push(now, |s| {
            seq = Some(s);
            s.to_le_bytes().to_vec()
        });
        seq.expect("push numbers the frame")
    }

    /// A sink's sender under `policy`, its jitter seeded with `seed`.
    fn sink(policy: ReconnectPolicy, seed: u64) -> Sender {
        let jitter = StdRng::seed_from_u64(seed);
        Sender::new(0, policy, Some(SOLICIT_EVERY), Some(jitter))
    }

    fn peer() -> Sender {
        Sender::new(1, PEER_POLICY, None, None)
    }

    /// Asks `s` at `at`, expects to be told to dial, and lets the dial
    /// connect or fail — what a shell's dial does to `up`.
    fn dial(s: &mut Sender, at: Instant, connects: bool) {
        assert!(matches!(s.next(at, false), Next::Redial { .. }));
        s.up = connects;
    }

    #[test]
    fn a_window_numbers_frames_from_its_first_sequence() {
        let (mut w, t) = (Window::new(1), Instant::now());
        assert_eq!((w.first_seq(), w.next_seq()), (1, 1));
        assert_eq!(
            [push(&mut w, t), push(&mut w, t), push(&mut w, t)],
            [1, 2, 3]
        );
        assert_eq!(w.len(), 3);
        let held: Vec<&[u8]> = w.frames().collect();
        assert_eq!(
            held,
            [
                &1u64.to_le_bytes()[..],
                &2u64.to_le_bytes(),
                &3u64.to_le_bytes()
            ]
        );
        assert_eq!(w.push(t, |s| vec![s as u8]), &[4]);
    }

    #[test]
    fn a_cumulative_ack_prunes_the_front_and_moves_the_replay_start() {
        let (mut w, t) = (Window::new(0), Instant::now());
        for _ in 0..5 {
            push(&mut w, t);
        }
        assert_eq!(w.first_seq(), 0);
        w.ack(2, t);
        assert_eq!((w.first_seq(), w.len()), (2, 3));
        w.ack(1, t);
        assert_eq!(
            (w.first_seq(), w.len()),
            (2, 3),
            "a stale ack prunes nothing"
        );
        w.ack(5, t);
        assert!(w.is_empty());
        assert_eq!(
            w.first_seq(),
            5,
            "an empty window replays from the next frame"
        );
        assert_eq!(push(&mut w, t), 5);
        assert_eq!(w.first_seq(), 5);
    }

    #[test]
    fn the_stall_clock_restarts_on_ack_progress_only() {
        let (mut w, t0) = (Window::new(0), Instant::now());
        push(&mut w, t0);
        push(&mut w, t0);
        let t1 = t0 + 2 * STALL;
        assert!(stalled(&w, t1));
        w.ack(0, t1);
        assert!(stalled(&w, t1), "an ack that prunes nothing is no progress");
        w.ack(1, t1);
        assert!(!stalled(&w, t1), "an advancing ack restarts the clock");
        assert_eq!(w.stall_at(STALL), Some(t1 + STALL));
    }

    #[test]
    fn the_stall_clock_restarts_when_the_window_fills_from_empty() {
        let (mut w, t0) = (Window::new(0), Instant::now());
        assert_eq!(w.stall_at(STALL), None, "nothing unacked, nothing stalls");
        let t1 = t0 + 2 * STALL;
        push(&mut w, t1);
        assert!(!stalled(&w, t1), "the first unacked frame starts the clock");
        let t2 = t1 + 2 * STALL;
        push(&mut w, t2);
        assert!(stalled(&w, t2), "a frame behind an unacked one does not");
    }

    #[test]
    fn restart_clock_restarts_the_stall_clock() {
        let (mut w, t0) = (Window::new(0), Instant::now());
        push(&mut w, t0);
        let t1 = t0 + 2 * STALL;
        w.restart_clock(t1);
        assert!(!stalled(&w, t1));
        assert!(stalled(&w, t1 + STALL));
    }

    /// A peer link replays its window after exactly two seconds without
    /// ack progress, and not a nanosecond before; its sender says so at
    /// that instant, and its redials back off from 50 ms to the 2 s cap.
    #[test]
    fn a_peer_link_window_stalls_exactly_at_peer_ack_stall() {
        assert_eq!(PEER_ACK_STALL, Duration::from_secs(2));
        let (mut w, t0) = (Window::new(1), Instant::now());
        push(&mut w, t0);
        let out = |w: &Window, at| w.stall_at(PEER_ACK_STALL).is_some_and(|t| t <= at);
        assert!(!out(&w, t0 + PEER_ACK_STALL - NS));
        assert!(out(&w, t0 + PEER_ACK_STALL));
        let t1 = t0 + PEER_ACK_STALL / 2;
        push(&mut w, t1);
        w.ack(2, t1);
        assert!(!out(&w, t0 + PEER_ACK_STALL), "the ack restarted it");
        assert!(out(&w, t1 + PEER_ACK_STALL));

        // The sender on a live connection with one unacked frame: told
        // to drop and redial exactly at the stall bound.
        let mut s = peer();
        dial(&mut s, t0, true);
        push(&mut s.window, t0);
        let stall = t0 + PEER_ACK_STALL;
        assert_eq!(s.next(t0, false), Next::Wait(Some(stall)));
        assert_eq!(s.next(stall - NS, false), Next::Wait(Some(stall)));
        assert_eq!(s.next(stall, false), Next::Redial { stalled: true });

        // Every failed dial doubles the wait for the next, to the cap.
        let (mut at, mut want) = (stall, PEER_RECONNECT_MIN);
        for _ in 0..8 {
            s.up = false;
            let next = at + want;
            assert_eq!(s.next(at, false), Next::Wait(Some(next)));
            assert_eq!(s.next(next - NS, false), Next::Wait(Some(next)));
            assert_eq!(s.next(next, false), Next::Redial { stalled: false });
            (at, want) = (next, PEER_RECONNECT_MAX.min(want + want));
        }
        assert_eq!(want, PEER_RECONNECT_MAX, "the backoff reached its cap");

        // A dial that connects resets it: a connection that dies at once
        // is redialed 50 ms after that dial, and a failure waits 50 ms.
        s.up = true;
        assert_eq!(s.next(at, false), Next::Wait(Some(at + PEER_ACK_STALL)));
        s.up = false;
        let redial = at + PEER_RECONNECT_MIN;
        assert_eq!(s.next(at, false), Next::Wait(Some(redial)));
        dial(&mut s, redial, false);
        let again = redial + PEER_RECONNECT_MIN;
        assert_eq!(s.next(redial, false), Next::Wait(Some(again)));
    }

    /// A draining sink solicits an ack every `SOLICIT_EVERY` while
    /// frames are unacked, and redials at its `stall_after`; after a bye
    /// with no fin, the solicit re-sends the bye.
    #[test]
    fn a_draining_sink_solicits_on_its_period_and_redials_at_its_stall() {
        let policy = ReconnectPolicy::default();
        assert_eq!(SOLICIT_EVERY, Duration::from_millis(25));
        let t0 = Instant::now();
        let mut s = sink(policy, 7);
        dial(&mut s, t0, true);
        push(&mut s.window, t0);
        s.window.restart_clock(t0);
        assert_eq!(s.next(t0, false), Next::Wait(Some(t0 + SOLICIT_EVERY)));
        let solicits = (policy.stall_after.as_nanos() / SOLICIT_EVERY.as_nanos()) as u32;
        for k in 1..solicits {
            let due = t0 + SOLICIT_EVERY * k;
            assert_eq!(s.next(due - NS, false), Next::Wait(Some(due)));
            assert_eq!(s.next(due, false), Next::Solicit(Frame::Heartbeat));
        }
        let stall = t0 + policy.stall_after;
        assert_eq!(s.next(stall - NS, false), Next::Wait(Some(stall)));
        assert_eq!(s.next(stall, false), Next::Redial { stalled: true });

        let mut s = sink(policy, 7);
        dial(&mut s, t0, true);
        s.bye = Some(0);
        assert_eq!(s.next(t0, false), Next::Wait(Some(t0 + SOLICIT_EVERY)));
        let due = t0 + SOLICIT_EVERY;
        assert_eq!(
            s.next(due, false),
            Next::Solicit(Frame::Bye { frontier: 0 })
        );
        s.fin = true;
        assert_eq!(s.next(due, false), Next::Wait(None), "the fin confirmed it");
        assert_eq!(s.next(due, true), Next::Done);
    }

    /// A sink's failed dials wait a jittered [0.5, 1.5) × the doubling
    /// delay, capped at `max_delay`, and it gives up after
    /// `max_attempts`; the next ask starts over.
    #[test]
    fn a_sink_redials_with_jittered_backoff_and_gives_up() {
        let policy = ReconnectPolicy::default();
        let t0 = Instant::now();
        let mut spread = (Duration::MAX, Duration::ZERO);
        for seed in 0..32 {
            let mut s = sink(policy, seed);
            let mut at = t0;
            dial(&mut s, at, false);
            for failed in 1..policy.max_attempts {
                let delay = (policy.base_delay * (1 << (failed - 1))).min(policy.max_delay);
                let Next::Wait(Some(next)) = s.next(at, false) else {
                    panic!("seed {seed}: failure {failed} must wait for the next dial");
                };
                let scale = (next - at).as_secs_f64() / delay.as_secs_f64();
                assert!((0.5..1.5).contains(&scale), "seed {seed}: scale {scale}");
                spread = (spread.0.min(next - at), spread.1.max(next - at));
                assert_eq!(s.next(next - NS, false), Next::Wait(Some(next)));
                at = next;
                dial(&mut s, at, false);
            }
            assert_eq!(s.next(at, false), Next::GiveUp);
            assert_eq!(s.next(at, false), Next::Redial { stalled: false });
        }
        assert!(spread.0 < policy.base_delay, "jitter shortens some delays");
        assert!(spread.1 > policy.max_delay, "and lengthens some at the cap");
    }

    /// Nothing ticks on an idle link: with an empty window on a live
    /// connection, neither hop's sender has a deadline.
    #[test]
    fn an_empty_window_on_a_live_connection_has_no_deadline() {
        let t0 = Instant::now();
        for mut s in [sink(ReconnectPolicy::default(), 7), peer()] {
            dial(&mut s, t0, true);
            assert_eq!(s.next(t0, false), Next::Wait(None));
            assert_eq!(s.deadline(), None);
            let seq = push(&mut s.window, t0);
            assert!(s.next(t0, false) != Next::Wait(None));
            s.window.ack(seq + 1, t0 + STALL);
            assert_eq!(s.next(t0 + STALL, false), Next::Wait(None));
            assert_eq!(s.deadline(), None);
        }
    }

    /// A sender that neither solicits nor gives up, with stall bound
    /// `stall`.
    fn quiet(stall: Duration) -> Sender {
        let policy = ReconnectPolicy {
            max_attempts: u32::MAX,
            base_delay: PATIENCE,
            max_delay: PATIENCE,
            stall_after: stall,
        };
        Sender::new(0, policy, None, None)
    }

    /// A link on a fresh loopback connection with its reply reader
    /// running, and the receiver's end of that connection.
    fn connected(stall: Duration) -> (Arc<Link>, ReplyReader, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let conn = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (peer, _) = listener.accept().expect("accept");
        let link = Link::new(quiet(stall));
        let reader = ReplyReader::start(&conn, &link, &mut link.lock()).expect("start");
        (link, reader, peer)
    }

    /// Writes `frame` from `peer` a little later, from another thread.
    fn reply_later(mut peer: TcpStream, frame: Frame) -> thread::JoinHandle<TcpStream> {
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            let mut bytes = b"line noise".to_vec();
            write_frame(&mut bytes, &frame).expect("encode");
            peer.write_all(&bytes).expect("write");
            peer
        })
    }

    const PATIENCE: Duration = Duration::from_secs(30);

    #[test]
    fn an_ack_wakes_the_waiter_and_prunes_the_window() {
        let (link, reader, peer) = connected(PATIENCE);
        for _ in 0..3 {
            push(&mut link.lock().window, Instant::now());
        }
        let replier = reply_later(peer, Frame::Ack { upto: 2 });
        let started = Instant::now();
        let woke = link.ask(None, |s| s.window.len() < 3);
        assert_eq!(woke, Next::Done);
        assert!(started.elapsed() < PATIENCE / 2, "the ack woke the waiter");
        assert_eq!(link.lock().window.first_seq(), 2);
        let _peer = replier.join().expect("replier");
        drop(reader);
    }

    #[test]
    fn a_fin_is_seen() {
        let (link, reader, peer) = connected(PATIENCE);
        let replier = reply_later(peer, Frame::Fin);
        assert_eq!(link.ask(None, |s| s.fin), Next::Done);
        let _peer = replier.join().expect("replier");
        drop(reader);
        assert!(link.lock().fin, "a stop keeps what the connection said");
    }

    #[test]
    fn eof_marks_the_link_dead_and_wakes_the_waiter() {
        let (link, reader, peer) = connected(PATIENCE);
        push(&mut link.lock().window, Instant::now());
        let closer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            drop(peer);
        });
        let woke = link.ask(None, |_| false);
        assert_eq!(woke, Next::Redial { stalled: false });
        assert!(link.lock().conn.is_none());
        assert!(!link.lock().up);
        closer.join().expect("closer");
        drop(reader);
    }

    #[test]
    fn a_stop_joins_while_the_peer_is_connected_and_silent() {
        let (link, reader, _peer) = connected(PATIENCE);
        assert_eq!(
            link.ask(Some(Instant::now()), |_| false),
            Next::Wait(None),
            "a silent peer with nothing unacked is neither dead nor stalled"
        );
        drop(reader);
        assert!(link.lock().conn.is_none(), "the stopped reader let go");
    }

    #[test]
    fn unacked_frames_without_ack_progress_stall_the_wait() {
        let (link, reader, _peer) = connected(Duration::from_millis(20));
        push(&mut link.lock().window, Instant::now());
        let woke = link.ask(None, |_| false);
        assert_eq!(woke, Next::Redial { stalled: true });
        drop(reader);
    }

    #[test]
    fn a_first_hello_starts_the_cursor_at_the_announced_sequence() {
        let mut c = Cursor::default();
        assert_eq!(c.hello(9, 1), HelloKind::First);
        assert_eq!((c.session, c.next_seq), (Some(9), 1));
        assert_eq!(c.offer(0), Offer::Duplicate);
        assert_eq!(c.offer(2), Offer::Gap);
        assert_eq!(c.offer(1), Offer::Fresh);
        assert_eq!(c.offer(2), Offer::Fresh);
        assert_eq!(c.offer(2), Offer::Duplicate);
        assert_eq!(c.next_seq, 3);
    }

    #[test]
    fn the_same_session_resumes_and_a_new_one_restarts() {
        let mut c = Cursor::default();
        c.hello(9, 0);
        for s in 0..4 {
            assert_eq!(c.offer(s), Offer::Fresh);
        }
        assert_eq!(c.hello(9, 2), HelloKind::Resumed);
        assert_eq!(c.next_seq, 4, "a reconnect keeps the cursor");
        assert_eq!(c.offer(2), Offer::Duplicate, "the replay deduplicates");
        assert_eq!(c.hello(10, 0), HelloKind::NewSession);
        assert_eq!((c.session, c.next_seq), (Some(10), 0));
        assert_eq!(c.offer(0), Offer::Fresh);
    }

    #[test]
    fn an_unknown_session_resumes_only_a_replay_that_overlaps_the_cursor() {
        // What recovery from a journal without hellos leaves behind.
        let recovered = Cursor {
            session: None,
            next_seq: 5,
        };
        let mut c = recovered;
        assert_eq!(c.hello(9, 3), HelloKind::Resumed);
        assert_eq!((c.session, c.next_seq), (Some(9), 5));
        let mut c = recovered;
        assert_eq!(c.hello(9, 5), HelloKind::Resumed);
        assert_eq!(c.next_seq, 5);
        let mut c = recovered;
        assert_eq!(c.hello(9, 6), HelloKind::NewSession);
        assert_eq!(c.next_seq, 6);
    }

    #[test]
    fn two_starts_of_one_pid_mint_different_sessions() {
        let (pid, counter) = (1, 1);
        let first = mint_session(pid, 1_700_000_000_000_000_000, counter);
        let restarted = mint_session(pid, 1_700_000_000_250_000_000, counter);
        assert_ne!(first, restarted);
        assert_ne!(mint_session(pid, 0, 1), mint_session(pid, 0, 2));
        assert_ne!(fresh_session(), fresh_session());
    }
}
