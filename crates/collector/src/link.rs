//! The go-back-N link both reliable hops run: a router's
//! [`SocketSink`](crate::client::SocketSink) to its collector, and a
//! federation member's peer link to each other member.
//!
//! The sender numbers every frame and holds it in a [`Window`] until
//! the receiver's cumulative [`Frame::Ack`] passes it; a reconnect
//! hellos with the window's first sequence number and replays the whole
//! window. The receiver's [`Cursor`] accepts only the next frame, so a
//! frame lost or damaged in flight stalls the acks until the sender
//! replays from the gap. What differs per hop stays with the hop: how
//! to connect, what else a reconnect re-sends, and how long a stall is.
//!
//! Acks wake the sender; nothing polls for them. Every connection gets
//! a [`ReplyReader`], a thread that blocks in `read` with no timeout,
//! applies each `Ack` and `Fin` to the [`Link`] — the window behind a
//! mutex — and wakes whoever waits on its condvar; on EOF or an error it
//! marks the connection dead and wakes the waiter too. [`Link::wait`] is
//! the one wait both hops use: until a predicate holds, the connection
//! dies, or the unacked frames see no ack progress for the stall bound.
//! A reader is stopped like every blocking thread in the collector:
//! `shutdown(Both)` on its socket, then join.

use crate::codec::{Decoder, Frame};
use crate::pipeline::{HelloKind, Offer};
use cpvr_types::fnv1a64;
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

/// A sender's side of a link, shared by the threads that send on it and
/// the [`ReplyReader`] of its current connection.
pub(crate) struct Link {
    state: Mutex<LinkState>,
    woken: Condvar,
}

pub(crate) struct LinkState {
    pub(crate) window: Window,
    /// Whether the receiver sent a [`Frame::Fin`] on this connection.
    pub(crate) fin: bool,
    /// The connection, while its reply reader runs; `None` once it died.
    pub(crate) conn: Option<TcpStream>,
    /// Set when the link's owner lets go, for a thread that waits on it.
    pub(crate) stopped: bool,
}

/// Why [`Link::wait`] returned: the predicate holds, the connection died
/// (or there is none), unacked frames saw no ack progress for the stall
/// bound, or the caller's deadline passed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wake {
    Done,
    Dead,
    Stalled,
    Timeout,
}

impl Link {
    /// A link with no connection whose first frame carries `first_seq`.
    pub(crate) fn new(first_seq: u64) -> Arc<Link> {
        let window = Window::new(first_seq);
        let state = Mutex::new(LinkState {
            window,
            fin: false,
            conn: None,
            stopped: false,
        });
        Arc::new(Link {
            state,
            woken: Condvar::new(),
        })
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state.lock().unwrap()
    }

    /// Wakes every waiter to re-check its predicate.
    pub(crate) fn notify(&self) {
        self.woken.notify_all();
    }

    /// Blocks until `done` holds, the connection dies, the unacked
    /// frames see no ack progress for `stall_after`, or `until` passes.
    pub(crate) fn wait(
        &self,
        stall_after: Duration,
        until: Option<Instant>,
        done: impl Fn(&LinkState) -> bool,
    ) -> Wake {
        let mut s = self.lock();
        loop {
            let (stall, now) = (s.window.stall_at(stall_after), Instant::now());
            if done(&s) {
                return Wake::Done;
            } else if s.conn.is_none() {
                return Wake::Dead;
            } else if stall.is_some_and(|t| now >= t) {
                return Wake::Stalled;
            }
            s = match stall.into_iter().chain(until).min() {
                Some(t) if now >= t => return Wake::Timeout,
                Some(t) => self.woken.wait_timeout(s, t - now).unwrap().0,
                None => self.woken.wait(s).unwrap(),
            };
        }
    }

    /// Sleeps until `until` unless stopped first; returns whether it was.
    pub(crate) fn stopped_by(&self, until: Instant) -> bool {
        let left = until.saturating_duration_since(Instant::now());
        let woken = self
            .woken
            .wait_timeout_while(self.lock(), left, |s| !s.stopped);
        woken.unwrap().0.stopped
    }
}

/// The thread that reads one connection's replies into its [`Link`].
pub(crate) struct ReplyReader {
    conn: TcpStream,
    thread: JoinHandle<()>,
}

impl ReplyReader {
    /// Makes `conn` the live connection of `link` — whose state the
    /// caller holds as `s`, so no send sees the link between two
    /// connections — with no fin yet and the stall clock restarted for
    /// the replay, and starts reading its replies.
    pub(crate) fn start(conn: &TcpStream, link: &Arc<Link>, s: &mut LinkState) -> io::Result<Self> {
        let (read, stop, live) = (conn.try_clone()?, conn.try_clone()?, conn.try_clone()?);
        let link = Arc::clone(link);
        let thread = thread::Builder::new()
            .name("cpvr-replies".into())
            .spawn(move || read_replies(read, &link))?;
        (s.conn, s.fin) = (Some(live), false);
        s.window.restart_clock(Instant::now());
        Ok(ReplyReader { conn: stop, thread })
    }

    /// Ends the connection, which ends the reader's `read`, and joins it.
    pub(crate) fn stop(self) {
        let _ = self.conn.shutdown(Shutdown::Both);
        let _ = self.thread.join();
    }
}

/// Applies every reply, waking the link's waiters after each, until the
/// connection ends; then marks it dead.
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
    link.lock().conn = None;
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
    use crate::codec::write_frame;
    use std::io::Write;
    use std::net::TcpListener;

    const STALL: Duration = Duration::from_secs(30);

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
    /// ack progress, and not a nanosecond before.
    #[test]
    fn a_peer_link_window_stalls_exactly_at_peer_ack_stall() {
        use crate::federation::PEER_ACK_STALL;
        assert_eq!(PEER_ACK_STALL, Duration::from_secs(2));
        let (mut w, t0) = (Window::new(1), Instant::now());
        push(&mut w, t0);
        let out = |w: &Window, at| w.stall_at(PEER_ACK_STALL).is_some_and(|t| t <= at);
        assert!(!out(&w, t0 + PEER_ACK_STALL - Duration::from_nanos(1)));
        assert!(out(&w, t0 + PEER_ACK_STALL));
        let t1 = t0 + PEER_ACK_STALL / 2;
        push(&mut w, t1);
        w.ack(2, t1);
        assert!(!out(&w, t0 + PEER_ACK_STALL), "the ack restarted it");
        assert!(out(&w, t1 + PEER_ACK_STALL));
    }

    /// A link on a fresh loopback connection with its reply reader
    /// running, and the receiver's end of that connection.
    fn connected(first_seq: u64) -> (Arc<Link>, ReplyReader, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let conn = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (peer, _) = listener.accept().expect("accept");
        let link = Link::new(first_seq);
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
        let (link, reader, peer) = connected(0);
        for _ in 0..3 {
            push(&mut link.lock().window, Instant::now());
        }
        let replier = reply_later(peer, Frame::Ack { upto: 2 });
        let started = Instant::now();
        let woke = link.wait(PATIENCE, None, |s| s.window.len() < 3);
        assert_eq!(woke, Wake::Done);
        assert!(started.elapsed() < PATIENCE / 2, "the ack woke the waiter");
        assert_eq!(link.lock().window.first_seq(), 2);
        let _peer = replier.join().expect("replier");
        reader.stop();
    }

    #[test]
    fn a_fin_is_seen() {
        let (link, reader, peer) = connected(0);
        let replier = reply_later(peer, Frame::Fin);
        assert_eq!(link.wait(PATIENCE, None, |s| s.fin), Wake::Done);
        let _peer = replier.join().expect("replier");
        reader.stop();
        assert!(link.lock().fin, "a stop keeps what the connection said");
    }

    #[test]
    fn eof_marks_the_link_dead_and_wakes_the_waiter() {
        let (link, reader, peer) = connected(0);
        push(&mut link.lock().window, Instant::now());
        let closer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            drop(peer);
        });
        assert_eq!(link.wait(PATIENCE, None, |_| false), Wake::Dead);
        assert!(link.lock().conn.is_none());
        closer.join().expect("closer");
        reader.stop();
    }

    #[test]
    fn a_stop_joins_while_the_peer_is_connected_and_silent() {
        let (link, reader, _peer) = connected(0);
        assert_eq!(
            link.wait(PATIENCE, Some(Instant::now()), |_| false),
            Wake::Timeout,
            "a silent peer with nothing unacked is neither dead nor stalled"
        );
        reader.stop();
        assert!(link.lock().conn.is_none(), "the stopped reader let go");
    }

    #[test]
    fn unacked_frames_without_ack_progress_stall_the_wait() {
        let (link, reader, _peer) = connected(0);
        push(&mut link.lock().window, Instant::now());
        let woke = link.wait(Duration::from_millis(20), None, |_| false);
        assert_eq!(woke, Wake::Stalled);
        reader.stop();
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
