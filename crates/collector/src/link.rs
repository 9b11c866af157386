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

use crate::codec::{Decoder, Frame};
use crate::pipeline::{HelloKind, Offer};
use cpvr_types::fnv1a64;
use std::cmp::Ordering as Cmp;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant, UNIX_EPOCH};

/// Read timeout on a link's reply stream, and the sender's poll period.
pub(crate) const ACK_POLL: Duration = Duration::from_millis(1);

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
    /// Restarted when acks advance, when the window goes from empty to
    /// non-empty, and by [`restart_clock`](Self::restart_clock).
    progress: Instant,
}

impl Window {
    /// An empty window whose first frame will carry `first_seq`.
    pub(crate) fn new(first_seq: u64) -> Self {
        Window {
            next_seq: first_seq,
            frames: VecDeque::new(),
            progress: Instant::now(),
        }
    }

    /// Numbers one frame, holds the bytes `encode` makes for its
    /// sequence number, and returns them for the first send.
    pub(crate) fn push(&mut self, encode: impl FnOnce(u64) -> Vec<u8>) -> &[u8] {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.frames.is_empty() {
            self.restart_clock();
        }
        self.frames.push_back((seq, encode(seq)));
        &self.frames.back().expect("just pushed").1
    }

    /// Applies a cumulative ack: every frame below `upto` arrived.
    pub(crate) fn ack(&mut self, upto: u64) {
        let before = self.frames.len();
        while self.frames.front().is_some_and(|(s, _)| *s < upto) {
            self.frames.pop_front();
        }
        if self.frames.len() < before {
            self.restart_clock();
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

    pub(crate) fn restart_clock(&mut self) {
        self.progress = Instant::now();
    }

    /// Whether the stall clock has run for `after`.
    pub(crate) fn stalled(&self, after: Duration) -> bool {
        self.progress.elapsed() >= after
    }
}

/// Hands each intact frame the receiver replied on `stream` to
/// `on_reply`, until a read times out ([`ACK_POLL`]). Returns `false`
/// once the connection is dead.
pub(crate) fn drain_replies(
    mut stream: &TcpStream,
    dec: &mut Decoder,
    mut on_reply: impl FnMut(Frame),
) -> bool {
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return false,
            Ok(n) => dec.feed(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return true
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
        while let Some(msg) = dec.next_message(false) {
            if let Ok(msg) = msg {
                on_reply(msg.frame);
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
    use crate::codec::{encode_frame, write_frame};
    use std::io::Write;
    use std::net::TcpListener;

    /// Puts the stall clock a minute in the past.
    fn backdate(w: &mut Window) {
        w.progress -= Duration::from_secs(60);
    }

    fn stalled(w: &Window) -> bool {
        w.stalled(Duration::from_secs(30))
    }

    fn push(w: &mut Window) -> u64 {
        let mut seq = None;
        w.push(|s| {
            seq = Some(s);
            s.to_le_bytes().to_vec()
        });
        seq.expect("push numbers the frame")
    }

    #[test]
    fn a_window_numbers_frames_from_its_first_sequence() {
        let mut w = Window::new(1);
        assert_eq!((w.first_seq(), w.next_seq()), (1, 1));
        assert_eq!([push(&mut w), push(&mut w), push(&mut w)], [1, 2, 3]);
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
        assert_eq!(w.push(|s| vec![s as u8]), &[4]);
    }

    #[test]
    fn a_cumulative_ack_prunes_the_front_and_moves_the_replay_start() {
        let mut w = Window::new(0);
        for _ in 0..5 {
            push(&mut w);
        }
        assert_eq!(w.first_seq(), 0);
        w.ack(2);
        assert_eq!((w.first_seq(), w.len()), (2, 3));
        w.ack(1);
        assert_eq!(
            (w.first_seq(), w.len()),
            (2, 3),
            "a stale ack prunes nothing"
        );
        w.ack(5);
        assert!(w.is_empty());
        assert_eq!(
            w.first_seq(),
            5,
            "an empty window replays from the next frame"
        );
        assert_eq!(push(&mut w), 5);
        assert_eq!(w.first_seq(), 5);
    }

    #[test]
    fn the_stall_clock_restarts_on_ack_progress_only() {
        let mut w = Window::new(0);
        push(&mut w);
        push(&mut w);
        backdate(&mut w);
        assert!(stalled(&w));
        w.ack(0);
        assert!(stalled(&w), "an ack that prunes nothing is no progress");
        w.ack(1);
        assert!(!stalled(&w), "an advancing ack restarts the clock");
    }

    #[test]
    fn the_stall_clock_restarts_when_the_window_fills_from_empty() {
        let mut w = Window::new(0);
        backdate(&mut w);
        push(&mut w);
        assert!(!stalled(&w), "the first unacked frame starts the clock");
        backdate(&mut w);
        push(&mut w);
        assert!(stalled(&w), "a frame behind an unacked one does not");
    }

    #[test]
    fn restart_clock_restarts_the_stall_clock() {
        let mut w = Window::new(0);
        push(&mut w);
        backdate(&mut w);
        w.restart_clock();
        assert!(!stalled(&w));
    }

    #[test]
    fn replies_are_drained_until_the_connection_dies() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        stream.set_read_timeout(Some(ACK_POLL)).expect("timeout");
        let (mut peer, _) = listener.accept().expect("accept");
        let mut dec = Decoder::new();
        let mut got = Vec::new();
        assert!(
            drain_replies(&stream, &mut dec, |f| got.push(f)),
            "idle is alive"
        );
        assert!(got.is_empty());
        let mut bytes = encode_frame(&Frame::Ack { upto: 7 });
        bytes.extend(b"line noise");
        write_frame(&mut bytes, &Frame::Fin).expect("encode");
        peer.write_all(&bytes).expect("write");
        drop(peer);
        let deadline = Instant::now() + Duration::from_secs(5);
        while drain_replies(&stream, &mut dec, |f| got.push(f)) {
            assert!(Instant::now() < deadline, "the close was never seen");
        }
        assert!(matches!(got[..], [Frame::Ack { upto: 7 }, Frame::Fin]));
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
