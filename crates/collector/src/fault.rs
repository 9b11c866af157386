//! Deterministic fault injection for the collector stack.
//!
//! The chaos tests need a *misbehaving network* whose misbehavior is
//! reproducible: a [`FaultPlan`] is a seeded schedule of faults pinned
//! to **byte offsets of the client→collector stream** (not wall-clock
//! time), so the same seed always damages the same bytes no matter how
//! the OS schedules the threads. A [`ChaosProxy`] sits between one
//! client and the collector and applies the plan while pumping bytes:
//!
//! * [`FaultKind::Drop`] — a contiguous byte range vanishes (models
//!   partial writes and lost segments);
//! * [`FaultKind::FlipBit`] — one byte is damaged in flight (caught by
//!   the frame CRC, quarantined by the [`Decoder`]);
//! * [`FaultKind::Duplicate`] — a copy of recently forwarded bytes is
//!   re-injected (models retransmission bugs and replay);
//! * [`FaultKind::Delay`] — the pump stalls briefly (models congestion
//!   and reordering pressure);
//! * [`FaultKind::Disconnect`] — the connection is torn down mid-stream
//!   (the client reconnects through the proxy and replays).
//!
//! The fault cursor survives reconnects: offsets count every byte the
//! client ever sent through the proxy, across connections, so a plan is
//! one deterministic story per proxy regardless of how many times the
//! client comes back. The collector→client direction (acks) passes
//! through untouched — the protocol's recovery machinery, not ack
//! luck, is what the tests exercise.
//!
//! [`Decoder`]: crate::codec::Decoder

use crate::collector::{wake_acceptor, ACCEPT_BACKOFF};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// One injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow the next `len` bytes of the stream.
    Drop {
        /// Bytes to drop.
        len: usize,
    },
    /// XOR the byte at the fault offset with `mask` (nonzero).
    FlipBit {
        /// The damage mask.
        mask: u8,
    },
    /// Re-inject a copy of up to `len` recently forwarded bytes.
    Duplicate {
        /// Bytes to duplicate (bounded by what was recently seen).
        len: usize,
    },
    /// Stall the pump for `ms` milliseconds.
    Delay {
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Tear the connection down; the client must reconnect.
    Disconnect,
}

/// A deterministic schedule of faults over the client→collector byte
/// stream: `(byte_offset, fault)` pairs in offset order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// No faults: the proxy is a transparent pipe.
    pub fn none() -> Self {
        FaultPlan { faults: Vec::new() }
    }

    /// An explicit schedule (offsets need not be pre-sorted).
    pub fn from_schedule(mut faults: Vec<(u64, FaultKind)>) -> Self {
        faults.sort_by_key(|(at, _)| *at);
        FaultPlan { faults }
    }

    /// `n` faults at seeded-random offsets within the first `horizon`
    /// bytes of the stream. The same `(seed, horizon, n)` always yields
    /// the same plan — byte-for-byte reproducible chaos.
    pub fn from_seed(seed: u64, horizon: u64, n: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            let at = rng.gen_range(0..horizon.max(1));
            let kind = match rng.gen_range(0u32..100) {
                0..=24 => FaultKind::Drop {
                    len: rng.gen_range(1usize..=64),
                },
                25..=49 => FaultKind::FlipBit {
                    mask: 1u8 << rng.gen_range(0u32..8),
                },
                50..=69 => FaultKind::Duplicate {
                    len: rng.gen_range(8usize..=128),
                },
                70..=84 => FaultKind::Delay {
                    ms: rng.gen_range(1u64..=25),
                },
                _ => FaultKind::Disconnect,
            };
            faults.push((at, kind));
        }
        Self::from_schedule(faults)
    }
}

/// What the pump should do next, in order.
#[derive(Debug, PartialEq, Eq)]
enum Step {
    /// Forward these bytes upstream.
    Write(Vec<u8>),
    /// Stall this long.
    Sleep(Duration),
    /// Tear the connection down (remaining input is consumed unsent).
    Disconnect,
}

/// How many forwarded bytes the cursor remembers for [`FaultKind::Duplicate`].
const RECENT_CAP: usize = 256;

/// The mutable execution state of a plan: how far into the stream we
/// are and which faults have fired. Pure byte-in/steps-out, so the
/// transformation is unit-testable without sockets.
struct FaultCursor {
    plan: FaultPlan,
    /// Bytes of client input consumed so far (fault offsets live in
    /// this space — *arrival* bytes, including ones later dropped).
    offset: u64,
    /// Next plan entry to fire.
    idx: usize,
    /// Ring of recently forwarded bytes, for duplication.
    recent: Vec<u8>,
    injected: u64,
    /// Of the injected faults, flips that actually damaged a forwarded
    /// byte (a flip scheduled past the end of its chunk fires without
    /// damaging anything).
    flipped: u64,
}

impl FaultCursor {
    fn new(plan: FaultPlan) -> Self {
        FaultCursor {
            plan,
            offset: 0,
            idx: 0,
            recent: Vec::new(),
            injected: 0,
            flipped: 0,
        }
    }

    fn remember(&mut self, bytes: &[u8]) {
        self.recent.extend_from_slice(bytes);
        if self.recent.len() > RECENT_CAP {
            let excess = self.recent.len() - RECENT_CAP;
            self.recent.drain(..excess);
        }
    }

    /// Consumes one chunk of client input, emitting the (possibly
    /// damaged) steps to perform. `offset` always advances by the full
    /// chunk length — dropped and post-disconnect bytes still count,
    /// which is what keeps fault positions independent of earlier
    /// faults' effects.
    fn apply(&mut self, chunk: &[u8]) -> Vec<Step> {
        let mut steps = Vec::new();
        let mut at = 0usize; // cursor into `chunk`
        let end = self.offset + chunk.len() as u64;
        let mut pending: Vec<u8> = Vec::new();
        while at < chunk.len() || self.next_fault_within(end).is_some() {
            match self.next_fault_within(end) {
                None => {
                    pending.extend_from_slice(&chunk[at..]);
                    self.offset += (chunk.len() - at) as u64;
                    at = chunk.len();
                }
                Some(fault_at) => {
                    // Forward cleanly up to the fault point.
                    let clean = (fault_at - self.offset) as usize;
                    pending.extend_from_slice(&chunk[at..at + clean]);
                    at += clean;
                    self.offset = fault_at;
                    let (_, kind) = self.plan.faults[self.idx];
                    self.idx += 1;
                    self.injected += 1;
                    match kind {
                        FaultKind::Drop { len } => {
                            let n = len.min(chunk.len() - at);
                            at += n;
                            self.offset += n as u64;
                        }
                        FaultKind::FlipBit { mask } => {
                            if at < chunk.len() {
                                pending.push(chunk[at] ^ (mask | 1));
                                at += 1;
                                self.offset += 1;
                                self.flipped += 1;
                            }
                        }
                        FaultKind::Duplicate { len } => {
                            self.remember(&pending);
                            let n = len.min(self.recent.len());
                            let dup = self.recent[self.recent.len() - n..].to_vec();
                            pending.extend_from_slice(&dup);
                        }
                        FaultKind::Delay { ms } => {
                            if !pending.is_empty() {
                                self.remember(&pending);
                                steps.push(Step::Write(std::mem::take(&mut pending)));
                            }
                            steps.push(Step::Sleep(Duration::from_millis(ms)));
                        }
                        FaultKind::Disconnect => {
                            if !pending.is_empty() {
                                self.remember(&pending);
                                steps.push(Step::Write(std::mem::take(&mut pending)));
                            }
                            steps.push(Step::Disconnect);
                            // The rest of the chunk dies with the
                            // connection, but its bytes still count.
                            self.offset = end;
                            return steps;
                        }
                    }
                }
            }
        }
        if !pending.is_empty() {
            self.remember(&pending);
            steps.push(Step::Write(pending));
        }
        steps
    }

    /// The offset of the next unfired fault strictly below `end`. Faults
    /// whose offset a drop or a disconnect already consumed never fire:
    /// they are skipped, so they cannot stall the ones after them.
    fn next_fault_within(&mut self, end: u64) -> Option<u64> {
        while self.plan.faults.get(self.idx)?.0 < self.offset {
            self.idx += 1;
        }
        let (at, _) = self.plan.faults[self.idx];
        (at < end).then_some(at)
    }
}

/// Counters observable while a proxy runs, and the live connection.
#[derive(Default)]
struct ProxyShared {
    injected: AtomicU64,
    flipped: AtomicU64,
    /// While set, the proxy models a network partition: live
    /// connections are torn down and new ones are accepted but dropped
    /// immediately, so both ends see a dead link rather than a refused
    /// dial (exactly how a partition looks to TCP keepalives).
    partitioned: AtomicBool,
    /// Set once the proxy is stopping.
    stop: AtomicBool,
    /// The `(client, upstream)` pair being pumped, if any: a partition
    /// or stop severs it, which ends both pumps' blocking reads.
    live: Mutex<Option<(TcpStream, TcpStream)>>,
}

impl ProxyShared {
    /// Shuts down the live pair, if any.
    fn sever(&self) {
        if let Some((client, up)) = self.live.lock().unwrap().take() {
            let _ = client.shutdown(Shutdown::Both);
            let _ = up.shutdown(Shutdown::Both);
        }
    }

    /// Registers the pair being pumped, unless a partition or stop has
    /// landed since it was accepted; `false` means: do not pump it.
    fn register(&self, client: &TcpStream, up: &TcpStream) -> bool {
        let mut live = self.live.lock().unwrap();
        // Checked under the lock `sever` takes, so a partition or stop
        // either sees this pair registered or is seen here.
        if self.partitioned.load(Ordering::SeqCst) || self.stop.load(Ordering::SeqCst) {
            return false;
        }
        *live = client.try_clone().ok().zip(up.try_clone().ok());
        live.is_some()
    }
}

/// A point-in-time copy of a proxy's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProxyStats {
    /// Faults injected so far.
    pub injected: u64,
    /// Of those, bit flips that actually damaged a forwarded byte —
    /// each one is guaranteed visible damage (`mask | 1` never
    /// round-trips), so downstream quarantine/resync telemetry can be
    /// checked against this.
    pub flipped: u64,
}

/// A TCP proxy that applies a [`FaultPlan`] to the client→upstream byte
/// stream. One client at a time (each router gets its own proxy); the
/// fault cursor persists across that client's reconnects.
pub struct ChaosProxy {
    addr: SocketAddr,
    shared: Arc<ProxyShared>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral loopback port and starts proxying to
    /// `upstream` under `plan`.
    pub fn start(upstream: SocketAddr, plan: FaultPlan) -> io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared::default());
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("cpvr-chaos".into())
                .spawn(move || accept_loop(listener, upstream, plan, shared))?
        };
        Ok(ChaosProxy {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Severs the link: existing connections drop and new ones are
    /// accepted but immediately closed, until [`heal`](Self::heal).
    /// The fault cursor keeps its position — a partition interrupts
    /// the byte story, it does not rewrite it.
    pub fn partition(&self) {
        self.shared.partitioned.store(true, Ordering::SeqCst);
        self.shared.sever();
    }

    /// Ends a [`partition`](Self::partition): the next reconnect
    /// through the proxy reaches the upstream again.
    pub fn heal(&self) {
        self.shared.partitioned.store(false, Ordering::SeqCst);
    }

    /// A snapshot of the proxy's counters.
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            injected: self.shared.injected.load(Ordering::Relaxed),
            flipped: self.shared.flipped.load(Ordering::Relaxed),
        }
    }

    /// Stops the proxy and returns its final counters.
    pub fn shutdown(mut self) -> ProxyStats {
        self.stop();
        self.stats()
    }

    /// Severs the live connection, wakes the acceptor and joins it.
    fn stop(&mut self) {
        let Some(h) = self.accept.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.sever();
        wake_acceptor(self.addr, &h);
        let _ = h.join();
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: FaultPlan,
    shared: Arc<ProxyShared>,
) {
    // The cursor outlives individual connections: a reconnecting client
    // continues the same fault story where the last connection left it.
    let mut cursor = FaultCursor::new(plan);
    for client in listener.incoming() {
        // `stop` sets the flag, then connects to wake this `accept`.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(client) = client else {
            thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        if shared.partitioned.load(Ordering::SeqCst) {
            // Partitioned: the dial succeeds (the listener is up) but
            // the link is dead — hang up without touching the upstream.
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        // The collector should be up, but don't die if it is mid-restart.
        let up = match TcpStream::connect(upstream) {
            Ok(s) => s,
            Err(_) => continue, // client sees the close and retries
        };
        if shared.register(&client, &up) {
            run_connection(&client, &up, &mut cursor, &shared);
        }
        shared.injected.store(cursor.injected, Ordering::Relaxed);
        shared.flipped.store(cursor.flipped, Ordering::Relaxed);
    }
}

/// Pumps one registered client connection through the fault cursor
/// until EOF, a disconnect fault, an error, or the pair being severed;
/// severs it on the way out.
fn run_connection(
    client: &TcpStream,
    up: &TcpStream,
    cursor: &mut FaultCursor,
    shared: &ProxyShared,
) {
    let _ = client.set_nodelay(true);
    let _ = up.set_nodelay(true);
    let (Ok(mut up_r), Ok(mut client_w)) = (up.try_clone(), client.try_clone()) else {
        shared.sever();
        return;
    };
    // Ack direction (collector → client): transparent passthrough.
    let s2c = thread::spawn(move || {
        let _ = io::copy(&mut up_r, &mut client_w);
    });

    // Data direction (client → collector): through the fault cursor.
    let (mut client_r, mut up_w) = (client, up);
    let mut buf = [0u8; 4096];
    'pump: loop {
        let n = match client_r.read(&mut buf) {
            Ok(0) => break, // client closed
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        let steps = cursor.apply(&buf[..n]);
        shared.injected.store(cursor.injected, Ordering::Relaxed);
        for step in steps {
            match step {
                Step::Write(bytes) => {
                    if up_w.write_all(&bytes).is_err() {
                        break 'pump;
                    }
                }
                Step::Sleep(d) => thread::sleep(d),
                Step::Disconnect => break 'pump,
            }
        }
    }
    shared.sever();
    let _ = s2c.join();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::from_seed(42, 100_000, 25);
        let b = FaultPlan::from_seed(42, 100_000, 25);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 25);
        let c = FaultPlan::from_seed(43, 100_000, 25);
        assert_ne!(a, c, "different seeds should differ");
        // Offsets come sorted and within the horizon.
        let mut prev = 0;
        for &(at, _) in &a.faults {
            assert!(at >= prev && at < 100_000);
            prev = at;
        }
    }

    #[test]
    fn cursor_without_faults_is_transparent() {
        let mut c = FaultCursor::new(FaultPlan::none());
        let steps = c.apply(b"hello, collector");
        assert_eq!(steps, vec![Step::Write(b"hello, collector".to_vec())]);
        assert_eq!(c.offset, 16);
        assert_eq!(c.injected, 0);
    }

    #[test]
    fn drop_swallows_the_scheduled_range() {
        let plan = FaultPlan::from_schedule(vec![(4, FaultKind::Drop { len: 3 })]);
        let mut c = FaultCursor::new(plan);
        let steps = c.apply(b"0123abc456");
        assert_eq!(steps, vec![Step::Write(b"0123456".to_vec())]);
        assert_eq!(c.offset, 10, "dropped bytes still count as consumed");
    }

    #[test]
    fn flip_damages_exactly_one_byte() {
        let plan = FaultPlan::from_schedule(vec![(2, FaultKind::FlipBit { mask: 0x08 })]);
        let mut c = FaultCursor::new(plan);
        let steps = c.apply(b"abcdef");
        let Step::Write(out) = &steps[0] else {
            panic!("expected a write");
        };
        assert_eq!(out.len(), 6);
        assert_eq!(&out[..2], b"ab");
        assert_ne!(out[2], b'c');
        assert_eq!(&out[3..], b"def");
    }

    #[test]
    fn duplicate_reinjects_recent_bytes() {
        let plan = FaultPlan::from_schedule(vec![(2, FaultKind::Duplicate { len: 4 })]);
        let mut c = FaultCursor::new(plan);
        let steps = c.apply(b"wxyz");
        // Only "wx" has been forwarded when the fault fires, so only
        // "wx" can be duplicated.
        assert_eq!(steps, vec![Step::Write(b"wxwxyz".to_vec())]);
    }

    #[test]
    fn disconnect_forwards_the_prefix_then_cuts() {
        let plan = FaultPlan::from_schedule(vec![(3, FaultKind::Disconnect)]);
        let mut c = FaultCursor::new(plan);
        let steps = c.apply(b"abcdef");
        assert_eq!(
            steps,
            vec![Step::Write(b"abc".to_vec()), Step::Disconnect],
            "bytes after the cut die with the connection"
        );
        assert_eq!(c.offset, 6, "the lost tail still counts as consumed");
        // The stream continues cleanly on the next connection.
        assert_eq!(c.apply(b"gh"), vec![Step::Write(b"gh".to_vec())]);
    }

    #[test]
    fn faults_behind_the_cursor_are_skipped_not_stalled_on() {
        // The drop swallows offset 5, so the flip there never fires —
        // but the flip at 20 still must.
        let plan = FaultPlan::from_schedule(vec![
            (0, FaultKind::Drop { len: 10 }),
            (5, FaultKind::FlipBit { mask: 1 }),
            (20, FaultKind::FlipBit { mask: 1 }),
        ]);
        let mut c = FaultCursor::new(plan);
        let chunk: Vec<u8> = (0u8..30).collect();
        let steps = c.apply(&chunk);
        let [Step::Write(out)] = &steps[..] else {
            panic!("expected one write, got {steps:?}");
        };
        assert_eq!(out.len(), 20);
        assert_eq!(&out[..10], &chunk[10..20]);
        assert_ne!(out[10], 20, "the byte at offset 20 is flipped");
        assert_eq!(&out[11..], &chunk[21..]);
        assert_eq!((c.injected, c.flipped), (2, 1));
    }

    #[test]
    fn faults_across_chunk_boundaries_fire_once() {
        let plan = FaultPlan::from_schedule(vec![
            (1, FaultKind::Drop { len: 2 }),
            (6, FaultKind::FlipBit { mask: 1 }),
        ]);
        let mut c = FaultCursor::new(plan);
        let mut out = Vec::new();
        for chunk in [&b"0123"[..], &b"4567"[..]] {
            for step in c.apply(chunk) {
                if let Step::Write(b) = step {
                    out.extend_from_slice(&b);
                }
            }
        }
        // "12" dropped at offset 1, byte '6' (offset 6) flipped.
        assert_eq!(out.len(), 6);
        assert_eq!(&out[..4], b"0345");
        assert_ne!(out[4], b'6');
        assert_eq!(out[5], b'7');
        assert_eq!(c.injected, 2);
    }
}
