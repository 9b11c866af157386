//! Deterministic fault injection for the collector stack.
//!
//! The seeded driver (`session::driver`) needs a *misbehaving network*
//! whose misbehavior is reproducible: a [`FaultPlan`] is a seeded
//! schedule of faults pinned to **byte offsets of one client's stream**
//! (not to time), so the same seed always damages the same bytes. The
//! driver moves each connection's bytes through that client's
//! [`FaultCursor`]:
//!
//! * [`FaultKind::Drop`] — a contiguous byte range vanishes (models
//!   partial writes and lost segments);
//! * [`FaultKind::FlipBit`] — one byte is damaged in flight (caught by
//!   the frame CRC, quarantined by the [`Decoder`]);
//! * [`FaultKind::Duplicate`] — a copy of recently forwarded bytes is
//!   re-injected (models retransmission bugs and replay);
//! * [`FaultKind::Delay`] — delivery pauses (models congestion); the
//!   driver holds the connection that long in virtual time;
//! * [`FaultKind::Disconnect`] — the connection is torn down mid-stream
//!   (the client reconnects and replays).
//!
//! The cursor survives reconnects: offsets count every byte the client
//! ever sent, across connections, so a plan is one deterministic story
//! per client regardless of how many times it comes back. The reply
//! direction (acks) passes untouched — the protocol's recovery
//! machinery, not ack luck, is what the driver exercises.
//!
//! [`Decoder`]: crate::codec::Decoder

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultKind {
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
    /// Hold the rest of the stream for `ms` milliseconds.
    Delay {
        /// Hold duration in milliseconds.
        ms: u64,
    },
    /// Tear the connection down; the client must reconnect.
    Disconnect,
}

/// A deterministic schedule of faults over the client→collector byte
/// stream: `(byte_offset, fault)` pairs in offset order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FaultPlan {
    faults: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// No faults: a transparent pipe.
    pub(crate) fn none() -> Self {
        FaultPlan { faults: Vec::new() }
    }

    /// An explicit schedule (offsets need not be pre-sorted).
    pub(crate) fn from_schedule(mut faults: Vec<(u64, FaultKind)>) -> Self {
        faults.sort_by_key(|(at, _)| *at);
        FaultPlan { faults }
    }

    /// `n` faults at seeded-random offsets within the first `horizon`
    /// bytes of the stream. The same `(seed, horizon, n)` always yields
    /// the same plan — byte-for-byte reproducible chaos.
    pub(crate) fn from_seed(seed: u64, horizon: u64, n: usize) -> Self {
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

/// What the carrier of a stream should do next, in order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Deliver these bytes.
    Write(Vec<u8>),
    /// Hold the rest of the stream this long.
    Sleep(Duration),
    /// Tear the connection down (remaining input is consumed unsent).
    Disconnect,
}

/// How many forwarded bytes the cursor remembers for [`FaultKind::Duplicate`].
const RECENT_CAP: usize = 256;

/// The mutable execution state of a plan: how far into the stream we
/// are and which faults have fired. Pure byte-in/steps-out: no socket,
/// no clock.
pub(crate) struct FaultCursor {
    plan: FaultPlan,
    /// Bytes of client input consumed so far (fault offsets live in
    /// this space — *arrival* bytes, including ones later dropped).
    offset: u64,
    /// Next plan entry to fire.
    idx: usize,
    /// Ring of recently forwarded bytes, for duplication.
    recent: Vec<u8>,
    /// Faults fired so far.
    pub(crate) injected: u64,
    /// Of the injected faults, flips that actually damaged a forwarded
    /// byte (a flip scheduled past the end of its chunk fires without
    /// damaging anything). Each is visible damage — `mask | 1` never
    /// round-trips — so the decoder's quarantine and resync counters
    /// can be checked against it.
    pub(crate) flipped: u64,
}

impl FaultCursor {
    pub(crate) fn new(plan: FaultPlan) -> Self {
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
    pub(crate) fn apply(&mut self, chunk: &[u8]) -> Vec<Step> {
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

    /// Concatenates adjacent writes, so step lists compare across
    /// chunkings.
    fn merged(steps: impl IntoIterator<Item = Step>) -> Vec<Step> {
        let mut out: Vec<Step> = Vec::new();
        for step in steps {
            match (out.last_mut(), step) {
                (Some(Step::Write(acc)), Step::Write(b)) => acc.extend(b),
                (_, step) => out.push(step),
            }
        }
        out
    }

    /// Each kind fires exactly at its offset on a constructed 32-byte
    /// stream, whether the stream arrives in one chunk or split before
    /// or at the fault.
    #[test]
    fn each_kind_fires_at_its_exact_offset() {
        let stream: Vec<u8> = (0u8..32).collect();
        let at = |r: std::ops::Range<u8>| r.collect::<Vec<u8>>();
        let cat = |parts: &[Vec<u8>]| parts.concat();
        let cases = [
            (
                FaultKind::Drop { len: 2 },
                vec![Step::Write(cat(&[at(0..10), at(12..32)]))],
            ),
            (
                FaultKind::FlipBit { mask: 4 },
                vec![Step::Write(cat(&[at(0..10), vec![10 ^ 5], at(11..32)]))],
            ),
            (
                FaultKind::Duplicate { len: 3 },
                vec![Step::Write(cat(&[at(0..10), at(7..10), at(10..32)]))],
            ),
            (
                FaultKind::Delay { ms: 7 },
                vec![
                    Step::Write(at(0..10)),
                    Step::Sleep(Duration::from_millis(7)),
                    Step::Write(at(10..32)),
                ],
            ),
            (
                FaultKind::Disconnect,
                vec![Step::Write(at(0..10)), Step::Disconnect],
            ),
        ];
        for (kind, want) in cases {
            for split in [32, 10, 5] {
                let mut c = FaultCursor::new(FaultPlan::from_schedule(vec![(10, kind)]));
                let (a, b) = stream.split_at(split);
                let got = merged(c.apply(a).into_iter().chain(c.apply(b)));
                assert_eq!(got, want, "{kind:?} split at {split}");
                assert_eq!((c.offset, c.injected), (32, 1), "{kind:?}");
                let flips = u64::from(matches!(kind, FaultKind::FlipBit { .. }));
                assert_eq!(c.flipped, flips, "{kind:?}");
            }
        }
    }

    /// A reconnect does not restart the byte story: the bytes a
    /// disconnect cut off still count, and the next connection's bytes
    /// carry on from there.
    #[test]
    fn offsets_keep_counting_across_a_reconnect() {
        let plan = FaultPlan::from_schedule(vec![
            (5, FaultKind::Disconnect),
            (12, FaultKind::FlipBit { mask: 0x10 }),
        ]);
        let mut c = FaultCursor::new(plan);
        let first = c.apply(b"01234567");
        assert_eq!(
            first,
            vec![Step::Write(b"01234".to_vec()), Step::Disconnect]
        );
        assert_eq!(c.offset, 8, "the cut-off tail counts");
        // The client reconnects and replays from its byte 3.
        let second = c.apply(b"34567890");
        let flipped = [&b"3456"[..], &[b'7' ^ 0x11], b"890"].concat();
        assert_eq!(
            second,
            vec![Step::Write(flipped)],
            "offset 12 is byte 4 here"
        );
        assert_eq!((c.offset, c.injected, c.flipped), (16, 2, 1));
    }
}
