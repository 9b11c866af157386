//! A sequence that grows by fixed blocks and never reallocates.
//!
//! The fold's per-event buffers — the builder's pending queue, each
//! router's tracker stream and the graph's per-vertex adjacency cells —
//! are written once per ingested event. A buffer that doubles copies its
//! whole backlog at every doubling, and past glibc's mmap threshold each
//! larger buffer is a fresh mapping whose pages fault in again. A
//! [`BlockQueue`] instead holds its elements in blocks of
//! [`BLOCK_BYTES`] that are allocated as it grows and never move. A push
//! past the last block takes a new one; a pop that empties a block
//! retires it. One retired block is kept as a spare, so a queue that
//! streams (pushes and pops at the same rate) allocates nothing, and a
//! queue that drains after a backlog hands the rest back.
//!
//! The only thing copied as a queue grows is its spine, one 24-byte
//! header per block. It is re-made at twice its size when full, from a
//! fresh allocation rather than a `realloc`, so no buffer of the fold is
//! ever resized in place (`tests/alloc_budget.rs` counts reallocations
//! separately and expects none while a backlog builds).

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Bytes per block: small enough that glibc serves a block from its heap
/// rather than a fresh mapping (its default mmap threshold is 128 KiB),
/// large enough that a block is allocated once per 1 536 tracker records
/// or 12 288 adjacency cells.
const BLOCK_BYTES: usize = 96 * 1024;

/// A FIFO with index access whose elements live in fixed-size blocks.
///
/// Every block but the last is full. The first block's elements start at
/// `head`; the slots before it hold popped values, which are never read
/// again.
pub(crate) struct BlockQueue<T> {
    blocks: VecDeque<Vec<T>>,
    /// Index of the first element within `blocks[0]`.
    head: usize,
    len: usize,
    /// An emptied block kept for the next push.
    spare: Option<Vec<T>>,
}

impl<T: Copy> BlockQueue<T> {
    /// Elements per block.
    const LEN: usize = {
        let size = std::mem::size_of::<T>();
        assert!(
            size > 0 && size <= BLOCK_BYTES,
            "an element must fit a block"
        );
        BLOCK_BYTES / size
    };

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn front(&self) -> Option<&T> {
        self.blocks.front().and_then(|b| b.get(self.head))
    }

    pub(crate) fn back(&self) -> Option<&T> {
        self.blocks.back().and_then(|b| b.last())
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        let at = self.head + i;
        Some(&self.blocks[at / Self::LEN][at % Self::LEN])
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        let mut blocks = self.blocks.iter();
        let first = blocks.next().map_or(&[][..], |b| &b[self.head..]);
        first.iter().chain(blocks.flatten())
    }

    pub(crate) fn push_back(&mut self, x: T) {
        if self.blocks.back().is_none_or(|b| b.len() == Self::LEN) {
            self.add_block();
        }
        self.blocks.back_mut().expect("a block with room").push(x);
        self.len += 1;
    }

    pub(crate) fn pop_front(&mut self) -> Option<T> {
        let x = *self.front()?;
        self.head += 1;
        self.len -= 1;
        if self.head == Self::LEN || self.len == 0 {
            let b = self.blocks.pop_front().expect("the front block");
            self.retire(b);
            self.head = 0;
        }
        Some(x)
    }

    pub(crate) fn pop_back(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let back = self
            .blocks
            .back_mut()
            .expect("a non-empty queue has a block");
        let x = back.pop().expect("every block holds an element");
        self.len -= 1;
        if back.is_empty() || self.len == 0 {
            let b = self.blocks.pop_back().expect("the back block");
            self.retire(b);
            if self.len == 0 {
                self.head = 0;
            }
        }
        Some(x)
    }

    /// Appends copies of `fill` until the queue holds `n` elements (no-op
    /// if it already does).
    pub(crate) fn extend_to(&mut self, n: usize, fill: T) {
        while self.len < n {
            if self.blocks.back().is_none_or(|b| b.len() == Self::LEN) {
                self.add_block();
            }
            let back = self.blocks.back_mut().expect("a block with room");
            let room = (Self::LEN - back.len()).min(n - self.len);
            back.resize(back.len() + room, fill);
            self.len += room;
        }
    }

    /// Inserts `x` after the last element whose key is below `x`'s,
    /// scanning from the back: the elements at or above it are popped
    /// into `scratch`, `x` is pushed, and they are pushed back. In a
    /// queue sorted by `key` this is the sorted insert.
    pub(crate) fn insert_sorted<K: Ord>(
        &mut self,
        x: T,
        key: impl Fn(&T) -> K,
        scratch: &mut Vec<T>,
    ) {
        let k = key(&x);
        scratch.clear();
        while self.back().is_some_and(|b| key(b) >= k) {
            scratch.push(self.pop_back().expect("peeked"));
        }
        self.push_back(x);
        while let Some(y) = scratch.pop() {
            self.push_back(y);
        }
    }

    /// Sorts an unsorted tail into a `key`-sorted run: the queue's first
    /// `sorted` elements are sorted, the rest arrived out of order. The
    /// tail and the part of the run above the tail's least key are popped
    /// into `scratch`, sorted stably — adaptively, so the run's suffix and
    /// the tail's in-order stretches are merged rather than re-sorted —
    /// and pushed back. Elements with equal keys keep their order.
    pub(crate) fn sort_tail<K: Ord>(
        &mut self,
        sorted: usize,
        key: impl Fn(&T) -> K,
        scratch: &mut Vec<T>,
    ) {
        scratch.clear();
        while self.len > sorted {
            scratch.push(self.pop_back().expect("a tail element"));
        }
        let Some(first) = scratch.iter().map(&key).min() else {
            return;
        };
        while self.back().is_some_and(|b| key(b) > first) {
            scratch.push(self.pop_back().expect("peeked"));
        }
        scratch.reverse();
        scratch.sort_by_key(&key);
        for &x in scratch.iter() {
            self.push_back(x);
        }
    }

    fn add_block(&mut self) {
        if self.blocks.len() == self.blocks.capacity() {
            let mut spine = VecDeque::with_capacity((2 * self.blocks.len()).max(4));
            spine.extend(self.blocks.drain(..));
            self.blocks = spine;
        }
        let b = self
            .spare
            .take()
            .unwrap_or_else(|| Vec::with_capacity(Self::LEN));
        self.blocks.push_back(b);
    }

    fn retire(&mut self, mut b: Vec<T>) {
        if self.spare.is_none() {
            b.clear();
            self.spare = Some(b);
        }
    }

    /// Blocks allocated and held, the spare included.
    #[cfg(test)]
    fn blocks_held(&self) -> usize {
        self.blocks.len() + usize::from(self.spare.is_some())
    }
}

impl<T> Default for BlockQueue<T> {
    fn default() -> Self {
        BlockQueue {
            blocks: VecDeque::new(),
            head: 0,
            len: 0,
            spare: None,
        }
    }
}

/// A copy in fresh full-size blocks: a derived clone would size each
/// block to its contents, and the next push would grow it.
impl<T: Copy> Clone for BlockQueue<T> {
    fn clone(&self) -> Self {
        let mut q = BlockQueue::default();
        for &x in self.iter() {
            q.push_back(x);
        }
        q
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for BlockQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy> Index<usize> for BlockQueue<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        self.get(i).expect("index within the queue")
    }
}

impl<T: Copy> IndexMut<usize> for BlockQueue<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index within the queue");
        let at = self.head + i;
        &mut self.blocks[at / Self::LEN][at % Self::LEN]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An element an eighth of a block wide, so a few dozen operations
    /// cross block boundaries. `key` orders; `seq` tells equal keys
    /// apart, so a sort that is not stable shows.
    #[derive(Clone, Copy, Debug)]
    struct Wide {
        key: u8,
        seq: u32,
        _pad: [u8; 12 * 1024],
    }

    const PER_BLOCK: usize = BlockQueue::<Wide>::LEN;
    const _: () = assert!(PER_BLOCK >= 4 && PER_BLOCK <= 16, "ops cross blocks");

    fn wide(key: u8, seq: u32) -> Wide {
        Wide {
            key,
            seq,
            _pad: [0; 12 * 1024],
        }
    }

    fn ids<'a>(it: impl Iterator<Item = &'a Wide>) -> Vec<(u8, u32)> {
        it.map(|w| (w.key, w.seq)).collect()
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Push(u8),
        PopFront,
        PopBack,
        Insert(u8),
        /// Sorts the tail behind the longest sorted prefix.
        Settle,
        /// Overwrites the element at this fraction (`/256`) of the length.
        Set(u8, u8),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..16).prop_map(Op::Push),
            (0u8..16).prop_map(Op::Push),
            (0u8..16).prop_map(Op::Push),
            Just(Op::PopFront),
            Just(Op::PopBack),
            (0u8..16).prop_map(Op::Insert),
            Just(Op::Settle),
            (any::<u8>(), 0u8..16).prop_map(|(at, key)| Op::Set(at, key)),
        ]
    }

    /// Applies `op` to the queue and to the `VecDeque` model: the model's
    /// insert and settle are the `partition_point` + `insert` and the
    /// in-place sort the queue's methods replace.
    fn apply(q: &mut BlockQueue<Wide>, model: &mut VecDeque<Wide>, op: Op, seq: u32) {
        let scratch = &mut Vec::new();
        let key = |w: &Wide| w.key;
        match op {
            Op::Push(k) => {
                q.push_back(wide(k, seq));
                model.push_back(wide(k, seq));
            }
            Op::PopFront => assert_eq!(
                q.pop_front().map(|w| (w.key, w.seq)),
                model.pop_front().map(|w| (w.key, w.seq))
            ),
            Op::PopBack => assert_eq!(
                q.pop_back().map(|w| (w.key, w.seq)),
                model.pop_back().map(|w| (w.key, w.seq))
            ),
            Op::Insert(k) => {
                q.insert_sorted(wide(k, seq), key, scratch);
                let above = model.iter().rev().take_while(|w| w.key >= k).count();
                model.insert(model.len() - above, wide(k, seq));
            }
            Op::Settle => {
                let run = 1 + model
                    .iter()
                    .zip(model.iter().skip(1))
                    .take_while(|(a, b)| a.key <= b.key)
                    .count();
                let sorted = run.min(model.len());
                q.sort_tail(sorted, key, scratch);
                let all = model.make_contiguous();
                let (run, tail) = all.split_at(sorted);
                if let Some(first) = tail.iter().map(key).min() {
                    let lo = run.partition_point(|w| w.key <= first);
                    all[lo..].sort_by_key(key);
                }
            }
            Op::Set(at, k) => {
                if !model.is_empty() {
                    let i = usize::from(at) * model.len() / 256;
                    q[i] = wide(k, seq);
                    model[i] = wide(k, seq);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random operation sequences against a `VecDeque`, compared
        /// after every step through iteration, indexing, both ends and
        /// the length; the queue holds at most one block beyond what its
        /// elements occupy.
        #[test]
        fn matches_a_vecdeque(ops in prop::collection::vec(op(), 1..400)) {
            let mut q = BlockQueue::default();
            let mut model = VecDeque::new();
            for (seq, op) in ops.into_iter().enumerate() {
                apply(&mut q, &mut model, op, seq as u32);
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(ids(q.iter()), ids(model.iter()));
                let by_index: Vec<&Wide> = (0..q.len()).map(|i| &q[i]).collect();
                prop_assert_eq!(ids(by_index.into_iter()), ids(model.iter()));
                prop_assert!(q.get(q.len()).is_none());
                prop_assert_eq!(ids(q.front().into_iter()), ids(model.front().into_iter()));
                prop_assert_eq!(ids(q.back().into_iter()), ids(model.back().into_iter()));
                let occupied = (q.head + q.len).div_ceil(PER_BLOCK);
                prop_assert!(q.blocks_held() <= occupied + 1);
            }
            let copy = q.clone();
            prop_assert_eq!(ids(copy.iter()), ids(model.iter()));
        }
    }

    /// A backlog of 100 000 records, drained, leaves one block behind; so
    /// does a queue streaming through many blocks' worth after that.
    #[test]
    fn a_drained_queue_holds_at_most_one_block() {
        let mut q: BlockQueue<[u64; 6]> = BlockQueue::default();
        for i in 0..100_000u64 {
            q.push_back([i; 6]);
        }
        assert!(q.blocks_held() >= 100_000 / BlockQueue::<[u64; 6]>::LEN);
        for i in 0..100_000u64 {
            assert_eq!(q.pop_front(), Some([i; 6]));
        }
        assert_eq!(q.len(), 0);
        assert!(q.blocks_held() <= 1, "{} blocks held", q.blocks_held());
        for i in 0..100_000u64 {
            q.push_back([i; 6]);
            assert_eq!(q.pop_front(), Some([i; 6]));
        }
        assert!(q.blocks_held() <= 1, "{} blocks held", q.blocks_held());
    }

    /// `extend_to` fills across block boundaries and never shrinks.
    #[test]
    fn extend_to_fills_with_the_value() {
        let mut q: BlockQueue<(u32, u32)> = BlockQueue::default();
        let n = 2 * BlockQueue::<(u32, u32)>::LEN + 5;
        q.extend_to(n, (7, 7));
        q.extend_to(3, (0, 0));
        assert_eq!(q.len(), n);
        assert!(q.iter().all(|c| *c == (7, 7)));
        q[n - 1] = (1, 2);
        assert_eq!(q.back(), Some(&(1, 2)));
    }
}
