//! Deterministic, dependency-free hashing: FNV-1a content digests, and
//! the word-at-a-time table hasher of the fold's per-event maps.
//!
//! The repair-proof subsystem needs a stable digest over event bytes
//! that is identical across processes, platforms, and recoveries —
//! `std`'s `DefaultHasher` is seeded per-process and explicitly *not*
//! stable across releases, so proofs hash with FNV-1a instead. The
//! digest is an integrity fingerprint for tamper detection inside a
//! trusted control plane, not a cryptographic commitment.
//!
//! [`WordHasher`] is the other kind of hash: nobody ever sees its value,
//! it only picks a bucket — see [`WordMap`] for where that is sound.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a64 {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a64(FNV_OFFSET)
    }

    /// A hasher seeded from a previous digest — the primitive behind
    /// [`chain`].
    pub(crate) fn with_seed(seed: u64) -> Self {
        Fnv1a64(seed)
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64-bit digest of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
}

/// Extend a hash chain: absorb `digest` into the running `prev` link.
///
/// `chain(chain(FNV_OFFSET, a), b)` commits to the *ordered* sequence
/// `[a, b]`; flipping any bit of any link or reordering links changes
/// every downstream link, which is exactly the tamper-evidence the
/// repair gate checks.
pub fn chain(prev: u64, digest: u64) -> u64 {
    let mut h = Fnv1a64::with_seed(prev);
    h.update_u64(digest);
    h.finish()
}

/// A rotate-xor-multiply hasher that absorbs one machine word per
/// `write_*` call — what a derived `Hash` makes for a key of a few
/// integers and field-less enums — instead of SipHash's rounds over
/// their bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    /// An odd multiplier with no short bit pattern (2^64 / golden ratio).
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Self::MUL);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    /// A multiply only carries key bits upward, so the low half of the
    /// state is its weak half (the low byte of a `/24`'s hash would be
    /// constant); the table takes its bucket index from the low bits and
    /// its control byte from the top seven, so fold the high half down.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` hashed by [`WordHasher`], for the three maps the fold
/// probes once or twice per captured event — a router's prefix cells and
/// the latest-send cells of rule matching, and the snapshot tracker's
/// conversations — and for every FIB, which takes one probe per update.
///
/// Giving up `RandomState` gives up its protection against keys crafted
/// to collide, so this is sound only where the keys are not an
/// attacker's to choose. These are the typed router ids, protocol tags
/// and prefixes of events the codec has already decoded and validated,
/// exported by the operator's own routers (the paper's §4.1 capture
/// model) over sessions that opened with an in-range router id:
/// in-domain identifiers, a routing table's worth per router. Anything
/// that hashes bytes off the wire (the intern tables, session and
/// source maps) keeps the default hasher, and so does every map that is
/// not on the per-event path. Nothing observable may depend on this
/// map's iteration order: the fold never iterates these maps, and a
/// FIB's ordered readers sort what they collect.
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ipv4Prefix, RouterId};
    use std::collections::BTreeSet;
    use std::hash::{BuildHasher, Hash};

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut h = Fnv1a64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    /// How many distinct values `f` takes over `hashes`, against how
    /// many a uniform draw of as many values from `range` would.
    fn spread(hashes: &[u64], range: usize, f: impl Fn(u64) -> u64) -> (usize, f64) {
        let distinct: BTreeSet<u64> = hashes.iter().map(|h| f(*h)).collect();
        let uniform = range as f64 * (1.0 - (1.0 - 1.0 / range as f64).powi(hashes.len() as i32));
        (distinct.len(), uniform)
    }

    /// The table reads a hash twice: the low bits pick the bucket, the
    /// top seven are the control byte that spares a key comparison. Both
    /// must spread the fold's real key shapes as a uniform draw would
    /// (within 5 %), or the maps quietly turn into linear probing.
    fn assert_spreads(what: &str, keys: impl Iterator<Item = impl Hash>) {
        let hashes: Vec<u64> = keys
            .map(|k| BuildHasherDefault::<WordHasher>::default().hash_one(k))
            .collect();
        let (index, uniform) = spread(&hashes, 1 << 16, |h| h & 0xffff);
        assert!(
            index as f64 >= 0.95 * uniform,
            "{what}: {index} distinct bucket indices, a uniform draw has {uniform:.0}"
        );
        let (control, uniform) = spread(&hashes, 1 << 7, |h| h >> 57);
        assert!(
            control as f64 >= 0.95 * uniform,
            "{what}: {control} distinct control bytes, a uniform draw has {uniform:.0}"
        );
        // Within one bucket-index class the control byte must still
        // tell keys apart: it is no use if it repeats the index bits.
        let (both, uniform) = spread(&hashes, 1 << 15, |h| (h >> 57) << 8 | (h & 0xff));
        assert!(
            both as f64 >= 0.95 * uniform,
            "{what}: {both} distinct (control, low byte) pairs, a uniform draw has {uniform:.0}"
        );
    }

    /// `churn-sharded`'s keys: consecutive `/24`s, whose low eight key
    /// bits are all zero.
    #[test]
    fn word_hasher_spreads_consecutive_prefixes() {
        let base = u32::from(std::net::Ipv4Addr::new(10, 0, 0, 0));
        let prefixes = (0..1u32 << 16).map(|i| Ipv4Prefix::from_bits(base + (i << 8), 24));
        assert_spreads("65 536 consecutive /24s", prefixes);
    }

    /// The BGP workloads' keys, in the shape of `cpvr_core`'s `ConvKey`:
    /// (sender, addressee, protocol, prefix) over a 12-router mesh and a
    /// 256-prefix block.
    #[test]
    fn word_hasher_spreads_conversation_keys() {
        #[derive(Hash)]
        #[allow(dead_code)] // the other variants shape the derived `Hash`
        enum Proto {
            Bgp,
            Ospf,
            Rip,
            Eigrp,
        }
        let base = u32::from(std::net::Ipv4Addr::new(100, 64, 0, 0));
        let keys = (0..12 * 12 * 256u32).map(|i| {
            let (pair, p) = (i >> 8, i & 0xff);
            let prefix = Ipv4Prefix::from_bits(base + (p << 8), 24);
            (
                RouterId(pair / 12),
                RouterId(pair % 12),
                Proto::Bgp,
                Some(prefix),
            )
        });
        assert_spreads("12 x 12 x 256 conversation keys", keys);
    }

    #[test]
    fn word_hasher_takes_bytes_a_word_at_a_time() {
        let digest = |bytes: &[u8]| {
            let mut h = WordHasher::default();
            h.write(bytes);
            h.finish()
        };
        let mut by_word = WordHasher::default();
        by_word.write_u64(u64::from_le_bytes(*b"abcdefgh"));
        by_word.write_u8(b'i');
        assert_eq!(digest(b"abcdefghi"), by_word.finish());
        assert_ne!(digest(b"abcdefghi"), digest(b"abcdefghj"));
    }

    #[test]
    fn chain_is_order_sensitive() {
        let a = fnv1a64(b"a");
        let b = fnv1a64(b"b");
        let ab = chain(chain(FNV_OFFSET, a), b);
        let ba = chain(chain(FNV_OFFSET, b), a);
        assert_ne!(ab, ba);
        // Flipping one bit of a link changes the head of the chain.
        assert_ne!(chain(chain(FNV_OFFSET, a ^ 1), b), ab);
    }
}
