//! Binary fields: LEB128 varints, one bounds-checked [`Reader`], and
//! the few writers every binary body needs. Every binary layout in the
//! workspace — event bodies, intern definitions, repair proofs and
//! journal records, control frames, trace trailers, WAL records — is
//! read through a [`Reader`], so bounds checks, presence tags, length
//! prefixes and the trailing-byte rule exist once, with one error type.
//!
//! A varint stores 7 value bits per byte, the high bit marking
//! continuation: small integers (ids, sequence numbers, time deltas)
//! cost one byte, a full `u64` at most ten. Encoding is canonical, and
//! decoding rejects non-terminated or overlong sequences rather than
//! wrapping silently.

use std::fmt;

/// Why a binary field failed to read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinError {
    /// The input ended before the field, or a varint did not terminate
    /// or does not fit its type.
    Truncated,
    /// This many bytes were left after the last field.
    Trailing(usize),
    /// A tag byte was out of range for the named field.
    BadTag(&'static str, u8),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Truncated => write!(f, "truncated binary body"),
            BinError::Trailing(n) => write!(f, "{n} trailing bytes after binary body"),
            BinError::BadTag(what, b) => write!(f, "bad {what} tag {b}"),
        }
    }
}

impl std::error::Error for BinError {}

/// Appends the LEB128 encoding of `v` to `out`.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, v: impl Into<u64>) {
    let mut v = v.into();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` as 8 little-endian bytes.
#[inline]
pub fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a varint length, then `bytes` ([`Reader::len_prefixed`]).
#[inline]
pub fn put_len_prefixed(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A bounds-checked cursor over one binary body: every read returns its
/// field and advances, or fails without panicking.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes, borrowed from the input.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if n > self.remaining() {
            return Err(BinError::Truncated);
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, BinError> {
        let b = *self.buf.get(self.pos).ok_or(BinError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// One LEB128 `u64`.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, BinError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7f);
            // The tenth byte may only contribute the single remaining bit.
            if shift == 63 && low > 1 {
                return Err(BinError::Truncated);
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(BinError::Truncated);
            }
        }
    }

    /// One LEB128 `u32`; a larger value is an error.
    #[inline]
    pub fn varint_u32(&mut self) -> Result<u32, BinError> {
        u32::try_from(self.varint()?).map_err(|_| BinError::Truncated)
    }

    /// 8 little-endian bytes.
    #[inline]
    pub fn u64_le(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// 4 little-endian bytes.
    #[inline]
    pub fn u32_le(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// A varint length and that many bytes ([`put_len_prefixed`]).
    #[inline]
    pub fn len_prefixed(&mut self) -> Result<&'a [u8], BinError> {
        let n = usize::try_from(self.varint()?).map_err(|_| BinError::Truncated)?;
        self.take(n)
    }

    /// A 0/1 presence tag; any other byte is a bad `what` tag.
    #[inline]
    pub fn flag(&mut self, what: &'static str) -> Result<bool, BinError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(BinError::BadTag(what, b)),
        }
    }

    /// A varint element count, refused if larger than the bytes left (every
    /// element takes at least one), so damage cannot drive an allocation.
    #[inline]
    pub fn count(&mut self) -> Result<usize, BinError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(BinError::Truncated);
        }
        Ok(n as usize)
    }

    /// Ends the body: an error if any bytes are left over.
    #[inline]
    pub fn finish(self) -> Result<(), BinError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(BinError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_u64(buf: &[u8]) -> Result<u64, BinError> {
        Reader::new(buf).varint()
    }

    #[test]
    fn roundtrips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            // A `u64` varint is at most ⌈64 / 7⌉ bytes.
            assert!(buf.len() <= 10);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint(), Ok(v), "value {v}");
            assert_eq!(
                r.finish(),
                Ok(()),
                "value {v} must consume exactly its bytes"
            );
        }
    }

    #[test]
    fn small_values_cost_one_byte() {
        for v in 0u64..128 {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert_eq!(read_u64(&buf[..cut]), Err(BinError::Truncated));
        }
    }

    #[test]
    fn overlong_and_overflowing_sequences_are_rejected() {
        // Eleven continuation bytes: longer than any valid u64.
        let buf = [0x80u8; 11];
        assert_eq!(read_u64(&buf), Err(BinError::Truncated));
        // Ten bytes whose tenth contributes more than the last bit.
        let buf = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_eq!(read_u64(&buf), Err(BinError::Truncated));
        // u32 read rejects values beyond u32.
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::from(u32::MAX) + 1);
        assert_eq!(Reader::new(&buf).varint_u32(), Err(BinError::Truncated));
    }

    #[test]
    fn sequential_reads_advance_the_cursor() {
        let mut buf = Vec::new();
        for v in [5u64, 300, 1_000_000] {
            put_varint(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        assert_eq!(r.varint(), Ok(5));
        assert_eq!(r.varint(), Ok(300));
        assert_eq!(r.varint(), Ok(1_000_000));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn count_refuses_more_elements_than_bytes_left() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 3u64);
        buf.extend_from_slice(&[7, 8, 9]);
        assert_eq!(Reader::new(&buf).count(), Ok(3));
        assert_eq!(Reader::new(&buf[..3]).count(), Err(BinError::Truncated));
        let mut huge = Vec::new();
        put_varint(&mut huge, u64::MAX);
        assert_eq!(Reader::new(&huge).count(), Err(BinError::Truncated));
    }

    #[test]
    fn finish_reports_the_trailing_count() {
        let buf = [1u8, 2, 3, 4, 5];
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.finish(), Err(BinError::Trailing(4)));
        let mut r = Reader::new(&buf);
        r.take(5).unwrap();
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn fixed_fields_flags_and_length_prefixes() {
        let mut buf = Vec::new();
        put_u64_le(&mut buf, 0x0102_0304_0506_0708);
        buf.extend_from_slice(&9u32.to_le_bytes());
        put_len_prefixed(&mut buf, b"abc");
        buf.extend_from_slice(&[1, 0, 2]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u64_le(), Ok(0x0102_0304_0506_0708));
        assert_eq!(r.u32_le(), Ok(9));
        assert_eq!(r.len_prefixed(), Ok(&b"abc"[..]));
        assert_eq!(r.flag("a"), Ok(true));
        assert_eq!(r.flag("b"), Ok(false));
        assert_eq!(r.flag("c"), Err(BinError::BadTag("c", 2)));
        assert_eq!(r.finish(), Ok(()));
        // A length prefix the body cannot back, or one past usize, is
        // truncation, never an out-of-bounds slice.
        let mut bad = Vec::new();
        put_varint(&mut bad, 4u64);
        bad.extend_from_slice(b"abc");
        assert_eq!(Reader::new(&bad).len_prefixed(), Err(BinError::Truncated));
        let mut bad = Vec::new();
        put_varint(&mut bad, u64::MAX);
        assert_eq!(Reader::new(&bad).len_prefixed(), Err(BinError::Truncated));
        assert_eq!(Reader::new(&buf[..7]).u64_le(), Err(BinError::Truncated));
    }
}
