//! IPv4 prefixes.
//!
//! A prefix is the unit of routing state throughout the workspace: route
//! advertisements carry one, RIB and FIB entries are keyed by one, and the
//! paper's happens-before inference filters candidate I/O pairs by shared
//! prefix (§4.2 "Prefixes").

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 prefix: a network address plus a mask length in `0..=32`.
///
/// The host bits are always stored as zero, so two `Ipv4Prefix` values are
/// equal iff they denote the same set of addresses. Ordering is
/// lexicographic on `(network, length)`, which places a prefix immediately
/// before everything it covers — a binary trie's depth-first order, which
/// is what [`PrefixTrie`](crate::PrefixTrie) is built on.
///
/// ```
/// use cpvr_types::Ipv4Prefix;
///
/// let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
/// assert!(p.contains_addr("10.1.2.3".parse().unwrap()));
/// assert!(p.covers(&"10.128.0.0/9".parse().unwrap()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Prefix {
    bits: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// The default route, `0.0.0.0/0`.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { bits: 0, len: 0 };

    /// Builds a prefix from a network address and mask length, masking off
    /// any host bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        let bits = u32::from(addr) & mask(len);
        Ipv4Prefix { bits, len }
    }

    /// Builds a prefix from raw network bits and a mask length, masking off
    /// any host bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn from_bits(bits: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} out of range");
        Ipv4Prefix {
            bits: bits & mask(len),
            len,
        }
    }

    /// A /32 host prefix for a single address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Prefix {
            bits: u32::from(addr),
            len: 32,
        }
    }

    /// The network address.
    pub(crate) fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// The network address as raw bits (host bits are zero).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The mask length.
    #[allow(clippy::len_without_is_empty)] // a /0 prefix is not "empty"
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The first address covered by the prefix (the network address).
    pub fn first_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// The last address covered by the prefix (the broadcast address for
    /// conventional subnets).
    pub fn last_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits | !mask(self.len))
    }

    /// Does this prefix contain the given address?
    pub fn contains_addr(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & mask(self.len)) == self.bits
    }

    /// Does this prefix cover `other` entirely (i.e. is it equal or less
    /// specific)?
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && (other.bits & mask(self.len)) == self.bits
    }

    /// Do the two prefixes share any address?
    ///
    /// Two prefixes overlap iff one covers the other.
    pub fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The immediate parent (one bit shorter), or `None` for the default
    /// route.
    pub fn parent(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv4Prefix::from_bits(self.bits, self.len - 1))
        }
    }

    /// The two immediate children (one bit longer), or `None` for a /32.
    pub fn children(&self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len == 32 {
            return None;
        }
        let left = Ipv4Prefix {
            bits: self.bits,
            len: self.len + 1,
        };
        let right = Ipv4Prefix {
            bits: self.bits | (1u32 << (31 - self.len)),
            len: self.len + 1,
        };
        Some((left, right))
    }
}

/// Builds a netmask with `len` leading one-bits.
fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

/// Error returned when parsing an [`Ipv4Prefix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixParseError {
    /// The string had no `/` separator.
    MissingSlash,
    /// The address part was not a valid dotted quad.
    BadAddress,
    /// The length part was not an integer in `0..=32`.
    BadLength,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixParseError::MissingSlash => write!(f, "missing '/' in prefix"),
            PrefixParseError::BadAddress => write!(f, "invalid IPv4 address in prefix"),
            PrefixParseError::BadLength => write!(f, "invalid prefix length (want 0..=32)"),
        }
    }
}

impl std::error::Error for PrefixParseError {}

impl FromStr for Ipv4Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(PrefixParseError::MissingSlash)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| PrefixParseError::BadAddress)?;
        let len: u8 = len.parse().map_err(|_| PrefixParseError::BadLength)?;
        if len > 32 {
            return Err(PrefixParseError::BadLength);
        }
        Ok(Ipv4Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn host_bits_are_masked() {
        assert_eq!(p("10.1.2.3/8"), p("10.0.0.0/8"));
        assert_eq!(p("10.1.2.3/8").network(), Ipv4Addr::new(10, 0, 0, 0));
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            "10.0.0.0".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::MissingSlash)
        );
        assert_eq!(
            "10.0.0/8".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::BadAddress)
        );
        assert_eq!(
            "10.0.0.0/33".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::BadLength)
        );
        assert_eq!(
            "10.0.0.0/x".parse::<Ipv4Prefix>(),
            Err(PrefixParseError::BadLength)
        );
    }

    #[test]
    fn contains_addr_respects_mask() {
        let net = p("172.16.0.0/12");
        assert!(net.contains_addr("172.16.0.1".parse().unwrap()));
        assert!(net.contains_addr("172.31.255.255".parse().unwrap()));
        assert!(!net.contains_addr("172.32.0.0".parse().unwrap()));
    }

    #[test]
    fn default_contains_everything() {
        assert!(Ipv4Prefix::DEFAULT.contains_addr("255.255.255.255".parse().unwrap()));
        assert!(Ipv4Prefix::DEFAULT.covers(&p("1.2.3.4/32")));
        assert_eq!(Ipv4Prefix::DEFAULT.len(), 0);
    }

    #[test]
    fn covers_and_overlaps() {
        assert!(p("10.0.0.0/8").covers(&p("10.5.0.0/16")));
        assert!(!p("10.5.0.0/16").covers(&p("10.0.0.0/8")));
        assert!(p("10.0.0.0/8").overlaps(&p("10.5.0.0/16")));
        assert!(p("10.5.0.0/16").overlaps(&p("10.0.0.0/8")));
        assert!(!p("10.0.0.0/8").overlaps(&p("11.0.0.0/8")));
        assert!(p("10.0.0.0/8").covers(&p("10.0.0.0/8")));
    }

    #[test]
    fn parent_child_navigation() {
        let net = p("10.0.0.0/8");
        let (l, r) = net.children().unwrap();
        assert_eq!(l, p("10.0.0.0/9"));
        assert_eq!(r, p("10.128.0.0/9"));
        assert_eq!(l.parent().unwrap(), net);
        assert_eq!(r.parent().unwrap(), net);
        assert!(Ipv4Prefix::DEFAULT.parent().is_none());
        assert!(p("1.2.3.4/32").children().is_none());
    }

    #[test]
    fn first_last_addr() {
        let net = p("192.168.1.0/24");
        assert_eq!(net.first_addr(), Ipv4Addr::new(192, 168, 1, 0));
        assert_eq!(net.last_addr(), Ipv4Addr::new(192, 168, 1, 255));
        let host = p("5.6.7.8/32");
        assert_eq!(host.first_addr(), host.last_addr());
    }

    #[test]
    fn ordering_groups_children_after_parent() {
        let mut v = vec![p("10.128.0.0/9"), p("10.0.0.0/8"), p("10.0.0.0/9")];
        v.sort();
        assert_eq!(v, vec![p("10.0.0.0/8"), p("10.0.0.0/9"), p("10.128.0.0/9")]);
    }
}
