//! Interning of wire symbols for the binary codec.
//!
//! Codec v3 replaces repeated byte strings — descriptive event text and
//! 5-byte prefix encodings — with dense `u32` symbols. The encoder side
//! ([`InternTable::intern`]) assigns symbols first-come-first-served and
//! reports when a symbol is fresh so the caller can emit an explicit
//! definition frame before the first use. The decoder side
//! (`InternTable::define` / [`InternTable::resolve`]) replays those
//! definitions; because definitions always precede use on the wire *and*
//! in the WAL journal, replaying a journal in order rebuilds exactly the
//! table the live collector had.
//!
//! Symbols are scoped per source router and per *space* (strings vs
//! prefixes), so two routers, or a prefix and a description, can never
//! collide. A reconnecting client restarts its numbering from zero and
//! re-sends definitions; `InternTable::define` therefore accepts
//! redefinition of an existing symbol.

use std::collections::HashMap;

/// Symbol space for interned UTF-8 strings (event descriptions).
pub const SPACE_STRING: u8 = 0;
/// Symbol space for interned prefixes (5 bytes: length + bits LE).
pub const SPACE_PREFIX: u8 = 1;

/// One symbol space: a bidirectional map between byte strings and dense
/// `u32` symbols, assigned in first-use order.
#[derive(Debug, Default, Clone)]
pub struct InternTable {
    syms: Vec<Vec<u8>>,
    map: HashMap<Vec<u8>, u32>,
}

impl InternTable {
    /// Encoder side: returns the symbol for `bytes`, assigning the next
    /// free one on first use. The second component is `true` when the
    /// symbol is fresh and a definition must be emitted before use.
    pub fn intern(&mut self, bytes: &[u8]) -> (u32, bool) {
        if let Some(&sym) = self.map.get(bytes) {
            return (sym, false);
        }
        let sym = self.syms.len() as u32;
        self.syms.push(bytes.to_vec());
        self.map.insert(bytes.to_vec(), sym);
        (sym, true)
    }

    /// Decoder side: records that `sym` means `bytes`. Accepts either
    /// the next sequential symbol or a redefinition of an existing one
    /// (a reconnecting encoder restarts numbering from zero). Returns
    /// `false` — and changes nothing — for a symbol from the future,
    /// which indicates a damaged or misordered stream.
    pub(crate) fn define(&mut self, sym: u32, bytes: &[u8]) -> bool {
        let i = sym as usize;
        if i < self.syms.len() {
            if self.syms[i] != bytes {
                self.map.remove(&self.syms[i]);
                self.syms[i] = bytes.to_vec();
                self.map.insert(bytes.to_vec(), sym);
            }
            true
        } else if i == self.syms.len() {
            self.syms.push(bytes.to_vec());
            self.map.insert(bytes.to_vec(), sym);
            true
        } else {
            false
        }
    }

    /// Looks a symbol up; `None` if it was never defined.
    pub fn resolve(&self, sym: u32) -> Option<&[u8]> {
        self.syms.get(sym as usize).map(Vec::as_slice)
    }
}

/// The two symbol spaces of one source router.
#[derive(Debug, Default, Clone)]
pub struct Interns {
    /// UTF-8 string symbols ([`SPACE_STRING`]).
    pub(crate) strings: InternTable,
    /// Prefix symbols ([`SPACE_PREFIX`]).
    pub(crate) prefixes: InternTable,
}

impl Interns {
    /// Empty tables for both spaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// The table for a wire space tag, or `None` for an unknown tag.
    pub fn space(&self, space: u8) -> Option<&InternTable> {
        match space {
            SPACE_STRING => Some(&self.strings),
            SPACE_PREFIX => Some(&self.prefixes),
            _ => None,
        }
    }

    /// Mutable variant of [`Interns::space`].
    pub fn space_mut(&mut self, space: u8) -> Option<&mut InternTable> {
        match space {
            SPACE_STRING => Some(&mut self.strings),
            SPACE_PREFIX => Some(&mut self.prefixes),
            _ => None,
        }
    }
}

/// Decoder-side intern state for a whole fleet, keyed by source router
/// index. Both the live `Decoder` and WAL replay thread their symbol
/// definitions through one of these.
#[derive(Debug, Default, Clone)]
pub struct InternStore {
    per_router: HashMap<u32, Interns>,
}

impl InternStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one definition `(router, space, sym) := bytes`. Returns
    /// `false` for an unknown space or an out-of-order symbol.
    pub fn apply(&mut self, router: u32, space: u8, sym: u32, bytes: &[u8]) -> bool {
        match self.per_router.entry(router).or_default().space_mut(space) {
            Some(table) => table.define(sym, bytes),
            None => false,
        }
    }

    /// The tables of one router, if any definition has been seen.
    pub fn of(&self, router: u32) -> Option<&Interns> {
        self.per_router.get(&router)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_symbols_once() {
        let mut t = InternTable::default();
        assert_eq!(t.intern(b"alpha"), (0, true));
        assert_eq!(t.intern(b"beta"), (1, true));
        assert_eq!(t.intern(b"alpha"), (0, false));
        assert_eq!(t.syms.len(), 2);
        assert_eq!(t.resolve(0), Some(&b"alpha"[..]));
        assert_eq!(t.resolve(1), Some(&b"beta"[..]));
        assert_eq!(t.resolve(2), None);
    }

    #[test]
    fn define_replays_in_order_and_rejects_gaps() {
        let mut t = InternTable::default();
        assert!(t.define(0, b"alpha"));
        assert!(t.define(1, b"beta"));
        assert!(!t.define(5, b"gap"), "symbol from the future");
        assert_eq!(t.syms.len(), 2);
        assert_eq!(t.resolve(1), Some(&b"beta"[..]));
    }

    #[test]
    fn redefinition_rebinds_a_symbol() {
        // A reconnecting encoder restarts numbering: sym 0 now means a
        // different string, and the old binding must be gone.
        let mut t = InternTable::default();
        assert!(t.define(0, b"old"));
        assert!(t.define(0, b"new"));
        assert_eq!(t.resolve(0), Some(&b"new"[..]));
        // Encoder-side view stays coherent too: interning the old text
        // assigns a fresh symbol instead of resurrecting 0.
        assert_eq!(t.intern(b"old"), (1, true));
        assert_eq!(t.intern(b"new"), (0, false));
        // Idempotent redefinition is a no-op.
        assert!(t.define(0, b"new"));
        assert_eq!(t.syms.len(), 2);
    }

    #[test]
    fn store_keys_by_router_and_space() {
        let mut s = InternStore::new();
        assert!(s.apply(1, SPACE_STRING, 0, b"desc"));
        assert!(s.apply(1, SPACE_PREFIX, 0, &[24, 10, 0, 0, 0]));
        assert!(s.apply(2, SPACE_STRING, 0, b"other"));
        assert!(!s.apply(2, 7, 0, b"bad space"));
        assert!(!s.apply(2, SPACE_STRING, 3, b"gap"));
        let r1 = s.of(1).unwrap();
        assert_eq!(r1.strings.resolve(0), Some(&b"desc"[..]));
        assert_eq!(r1.prefixes.resolve(0), Some(&[24u8, 10, 0, 0, 0][..]));
        assert_eq!(s.of(2).unwrap().strings.resolve(0), Some(&b"other"[..]));
        assert!(s.of(3).is_none());
    }
}
