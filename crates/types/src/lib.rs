//! Fundamental network types for the CPVR workspace.
//!
//! This crate provides the addressing substrate everything else builds on:
//!
//! * [`Ipv4Prefix`] — an IPv4 prefix with the host bits masked off,
//!   supporting containment and overlap tests ([`prefix`]).
//! * [`PrefixTrie`] — an ordered map keyed by prefixes with
//!   longest-prefix-match lookup, the core data structure behind FIBs,
//!   RIBs, and equivalence-class computation ([`trie`]).
//! * Identifier newtypes ([`RouterId`], [`AsNum`], [`IfaceId`]) that keep
//!   router numbers, AS numbers, and interface indices from being mixed up
//!   ([`ids`]).
//! * [`SimTime`] — the simulation clock: nanosecond-resolution, totally
//!   ordered, and printable in the units the paper's Fig. 5 uses ([`time`]).
//! * CRC-32 (IEEE) checksums ([`crc32`]) — the integrity check shared by
//!   the collector's wire codec and its write-ahead log.
//! * LEB128 varints ([`varint`]) and intern tables ([`intern`]) — the
//!   building blocks of the collector's binary wire codec (v3).
//!
//! The crate is deliberately dependency-free (per the workspace design
//! rules) and fully deterministic: no hashing with random state leaks into
//! iteration orders that other crates rely on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod hash;
pub mod ids;
pub mod intern;
pub mod json;
pub mod prefix;
pub mod time;
pub mod trace;
pub mod trie;
pub mod varint;

pub use hash::{fnv1a64, Fnv1a64};
pub use ids::{AsNum, IfaceId, RouterId};
pub use intern::{InternStore, InternTable, Interns};
pub use prefix::{Ipv4Prefix, PrefixParseError};
pub use time::SimTime;
pub use trace::TraceCtx;
pub use trie::PrefixTrie;
