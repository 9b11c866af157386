//! Causal trace contexts (§4.3/§6 debugging primitive).
//!
//! A [`TraceCtx`] names one causal story — a sampled event's flight
//! from capture tap to snapshot verdict, a repair's lifecycle from
//! proposal to peer verification, or one federated round — so that
//! records emitted by *different processes* can be stitched back into
//! a single timeline afterwards. The context is deliberately tiny
//! (12 bytes on the wire: `trace_id` LE64 + `parent` LE32) because it
//! rides as an optional trailer on hot-path event frames.
//!
//! Contexts are minted **deterministically** from content identities
//! ([`TraceCtx::for_repair`] hashes the repair id, which is itself a
//! content digest), so every federation member derives the *same*
//! trace id for the same repair without any coordination — that is
//! what lets `cpvr-trace` stitch dumps from three collectors into one
//! connected timeline. Flight and round mints fold in the session or
//! horizon for the same reason.
//!
//! `parent` is a hop counter: the stage code of the causally preceding
//! record (0 at the mint). It orders records *within* one trace when
//! monotonic clocks from different hosts cannot be compared directly.

use crate::hash::Fnv1a64;
use crate::time::SimTime;

/// Wire size of an encoded [`TraceCtx`] trailer.
pub const TRACE_CTX_WIRE_LEN: usize = 12;

/// A causal trace context: which story a record belongs to
/// (`trace_id`) and which hop of that story emitted it (`parent`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceCtx {
    /// Deterministic identity of the causal story (see the module doc
    /// for how mints derive it from content).
    pub trace_id: u64,
    /// Stage code of the causally preceding record; 0 at the mint.
    pub parent: u32,
}

/// Domain-separation tags for the deterministic mints: two different
/// kinds of story over the same content must not collide.
const DOMAIN_FLIGHT: &[u8] = b"cpvr-trace/flight";
const DOMAIN_REPAIR: &[u8] = b"cpvr-trace/repair";
const DOMAIN_ROUND: &[u8] = b"cpvr-trace/round";

fn mint(domain: &[u8], a: u64, b: u64) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(domain);
    h.update_u64(a);
    h.update_u64(b);
    h.finish()
}

impl TraceCtx {
    /// The context for one sampled event flight, minted at the sink
    /// from its session and the event's sequence number.
    pub fn for_flight(session: u64, seq: u64) -> TraceCtx {
        TraceCtx {
            trace_id: mint(DOMAIN_FLIGHT, session, seq),
            parent: 0,
        }
    }

    /// The context for one repair lifecycle. `repair_id` is a content
    /// digest, so every federation member — owner and peers — derives
    /// the identical trace id independently.
    pub fn for_repair(repair_id: u64) -> TraceCtx {
        TraceCtx {
            trace_id: mint(DOMAIN_REPAIR, repair_id, 0),
            parent: 0,
        }
    }

    /// The context for one federated round at fold horizon `t` —
    /// identical on every member, because horizons are shared.
    pub fn for_round(t: SimTime) -> TraceCtx {
        TraceCtx {
            trace_id: mint(DOMAIN_ROUND, t.as_nanos(), 0),
            parent: 0,
        }
    }

    /// The same trace, one causal hop later: a record emitted *because
    /// of* a stage-`parent` record carries that stage as its parent.
    pub fn child(self, parent: u32) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            parent,
        }
    }

    /// Appends the 12-byte wire form (`trace_id` LE64 + `parent` LE32).
    pub fn encode_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.parent.to_le_bytes());
    }

    /// The 12-byte wire form as an array (for fixed-size trailers).
    pub fn to_wire(&self) -> [u8; TRACE_CTX_WIRE_LEN] {
        let mut b = [0u8; TRACE_CTX_WIRE_LEN];
        b[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        b[8..].copy_from_slice(&self.parent.to_le_bytes());
        b
    }

    /// Decodes a trailer that must be exactly
    /// [`TRACE_CTX_WIRE_LEN`] bytes; `None` on any other length.
    pub fn decode(buf: &[u8]) -> Option<TraceCtx> {
        if buf.len() != TRACE_CTX_WIRE_LEN {
            return None;
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(&buf[..8]);
        let mut parent = [0u8; 4];
        parent.copy_from_slice(&buf[8..]);
        Some(TraceCtx {
            trace_id: u64::from_le_bytes(id),
            parent: u32::from_le_bytes(parent),
        })
    }
}

crate::impl_json_struct!(TraceCtx { trace_id, parent });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_round_trip() {
        let ctx = TraceCtx {
            trace_id: 0x0123_4567_89ab_cdef,
            parent: 42,
        };
        let mut buf = Vec::new();
        ctx.encode_to(&mut buf);
        assert_eq!(buf.len(), TRACE_CTX_WIRE_LEN);
        assert_eq!(buf, ctx.to_wire());
        assert_eq!(TraceCtx::decode(&buf), Some(ctx));
        assert_eq!(TraceCtx::decode(&buf[..11]), None);
        assert_eq!(TraceCtx::decode(&[0u8; 13]), None);
    }

    #[test]
    fn mints_are_deterministic_and_domain_separated() {
        assert_eq!(TraceCtx::for_repair(7), TraceCtx::for_repair(7));
        assert_ne!(
            TraceCtx::for_repair(7).trace_id,
            TraceCtx::for_flight(7, 0).trace_id
        );
        assert_ne!(
            TraceCtx::for_flight(1, 2).trace_id,
            TraceCtx::for_flight(2, 1).trace_id
        );
        assert_ne!(
            TraceCtx::for_round(SimTime::from_nanos(5)).trace_id,
            TraceCtx::for_repair(5).trace_id
        );
    }

    #[test]
    fn child_keeps_the_trace_id() {
        let ctx = TraceCtx::for_repair(9);
        let hop = ctx.child(3);
        assert_eq!(hop.trace_id, ctx.trace_id);
        assert_eq!(hop.parent, 3);
    }

    #[test]
    fn json_round_trip() {
        let ctx = TraceCtx::for_flight(11, 22).child(5);
        let text = crate::json::to_string_compact(&ctx);
        let back: TraceCtx = crate::json::from_str(&text).unwrap();
        assert_eq!(back, ctx);
    }
}
