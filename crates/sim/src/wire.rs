//! Binary event bodies for the collector's codec v3.
//!
//! Codec v2 ships every [`IoEvent`] as compact JSON: the router renders
//! a `String`, the collector parses it back through a `Value` tree, and
//! every router name, prefix, and description lands in its own heap
//! allocation. This module is the v3 alternative: a dense binary layout
//! read in a single left-to-right pass through one
//! [`cpvr_types::bin::Reader`], with varint integers and interned symbols
//! ([`cpvr_types::intern`]) for the two repeated byte-string shapes —
//! event descriptions and 5-byte prefix encodings.
//!
//! Layout of an event body (after the frame's varint sequence number):
//!
//! ```text
//! varint id · varint router · varint time · flags u8
//! [varint arrived_at if flags bit0] · kind tag u8 · fields…
//! [12-byte TraceCtx trailer if flags bit1]
//! ```
//!
//! Flags bit1 carries an optional causal-trace trailer
//! ([`cpvr_types::TraceCtx`]: `trace_id` LE64 + `parent` LE32) minted
//! at the sink for sampled event flights. Untraced events encode the
//! flags byte as plain 0/1 — byte-identical to the pre-trailer
//! layout, so old WALs and un-upgraded peers decode unchanged.
//!
//! Kind tags follow [`IoKind`]'s declaration order (0 = `ConfigChange`
//! … 10 = `SendWithdraw`). Prefixes appear as interned symbols whose
//! definition bytes are `[len, bits₀, bits₁, bits₂, bits₃]` (bits
//! little-endian); descriptions are interned UTF-8. The rare
//! `cpvr_bgp::ConfigChange` payloads ride as length-prefixed compact
//! JSON — they occur once per scenario mutation, so correctness beats
//! compactness there.
//!
//! The repair proof (`cpvr_core::proof`) shares two layouts, encoded and
//! decoded only here: [`FibAction`] ([`encode_action`]/[`decode_action`])
//! and the JSON blob ([`encode_json_blob`]/[`decode_json_blob`]).
//!
//! Interning makes encode stateful: the first use of a symbol emits an
//! [`InternDef`] that the caller must frame *before* the event that
//! uses it. Decode is strict — every byte must be consumed, every tag
//! known, every symbol previously defined — so damaged frames are
//! quarantined rather than misread.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use cpvr_bgp::{BgpRoute, NextHop, Origin, PeerRef};
use cpvr_dataplane::FibAction;
use cpvr_topo::{ExtPeerId, LinkId};
use cpvr_types::bin::{self, BinError, Reader};
use cpvr_types::intern::{InternStore, Interns, SPACE_PREFIX, SPACE_STRING};
use cpvr_types::json::{from_str, to_string_compact, FromJson, ToJson};
use cpvr_types::trace::TRACE_CTX_WIRE_LEN;
use cpvr_types::{AsNum, Ipv4Prefix, RouterId, SimTime, TraceCtx};

use crate::io::{EventId, IoEvent, IoKind, Proto};

/// Why a binary event body failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the field (or a varint terminator).
    Truncated,
    /// An enum tag byte was out of range for the named field.
    BadTag(&'static str, u8),
    /// An interned symbol was used before any definition bound it.
    UnknownSymbol {
        /// The symbol space ([`SPACE_STRING`] / [`SPACE_PREFIX`]).
        space: u8,
        /// The unresolved symbol.
        symbol: u32,
    },
    /// A symbol resolved to bytes of the wrong shape (bad UTF-8 for a
    /// string, wrong length or length > 32 for a prefix).
    BadSymbolBytes(&'static str),
    /// An embedded JSON blob failed to parse.
    BadJson(&'static str),
    /// Bytes were left over after the last field — the frame length
    /// and the body disagree.
    Trailing(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated event body"),
            WireError::BadTag(what, b) => write!(f, "bad {what} tag {b}"),
            WireError::UnknownSymbol { space, symbol } => {
                write!(f, "undefined intern symbol {symbol} in space {space}")
            }
            WireError::BadSymbolBytes(what) => write!(f, "malformed interned {what}"),
            WireError::BadJson(what) => write!(f, "bad embedded json for {what}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after event body"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<BinError> for WireError {
    fn from(e: BinError) -> Self {
        match e {
            BinError::Truncated => WireError::Truncated,
            BinError::Trailing(n) => WireError::Trailing(n),
            BinError::BadTag(what, b) => WireError::BadTag(what, b),
        }
    }
}

/// A fresh symbol definition produced during encode. The transport must
/// deliver it (as an `Intern` frame) before the event that uses it, and
/// journal it to the WAL in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternDef {
    /// Source router the symbol is scoped to.
    pub router: u32,
    /// Symbol space ([`SPACE_STRING`] / [`SPACE_PREFIX`]).
    pub space: u8,
    /// The symbol being defined.
    pub symbol: u32,
    /// Its meaning.
    pub bytes: Vec<u8>,
}

/// Renders an intern definition as an `Intern` frame payload:
/// `varint router · space u8 · varint symbol · varint len · bytes`.
pub fn encode_intern_def(def: &InternDef, out: &mut Vec<u8>) {
    bin::put_varint(out, def.router);
    out.push(def.space);
    bin::put_varint(out, def.symbol);
    bin::put_len_prefixed(out, &def.bytes);
}

/// Parses an `Intern` frame payload. Strict: consumes the whole buffer.
pub fn decode_intern_def(buf: &[u8]) -> Result<InternDef, WireError> {
    let mut r = Reader::new(buf);
    let router = r.varint_u32()?;
    let space = r.u8()?;
    if space != SPACE_STRING && space != SPACE_PREFIX {
        return Err(WireError::BadTag("intern space", space));
    }
    let symbol = r.varint_u32()?;
    let bytes = r.len_prefixed()?.to_vec();
    r.finish()?;
    Ok(InternDef {
        router,
        space,
        symbol,
        bytes,
    })
}

/// Appends a [`FibAction`]: a tag byte (0 forward, 1 exit, 2 local,
/// 3 drop) and, for the first two, the link or peer id as a varint.
pub fn encode_action(out: &mut Vec<u8>, a: &FibAction) {
    match a {
        FibAction::Forward(l) => {
            out.push(0);
            bin::put_varint(out, l.0);
        }
        FibAction::Exit(x) => {
            out.push(1);
            bin::put_varint(out, x.0);
        }
        FibAction::Local => out.push(2),
        FibAction::Drop => out.push(3),
    }
}

/// Reads what [`encode_action`] writes.
pub fn decode_action(r: &mut Reader<'_>) -> Result<FibAction, BinError> {
    match r.u8()? {
        0 => Ok(FibAction::Forward(LinkId(r.varint_u32()?))),
        1 => Ok(FibAction::Exit(ExtPeerId(r.varint_u32()?))),
        2 => Ok(FibAction::Local),
        3 => Ok(FibAction::Drop),
        b => Err(BinError::BadTag("fib action", b)),
    }
}

/// Appends `v` as a length-prefixed compact-JSON blob — the layout for
/// structured payloads (a config change, a repair plan) inside a binary
/// body.
pub fn encode_json_blob<T: ToJson + ?Sized>(out: &mut Vec<u8>, v: &T) {
    bin::put_len_prefixed(out, to_string_compact(v).as_bytes());
}

/// Reads what [`encode_json_blob`] writes; bad UTF-8 or JSON is
/// [`WireError::BadJson`] for `what`.
pub fn decode_json_blob<T: FromJson>(
    r: &mut Reader<'_>,
    what: &'static str,
) -> Result<T, WireError> {
    let text = std::str::from_utf8(r.len_prefixed()?).map_err(|_| WireError::BadJson(what))?;
    from_str(text).map_err(|_| WireError::BadJson(what))
}

/// The 5-byte wire shape of a prefix: `[len, bits LE…]`.
fn prefix_bytes(p: Ipv4Prefix) -> [u8; 5] {
    let bits = p.bits().to_le_bytes();
    [p.len(), bits[0], bits[1], bits[2], bits[3]]
}

fn prefix_from_bytes(bytes: &[u8]) -> Option<Ipv4Prefix> {
    let mut r = Reader::new(bytes);
    let (len, bits) = (r.u8().ok()?, r.u32_le().ok()?);
    r.finish().ok()?;
    (len <= 32).then(|| Ipv4Prefix::from_bits(bits, len))
}

/// Encoder state + output for one event body.
struct Enc<'a> {
    interns: &'a mut Interns,
    defs: &'a mut Vec<InternDef>,
    router: u32,
    out: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn byte(&mut self, b: u8) {
        self.out.push(b);
    }

    fn varint(&mut self, v: impl Into<u64>) {
        bin::put_varint(self.out, v);
    }

    /// A variant tag byte, then its id as a varint.
    fn tagged(&mut self, tag: u8, id: u32) {
        self.byte(tag);
        self.varint(id);
    }

    /// A presence byte (0 absent, 1 present), then `v` if present.
    fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Self, T)) {
        match v {
            None => self.byte(0),
            Some(v) => {
                self.byte(1);
                f(self, v);
            }
        }
    }

    /// The symbol for `bytes` in `space`, minting a definition on first
    /// use.
    fn sym(&mut self, space: u8, bytes: &[u8]) {
        let table = self.interns.space_mut(space).expect("a known space");
        let (symbol, fresh) = table.intern(bytes);
        if fresh {
            self.defs.push(InternDef {
                router: self.router,
                space,
                symbol,
                bytes: bytes.to_vec(),
            });
        }
        self.varint(symbol);
    }

    fn str_sym(&mut self, s: &str) {
        self.sym(SPACE_STRING, s.as_bytes());
    }

    fn pfx_sym(&mut self, p: Ipv4Prefix) {
        self.sym(SPACE_PREFIX, &prefix_bytes(p));
    }

    /// [`Proto`] and [`Origin`] tags are their declaration order.
    fn proto(&mut self, p: Proto) {
        self.byte(p as u8);
    }

    fn peer(&mut self, p: &PeerRef) {
        match p {
            PeerRef::Internal(r) => self.tagged(0, r.0),
            PeerRef::External(x) => self.tagged(1, x.0),
        }
    }

    fn route(&mut self, r: &BgpRoute) {
        self.pfx_sym(r.prefix);
        match r.next_hop {
            NextHop::External(x) => self.tagged(0, x.0),
            NextHop::Router(rt) => self.tagged(1, rt.0),
        }
        self.varint(r.local_pref);
        self.varint(r.as_path.len() as u64);
        for asn in &r.as_path {
            self.varint(asn.0);
        }
        self.byte(r.origin as u8);
        self.varint(r.med);
        // BTreeSet iteration is sorted: the encoding is deterministic.
        self.varint(r.communities.len() as u64);
        for c in &r.communities {
            self.varint(*c);
        }
        self.varint(r.originator.0);
    }
}

/// Appends `varint seq` + the binary body of `event` to `out`, with
/// an optional causal-trace trailer (flags bit1 + 12 bytes at the end
/// of the body).
///
/// `interns` is the encoder's per-router symbol state; fresh symbols
/// are appended to `defs` and must be framed (and journaled) before
/// this event's frame.
pub fn encode_event_traced(
    seq: u64,
    event: &IoEvent,
    trace: Option<TraceCtx>,
    interns: &mut Interns,
    defs: &mut Vec<InternDef>,
    out: &mut Vec<u8>,
) {
    bin::put_varint(out, seq);
    let mut e = Enc {
        interns,
        defs,
        router: event.router.0,
        out,
    };
    e.varint(event.id.0);
    e.varint(event.router.0);
    e.varint(event.time.0);
    let mut flags = 0u8;
    if event.arrived_at.is_some() {
        flags |= 1;
    }
    if trace.is_some() {
        flags |= 2;
    }
    e.byte(flags);
    if let Some(t) = event.arrived_at {
        e.varint(t.0);
    }
    match &event.kind {
        IoKind::ConfigChange {
            desc,
            change,
            inverse,
        } => {
            e.byte(0);
            e.str_sym(desc);
            e.opt(change.as_ref(), |e, c| encode_json_blob(e.out, c));
            e.opt(inverse.as_ref(), |e, c| encode_json_blob(e.out, c));
        }
        IoKind::SoftReconfig { desc } => {
            e.byte(1);
            e.str_sym(desc);
        }
        IoKind::LinkStatus {
            desc,
            up,
            link,
            peer,
        } => {
            e.byte(2);
            e.str_sym(desc);
            e.byte(u8::from(*up));
            e.opt(link.map(|l| l.0), Enc::varint);
            e.opt(peer.map(|p| p.0), Enc::varint);
        }
        IoKind::RecvAdvert {
            proto,
            prefix,
            from,
            route,
        } => {
            e.byte(3);
            e.proto(*proto);
            e.opt(*prefix, Enc::pfx_sym);
            e.opt(from.as_ref(), Enc::peer);
            e.opt(route.as_deref(), Enc::route);
        }
        IoKind::RecvWithdraw {
            proto,
            prefix,
            from,
        } => {
            e.byte(4);
            e.proto(*proto);
            e.opt(*prefix, Enc::pfx_sym);
            e.opt(from.as_ref(), Enc::peer);
        }
        IoKind::RibInstall {
            proto,
            prefix,
            route,
        } => {
            e.byte(5);
            e.proto(*proto);
            e.pfx_sym(*prefix);
            e.opt(route.as_deref(), Enc::route);
        }
        IoKind::RibRemove { proto, prefix } => {
            e.byte(6);
            e.proto(*proto);
            e.pfx_sym(*prefix);
        }
        IoKind::FibInstall { prefix, action } => {
            e.byte(7);
            e.pfx_sym(*prefix);
            encode_action(e.out, action);
        }
        IoKind::FibRemove { prefix } => {
            e.byte(8);
            e.pfx_sym(*prefix);
        }
        IoKind::SendAdvert {
            proto,
            prefix,
            to,
            route,
        } => {
            e.byte(9);
            e.proto(*proto);
            e.opt(*prefix, Enc::pfx_sym);
            e.opt(to.as_ref(), Enc::peer);
            e.opt(route.as_deref(), Enc::route);
        }
        IoKind::SendWithdraw { proto, prefix, to } => {
            e.byte(10);
            e.proto(*proto);
            e.opt(*prefix, Enc::pfx_sym);
            e.opt(to.as_ref(), Enc::peer);
        }
    }
    if let Some(ctx) = trace {
        ctx.encode_to(e.out);
    }
}

/// An event body's [`Reader`] plus the sending router's symbol tables.
struct Dec<'a> {
    r: Reader<'a>,
    interns: &'a Interns,
}

impl<'a> Dec<'a> {
    /// A presence flag for `what`, then the value if present.
    fn opt<T>(
        &mut self,
        what: &'static str,
        f: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        if self.r.flag(what)? {
            f(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// The bytes a symbol in `space` was defined as.
    fn sym(&mut self, space: u8) -> Result<&'a [u8], WireError> {
        let symbol = self.r.varint_u32()?;
        let table = self.interns.space(space);
        let bytes = table.and_then(|t| t.resolve(symbol));
        bytes.ok_or(WireError::UnknownSymbol { space, symbol })
    }

    fn desc(&mut self) -> Result<String, WireError> {
        std::str::from_utf8(self.sym(SPACE_STRING)?)
            .map(str::to_owned)
            .map_err(|_| WireError::BadSymbolBytes("string"))
    }

    fn pfx(&mut self) -> Result<Ipv4Prefix, WireError> {
        prefix_from_bytes(self.sym(SPACE_PREFIX)?).ok_or(WireError::BadSymbolBytes("prefix"))
    }

    fn u32v(&mut self) -> Result<u32, WireError> {
        Ok(self.r.varint_u32()?)
    }

    fn change(&mut self) -> Result<cpvr_bgp::ConfigChange, WireError> {
        decode_json_blob(&mut self.r, "config change")
    }

    fn proto(&mut self) -> Result<Proto, WireError> {
        match self.r.u8()? {
            0 => Ok(Proto::Bgp),
            1 => Ok(Proto::Ospf),
            2 => Ok(Proto::Rip),
            3 => Ok(Proto::Eigrp),
            b => Err(WireError::BadTag("proto", b)),
        }
    }

    fn peer(&mut self) -> Result<PeerRef, WireError> {
        match self.r.u8()? {
            0 => Ok(PeerRef::Internal(RouterId(self.u32v()?))),
            1 => Ok(PeerRef::External(ExtPeerId(self.u32v()?))),
            b => Err(WireError::BadTag("peer", b)),
        }
    }

    fn route(&mut self) -> Result<Arc<BgpRoute>, WireError> {
        let prefix = self.pfx()?;
        let next_hop = match self.r.u8()? {
            0 => NextHop::External(ExtPeerId(self.u32v()?)),
            1 => NextHop::Router(RouterId(self.u32v()?)),
            b => return Err(WireError::BadTag("next_hop", b)),
        };
        let local_pref = self.u32v()?;
        let n = self.r.count()?;
        let mut as_path = Vec::with_capacity(n);
        for _ in 0..n {
            as_path.push(AsNum(self.u32v()?));
        }
        let origin = match self.r.u8()? {
            0 => Origin::Igp,
            1 => Origin::Egp,
            2 => Origin::Incomplete,
            b => return Err(WireError::BadTag("origin", b)),
        };
        let med = self.u32v()?;
        let n = self.r.count()?;
        let mut communities = BTreeSet::new();
        for _ in 0..n {
            communities.insert(self.u32v()?);
        }
        let originator = RouterId(self.u32v()?);
        Ok(Arc::new(BgpRoute {
            prefix,
            next_hop,
            local_pref,
            as_path,
            origin,
            med,
            communities,
            originator,
        }))
    }
}

/// Decodes a v3 event payload, dropping any causal-trace trailer.
/// Equivalent to [`decode_event_traced`] minus the context.
pub fn decode_event(buf: &[u8], store: &InternStore) -> Result<(u64, IoEvent), WireError> {
    decode_event_traced(buf, store).map(|(seq, event, _)| (seq, event))
}

/// Decodes a v3 event payload (`varint seq` + body) against the symbol
/// tables in `store`, returning the causal-trace trailer when the
/// flags byte carries one (bit1). Strict: every byte must be consumed,
/// unknown flag bits are rejected.
///
/// The body's own router field selects which router's tables apply, so
/// one store serves a whole fleet (and a WAL series that interleaves
/// routers).
pub fn decode_event_traced(
    buf: &[u8],
    store: &InternStore,
) -> Result<(u64, IoEvent, Option<TraceCtx>), WireError> {
    let empty = Interns::new();
    let mut r = Reader::new(buf);
    let seq = r.varint()?;
    let id = r.varint_u32()?;
    let router = r.varint_u32()?;
    let mut d = Dec {
        r,
        interns: store.of(router).unwrap_or(&empty),
    };
    let time = SimTime(d.r.varint()?);
    let flags = d.r.u8()?;
    if flags & !0b11 != 0 {
        return Err(WireError::BadTag("event flags", flags));
    }
    let arrived_at = if flags & 1 != 0 {
        Some(SimTime(d.r.varint()?))
    } else {
        None
    };
    let kind = match d.r.u8()? {
        0 => IoKind::ConfigChange {
            desc: d.desc()?,
            change: d.opt("blob presence", Dec::change)?,
            inverse: d.opt("blob presence", Dec::change)?,
        },
        1 => IoKind::SoftReconfig { desc: d.desc()? },
        2 => IoKind::LinkStatus {
            desc: d.desc()?,
            up: d.r.flag("link up")?,
            link: d.opt("link presence", Dec::u32v)?.map(LinkId),
            peer: d.opt("ext peer presence", Dec::u32v)?.map(ExtPeerId),
        },
        3 => IoKind::RecvAdvert {
            proto: d.proto()?,
            prefix: d.opt("prefix presence", Dec::pfx)?,
            from: d.opt("peer presence", Dec::peer)?,
            route: d.opt("route presence", Dec::route)?,
        },
        4 => IoKind::RecvWithdraw {
            proto: d.proto()?,
            prefix: d.opt("prefix presence", Dec::pfx)?,
            from: d.opt("peer presence", Dec::peer)?,
        },
        5 => IoKind::RibInstall {
            proto: d.proto()?,
            prefix: d.pfx()?,
            route: d.opt("route presence", Dec::route)?,
        },
        6 => IoKind::RibRemove {
            proto: d.proto()?,
            prefix: d.pfx()?,
        },
        7 => IoKind::FibInstall {
            prefix: d.pfx()?,
            action: decode_action(&mut d.r)?,
        },
        8 => IoKind::FibRemove { prefix: d.pfx()? },
        9 => IoKind::SendAdvert {
            proto: d.proto()?,
            prefix: d.opt("prefix presence", Dec::pfx)?,
            to: d.opt("peer presence", Dec::peer)?,
            route: d.opt("route presence", Dec::route)?,
        },
        10 => IoKind::SendWithdraw {
            proto: d.proto()?,
            prefix: d.opt("prefix presence", Dec::pfx)?,
            to: d.opt("peer presence", Dec::peer)?,
        },
        b => return Err(WireError::BadTag("io kind", b)),
    };
    let trace = if flags & 2 != 0 {
        let trailer = d.r.take(TRACE_CTX_WIRE_LEN)?;
        Some(TraceCtx::decode(trailer).ok_or(WireError::BadSymbolBytes("trace trailer"))?)
    } else {
        None
    };
    d.r.finish()?;
    Ok((
        seq,
        IoEvent {
            id: EventId(id),
            router: RouterId(router),
            time,
            arrived_at,
            kind,
        },
        trace,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_route(pfx: Ipv4Prefix) -> Arc<BgpRoute> {
        Arc::new(BgpRoute {
            prefix: pfx,
            next_hop: NextHop::Router(RouterId(3)),
            local_pref: 200,
            as_path: vec![AsNum(65000), AsNum(65001)],
            origin: Origin::Igp,
            med: 17,
            communities: [65000u32, 12].into_iter().collect(),
            originator: RouterId(3),
        })
    }

    fn sample_events() -> Vec<IoEvent> {
        let p = Ipv4Prefix::from_bits(0x0a000000, 24);
        let q = Ipv4Prefix::from_bits(0xc0a80000, 16);
        let mk = |id: u32, kind: IoKind| IoEvent {
            id: EventId(id),
            router: RouterId(2),
            time: SimTime(1_000 + u64::from(id) * 300),
            arrived_at: id.is_multiple_of(2).then(|| SimTime(2_000 + u64::from(id))),
            kind,
        };
        vec![
            mk(
                0,
                IoKind::SoftReconfig {
                    desc: "clear ip bgp * soft".into(),
                },
            ),
            mk(
                1,
                IoKind::LinkStatus {
                    desc: "link 4 down".into(),
                    up: false,
                    link: Some(LinkId(4)),
                    peer: None,
                },
            ),
            mk(
                2,
                IoKind::RecvAdvert {
                    proto: Proto::Bgp,
                    prefix: Some(p),
                    from: Some(PeerRef::External(ExtPeerId(7))),
                    route: Some(sample_route(p)),
                },
            ),
            mk(
                3,
                IoKind::RecvWithdraw {
                    proto: Proto::Bgp,
                    prefix: Some(q),
                    from: Some(PeerRef::Internal(RouterId(1))),
                },
            ),
            mk(
                4,
                IoKind::RibInstall {
                    proto: Proto::Bgp,
                    prefix: p,
                    route: Some(sample_route(p)),
                },
            ),
            mk(
                5,
                IoKind::RibRemove {
                    proto: Proto::Ospf,
                    prefix: q,
                },
            ),
            mk(
                6,
                IoKind::FibInstall {
                    prefix: p,
                    action: FibAction::Forward(LinkId(2)),
                },
            ),
            mk(7, IoKind::FibRemove { prefix: q }),
            mk(
                8,
                IoKind::SendAdvert {
                    proto: Proto::Bgp,
                    prefix: Some(p),
                    to: Some(PeerRef::Internal(RouterId(0))),
                    route: None,
                },
            ),
            mk(
                9,
                IoKind::SendWithdraw {
                    proto: Proto::Eigrp,
                    prefix: None,
                    to: None,
                },
            ),
        ]
    }

    fn store_from(defs: &[InternDef]) -> InternStore {
        let mut store = InternStore::new();
        for d in defs {
            assert!(store.apply(d.router, d.space, d.symbol, &d.bytes));
        }
        store
    }

    #[test]
    fn events_roundtrip_through_the_binary_body() {
        let mut interns = Interns::new();
        let mut defs = Vec::new();
        for (i, event) in sample_events().iter().enumerate() {
            let mut body = Vec::new();
            encode_event_traced(i as u64, event, None, &mut interns, &mut defs, &mut body);
            let store = store_from(&defs);
            let (seq, back) = decode_event(&body, &store).expect("decode");
            assert_eq!(seq, i as u64);
            assert_eq!(&back, event);
            // Re-encoding with warm tables is deterministic and adds no
            // fresh definitions.
            let before = defs.len();
            let mut body2 = Vec::new();
            encode_event_traced(i as u64, event, None, &mut interns, &mut defs, &mut body2);
            assert_eq!(defs.len(), before);
            assert_eq!(body2, body, "re-encode is deterministic");
        }
    }

    #[test]
    fn second_use_of_a_symbol_emits_no_definition() {
        let mut interns = Interns::new();
        let mut defs = Vec::new();
        let e = &sample_events()[6]; // FibInstall: one prefix symbol
        let mut body = Vec::new();
        encode_event_traced(0, e, None, &mut interns, &mut defs, &mut body);
        let n = defs.len();
        assert!(n >= 1);
        let mut body2 = Vec::new();
        encode_event_traced(1, e, None, &mut interns, &mut defs, &mut body2);
        assert_eq!(defs.len(), n, "no fresh definitions on reuse");
    }

    #[test]
    fn undefined_symbols_are_rejected_not_guessed() {
        let mut interns = Interns::new();
        let mut defs = Vec::new();
        let mut body = Vec::new();
        encode_event_traced(
            0,
            &sample_events()[7],
            None,
            &mut interns,
            &mut defs,
            &mut body,
        );
        // Decoding without the definitions must fail cleanly.
        let empty = InternStore::new();
        match decode_event(&body, &empty) {
            Err(WireError::UnknownSymbol { .. }) => {}
            other => panic!("expected UnknownSymbol, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut interns = Interns::new();
        let mut defs = Vec::new();
        let mut body = Vec::new();
        encode_event_traced(
            7,
            &sample_events()[2],
            None,
            &mut interns,
            &mut defs,
            &mut body,
        );
        let store = store_from(&defs);
        for cut in 0..body.len() {
            assert!(
                decode_event(&body[..cut], &store).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut padded = body.clone();
        padded.push(0);
        assert_eq!(
            decode_event(&padded, &store),
            Err(WireError::Trailing(1)),
            "trailing bytes must fail"
        );
    }

    #[test]
    fn config_change_blobs_roundtrip() {
        // ConfigChange payloads ride as embedded JSON; make sure the
        // whole event still roundtrips.
        let desc = "policy update".to_string();
        let e = IoEvent {
            id: EventId(42),
            router: RouterId(0),
            time: SimTime(123_456_789),
            arrived_at: Some(SimTime(123_456_999)),
            kind: IoKind::ConfigChange {
                desc,
                change: None,
                inverse: None,
            },
        };
        let mut interns = Interns::new();
        let mut defs = Vec::new();
        let mut body = Vec::new();
        encode_event_traced(9, &e, None, &mut interns, &mut defs, &mut body);
        let store = store_from(&defs);
        let (seq, back) = decode_event(&body, &store).expect("decode");
        assert_eq!(seq, 9);
        assert_eq!(back, e);
    }

    #[test]
    fn trace_trailer_roundtrips_and_untraced_bytes_are_unchanged() {
        let mut interns = Interns::new();
        let mut defs = Vec::new();
        for (i, event) in sample_events().iter().enumerate() {
            let ctx = TraceCtx::for_flight(77, i as u64).child(1);
            let mut traced = Vec::new();
            encode_event_traced(
                i as u64,
                event,
                Some(ctx),
                &mut interns,
                &mut defs,
                &mut traced,
            );
            let store = store_from(&defs);
            let (seq, back, trace) = decode_event_traced(&traced, &store).expect("decode traced");
            assert_eq!(seq, i as u64);
            assert_eq!(&back, event);
            assert_eq!(trace, Some(ctx));
            // The untraced decoder still accepts the traced body.
            assert_eq!(decode_event(&traced, &store).expect("compat").1, *event);

            // Untraced encoding is byte-identical across both entry
            // points (old WALs / old peers keep decoding).
            let mut plain = Vec::new();
            encode_event_traced(i as u64, event, None, &mut interns, &mut defs, &mut plain);
            let mut plain2 = Vec::new();
            encode_event_traced(i as u64, event, None, &mut interns, &mut defs, &mut plain2);
            assert_eq!(plain, plain2);
            let (_, _, no_trace) = decode_event_traced(&plain, &store).expect("decode plain");
            assert_eq!(no_trace, None);
            assert_eq!(traced.len(), plain.len() + TRACE_CTX_WIRE_LEN);
        }
    }

    #[test]
    fn bad_flags_and_truncated_trailers_are_rejected() {
        let mut interns = Interns::new();
        let mut defs = Vec::new();
        let e = &sample_events()[0];
        let ctx = TraceCtx::for_flight(1, 2);
        let mut body = Vec::new();
        encode_event_traced(3, e, Some(ctx), &mut interns, &mut defs, &mut body);
        let store = store_from(&defs);
        // Chop the trailer: every cut inside it must fail.
        for cut in (body.len() - TRACE_CTX_WIRE_LEN)..body.len() {
            assert!(decode_event_traced(&body[..cut], &store).is_err());
        }
        // An unknown flag bit is a malformed frame, not a guess.
        let mut plain = Vec::new();
        encode_event_traced(3, e, None, &mut interns, &mut defs, &mut plain);
        // flags byte sits after varint seq·id·router·time; find it by
        // re-encoding with bit1 set and diffing.
        let mut diff = None;
        for (i, (a, b)) in plain.iter().zip(body.iter()).enumerate() {
            if a != b {
                diff = Some(i);
                break;
            }
        }
        let flag_pos = diff.expect("flags byte differs");
        let mut bad = plain.clone();
        bad[flag_pos] |= 0b100;
        assert!(matches!(
            decode_event_traced(&bad, &store),
            Err(WireError::BadTag("event flags", _))
        ));
    }

    #[test]
    fn intern_defs_roundtrip_as_frame_payloads() {
        let def = InternDef {
            router: 5,
            space: SPACE_PREFIX,
            symbol: 12,
            bytes: vec![24, 10, 0, 0, 0],
        };
        let mut buf = Vec::new();
        encode_intern_def(&def, &mut buf);
        assert_eq!(decode_intern_def(&buf).expect("decode"), def);
        for cut in 0..buf.len() {
            assert!(decode_intern_def(&buf[..cut]).is_err());
        }
        buf.push(0);
        assert!(matches!(
            decode_intern_def(&buf),
            Err(WireError::Trailing(1))
        ));
    }
}
