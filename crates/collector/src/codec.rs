//! The wire codec: one framer, one parser, two event bodies on disk,
//! one on the wire.
//!
//! Routers (or, here, the simulator acting as a load generator) stream
//! frames to the collector over TCP. A frame is a fixed 12-byte header
//! followed by a payload:
//!
//! ```text
//! +----+----+---------+------+-----------+----------+-- - - - --+
//! | 'C'| 'W'| version | kind | len (LE)  | crc (LE) |  payload  |
//! +----+----+---------+------+-----------+----------+-- - - - --+
//!   1    1      1        1       4            4        len bytes
//! ```
//!
//! The CRC-32 (IEEE, [`cpvr_types::crc32`]) covers the kind byte and the
//! payload, so neither can be corrupted undetected; the length field is
//! implicitly covered because a wrong length misaligns the payload and
//! fails the check.
//!
//! **One framer.** [`append_frame_with`] writes every header there is;
//! [`encode_frame`] is the one typed encoder on top of it (control
//! frames, peer frames, journal records) and [`EventEncoder`] the
//! per-connection event encoder.
//!
//! **One parser.** [`Decoder`] is the only thing that reads a header.
//! Fed a byte stream that may be damaged in flight
//! ([`feed`](Decoder::feed) / [`next_message`](Decoder::next_message))
//! it **resynchronizes**: a corrupt frame is counted and skipped by
//! scanning forward to the next plausible header instead of poisoning
//! the whole connection. Handed one WAL record
//! ([`decode_record`](Decoder::decode_record)) it is strict: the record
//! is exactly one intact frame or an error. A recovered log is just a
//! frame stream read from disk instead of a socket, so both paths share
//! the header check, the payload decoders and the symbol store.
//!
//! **One event body on the wire.** Senders speak version 3 only: the
//! binary body of [`cpvr_sim::wire`] — varint integers and interned
//! symbols instead of strings — with first symbol uses preceded by
//! [`Frame::Intern`] definition frames (kind 11). The [`Decoder`]
//! accumulates the definitions, so event bodies decode **in place,
//! straight out of the read buffer**: no payload copy, no JSON tree, no
//! per-event `String` allocation.
//!
//! **Two event bodies on disk.** The version byte is *per frame*, and
//! journals written before PR 24 hold version-2 event frames (an 8-byte
//! little-endian sequence number followed by the event as compact
//! JSON) interleaved with version-3 ones. The parser therefore keeps
//! reading both; nothing in this workspace sends version 2 any more.
//! [`encode_frame`] still renders a typed [`Frame::Event`] that way —
//! the legacy rendering the compatibility tests build old journals
//! from.
//!
//! Kind 14 keeps a read-only form too: a member's eager boundary batch
//! carries the fold records of the events it forwards — what a shard
//! channel carries inside one collector — and member journals written
//! before that hold whole events, which decode to their records.
//!
//! Everything that is not an event body is version-agnostic: compact
//! JSON ([`cpvr_types::json`]) for the handshakes and the federation
//! peer frames, little-endian integers for the high-frequency control
//! frames, and a binary record for the repair journal. Every binary
//! payload, event bodies included, is read through one
//! [`cpvr_types::bin::Reader`] that must end exactly at the payload's
//! end. The fault-tolerance vocabulary rides on those:
//!
//! * every [`Frame::Event`] carries a per-session **sequence number**,
//!   so the collector can detect duplicates (re-sent after a reconnect)
//!   and gaps (frames lost to corruption) and the client can replay
//!   exactly what was never acknowledged;
//! * [`Frame::Ack`] flows collector → client, acknowledging the
//!   contiguously received event prefix, which is what lets the client
//!   prune its bounded replay buffer;
//! * [`Frame::Watermark`] and [`Frame::Bye`] carry the sender's send
//!   **frontier** (the sequence number after the last event sent), so a
//!   promise can be held back until everything it covers has actually
//!   arrived — a watermark must never outrun events lost in flight;
//! * [`Frame::Heartbeat`] keeps a source's liveness lease fresh while
//!   it has nothing to say;
//! * [`Frame::Evict`] / [`Frame::Admit`] never travel on a socket: the
//!   collector journals them so a recovered pipeline remembers which
//!   stragglers were evicted from the watermark gate.

use cpvr_core::snapshot::ConvDigest;
use cpvr_core::FoldRecord;
use cpvr_sim::wire::{self, InternDef, WireError};
use cpvr_sim::IoEvent;
use cpvr_types::bin::{self, BinError, Reader};
use cpvr_types::crc32;
use cpvr_types::intern::InternStore;
use cpvr_types::json::{from_str, to_string_compact, JsonError};
use cpvr_types::trace::TRACE_CTX_WIRE_LEN;
use cpvr_types::{Interns, RouterId, SimTime, TraceCtx};
use std::fmt;
use std::io::{self, Write};

/// First two bytes of every frame.
pub(crate) const MAGIC: [u8; 2] = *b"CW";

/// The header version of every frame except v3 event bodies and intern
/// definitions: control, peer and journal frames are encoded at this
/// version, and a version-2 *event* frame (JSON body) is the read-only
/// journal format.
pub const VERSION: u8 = 2;

/// The header version of binary event bodies ([`cpvr_sim::wire`]) and
/// [`Frame::Intern`] definition frames — the only event encoding a
/// sender emits.
pub(crate) const VERSION_V3: u8 = 3;

/// The header versions this build reads.
pub(crate) const ACCEPTED_VERSIONS: [u8; 2] = [VERSION, VERSION_V3];

/// Frames larger than this are rejected before allocation — a corrupt or
/// hostile length field must not OOM the collector.
pub(crate) const MAX_FRAME_LEN: u32 = 1 << 24;

/// Header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Highest valid kind byte.
const MAX_KIND: u8 = 19;

/// The event codec a sender speaks. There is one; the type survives only
/// because the benchmark ledger's pinned sources name it in
/// [`EventEncoder::new`] and `SocketSink::connect_with_codec`, and goes
/// with those signatures at the next `benchmark/` change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecVersion {
    /// Binary varint/interned event payloads ([`cpvr_sim::wire`]).
    V3,
}

/// The connection handshake: the first frame on every connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// The router whose log records this connection carries.
    pub source: RouterId,
    /// How many routers the sender believes the network has; the
    /// collector rejects the connection if this disagrees with its own
    /// configuration (a mis-wired deployment).
    pub n_routers: u32,
    /// Identifies the client *instance*. A client that reconnects after
    /// a dropped connection keeps its session (and its sequence
    /// numbering), so the collector can deduplicate its replay; a
    /// restarted client presents a fresh session, telling the collector
    /// its numbering starts over.
    pub session: u64,
    /// The sequence number of the first event this connection will
    /// send: 0 for a fresh stream, the oldest unacknowledged sequence
    /// for a reconnect replay.
    pub first_seq: u64,
}

// Hand-rolled (not `impl_json_struct!`) for the `codec` member: every
// hello written says 3, the byte senders have put there since the
// binary codec landed, so the encoding does not move. Nothing reads it
// back — journals hold hellos that say 2 or omit the member, and the
// per-frame version byte is what decides how a body is parsed.
impl cpvr_types::json::ToJson for Hello {
    fn to_json(&self) -> cpvr_types::json::Value {
        use cpvr_types::json::Value;
        Value::Object(vec![
            ("source".to_string(), self.source.to_json()),
            ("n_routers".to_string(), self.n_routers.to_json()),
            ("session".to_string(), self.session.to_json()),
            ("first_seq".to_string(), self.first_seq.to_json()),
            ("codec".to_string(), Value::U64(u64::from(VERSION_V3))),
        ])
    }
}

impl cpvr_types::json::FromJson for Hello {
    fn from_json(v: &cpvr_types::json::Value) -> Result<Self, cpvr_types::json::JsonError> {
        use cpvr_types::json::FromJson;
        Ok(Hello {
            source: FromJson::from_json(v.field("source")?)?,
            n_routers: FromJson::from_json(v.field("n_routers")?)?,
            session: FromJson::from_json(v.field("session")?)?,
            first_seq: FromJson::from_json(v.field("first_seq")?)?,
        })
    }
}

/// The handshake on a collector↔collector federation link: the first
/// frame a federation member sends to a peer. Mirrors [`Hello`] but
/// identifies a *member* of a [`FederationPlan`] rather than a router
/// source.
///
/// [`FederationPlan`]: cpvr_core::FederationPlan
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerHello {
    /// The sending member's index in the federation plan.
    pub member: u32,
    /// How many members the sender's plan has; the receiver rejects the
    /// link if this disagrees with its own plan.
    pub members: u32,
    /// Total routers in the sender's plan (must match the receiver's).
    pub n_routers: u32,
    /// Identifies the member *process instance*: a member that restarts
    /// after a crash presents a fresh session, telling the receiver the
    /// link's sequence numbering starts over (semantic deduplication
    /// absorbs the regenerated replay).
    pub session: u64,
    /// The link sequence number of the first peer frame this connection
    /// will carry (the oldest unacknowledged frame on a reconnect).
    pub first_seq: u64,
}

cpvr_types::impl_json_struct!(PeerHello {
    member,
    members,
    n_routers,
    session,
    first_seq
});

/// A federation member's watermark frontier: for every source router it
/// owns, the latest applied promise. Broadcast to all peers whenever
/// the member's *local* minimum changes, one step at a time, so every
/// member observes every value the federated minimum takes — that is
/// what makes the federated advance sequence identical to a single
/// merged collector's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierExchange {
    /// The sending member.
    pub member: u32,
    /// Link sequence number (shared counter with the sender's other
    /// peer frames on this link).
    pub seq: u64,
    /// The sender's local minimum applied promise across its non-evicted
    /// owned sources; `None` while any owned source has yet to promise.
    /// Authoritative — receivers gate the federated minimum on this, not
    /// on a recomputation over `frontier`.
    pub min: Option<SimTime>,
    /// Per-owned-source applied promises (evicted sources excluded).
    pub frontier: Vec<(RouterId, Option<SimTime>)>,
}

cpvr_types::impl_json_struct!(FrontierExchange {
    member,
    seq,
    min,
    frontier
});

/// Happened-before material whose endpoints span a federation ownership
/// boundary, shipped member→member. Dual use:
///
/// * **Eager batches** (`round: None`): the [`FoldRecord`]s of events
///   belonging to conversations *owned by the receiver* but captured at
///   routers owned by the sender — the very records a shard channel
///   carries inside one collector. The receiver deduplicates
///   regenerated replays by event id and feeds the records to its
///   cross-scope HBG builder, which buffers pending records and folds in
///   `(time, id)` order at the next advance — so eager delivery order
///   never matters. Journals written before records replaced events
///   hold an `events` member of `(origin_seq, event)` pairs instead;
///   it decodes to the records [`FoldRecord::of`] gives for them.
/// * **Round batches** (`round: Some(t)`): the sender's conversation
///   digests for the snapshot round at horizon `t`, exactly the
///   [`ConvDigest`]s the sharded fold exchanges at a watermark barrier.
///   One frame per peer per round, possibly empty — an empty round
///   batch is the round-completion marker.
///
/// [`ConvDigest`]: cpvr_core::snapshot::ConvDigest
#[derive(Clone, Debug, PartialEq)]
pub struct BoundaryEdges {
    /// The sending member.
    pub member: u32,
    /// Link sequence number.
    pub seq: u64,
    /// `None` for an eager record batch; `Some(horizon)` for a snapshot
    /// round's digest batch.
    pub round: Option<SimTime>,
    /// Eager boundary records.
    pub records: Vec<FoldRecord>,
    /// Round digests in the sender's per-stream origin order.
    pub digests: Vec<ConvDigest>,
    /// Causal-trace context for the round this batch belongs to.
    /// Omitted from the JSON when absent, so un-upgraded peers (which
    /// reject unknown *missing* fields, not extra ones) interoperate:
    /// their frames simply decode as untraced.
    pub trace: Option<TraceCtx>,
}

// Hand-rolled (not `impl_json_struct!`) for the old `events` member,
// read back as records.
impl cpvr_types::json::ToJson for BoundaryEdges {
    fn to_json(&self) -> cpvr_types::json::Value {
        use cpvr_types::json::Value;
        let mut fields = vec![
            ("member".to_string(), self.member.to_json()),
            ("seq".to_string(), self.seq.to_json()),
            ("round".to_string(), self.round.to_json()),
            ("records".to_string(), self.records.to_json()),
            ("digests".to_string(), self.digests.to_json()),
        ];
        fields.extend(self.trace.map(|t| ("trace".to_string(), t.to_json())));
        Value::Object(fields)
    }
}

impl cpvr_types::json::FromJson for BoundaryEdges {
    fn from_json(v: &cpvr_types::json::Value) -> Result<Self, cpvr_types::json::JsonError> {
        use cpvr_types::json::FromJson;
        let records = match v.field("records") {
            Ok(r) => FromJson::from_json(r)?,
            Err(_) => Vec::<(u64, IoEvent)>::from_json(v.field("events")?)?
                .iter()
                .map(|(_, e)| FoldRecord::of(e))
                .collect(),
        };
        Ok(BoundaryEdges {
            member: FromJson::from_json(v.field("member")?)?,
            seq: FromJson::from_json(v.field("seq")?)?,
            round: FromJson::from_json(v.field("round")?)?,
            records,
            digests: FromJson::from_json(v.field("digests")?)?,
            trace: match v.field("trace") {
                Ok(t) => FromJson::from_json(t)?,
                Err(_) => None,
            },
        })
    }
}

/// A member's partial verdict for one snapshot round: the routers its
/// consistency-tracker slice is still waiting on at the round horizon.
/// The union of every member's `missing` (sorted, deduplicated) is the
/// global snapshot verdict — empty means `Consistent`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialVerdict {
    /// The sending member.
    pub member: u32,
    /// Link sequence number.
    pub seq: u64,
    /// The snapshot round horizon this verdict belongs to.
    pub round: SimTime,
    /// Routers the sender's slice is waiting for (its local WaitFor
    /// set); empty if the sender's slice is consistent at `round`.
    pub missing: Vec<RouterId>,
    /// Causal-trace context for the round (optional on the wire; a
    /// pre-trace peer's verdicts decode as untraced).
    pub trace: Option<TraceCtx>,
}

cpvr_types::impl_json_struct!(PartialVerdict {
    member,
    seq,
    round,
    missing,
    #[omit_none]
    trace,
});

/// Where a repair is in its proof-carrying lifecycle. Journaled as
/// [`Frame::Repair`] WAL records so recovery replays an in-flight
/// repair to the same decision the live run reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairStage {
    /// A plan was proposed for a root cause.
    Proposed,
    /// Its evidence artifact ([`RepairProof`]) was minted; the record
    /// carries the proof's v3 binary bytes.
    ///
    /// [`RepairProof`]: cpvr_core::RepairProof
    Proven,
    /// The replay gate ran; the record carries the verdict code.
    Gated,
    /// The gate said REPRODUCED and the repair reached the network.
    Applied,
    /// The gate said DIVERGED or ERROR; the tentative apply was rolled
    /// back and nothing reached the network.
    Blocked,
    /// An applied repair was later undone.
    RolledBack,
}

impl RepairStage {
    /// Every stage, in declaration order — which is the wire byte order.
    const ALL: [RepairStage; 6] = [
        RepairStage::Proposed,
        RepairStage::Proven,
        RepairStage::Gated,
        RepairStage::Applied,
        RepairStage::Blocked,
        RepairStage::RolledBack,
    ];

    /// Wire byte for this stage.
    pub(crate) fn byte(self) -> u8 {
        self as u8
    }

    /// Inverse of [`byte`](RepairStage::byte).
    pub(crate) fn from_byte(b: u8) -> Option<Self> {
        Self::ALL.get(usize::from(b)).copied()
    }
}

/// One journaled repair-lifecycle transition (wire kind 16). Binary
/// payload: the proof bytes ride the v3 proof codec and are opaque to
/// the collector — only recovery and the gate decode them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairRecord {
    /// Content digest of the proof's binary encoding
    /// ([`RepairProof::repair_id`]); identifies one repair across its
    /// lifecycle records.
    ///
    /// [`RepairProof::repair_id`]: cpvr_core::RepairProof::repair_id
    pub repair_id: u64,
    /// The lifecycle transition this record journals.
    pub stage: RepairStage,
    /// Verification-epoch time of the transition.
    pub at: SimTime,
    /// The gate verdict code (0 = reproduced, 1 = diverged, 2 = error)
    /// for [`Gated`](RepairStage::Gated) and later stages.
    pub verdict: Option<u8>,
    /// The proof's v3 binary bytes; non-empty only on
    /// [`Proven`](RepairStage::Proven).
    pub proof: Vec<u8>,
    /// Causal-trace context for the repair lifecycle, encoded as an
    /// optional 12-byte trailer after the proof bytes. Records from
    /// pre-trace WALs have no trailer and decode as untraced.
    pub trace: Option<TraceCtx>,
}

impl RepairRecord {
    /// Serializes the binary payload: `repair_id` LE64 · stage u8 ·
    /// `at` LE64 · optional verdict (presence u8 + u8) · length-prefixed
    /// proof bytes · optional 12-byte trace trailer.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(38 + self.proof.len());
        bin::put_u64_le(&mut p, self.repair_id);
        p.push(self.stage.byte());
        bin::put_u64_le(&mut p, self.at.as_nanos());
        match self.verdict {
            Some(v) => p.extend_from_slice(&[1, v]),
            None => p.push(0),
        }
        bin::put_len_prefixed(&mut p, &self.proof);
        if let Some(ctx) = self.trace {
            ctx.encode_to(&mut p);
        }
        p
    }

    /// Decodes the binary payload; rejects truncation, unknown stage
    /// bytes, and trailing garbage.
    pub fn decode_payload(p: &[u8]) -> Result<Self, CodecError> {
        read_payload(p, "malformed repair record", |r| {
            let repair_id = r.u64_le()?;
            let stage = r.u8()?;
            let stage =
                RepairStage::from_byte(stage).ok_or(BinError::BadTag("repair stage", stage))?;
            let at = SimTime::from_nanos(r.u64_le()?);
            let verdict = if r.flag("verdict option")? {
                Some(r.u8()?)
            } else {
                None
            };
            let proof = r.len_prefixed()?.to_vec();
            // Anything after the proof must be exactly one trace trailer
            // (records from pre-trace WALs end at the proof).
            let trace = if r.remaining() == 0 {
                None
            } else {
                let trailer = r.take(TRACE_CTX_WIRE_LEN)?;
                Some(TraceCtx::decode(trailer).ok_or(BinError::Truncated)?)
            };
            Ok(RepairRecord {
                repair_id,
                stage,
                at,
                verdict,
                proof,
                trace,
            })
        })
    }
}

/// Federation: the owning member shares a repair proof (wire kind 17)
/// so every peer can independently re-validate the gate decision. The
/// proof travels as its compact JSON rendering — peer frames stay v2
/// JSON by design — and `digest` commits to the *binary* encoding so a
/// peer can cross-check integrity after re-encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerRepairProof {
    /// The sending (owning) member.
    pub member: u32,
    /// Link sequence number.
    pub seq: u64,
    /// [`RepairRecord::repair_id`] of the proof.
    pub repair_id: u64,
    /// FNV-1a 64 of the proof's v3 binary encoding.
    pub digest: u64,
    /// The owner's gate verdict code (0 = reproduced, 1 = diverged,
    /// 2 = error).
    pub verdict: u8,
    /// The proof as compact `cpvr_types::json`.
    pub proof: String,
    /// Causal-trace context for the repair lifecycle (optional on the
    /// wire; proofs from pre-trace members decode as untraced).
    pub trace: Option<TraceCtx>,
}

cpvr_types::impl_json_struct!(PeerRepairProof {
    member,
    seq,
    repair_id,
    digest,
    verdict,
    proof,
    #[omit_none]
    trace,
});

/// One unit of the wire protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Handshake; must be the first frame of a connection.
    Hello(Hello),
    /// One captured control-plane I/O event, tagged with its position
    /// in the session's send order so the collector can detect
    /// duplicates and gaps.
    Event {
        /// Session-scoped sequence number, starting at the session's
        /// `first_seq` and incrementing by one per event.
        seq: u64,
        /// The captured event.
        event: IoEvent,
    },
    /// A promise: every event of this connection's router stamped at or
    /// before `t` has already been *sent*. `frontier` is the sequence
    /// number after the last event sent, so the collector applies the
    /// promise only once it has contiguously *received* that prefix —
    /// events lost to corruption are retransmitted before the fold can
    /// pass them. The collector folds events into the HBG only up to
    /// the *minimum* applied watermark across all router sources.
    Watermark {
        /// The promised time bound.
        t: SimTime,
        /// The session send frontier backing the promise.
        frontier: u64,
    },
    /// Graceful end-of-stream: no further events will ever come from
    /// this router (its watermark effectively jumps to infinity once
    /// everything up to `frontier` has been received).
    Bye {
        /// The session's final send frontier.
        frontier: u64,
    },
    /// Collector → client: every event with sequence number `< upto`
    /// has been received and accepted. Cumulative; the client prunes
    /// its replay buffer up to here.
    Ack {
        /// One past the highest contiguously received sequence number.
        upto: u64,
    },
    /// Client → collector: "still alive, nothing to report". Refreshes
    /// the source's liveness lease and solicits an ack.
    Heartbeat,
    /// WAL-only: the collector evicted this source from the watermark
    /// gate after its liveness lease lapsed. Journaled so recovery
    /// reconstructs the gate.
    Evict {
        /// The evicted source.
        source: RouterId,
    },
    /// WAL-only: a previously evicted source reconnected and was
    /// re-admitted to the watermark gate.
    Admit {
        /// The re-admitted source.
        source: RouterId,
    },
    /// Collector → client: the source's [`Frame::Bye`] promise has been
    /// *applied* (its final frontier arrived in full). Byes carry no
    /// sequence number, so without this acknowledgment a bye lost in
    /// flight would strand the global watermark forever while the
    /// client believes it is done; a draining client re-sends its bye
    /// until the fin arrives.
    Fin,
    /// Monitoring client → collector: scrape the live metrics registry.
    /// Permitted before (or entirely without) a [`Frame::Hello`], so an
    /// operator tool can connect, scrape, and disconnect without
    /// joining the event protocol. The payload is a single format byte
    /// (see `cpvr_obs::ExpoFormat`).
    MetricsReq {
        /// Exposition format tag: 0 = compact JSON, 1 = Prometheus
        /// text. Unknown tags fall back to JSON rather than erroring,
        /// so old collectors stay scrapable by newer tools.
        format: u8,
    },
    /// Collector → client: the rendered registry snapshot in the
    /// requested exposition format.
    MetricsResp {
        /// UTF-8 exposition body (compact JSON or Prometheus text).
        body: Vec<u8>,
    },
    /// v3 only: binds an interned symbol (a description string or a
    /// 5-byte prefix encoding) for a source router. A definition always
    /// travels — and is journaled — *before* the first event frame that
    /// uses the symbol, so decoding in arrival order (live or from the
    /// WAL) never sees an unknown symbol.
    Intern(InternDef),
    /// Federation: handshake on a collector↔collector peer link; must
    /// be the first frame of such a link and is only legal when the
    /// receiving collector is configured as a federation member.
    PeerHello(PeerHello),
    /// Federation: a member's per-source watermark frontier.
    FrontierExchange(FrontierExchange),
    /// Federation: boundary records / round digests crossing an
    /// ownership boundary.
    BoundaryEdges(BoundaryEdges),
    /// Federation: a member's partial snapshot verdict for one round.
    PartialVerdict(PartialVerdict),
    /// A repair-lifecycle transition, journaled to the WAL so recovery
    /// replays in-flight repairs to a bit-identical decision.
    Repair(RepairRecord),
    /// Federation: a repair proof shared by its owning member for
    /// independent re-validation by peers.
    PeerRepairProof(PeerRepairProof),
    /// Monitoring client → collector: freeze and return the flight
    /// recorder's rings. Like [`Frame::MetricsReq`], legal before (or
    /// without) a [`Frame::Hello`], so an operator tool can snapshot a
    /// live collector's black box without joining the event protocol.
    DumpReq,
    /// Collector → client: the frozen flight dump as compact JSON
    /// (`cpvr_obs::trace::FlightDump`).
    DumpResp {
        /// UTF-8 compact-JSON dump body.
        body: Vec<u8>,
    },
}

impl Frame {
    /// The kind byte identifying this frame on the wire.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello(_) => 0,
            Frame::Event { .. } => 1,
            Frame::Watermark { .. } => 2,
            Frame::Bye { .. } => 3,
            Frame::Ack { .. } => 4,
            Frame::Heartbeat => 5,
            Frame::Evict { .. } => 6,
            Frame::Admit { .. } => 7,
            Frame::Fin => 8,
            Frame::MetricsReq { .. } => 9,
            Frame::MetricsResp { .. } => 10,
            Frame::Intern(_) => 11,
            Frame::PeerHello(_) => 12,
            Frame::FrontierExchange(_) => 13,
            Frame::BoundaryEdges(_) => 14,
            Frame::PartialVerdict(_) => 15,
            Frame::Repair(_) => 16,
            Frame::PeerRepairProof(_) => 17,
            Frame::DumpReq => 18,
            Frame::DumpResp { .. } => 19,
        }
    }
}

/// A decode failure. I/O errors pass through; everything else names the
/// way the bytes were malformed.
#[derive(Debug)]
pub enum CodecError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The first two bytes were not `MAGIC`.
    BadMagic([u8; 2]),
    /// The version byte is not one of `ACCEPTED_VERSIONS`.
    BadVersion(u8),
    /// An unknown kind byte.
    BadKind(u8),
    /// The length field exceeds `MAX_FRAME_LEN`.
    TooLarge(u32),
    /// A journal record is not exactly one frame: its header describes
    /// `frame` bytes (or it is shorter than a header) and the record
    /// holds `got`.
    BadLength {
        /// Header plus payload, as the header states them.
        frame: usize,
        /// The record's length.
        got: usize,
    },
    /// The checksum over kind + payload did not match.
    BadCrc {
        /// CRC stated in the header.
        expected: u32,
        /// CRC computed over the received bytes.
        got: u32,
    },
    /// The payload failed to parse.
    Json(JsonError),
    /// The payload had the wrong shape for its kind (e.g. a watermark
    /// frame whose payload is not exactly 16 bytes).
    BadPayload(&'static str),
    /// A v3 binary body failed to decode (truncated field, bad tag, or
    /// a symbol used before its definition arrived).
    Wire(WireError),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            CodecError::BadVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build reads {ACCEPTED_VERSIONS:?})"
                )
            }
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::TooLarge(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_LEN}"),
            CodecError::BadLength { frame, got } => {
                write!(f, "record holds {got} bytes, its frame is {frame}")
            }
            CodecError::BadCrc { expected, got } => {
                write!(
                    f,
                    "crc mismatch: header says {expected:#010x}, bytes hash to {got:#010x}"
                )
            }
            CodecError::Json(e) => write!(f, "payload parse: {e}"),
            CodecError::BadPayload(what) => write!(f, "malformed payload: {what}"),
            CodecError::Wire(e) => write!(f, "binary body: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

impl From<JsonError> for CodecError {
    fn from(e: JsonError) -> Self {
        CodecError::Json(e)
    }
}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        CodecError::Wire(e)
    }
}

/// Reads a binary payload through one [`Reader`] that must be used up.
/// Any malformation is [`CodecError::BadPayload`], naming the field for
/// a bad tag and `what` otherwise.
fn read_payload<'a, T>(
    payload: &'a [u8],
    what: &'static str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, BinError>,
) -> Result<T, CodecError> {
    let mut r = Reader::new(payload);
    read(&mut r)
        .and_then(|v| r.finish().map(|()| v))
        .map_err(|e| {
            CodecError::BadPayload(match e {
                BinError::BadTag(field, _) => field,
                BinError::Truncated | BinError::Trailing(_) => what,
            })
        })
}

fn json_payload<T: cpvr_types::json::FromJson>(
    payload: &[u8],
    not_utf8: &'static str,
) -> Result<T, CodecError> {
    let text = std::str::from_utf8(payload).map_err(|_| CodecError::BadPayload(not_utf8))?;
    Ok(from_str(text)?)
}

/// Decodes one CRC-checked payload into a typed [`Frame`] (plus the
/// causal-trace trailer of a v3 event body, if it carries one). v3 event
/// bodies resolve their symbols in `interns`; a [`Frame::Intern`]
/// definition is bound there before it is returned, so whatever follows
/// it on the stream or in the journal can use the symbol.
fn decode_payload(
    version: u8,
    kind: u8,
    payload: &[u8],
    interns: &mut InternStore,
) -> Result<(Frame, Option<TraceCtx>), CodecError> {
    let frame = match kind {
        0 => Frame::Hello(json_payload(payload, "hello payload is not utf-8")?),
        1 if version == VERSION_V3 => {
            let (seq, event, trace) = wire::decode_event_traced(payload, interns)?;
            return Ok((Frame::Event { seq, event }, trace));
        }
        // The read-only journal format: nothing sends this any more.
        1 => {
            let (seq, body) = read_payload(payload, "event payload shorter than its seq", |r| {
                Ok((r.u64_le()?, r.take(r.remaining())?))
            })?;
            Frame::Event {
                seq,
                event: json_payload(body, "event payload is not utf-8")?,
            }
        }
        2 => read_payload(payload, "watermark payload is not 16 bytes", |r| {
            Ok(Frame::Watermark {
                t: SimTime::from_nanos(r.u64_le()?),
                frontier: r.u64_le()?,
            })
        })?,
        3 => Frame::Bye {
            frontier: read_payload(payload, "bye payload is not 8 bytes", Reader::u64_le)?,
        },
        4 => Frame::Ack {
            upto: read_payload(payload, "ack payload is not 8 bytes", Reader::u64_le)?,
        },
        5 => read_payload(payload, "heartbeat carries no payload", |_| {
            Ok(Frame::Heartbeat)
        })?,
        6 => Frame::Evict {
            source: RouterId(read_payload(
                payload,
                "evict payload is not 4 bytes",
                Reader::u32_le,
            )?),
        },
        7 => Frame::Admit {
            source: RouterId(read_payload(
                payload,
                "admit payload is not 4 bytes",
                Reader::u32_le,
            )?),
        },
        8 => read_payload(payload, "fin carries no payload", |_| Ok(Frame::Fin))?,
        9 => Frame::MetricsReq {
            format: read_payload(payload, "metrics request is one format byte", Reader::u8)?,
        },
        10 => Frame::MetricsResp {
            body: payload.to_vec(),
        },
        11 => {
            let def = wire::decode_intern_def(payload)?;
            interns.apply(def.router, def.space, def.symbol, &def.bytes);
            Frame::Intern(def)
        }
        12 => Frame::PeerHello(json_payload(payload, "peer hello payload is not utf-8")?),
        13 => Frame::FrontierExchange(json_payload(payload, "frontier payload is not utf-8")?),
        14 => Frame::BoundaryEdges(json_payload(payload, "boundary payload is not utf-8")?),
        15 => Frame::PartialVerdict(json_payload(
            payload,
            "partial verdict payload is not utf-8",
        )?),
        16 => Frame::Repair(RepairRecord::decode_payload(payload)?),
        17 => Frame::PeerRepairProof(json_payload(payload, "peer repair proof is not utf-8")?),
        18 => read_payload(payload, "dump request carries no payload", |_| {
            Ok(Frame::DumpReq)
        })?,
        19 => Frame::DumpResp {
            body: payload.to_vec(),
        },
        k => return Err(CodecError::BadKind(k)),
    };
    Ok((frame, None))
}

/// The CRC a frame's header states: over the kind byte, then the
/// payload.
fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    let mut crc = crc32::Crc32::new();
    crc.update(&[kind]);
    crc.update(payload);
    crc.finish()
}

/// Appends one whole frame to `out` in a single pass: the header is
/// written with placeholder length/CRC fields, `fill` appends the
/// payload bytes in place, and the placeholders are patched afterwards.
/// No intermediate payload `Vec` — this is the one framer every encoder
/// goes through.
pub fn append_frame_with<F: FnOnce(&mut Vec<u8>)>(
    out: &mut Vec<u8>,
    version: u8,
    kind: u8,
    fill: F,
) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.push(kind);
    out.extend_from_slice(&[0u8; 8]); // len + crc, patched below
    fill(out);
    let len = out.len() - start - HEADER_LEN;
    debug_assert!(len as u32 <= MAX_FRAME_LEN);
    out[start + 4..start + 8].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = frame_crc(kind, &out[start + HEADER_LEN..]);
    out[start + 8..start + 12].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes a typed frame to wire bytes — also the WAL record format.
///
/// Intern frames are a v3-only kind; everything else is framed at the
/// baseline version any reader accepts. That includes a typed
/// [`Frame::Event`], which this path renders in the **legacy** form (an
/// 8-byte sequence number and the event as compact JSON): no sender
/// reaches it — they hold an [`EventEncoder`] — but the compatibility
/// tests build pre-PR-24 journals with it.
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let version = if matches!(f, Frame::Intern(_)) {
        VERSION_V3
    } else {
        VERSION
    };
    fn json<T: cpvr_types::json::ToJson>(p: &mut Vec<u8>, v: &T) {
        p.extend_from_slice(to_string_compact(v).as_bytes());
    }
    let mut out = Vec::new();
    append_frame_with(&mut out, version, f.kind(), |p| match f {
        Frame::Hello(h) => json(p, h),
        Frame::Event { seq, event } => {
            bin::put_u64_le(p, *seq);
            json(p, event);
        }
        Frame::Watermark { t, frontier } => {
            bin::put_u64_le(p, t.as_nanos());
            bin::put_u64_le(p, *frontier);
        }
        Frame::Bye { frontier } => bin::put_u64_le(p, *frontier),
        Frame::Ack { upto } => bin::put_u64_le(p, *upto),
        Frame::Heartbeat | Frame::Fin | Frame::DumpReq => {}
        Frame::Evict { source } | Frame::Admit { source } => {
            p.extend_from_slice(&source.0.to_le_bytes())
        }
        Frame::MetricsReq { format } => p.push(*format),
        Frame::MetricsResp { body } | Frame::DumpResp { body } => p.extend_from_slice(body),
        Frame::Intern(def) => wire::encode_intern_def(def, p),
        // Peer frames are JSON by design: federation links must stay
        // readable by any member, whatever its routers speak.
        Frame::PeerHello(h) => json(p, h),
        Frame::FrontierExchange(f) => json(p, f),
        Frame::BoundaryEdges(b) => json(p, b),
        Frame::PartialVerdict(v) => json(p, v),
        Frame::Repair(r) => p.extend_from_slice(&r.encode_payload()),
        Frame::PeerRepairProof(r) => json(p, r),
    });
    out
}

/// The per-connection event encoder.
///
/// Owns the scratch state an event frame needs — the binary body buffer
/// and the connection's intern tables — so steady-state encoding writes
/// straight into the caller's output buffer without per-event
/// allocations. `encode_into` appends any fresh [`Frame::Intern`]
/// definitions *before* the event frame, and
/// [`definition_frames`](EventEncoder::definition_frames) replays every
/// definition made so far — a reconnecting client must re-send those
/// first, because the collector it reaches may have restarted without
/// the session's symbol table.
#[derive(Debug, Default)]
pub struct EventEncoder {
    interns: Interns,
    defs: Vec<InternDef>,
    all_defs: Vec<u8>,
    body: Vec<u8>,
}

impl EventEncoder {
    /// A fresh encoder. The argument selects nothing — there is one
    /// event codec; the signature is pinned by the benchmark ledger
    /// (see [`CodecVersion`]).
    pub fn new(_version: CodecVersion) -> Self {
        Self::default()
    }

    /// Appends the frames for one event to `out`: any fresh intern
    /// definition frames first, then the event frame.
    pub fn encode_into(&mut self, seq: u64, event: &IoEvent, out: &mut Vec<u8>) {
        self.encode_into_traced(seq, event, None, out);
    }

    /// [`encode_into`](EventEncoder::encode_into) with an optional
    /// causal-trace trailer on the event body.
    pub fn encode_into_traced(
        &mut self,
        seq: u64,
        event: &IoEvent,
        trace: Option<TraceCtx>,
        out: &mut Vec<u8>,
    ) {
        self.body.clear();
        self.defs.clear();
        wire::encode_event_traced(
            seq,
            event,
            trace,
            &mut self.interns,
            &mut self.defs,
            &mut self.body,
        );
        for def in &self.defs {
            let at = self.all_defs.len();
            append_frame_with(&mut self.all_defs, VERSION_V3, 11, |p| {
                wire::encode_intern_def(def, p)
            });
            out.extend_from_slice(&self.all_defs[at..]);
        }
        let body = &self.body;
        append_frame_with(out, VERSION_V3, 1, |p| p.extend_from_slice(body));
    }

    /// The encoded bytes of *every* intern definition this encoder has
    /// ever made, in definition order.
    pub fn definition_frames(&self) -> &[u8] {
        &self.all_defs
    }
}

/// Writes one frame.
pub(crate) fn write_frame<W: Write>(w: &mut W, f: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(f))
}

/// The fields of a frame header that passed [`parse_header`].
struct Header {
    version: u8,
    kind: u8,
    /// Header plus payload, in bytes.
    frame_len: usize,
    crc: u32,
}

/// Reads and validates the header at the front of `bytes` — the one
/// place a header's fields are taken apart, for the stream scanner and
/// the strict record path alike.
fn parse_header(bytes: &[u8]) -> Result<Header, CodecError> {
    let Some(h) = bytes.first_chunk::<HEADER_LEN>() else {
        return Err(CodecError::BadLength {
            frame: HEADER_LEN,
            got: bytes.len(),
        });
    };
    if h[..2] != MAGIC {
        return Err(CodecError::BadMagic([h[0], h[1]]));
    }
    let (version, kind) = (h[2], h[3]);
    if !ACCEPTED_VERSIONS.contains(&version) {
        return Err(CodecError::BadVersion(version));
    }
    if kind > MAX_KIND {
        return Err(CodecError::BadKind(kind));
    }
    let len = u32::from_le_bytes([h[4], h[5], h[6], h[7]]);
    if len > MAX_FRAME_LEN {
        return Err(CodecError::TooLarge(len));
    }
    Ok(Header {
        version,
        kind,
        frame_len: HEADER_LEN + len as usize,
        crc: u32::from_le_bytes([h[8], h[9], h[10], h[11]]),
    })
}

/// The frame parser: incremental and resynchronizing over byte streams
/// that may arrive damaged (bit flips, dropped ranges, duplicated
/// chunks), strict over whole journal records.
///
/// Feed it raw bytes as they arrive ([`feed`](Decoder::feed)) and pop
/// decoded frames ([`next_message`](Decoder::next_message)). A frame
/// that fails validation is *quarantined*: counted in
/// [`corrupt_frames`](Decoder::corrupt_frames), skipped, and the
/// decoder scans forward for the next plausible header instead of
/// giving up on the stream. Bytes discarded during the hunt are counted
/// in [`skipped_bytes`](Decoder::skipped_bytes). Because every accepted
/// frame passed its CRC, resynchronization can only ever *drop* data,
/// never invent it — and the sequence-number layer above recovers the
/// drops by retransmission.
///
/// The decoder is also the **intern state holder**: it absorbs
/// [`Frame::Intern`] definitions into a per-router [`InternStore`] and
/// decodes v3 event bodies *in place* — borrowed straight from the read
/// buffer, through the store, into an [`IoEvent`] — with no payload
/// copy and no JSON. One decoder serves one connection, or one WAL
/// series ([`decode_record`](Decoder::decode_record)).
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
    corrupt: u64,
    skipped: u64,
    interns: InternStore,
}

/// One decoded unit from [`Decoder::next_message`].
#[derive(Debug)]
pub struct DecodedMsg {
    /// The typed frame.
    pub frame: Frame,
    /// The frame's full wire bytes (header + payload), captured only
    /// when requested — this is what the WAL journals, byte-for-byte as
    /// received.
    pub raw: Option<Vec<u8>>,
    /// The causal-trace trailer of a v3 event frame, if it carried one
    /// (`None` for every other frame and for untraced events).
    pub trace: Option<TraceCtx>,
}

impl Decoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends newly received bytes to the decode buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Frames that failed validation (bad header fields or CRC) and
    /// were skipped.
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt
    }

    /// Bytes discarded while hunting for the next frame header.
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped
    }

    /// Bytes currently buffered but not yet consumed (a partial frame,
    /// or garbage awaiting more context).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn skip(&mut self, n: usize) {
        self.pos += n;
        self.skipped += n as u64;
    }

    /// Drops consumed bytes once they dominate the buffer, so the
    /// buffer does not grow without bound on a long-lived connection.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Scans to the next intact frame, skipping and counting damaged
    /// bytes. On a hit, `pos` is advanced past the frame and the frame's
    /// header and start offset in `buf` are returned — compaction is
    /// deferred to the caller so the offset stays valid while the
    /// payload is borrowed in place.
    fn scan_frame(&mut self) -> Option<(Header, usize)> {
        loop {
            let avail = self.buf.len() - self.pos;
            if avail == 0 {
                self.compact();
                return None;
            }
            // Hunt for the magic. A lone 'C' at the buffer tail might
            // be the start of a frame whose 'W' has not arrived yet.
            if self.buf[self.pos] != MAGIC[0] {
                match self.buf[self.pos..].iter().position(|&b| b == MAGIC[0]) {
                    Some(n) => {
                        self.skip(n);
                        continue;
                    }
                    None => {
                        self.skip(avail);
                        self.compact();
                        return None;
                    }
                }
            }
            if avail < 2 {
                self.compact();
                return None; // 'C' at the tail: wait for more
            }
            if self.buf[self.pos + 1] != MAGIC[1] {
                self.skip(1);
                continue;
            }
            if avail < HEADER_LEN {
                self.compact();
                return None;
            }
            let Ok(h) = parse_header(&self.buf[self.pos..]) else {
                // Implausible header: almost certainly a false magic
                // inside garbage. Shift one byte and keep scanning.
                self.corrupt += 1;
                self.skip(1);
                continue;
            };
            if avail < h.frame_len {
                self.compact();
                return None; // plausible frame, payload still in flight
            }
            let payload = &self.buf[self.pos + HEADER_LEN..self.pos + h.frame_len];
            if frame_crc(h.kind, payload) != h.crc {
                // A real frame with a damaged payload, or a false
                // header whose length field pointed into unrelated
                // bytes. Either way, skip just the magic and rescan —
                // a false length must not be trusted to delimit the
                // skip, or it could swallow the next good frame.
                self.corrupt += 1;
                self.skip(2);
                continue;
            }
            let start = self.pos;
            self.pos += h.frame_len;
            return Some((h, start));
        }
    }

    /// Pops and fully decodes the next intact frame — the collector's
    /// hot path. v3 event bodies decode **in place** from the read
    /// buffer through this decoder's intern store (no payload copy, no
    /// JSON); [`Frame::Intern`] definitions are absorbed into the store
    /// *and* returned, so the caller can journal them. `keep_raw`
    /// captures the frame's original wire bytes (for WAL journaling).
    ///
    /// `None` means feed more data; `Some(Err(..))` is a frame that
    /// passed its CRC but failed payload decoding — the caller decides
    /// whether that is fatal for the connection.
    pub fn next_message(&mut self, keep_raw: bool) -> Option<Result<DecodedMsg, CodecError>> {
        let (h, start) = self.scan_frame()?;
        let bytes = &self.buf[start..start + h.frame_len];
        let decoded = decode_payload(h.version, h.kind, &bytes[HEADER_LEN..], &mut self.interns);
        let raw = keep_raw.then(|| bytes.to_vec());
        self.compact();
        Some(decoded.map(|(frame, trace)| DecodedMsg { frame, raw, trace }))
    }

    /// Decodes one journal record, which must be exactly one intact
    /// frame: anything shorter or longer is [`CodecError::BadLength`],
    /// a header or checksum fault is its own error, and nothing is
    /// skipped or resynchronized. Shares the intern store with
    /// [`next_message`](Decoder::next_message): records decoded in
    /// journal order see every definition before its first use, exactly
    /// as the live connection did.
    pub fn decode_record(&mut self, record: &[u8]) -> Result<Frame, CodecError> {
        let h = parse_header(record)?;
        if record.len() != h.frame_len {
            return Err(CodecError::BadLength {
                frame: h.frame_len,
                got: record.len(),
            });
        }
        let payload = &record[HEADER_LEN..];
        let got = frame_crc(h.kind, payload);
        if got != h.crc {
            return Err(CodecError::BadCrc {
                expected: h.crc,
                got,
            });
        }
        decode_payload(h.version, h.kind, payload, &mut self.interns).map(|(frame, _)| frame)
    }

    /// Signals that no more bytes will ever arrive: any pending partial
    /// frame is garbage. Repeatedly rescans the remainder (a truncated
    /// frame's payload may contain a later, complete frame after a
    /// duplication fault) and returns every frame found as a
    /// [`DecodedMsg`] (or its decode error), with intern definitions
    /// absorbed along the way; the buffer is empty afterwards.
    pub(crate) fn finish(&mut self, keep_raw: bool) -> Vec<Result<DecodedMsg, CodecError>> {
        let mut out = Vec::new();
        while self.pending() > 0 {
            if let Some(m) = self.next_message(keep_raw) {
                out.push(m);
                continue;
            }
            // `next_message` stalled on a partial frame: discard its
            // first byte and rescan what remains.
            if self.pending() > 0 {
                self.corrupt += 1;
                self.skip(1);
            }
        }
        self.buf.clear();
        self.pos = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_sim::{EventId, IoKind};
    use proptest::prelude::*;

    fn sample_event() -> IoEvent {
        IoEvent {
            id: EventId(7),
            router: RouterId(2),
            time: SimTime::from_millis(42),
            arrived_at: Some(SimTime::from_millis(43)),
            kind: IoKind::FibRemove {
                prefix: "10.0.0.0/8".parse().unwrap(),
            },
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                source: RouterId(1),
                n_routers: 3,
                session: 0xfeed_beef,
                first_seq: 17,
            }),
            Frame::Intern(InternDef {
                router: 2,
                space: cpvr_types::intern::SPACE_PREFIX,
                symbol: 0,
                bytes: vec![8, 0, 0, 0, 10],
            }),
            Frame::Event {
                seq: 9,
                event: sample_event(),
            },
            Frame::Watermark {
                t: SimTime::from_micros(987_654),
                frontier: 10,
            },
            Frame::Ack { upto: 10 },
            Frame::Heartbeat,
            Frame::Evict {
                source: RouterId(2),
            },
            Frame::Admit {
                source: RouterId(2),
            },
            Frame::Fin,
            Frame::MetricsReq { format: 1 },
            Frame::MetricsResp {
                body: b"{\"counters\":[]}".to_vec(),
            },
            Frame::PeerHello(PeerHello {
                member: 1,
                members: 3,
                n_routers: 6,
                session: 0xdead_cafe,
                first_seq: 4,
            }),
            Frame::FrontierExchange(FrontierExchange {
                member: 1,
                seq: 5,
                min: Some(SimTime::from_millis(40)),
                frontier: vec![
                    (RouterId(2), Some(SimTime::from_millis(40))),
                    (RouterId(5), None),
                ],
            }),
            Frame::BoundaryEdges(BoundaryEdges {
                member: 2,
                seq: 6,
                round: None,
                records: vec![FoldRecord::of(&sample_event())],
                digests: Vec::new(),
                trace: None,
            }),
            Frame::BoundaryEdges(BoundaryEdges {
                member: 2,
                seq: 7,
                round: Some(SimTime::from_millis(42)),
                records: Vec::new(),
                digests: vec![ConvDigest {
                    key: (
                        RouterId(0),
                        RouterId(4),
                        cpvr_sim::Proto::Bgp,
                        Some("10.0.0.0/8".parse().unwrap()),
                    ),
                    is_send: true,
                    time: SimTime::from_millis(41),
                }],
                trace: Some(TraceCtx::for_round(SimTime::from_millis(42))),
            }),
            Frame::PartialVerdict(PartialVerdict {
                member: 0,
                seq: 8,
                round: SimTime::from_millis(42),
                missing: vec![RouterId(1), RouterId(3)],
                trace: Some(TraceCtx::for_round(SimTime::from_millis(42)).child(21)),
            }),
            Frame::Repair(RepairRecord {
                repair_id: 0xabc,
                stage: RepairStage::Gated,
                at: SimTime::from_millis(44),
                verdict: Some(0),
                proof: vec![1, 2, 3],
                trace: Some(TraceCtx::for_repair(0xabc).child(11)),
            }),
            Frame::PeerRepairProof(PeerRepairProof {
                member: 1,
                seq: 9,
                repair_id: 0xabc,
                digest: 0xfeed,
                verdict: 0,
                proof: "{\"v\":1}".to_string(),
                trace: Some(TraceCtx::for_repair(0xabc).child(16)),
            }),
            Frame::DumpReq,
            Frame::DumpResp {
                body: b"{\"member\":0,\"reason\":\"dump-req\",\"records\":[]}".to_vec(),
            },
            Frame::Bye { frontier: 10 },
        ]
    }

    /// Decodes one whole frame with no symbols defined.
    fn decode(bytes: &[u8]) -> Result<Frame, CodecError> {
        Decoder::new().decode_record(bytes)
    }

    /// Every frame left in `dec`, including what only end-of-stream
    /// rescanning finds; frames that fail payload decoding are dropped.
    fn drain(dec: &mut Decoder) -> Vec<Frame> {
        let mut got = Vec::new();
        while let Some(msg) = dec.next_message(false) {
            got.extend(msg.ok().map(|m| m.frame));
        }
        got.extend(dec.finish(false).into_iter().flatten().map(|m| m.frame));
        got
    }

    fn event_frame(seq: u64) -> Frame {
        Frame::Event {
            seq,
            event: sample_event(),
        }
    }

    #[test]
    fn frames_roundtrip_through_bytes() {
        for f in &sample_frames() {
            assert_eq!(&decode(&encode_frame(f)).unwrap(), f);
        }
    }

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let mut buf = Vec::new();
        let frames = sample_frames();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut dec = Decoder::new();
        dec.feed(&buf);
        for f in &frames {
            let msg = dec.next_message(false).expect("frame present").unwrap();
            assert_eq!(&msg.frame, f);
        }
        assert!(dec.next_message(false).is_none(), "clean end of stream");
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = encode_frame(&event_frame(1));
        // Flip one payload byte: CRC must catch it.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(decode(&bytes), Err(CodecError::BadCrc { .. })));
        // Flip the kind byte: also covered by the CRC.
        let mut bytes = encode_frame(&Frame::Heartbeat);
        bytes[3] = 2;
        assert!(matches!(decode(&bytes), Err(CodecError::BadCrc { .. })));
    }

    #[test]
    fn header_validation() {
        let good = encode_frame(&Frame::Heartbeat);
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(CodecError::BadMagic(_))));
        // Versions 2 and 3 are both read, so probe with one past both;
        // the message names the accepted set.
        let mut bad = good.clone();
        bad[2] = 9;
        let err = decode(&bad).unwrap_err();
        assert!(matches!(err, CodecError::BadVersion(9)));
        assert!(err.to_string().ends_with("(this build reads [2, 3])"));
        let mut bad = good.clone();
        bad[3] = MAX_KIND + 1;
        assert!(matches!(decode(&bad), Err(CodecError::BadKind(_))));
        let mut bad = good;
        bad[4..8].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(matches!(decode(&bad), Err(CodecError::TooLarge(_))));
    }

    #[test]
    fn truncated_frames_ask_for_more() {
        let bytes = encode_frame(&event_frame(0));
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            // On a stream, a clean prefix is "feed me more"...
            let mut dec = Decoder::new();
            dec.feed(&bytes[..cut]);
            assert!(dec.next_message(false).is_none(), "cut at {cut}");
            assert_eq!((dec.pending(), dec.corrupt_frames()), (cut, 0));
            // ...and as a whole record it is an error, never a frame.
            assert!(
                matches!(decode(&bytes[..cut]), Err(CodecError::BadLength { got, .. }) if got == cut),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn a_record_is_exactly_one_frame() {
        let frame = encode_frame(&Frame::Ack { upto: 5 });
        let mut long = frame.clone();
        long.extend_from_slice(&encode_frame(&Frame::Heartbeat));
        match decode(&long) {
            Err(CodecError::BadLength { frame: want, got }) => {
                assert_eq!((want, got), (frame.len(), long.len()));
            }
            other => panic!("trailing bytes must be rejected, got {other:?}"),
        }
        assert_eq!(decode(&frame).unwrap(), Frame::Ack { upto: 5 });
    }

    #[test]
    fn fixed_size_payloads_are_validated() {
        for (kind, wrong) in [
            (2u8, 3usize),
            (3, 7),
            (4, 9),
            (5, 1),
            (6, 3),
            (7, 8),
            (9, 2),
            (18, 1),
        ] {
            let mut bytes = Vec::new();
            append_frame_with(&mut bytes, VERSION, kind, |p| {
                p.extend_from_slice(&vec![1; wrong])
            });
            assert!(
                matches!(decode(&bytes), Err(CodecError::BadPayload(_))),
                "kind {kind} with {wrong}-byte payload must be rejected"
            );
        }
    }

    #[test]
    fn decoder_decodes_a_clean_stream_fed_in_slivers() {
        let frames = sample_frames();
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&encode_frame(f));
        }
        let mut dec = Decoder::new();
        let mut got = Vec::new();
        // Feed one byte at a time: partial frames must never error.
        for b in &bytes {
            dec.feed(std::slice::from_ref(b));
            while let Some(msg) = dec.next_message(false) {
                got.push(msg.unwrap().frame);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.corrupt_frames(), 0);
        assert_eq!(dec.skipped_bytes(), 0);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn decoder_quarantines_a_flipped_frame_and_resyncs() {
        let a = encode_frame(&event_frame(1));
        let mut b = encode_frame(&event_frame(2));
        let c = encode_frame(&event_frame(3));
        let mid = b.len() / 2;
        b[mid] ^= 0x40; // damage the middle frame's payload
        let mut dec = Decoder::new();
        dec.feed(&a);
        dec.feed(&b);
        dec.feed(&c);
        let got = drain(&mut dec);
        assert!(
            got.contains(&event_frame(1)) && got.contains(&event_frame(3)),
            "good frames must survive: {got:?}"
        );
        assert!(
            !got.contains(&event_frame(2)),
            "the damaged frame must be quarantined"
        );
        assert!(dec.corrupt_frames() >= 1);
    }

    #[test]
    fn decoder_skips_leading_garbage() {
        let mut dec = Decoder::new();
        dec.feed(b"not a frame at all, just noise CW?");
        let frame = encode_frame(&Frame::Ack { upto: 5 });
        dec.feed(&frame);
        let got = dec.next_message(false).expect("frame after garbage");
        assert_eq!(got.unwrap().frame, Frame::Ack { upto: 5 });
        assert!(dec.skipped_bytes() > 0);
    }

    #[test]
    fn decoder_survives_a_dropped_byte_range() {
        let mut bytes = Vec::new();
        for seq in 0..5 {
            bytes.extend_from_slice(&encode_frame(&event_frame(seq)));
        }
        // Drop 30 bytes spanning the boundary of frames 1 and 2.
        let flen = encode_frame(&event_frame(0)).len();
        let cut = flen * 2 - 10;
        bytes.drain(cut..cut + 30);
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        let got = drain(&mut dec);
        // Frames 0, 3, 4 are untouched and must all survive.
        for seq in [0u64, 3, 4] {
            assert!(
                got.contains(&event_frame(seq)),
                "frame {seq} should survive the dropped range: {got:?}"
            );
        }
    }

    #[test]
    fn peer_frames_without_trace_field_decode_as_untraced() {
        // Pre-trace peers emit JSON with no "trace" member at all;
        // build those payloads by hand and check absent ⇒ None.
        let cases: Vec<(u8, &[u8])> = vec![
            (
                14,
                br#"{"member":2,"seq":6,"round":null,"events":[],"digests":[]}"#,
            ),
            (15, br#"{"member":0,"seq":8,"round":42000000,"missing":[]}"#),
            (
                17,
                br#"{"member":1,"seq":9,"repair_id":7,"digest":8,"verdict":0,"proof":"{}"}"#,
            ),
        ];
        for (kind, json) in cases {
            let mut out = Vec::new();
            append_frame_with(&mut out, VERSION, kind, |p| p.extend_from_slice(json));
            match decode(&out).unwrap() {
                Frame::BoundaryEdges(b) => assert_eq!(b.trace, None),
                Frame::PartialVerdict(p) => assert_eq!(p.trace, None),
                Frame::PeerRepairProof(p) => assert_eq!(p.trace, None),
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    #[test]
    fn repair_record_trailer_is_optional_and_strict() {
        let untraced = RepairRecord {
            repair_id: 5,
            stage: RepairStage::Proven,
            at: SimTime::from_millis(7),
            verdict: None,
            proof: vec![9, 9, 9],
            trace: None,
        };
        let traced = RepairRecord {
            trace: Some(TraceCtx::for_repair(5).child(10)),
            ..untraced.clone()
        };
        // Round-trips, and a pre-trace payload (no trailer) decodes
        // unchanged as untraced.
        let p0 = untraced.encode_payload();
        assert_eq!(RepairRecord::decode_payload(&p0).unwrap(), untraced);
        let p1 = traced.encode_payload();
        assert_eq!(p1.len(), p0.len() + TRACE_CTX_WIRE_LEN);
        assert_eq!(RepairRecord::decode_payload(&p1).unwrap(), traced);
        // A partial trailer is a malformed record, never a guess.
        for cut in p0.len() + 1..p1.len() {
            assert!(RepairRecord::decode_payload(&p1[..cut]).is_err());
        }
    }

    #[test]
    fn hello_without_codec_field_still_decodes() {
        // Journals hold hellos from before the member existed, and ones
        // that say 2; build both payloads by hand.
        for json in [
            &br#"{"source":4,"n_routers":3,"session":99,"first_seq":0}"#[..],
            br#"{"source":4,"n_routers":3,"session":99,"first_seq":0,"codec":2}"#,
        ] {
            let mut out = Vec::new();
            append_frame_with(&mut out, VERSION, 0, |p| p.extend_from_slice(json));
            match decode(&out).unwrap() {
                Frame::Hello(h) => assert_eq!((h.source, h.session), (RouterId(4), 99)),
                other => panic!("expected hello, got {other:?}"),
            }
        }
    }

    #[test]
    fn v3_events_roundtrip_through_the_decoder_with_interleaved_defs() {
        let mut enc = EventEncoder::new(CodecVersion::V3);
        let mut stream = Vec::new();
        let events: Vec<IoEvent> = (0..4)
            .map(|i| IoEvent {
                id: EventId(i),
                router: RouterId(2),
                time: SimTime::from_millis(42 + u64::from(i)),
                arrived_at: None,
                kind: IoKind::FibRemove {
                    prefix: "10.0.0.0/8".parse().unwrap(),
                },
            })
            .collect();
        for (i, e) in events.iter().enumerate() {
            enc.encode_into(i as u64, e, &mut stream);
        }
        // Only the first event should have cost a definition frame.
        assert!(!enc.definition_frames().is_empty());
        let mut dec = Decoder::new();
        dec.feed(&stream);
        // What a journal of the captured raw bytes replays to.
        let mut journal = Decoder::new();
        let mut got = Vec::new();
        let mut defs = 0;
        while let Some(msg) = dec.next_message(true) {
            let msg = msg.expect("clean stream decodes");
            // Journaled bytes are the original wire bytes.
            let raw = msg.raw.expect("raw requested");
            assert_eq!(raw[2], VERSION_V3);
            assert_eq!(journal.decode_record(&raw).unwrap(), msg.frame);
            match msg.frame {
                Frame::Event { seq, event } => {
                    assert_eq!(seq, got.len() as u64);
                    got.push(event);
                }
                Frame::Intern(_) => defs += 1,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(got, events);
        assert_eq!(defs, 1, "one prefix symbol, defined exactly once");
        assert_eq!(dec.corrupt_frames(), 0);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn v2_and_v3_frames_interleave_on_one_stream() {
        // Old journals interleave the two event bodies; the typed
        // encoder's legacy rendering stands in for the v2 sender.
        let event = sample_event();
        let v2 = |seq| encode_frame(&event_frame(seq));
        let mut v3 = EventEncoder::new(CodecVersion::V3);
        let mut stream = v2(0);
        v3.encode_into(1, &event, &mut stream);
        stream.extend_from_slice(&encode_frame(&Frame::Heartbeat));
        v3.encode_into(2, &event, &mut stream);
        stream.extend_from_slice(&v2(3));
        let mut dec = Decoder::new();
        dec.feed(&stream);
        let mut seqs = Vec::new();
        while let Some(msg) = dec.next_message(false) {
            match msg.expect("clean stream").frame {
                Frame::Event { seq, event: e } => {
                    assert_eq!(e, event, "both bodies must yield the same event");
                    seqs.push(seq);
                }
                Frame::Intern(_) | Frame::Heartbeat => {}
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn v3_event_without_definitions_is_a_clean_error() {
        // An event referencing a symbol the decoder never saw (e.g. the
        // definition frame was lost to corruption) must be rejected,
        // not misdecoded.
        let mut enc = EventEncoder::new(CodecVersion::V3);
        let mut stream = Vec::new();
        enc.encode_into(7, &sample_event(), &mut stream);
        // Strip the definition frames, keep only the final event frame.
        let event_bytes = &stream[enc.definition_frames().len()..];
        let mut dec = Decoder::new();
        dec.feed(event_bytes);
        match dec.next_message(false) {
            Some(Err(CodecError::Wire(WireError::UnknownSymbol { .. }))) => {}
            other => panic!("expected unknown-symbol error, got {other:?}"),
        }
        // The same frame as a journal record fails the same way, until
        // the record before it has defined the symbol.
        let mut journal = Decoder::new();
        assert!(matches!(
            journal.decode_record(event_bytes),
            Err(CodecError::Wire(WireError::UnknownSymbol { .. }))
        ));
        journal.decode_record(enc.definition_frames()).unwrap();
        assert_eq!(
            journal.decode_record(event_bytes).unwrap(),
            Frame::Event {
                seq: 7,
                event: sample_event()
            }
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Arbitrary garbage through the decoder: never panics, never
        /// yields a frame that fails CRC-validated decoding, and always
        /// terminates with an empty buffer at EOF. The same bytes as one
        /// journal record are an error or a frame, never a panic.
        #[test]
        fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..2048),
                                           chunk in 1usize..64) {
            let mut dec = Decoder::new();
            for piece in bytes.chunks(chunk) {
                dec.feed(piece);
                // Whatever survives the CRC may still be rejected by
                // its payload decoder, cleanly.
                while dec.next_message(false).is_some() {}
            }
            dec.finish(false);
            prop_assert_eq!(dec.pending(), 0);
            let _ = decode(&bytes);
        }

        /// A valid frame stream with a random contiguous slice replaced
        /// by garbage: the decoder resynchronizes and recovers every
        /// frame that was not touched by the damage.
        #[test]
        fn decoder_resynchronizes_after_damage(n_frames in 2usize..12,
                                               seed in any::<u64>(),
                                               dmg_at in any::<u16>(),
                                               dmg_len in 1usize..40,
                                               flip in any::<u8>()) {
            let frames: Vec<Frame> = (0..n_frames as u64).map(|i| Frame::Event {
                seq: i,
                event: IoEvent {
                    id: EventId(i as u32),
                    router: RouterId((seed % 4) as u32),
                    time: SimTime::from_micros(seed % 100_000 + i),
                    arrived_at: None,
                    kind: IoKind::FibRemove { prefix: "10.0.0.0/8".parse().unwrap() },
                },
            }).collect();
            let mut stream = Vec::new();
            let mut bounds = vec![0usize];
            for f in &frames {
                stream.extend_from_slice(&encode_frame(f));
                bounds.push(stream.len());
            }
            let at = dmg_at as usize % stream.len();
            let end = (at + dmg_len).min(stream.len());
            for b in &mut stream[at..end] {
                *b ^= flip | 1; // guarantee a real change
            }
            let mut dec = Decoder::new();
            dec.feed(&stream);
            let got: Vec<u64> = drain(&mut dec)
                .into_iter()
                .filter_map(|f| match f {
                    Frame::Event { seq, .. } => Some(seq),
                    _ => None,
                })
                .collect();
            // Every frame wholly outside the damaged range survives.
            for (i, w) in bounds.windows(2).enumerate() {
                let untouched = w[1] <= at || w[0] >= end;
                if untouched {
                    prop_assert!(
                        got.contains(&(i as u64)),
                        "undamaged frame {} lost (damage {}..{}, got {:?})", i, at, end, got
                    );
                }
            }
            prop_assert_eq!(dec.pending(), 0);
        }

        /// Trace contexts round-trip: a v3 event carries its trailer
        /// through the decoder; peer frames carry their optional ctx
        /// through JSON (absent stays absent).
        #[test]
        fn trace_ctx_round_trips(trace_id in 1u64..u64::MAX,
                                 parent in any::<u32>(),
                                 seq in any::<u64>(),
                                 traced in any::<bool>()) {
            let ctx = traced.then_some(TraceCtx { trace_id, parent });
            let event = sample_event();
            let mut enc = EventEncoder::new(CodecVersion::V3);
            let mut stream = Vec::new();
            enc.encode_into_traced(seq, &event, ctx, &mut stream);
            let mut dec = Decoder::new();
            dec.feed(&stream);
            let mut seen = None;
            while let Some(msg) = dec.next_message(false) {
                let msg = msg.expect("clean stream");
                if let Frame::Event { seq: s, event: ref e } = msg.frame {
                    prop_assert_eq!(s, seq);
                    prop_assert_eq!(e, &event);
                    seen = Some(msg.trace);
                }
            }
            prop_assert_eq!(seen, Some(ctx));
            for f in [
                Frame::PartialVerdict(PartialVerdict {
                    member: 0,
                    seq,
                    round: SimTime::from_millis(1),
                    missing: Vec::new(),
                    trace: ctx,
                }),
                Frame::PeerRepairProof(PeerRepairProof {
                    member: 2,
                    seq,
                    repair_id: trace_id,
                    digest: 1,
                    verdict: 0,
                    proof: "{}".to_string(),
                    trace: ctx,
                }),
                Frame::Repair(RepairRecord {
                    repair_id: trace_id,
                    stage: RepairStage::Proposed,
                    at: SimTime::from_millis(2),
                    verdict: None,
                    proof: Vec::new(),
                    trace: ctx,
                }),
            ] {
                prop_assert_eq!(decode(&encode_frame(&f)).unwrap(), f);
            }
        }

        /// Truncation at any point never yields a frame: a stream waits
        /// for the rest, a journal record is rejected.
        #[test]
        fn truncation_never_yields_a_frame(cut_frac in 0.0f64..1.0) {
            let bytes = encode_frame(&Frame::Event { seq: 3, event: IoEvent {
                id: EventId(1),
                router: RouterId(0),
                time: SimTime::from_millis(5),
                arrived_at: None,
                kind: IoKind::FibRemove { prefix: "10.0.0.0/8".parse().unwrap() },
            }});
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            let mut dec = Decoder::new();
            dec.feed(&bytes[..cut]);
            prop_assert!(dec.next_message(false).is_none());
            let is_bad_length = matches!(decode(&bytes[..cut]), Err(CodecError::BadLength { .. }));
            prop_assert!(is_bad_length);
        }
    }
}
