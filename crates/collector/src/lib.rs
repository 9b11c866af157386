//! Networked event ingestion for the CPVR pipeline.
//!
//! The paper's architecture (Fig. 3) assumes the verifier receives a
//! *stream* of captured control-plane I/Os from every router — "most
//! commercial router platforms provide a mechanism for logging control
//! plane I/Os" (§4.2). The rest of this workspace drives that stream
//! through an in-process callback; this crate is the missing deployment
//! seam: routers ship their logs over TCP, and the collector turns the
//! per-router streams back into the globally ordered feed the
//! incremental verification machinery requires — surviving crashes on
//! the way.
//!
//! Seven layers, bottom up:
//!
//! * [`codec`] — a CRC-protected wire format: one framer, one binary
//!   event encoding for [`IoEvent`](cpvr_sim::IoEvent)s, the `Hello` /
//!   `Watermark` / `Heartbeat` / `Bye` control frames (sequence
//!   numbers, acks, and watermark frontiers), and one parser,
//!   [`codec::Decoder`] — resynchronizing over sockets, where it
//!   quarantines corrupt frames instead of poisoning the connection,
//!   and strict over journal records.
//! * `link` — the one go-back-N link under both reliable hops, router
//!   → collector and member → member: a sender window held until
//!   cumulative acks pass it and replayed on reconnect, a receiver
//!   cursor that drops duplicates and gaps, and the session-id mint.
//! * [`wal`] — a segmented append-only write-ahead log whose records
//!   are exactly the wire frames, with torn-tail detection on replay.
//!   It only frames, buffers, rotates and replays.
//! * `group_commit` — the one owner of the [`FsyncPolicy`]: a thread
//!   that fsyncs every worker's WAL series at once, per commit under
//!   `Always`, per `n` records across all series under `EveryN(n)`.
//! * [`pipeline`] + [`collector`] + `shard` + [`federation`] — the
//!   threaded TCP server: one reader thread per router connection, a
//!   bounded channel for backpressure, and **one ingest engine** — a
//!   single session loop that deduplicates events by sequence number,
//!   applies frontier-gated watermark promises, runs per-source
//!   liveness leases (silent sources are marked lagging, then evicted
//!   from the watermark gate so the fold resumes), and lets the fold
//!   advance only up to the minimum applied promise across all
//!   non-evicted sources — the merge point where the global
//!   `(time, id)` order is known. Behind it, `shards ≥ 1` fold workers
//!   (on a federation member, joined in every barrier round by the
//!   other members' shards) journal to the WAL and fold
//!   `FoldShard`s of
//!   [`HbgBuilder`](cpvr_core::builder::HbgBuilder)s and a
//!   [`TrackerSlice`](cpvr_core::snapshot::TrackerSlice) whose union is
//!   the in-process [`IngestPipeline`] fold.
//! * [`client`] — [`SocketSink`], an
//!   [`EventSink`](cpvr_sim::EventSink) that ships a router's tap over
//!   a socket with a bounded replay buffer, ack-driven pruning, and
//!   reconnect with capped exponential backoff — so a simulation
//!   doubles as a load generator for a real collector process (see the
//!   `collectord` example).
//! * `metrics` — the collector's telemetry surface over
//!   [`cpvr_obs`]: every counter/gauge/histogram the ingest path
//!   publishes, each family named once, where its handle is resolved
//!   (`CollectorMetrics`), plus the
//!   flight recorder, which follows one event in 64 from `received`
//!   through `journaled`/`acked` to `folded` and `snapshot-consistent`
//!   and feeds the `cpvr_flight_*` latency histograms. Scraped live over the same TCP port via
//!   `Frame::MetricsReq` (Prometheus text or the workspace JSON), and
//!   dumped into the [`CollectorReport`](collector::CollectorReport) at shutdown.
//! * [`fault`] — a deterministic fault-injection harness: a seeded
//!   [`fault::FaultPlan`] applied by a [`fault::ChaosProxy`] that sits
//!   between clients and the collector, dropping, corrupting,
//!   duplicating, delaying, and disconnecting the byte stream on a
//!   reproducible schedule.
//!
//! Crash recovery is the point of the WAL: every event is journaled
//! before it is ingested and every global watermark before the fold
//! advances, so the log is always at least as complete as the
//! in-memory state. Replaying it (ingest everything, advance once to
//! the last logged watermark) reconstructs the pre-crash pipeline
//! *bit-identically* — the fold is deterministic in `(time, id)` order
//! no matter how the advances were batched. The `crash_recovery`
//! integration test kills a run at every record boundary and proves the
//! recovered state finishes the stream exactly like an uninterrupted
//! run; the `chaos` integration test does the same under injected
//! network faults, end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod collector;
pub mod fault;
pub mod federation;
pub(crate) mod group_commit;
mod link;
pub(crate) mod metrics;
pub mod pipeline;
pub(crate) mod repair_journal;
mod session;
pub(crate) mod shard;
pub mod wal;

pub use client::{dump_flight, ReconnectPolicy, SocketSink};
pub use codec::{CodecVersion, Decoder, EventEncoder, Frame, RepairRecord, RepairStage};
pub use collector::CollectorStats;
pub use federation::{merge_members, CollectorRole, FederationConfig};
pub use pipeline::{IngestPipeline, PipelineConfig};
pub use repair_journal::RepairLedger;
pub use shard::FoldReport;
pub use wal::{FsyncPolicy, Wal};
