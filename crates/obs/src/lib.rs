//! # cpvr-obs — std-only telemetry for the CPVR pipeline
//!
//! The pipeline this workspace grows — socket ingest → WAL → watermark
//! fold → `HbgBuilder` → `ConsistencyTracker` → `IncrementalVerifier` —
//! is all about causal visibility *of the network*; this crate gives the
//! pipeline the same visibility of *itself*, without taking on `tracing`
//! or `prometheus` (the workspace builds hermetically from vendored
//! code only).
//!
//! Three pieces:
//!
//! - [`MetricsRegistry`]: named counters (sharded across per-thread
//!   cells, folded on scrape), gauges, and log-bucketed histograms with
//!   p50/p90/p99/max. Writes are relaxed atomics — cheap enough for the
//!   ingest hot path.
//! - [`trace`]: the black-box flight recorder — per-thread lock-free
//!   ring buffers of causal records, anomaly-triggered `flight-*.json`
//!   dumps, and stitching of dumps from federation members into Chrome
//!   `trace_event` timelines keyed by `TraceCtx` trace ids. It is the
//!   one flight tracker: the collector follows one event in 64 through
//!   decoded → journaled → folded hops here and observes the
//!   transition latencies into registry histograms from the same
//!   records.
//! - [`expo`]: Prometheus text and compact-JSON exposition of a
//!   [`Snapshot`], served live over the collector's `MetricsReq` /
//!   `MetricsResp` frames and embedded in `CollectorReport` at
//!   shutdown.
//!
//! A metric family is declared by the call that resolves its handle
//! (name, kind and help text together), so there is no separate
//! declaration to drift from its use; two resolves that disagree on
//! kind or help panic.

pub mod expo;
pub mod registry;
pub mod trace;

pub use expo::{parse_json, render_json, render_prometheus, ExpoFormat};
pub use registry::{
    Counter, CounterSample, Gauge, GaugeSample, Histogram, HistogramSample, MetricKind,
    MetricsRegistry, Snapshot,
};
pub use trace::{chrome_trace, stitch, FlightDump, FlightRecord, FlightRecorder, RingHandle};
