//! The collector's metric surface: every counter, gauge, and histogram
//! the ingest path publishes, declared up front in one place.
//!
//! [`CollectorMetrics`] is built once at [`Collector::start`] and shared
//! (`Arc`) by the reader threads, the session loop, the fold workers, and
//! the WAL. Declaring
//! every family here — before any handle is resolved — is what lets the
//! `obs-strict` feature turn a typo'd or undeclared metric name into a
//! panic in CI instead of a silently empty time series in production.
//!
//! The README's "Observability" section is the human-readable inventory
//! of these names; keep the two in sync.
//!
//! [`Collector::start`]: crate::collector::Collector::start

use std::sync::{Arc, Mutex};

use cpvr_core::HbrSource;
use cpvr_obs::{
    Counter, ExpoFormat, FlightRecorder, Gauge, Histogram, MetricKind, MetricsRegistry, Snapshot,
};
use cpvr_types::{RouterId, SimTime};

use crate::codec::{RepairRecord, RepairStage};
use crate::pipeline::{SourceState, SourceTable};
use crate::shard::{FoldGauges, Verdict};
use crate::wal::WalMetrics;

/// The numeric encoding of [`SourceState`] published by the per-source
/// state gauge (`cpvr_source_state`).
pub fn source_state_code(s: SourceState) -> i64 {
    match s {
        SourceState::NeverConnected => 0,
        SourceState::Live => 1,
        SourceState::Lagging => 2,
        SourceState::Evicted => 3,
    }
}

/// Per-source gauge handles, one slot per router.
struct SourceGauges {
    state: Vec<Gauge>,
    lag_nanos: Vec<Gauge>,
    next_seq: Vec<Gauge>,
}

/// All metric handles the collector's threads write through, plus the
/// registry itself for scrapes.
pub struct CollectorMetrics {
    /// The registry every series lives in; scrapes snapshot this.
    pub registry: Arc<MetricsRegistry>,

    // Connection / decode layer (reader threads).
    pub(crate) connections: Counter,
    pub(crate) bytes: Counter,
    pub(crate) frames_corrupt: Counter,
    pub(crate) resync_bytes: Counter,
    pub(crate) decode_errors: Counter,
    pub(crate) decode_nanos: Histogram,
    pub(crate) metrics_scrapes: Counter,

    // Session: per-event accounting.
    pub(crate) events_received: Counter,
    pub(crate) events_journaled: Counter,
    pub(crate) events_acked: Counter,
    pub(crate) events_duplicate: Counter,
    pub(crate) events_gap: Counter,
    pub(crate) events_late: Counter,
    pub(crate) evictions: Counter,
    pub(crate) readmissions: Counter,

    // Session: fold / watermark state.
    pub(crate) watermark_nanos: Gauge,
    pub(crate) events_folded: Gauge,
    pub(crate) events_pending: Gauge,
    pub(crate) hbg_edges: Gauge,
    /// The `cpvr_hbg_edges_offered{rule=…}` gauges, each resolved in
    /// the registry the first time its source is published.
    edges_offered: Mutex<Vec<(HbrSource, Gauge)>>,
    pub(crate) snapshot_consistent: Gauge,
    pub(crate) waits_issued: Gauge,
    pub(crate) waits_resolved: Gauge,
    pub(crate) fold_nanos: Histogram,
    pub(crate) fold_batch: Histogram,

    // Fold shards (one slot per worker; empty on a federation member,
    // whose barrier is the federated round).
    pub(crate) barrier_rounds: Counter,
    pub(crate) shard_frontier: Vec<Gauge>,
    pub(crate) shard_fold_lag: Vec<Gauge>,
    pub(crate) shard_barrier_stall: Vec<Histogram>,

    // Federation (empty vecs when the collector is not a federation
    // member; the self slot in the per-peer vecs stays at -1).
    pub(crate) fed_rounds: Counter,
    pub(crate) boundary_events_sent: Counter,
    pub(crate) boundary_events_received: Counter,
    pub(crate) boundary_bytes_sent: Counter,
    pub(crate) partial_verdict_nanos: Histogram,
    pub(crate) peer_frontier: Vec<Gauge>,
    pub(crate) peer_lag: Vec<Gauge>,

    // Proof-carrying repair lifecycle.
    pub(crate) repair_records: Counter,
    pub(crate) repair_gate_reproduced: Counter,
    pub(crate) repair_gate_diverged: Counter,
    pub(crate) repair_gate_error: Counter,
    pub(crate) repairs_in_flight: Gauge,
    /// Wall-clock of one replay-gate execution. Public: the gate runs
    /// in the control plane, which observes here after journaling the
    /// `Gated` record.
    pub repair_replay_nanos: Histogram,
    /// Root causes skipped for falling below the control loop's
    /// confidence threshold. Public: published from
    /// [`GuardReport::skipped_low_confidence`](cpvr_core::GuardReport).
    pub repair_skipped_low_confidence: Counter,
    /// Peer-advertised repair proofs received and independently
    /// re-validated by this federation member. Public so harnesses can
    /// wait on proof propagation.
    pub repair_peer_proofs: Counter,

    // Flight recorder / causal tracing.
    /// The collector's black-box flight recorder. Public so harnesses
    /// can snapshot or arm it directly; the collector arms it with the
    /// WAL directory at start.
    pub flight: Arc<FlightRecorder>,
    pub(crate) flight_ring_overwrites: Gauge,
    pub(crate) trace_bytes: Counter,
    pub(crate) watermark_stall_seconds: Gauge,
    // Sampled event flights (received → journaled → acked → folded →
    // consistent), observed from the records the flight recorder's hops
    // are stamped from.
    pub(crate) flights_started: Counter,
    pub(crate) flights_completed: Counter,
    pub(crate) flights_dropped: Counter,
    pub(crate) flight_received_to_journaled: Histogram,
    pub(crate) flight_journaled_to_acked: Histogram,
    pub(crate) flight_received_to_folded: Histogram,
    pub(crate) flight_folded_to_consistent: Histogram,

    sources: SourceGauges,
}

impl CollectorMetrics {
    /// Declares every family and resolves the static handles for a
    /// deployment of `n_routers`, folded by `shards` worker threads, as
    /// one member of a `members`-way federation (`members == 0` or `1`
    /// means standalone: no per-peer series are resolved).
    pub fn new_federated(n_routers: u32, shards: u32, members: u32) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let r = &registry;

        // Connection / decode layer.
        r.declare(
            "cpvr_connections_total",
            MetricKind::Counter,
            "Connections accepted over the collector's lifetime",
        );
        r.declare(
            "cpvr_bytes_received_total",
            MetricKind::Counter,
            "Raw bytes received across all connections",
        );
        r.declare(
            "cpvr_frames_corrupt_total",
            MetricKind::Counter,
            "Frames quarantined by the resynchronizing decoder (CRC or header damage)",
        );
        r.declare(
            "cpvr_decoder_resync_bytes_total",
            MetricKind::Counter,
            "Bytes skipped while hunting for the next frame header after damage",
        );
        r.declare(
            "cpvr_decode_errors_total",
            MetricKind::Counter,
            "Fatal protocol errors (bad handshake, undecodable payload behind a valid CRC)",
        );
        r.declare(
            "cpvr_decode_nanos",
            MetricKind::Histogram,
            "Wall-clock latency of decoding one frame off the read buffer (reader threads)",
        );
        r.declare(
            "cpvr_metrics_scrapes_total",
            MetricKind::Counter,
            "MetricsReq frames served",
        );

        // Session event accounting.
        r.declare(
            "cpvr_events_received_total",
            MetricKind::Counter,
            "Fresh events accepted by the session (post dedup/gap/late filtering)",
        );
        r.declare(
            "cpvr_events_journaled_total",
            MetricKind::Counter,
            "Fresh events appended to the WAL before ingestion",
        );
        r.declare(
            "cpvr_events_acked_total",
            MetricKind::Counter,
            "Fresh events covered by a successfully written Ack",
        );
        r.declare(
            "cpvr_events_duplicate_total",
            MetricKind::Counter,
            "Events dropped as already-accepted duplicates (reconnect replays)",
        );
        r.declare(
            "cpvr_events_gap_total",
            MetricKind::Counter,
            "Events dropped for arriving ahead of sequence",
        );
        r.declare(
            "cpvr_events_late_total",
            MetricKind::Counter,
            "Events dropped for arriving at or behind the advanced watermark",
        );
        r.declare(
            "cpvr_evictions_total",
            MetricKind::Counter,
            "Sources evicted from the watermark gate by the liveness lease",
        );
        r.declare(
            "cpvr_readmissions_total",
            MetricKind::Counter,
            "Evicted sources re-admitted after reconnecting",
        );

        // Fold / watermark state.
        r.declare(
            "cpvr_watermark_nanos",
            MetricKind::Gauge,
            "Last globally advanced watermark, in simulated nanoseconds (-1 before the first advance)",
        );
        r.declare(
            "cpvr_events_folded",
            MetricKind::Gauge,
            "Events folded into the HBG so far",
        );
        r.declare(
            "cpvr_events_pending",
            MetricKind::Gauge,
            "Ingested events still buffered behind the watermark",
        );
        r.declare(
            "cpvr_hbg_edges",
            MetricKind::Gauge,
            "Happens-before edges resident in the graph",
        );
        r.declare(
            "cpvr_hbg_edges_offered",
            MetricKind::Gauge,
            "Happens-before edges offered to the graph, by inference source (rule label)",
        );
        r.declare(
            "cpvr_snapshot_consistent",
            MetricKind::Gauge,
            "1 while the consistency tracker's verdict is Consistent, 0 while it waits",
        );
        r.declare(
            "cpvr_tracker_waits_issued",
            MetricKind::Gauge,
            "Consistent-to-wait verdict flips: times the tracker waited instead of alarming",
        );
        r.declare(
            "cpvr_tracker_waits_resolved",
            MetricKind::Gauge,
            "Wait-to-consistent verdict flips: waits that resolved",
        );
        r.declare(
            "cpvr_fold_nanos",
            MetricKind::Histogram,
            "Wall-clock latency of one watermark advance (builder fold + tracker recheck)",
        );
        r.declare(
            "cpvr_fold_batch",
            MetricKind::Histogram,
            "Events folded per watermark advance",
        );

        // Sharded fold.
        r.declare(
            "cpvr_barrier_rounds_total",
            MetricKind::Counter,
            "Two-phase cross-shard barrier rounds driven by the coordinator",
        );
        r.declare(
            "cpvr_shard_frontier_nanos",
            MetricKind::Gauge,
            "Watermark a shard's fold last advanced to, in simulated nanoseconds",
        );
        r.declare(
            "cpvr_shard_fold_lag_events",
            MetricKind::Gauge,
            "Ingested events a shard still buffers behind the watermark",
        );
        r.declare(
            "cpvr_shard_barrier_stall_nanos",
            MetricKind::Histogram,
            "Wall-clock from barrier start to a shard's phase-1 reply",
        );

        // Federation.
        r.declare(
            "cpvr_federation_rounds_total",
            MetricKind::Counter,
            "Federated verdict rounds completed (partial verdicts merged into a global verdict)",
        );
        r.declare(
            "cpvr_boundary_events_sent_total",
            MetricKind::Counter,
            "Ownership-boundary HBG events forwarded eagerly to the owning peer",
        );
        r.declare(
            "cpvr_boundary_events_received_total",
            MetricKind::Counter,
            "Ownership-boundary HBG events accepted from peers (post dedup)",
        );
        r.declare(
            "cpvr_boundary_bytes_sent_total",
            MetricKind::Counter,
            "Wire bytes of peer frames sent to federation peers",
        );
        r.declare(
            "cpvr_partial_verdict_nanos",
            MetricKind::Histogram,
            "Wall-clock from opening a federated round to merging its global verdict",
        );
        r.declare(
            "cpvr_peer_frontier_nanos",
            MetricKind::Gauge,
            "Min watermark a peer's last frontier exchange announced (-1 before the first)",
        );
        r.declare(
            "cpvr_peer_lag_nanos",
            MetricKind::Gauge,
            "How far a peer's exchanged frontier trails the furthest member (-1 before it exchanges)",
        );

        // Proof-carrying repair lifecycle.
        r.declare(
            "cpvr_repair_records_total",
            MetricKind::Counter,
            "Repair-lifecycle records journaled (duplicates excluded)",
        );
        r.declare(
            "cpvr_repair_gate_reproduced_total",
            MetricKind::Counter,
            "Replay gates that returned REPRODUCED (the repair was applied)",
        );
        r.declare(
            "cpvr_repair_gate_diverged_total",
            MetricKind::Counter,
            "Replay gates that returned DIVERGED (the repair was blocked)",
        );
        r.declare(
            "cpvr_repair_gate_error_total",
            MetricKind::Counter,
            "Replay gates that returned ERROR (tampered or structurally invalid proof)",
        );
        r.declare(
            "cpvr_repairs_in_flight",
            MetricKind::Gauge,
            "Repairs journaled but not yet decided (Applied/Blocked/RolledBack)",
        );
        r.declare(
            "cpvr_repair_replay_nanos",
            MetricKind::Histogram,
            "Wall-clock of one replay-gate execution over a proof's transcript",
        );
        r.declare(
            "cpvr_repair_skipped_low_confidence_total",
            MetricKind::Counter,
            "Root causes skipped for confidence below the control loop's threshold",
        );
        r.declare(
            "cpvr_repair_peer_proofs_total",
            MetricKind::Counter,
            "Peer-advertised repair proofs received and re-validated by this member",
        );

        // Flight recorder / causal tracing.
        r.declare(
            "cpvr_flight_dumps_total",
            MetricKind::Counter,
            "Flight-recorder dumps written, by trigger reason",
        );
        r.declare(
            "cpvr_flight_ring_overwrites",
            MetricKind::Gauge,
            "Flight-recorder ring records lost to wrap-around before any dump captured them",
        );
        r.declare(
            "cpvr_trace_bytes_total",
            MetricKind::Counter,
            "Trace-context trailer bytes carried on the wire (sent and received)",
        );
        r.declare(
            "cpvr_watermark_stall_seconds",
            MetricKind::Gauge,
            "Seconds since the global min-watermark last advanced (0 while it moves)",
        );

        r.declare(
            "cpvr_flights_started_total",
            MetricKind::Counter,
            "Sampled event flights opened at Received",
        );
        r.declare(
            "cpvr_flights_completed_total",
            MetricKind::Counter,
            "Sampled event flights that reached a consistent snapshot",
        );
        r.declare(
            "cpvr_flights_dropped_total",
            MetricKind::Counter,
            "Sampled event flights evicted by the in-flight cap",
        );
        r.declare(
            "cpvr_flight_received_to_journaled_nanos",
            MetricKind::Histogram,
            "Latency from socket receive to WAL append",
        );
        r.declare(
            "cpvr_flight_journaled_to_acked_nanos",
            MetricKind::Histogram,
            "Latency from WAL append to the covering Ack",
        );
        r.declare(
            "cpvr_flight_received_to_folded_nanos",
            MetricKind::Histogram,
            "End-to-end latency from receive to HBG fold",
        );
        r.declare(
            "cpvr_flight_folded_to_consistent_nanos",
            MetricKind::Histogram,
            "Wait between HBG fold and snapshot consistency (the paper's wait-instead-of-false-alarm)",
        );

        // Per-source liveness / lag.
        r.declare(
            "cpvr_source_state",
            MetricKind::Gauge,
            "Source lease state: 0 never-connected, 1 live, 2 lagging, 3 evicted",
        );
        r.declare(
            "cpvr_source_lag_nanos",
            MetricKind::Gauge,
            "How far the source's promise trails the furthest promise (-1 before it promises)",
        );
        r.declare(
            "cpvr_source_next_seq",
            MetricKind::Gauge,
            "One past the highest contiguously accepted sequence number for the source",
        );

        // WAL.
        r.declare(
            "cpvr_wal_appends_total",
            MetricKind::Counter,
            "Records appended to the WAL",
        );
        r.declare(
            "cpvr_wal_bytes_total",
            MetricKind::Counter,
            "Payload bytes appended to the WAL",
        );
        r.declare(
            "cpvr_wal_syncs_total",
            MetricKind::Counter,
            "fsync (sync_data) calls issued by the WAL",
        );
        r.declare(
            "cpvr_wal_rotations_total",
            MetricKind::Counter,
            "Segment rotations",
        );
        r.declare(
            "cpvr_wal_fsync_nanos",
            MetricKind::Histogram,
            "Wall-clock latency of one WAL flush+fsync",
        );

        let mut shard_frontier = Vec::new();
        let mut shard_fold_lag = Vec::new();
        let mut shard_barrier_stall = Vec::new();
        for k in 0..shards {
            let label = k.to_string();
            let l: &[(&str, &str)] = &[("shard", &label)];
            let frontier = r.gauge_with("cpvr_shard_frontier_nanos", l);
            frontier.set(-1);
            shard_frontier.push(frontier);
            shard_fold_lag.push(r.gauge_with("cpvr_shard_fold_lag_events", l));
            shard_barrier_stall.push(r.histogram_with("cpvr_shard_barrier_stall_nanos", l));
        }

        let mut peer_frontier = Vec::new();
        let mut peer_lag = Vec::new();
        if members > 1 {
            for k in 0..members {
                let label = k.to_string();
                let l: &[(&str, &str)] = &[("peer", &label)];
                peer_frontier.push(r.gauge_with("cpvr_peer_frontier_nanos", l));
                peer_lag.push(r.gauge_with("cpvr_peer_lag_nanos", l));
            }
            for g in peer_frontier.iter().chain(&peer_lag) {
                g.set(-1);
            }
        }

        let mut state = Vec::with_capacity(n_routers as usize);
        let mut lag_nanos = Vec::with_capacity(n_routers as usize);
        let mut next_seq = Vec::with_capacity(n_routers as usize);
        for i in 0..n_routers {
            let label = i.to_string();
            let l: &[(&str, &str)] = &[("router", &label)];
            state.push(r.gauge_with("cpvr_source_state", l));
            lag_nanos.push(r.gauge_with("cpvr_source_lag_nanos", l));
            next_seq.push(r.gauge_with("cpvr_source_next_seq", l));
        }
        for g in &lag_nanos {
            g.set(-1);
        }

        CollectorMetrics {
            connections: r.counter("cpvr_connections_total"),
            bytes: r.counter("cpvr_bytes_received_total"),
            frames_corrupt: r.counter("cpvr_frames_corrupt_total"),
            resync_bytes: r.counter("cpvr_decoder_resync_bytes_total"),
            decode_errors: r.counter("cpvr_decode_errors_total"),
            decode_nanos: r.histogram("cpvr_decode_nanos"),
            metrics_scrapes: r.counter("cpvr_metrics_scrapes_total"),
            events_received: r.counter("cpvr_events_received_total"),
            events_journaled: r.counter("cpvr_events_journaled_total"),
            events_acked: r.counter("cpvr_events_acked_total"),
            events_duplicate: r.counter("cpvr_events_duplicate_total"),
            events_gap: r.counter("cpvr_events_gap_total"),
            events_late: r.counter("cpvr_events_late_total"),
            evictions: r.counter("cpvr_evictions_total"),
            readmissions: r.counter("cpvr_readmissions_total"),
            watermark_nanos: {
                let g = r.gauge("cpvr_watermark_nanos");
                g.set(-1);
                g
            },
            events_folded: r.gauge("cpvr_events_folded"),
            events_pending: r.gauge("cpvr_events_pending"),
            hbg_edges: r.gauge("cpvr_hbg_edges"),
            edges_offered: Mutex::new(Vec::new()),
            snapshot_consistent: r.gauge("cpvr_snapshot_consistent"),
            waits_issued: r.gauge("cpvr_tracker_waits_issued"),
            waits_resolved: r.gauge("cpvr_tracker_waits_resolved"),
            fold_nanos: r.histogram("cpvr_fold_nanos"),
            fold_batch: r.histogram("cpvr_fold_batch"),
            barrier_rounds: r.counter("cpvr_barrier_rounds_total"),
            shard_frontier,
            shard_fold_lag,
            shard_barrier_stall,
            fed_rounds: r.counter("cpvr_federation_rounds_total"),
            boundary_events_sent: r.counter("cpvr_boundary_events_sent_total"),
            boundary_events_received: r.counter("cpvr_boundary_events_received_total"),
            boundary_bytes_sent: r.counter("cpvr_boundary_bytes_sent_total"),
            partial_verdict_nanos: r.histogram("cpvr_partial_verdict_nanos"),
            peer_frontier,
            peer_lag,
            repair_records: r.counter("cpvr_repair_records_total"),
            repair_gate_reproduced: r.counter("cpvr_repair_gate_reproduced_total"),
            repair_gate_diverged: r.counter("cpvr_repair_gate_diverged_total"),
            repair_gate_error: r.counter("cpvr_repair_gate_error_total"),
            repairs_in_flight: r.gauge("cpvr_repairs_in_flight"),
            repair_replay_nanos: r.histogram("cpvr_repair_replay_nanos"),
            repair_skipped_low_confidence: r.counter("cpvr_repair_skipped_low_confidence_total"),
            repair_peer_proofs: r.counter("cpvr_repair_peer_proofs_total"),
            flight: Arc::new(FlightRecorder::new()),
            flight_ring_overwrites: r.gauge("cpvr_flight_ring_overwrites"),
            trace_bytes: r.counter("cpvr_trace_bytes_total"),
            watermark_stall_seconds: r.gauge("cpvr_watermark_stall_seconds"),
            flights_started: r.counter("cpvr_flights_started_total"),
            flights_completed: r.counter("cpvr_flights_completed_total"),
            flights_dropped: r.counter("cpvr_flights_dropped_total"),
            flight_received_to_journaled: r.histogram("cpvr_flight_received_to_journaled_nanos"),
            flight_journaled_to_acked: r.histogram("cpvr_flight_journaled_to_acked_nanos"),
            flight_received_to_folded: r.histogram("cpvr_flight_received_to_folded_nanos"),
            flight_folded_to_consistent: r.histogram("cpvr_flight_folded_to_consistent_nanos"),
            sources: SourceGauges {
                state,
                lag_nanos,
                next_seq,
            },
            registry,
        }
    }

    /// Renders the registry in the requested exposition format. Unknown
    /// format tags fall back to JSON (see `Frame::MetricsReq`).
    pub fn render(&self, format_tag: u8) -> Vec<u8> {
        self.metrics_scrapes.inc();
        let fmt = ExpoFormat::from_byte(format_tag).unwrap_or(ExpoFormat::Json);
        fmt.render(&self.registry.snapshot()).into_bytes()
    }

    /// A point-in-time copy of every series.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Takes an anomaly dump of the flight recorder (a no-op when the
    /// recorder is unarmed) and publishes the dump/overwrite series.
    /// Returns the artifact path if one was written.
    pub(crate) fn flight_dump(&self, reason: &str) -> Option<std::path::PathBuf> {
        let path = self.flight.dump(reason);
        if path.is_some() {
            self.registry
                .counter_with("cpvr_flight_dumps_total", &[("reason", reason)])
                .inc();
        }
        self.flight_ring_overwrites
            .set(self.flight.ring_overwrites() as i64);
        path
    }

    /// The one-shot watermark-stall dump (see
    /// [`FlightRecorder::dump_stall_once`]); counts it like any other
    /// anomaly dump on the episode's first firing.
    pub(crate) fn flight_stall_dump(&self) -> Option<std::path::PathBuf> {
        let path = self.flight.dump_stall_once("stall");
        if path.is_some() {
            self.registry
                .counter_with("cpvr_flight_dumps_total", &[("reason", "stall")])
                .inc();
            self.flight_ring_overwrites
                .set(self.flight.ring_overwrites() as i64);
        }
        path
    }

    /// Publishes the fold-side gauges after an advance: fold counters,
    /// HBG size, per-rule edge offers, the verdict and its wait
    /// accounting, and the verdict horizon.
    pub(crate) fn publish_fold(&self, g: &FoldGauges, verdict: &Verdict, wm: Option<SimTime>) {
        self.events_folded.set(g.processed as i64);
        self.events_pending.set(g.pending as i64);
        self.hbg_edges.set(g.edges as i64);
        let mut offered = self.edges_offered.lock().expect("a publisher panicked");
        for (source, n) in &g.offered {
            let known = offered.iter().position(|(s, _)| s == source);
            let i = known.unwrap_or_else(|| {
                let labels = [("rule", &*source.to_string())];
                let gauge = self.registry.gauge_with("cpvr_hbg_edges_offered", &labels);
                offered.push((*source, gauge));
                offered.len() - 1
            });
            offered[i].1.set(*n as i64);
        }
        drop(offered);
        let (issued, resolved) = verdict.waits();
        self.waits_issued.set(issued as i64);
        self.waits_resolved.set(resolved as i64);
        self.snapshot_consistent
            .set(verdict.status().is_consistent() as i64);
        if let Some(wm) = wm {
            self.watermark_nanos.set(wm.as_nanos() as i64);
        }
    }

    /// The WAL-layer handles a journal publishes into.
    pub(crate) fn wal_metrics(&self) -> WalMetrics {
        let r = &self.registry;
        WalMetrics {
            appends: r.counter("cpvr_wal_appends_total"),
            bytes: r.counter("cpvr_wal_bytes_total"),
            syncs: r.counter("cpvr_wal_syncs_total"),
            rotations: r.counter("cpvr_wal_rotations_total"),
            fsync_nanos: r.histogram("cpvr_wal_fsync_nanos"),
        }
    }

    /// Publishes the effects of one freshly journaled repair-lifecycle
    /// record: the record counter, the verdict counter its `Gated`
    /// stage carries, and the in-flight gauge.
    pub(crate) fn publish_repair(&self, record: &RepairRecord, in_flight: usize) {
        self.repair_records.inc();
        if record.stage == RepairStage::Gated {
            match record.verdict {
                Some(0) => self.repair_gate_reproduced.inc(),
                Some(1) => self.repair_gate_diverged.inc(),
                Some(_) => self.repair_gate_error.inc(),
                None => {}
            }
        }
        self.repairs_in_flight.set(in_flight as i64);
    }

    /// Publishes the per-source lease/lag/cursor gauges from a source
    /// table.
    pub(crate) fn publish_sources(&self, table: &SourceTable) {
        let furthest: Option<SimTime> = (0..self.sources.state.len() as u32)
            .filter_map(|i| table.promise_of(RouterId(i)))
            .max();
        for i in 0..self.sources.state.len() as u32 {
            let r = RouterId(i);
            let idx = i as usize;
            self.sources.state[idx].set(source_state_code(table.state(r)));
            self.sources.next_seq[idx].set(table.next_seq(r) as i64);
            let lag = match (furthest, table.promise_of(r)) {
                (Some(f), Some(p)) => f.as_nanos().saturating_sub(p.as_nanos()) as i64,
                _ => -1,
            };
            self.sources.lag_nanos[idx].set(lag);
        }
    }
}
