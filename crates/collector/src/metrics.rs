//! The collector's metric surface: every counter, gauge, and histogram
//! the ingest path publishes, each family named in one place.
//!
//! [`CollectorMetrics`] is built once at [`Collector::start`] and shared
//! (`Arc`) by the reader threads, the session loop, the fold workers, and
//! the WAL. It is always on, and it is the collector's one set of
//! counters: [`CollectorStats`] is a view of it
//! ([`CollectorMetrics::stats`]). Resolving a handle declares its family
//! — name, kind and help text in one call — so a family cannot be used
//! without help, and no second list has to be kept in step.
//!
//! The inventory of these names is a scrape: every family with a series
//! carries a `# HELP` line in the Prometheus rendering.
//!
//! [`Collector::start`]: crate::collector::Collector::start

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use cpvr_core::snapshot::Verdict;
use cpvr_obs::{Counter, ExpoFormat, FlightRecorder, Gauge, Histogram, MetricsRegistry, Snapshot};
use cpvr_types::{RouterId, SimTime};

use crate::codec::{RepairRecord, RepairStage};
use crate::collector::CollectorStats;
use crate::pipeline::{SourceState, SourceTable};
use crate::shard::FoldGauges;
use crate::wal::WalMetrics;

/// The numeric encoding of [`SourceState`] published by the per-source
/// state gauge (`cpvr_source_state`).
pub(crate) fn source_state_code(s: SourceState) -> i64 {
    match s {
        SourceState::NeverConnected => 0,
        SourceState::Live => 1,
        SourceState::Lagging => 2,
        SourceState::Evicted => 3,
    }
}

/// A simulated time as a nanosecond gauge value, saturating at
/// `i64::MAX` — which is where a finished stream's `SimTime::MAX` lands,
/// so it never reads as the −1 of "not yet".
pub(crate) fn gauge_nanos(t: SimTime) -> i64 {
    i64::try_from(t.as_nanos()).unwrap_or(i64::MAX)
}

/// The furthest of some promises or frontiers, for a lag gauge: a
/// finished one (`SimTime::MAX`) is not ahead of anybody.
pub(crate) fn furthest(all: impl Iterator<Item = Option<SimTime>>) -> Option<SimTime> {
    all.flatten().filter(|t| *t != SimTime::MAX).max()
}

/// How far `v` trails `furthest`: −1 while `v` is unknown, 0 once it is
/// finished.
pub(crate) fn lag_nanos(furthest: Option<SimTime>, v: Option<SimTime>) -> i64 {
    match (furthest, v) {
        (_, None) => -1,
        (Some(f), Some(v)) if v != SimTime::MAX => gauge_nanos(f.saturating_sub(v)),
        _ => 0,
    }
}

/// Per-source gauge handles, one slot per router.
struct SourceGauges {
    state: Vec<Gauge>,
    lag_nanos: Vec<Gauge>,
}

/// All metric handles the collector's threads write through, plus the
/// registry itself for scrapes.
pub struct CollectorMetrics {
    /// The registry every series lives in; scrapes snapshot this.
    pub(crate) registry: Arc<MetricsRegistry>,

    // Connection / decode layer (reader threads).
    pub(crate) connections: Counter,
    pub(crate) bytes: Counter,
    pub(crate) frames_corrupt: Counter,
    pub(crate) resync_bytes: Counter,
    pub(crate) decode_errors: Counter,
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
    pub(crate) waits_issued: Gauge,
    pub(crate) waits_resolved: Gauge,

    // Fold shards (one slot per worker).
    pub(crate) barrier_rounds: Counter,
    pub(crate) shard_barrier_stall: Vec<Histogram>,

    // Federation (empty vecs when the collector is not a federation
    // member; the self slot in the per-peer vecs stays at -1).
    pub(crate) fed_rounds: Counter,
    pub(crate) boundary_events_sent: Counter,
    pub(crate) boundary_events_received: Counter,
    pub(crate) boundary_bytes_sent: Counter,
    pub(crate) peer_ack_stalls: Counter,
    pub(crate) partial_verdict_nanos: Histogram,
    pub(crate) peer_lag: Vec<Gauge>,

    // Proof-carrying repair lifecycle.
    pub(crate) repair_records: Counter,
    pub(crate) repair_gate_reproduced: Counter,
    pub(crate) repair_gate_diverged: Counter,
    pub(crate) repair_gate_error: Counter,
    pub(crate) repairs_in_flight: Gauge,
    /// Peer-advertised repair proofs received and independently
    /// re-validated by this federation member. Public so harnesses can
    /// wait on proof propagation.
    pub repair_peer_proofs: Counter,

    // Flight recorder / causal tracing.
    /// The collector's black-box flight recorder. Public so harnesses
    /// can snapshot or arm it directly; the collector arms it with the
    /// WAL directory at start.
    pub flight: Arc<FlightRecorder>,
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
    /// Resolves (and so declares) the static handles for a
    /// deployment of `n_routers`, folded by `shards` worker threads, as
    /// one member of a `members`-way federation (`members == 0` or `1`
    /// means standalone: no per-peer series are resolved).
    pub(crate) fn new(n_routers: u32, shards: u32, members: u32) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let r = &registry;

        let shard_barrier_stall = (0..shards)
            .map(|k| {
                r.histogram_with(
                    "cpvr_shard_barrier_stall_nanos",
                    "Wall-clock from barrier start to a shard's phase-1 reply",
                    &[("shard", &k.to_string())],
                )
            })
            .collect();

        let mut peer_lag = Vec::new();
        if members > 1 {
            for k in 0..members {
                let g = r.gauge_with(
                    "cpvr_peer_lag_nanos",
                    "How far a peer's exchanged frontier trails the furthest unfinished member (-1 before \
                     it exchanges, 0 once it finished)",
                    &[("peer", &k.to_string())],
                );
                g.set(-1);
                peer_lag.push(g);
            }
        }

        let mut state = Vec::with_capacity(n_routers as usize);
        let mut lag_nanos = Vec::with_capacity(n_routers as usize);
        for i in 0..n_routers {
            let label = i.to_string();
            let l: &[(&str, &str)] = &[("router", &label)];
            state.push(r.gauge_with(
                "cpvr_source_state",
                "Source lease state: 0 never-connected, 1 live, 2 lagging, 3 evicted",
                l,
            ));
            lag_nanos.push(r.gauge_with(
                "cpvr_source_lag_nanos",
                "How far the source's promise trails the furthest unfinished promise (-1 before it \
                 promises, 0 once it finished)",
                l,
            ));
        }
        for g in &lag_nanos {
            g.set(-1);
        }

        CollectorMetrics {
            connections: r.counter(
                "cpvr_connections_total",
                "Connections accepted over the collector's lifetime",
            ),
            bytes: r.counter(
                "cpvr_bytes_received_total",
                "Raw bytes received across all connections",
            ),
            frames_corrupt: r.counter(
                "cpvr_frames_corrupt_total",
                "Frames quarantined by the resynchronizing decoder (CRC or header damage)",
            ),
            resync_bytes: r.counter(
                "cpvr_decoder_resync_bytes_total",
                "Bytes skipped while hunting for the next frame header after damage",
            ),
            decode_errors: r.counter(
                "cpvr_decode_errors_total",
                "Fatal protocol errors (bad handshake, undecodable payload behind a valid CRC)",
            ),
            metrics_scrapes: r.counter(
                "cpvr_metrics_scrapes_total",
                "MetricsReq frames served",
            ),
            events_received: r.counter(
                "cpvr_events_received_total",
                "Fresh events accepted by the session (post dedup/gap/late filtering)",
            ),
            events_journaled: r.counter(
                "cpvr_events_journaled_total",
                "Fresh events appended to the WAL before ingestion",
            ),
            events_acked: r.counter(
                "cpvr_events_acked_total",
                "Fresh events covered by a successfully written Ack",
            ),
            events_duplicate: r.counter(
                "cpvr_events_duplicate_total",
                "Events dropped as already-accepted duplicates (reconnect replays)",
            ),
            events_gap: r.counter(
                "cpvr_events_gap_total",
                "Events dropped for arriving ahead of sequence",
            ),
            events_late: r.counter(
                "cpvr_events_late_total",
                "Events dropped for arriving at or behind the advanced watermark",
            ),
            evictions: r.counter(
                "cpvr_evictions_total",
                "Sources evicted from the watermark gate by the liveness lease",
            ),
            readmissions: r.counter(
                "cpvr_readmissions_total",
                "Evicted sources re-admitted after reconnecting",
            ),
            watermark_nanos: {
                let g = r.gauge(
                    "cpvr_watermark_nanos",
                    "Last globally advanced watermark, in simulated nanoseconds (-1 before the first advance, \
                     i64::MAX once every source finished)",
                );
                g.set(-1);
                g
            },
            events_folded: r.gauge(
                "cpvr_events_folded",
                "Events folded into the HBG so far",
            ),
            events_pending: r.gauge(
                "cpvr_events_pending",
                "Ingested events still buffered behind the watermark",
            ),
            waits_issued: r.gauge(
                "cpvr_tracker_waits_issued",
                "Consistent-to-wait verdict flips: times the tracker waited instead of alarming",
            ),
            waits_resolved: r.gauge(
                "cpvr_tracker_waits_resolved",
                "Wait-to-consistent verdict flips: waits that resolved",
            ),
            barrier_rounds: r.counter(
                "cpvr_barrier_rounds_total",
                "Barrier rounds completed (on a federation member, every federated round)",
            ),
            shard_barrier_stall,
            fed_rounds: r.counter(
                "cpvr_federation_rounds_total",
                "Federated verdict rounds completed (partial verdicts merged into a global verdict)",
            ),
            boundary_events_sent: r.counter(
                "cpvr_boundary_events_sent_total",
                "Ownership-boundary HBG events forwarded eagerly to the owning peer",
            ),
            boundary_events_received: r.counter(
                "cpvr_boundary_events_received_total",
                "Ownership-boundary HBG events accepted from peers (post late gate, dedup and router check)",
            ),
            boundary_bytes_sent: r.counter(
                "cpvr_boundary_bytes_sent_total",
                "Wire bytes of peer frames sent to federation peers (first sends; go-back-N replays \
                 are not counted)",
            ),
            peer_ack_stalls: r.counter(
                "cpvr_peer_ack_stalls_total",
                "Live peer links dropped because their unacked frames saw no ack progress for the \
                 stall bound; each drop replays the link's whole unacked window on reconnect",
            ),
            partial_verdict_nanos: r.histogram(
                "cpvr_partial_verdict_nanos",
                "Wall-clock from opening a federated round to merging its global verdict",
            ),
            peer_lag,
            repair_records: r.counter(
                "cpvr_repair_records_total",
                "Repair-lifecycle records journaled (duplicates excluded)",
            ),
            repair_gate_reproduced: r.counter(
                "cpvr_repair_gate_reproduced_total",
                "Replay gates that returned REPRODUCED (the repair was applied)",
            ),
            repair_gate_diverged: r.counter(
                "cpvr_repair_gate_diverged_total",
                "Replay gates that returned DIVERGED (the repair was blocked)",
            ),
            repair_gate_error: r.counter(
                "cpvr_repair_gate_error_total",
                "Replay gates that returned ERROR (tampered or structurally invalid proof)",
            ),
            repairs_in_flight: r.gauge(
                "cpvr_repairs_in_flight",
                "Repairs journaled but not yet decided (Applied/Blocked/RolledBack)",
            ),
            repair_peer_proofs: r.counter(
                "cpvr_repair_peer_proofs_total",
                "Peer-advertised repair proofs received and re-validated by this member",
            ),
            flight: Arc::new(FlightRecorder::new()),
            trace_bytes: r.counter(
                "cpvr_trace_bytes_total",
                "Trace-context trailer bytes carried on the wire (sent and received)",
            ),
            watermark_stall_seconds: r.gauge(
                "cpvr_watermark_stall_seconds",
                "Seconds the first event waiting behind a still global min-watermark has waited",
            ),
            flights_started: r.counter(
                "cpvr_flights_started_total",
                "Sampled event flights opened at Received",
            ),
            flights_completed: r.counter(
                "cpvr_flights_completed_total",
                "Sampled event flights that reached a consistent snapshot",
            ),
            flights_dropped: r.counter(
                "cpvr_flights_dropped_total",
                "Sampled event flights evicted by the in-flight cap",
            ),
            flight_received_to_journaled: r.histogram(
                "cpvr_flight_received_to_journaled_nanos",
                "Latency from socket receive to the hand-off to the journaling worker",
            ),
            flight_journaled_to_acked: r.histogram(
                "cpvr_flight_journaled_to_acked_nanos",
                "Latency from the hand-off to the worker wake that journals, commits and acks the batch",
            ),
            flight_received_to_folded: r.histogram(
                "cpvr_flight_received_to_folded_nanos",
                "End-to-end latency from receive to HBG fold",
            ),
            flight_folded_to_consistent: r.histogram(
                "cpvr_flight_folded_to_consistent_nanos",
                "Wait between HBG fold and snapshot consistency (the paper's wait-instead-of-false-alarm)",
            ),
            sources: SourceGauges { state, lag_nanos },
            registry,
        }
    }

    /// Renders the registry in the requested exposition format. Unknown
    /// format tags fall back to JSON (see `Frame::MetricsReq`).
    pub(crate) fn render(&self, format_tag: u8) -> Vec<u8> {
        self.metrics_scrapes.inc();
        let fmt = ExpoFormat::from_byte(format_tag).unwrap_or(ExpoFormat::Json);
        fmt.render(&self.registry.snapshot()).into_bytes()
    }

    /// A point-in-time copy of every series.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Takes an anomaly dump of the flight recorder (a no-op when the
    /// recorder is unarmed) and counts it. Returns the artifact path if
    /// one was written.
    pub(crate) fn flight_dump(&self, reason: &str) -> Option<std::path::PathBuf> {
        self.count_dump(reason, self.flight.dump(reason))
    }

    /// The one-shot watermark-stall dump (see
    /// [`FlightRecorder::dump_stall_once`]); counts it like any other
    /// anomaly dump on the episode's first firing.
    pub(crate) fn flight_stall_dump(&self) -> Option<std::path::PathBuf> {
        self.count_dump("stall", self.flight.dump_stall_once("stall"))
    }

    /// Counts a written dump under its trigger reason.
    fn count_dump(
        &self,
        reason: &str,
        path: Option<std::path::PathBuf>,
    ) -> Option<std::path::PathBuf> {
        if path.is_some() {
            self.registry
                .counter_with(
                    "cpvr_flight_dumps_total",
                    "Flight-recorder dumps written, by trigger reason",
                    &[("reason", reason)],
                )
                .inc();
        }
        path
    }

    /// Publishes the fold-side gauges after an advance: fold counters
    /// and the verdict's wait accounting.
    pub(crate) fn publish_fold(&self, g: &FoldGauges, verdict: &Verdict) {
        self.events_folded.set(g.processed as i64);
        self.events_pending.set(g.pending as i64);
        let (issued, resolved) = verdict.waits();
        self.waits_issued.set(issued as i64);
        self.waits_resolved.set(resolved as i64);
    }

    /// Publishes the verdict horizon — last, after every gauge and
    /// flight record of its advance: the release fence pairs with the
    /// acquire fence in [`stats`](Self::stats), so whoever sees this
    /// watermark there also sees those.
    pub(crate) fn publish_watermark(&self, wm: SimTime) {
        fence(Ordering::Release);
        self.watermark_nanos.set(gauge_nanos(wm));
    }

    /// The collector's counters, read from the registry.
    pub(crate) fn stats(&self) -> CollectorStats {
        let watermark = match self.watermark_nanos.value() {
            i64::MAX => Some(SimTime::MAX),
            nanos => u64::try_from(nanos).ok().map(SimTime::from_nanos),
        };
        fence(Ordering::Acquire);
        CollectorStats {
            connections: self.connections.value(),
            events: self.events_received.value(),
            bytes: self.bytes.value(),
            decode_errors: self.decode_errors.value(),
            corrupt_frames: self.frames_corrupt.value(),
            duplicate_events: self.events_duplicate.value(),
            gap_events: self.events_gap.value(),
            late_events: self.events_late.value(),
            evictions: self.evictions.value(),
            readmissions: self.readmissions.value(),
            repair_records: self.repair_records.value(),
            watermark,
        }
    }

    /// The WAL-layer handles a journal publishes into.
    pub(crate) fn wal_metrics(&self) -> WalMetrics {
        let r = &self.registry;
        WalMetrics {
            appends: r.counter("cpvr_wal_appends_total", "Records appended to the WAL"),
            bytes: r.counter("cpvr_wal_bytes_total", "Payload bytes appended to the WAL"),
            syncs: r.counter(
                "cpvr_wal_syncs_total",
                "fsync (sync_data) calls issued by the WAL",
            ),
            dir_syncs: r.counter(
                "cpvr_wal_dir_syncs_total",
                "fsync calls issued on the WAL directory after each new segment, and on the \
                 parent of a WAL directory the collector created",
            ),
            rotations: r.counter("cpvr_wal_rotations_total", "Segment rotations"),
            fsync_nanos: r.histogram(
                "cpvr_wal_fsync_nanos",
                "Wall-clock latency of one WAL flush+fsync",
            ),
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

    /// Publishes the per-source lease and lag gauges from a source
    /// table.
    pub(crate) fn publish_sources(&self, table: &SourceTable) {
        let routers = (0..self.sources.state.len() as u32).map(RouterId);
        let furthest = furthest(routers.clone().map(|r| table.promise_of(r)));
        for (idx, r) in routers.enumerate() {
            self.sources.state[idx].set(source_state_code(table.state(r)));
            self.sources.lag_nanos[idx].set(lag_nanos(furthest, table.promise_of(r)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished stream publishes `i64::MAX`, not the −1 of "never
    /// advanced", reads back as `SimTime::MAX`, and neither leads nor
    /// lags the sources still streaming.
    #[test]
    fn a_finished_stream_saturates_its_gauges() {
        let m = CollectorMetrics::new(3, 1, 0);
        assert_eq!(m.stats().watermark, None);
        m.publish_watermark(SimTime::from_nanos(7));
        assert_eq!(m.stats().watermark, Some(SimTime::from_nanos(7)));
        m.publish_watermark(SimTime::MAX);
        assert_eq!(m.watermark_nanos.value(), i64::MAX);
        assert_eq!(m.stats().watermark, Some(SimTime::MAX));

        let mut table = SourceTable::new(3);
        table.bye(RouterId(0), 0);
        table.promise(RouterId(1), SimTime::from_nanos(5), 0);
        table.promise(RouterId(2), SimTime::from_nanos(9), 0);
        m.publish_sources(&table);
        let lags: Vec<i64> = m.sources.lag_nanos.iter().map(Gauge::value).collect();
        assert_eq!(lags, [0, 4, 0]);

        let fresh = SourceTable::new(3);
        m.publish_sources(&fresh);
        let lags: Vec<i64> = m.sources.lag_nanos.iter().map(Gauge::value).collect();
        assert_eq!(lags, [-1, -1, -1]);
    }

    /// Every family a collector publishes renders with its help text:
    /// each `# TYPE` line follows the `# HELP` line of the same family.
    #[test]
    fn every_family_carries_help() {
        let m = CollectorMetrics::new(4, 2, 3);
        m.wal_metrics();
        let text = String::from_utf8(m.render(ExpoFormat::Prometheus.as_byte())).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mut families = 0;
        for (i, line) in lines.iter().enumerate() {
            let Some(rest) = line.strip_prefix("# TYPE ") else {
                continue;
            };
            let name = rest.split(' ').next().unwrap();
            let help = format!("# HELP {name} ");
            assert!(
                i > 0 && lines[i - 1].starts_with(&help) && lines[i - 1].len() > help.len(),
                "family `{name}` has no help text"
            );
            families += 1;
        }
        // All 52 but the one resolved on first use: flight dumps by
        // reason.
        assert_eq!(families, 51);
    }
}
