//! The metric names and units of `BENCHMARK.json`, and the result line.

use cpvr_types::json::Value;
use std::fmt::Write as _;

/// `(name, unit)` of the eight end-to-end figures the untraced pass
/// measures and `--calibrate` summarizes.
pub const MEASURED: [(&str, &str); 8] = [
    ("ingest_events_per_s", "1/s"),
    ("ingest_cpu_us_per_event", "us"),
    ("verdict_latency_ms_p50", "ms"),
    ("verdict_latency_ms_p90", "ms"),
    ("repair_ms_per_incident", "ms"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The `end_to_end` list of `BENCHMARK.json`: those of [`MEASURED`] that
/// `calibration.json` marks `end_to_end` — their same-code spread stays
/// within 5 % on every workload, so they can carry a bound of at most
/// 0.10 — plus `setup_s`, which the contract wants bounded whatever its
/// spread. On the calibration box, whose speed itself moves by a tenth
/// or more from minute to minute, no timing qualifies; the other seven
/// are listed in [`PER_LAYER`] instead, where the traced pass reports
/// them from its own sessions.
pub const END_TO_END: [(&str, &str); 1] = [("setup_s", "s")];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
/// The name up to its last dot is the layer (crate and module).
pub const PER_LAYER: [(&str, &str); 61] = [
    ("ingest_events_per_s", "1/s"),
    ("ingest_cpu_us_per_event", "us"),
    ("verdict_latency_ms_p50", "ms"),
    ("verdict_latency_ms_p90", "ms"),
    ("repair_ms_per_incident", "ms"),
    ("recovery_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim.trace_gen_s", "s"),
    ("collector.pipeline.reference_fold_s", "s"),
    ("collector.client.send_ns_per_event", "ns"),
    ("collector.client.watermark_us_per_call", "us"),
    ("collector.client.drain_ms", "ms"),
    ("loadgen.cpu_us_per_event", "us"),
    ("collector.codec.encode_ns_per_event", "ns"),
    ("collector.codec.decode_ns_per_event", "ns"),
    ("collector.codec.bytes_per_event", "B"),
    ("collector.wal.append_ns_per_event", "ns"),
    ("collector.wal.sync_ms_p50", "ms"),
    ("collector.wal.syncs_per_kevent", "count"),
    ("collector.wal.bytes_per_event", "B"),
    ("core.builder.ingest_ns_per_event", "ns"),
    ("core.snapshot.ingest_ns_per_event", "ns"),
    ("collector.fold.overhead_us_per_event", "us"),
    ("collector.collector.start_ms", "ms"),
    ("collector.collector.shutdown_ms", "ms"),
    ("collector.pipeline.dup_gap_late_events", "count"),
    ("core.builder.advance_us_per_horizon", "us"),
    ("core.builder.edges_per_event", "count"),
    ("core.snapshot.advance_us_per_horizon", "us"),
    ("core.snapshot.waits_issued", "count"),
    ("core.snapshot.waits_resolved", "count"),
    ("core.snapshot.consistent_horizon_ratio", "ratio"),
    ("collector.shard.barrier_rounds", "count"),
    ("collector.shard.barrier_stall_ms_p50", "ms"),
    ("federation.rounds", "count"),
    ("federation.round_ms_p50", "ms"),
    ("federation.boundary_events_per_event", "count"),
    ("federation.boundary_bytes_per_event", "B"),
    ("federation.cpu_overhead_us_per_event", "us"),
    ("federation.launch_ms", "ms"),
    ("federation.shutdown_ms", "ms"),
    ("collector.wal.replay_ns_per_event", "ns"),
    ("collector.pipeline.recover_ns_per_event", "ns"),
    ("collector.wal.segments", "count"),
    ("verify.incremental.apply_us", "us"),
    ("verify.incremental.report_us", "us"),
    ("core.provenance.root_causes_us", "us"),
    ("core.repair.propose_us", "us"),
    ("core.proof.prove_us", "us"),
    ("verify.replay.gate_us", "us"),
    ("collector.repair_journal.journal_ms_per_record", "ms"),
    ("collector.federation.peer_proof_verify_ms", "ms"),
    ("paced.gen_lag_ms_p90", "ms"),
    ("paced.horizons_missed", "count"),
    ("paced.backlog_growth_ms", "ms"),
    ("paced.verdict_latency_ms_p99", "ms"),
    ("process.involuntary_ctx_switches_per_kevent", "count"),
    ("process.collector_kernel_us_per_event", "us"),
    ("process.repair_cpu_share_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.attributed_pct", "%"),
];

/// One pass's metric values, keyed by the fixed name list it was
/// created over. Setting an unknown name or leaving one unset is a bug
/// in the benchmark and panics.
pub struct Metrics {
    names: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(names: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            names,
            values: vec![None; names.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.offer(name, value),
            "metric {name} is not in this pass's list"
        );
    }

    /// Sets `name` if this pass lists it; returns whether it does. For the
    /// [`MEASURED`] figures, which a pass reports only when calibration
    /// put them on its list.
    pub fn offer(&mut self, name: &str, value: f64) -> bool {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.names.iter().position(|(n, _)| *n == name) {
            Some(i) => {
                self.values[i] = Some(value);
                true
            }
            None => false,
        }
    }

    /// The metrics of this set that `names` lists, in `names` order.
    pub fn subset(&self, names: &'static [(&'static str, &'static str)]) -> Metrics {
        let mut out = Metrics::new(names);
        for (name, _, value) in self.rows() {
            out.offer(name, value);
        }
        out
    }

    fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.names.iter().zip(&self.values).map(|((n, u), v)| {
            let v = v.unwrap_or_else(|| panic!("metric {n} was never set"));
            (*n, *u, v)
        })
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit, value) in self.rows() {
            let _ = writeln!(out, "{name:<52} {value:>16.4} {unit}");
        }
        out
    }

    /// The one-line JSON result the driver reads.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let metrics = self
            .rows()
            .map(|(name, unit, value)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(failed == 0)),
            ("attempted".into(), Value::U64(attempted)),
            ("failed".into(), Value::U64(failed)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .render_compact()
    }
}
