//! Exposition-format coverage: a golden-file test pinning the
//! Prometheus text output, a property test that compact JSON
//! round-trips through `cpvr_types::json`, and a concurrency test that
//! scraping under contended writes never observes a torn histogram.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use cpvr_obs::{render_prometheus, ExpoFormat, MetricsRegistry, Snapshot};
use cpvr_obs::{CounterSample, GaugeSample, HistogramSample};
use proptest::prelude::*;

/// Builds a registry with one of everything, deterministically.
fn sample_registry() -> MetricsRegistry {
    let r = MetricsRegistry::new();
    let received = "Fresh events accepted by the merger";
    let dumps = "Flight-recorder dumps frozen, by anomaly trigger";
    r.counter("cpvr_events_received_total", received).add(42);
    r.counter_with("cpvr_events_received_total", received, &[("router", "1")])
        .add(7);
    r.counter_with("cpvr_flight_dumps_total", dumps, &[("reason", "eviction")])
        .add(1);
    r.counter_with("cpvr_flight_dumps_total", dumps, &[("reason", "diverged")])
        .add(2);
    r.counter(
        "cpvr_trace_bytes_total",
        "Bytes of TraceCtx trailers sent and received",
    )
    .add(1536);
    r.gauge(
        "cpvr_watermark_nanos",
        "Global min-watermark in simulated nanoseconds",
    )
    .set(123);
    r.gauge(
        "cpvr_watermark_stall_seconds",
        "Seconds the global watermark has been stuck",
    )
    .set(31);
    let h = r.histogram("cpvr_wal_fsync_nanos", "WAL fsync latency");
    for v in [0u64, 1, 900, 1000, 1_000_000] {
        h.observe(v);
    }
    r
}

/// The Prometheus rendering is pinned by a golden file; regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p cpvr-obs --test expo`.
#[test]
fn prometheus_output_matches_golden() {
    let text = render_prometheus(&sample_registry().snapshot());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &text).unwrap();
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file missing; run with UPDATE_GOLDEN=1");
    assert_eq!(
        text, golden,
        "prometheus exposition drifted from golden file"
    );
}

#[test]
fn json_format_round_trips_via_wire_enum() {
    let reg = sample_registry();
    let snap = reg.snapshot();
    let rendered = ExpoFormat::Json.render(&snap);
    let back = cpvr_obs::parse_json(&rendered).unwrap();
    assert_eq!(snap, back);
    // The format tags are stable wire bytes.
    assert_eq!(
        ExpoFormat::from_byte(ExpoFormat::Json.as_byte()),
        Some(ExpoFormat::Json)
    );
    assert_eq!(
        ExpoFormat::from_byte(ExpoFormat::Prometheus.as_byte()),
        Some(ExpoFormat::Prometheus)
    );
    assert_eq!(ExpoFormat::from_byte(9), None);
}

fn arb_labels() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec((0u8..4, 0u8..6), 0..3).prop_map(|pairs| {
        let mut l: Vec<(String, String)> = pairs
            .into_iter()
            .map(|(k, v)| (format!("k{k}"), format!("v{v}")))
            .collect();
        l.sort();
        l.dedup_by(|a, b| a.0 == b.0);
        l
    })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    let counters =
        prop::collection::vec((0u8..8, arb_labels(), any::<u64>()), 0..6).prop_map(|xs| {
            xs.into_iter()
                .map(|(n, labels, value)| CounterSample {
                    name: format!("c{n}_total"),
                    labels,
                    value,
                })
                .collect::<Vec<_>>()
        });
    let gauges = prop::collection::vec((0u8..8, arb_labels(), any::<i64>()), 0..6).prop_map(|xs| {
        xs.into_iter()
            .map(|(n, labels, value)| GaugeSample {
                name: format!("g{n}"),
                labels,
                value,
            })
            .collect::<Vec<_>>()
    });
    let histograms = prop::collection::vec(
        (
            0u8..4,
            arb_labels(),
            prop::collection::vec(any::<u64>(), 0..12),
        ),
        0..4,
    )
    .prop_map(|xs| {
        xs.into_iter()
            .map(|(n, labels, values)| {
                // Build a well-formed sample by bucketing real values,
                // mirroring what `Histogram::sample` produces.
                let mut by_bits: std::collections::BTreeMap<u64, u64> = Default::default();
                for &v in &values {
                    let bits = 64 - v.leading_zeros() as usize;
                    let upper = match bits {
                        0 => 0,
                        64 => u64::MAX,
                        b => (1u64 << b) - 1,
                    };
                    *by_bits.entry(upper).or_default() += 1;
                }
                HistogramSample {
                    name: format!("h{n}_nanos"),
                    labels,
                    count: values.len() as u64,
                    sum: values.iter().fold(0u64, |a, &v| a.wrapping_add(v)),
                    max: values.iter().copied().max().unwrap_or(0),
                    buckets: by_bits.into_iter().collect(),
                }
            })
            .collect::<Vec<_>>()
    });
    let help = prop::collection::vec((0u8..8, 0u8..4), 0..4).prop_map(|xs| {
        xs.into_iter()
            .map(|(n, h)| (format!("c{n}_total"), format!("help text {h}")))
            .collect::<Vec<_>>()
    });
    (counters, gauges, histograms, help).prop_map(|(counters, gauges, histograms, help)| Snapshot {
        counters,
        gauges,
        histograms,
        help,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any snapshot survives compact-JSON rendering and parsing
    /// bit-for-bit (all integer fields, so equality is exact).
    #[test]
    fn snapshot_round_trips_through_compact_json(snap in arb_snapshot()) {
        let text = snap.to_json_string();
        let back = Snapshot::from_json_str(&text).unwrap();
        prop_assert_eq!(snap, back);
    }
}

/// Scraping while writers hammer the same histogram must never yield a
/// torn view: the count always equals the sum of the bucket counts (by
/// construction), every observation lands in the one correct bucket,
/// the quantiles stay on that bucket's edge, and counts are monotone
/// across scrapes.
#[test]
fn scrape_under_contended_writes_never_tears() {
    const WRITERS: usize = 4;
    const PER_WRITER: u64 = 50_000;
    const VALUE: u64 = 1000; // 10 significant bits -> bucket edge 1023

    let reg = Arc::new(MetricsRegistry::new());
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            let reg = Arc::clone(&reg);
            let h = reg.histogram("lat", "contended histogram");
            let c = reg.counter("ops_total", "contended counter");
            thread::spawn(move || {
                for _ in 0..PER_WRITER {
                    h.observe(VALUE);
                    c.inc();
                }
            })
        })
        .collect();

    let scraper = {
        let reg = Arc::clone(&reg);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut last_count = 0u64;
            let mut last_ops = 0u64;
            let mut scrapes = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let snap = reg.snapshot();
                let h = snap.histogram("lat", &[]).unwrap().clone();
                // Every observation is VALUE, so only its bucket may
                // ever appear, and count must equal the bucket total.
                for &(upper, _) in &h.buckets {
                    assert_eq!(
                        upper, 1023,
                        "foreign bucket in torn scrape: {:?}",
                        h.buckets
                    );
                }
                let bucket_total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
                assert_eq!(h.count, bucket_total);
                if h.count > 0 {
                    assert_eq!(h.p50(), 1023);
                    assert_eq!(h.p99(), 1023);
                    assert_eq!(h.max, VALUE);
                }
                assert!(h.count >= last_count, "histogram count went backwards");
                last_count = h.count;
                let ops = snap.counter("ops_total", &[]).unwrap();
                assert!(ops >= last_ops, "counter went backwards");
                last_ops = ops;
                scrapes += 1;
            }
            scrapes
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().unwrap();
    assert!(scrapes > 0);

    let final_snap = reg.snapshot();
    let h = final_snap.histogram("lat", &[]).unwrap();
    let total = WRITERS as u64 * PER_WRITER;
    assert_eq!(h.count, total);
    assert_eq!(h.sum, total * VALUE);
    assert_eq!(final_snap.counter("ops_total", &[]), Some(total));
}
