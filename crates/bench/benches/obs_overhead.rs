//! A8 microbenchmarks: what one telemetry operation costs on the hot
//! path. The ingest loop pays `counter.inc()` / `histogram.observe()`
//! per event and the scraper pays `snapshot()` + render per scrape —
//! these numbers bound the end-to-end overhead measured by the A/B run
//! in `ingest_throughput` (`[A8 obs-overhead]`).
//!
//! The codec group is the per-event cost floor of the wire: one event
//! encoded into / decoded out of a reusable buffer — the same operation
//! the collector's `cpvr_decode_nanos` histogram times on live reader
//! threads.

use cpvr_bench::ingest::synthetic_events;
use cpvr_collector::{CodecVersion, Decoder, EventEncoder, Frame};
use cpvr_obs::{render_prometheus, FlightRecorder, MetricKind, MetricsRegistry};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn registry_with_traffic() -> MetricsRegistry {
    let r = MetricsRegistry::new();
    r.declare("bench_counter_total", MetricKind::Counter, "bench");
    r.declare("bench_gauge", MetricKind::Gauge, "bench");
    r.declare("bench_histogram", MetricKind::Histogram, "bench");
    for i in 0..1000u64 {
        r.counter("bench_counter_total").add(i);
        r.gauge("bench_gauge").set(i as i64);
        r.histogram("bench_histogram").observe(i * 37);
    }
    r
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead");

    // The per-event costs: one increment, one observation.
    let reg = registry_with_traffic();
    let counter = reg.counter("bench_counter_total");
    let histogram = reg.histogram("bench_histogram");
    g.bench_function("counter_inc", |b| b.iter(|| counter.inc()));
    g.bench_function("histogram_observe", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(0x9e37_79b9);
            histogram.observe(black_box(v));
        })
    });

    // Contended increments: 4 writer threads hammering the same
    // counter while the timed thread increments too — the sharded
    // counters should keep the timed op near the uncontended cost.
    {
        let reg = Arc::new(registry_with_traffic());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let ctr = reg.counter("bench_counter_total");
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        ctr.inc();
                    }
                })
            })
            .collect();
        let ctr = reg.counter("bench_counter_total");
        g.bench_function("counter_inc_contended_4writers", |b| b.iter(|| ctr.inc()));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    // What a sampled flight pays per hop: one flight-recorder record
    // (the unsampled 63 in 64 pay a branch on an `Option`).
    {
        let ring = FlightRecorder::new().register("bench", 512);
        let mut seq = 0u64;
        g.bench_function("flight_record", |b| {
            b.iter(|| {
                ring.record(2, None, 0, black_box(seq));
                seq = seq.wrapping_add(1);
            })
        });
    }

    // The scrape costs: folding every shard into a snapshot, and
    // rendering it as Prometheus text.
    let reg = registry_with_traffic();
    g.bench_function("snapshot", |b| b.iter(|| black_box(reg.snapshot())));
    let snap = reg.snapshot();
    g.bench_function("render_prometheus", |b| {
        b.iter(|| black_box(render_prometheus(&snap)))
    });
    g.bench_function("render_json", |b| {
        b.iter(|| black_box(snap.to_json_string()))
    });

    g.finish();

    // Per-event codec costs on the A7 synthetic workload. The encoder
    // keeps its scratch buffers and intern tables warm across
    // iterations, exactly like a long-lived connection.
    let mut g = c.benchmark_group("codec");
    let events = synthetic_events(0, 1, 512);
    let mut enc = EventEncoder::new(CodecVersion::V3);
    let mut out = Vec::new();
    let mut i = 0usize;
    g.bench_function("encode_event_v3", |b| {
        b.iter(|| {
            out.clear();
            enc.encode_into(i as u64, &events[i % events.len()], &mut out);
            i += 1;
            black_box(out.len())
        })
    });

    // One pre-encoded stream, decoded frame by frame: the decode half
    // of the same histogram.
    let mut enc = EventEncoder::new(CodecVersion::V3);
    let mut stream = Vec::new();
    for (seq, e) in events.iter().enumerate() {
        enc.encode_into(seq as u64, e, &mut stream);
    }
    g.bench_function("decode_event_v3", |b| {
        let mut dec = Decoder::new();
        let mut decoded = 0u64;
        b.iter(|| {
            loop {
                match dec.next_message(false) {
                    Some(Ok(msg)) => {
                        if let Frame::Event { .. } = msg.frame {
                            decoded += 1;
                            break;
                        }
                    }
                    Some(Err(e)) => panic!("clean stream must decode: {e}"),
                    None => dec.feed(&stream),
                }
            }
            black_box(decoded)
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
