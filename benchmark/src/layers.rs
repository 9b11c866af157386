//! The traced pass's in-process layer replay: the same trace pushed, one
//! horizon at a time, through each layer's public API in the order the
//! collector chains them — client encode, reader decode, WAL append and
//! sync, builder and tracker ingest, builder and tracker advance — with
//! a span around every call. No sockets, threads or channels: what is
//! left when these self-times are taken out of a socket session's CPU is
//! the cost of the plumbing between the layers.

use crate::sys;
use crate::trace::Tracer;
use crate::workload::{Input, ROUTERS};
use cpvr_collector::wal::{TempDir, WalConfig};
use cpvr_collector::{CodecVersion, Decoder, EventEncoder, Frame, FsyncPolicy, Wal};
use cpvr_core::{ConsistencyTracker, HbgBuilder, InferConfig};
use cpvr_types::SimTime;
use std::io;
use std::time::{Duration, Instant};

/// The collector's default group size: one fsync per this many records.
const SYNC_EVERY: u32 = 256;

/// Self time of each layer over the whole trace.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub horizons: u64,
    pub encode: Duration,
    pub decode: Duration,
    pub wire_bytes: u64,
    pub wal_append: Duration,
    pub wal_syncs_ms: Vec<f64>,
    pub builder_ingest: Duration,
    pub tracker_ingest: Duration,
    pub builder_advance: Duration,
    pub tracker_advance: Duration,
    /// Thread CPU (not wall) spent in everything a collector does per
    /// event between the socket and the verdict: decode, WAL append and
    /// sync, builder and tracker ingest and advance. The generator-side
    /// encode is not part of it, and neither is time blocked in `fsync`.
    pub collector_cpu: Duration,
    /// The part of `collector_cpu` spent in the kernel (journal writes).
    pub collector_kernel_cpu: Duration,
    /// Horizons whose verdict was `Consistent`.
    pub consistent_horizons: u64,
    pub edges: u64,
    pub waits: (u64, u64),
}

/// Replays the trace through every layer, stepping `grid` and then
/// `SimTime::MAX`.
pub fn replay(input: &Input, grid: &[SimTime], tracer: &Tracer) -> io::Result<LayerTimes> {
    let events = input.workload();
    let n = ROUTERS as usize;
    let mut encoders: Vec<EventEncoder> = (0..n)
        .map(|_| EventEncoder::new(CodecVersion::V3))
        .collect();
    let mut decoders: Vec<Decoder> = (0..n).map(|_| Decoder::new()).collect();
    let mut seqs = vec![0u64; n];
    let mut wire: Vec<Vec<u8>> = vec![Vec::new(); n];
    let dir = TempDir::new("layers")?;
    let mut wal_cfg = WalConfig::new(dir.path());
    // Syncs are issued (and timed) explicitly below, at the cadence the
    // collector's default policy would issue them.
    wal_cfg.fsync = FsyncPolicy::Never;
    let mut wal = Wal::open(wal_cfg)?;
    let mut builder = HbgBuilder::new(&InferConfig {
        rules: true,
        patterns: None,
        min_confidence: 0.9,
        proximate: false,
    });
    let mut tracker = ConsistencyTracker::new(n);
    let mut out = LayerTimes::default();

    let mut lo = 0usize;
    let steps = grid.iter().copied().chain(std::iter::once(SimTime::MAX));
    for (k, h) in steps.enumerate() {
        let hi = lo + events[lo..].partition_point(|e| e.time <= h);
        let slice = &events[lo..hi];
        let count = slice.len() as u64;
        let item = k as u64;
        let t_horizon = Instant::now();
        let parent = tracer.reserve();

        let t0 = Instant::now();
        for e in slice {
            let r = e.router.index();
            encoders[r].encode_into(seqs[r], e, &mut wire[r]);
            seqs[r] += 1;
        }
        out.encode += t0.elapsed();
        tracer.record(parent, "collector.codec.encode", t0, item, count);
        out.wire_bytes += wire.iter().map(|w| w.len() as u64).sum::<u64>();

        let (cpu0, kernel0) = (sys::thread_cpu(), sys::thread_kernel_cpu());
        let t0 = Instant::now();
        let mut decoded = Vec::with_capacity(slice.len());
        for (r, w) in wire.iter_mut().enumerate() {
            decoders[r].feed(w);
            w.clear();
            while let Some(msg) = decoders[r].next_message(true) {
                decoded.push(msg.map_err(|e| io::Error::other(e.to_string()))?);
            }
        }
        out.decode += t0.elapsed();
        tracer.record(parent, "collector.codec.decode", t0, item, count);

        // Syncs are child spans of the append span, so the table's self
        // time for the append row is pure append.
        let t0 = Instant::now();
        let append_span = tracer.reserve();
        let mut synced = Duration::ZERO;
        for msg in &decoded {
            wal.append(msg.raw.as_deref().expect("raw bytes were requested"))?;
            if wal.pending_sync() >= SYNC_EVERY {
                let t1 = Instant::now();
                wal.sync()?;
                synced += t1.elapsed();
                out.wal_syncs_ms.push(t1.elapsed().as_secs_f64() * 1e3);
                tracer.record(append_span, "collector.wal.sync", t1, item, 1);
            }
        }
        out.wal_append += t0.elapsed() - synced;
        let span = tracer.span(
            append_span,
            parent,
            "collector.wal.append",
            t0,
            item,
            count,
            0,
        );
        tracer.extend(vec![span]);

        let t0 = Instant::now();
        for msg in &decoded {
            if let Frame::Event { event, .. } = &msg.frame {
                builder.ingest(event);
            }
        }
        out.builder_ingest += t0.elapsed();
        tracer.record(parent, "core.builder.ingest", t0, item, count);

        let t0 = Instant::now();
        for msg in &decoded {
            if let Frame::Event { event, .. } = &msg.frame {
                tracker.ingest(event);
            }
        }
        out.tracker_ingest += t0.elapsed();
        tracer.record(parent, "core.snapshot.ingest", t0, item, count);

        let t0 = Instant::now();
        builder.advance(h);
        out.builder_advance += t0.elapsed();
        tracer.record(parent, "core.builder.advance", t0, item, count);

        let t0 = Instant::now();
        let status = tracker.advance(h);
        out.tracker_advance += t0.elapsed();
        tracer.record(parent, "core.snapshot.advance", t0, item, count);
        out.collector_cpu += sys::thread_cpu() - cpu0;
        out.collector_kernel_cpu += sys::thread_kernel_cpu() - kernel0;
        if h != SimTime::MAX {
            out.horizons += 1;
            out.consistent_horizons += u64::from(status.is_consistent());
        }

        let span = tracer.span(
            parent,
            0,
            "benchmark.layers.horizon",
            t_horizon,
            item,
            count,
            0,
        );
        tracer.extend(vec![span]);
        lo = hi;
    }
    wal.close()?;
    out.edges = builder.hbg().edges().len() as u64;
    out.waits = tracker.wait_stats();
    Ok(out)
}
