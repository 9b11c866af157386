//! What the collector's integration suites share: the paper-scenario
//! trace, its per-router wire order, the in-process reference fold, and
//! the comparison every bit-identity claim is made with.
#![allow(dead_code)] // each suite uses its own subset

use cpvr_collector::pipeline::{IngestPipeline, PipelineConfig};
use cpvr_collector::FoldReport;
use cpvr_dataplane::{DataPlane, FibEntry};
use cpvr_sim::scenario::paper_scenario;
use cpvr_sim::{CaptureProfile, IoEvent, LatencyProfile};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};

/// Routers in the paper scenario.
pub const N_ROUTERS: u32 = 3;

/// A comparable rendering of every FIB entry and capture time.
pub type DpFingerprint = Vec<(u32, Vec<(Ipv4Prefix, FibEntry)>, SimTime)>;

pub fn dataplane_fingerprint(dp: &DataPlane) -> DpFingerprint {
    (0..dp.num_routers() as u32)
        .map(|r| {
            let r = RouterId(r);
            (r.0, dp.fib(r).entries(), dp.taken_at(r))
        })
        .collect()
}

/// Runs the paper scenario to quiescence twice (announce, re-announce)
/// and returns the full capture trace.
pub fn sample_events(seed: u64) -> Vec<IoEvent> {
    sample_events_with(CaptureProfile::ideal(), seed)
}

pub fn sample_events_with(capture: CaptureProfile, seed: u64) -> Vec<IoEvent> {
    let mut s = paper_scenario(LatencyProfile::fast(), capture, seed);
    s.sim.start();
    s.sim.run_to_quiescence(100_000);
    s.sim
        .schedule_ext_announce(s.sim.now() + SimTime::from_millis(5), s.ext_r1, &[s.prefix]);
    s.sim.schedule_ext_announce(
        s.sim.now() + SimTime::from_millis(400),
        s.ext_r2,
        &[s.prefix],
    );
    s.sim.run_to_quiescence(100_000);
    s.sim.trace().events.clone()
}

/// `events` for one router, in the deterministic wire order.
pub fn events_for(events: &[IoEvent], router: RouterId) -> Vec<IoEvent> {
    let mut mine: Vec<IoEvent> = events
        .iter()
        .filter(|e| e.router == router)
        .cloned()
        .collect();
    mine.sort_by_key(|e| (e.time, e.id));
    mine
}

/// The in-process truth every collector run must reproduce exactly:
/// the whole trace ingested, then advanced through `grid`.
pub fn reference_pipeline(events: &[IoEvent], grid: &[SimTime]) -> IngestPipeline {
    let mut p = IngestPipeline::new(PipelineConfig::new(N_ROUTERS));
    for e in events {
        p.ingest(e);
    }
    for &t in grid {
        p.advance(t);
    }
    p
}

/// Everything about a fold that does not depend on how its advances
/// were batched: events, HBG, verdict, watermark, data plane.
pub fn assert_same_fold(got: &FoldReport, reference: &IngestPipeline, label: &str) {
    assert_eq!(got.events(), reference.events(), "{label}: event count");
    assert_eq!(
        got.processed(),
        reference.builder().processed(),
        "{label}: folded event count"
    );
    assert_eq!(
        got.canonical_edges(),
        reference.builder().hbg().canonical_edges(),
        "{label}: HBG must be bit-identical"
    );
    assert_eq!(
        got.edge_counts(),
        reference.builder().edge_counts(),
        "{label}: per-rule edge counts"
    );
    assert_eq!(got.status(), reference.status(), "{label}: verdict");
    assert_eq!(got.watermark(), reference.watermark(), "{label}: watermark");
    assert_eq!(
        dataplane_fingerprint(got.dataplane()),
        dataplane_fingerprint(reference.tracker().dataplane()),
        "{label}: data plane"
    );
}
