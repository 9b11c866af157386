//! Output checking: the fingerprint of a fold, and the in-process
//! reference fold every socket session is held against.

use crate::workload::{Input, ROUTERS};
use cpvr_collector::pipeline::{IngestPipeline, PipelineConfig};
use cpvr_collector::FoldReport;
use cpvr_core::hbg::Hbr;
use cpvr_dataplane::DataPlane;
use cpvr_types::{Fnv1a64, RouterId, SimTime};

/// Everything observable about a finished fold that must not depend on
/// how it was deployed (shards, members) or scheduled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub events: u64,
    pub edges: u64,
    pub edge_digest: u64,
    pub dataplane_digest: u64,
    pub consistent: bool,
    /// `(issued, resolved)` wait transitions. Only comparable between
    /// folds that advanced through the same horizon sequence.
    pub waits: (u64, u64),
    pub watermark: Option<SimTime>,
}

impl Fingerprint {
    /// The fingerprint with the wait counters blanked: a recovered
    /// pipeline advances once to its final watermark, so its wait
    /// transitions are not those of the live run it must otherwise equal.
    pub fn without_waits(&self) -> Fingerprint {
        Fingerprint {
            waits: (0, 0),
            ..self.clone()
        }
    }
}

fn edge_digest(mut edges: Vec<Hbr>) -> u64 {
    edges.sort_by_key(|h| (h.from, h.to));
    let mut h = Fnv1a64::new();
    for e in &edges {
        h.update_u64(u64::from(e.from.0) << 32 | u64::from(e.to.0));
        h.update_u64(e.confidence.to_bits());
        h.update(e.source.to_string().as_bytes());
    }
    h.finish()
}

fn dataplane_digest(dp: &DataPlane) -> u64 {
    let mut h = Fnv1a64::new();
    for r in 0..dp.num_routers() as u32 {
        let r = RouterId(r);
        h.update_u64(dp.taken_at(r).as_nanos());
        for (prefix, entry) in dp.fib(r).entries() {
            h.update(format!("{prefix}{:?}{}", entry.action, entry.installed_at).as_bytes());
        }
    }
    h.finish()
}

/// Fingerprints a collector's (or a federation's merged) shutdown state.
pub fn of_report(fold: &FoldReport) -> Fingerprint {
    let edges = match fold.as_single() {
        // Skip `canonical_edges`' clone-and-sort when the graph is at hand.
        Some(p) => p.builder().hbg().edges().to_vec(),
        None => fold.canonical_edges(),
    };
    Fingerprint {
        events: fold.events(),
        edges: edges.len() as u64,
        edge_digest: edge_digest(edges),
        dataplane_digest: dataplane_digest(fold.dataplane()),
        consistent: fold.status().is_consistent(),
        waits: fold.wait_stats(),
        watermark: fold.watermark(),
    }
}

/// Fingerprints an in-process pipeline (the reference, or a recovered one).
pub fn of_pipeline(p: &IngestPipeline) -> Fingerprint {
    Fingerprint {
        events: p.events(),
        edges: p.builder().hbg().edges().len() as u64,
        edge_digest: edge_digest(p.builder().hbg().edges().to_vec()),
        dataplane_digest: dataplane_digest(p.tracker().dataplane()),
        consistent: p.status().is_consistent(),
        waits: p.tracker().wait_stats(),
        watermark: p.watermark(),
    }
}

/// What the reference folds leave behind for the rest of the run.
pub struct Reference {
    /// Expected fingerprint of a bulk session: the whole trace stepped
    /// through the bulk grid.
    pub bulk: Fingerprint,
    /// Expected fingerprint of a paced session: the timetable's prefix of
    /// the trace stepped through the paced grid.
    pub paced: Fingerprint,
    /// The converged data plane, for the repair phase's verifier.
    pub dataplane: DataPlane,
}

fn fold(events: &[cpvr_sim::IoEvent], grid: &[SimTime]) -> IngestPipeline {
    let mut p = IngestPipeline::new(PipelineConfig::new(ROUTERS));
    for e in events {
        p.ingest(e);
    }
    for &h in grid {
        p.advance(h);
    }
    p.advance(SimTime::MAX);
    p
}

/// Folds the whole trace in-process through `IngestPipeline` stepping
/// the bulk grid, and its first `paced_events` events stepping the paced
/// grid; both end at `SimTime::MAX`, as a session's byes do. The
/// pipelines are dropped before returning so they do not sit in the
/// peak-memory figure.
pub fn reference_fold(
    input: &Input,
    bulk_grid: &[SimTime],
    paced_grid: &[SimTime],
    paced_events: usize,
) -> Reference {
    let p = fold(input.workload(), bulk_grid);
    let bulk = of_pipeline(&p);
    let dataplane = p.tracker().dataplane().clone();
    drop(p);
    let p = fold(&input.workload()[..paced_events], paced_grid);
    Reference {
        bulk,
        paced: of_pipeline(&p),
        dataplane,
    }
}
