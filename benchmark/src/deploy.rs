//! The collector side of a workload: one collector (merger or sharded)
//! or a federation, started over a fresh WAL directory and driven only
//! through `CollectorHandle` / `Federation`.

use crate::check::{self, Fingerprint};
use crate::workload::{Deployment, Spec, ROUTERS};
use cpvr_collector::collector::{Collector, CollectorConfig, CollectorHandle, CollectorStats};
use cpvr_collector::wal::{TempDir, WalConfig};
use cpvr_collector::{FoldReport, RepairLedger, RepairRecord};
use cpvr_core::FederationPlan;
use cpvr_federation::Federation;
use cpvr_obs::Snapshot;
use cpvr_types::{RouterId, SimTime};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

enum Kind {
    Single(CollectorHandle),
    Fed(Federation),
}

/// A running deployment.
pub struct Live {
    kind: Kind,
    wal: TempDir,
    /// How long `Collector::start` / `Federation::launch` took.
    pub start_time: Duration,
}

/// What a deployment leaves behind at shutdown.
pub struct Finished {
    pub fingerprint: Fingerprint,
    /// Final counters, one per collector process (member).
    pub stats: Vec<CollectorStats>,
    /// Shutdown metrics dumps, one per collector process (member).
    pub metrics: Vec<Snapshot>,
    pub repairs: RepairLedger,
    /// The journal the run wrote; removed when dropped.
    pub wal: TempDir,
    /// How long `shutdown` took.
    pub shutdown_time: Duration,
}

impl Finished {
    /// A counter family summed over every member and label set.
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.iter().map(|m| m.counter_total(name)).sum()
    }

    /// A histogram family's buckets merged over every member.
    pub fn histogram_buckets(&self, name: &str) -> Vec<(u64, u64)> {
        let mut merged = std::collections::BTreeMap::new();
        for m in &self.metrics {
            for h in m.histograms.iter().filter(|h| h.name == name) {
                for &(upper, count) in &h.buckets {
                    *merged.entry(upper).or_insert(0u64) += count;
                }
            }
        }
        merged.into_iter().collect()
    }
}

/// Sleeps in 200 µs steps until `done()` or `timeout`; returns whether it
/// got done. (Finer than `wal::wait_for`'s 2 ms step, which would show
/// in a one-second session's wall time.)
fn poll_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}

fn single_config(shards: u32, dir: &Path) -> CollectorConfig {
    CollectorConfig::new(ROUTERS)
        .with_shards(shards)
        .with_wal(WalConfig::new(dir))
}

impl Live {
    /// Starts the deployment of `spec` over a fresh WAL directory.
    pub fn start(spec: &Spec) -> io::Result<Live> {
        let wal = TempDir::new(spec.name)?;
        let t0 = Instant::now();
        let kind = match spec.deployment {
            Deployment::Single { shards } => Kind::Single(Collector::start(
                single_config(shards, wal.path()),
                "127.0.0.1:0",
            )?),
            Deployment::Federation { members } => Kind::Fed(Federation::launch(
                FederationPlan::uniform(members),
                ROUTERS,
                wal.path(),
            )?),
        };
        Ok(Live {
            kind,
            wal,
            start_time: t0.elapsed(),
        })
    }

    /// Where router `r`'s sink must connect.
    pub fn addr_of_router(&self, r: RouterId) -> SocketAddr {
        match &self.kind {
            Kind::Single(h) => h.local_addr(),
            Kind::Fed(f) => f.addr_of_router(r),
        }
    }

    /// The verdict frontier: the lowest `stats().watermark` over every
    /// member (`None` until all of them advanced once). A horizon has a
    /// verdict once this reaches it.
    pub fn watermark(&self) -> Option<SimTime> {
        self.handles()
            .iter()
            .map(|h| h.stats().watermark)
            .min()
            .unwrap_or(None)
    }

    fn handles(&self) -> Vec<&CollectorHandle> {
        match &self.kind {
            Kind::Single(h) => vec![h],
            Kind::Fed(f) => f.handles().collect(),
        }
    }

    /// The live counters and metrics of every member, as they stand now.
    /// A federation's members are restarted for the recovery measurement,
    /// which starts their counters over; this is how a session keeps what
    /// they counted while it streamed.
    pub fn observe(&self) -> (Vec<CollectorStats>, Vec<Snapshot>) {
        let handles = self.handles();
        (
            handles.iter().map(|h| h.stats()).collect(),
            handles
                .iter()
                .filter_map(|h| h.metrics())
                .map(|m| m.snapshot())
                .collect(),
        )
    }

    /// Blocks (sleeping, never spinning) until every member's watermark
    /// is `SimTime::MAX`. Returns whether that happened within `timeout`.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        poll_until(timeout, || self.watermark() == Some(SimTime::MAX))
    }

    /// The handle repair-lifecycle records are journaled through (the
    /// owning member, for a federation).
    pub fn journal_repair(&self, record: RepairRecord) -> io::Result<()> {
        match &self.kind {
            Kind::Single(h) => h.journal_repair(record),
            Kind::Fed(f) => f.handle(0).journal_repair(record),
        }
    }

    /// Peer-validated repair proofs so far, summed over the members that
    /// did not journal them (0 for a single collector).
    pub fn peer_proofs(&self) -> u64 {
        match &self.kind {
            Kind::Single(_) => 0,
            Kind::Fed(f) => (1..f.members())
                .filter_map(|m| f.handle(m).metrics())
                .map(|m| m.repair_peer_proofs.value())
                .sum(),
        }
    }

    /// How many peers re-validate each gated proof (0 for a single
    /// collector).
    pub fn peer_proofs_expected(&self) -> u64 {
        match &self.kind {
            Kind::Single(_) => 0,
            Kind::Fed(f) => u64::from(f.members()) - 1,
        }
    }

    /// Federation only: stops member 0 and restarts it over its own
    /// journal, waiting until its watermark is back at `restored`.
    /// Returns how long the restart took.
    pub fn restart_member(&mut self, restored: SimTime) -> io::Result<Duration> {
        let Kind::Fed(fed) = &mut self.kind else {
            return Err(io::Error::other("restart_member needs a federation"));
        };
        fed.stop_member(0)?;
        let t0 = Instant::now();
        fed.restart_member(0)?;
        if !poll_until(Duration::from_secs(60), || {
            fed.handle(0).stats().watermark == Some(restored)
        }) {
            return Err(io::Error::other(format!(
                "member 0 never restored its watermark: {:?}",
                fed.handle(0).stats()
            )));
        }
        Ok(t0.elapsed())
    }

    /// Stops the deployment and fingerprints its final fold.
    pub fn shutdown(self) -> io::Result<Finished> {
        let t0 = Instant::now();
        let (fold, stats, metrics): (FoldReport, Vec<_>, Vec<Option<Snapshot>>) = match self.kind {
            Kind::Single(h) => {
                let r = h.shutdown()?;
                (r.pipeline, vec![r.stats], vec![r.metrics])
            }
            Kind::Fed(f) => {
                let r = f.shutdown()?;
                let (stats, metrics) = r.members.into_iter().map(|m| (m.stats, m.metrics)).unzip();
                (r.global, stats, metrics)
            }
        };
        let shutdown_time = t0.elapsed();
        Ok(Finished {
            fingerprint: check::of_report(&fold),
            stats,
            metrics: metrics.into_iter().flatten().collect(),
            repairs: fold.repairs().clone(),
            wal: self.wal,
            shutdown_time,
        })
    }
}
