//! Launching and merging a federation of collectors (§5).
//!
//! The [`cpvr_collector::federation`] module implements one federation
//! *member*: a collector that folds only its owned routers' streams and
//! exchanges frontiers, boundary edges, and partial verdicts with its
//! peers over the wire codec's peer frames. This crate is the harness
//! around N of them:
//!
//! * [`Federation::launch`] pre-binds every member's loopback listener
//!   *first* — so each member's [`FederationConfig`] can carry the full
//!   peer address list — then starts the members over their own WAL
//!   directories; [`Federation::launch_with`] does the same from a base
//!   config (e.g. members that fold on several worker shards).
//! * [`Federation::launch_on`] is the explicit-plumbing variant for
//!   tests that interpose chaos proxies on the collector↔collector
//!   links or hand-build per-member configs.
//! * [`Federation::restart_member`] stops one member and starts a fresh
//!   process instance over the same WAL directory and listen address —
//!   the crash-recovery path: the member replays its journal,
//!   regenerates its outbound peer traffic under a new session, and the
//!   surviving peers deduplicate the replayed stream.
//! * [`Federation::shutdown`] collects every member's [`FoldReport`]
//!   and merges them with [`merge_members`] into one global report —
//!   erroring if the members disagree on the global verdict, which the
//!   federated round protocol guarantees they cannot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cpvr_collector::collector::{Collector, CollectorConfig, CollectorHandle, CollectorStats};
use cpvr_collector::wal::WalConfig;
use cpvr_collector::{merge_members, CollectorRole, FederationConfig, FoldReport};
use cpvr_core::FederationPlan;
use cpvr_obs::Snapshot;
use cpvr_types::RouterId;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;

/// A running federation: one [`CollectorHandle`] per member.
pub struct Federation {
    plan: FederationPlan,
    cfgs: Vec<CollectorConfig>,
    addrs: Vec<SocketAddr>,
    handles: Vec<Option<CollectorHandle>>,
}

/// Everything a member left behind besides its fold (which went into
/// the merged [`FederationReport::global`]).
pub struct MemberReport {
    /// The member's final live counters.
    pub stats: CollectorStats,
    /// Standalone vs member — for a member, the final per-peer summary.
    pub role: CollectorRole,
    /// The member's shutdown metrics dump. Always `Some`: metrics are
    /// always on; the `Option` stays because the benchmark ledger names
    /// the type.
    pub metrics: Option<Snapshot>,
    /// The member's fold at exit. Present from
    /// [`Federation::stop_member`], where it would otherwise be lost;
    /// `None` from [`Federation::shutdown`], where every fold went into
    /// the merged [`FederationReport::global`].
    pub fold: Option<FoldReport>,
}

/// The federation's merged shutdown state.
pub struct FederationReport {
    /// The global fold: every member's partial HBG, verdict, wait
    /// stats, and data-plane slice merged — the same shape a sharded
    /// single collector reports.
    pub global: FoldReport,
    /// Per-member leftovers, indexed by member.
    pub members: Vec<MemberReport>,
}

impl Federation {
    /// Binds one ephemeral loopback listener per member of `plan`, then
    /// starts every member with the full peer address list, journaling
    /// into `wal_root/member-<i>`. Existing journals are replayed — so
    /// launching twice over the same root is a whole-federation restart.
    pub fn launch(plan: FederationPlan, n_routers: u32, wal_root: &Path) -> io::Result<Federation> {
        Self::launch_with(plan, CollectorConfig::new(n_routers), wal_root)
    }

    /// [`launch`](Self::launch), with every member configured as `base`
    /// plus its WAL directory and federation membership.
    pub fn launch_with(
        plan: FederationPlan,
        base: CollectorConfig,
        wal_root: &Path,
    ) -> io::Result<Federation> {
        let members = plan.members();
        let listeners: Vec<TcpListener> = (0..members)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<io::Result<_>>()?;
        let cfgs = (0..members)
            .map(|i| {
                let dir = wal_root.join(format!("member-{i}"));
                std::fs::create_dir_all(&dir)?;
                Ok(base
                    .clone()
                    .with_wal(WalConfig::new(&dir))
                    .with_federation(FederationConfig {
                        plan: plan.clone(),
                        member: i,
                        peers: addrs.clone(),
                    }))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Self::launch_on(cfgs, listeners)
    }

    /// Starts one member per `(config, listener)` pair. Every config
    /// must carry a [`FederationConfig`] over the same plan, with
    /// member indices `0..n` in order; the peer addresses may point
    /// anywhere (e.g. at chaos proxies fronting the real listeners).
    pub fn launch_on(
        cfgs: Vec<CollectorConfig>,
        listeners: Vec<TcpListener>,
    ) -> io::Result<Federation> {
        if cfgs.is_empty() || cfgs.len() != listeners.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "need one listener per member config",
            ));
        }
        let plan = match cfgs[0].federation.as_ref() {
            Some(f) => f.plan.clone(),
            None => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "member configs must carry a FederationConfig",
                ))
            }
        };
        for (i, cfg) in cfgs.iter().enumerate() {
            let ok = cfg
                .federation
                .as_ref()
                .is_some_and(|f| f.member == i as u32 && f.plan.members() == plan.members());
            if !ok {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("config {i} is not member {i} of the shared plan"),
                ));
            }
        }
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<io::Result<_>>()?;
        let mut handles = Vec::with_capacity(cfgs.len());
        for (cfg, listener) in cfgs.iter().zip(listeners) {
            handles.push(Some(Collector::start_on(cfg.clone(), listener)?));
        }
        Ok(Federation {
            plan,
            cfgs,
            addrs,
            handles,
        })
    }

    /// Federation size.
    pub fn members(&self) -> u32 {
        self.handles.len() as u32
    }

    /// The shared ownership plan.
    pub fn plan(&self) -> &FederationPlan {
        &self.plan
    }

    /// Member `i`'s listen address.
    pub fn addr(&self, member: u32) -> SocketAddr {
        self.addrs[member as usize]
    }

    /// Where a router's capture tap should connect: the listen address
    /// of the member that owns it.
    pub fn addr_of_router(&self, r: RouterId) -> SocketAddr {
        self.addrs[self.plan.of_router(r) as usize]
    }

    /// Member `i`'s handle. Panics if the member was stopped with
    /// [`stop_member`](Self::stop_member) and not restarted.
    pub fn handle(&self, member: u32) -> &CollectorHandle {
        self.handles[member as usize]
            .as_ref()
            .expect("member is stopped")
    }

    /// Every running member's handle, in member order.
    pub fn handles(&self) -> impl Iterator<Item = &CollectorHandle> {
        self.handles.iter().filter_map(|h| h.as_ref())
    }

    /// Shuts one member down (cleanly — its WAL is the crash artifact;
    /// an OS-level kill leaves the same journal minus the final fsync)
    /// and returns its merged-at-exit fold so tests can inspect it.
    /// Peers keep running: their links to the stopped member buffer and
    /// back off until a restart.
    pub fn stop_member(&mut self, member: u32) -> io::Result<MemberReport> {
        let handle = self.handles[member as usize]
            .take()
            .ok_or_else(|| io::Error::other(format!("member {member} already stopped")))?;
        let report = handle.shutdown()?;
        Ok(MemberReport {
            stats: report.stats,
            role: report.role,
            metrics: report.metrics,
            fold: Some(report.pipeline),
        })
    }

    /// Starts a fresh process instance of a stopped member on its
    /// original listen address, recovering from its WAL directory. The
    /// recovered member replays its journal, re-dials its peers under a
    /// new session, and regenerates every outbound peer frame; the
    /// survivors deduplicate the replay semantically.
    pub fn restart_member(&mut self, member: u32) -> io::Result<()> {
        let slot = &mut self.handles[member as usize];
        if slot.is_some() {
            return Err(io::Error::other(format!("member {member} is running")));
        }
        let listener = TcpListener::bind(self.addrs[member as usize])?;
        *slot = Some(Collector::start_on(
            self.cfgs[member as usize].clone(),
            listener,
        )?);
        Ok(())
    }

    /// Shuts every member down and merges their folds into the global
    /// report. Every member must be running; the merge errors if the
    /// members disagree on verdict, wait stats, or watermark.
    pub fn shutdown(self) -> io::Result<FederationReport> {
        let mut folds: Vec<FoldReport> = Vec::with_capacity(self.handles.len());
        let mut members = Vec::with_capacity(self.handles.len());
        for (i, slot) in self.handles.into_iter().enumerate() {
            let handle = slot.ok_or_else(|| {
                io::Error::other(format!("member {i} is stopped; restart it before shutdown"))
            })?;
            let report = handle.shutdown()?;
            folds.push(report.pipeline);
            members.push(MemberReport {
                stats: report.stats,
                role: report.role,
                metrics: report.metrics,
                fold: None,
            });
        }
        Ok(FederationReport {
            global: merge_members(folds)?,
            members,
        })
    }
}
