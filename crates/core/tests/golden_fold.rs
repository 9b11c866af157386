//! Golden fold digests: what the incremental fold ([`HbgBuilder`] +
//! [`ConsistencyTracker`]) computes is pinned, bit for bit, for a fixed
//! set of traces and ingest/advance schedules.
//!
//! Each digest is FNV-1a (64-bit) over the canonical edge list (from, to,
//! confidence bits, source rendering), the tracker's final verdict and
//! data plane (per-router capture time, every FIB entry), its
//! `wait_stats`, and — for the last FIB event of the trace — its
//! `root_ancestors` and the `provenance_path` from each of them. The
//! schedules vary how often the watermark advances (every 1st, 7th or
//! 64th horizon of a fixed grid, events ingested just ahead of it), the
//! order events are ingested in (routers reversed within each batch),
//! and whether everything is ingested before the first advance (the
//! ledger's reference fold). Edges and the data plane must not depend on
//! the schedule; the wait counters legitimately do, which is why every
//! schedule has its own value.
//!
//! The values were recorded on the commit *before* the fold core's
//! pending queue, rule cells, adjacency lists and tracker streams were
//! rebuilt, so that refactor's "same fold" contract is a failing test,
//! not a promise. Never edit a value to make a refactor pass.

use cpvr_bgp::{
    BgpConfig, Clause, ConfigChange, MatchCond, PeerRef, RouteMap, SessionCfg, SetAction,
};
use cpvr_core::{provenance_path, ConsistencyTracker, HbgBuilder, InferConfig, SnapshotStatus};
use cpvr_sim::scenario::{paper_scenario, two_exit_scenario};
use cpvr_sim::workload::{churn_plan, prefix_block, random_topology};
use cpvr_sim::{
    CaptureProfile, IgpKind, IoEvent, IoKind, LatencyProfile, RouterConfig, Simulation, Trace,
};
use cpvr_topo::ExtPeerId;
use cpvr_types::{AsNum, Fnv1a64, Ipv4Prefix, RouterId, SimTime};

const MAX_EVENTS: usize = 4_000_000;
/// Horizons in the advance grid; 448 = 7 · 64, so every stride ends on
/// the last one.
const GRID: u64 = 448;
const MIN_CONF: f64 = 0.5;

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

fn local_pref(lp: u32) -> RouteMap {
    RouteMap::set_all(vec![SetAction::LocalPref(lp)])
}

fn reconfigure(sim: &mut Simulation, router: RouterId, peer: ExtPeerId, map: RouteMap) {
    let change = ConfigChange::SetImport {
        peer: PeerRef::External(peer),
        map,
    };
    sim.schedule_config(sim.now() + ms(20), router, change);
    sim.run_to_quiescence(MAX_EVENTS);
}

/// The paper's triangle: both uplinks announce P, the Fig. 2 local-pref
/// fault on R2's uplink, and its rollback.
fn paper_fault_rollback() -> (Trace, usize) {
    let mut s = paper_scenario(LatencyProfile::cisco(), CaptureProfile::ideal(), 1);
    s.sim.start();
    s.sim.run_to_quiescence(MAX_EVENTS);
    s.sim
        .schedule_ext_announce(s.sim.now() + ms(10), s.ext_r1, &[s.prefix]);
    s.sim
        .schedule_ext_announce(s.sim.now() + ms(500), s.ext_r2, &[s.prefix]);
    s.sim.run_to_quiescence(MAX_EVENTS);
    for lp in [10, 30] {
        reconfigure(&mut s.sim, RouterId(1), s.ext_r2, local_pref(lp));
    }
    (s.sim.trace().clone(), 3)
}

/// The ledger's `repair-storm` shape: 12 routers, 512 prefixes, one
/// /18-scoped local-pref fault on the preferred exit and its rollback,
/// under syslog-skewed capture.
fn two_exit_scoped_fault() -> (Trace, usize) {
    let (mut sim, left, right) =
        two_exit_scenario(12, LatencyProfile::cisco(), CaptureProfile::syslog(), 1);
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    let prefixes = prefix_block(512);
    for (i, chunk) in prefixes.chunks(64).enumerate() {
        let at = sim.now() + ms(40 * i as u64 + 1);
        sim.schedule_ext_announce(at, right, chunk);
        sim.schedule_ext_announce(at + ms(30), left, chunk);
    }
    sim.run_to_quiescence(MAX_EVENTS);
    let scope = Ipv4Prefix::from_bits(prefixes[128].bits(), 18);
    let faulty = RouteMap {
        clauses: vec![
            Clause {
                matches: vec![MatchCond::PrefixIn(scope)],
                permit: true,
                sets: vec![SetAction::LocalPref(10)],
            },
            Clause::permit_all(vec![SetAction::LocalPref(30)]),
        ],
    };
    for map in [faulty, local_pref(30)] {
        reconfigure(&mut sim, RouterId(11), right, map);
    }
    (sim.trace().clone(), 12)
}

/// The ledger's `bgp-merger` shape: `random_topology(12, 8, 3, 7)` as a
/// full iBGP mesh with three uplinks under 2 000 announce/withdraw churn
/// items, syslog-skewed capture.
fn random_mesh_churn() -> (Trace, usize) {
    let (topo, peers) = random_topology(12, 8, 3, 7);
    let n = topo.num_routers() as u32;
    let configs = (0..n)
        .map(|r| {
            let mut bgp = BgpConfig::new(RouterId(r), AsNum(65000));
            bgp.sessions.extend(
                (0..n)
                    .filter(|o| *o != r)
                    .map(|o| SessionCfg::new(PeerRef::Internal(RouterId(o)))),
            );
            for up in &peers {
                if topo.ext_peer(*up).attach.0 == RouterId(r) {
                    bgp.sessions.push(SessionCfg::new(PeerRef::External(*up)));
                }
            }
            RouterConfig {
                bgp,
                igp: IgpKind::Ospf,
            }
        })
        .collect();
    let mut sim = Simulation::new(
        topo,
        configs,
        LatencyProfile::cisco(),
        CaptureProfile::syslog(),
        1,
    );
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    let prefixes = prefix_block(128);
    let base = sim.now();
    for (t_ms, peer, prefix, announce) in churn_plan(2_000, peers.len(), prefixes.len(), 1) {
        let at = base + ms(t_ms);
        if announce {
            sim.schedule_ext_announce(at, peers[peer], &[prefixes[prefix]]);
        } else {
            sim.schedule_ext_withdraw(at, peers[peer], &[prefixes[prefix]]);
        }
    }
    sim.run_to_quiescence(MAX_EVENTS);
    (sim.trace().clone(), n as usize)
}

/// How one fold feeds its events and moves its watermark.
#[derive(Clone, Copy)]
struct Schedule {
    /// Advance at every `stride`-th grid horizon.
    stride: u64,
    /// Within each batch, ingest the highest-numbered router's events
    /// first (each router's own events stay in capture order).
    reversed: bool,
    /// Ingest the whole trace before the first advance.
    all_first: bool,
}

fn fold(trace: &Trace, n_routers: usize, s: Schedule) -> u64 {
    let mut builder = HbgBuilder::new(&InferConfig {
        rules: true,
        patterns: None,
        min_confidence: 0.0,
        proximate: false,
    });
    let mut tracker = ConsistencyTracker::new(n_routers);
    let mut order: Vec<&IoEvent> = trace.events.iter().collect();
    order.sort_by_key(|e| (e.time, e.id));
    let end = order.last().map_or(SimTime::ZERO, |e| e.time);
    let mut horizons: Vec<SimTime> = (1..=GRID / s.stride)
        .map(|i| SimTime::from_nanos(end.as_nanos() / GRID * i * s.stride))
        .collect();
    horizons.push(SimTime::MAX);
    let mut fed = 0;
    for h in horizons {
        let upto = if s.all_first {
            order.len()
        } else {
            fed + order[fed..].partition_point(|e| e.time <= h)
        };
        // Capture order within the batch is id order, not stamp order:
        // routers stamp some records slightly in the future.
        let mut batch: Vec<&IoEvent> = order[fed..upto].to_vec();
        if s.reversed {
            batch.sort_by_key(|e| (std::cmp::Reverse(e.router), e.id));
        } else {
            batch.sort_by_key(|e| e.id);
        }
        for e in batch {
            builder.ingest(e);
            tracker.ingest(e);
        }
        fed = upto;
        builder.advance(h);
        tracker.advance(h);
    }
    assert_eq!(builder.pending(), 0);
    assert_eq!(builder.processed(), trace.len());

    let mut d = Fnv1a64::new();
    let g = builder.hbg();
    for e in g.canonical_edges() {
        d.update_u64(u64::from(e.from.0) << 32 | u64::from(e.to.0));
        d.update_u64(e.confidence.to_bits());
        d.update(e.source.to_string().as_bytes());
    }
    match tracker.status() {
        SnapshotStatus::Consistent => d.update(b"consistent"),
        SnapshotStatus::WaitFor(rs) => d.update(format!("wait{rs:?}").as_bytes()),
    }
    let dp = tracker.dataplane();
    for r in (0..n_routers as u32).map(RouterId) {
        d.update_u64(dp.taken_at(r).as_nanos());
        for (prefix, entry) in dp.fib(r).entries() {
            d.update(format!("{prefix}{:?}{}", entry.action, entry.installed_at).as_bytes());
        }
    }
    let (issued, resolved) = tracker.wait_stats();
    d.update_u64(issued);
    d.update_u64(resolved);
    let last_fib = order
        .iter()
        .rev()
        .find(|e| matches!(e.kind, IoKind::FibInstall { .. } | IoKind::FibRemove { .. }))
        .expect("every scenario installs routes");
    for root in g.root_ancestors(last_fib.id, MIN_CONF) {
        d.update_u64(u64::from(root.0));
        for hop in provenance_path(g, root, last_fib.id, MIN_CONF) {
            d.update_u64(u64::from(hop.0));
        }
    }
    d.finish()
}

const fn live(stride: u64) -> Schedule {
    Schedule {
        stride,
        reversed: false,
        all_first: false,
    }
}

const SCHEDULES: [(&str, Schedule); 5] = [
    ("stride 1", live(1)),
    ("stride 7", live(7)),
    ("stride 64", live(64)),
    (
        "stride 7, routers reversed",
        Schedule {
            stride: 7,
            reversed: true,
            all_first: false,
        },
    ),
    (
        "stride 64, all ingested first",
        Schedule {
            stride: 64,
            reversed: false,
            all_first: true,
        },
    ),
];

type Scenario = fn() -> (Trace, usize);

/// `(scenario, one digest per schedule)` — recorded on the parent of the
/// fold-core rework; never edit a value to make a refactor pass.
const GOLDEN: &[(&str, Scenario, [u64; 5])] = &[
    (
        "paper_fault_rollback",
        paper_fault_rollback,
        [
            0x60eb_1fe1_328d_5478,
            0x60eb_1fe1_328d_5478,
            0x60eb_1fe1_328d_5478,
            0x60eb_1fe1_328d_5478,
            0x60eb_1fe1_328d_5478,
        ],
    ),
    (
        "two_exit_scoped_fault",
        two_exit_scoped_fault,
        [
            0x08ce_56c8_9893_795b,
            0xe0d9_20f8_a5e3_3d9b,
            0xe0d9_20f8_a5e3_3d9b,
            0xe0d9_20f8_a5e3_3d9b,
            0xe0d9_20f8_a5e3_3d9b,
        ],
    ),
    (
        "random_mesh_churn",
        random_mesh_churn,
        [
            0x8f10_c395_b183_a519,
            0x5a80_983e_2131_80f9,
            0x6599_62c8_008f_9b59,
            0x5a80_983e_2131_80f9,
            0x6599_62c8_008f_9b59,
        ],
    ),
];

#[test]
fn folds_match_golden_digests() {
    let mut mismatches = Vec::new();
    for (name, scenario, want) in GOLDEN {
        let (trace, n_routers) = scenario();
        for ((label, schedule), want) in SCHEDULES.iter().zip(want) {
            let got = fold(&trace, n_routers, *schedule);
            if got != *want {
                mismatches.push(format!(
                    "{name} ({} events), {label}: got {got:#018x}, golden {want:#018x}",
                    trace.len()
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "fold digests moved:\n{}",
        mismatches.join("\n")
    );
}
