//! The four workloads: each is an *input* (a seeded capture trace with
//! its topology) plus a *deployment* (how the collector side is laid
//! out). Names and shapes are fixed by `BENCHMARK.json`.
//!
//! The seed varies what the generated inputs contain (which prefixes
//! churn, in which order, with which jitter) but never how much work
//! they are: every trace is cut to a fixed event count and the BGP
//! topology is pinned, so runs with different seeds stay comparable.

use cpvr_bgp::policy::{Clause, MatchCond};
use cpvr_bgp::{BgpConfig, ConfigChange, PeerRef, RouteMap, SessionCfg, SetAction};
use cpvr_dataplane::FibAction;
use cpvr_sim::scenario::two_exit_scenario;
use cpvr_sim::workload::{churn_plan, prefix_block, random_topology};
use cpvr_sim::{
    CaptureProfile, EventId, IgpKind, IoEvent, IoKind, LatencyProfile, RouterConfig, Simulation,
    Trace,
};
use cpvr_topo::builder::shapes;
use cpvr_topo::Topology;
use cpvr_types::{AsNum, Ipv4Prefix, RouterId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Routers in every workload. One connection per router is a protocol
/// requirement, so this is also the connection count.
pub const ROUTERS: u32 = 12;

/// How the collector side of a workload is deployed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// One collector folding with this many shards (`1` = `merger_loop`,
    /// `>1` = `coordinator_loop` with a cross-shard barrier).
    Single { shards: u32 },
    /// A federation of this many members (`member_loop`, peer frames).
    Federation { members: u32 },
}

/// Which policy the repair phase enforces on the converged state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// `Policy::Reachable` per sampled prefix.
    Reachable,
    /// `Policy::PreferredExit` (right uplink, else left) per sampled
    /// prefix — the paper's running policy.
    PreferredExit,
}

/// The fixed description of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub deployment: Deployment,
    /// Events in the trace (cut to exactly this many).
    pub events: usize,
    /// Open-loop rate of the paced phase, events per second. A constant
    /// (about a quarter of the calibration box's bulk median), not
    /// derived from the run, so the offered load is the same on both
    /// sides of any comparison.
    pub paced_rate: f64,
    /// Rounds of a nominal (30 s) run: as many as fit with a fifth of a
    /// round to spare for the repair chunk (most of the round on
    /// `repair-storm`).
    pub rounds: usize,
    pub policy: PolicyKind,
}

/// The workload table. `bgp-merger` and `bgp-fed` share one input
/// generator and one paced rate; every difference between their numbers
/// is the cost of distribution.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "churn-sharded",
        deployment: Deployment::Single { shards: 2 },
        events: 420_000,
        paced_rate: 60_000.0,
        rounds: 5,
        policy: PolicyKind::Reachable,
    },
    Spec {
        name: "bgp-merger",
        deployment: Deployment::Single { shards: 1 },
        events: 160_000,
        paced_rate: 30_000.0,
        rounds: 6,
        policy: PolicyKind::Reachable,
    },
    Spec {
        name: "bgp-fed",
        deployment: Deployment::Federation { members: 3 },
        events: 160_000,
        paced_rate: 30_000.0,
        rounds: 5,
        policy: PolicyKind::Reachable,
    },
    Spec {
        name: "repair-storm",
        deployment: Deployment::Single { shards: 1 },
        events: 120_000,
        paced_rate: 30_000.0,
        rounds: 4,
        policy: PolicyKind::PreferredExit,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A generated input: the capture trace, the topology it ran on, and
/// the per-router streams the load generator replays.
pub struct Input {
    pub topo: Topology,
    /// `trace.events[i].id == EventId(i)`, ascending in `(time, id)`.
    /// The repair phase appends its captured incident chains here; the
    /// workload proper is the first [`events`](Self::events) entries.
    pub trace: Trace,
    /// Events of the workload proper.
    pub events: usize,
    /// Event indices of each router, in `(time, id)` order.
    pub per_router: Vec<Vec<u32>>,
    /// External peers usable by exit policies: `(primary, backup)`.
    pub exits: Option<(cpvr_topo::ExtPeerId, cpvr_topo::ExtPeerId)>,
}

impl Input {
    fn new(
        topo: Topology,
        mut events: Vec<IoEvent>,
        keep: usize,
        exits: Option<(cpvr_topo::ExtPeerId, cpvr_topo::ExtPeerId)>,
    ) -> Input {
        // The simulator numbers events in emission order, which is not
        // stamp order (a FIB install is emitted with a later stamp than
        // the events the simulator processes next). Put the capture in
        // `(time, id)` order and renumber, so index order, id order and
        // fold order are one and the same; cutting the tail then never
        // orphans a recv (its send is stamped earlier and stays).
        events.sort_by_key(|e| (e.time, e.id));
        events.truncate(keep);
        for (i, e) in events.iter_mut().enumerate() {
            e.id = EventId(i as u32);
        }
        let mut per_router = vec![Vec::new(); ROUTERS as usize];
        for (i, e) in events.iter().enumerate() {
            per_router[e.router.index()].push(i as u32);
        }
        Input {
            topo,
            events: events.len(),
            trace: Trace {
                events,
                truth_edges: Vec::new(),
            },
            per_router,
            exits,
        }
    }

    /// The workload's own events, without any appended incident chains.
    pub fn workload(&self) -> &[IoEvent] {
        &self.trace.events[..self.events]
    }

    /// Horizon grid with about `n` steps placed at equal *event-count*
    /// intervals (so every horizon closes about the same amount of
    /// work), strictly increasing. A horizon `h` covers every event
    /// stamped `<= h`.
    pub fn grid(&self, n: usize) -> Vec<SimTime> {
        let events = self.workload();
        let mut out: Vec<SimTime> = Vec::with_capacity(n);
        for k in 1..=n {
            let pos = (events.len() * k / n).max(1) - 1;
            let h = events[pos].time;
            if out.last().is_none_or(|&last| h > last) {
                out.push(h);
            }
        }
        out
    }
}

/// Generates the input of `spec` from `seed`.
pub fn generate(spec: &Spec, seed: u64) -> Input {
    match spec.name {
        "churn-sharded" => fib_churn(spec.events, seed),
        "bgp-merger" | "bgp-fed" => bgp_churn(spec.events, seed),
        "repair-storm" => localpref_storm(spec.events, seed),
        other => unreachable!("no generator for workload {other}"),
    }
}

/// Prefixes every router installs once and never removes; the repair
/// phase's reachability policies are drawn from these.
pub const CHURN_CORE_PREFIXES: usize = 64;

/// `churn-sharded`: every router churns local FIB installs and removes
/// over a window rolling through a shared `/24` block. No router ever
/// talks to another, so there are no conversations, no boundary events
/// and no waits — per-event cost is all there is.
fn fib_churn(total: usize, seed: u64) -> Input {
    const WINDOW: usize = 2048;
    const STEP: u64 = 10_000; // ns between a router's consecutive events
    let block = prefix_block(65_536);
    let per = total / ROUTERS as usize;
    let mut events: Vec<IoEvent> = Vec::with_capacity(per * ROUTERS as usize);
    let mut streams: Vec<(StdRng, Vec<usize>)> = (0..ROUTERS)
        .map(|r| {
            (
                StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(u64::from(r))),
                Vec::new(),
            )
        })
        .collect();
    // Lockstep rounds keep the global order trivially `(time, id)`.
    for j in 0..per {
        for r in 0..ROUTERS {
            let (rng, installed) = &mut streams[r as usize];
            let time = SimTime::from_nanos((j as u64 + 1) * STEP + u64::from(r) * 100);
            let kind = if j < CHURN_CORE_PREFIXES {
                IoKind::FibInstall {
                    prefix: block[j],
                    action: FibAction::Local,
                }
            } else if installed.len() > WINDOW / 2 || (!installed.is_empty() && rng.gen_bool(0.35))
            {
                let victim = installed.swap_remove(rng.gen_range(0..installed.len()));
                IoKind::FibRemove {
                    prefix: block[victim],
                }
            } else {
                // The window start rolls forward one prefix every four
                // steps, so fresh prefixes (and fresh intern symbols)
                // keep arriving for the whole run.
                let base = CHURN_CORE_PREFIXES + j / 4;
                let pick = CHURN_CORE_PREFIXES
                    + (base + rng.gen_range(0..WINDOW)) % (block.len() - CHURN_CORE_PREFIXES);
                installed.push(pick);
                IoKind::FibInstall {
                    prefix: block[pick],
                    action: FibAction::Local,
                }
            };
            events.push(IoEvent {
                id: EventId(events.len() as u32),
                router: RouterId(r),
                time,
                arrived_at: Some(time),
                kind,
            });
        }
    }
    let keep = events.len();
    Input::new(shapes::ring(ROUTERS as usize), events, keep, None)
}

/// Pinned so every seed churns the same network.
const BGP_TOPOLOGY_SEED: u64 = 7;
const MAX_SIM_EVENTS: usize = 50_000_000;

fn full_mesh(n: u32, mut edge: impl FnMut(u32, &mut BgpConfig)) -> Vec<RouterConfig> {
    (0..n)
        .map(|r| {
            let mut bgp = BgpConfig::new(RouterId(r), AsNum(65000));
            for other in (0..n).filter(|&o| o != r) {
                bgp.sessions
                    .push(SessionCfg::new(PeerRef::Internal(RouterId(other))));
            }
            edge(r, &mut bgp);
            RouterConfig {
                bgp,
                igp: IgpKind::Ospf,
            }
        })
        .collect()
}

/// `bgp-merger` / `bgp-fed`: a 12-router full iBGP mesh over a random
/// connected topology with three uplinks converges, then external
/// announce/withdraw churn runs under syslog-skewed capture, so
/// horizons cut conversations open and the tracker issues (and later
/// resolves) real WaitFor verdicts.
fn bgp_churn(total: usize, seed: u64) -> Input {
    let (topo, peers) = random_topology(ROUTERS as usize, 8, 3, BGP_TOPOLOGY_SEED);
    let configs = full_mesh(ROUTERS, |r, bgp| {
        for peer in &peers {
            if topo.ext_peer(*peer).attach.0 == RouterId(r) {
                bgp.sessions.push(SessionCfg::new(PeerRef::External(*peer)));
            }
        }
    });
    let mut sim = Simulation::new(
        topo,
        configs,
        LatencyProfile::cisco(),
        CaptureProfile::syslog(),
        seed,
    );
    sim.start();
    sim.run_to_quiescence(MAX_SIM_EVENTS);
    let prefixes = prefix_block(256);
    // A churn item yields ~20 captured events; plan rounds until the
    // trace is long enough for any seed, then cut to the exact count.
    let mut round = 0u64;
    while sim.trace().len() < total {
        let base = sim.now();
        for (t_ms, peer, prefix, announce) in
            churn_plan(2_000, peers.len(), prefixes.len(), seed ^ (round << 32))
        {
            let at = base + SimTime::from_millis(t_ms);
            if announce {
                sim.schedule_ext_announce(at, peers[peer], &[prefixes[prefix]]);
            } else {
                sim.schedule_ext_withdraw(at, peers[peer], &[prefixes[prefix]]);
            }
        }
        sim.run_to_quiescence(MAX_SIM_EVENTS);
        round += 1;
    }
    let events = sim.trace().events.clone();
    Input::new(sim.topology().clone(), events, total, None)
}

/// `repair-storm`: the paper's two-exit network stretched to 12 routers
/// carries two thousand prefixes (preferred exit on the right, backup
/// on the left); then seeded local-pref misconfigurations on the
/// preferred exit — each demoting one 64-prefix sub-block below the
/// backup — and their rollbacks swing those prefixes between the exits.
/// Smaller than the BGP churn trace, but the converged state behind it
/// is large, which is what the repair chain pays for.
fn localpref_storm(total: usize, seed: u64) -> Input {
    const PREFIXES: usize = 512;
    const FAULT_BLOCK: usize = 64; // one /18 of the /24 block
    let (mut sim, left, right) = two_exit_scenario(
        ROUTERS as usize,
        LatencyProfile::cisco(),
        CaptureProfile::syslog(),
        seed,
    );
    sim.start();
    sim.run_to_quiescence(MAX_SIM_EVENTS);
    let mut rng = StdRng::seed_from_u64(seed);
    let prefixes = prefix_block(PREFIXES);
    // Preferred exit first: the backup's routes then lose at their own
    // border router and are never propagated, as in a settled network.
    for (i, chunk) in prefixes.chunks(FAULT_BLOCK).enumerate() {
        let at = sim.now() + SimTime::from_millis(40 * i as u64 + rng.gen_range(1..10));
        sim.schedule_ext_announce(at, right, chunk);
        sim.schedule_ext_announce(at + SimTime::from_millis(30), left, chunk);
    }
    sim.run_to_quiescence(MAX_SIM_EVENTS);
    let edge = RouterId(ROUTERS - 1);
    let healthy = RouteMap::set_all(vec![SetAction::LocalPref(30)]);
    while sim.trace().len() < total {
        // The Fig. 2 fault, scoped to one sub-block: demote it below the
        // backup's local-pref 20, let the network settle, roll it back.
        let block = prefixes[rng.gen_range(0..PREFIXES / FAULT_BLOCK) * FAULT_BLOCK];
        let scope = Ipv4Prefix::from_bits(block.bits(), 18);
        let faulty = RouteMap {
            clauses: vec![
                Clause {
                    matches: vec![MatchCond::PrefixIn(scope)],
                    permit: true,
                    sets: vec![SetAction::LocalPref(rng.gen_range(5..15))],
                },
                Clause::permit_all(vec![SetAction::LocalPref(30)]),
            ],
        };
        for map in [faulty, healthy.clone()] {
            let change = ConfigChange::SetImport {
                peer: PeerRef::External(right),
                map,
            };
            sim.schedule_config(sim.now() + SimTime::from_millis(20), edge, change);
            sim.run_to_quiescence(MAX_SIM_EVENTS);
        }
    }
    let events = sim.trace().events.clone();
    Input::new(sim.topology().clone(), events, total, Some((right, left)))
}
