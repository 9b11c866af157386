//! Golden trace digests: the simulator's captured trace is pinned, bit for
//! bit, for a fixed set of scenarios and seeds.
//!
//! Each digest is FNV-1a (64-bit) over the `Debug` rendering of every
//! [`IoEvent`](cpvr_sim::IoEvent) — id, router, both timestamps, kind and
//! full route attributes — followed by every ground-truth edge. Any change
//! to what the BGP speaker emits, in which order, or to the order in
//! which the engine draws from its RNG moves a digest. The values were
//! recorded on the commit *before* the RIBs were re-indexed by prefix, so
//! that refactor's "same trace" contract is a failing test, not a promise
//! (DESIGN.md, "Trace bit-identity"); scenarios (f)–(h) were added, and
//! recorded, on the commit before routes became shared (`Arc<BgpRoute>`)
//! and the decision pass stopped visiting sessions that hear nothing.

use cpvr_bgp::{
    BgpConfig, Clause, ConfigChange, MatchCond, PeerRef, RouteMap, SessionCfg, SetAction,
};
use cpvr_sim::scenario::{paper_scenario, paper_scenario_with_igp, two_exit_scenario};
use cpvr_sim::workload::{churn_plan, prefix_block, random_topology, schedule_churn};
use cpvr_sim::{CaptureProfile, IgpKind, LatencyProfile, RouterConfig, Simulation, Trace};
use cpvr_topo::{ExtPeerId, LinkId, Topology, TopologyBuilder};
use cpvr_types::{AsNum, Ipv4Prefix, RouterId, SimTime};

const MAX_EVENTS: usize = 4_000_000;

fn digest(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |s: String| {
        for b in s.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in &trace.events {
        feed(format!("{e:?}\n"));
    }
    for (cause, effect) in &trace.truth_edges {
        feed(format!("{cause:?}>{effect:?}\n"));
    }
    h
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

fn set_import(peer: ExtPeerId, map: RouteMap) -> ConfigChange {
    ConfigChange::SetImport {
        peer: PeerRef::External(peer),
        map,
    }
}

fn local_pref(lp: u32) -> RouteMap {
    RouteMap::set_all(vec![SetAction::LocalPref(lp)])
}

/// Applies `change` on `router`, lets the network settle.
fn reconfigure(sim: &mut Simulation, router: RouterId, change: ConfigChange) {
    sim.schedule_config(sim.now() + ms(20), router, change);
    sim.run_to_quiescence(MAX_EVENTS);
}

/// One iBGP session from every router to every other, configured by
/// `session`, plus an eBGP session at each uplink's attachment router.
fn ibgp_sim(
    topo: Topology,
    uplinks: &[ExtPeerId],
    add_path: bool,
    session: impl Fn(RouterId, RouterId) -> Option<SessionCfg>,
    seed: u64,
) -> Simulation {
    let n = topo.num_routers() as u32;
    let configs = (0..n)
        .map(|r| {
            let mut bgp = BgpConfig::new(RouterId(r), AsNum(65000));
            bgp.add_path = add_path;
            bgp.sessions
                .extend((0..n).filter_map(|o| session(RouterId(r), RouterId(o))));
            for up in uplinks {
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
        seed,
    );
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    sim
}

fn full_mesh(me: RouterId, other: RouterId) -> Option<SessionCfg> {
    (me != other).then(|| SessionCfg::new(PeerRef::Internal(other)))
}

/// `hub` reflects between all the others, its clients; they peer with it
/// alone.
fn reflector_star(hub: RouterId) -> impl Fn(RouterId, RouterId) -> Option<SessionCfg> {
    move |me, other| {
        if me == hub && other != hub {
            Some(SessionCfg::ibgp_client(other))
        } else if me != hub && other == hub {
            Some(SessionCfg::new(PeerRef::Internal(hub)))
        } else {
            None
        }
    }
}

/// (a) The paper's triangle: both uplinks announce P, the Fig. 2
/// local-pref fault on R2's uplink, and its rollback.
fn paper_fault_rollback(seed: u64) -> u64 {
    let mut s = paper_scenario(LatencyProfile::cisco(), CaptureProfile::ideal(), seed);
    s.sim.start();
    s.sim.run_to_quiescence(MAX_EVENTS);
    s.sim
        .schedule_ext_announce(s.sim.now() + ms(10), s.ext_r1, &[s.prefix]);
    s.sim
        .schedule_ext_announce(s.sim.now() + ms(500), s.ext_r2, &[s.prefix]);
    s.sim.run_to_quiescence(MAX_EVENTS);
    for lp in [10, 30] {
        reconfigure(
            &mut s.sim,
            RouterId(1),
            set_import(s.ext_r2, local_pref(lp)),
        );
    }
    digest(s.sim.trace())
}

/// (b) The ledger's `repair-storm` shape: 12 routers, 512 prefixes, one
/// /18-scoped local-pref fault on the preferred exit and its rollback,
/// under syslog-skewed capture.
fn two_exit_scoped_fault(seed: u64) -> u64 {
    let (mut sim, left, right) =
        two_exit_scenario(12, LatencyProfile::cisco(), CaptureProfile::syslog(), seed);
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
        reconfigure(&mut sim, RouterId(11), set_import(right, map));
    }
    digest(sim.trace())
}

/// (c) The ledger's `bgp-merger` shape: a random 12-router full mesh with
/// three uplinks under 2 000 announce/withdraw churn items.
fn random_mesh_churn(seed: u64) -> u64 {
    let (topo, peers) = random_topology(12, 8, 3, 7);
    let mut sim = ibgp_sim(topo, &peers, false, full_mesh, seed);
    let prefixes = prefix_block(128);
    let base = sim.now();
    for (t_ms, peer, prefix, announce) in churn_plan(2_000, peers.len(), prefixes.len(), seed) {
        let at = base + ms(t_ms);
        if announce {
            sim.schedule_ext_announce(at, peers[peer], &[prefixes[prefix]]);
        } else {
            sim.schedule_ext_withdraw(at, peers[peer], &[prefixes[prefix]]);
        }
    }
    sim.run_to_quiescence(MAX_EVENTS);
    digest(sim.trace())
}

/// (d) Route reflection: a hub reflecting between four spokes, two of
/// them border routers announcing overlapping tables; withdrawals, a
/// local-pref fault and rollback, and a spoke link failing and healing
/// (reflected routes keep their originator, so this walks the
/// originator-keyed records).
fn route_reflection(seed: u64) -> u64 {
    let mut b = TopologyBuilder::new();
    let hub = b.router("R1");
    let spokes: Vec<RouterId> = (2..=5).map(|i| b.router(&format!("R{i}"))).collect();
    for s in &spokes {
        b.link(hub, *s, 10);
    }
    b.link(spokes[0], spokes[1], 10);
    let up_a = b.external_peer("UpA", AsNum(100), spokes[0]);
    let up_b = b.external_peer("UpB", AsNum(200), spokes[3]);
    let mut sim = ibgp_sim(b.build(), &[up_a, up_b], false, reflector_star(hub), seed);
    let prefixes = prefix_block(48);
    sim.schedule_ext_announce(sim.now() + ms(1), up_a, &prefixes[..32]);
    sim.schedule_ext_announce(sim.now() + ms(7), up_b, &prefixes[16..]);
    sim.run_to_quiescence(MAX_EVENTS);
    sim.schedule_ext_withdraw(sim.now() + ms(1), up_a, &prefixes[8..24]);
    sim.run_to_quiescence(MAX_EVENTS);
    for lp in [150, 100] {
        reconfigure(&mut sim, spokes[3], set_import(up_b, local_pref(lp)));
    }
    for up in [false, true] {
        sim.schedule_link_change(sim.now() + ms(5), LinkId(0), up);
        sim.run_to_quiescence(MAX_EVENTS);
    }
    digest(sim.trace())
}

/// (e) Add-Path: a random 8-router full mesh, four uplinks announcing
/// overlapping tables, partial withdrawals, an uplink going down and
/// coming back, and Add-Path switched off and on again at one border
/// router (per-originator advertisements and withdrawals).
fn add_path(seed: u64) -> u64 {
    let (topo, peers) = random_topology(8, 4, 4, 11);
    let border = topo.ext_peer(peers[0]).attach.0;
    let mut sim = ibgp_sim(topo, &peers, true, full_mesh, seed);
    let prefixes = prefix_block(40);
    for (i, up) in peers.iter().enumerate() {
        let at = sim.now() + ms(3 * i as u64 + 1);
        sim.schedule_ext_announce(at, *up, &prefixes[4 * i..4 * i + 28]);
    }
    sim.run_to_quiescence(MAX_EVENTS);
    sim.schedule_ext_withdraw(sim.now() + ms(1), peers[1], &prefixes[10..20]);
    sim.schedule_ext_withdraw(sim.now() + ms(2), peers[2], &prefixes[15..25]);
    sim.run_to_quiescence(MAX_EVENTS);
    for up in [false, true] {
        sim.schedule_ext_peer_change(sim.now() + ms(5), peers[3], up);
        sim.run_to_quiescence(MAX_EVENTS);
    }
    sim.schedule_ext_announce(sim.now() + ms(1), peers[3], &prefixes[12..40]);
    sim.run_to_quiescence(MAX_EVENTS);
    for on in [false, true] {
        reconfigure(&mut sim, border, ConfigChange::SetAddPath(on));
    }
    digest(sim.trace())
}

/// (f) The scaling shape: a random 48-router full mesh (47 sessions per
/// speaker) with three uplinks under 600 announce/withdraw churn items —
/// most sessions hear nothing for most re-evaluated prefixes.
fn wide_mesh_churn(seed: u64) -> u64 {
    let (topo, peers) = random_topology(48, 24, 3, 13);
    let mut sim = ibgp_sim(topo, &peers, false, full_mesh, seed);
    schedule_churn(&mut sim, &peers, &prefix_block(64), 600, seed);
    sim.run_to_quiescence(MAX_EVENTS);
    digest(sim.trace())
}

/// (g) A wide reflector: 48 routers, R1 reflecting between 47 clients,
/// three uplinks announcing overlapping tables, then a withdraw /
/// re-announce round on each — the `rr_client` / learned-over-eBGP /
/// never-back-to-the-source case analysis, per session, at scale.
fn wide_reflector_star(seed: u64) -> u64 {
    let (topo, peers) = random_topology(48, 24, 3, 17);
    let mut sim = ibgp_sim(topo, &peers, false, reflector_star(RouterId(0)), seed);
    let prefixes = prefix_block(96);
    for (i, up) in peers.iter().enumerate() {
        let at = sim.now() + ms(5 * i as u64 + 1);
        sim.schedule_ext_announce(at, *up, &prefixes[16 * i..16 * i + 64]);
    }
    sim.run_to_quiescence(MAX_EVENTS);
    for (i, up) in peers.iter().enumerate() {
        let round = &prefixes[16 * i + 8..16 * i + 40];
        sim.schedule_ext_withdraw(sim.now() + ms(1), *up, round);
        sim.run_to_quiescence(MAX_EVENTS);
        sim.schedule_ext_announce(sim.now() + ms(1), *up, round);
        sim.run_to_quiescence(MAX_EVENTS);
    }
    digest(sim.trace())
}

/// (h) The paper's triangle over a distance-vector underlay: both
/// uplinks announce P, then a link fails and heals — per-prefix IGP
/// adverts, poisons and (for EIGRP) queries and replies, each captured
/// send hanging off its own prefix's RIB (EIGRP: FIB) event.
fn distance_vector_underlay(igp: IgpKind, seed: u64) -> u64 {
    let (latency, capture) = (LatencyProfile::cisco(), CaptureProfile::syslog());
    let mut s = paper_scenario_with_igp(latency, capture, seed, igp);
    s.sim.start();
    s.sim.run_to_quiescence(MAX_EVENTS);
    s.sim
        .schedule_ext_announce(s.sim.now() + ms(10), s.ext_r1, &[s.prefix]);
    s.sim
        .schedule_ext_announce(s.sim.now() + ms(500), s.ext_r2, &[s.prefix]);
    s.sim.run_to_quiescence(MAX_EVENTS);
    for up in [false, true] {
        s.sim
            .schedule_link_change(s.sim.now() + ms(5), LinkId(0), up);
        s.sim.run_to_quiescence(MAX_EVENTS);
    }
    digest(s.sim.trace())
}

fn rip_underlay(seed: u64) -> u64 {
    distance_vector_underlay(IgpKind::Rip, seed)
}

fn eigrp_underlay(seed: u64) -> u64 {
    distance_vector_underlay(IgpKind::Eigrp, seed)
}

type Scenario = fn(u64) -> u64;

/// `(scenario, seed, digest)` — recorded on the parent of the refactor
/// each guards (see the module docs); never edit a value to make a
/// refactor pass.
const GOLDEN: &[(&str, Scenario, u64, u64)] = &[
    (
        "paper_fault_rollback",
        paper_fault_rollback,
        1,
        0x38bb_1cfb_9e14_aecb,
    ),
    (
        "paper_fault_rollback",
        paper_fault_rollback,
        2,
        0x1a6d_9c24_19f4_0444,
    ),
    (
        "two_exit_scoped_fault",
        two_exit_scoped_fault,
        1,
        0x6a51_8c14_ebb4_c475,
    ),
    (
        "two_exit_scoped_fault",
        two_exit_scoped_fault,
        2,
        0xf4f7_772a_4c65_864a,
    ),
    (
        "random_mesh_churn",
        random_mesh_churn,
        1,
        0xf90e_0e35_3665_50f2,
    ),
    (
        "random_mesh_churn",
        random_mesh_churn,
        2,
        0x6d22_bec2_8baf_51b2,
    ),
    (
        "route_reflection",
        route_reflection,
        1,
        0x650e_7314_2c2b_1d8b,
    ),
    (
        "route_reflection",
        route_reflection,
        2,
        0x7823_8bdd_ddd0_19cb,
    ),
    ("add_path", add_path, 1, 0x91ec_f6a9_6a2f_834c),
    ("add_path", add_path, 2, 0x5a97_9cf3_d00f_ddc2),
    // (f)–(h): recorded on the parent of the shared-route change.
    ("wide_mesh_churn", wide_mesh_churn, 1, 0x1183_5bd4_c01f_d1f1),
    (
        "wide_reflector_star",
        wide_reflector_star,
        1,
        0x7924_09a2_8550_095b,
    ),
    ("rip_underlay", rip_underlay, 1, 0x74da_650e_fc99_881d),
    ("eigrp_underlay", eigrp_underlay, 1, 0xcf77_26a9_7609_17ca),
];

#[test]
fn traces_match_golden_digests() {
    let got: Vec<u64> = GOLDEN.iter().map(|(_, run, seed, _)| run(*seed)).collect();
    let mut mismatches = Vec::new();
    for ((name, _, seed, want), got) in GOLDEN.iter().zip(&got) {
        if got != want {
            mismatches.push(format!(
                "{name} seed {seed}: got {got:#018x}, golden {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "trace digests moved:\n{}",
        mismatches.join("\n")
    );
}
