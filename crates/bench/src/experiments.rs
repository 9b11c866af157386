//! Experiment runners. Each function reproduces one figure or ablation.

use cpvr_bgp::{ConfigChange, PeerRef, RouteMap, SetAction};
use cpvr_core::infer::{evaluate, infer_hbg, InferConfig, PatternMiner};
use cpvr_core::provenance::{root_causes, RootCauseKind};
use cpvr_core::repair::blocking_divergence;
use cpvr_core::snapshot::{consistency_check, naive_verify_at, verify_when_consistent};
use cpvr_core::{install_inline_gate, ControlLoop, Hbg};
use cpvr_sim::scenario::{paper_scenario, PaperScenario};
use cpvr_sim::workload::IbgpShape;
use cpvr_sim::{CaptureProfile, IoKind, LatencyProfile, Simulation, Trace};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use cpvr_verify::ec::behavior_classes;
use cpvr_verify::{equivalence_classes, Policy};

const MAX_EVENTS: usize = 500_000;

/// The probe address inside the paper's prefix `P`.
pub fn probe() -> std::net::Ipv4Addr {
    "8.8.8.8".parse().expect("static address")
}

/// Boots the paper scenario and converges it through the Fig. 1a → 1b
/// sequence.
pub fn converged_paper(
    latency: LatencyProfile,
    capture: CaptureProfile,
    seed: u64,
) -> PaperScenario {
    let mut s = paper_scenario(latency, capture, seed);
    s.sim.start();
    s.sim.run_to_quiescence(MAX_EVENTS);
    s.sim.schedule_ext_announce(
        s.sim.now() + SimTime::from_millis(10),
        s.ext_r1,
        &[s.prefix],
    );
    s.sim.run_to_quiescence(MAX_EVENTS);
    s.sim.schedule_ext_announce(
        s.sim.now() + SimTime::from_millis(10),
        s.ext_r2,
        &[s.prefix],
    );
    s.sim.run_to_quiescence(MAX_EVENTS);
    s
}

/// The paper's policy for the running example.
pub fn paper_policy(s: &PaperScenario) -> Policy {
    Policy::PreferredExit {
        prefix: s.prefix,
        primary: s.ext_r2,
        backup: s.ext_r1,
    }
}

// ---------------------------------------------------------------------
// E1 — Fig. 1a/1b
// ---------------------------------------------------------------------

/// Result of the Fig. 1 convergence experiment.
pub struct Fig1Result {
    /// Per-router `(name, loc-rib line, fib line)` after Fig. 1a.
    pub after_1a: Vec<(String, String, String)>,
    /// Same after Fig. 1b.
    pub after_1b: Vec<(String, String, String)>,
    /// Forwarding paths for the probe after 1b.
    pub paths_1b: Vec<String>,
}

fn router_state(sim: &Simulation, prefix: Ipv4Prefix) -> Vec<(String, String, String)> {
    (0..sim.topology().num_routers() as u32)
        .map(|r| {
            let rid = RouterId(r);
            let name = sim.topology().router(rid).name.clone();
            let rib = sim
                .router(rid)
                .bgp
                .loc_rib()
                .get(&prefix)
                .map(|route| format!("P, Pref={}, {}", route.local_pref, route.next_hop))
                .unwrap_or_else(|| "-".into());
            let fib = sim
                .dataplane()
                .fib(rid)
                .lookup(probe())
                .map(|(_, e)| format!("P -> {}", e.action))
                .unwrap_or_else(|| "-".into());
            (name, rib, fib)
        })
        .collect()
}

/// Runs E1 (Fig. 1a/1b): converge with only R1's uplink route, then let
/// R2's uplink announce and reconverge.
pub fn fig1_convergence(seed: u64) -> Fig1Result {
    let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), seed);
    s.sim.start();
    s.sim.run_to_quiescence(MAX_EVENTS);
    s.sim.schedule_ext_announce(
        s.sim.now() + SimTime::from_millis(10),
        s.ext_r1,
        &[s.prefix],
    );
    s.sim.run_to_quiescence(MAX_EVENTS);
    let after_1a = router_state(&s.sim, s.prefix);
    s.sim.schedule_ext_announce(
        s.sim.now() + SimTime::from_millis(10),
        s.ext_r2,
        &[s.prefix],
    );
    s.sim.run_to_quiescence(MAX_EVENTS);
    let after_1b = router_state(&s.sim, s.prefix);
    let paths_1b = (0..3u32)
        .map(|r| {
            let t = s
                .sim
                .dataplane()
                .trace(s.sim.topology(), RouterId(r), probe());
            format!(
                "R{}: {:?} => {}",
                r + 1,
                t.router_path()
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>(),
                t.outcome
            )
        })
        .collect();
    Fig1Result {
        after_1a,
        after_1b,
        paths_1b,
    }
}

// ---------------------------------------------------------------------
// E2 — Fig. 1c
// ---------------------------------------------------------------------

/// Result of the snapshot-consistency sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig1cResult {
    /// Horizons examined.
    pub horizons: usize,
    /// Naive verifier alarms (all false by construction).
    pub naive_false_alarms: usize,
    /// HBG-gated verifier alarms.
    pub hbg_false_alarms: usize,
    /// Times the HBG verifier chose to wait.
    pub waits: usize,
}

/// Runs E2: sweep verification horizons across the Fig. 1b transition
/// under skewed capture; compare naive and HBG-gated verifiers.
pub fn fig1c_snapshot_sweep(seeds: std::ops::Range<u64>) -> Fig1cResult {
    let mut out = Fig1cResult::default();
    for seed in seeds {
        let mut s = paper_scenario(LatencyProfile::cisco(), CaptureProfile::syslog(), seed);
        s.sim.start();
        s.sim.run_to_quiescence(MAX_EVENTS);
        s.sim.schedule_ext_announce(
            s.sim.now() + SimTime::from_millis(10),
            s.ext_r1,
            &[s.prefix],
        );
        s.sim.run_to_quiescence(MAX_EVENTS);
        let t_start = s.sim.now();
        s.sim
            .schedule_ext_announce(t_start + SimTime::from_millis(10), s.ext_r2, &[s.prefix]);
        s.sim.run_to_quiescence(MAX_EVENTS);
        let t_end = s.sim.now() + SimTime::from_millis(100);
        let max = t_end + SimTime::from_secs(2);
        let policy = Policy::LoopFree { prefix: s.prefix };
        let mut t = t_start;
        while t <= t_end {
            out.horizons += 1;
            if !naive_verify_at(
                s.sim.trace(),
                s.sim.topology(),
                std::slice::from_ref(&policy),
                t,
            )
            .ok()
            {
                out.naive_false_alarms += 1;
            }
            if !consistency_check(s.sim.trace(), t).is_consistent() {
                out.waits += 1;
            }
            if let Some((_, rep)) = verify_when_consistent(
                s.sim.trace(),
                s.sim.topology(),
                std::slice::from_ref(&policy),
                t,
                max,
                SimTime::from_millis(5),
            ) {
                if !rep.ok() {
                    out.hbg_false_alarms += 1;
                }
            }
            t += SimTime::from_millis(10);
        }
    }
    out
}

// ---------------------------------------------------------------------
// E3/E4 — Fig. 2a/2b
// ---------------------------------------------------------------------

/// Result of the Fig. 2 experiments.
pub struct Fig2Result {
    /// Violations detected after the bad localpref change.
    pub violations_detected: usize,
    /// Exit used after the change (should be the backup/R1 uplink).
    pub exit_after_change: String,
    /// With naive blocking: outcome of the probe after R2's uplink dies.
    pub blocked_outcome_after_failure: String,
    /// Number of blocked FIB updates.
    pub blocked_updates: usize,
    /// Control/data-plane divergence entries created by blocking.
    pub divergence_entries: usize,
    /// Without blocking: outcome of the probe after the same failure.
    pub unblocked_outcome_after_failure: String,
}

/// Runs E3 + E4: the ill-considered localpref change (Fig. 2a), the
/// naive-blocking hazard (Fig. 2b), and the no-blocking control.
pub fn fig2_violation_and_blocking(seed: u64) -> Fig2Result {
    // E3: detect the violation.
    let mut s = converged_paper(LatencyProfile::fast(), CaptureProfile::ideal(), seed);
    let change = ConfigChange::SetImport {
        peer: PeerRef::External(s.ext_r2),
        map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
    };
    s.sim.schedule_config(
        s.sim.now() + SimTime::from_millis(10),
        RouterId(1),
        change.clone(),
    );
    s.sim.run_to_quiescence(MAX_EVENTS);
    let report = cpvr_verify::verify(s.sim.topology(), s.sim.dataplane(), &[paper_policy(&s)]);
    let exit = s
        .sim
        .dataplane()
        .trace(s.sim.topology(), RouterId(2), probe())
        .outcome
        .to_string();

    // E4a: naive blocking, then uplink failure → blackhole.
    let mut b = converged_paper(LatencyProfile::fast(), CaptureProfile::ideal(), seed);
    let policy = paper_policy(&b);
    install_inline_gate(&mut b.sim, vec![policy]);
    b.sim.schedule_config(
        b.sim.now() + SimTime::from_millis(10),
        RouterId(1),
        change.clone(),
    );
    b.sim.run_to_quiescence(MAX_EVENTS);
    b.sim
        .schedule_ext_peer_change(b.sim.now() + SimTime::from_millis(10), b.ext_r2, false);
    b.sim.run_to_quiescence(MAX_EVENTS);
    let blocked_outcome = b
        .sim
        .dataplane()
        .trace(b.sim.topology(), RouterId(2), probe())
        .outcome;
    let divergence = blocking_divergence(b.sim.trace(), b.sim.dataplane(), b.sim.now());

    // E4b: control — same failure without blocking.
    let mut c = converged_paper(LatencyProfile::fast(), CaptureProfile::ideal(), seed);
    c.sim
        .schedule_config(c.sim.now() + SimTime::from_millis(10), RouterId(1), change);
    c.sim.run_to_quiescence(MAX_EVENTS);
    c.sim
        .schedule_ext_peer_change(c.sim.now() + SimTime::from_millis(10), c.ext_r2, false);
    c.sim.run_to_quiescence(MAX_EVENTS);
    let unblocked_outcome = c
        .sim
        .dataplane()
        .trace(c.sim.topology(), RouterId(2), probe())
        .outcome;

    Fig2Result {
        violations_detected: report.violations.len(),
        exit_after_change: exit,
        blocked_outcome_after_failure: blocked_outcome.to_string(),
        blocked_updates: b.sim.blocked_updates().len(),
        divergence_entries: divergence.len(),
        unblocked_outcome_after_failure: unblocked_outcome.to_string(),
    }
}

// ---------------------------------------------------------------------
// E5 — Fig. 4
// ---------------------------------------------------------------------

/// Result of the HBG/root-cause experiment.
pub struct Fig4Result {
    /// The rendered HBG (events with inferred antecedents).
    pub rendered: String,
    /// The problematic FIB event traced from.
    pub traced_from: String,
    /// Root causes found, rendered.
    pub roots: Vec<String>,
    /// Whether the top root cause is R2's config change.
    pub root_is_r2_config: bool,
    /// Repair applied and final compliance (full loop).
    pub repaired_and_ok: bool,
}

/// Runs E5: build the HBG for the Fig. 2 scenario, trace from R1's "P →
/// Ext" FIB install to the root, then run the full guarded loop.
pub fn fig4_hbg_and_root_cause(seed: u64) -> Fig4Result {
    let mut s = converged_paper(LatencyProfile::fast(), CaptureProfile::ideal(), seed);
    let fig2_change = ConfigChange::SetImport {
        peer: PeerRef::External(s.ext_r2),
        map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
    };
    let t_change = s.sim.now() + SimTime::from_millis(10);
    s.sim.schedule_config(t_change, RouterId(1), fig2_change);
    s.sim.run_to_quiescence(MAX_EVENTS);
    let trace = s.sim.trace();
    let hbg = infer_hbg(
        trace,
        &InferConfig {
            rules: true,
            patterns: None,
            min_confidence: 0.0,
            proximate: false,
        },
    );
    // The figure traces from "R1 install P -> Ext in FIB": R1's last FIB
    // install for P after the change.
    let bad = trace
        .events
        .iter()
        .filter(|e| e.router == RouterId(0) && e.time >= t_change)
        .filter(|e| matches!(&e.kind, IoKind::FibInstall { prefix, .. } if *prefix == s.prefix))
        .max_by_key(|e| (e.time, e.id))
        .expect("R1 must have reprogrammed P");
    let roots = root_causes(trace, &hbg, bad.id, 0.8);
    let root_is_r2_config = roots.first().is_some_and(|r| {
        r.router == RouterId(1) && matches!(r.kind, RootCauseKind::ConfigChange { .. })
    });
    // Render only the post-change subgraph (the figure's scope).
    let sub = Trace {
        events: trace
            .events
            .iter()
            .filter(|e| e.time >= t_change && e.kind.prefix().is_none_or(|p| p == s.prefix))
            .cloned()
            .collect(),
        ..Default::default()
    };
    let rendered = render_subgraph(&sub, &hbg);
    // Full loop for the repair half.
    let mut s2 = converged_paper(LatencyProfile::fast(), CaptureProfile::ideal(), seed);
    let fig2_change = ConfigChange::SetImport {
        peer: PeerRef::External(s2.ext_r2),
        map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
    };
    s2.sim.schedule_config(
        s2.sim.now() + SimTime::from_millis(10),
        RouterId(1),
        fig2_change,
    );
    let guard = ControlLoop::new(vec![paper_policy(&s2)]);
    let report = guard.run(&mut s2.sim, SimTime::from_secs(2));
    Fig4Result {
        rendered,
        traced_from: trace.events[bad.id.index()].to_string(),
        roots: roots.iter().map(|r| r.to_string()).collect(),
        root_is_r2_config,
        repaired_and_ok: report.repairs() >= 1 && report.final_ok,
    }
}

/// Renders the events of `sub` with the antecedents recorded in `hbg`.
fn render_subgraph(sub: &Trace, hbg: &Hbg) -> String {
    let mut out = String::new();
    for e in sub.by_time() {
        out.push_str(&format!("{e}\n"));
        for p in hbg.parents(e.id, 0.5) {
            out.push_str(&format!("    <- {p}\n"));
        }
    }
    out
}

// ---------------------------------------------------------------------
// E6 — Fig. 5
// ---------------------------------------------------------------------

/// Result of the feasibility-timeline experiment.
pub struct Fig5Result {
    /// The rendered per-router timeline.
    pub timeline: String,
    /// Gap between console config and soft reconfiguration.
    pub config_to_soft: SimTime,
    /// Gap between soft reconfiguration and R1's FIB install.
    pub soft_to_fib: SimTime,
    /// Gap between R1's advert and a remote router's matching recv.
    pub advert_propagation: SimTime,
    /// Whether withdraw events for the old route appear after the new
    /// route's installs (the figure's bottom rows).
    pub withdraws_followed: bool,
}

/// Runs E6: the §7 feasibility study — LP raised to 200 on R1 with
/// Cisco-calibrated latencies; extract the Fig. 5 timeline.
pub fn fig5_feasibility(seed: u64) -> Fig5Result {
    let mut s = converged_paper(LatencyProfile::cisco(), CaptureProfile::ideal(), seed);
    // Paper's §7 run: localpref on R1 set to 200 → R1 becomes the exit.
    let change = ConfigChange::SetImport {
        peer: PeerRef::External(s.ext_r1),
        map: RouteMap::set_all(vec![SetAction::LocalPref(200)]),
    };
    let t_change = s.sim.now() + SimTime::from_millis(100);
    s.sim.schedule_config(t_change, RouterId(0), change);
    s.sim.run_to_quiescence(MAX_EVENTS);
    let trace = s.sim.trace();
    let find = |pred: &dyn Fn(&cpvr_sim::IoEvent) -> bool| {
        trace
            .events
            .iter()
            .filter(|e| e.time >= t_change)
            .filter(|e| pred(e))
            .min_by_key(|e| (e.time, e.id))
    };
    let config = find(&|e| {
        matches!(
            &e.kind,
            IoKind::ConfigChange {
                change: Some(_),
                ..
            }
        )
    })
    .expect("config event");
    let soft = find(&|e| matches!(e.kind, IoKind::SoftReconfig { .. })).expect("soft reconfig");
    let fib = find(&|e| {
        e.router == RouterId(0)
            && matches!(&e.kind, IoKind::FibInstall { prefix, .. } if *prefix == s.prefix)
    })
    .expect("R1 FIB install");
    let send = find(&|e| {
        e.router == RouterId(0)
            && matches!(&e.kind, IoKind::SendAdvert { prefix: Some(p), .. } if *p == s.prefix)
    })
    .expect("R1 advert");
    let recv = find(&|e| {
        e.router != RouterId(0)
            && matches!(
                &e.kind,
                IoKind::RecvAdvert { prefix: Some(p), from: Some(PeerRef::Internal(r)), .. }
                    if *p == s.prefix && *r == RouterId(0)
            )
    })
    .expect("remote recv");
    let withdraws: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.time >= t_change)
        .filter(
            |e| matches!(&e.kind, IoKind::SendWithdraw { prefix: Some(p), .. } if *p == s.prefix),
        )
        .collect();
    let withdraws_followed = withdraws.iter().all(|w| w.time >= fib.time);
    // Per-router columns, Fig. 5 style.
    let mut timeline = String::new();
    for r in 0..3u32 {
        timeline.push_str(&format!("--- Router {} ---\n", r + 1));
        let mut prev: Option<SimTime> = None;
        for e in trace.by_time() {
            if e.router != RouterId(r) || e.time < t_change {
                continue;
            }
            let gap = prev
                .map(|p| e.time.saturating_sub(p))
                .unwrap_or(SimTime::ZERO);
            timeline.push_str(&format!("  +{gap:>10}  {}\n", e.kind.label()));
            prev = Some(e.time);
        }
    }
    Fig5Result {
        timeline,
        config_to_soft: soft.time - config.time,
        soft_to_fib: fib.time.saturating_sub(soft.time),
        advert_propagation: recv.time.saturating_sub(send.time),
        withdraws_followed,
    }
}

// ---------------------------------------------------------------------
// A1 — equivalence classes
// ---------------------------------------------------------------------

/// Result of the EC-scaling ablation.
pub struct EcResult {
    /// Prefixes installed.
    pub prefixes: usize,
    /// Distinct policy classes in the workload.
    pub policy_classes: usize,
    /// Behavioral classes discovered from the FIBs.
    pub behavior_classes: usize,
    /// Forwarding equivalence classes (VeriFlow atoms).
    pub forwarding_ecs: usize,
}

/// Runs A1: install `n_prefixes` with `classes` distinct treatments on
/// the paper triangle and count the classes the verifier discovers.
pub fn ec_scaling(n_prefixes: usize, classes: usize, seed: u64) -> EcResult {
    let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), seed);
    s.sim.start();
    s.sim.run_to_quiescence(MAX_EVENTS);
    let prefixes = cpvr_sim::workload::prefix_block(n_prefixes);
    let assignment = cpvr_sim::workload::policy_classes(n_prefixes, classes, seed);
    // Class k routes via R1's uplink for even k, R2's for odd k — the
    // treatments differ by which border router announces.
    let mut via_r1: Vec<Ipv4Prefix> = Vec::new();
    let mut via_r2: Vec<Ipv4Prefix> = Vec::new();
    for (p, k) in prefixes.iter().zip(&assignment) {
        if k % 2 == 0 {
            via_r1.push(*p);
        } else {
            via_r2.push(*p);
        }
    }
    s.sim
        .schedule_ext_announce(s.sim.now() + SimTime::from_millis(1), s.ext_r1, &via_r1);
    s.sim
        .schedule_ext_announce(s.sim.now() + SimTime::from_millis(2), s.ext_r2, &via_r2);
    s.sim.run_to_quiescence(MAX_EVENTS * 4);
    let behavior = behavior_classes(s.sim.dataplane());
    let ecs = equivalence_classes(s.sim.dataplane());
    EcResult {
        prefixes: n_prefixes,
        policy_classes: classes.min(2), // two observable treatments here
        behavior_classes: behavior.len(),
        forwarding_ecs: ecs.len(),
    }
}

// ---------------------------------------------------------------------
// A2 — inference accuracy
// ---------------------------------------------------------------------

/// One row of the inference-accuracy ablation.
pub struct InferenceRow {
    /// Technique name.
    pub technique: String,
    /// Edge precision vs ground truth.
    pub precision: f64,
    /// Edge recall vs ground truth.
    pub recall: f64,
    /// Edges emitted.
    pub edges: usize,
}

/// Runs A2: rule matching vs pattern mining (trained on compliant runs)
/// vs both, on a held-out violating run.
pub fn inference_accuracy(seed: u64) -> Vec<InferenceRow> {
    // Training traces: compliant convergence runs.
    let mut miner = PatternMiner::new(SimTime::from_millis(50), 3);
    for s in 0..3u64 {
        let t = converged_paper(
            LatencyProfile::fast(),
            CaptureProfile::ideal(),
            seed * 100 + s,
        );
        miner.train(t.sim.trace());
    }
    // Target: the Fig. 2 violating run.
    let mut target = converged_paper(LatencyProfile::fast(), CaptureProfile::ideal(), seed + 77);
    let change = ConfigChange::SetImport {
        peer: PeerRef::External(target.ext_r2),
        map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
    };
    target.sim.schedule_config(
        target.sim.now() + SimTime::from_millis(10),
        RouterId(1),
        change,
    );
    target.sim.run_to_quiescence(MAX_EVENTS);
    let trace = target.sim.trace();
    let mut rows = Vec::new();
    for (name, cfg) in [
        (
            "rules",
            InferConfig {
                rules: true,
                patterns: None,
                min_confidence: 0.0,
                proximate: false,
            },
        ),
        (
            "patterns(0.6)",
            InferConfig {
                rules: false,
                patterns: Some(&miner),
                min_confidence: 0.6,
                proximate: false,
            },
        ),
        (
            "patterns(0.9)",
            InferConfig {
                rules: false,
                patterns: Some(&miner),
                min_confidence: 0.9,
                proximate: false,
            },
        ),
        (
            "patterns+proximate",
            InferConfig {
                rules: false,
                patterns: Some(&miner),
                min_confidence: 0.6,
                proximate: true,
            },
        ),
        (
            "rules+patterns",
            InferConfig {
                rules: true,
                patterns: Some(&miner),
                min_confidence: 0.6,
                proximate: false,
            },
        ),
    ] {
        let g = infer_hbg(trace, &cfg);
        let st = evaluate(&g, trace, 0.0);
        rows.push(InferenceRow {
            technique: name.to_string(),
            precision: st.precision,
            recall: st.recall,
            edges: st.edges,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// A5 — repair success
// ---------------------------------------------------------------------

/// One row of the repair ablation.
pub struct RepairRow {
    /// Fault injected.
    pub fault: String,
    /// Repairs applied by the guard.
    pub repairs: usize,
    /// Operator notifications.
    pub notifications: usize,
    /// Whether the network was compliant at the end.
    pub final_ok: bool,
}

/// Runs A5: the guarded loop against a battery of fault types.
pub fn repair_battery(seed: u64) -> Vec<RepairRow> {
    let mut rows = Vec::new();
    // Fault 1: bad localpref (revertible) — must repair.
    {
        let mut s = converged_paper(LatencyProfile::fast(), CaptureProfile::ideal(), seed);
        let change = ConfigChange::SetImport {
            peer: PeerRef::External(s.ext_r2),
            map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
        };
        s.sim
            .schedule_config(s.sim.now() + SimTime::from_millis(10), RouterId(1), change);
        let guard = ControlLoop::new(vec![paper_policy(&s)]);
        let rep = guard.run(&mut s.sim, SimTime::from_secs(2));
        rows.push(RepairRow {
            fault: "bad localpref on R2 uplink".into(),
            repairs: rep.repairs(),
            notifications: count_notifies(&rep),
            final_ok: rep.final_ok,
        });
    }
    // Fault 2: import filter drops everything (revertible) — must repair.
    {
        let mut s = converged_paper(LatencyProfile::fast(), CaptureProfile::ideal(), seed + 1);
        let change = ConfigChange::SetImport {
            peer: PeerRef::External(s.ext_r2),
            map: RouteMap::deny_any(),
        };
        s.sim
            .schedule_config(s.sim.now() + SimTime::from_millis(10), RouterId(1), change);
        let guard = ControlLoop::new(vec![paper_policy(&s)]);
        let rep = guard.run(&mut s.sim, SimTime::from_secs(2));
        rows.push(RepairRow {
            fault: "deny-all import filter on R2 uplink".into(),
            repairs: rep.repairs(),
            notifications: count_notifies(&rep),
            final_ok: rep.final_ok,
        });
    }
    // Fault 3: uplink failure (not revertible) — must notify, and the
    // data plane legitimately fails over (policy's backup clause holds).
    {
        let mut s = converged_paper(LatencyProfile::fast(), CaptureProfile::ideal(), seed + 2);
        s.sim
            .schedule_ext_peer_change(s.sim.now() + SimTime::from_millis(10), s.ext_r2, false);
        let guard = ControlLoop::new(vec![paper_policy(&s)]);
        let rep = guard.run(&mut s.sim, SimTime::from_secs(2));
        rows.push(RepairRow {
            fault: "R2 uplink failure".into(),
            repairs: rep.repairs(),
            notifications: count_notifies(&rep),
            final_ok: rep.final_ok,
        });
    }
    // Fault 4: external withdrawal of the preferred route — transient
    // violation during reconvergence, nothing to revert.
    {
        let mut s = converged_paper(LatencyProfile::fast(), CaptureProfile::ideal(), seed + 3);
        s.sim.schedule_ext_withdraw(
            s.sim.now() + SimTime::from_millis(10),
            s.ext_r2,
            &[s.prefix],
        );
        let guard = ControlLoop::new(vec![Policy::Reachable { prefix: s.prefix }]);
        let rep = guard.run(&mut s.sim, SimTime::from_secs(2));
        rows.push(RepairRow {
            fault: "external withdrawal of P at R2 uplink".into(),
            repairs: rep.repairs(),
            notifications: count_notifies(&rep),
            final_ok: rep.final_ok,
        });
    }
    rows
}

fn count_notifies(rep: &cpvr_core::GuardReport) -> usize {
    rep.timeline
        .iter()
        .filter(|(_, a)| matches!(a, cpvr_core::GuardAction::Notified { .. }))
        .count()
}

// ---------------------------------------------------------------------
// A4 — scalability helpers (used by Criterion benches)
// ---------------------------------------------------------------------

/// Generates a converged two-exit line scenario of `n` routers with `k`
/// prefixes announced, returning the simulation (trace included).
pub fn scaled_scenario(n: usize, k: usize, seed: u64) -> Simulation {
    let (mut sim, left, right) = cpvr_sim::scenario::two_exit_scenario(
        n,
        LatencyProfile::fast(),
        CaptureProfile::ideal(),
        seed,
    );
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS * 4);
    let prefixes = cpvr_sim::workload::prefix_block(k);
    let half = k / 2;
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(1), left, &prefixes[..half]);
    sim.schedule_ext_announce(
        sim.now() + SimTime::from_millis(2),
        right,
        &prefixes[half..],
    );
    sim.run_to_quiescence(MAX_EVENTS * 8);
    sim
}

// ---------------------------------------------------------------------
// A12 — simulator scale
// ---------------------------------------------------------------------

/// One row of the simulator-scale table.
pub struct SimScaleRow {
    /// Prefixes announced on both exits.
    pub prefixes: usize,
    /// Events captured over the whole run.
    pub events: usize,
    /// Wall-clock seconds to converge both tables.
    pub converge_s: f64,
    /// Wall-clock seconds for the Fig. 2 fault plus its rollback.
    pub fault_rollback_s: f64,
}

/// Runs A12: the 12-router two-exit network carries `n_prefixes` on both
/// exits, then the preferred exit's local-pref is demoted below the
/// backup's and restored — two soft reconfigurations over the full table,
/// each swinging every prefix at every router.
pub fn sim_scaling(n_prefixes: usize, seed: u64) -> SimScaleRow {
    use std::time::Instant;
    let (mut sim, left, right) = cpvr_sim::scenario::two_exit_scenario(
        12,
        LatencyProfile::cisco(),
        CaptureProfile::ideal(),
        seed,
    );
    sim.start();
    sim.run_to_quiescence(usize::MAX);
    let prefixes = cpvr_sim::workload::prefix_block(n_prefixes);
    let t0 = Instant::now();
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(1), right, &prefixes);
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(30), left, &prefixes);
    sim.run_to_quiescence(usize::MAX);
    let converge_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for lp in [10, 30] {
        let change = ConfigChange::SetImport {
            peer: PeerRef::External(right),
            map: RouteMap::set_all(vec![SetAction::LocalPref(lp)]),
        };
        sim.schedule_config(sim.now() + SimTime::from_millis(20), RouterId(11), change);
        sim.run_to_quiescence(usize::MAX);
    }
    SimScaleRow {
        prefixes: n_prefixes,
        events: sim.trace().len(),
        converge_s,
        fault_rollback_s: t0.elapsed().as_secs_f64(),
    }
}

/// One row of the router-count axis of the simulator-scale table.
pub struct RouterScaleRow {
    /// Routers in the network.
    pub routers: usize,
    /// Events captured by the churn (after IGP and session start-up).
    pub events: usize,
    /// Wall-clock nanoseconds of the churn per captured event.
    pub ns_per_event: f64,
    /// Heap allocations of the churn per captured event.
    pub allocs_per_event: f64,
}

/// Runs A16: a random connected `routers`-router network with three
/// uplinks and the iBGP sessions of `shape` converges, then `items`
/// external announce/withdraw churn items run over 128 prefixes under
/// syslog capture — the ledger's `bgp-merger` generator with the session
/// count as the axis. `allocations` reads the caller's allocation counter
/// (the counting allocator has to be the binary's global one).
pub fn router_scaling(
    routers: usize,
    shape: IbgpShape,
    items: usize,
    seed: u64,
    allocations: fn() -> u64,
) -> RouterScaleRow {
    use cpvr_sim::workload::{ibgp_configs, prefix_block, random_topology, schedule_churn};
    let (topo, uplinks) = random_topology(routers, routers * 2 / 3, 3, 7);
    let configs = ibgp_configs(&topo, &uplinks, shape);
    let mut sim = Simulation::new(
        topo,
        configs,
        LatencyProfile::cisco(),
        CaptureProfile::syslog(),
        seed,
    );
    sim.start();
    sim.run_to_quiescence(usize::MAX);
    let before = sim.trace().len();
    let (t0, a0) = (std::time::Instant::now(), allocations());
    schedule_churn(&mut sim, &uplinks, &prefix_block(128), items, seed);
    sim.run_to_quiescence(usize::MAX);
    let (elapsed, allocs) = (t0.elapsed(), allocations() - a0);
    let events = sim.trace().len() - before;
    RouterScaleRow {
        routers,
        events,
        ns_per_event: elapsed.as_nanos() as f64 / events as f64,
        allocs_per_event: allocs as f64 / events as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_paper_tables() {
        let r = fig1_convergence(11);
        // After 1a: everyone's RIB says Pref=20 via R1's side.
        for (name, rib, _fib) in &r.after_1a {
            assert!(rib.contains("Pref=20"), "{name}: {rib}");
        }
        // After 1b: everyone prefers Pref=30.
        for (name, rib, _fib) in &r.after_1b {
            assert!(rib.contains("Pref=30"), "{name}: {rib}");
        }
        assert!(
            r.paths_1b.iter().all(|p| p.contains("exited via Ext1")),
            "{:?}",
            r.paths_1b
        );
    }

    #[test]
    fn fig1c_rates_shape() {
        // Sweep the same seed range as the `fig1c_snapshot` binary: the
        // naive-false-alarm phenomenon is real but rare (≈1% of
        // horizons), so a handful of seeds is needed to observe it.
        let r = fig1c_snapshot_sweep(0..8);
        assert!(r.naive_false_alarms > 0);
        assert_eq!(r.hbg_false_alarms, 0);
        assert!(r.waits > 0);
    }

    #[test]
    fn fig2_shape() {
        let r = fig2_violation_and_blocking(5);
        assert!(r.violations_detected > 0);
        assert!(
            r.exit_after_change.contains("Ext0"),
            "{}",
            r.exit_after_change
        );
        assert!(r.blocked_outcome_after_failure.contains("blackhole"));
        assert!(r.blocked_updates > 0);
        assert!(r.divergence_entries > 0);
        assert!(r
            .unblocked_outcome_after_failure
            .contains("exited via Ext0"));
    }

    #[test]
    fn fig4_root_cause_and_repair() {
        let r = fig4_hbg_and_root_cause(6);
        assert!(r.root_is_r2_config, "roots: {:?}", r.roots);
        assert!(r.repaired_and_ok);
        assert!(!r.rendered.is_empty());
        assert!(r.traced_from.contains("R1"));
    }

    #[test]
    fn fig5_timescales() {
        let r = fig5_feasibility(7);
        assert!(
            r.config_to_soft >= SimTime::from_secs(20)
                && r.config_to_soft <= SimTime::from_secs(30)
        );
        assert!(r.soft_to_fib <= SimTime::from_millis(10));
        assert!(
            r.advert_propagation >= SimTime::from_millis(4)
                && r.advert_propagation <= SimTime::from_millis(20)
        );
        assert!(r.withdraws_followed);
        assert!(r.timeline.contains("Router 1"));
    }

    #[test]
    fn ec_counts_stay_small() {
        let r = ec_scaling(200, 8, 9);
        assert_eq!(r.prefixes, 200);
        assert!(
            r.behavior_classes <= 15,
            "behavior classes {} exceed the paper's bound",
            r.behavior_classes
        );
    }

    #[test]
    fn inference_rows_ordered_sensibly() {
        let rows = inference_accuracy(3);
        assert_eq!(rows.len(), 5);
        let rules = &rows[0];
        assert!(
            rules.precision > 0.7 && rules.recall > 0.8,
            "{}: p={} r={}",
            rules.technique,
            rules.precision,
            rules.recall
        );
    }

    #[test]
    fn repair_battery_outcomes() {
        let rows = repair_battery(50);
        assert_eq!(rows.len(), 4);
        assert!(rows[0].repairs >= 1 && rows[0].final_ok, "localpref case");
        assert!(rows[1].repairs >= 1 && rows[1].final_ok, "deny-all case");
        assert_eq!(rows[2].repairs, 0, "hardware fault must not be 'repaired'");
        assert!(rows[2].final_ok, "failover satisfies the backup clause");
        assert_eq!(rows[3].repairs, 0, "external withdrawal not revertible");
    }
}
