//! The inline verifier gate: the data-plane-verifier baseline the paper
//! argues against (§1/§2, footnote 2).
//!
//! "Our proposal is for each router to … only allow the data plane to be
//! updated if the inputs and outputs are deemed correct." A data-plane
//! verifier *without* control-plane visibility can only do this by
//! checking each FIB update against a shadow snapshot and **blocking**
//! the ones that would violate policy. This module implements that
//! baseline faithfully — incremental VeriFlow-style verification per
//! update — so the Fig. 2b hazard emerges from the mechanism itself
//! rather than from a hand-written blocklist: the blocked updates
//! accumulate control/data-plane divergence, and a later legitimate
//! withdrawal blackholes.

use cpvr_dataplane::FibUpdate;
use cpvr_sim::{FibGate, Simulation};
use cpvr_verify::{IncrementalVerifier, Policy};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared statistics of an installed inline gate.
#[derive(Clone, Debug, Default)]
pub struct GateStats {
    /// Updates allowed through to hardware.
    pub(crate) allowed: usize,
    /// Updates blocked because applying them would violate policy.
    pub(crate) blocked: Vec<FibUpdate>,
}

struct GateState {
    verifier: IncrementalVerifier,
    stats: Rc<RefCell<GateStats>>,
}

/// Installs an inline verifier gate on the simulation: every FIB update
/// is tentatively applied to a resident [`IncrementalVerifier`] (which
/// keeps the shadow data plane, equivalence classes, and per-class
/// verdicts live), and blocked — rolled back — if the delta check
/// violates.
///
/// Returns a handle to the gate's statistics. The shadow starts from the
/// live data plane at installation time, and the topology (incl. link
/// state) is snapshotted then — the gate is a *data-plane-only* verifier
/// and deliberately never learns about later control-plane context;
/// that blindness is the point of the baseline.
pub fn install_inline_gate(sim: &mut Simulation, policies: Vec<Policy>) -> Rc<RefCell<GateStats>> {
    let stats = Rc::new(RefCell::new(GateStats::default()));
    let state = RefCell::new(GateState {
        verifier: IncrementalVerifier::new(
            sim.topology().clone(),
            sim.dataplane().clone(),
            policies,
        ),
        stats: stats.clone(),
    });
    let gate: FibGate = Box::new(move |update: &FibUpdate| {
        let mut st = state.borrow_mut();
        match st.verifier.gate(update) {
            Ok(_) => {
                st.stats.borrow_mut().allowed += 1;
                true
            }
            Err(_) => {
                st.stats.borrow_mut().blocked.push(*update);
                false
            }
        }
    });
    sim.set_fib_gate(gate);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_bgp::{ConfigChange, PeerRef, RouteMap, SetAction};
    use cpvr_dataplane::TraceOutcome;
    use cpvr_sim::scenario::paper_scenario;
    use cpvr_sim::{CaptureProfile, LatencyProfile};
    use cpvr_types::{RouterId, SimTime};

    const DST: &str = "8.8.8.8";

    fn converged() -> cpvr_sim::scenario::PaperScenario {
        let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 91);
        s.sim.start();
        s.sim.run_to_quiescence(300_000);
        s.sim
            .schedule_ext_announce(s.sim.now() + SimTime::from_millis(1), s.ext_r1, &[s.prefix]);
        s.sim.schedule_ext_announce(
            s.sim.now() + SimTime::from_millis(50),
            s.ext_r2,
            &[s.prefix],
        );
        s.sim.run_to_quiescence(300_000);
        s
    }

    #[test]
    fn gate_blocks_violating_updates_and_preserves_policy_short_term() {
        let mut s = converged();
        let policy = cpvr_verify::Policy::PreferredExit {
            prefix: s.prefix,
            primary: s.ext_r2,
            backup: s.ext_r1,
        };
        let stats = install_inline_gate(&mut s.sim, vec![policy]);
        let change = ConfigChange::SetImport {
            peer: PeerRef::External(s.ext_r2),
            map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
        };
        s.sim
            .schedule_config(s.sim.now() + SimTime::from_millis(10), RouterId(1), change);
        s.sim.run_to_quiescence(300_000);
        // The violating reprogrammings were blocked...
        assert!(!stats.borrow().blocked.is_empty());
        // ...so the live data plane still honors the policy.
        let t = s
            .sim
            .dataplane()
            .trace(s.sim.topology(), RouterId(2), DST.parse().unwrap());
        assert_eq!(t.outcome, TraceOutcome::Exited(s.ext_r2));
    }

    #[test]
    fn gate_allows_compliant_updates() {
        let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::ideal(), 92);
        s.sim.start();
        s.sim.run_to_quiescence(300_000);
        let policy = cpvr_verify::Policy::LoopFree { prefix: s.prefix };
        let stats = install_inline_gate(&mut s.sim, vec![policy]);
        s.sim
            .schedule_ext_announce(s.sim.now() + SimTime::from_millis(1), s.ext_r1, &[s.prefix]);
        s.sim.schedule_ext_announce(
            s.sim.now() + SimTime::from_millis(50),
            s.ext_r2,
            &[s.prefix],
        );
        s.sim.run_to_quiescence(300_000);
        assert!(stats.borrow().allowed > 0);
        assert!(
            stats.borrow().blocked.is_empty(),
            "normal convergence must pass the gate"
        );
        let t = s
            .sim
            .dataplane()
            .trace(s.sim.topology(), RouterId(0), DST.parse().unwrap());
        assert!(t.outcome.is_delivered());
    }

    #[test]
    fn fig2b_hazard_emerges_from_the_mechanism() {
        // The full Fig. 2b story with the real gate: block the violating
        // updates, then fail the uplink — the stale FIBs blackhole, and
        // worse, the gate cannot fix it because the *control plane* no
        // longer wants to send any updates (it believes the FIBs are
        // already correct).
        let mut s = converged();
        let policy = cpvr_verify::Policy::PreferredExit {
            prefix: s.prefix,
            primary: s.ext_r2,
            backup: s.ext_r1,
        };
        let stats = install_inline_gate(&mut s.sim, vec![policy]);
        let change = ConfigChange::SetImport {
            peer: PeerRef::External(s.ext_r2),
            map: RouteMap::set_all(vec![SetAction::LocalPref(10)]),
        };
        s.sim
            .schedule_config(s.sim.now() + SimTime::from_millis(10), RouterId(1), change);
        s.sim.run_to_quiescence(300_000);
        let blocked_before_failure = stats.borrow().blocked.len();
        assert!(blocked_before_failure > 0);
        s.sim
            .schedule_ext_peer_change(s.sim.now() + SimTime::from_millis(10), s.ext_r2, false);
        s.sim.run_to_quiescence(300_000);
        let t = s
            .sim
            .dataplane()
            .trace(s.sim.topology(), RouterId(2), DST.parse().unwrap());
        assert_eq!(
            t.outcome,
            TraceOutcome::Blackhole(RouterId(1)),
            "Fig. 2b: the gate's own blocking causes the blackhole"
        );
    }
}
