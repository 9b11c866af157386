//! The data-plane checker: full and delta-scoped batch verification.

use crate::ec::{class_of, EquivClass};
use crate::policy::{Policy, Violation};
use cpvr_dataplane::{DataPlane, TraceOutcome};
use cpvr_topo::Topology;
use cpvr_types::{Ipv4Prefix, PrefixTrie, RouterId};

/// The result of a verification pass.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// All violations found.
    pub violations: Vec<Violation>,
    /// How many equivalence classes were examined.
    pub ecs_checked: usize,
    /// How many forwarding traces were executed.
    pub traces_run: usize,
}

impl VerifyReport {
    /// True if no policy was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Verifies every policy against a data-plane snapshot.
///
/// For each policy, the destination space under the policy's prefix is
/// sliced into equivalence classes (including classes induced by
/// more-specific FIB entries), and one representative per class is traced
/// from every ingress (or the policy's named ingress).
///
/// ```
/// use cpvr_dataplane::{DataPlane, FibAction, FibEntry};
/// use cpvr_topo::builder::shapes;
/// use cpvr_types::{RouterId, SimTime};
/// use cpvr_verify::{verify, Policy};
///
/// let (topo, _e1, e2) = shapes::paper_triangle();
/// let mut dp = DataPlane::new(3);
/// // Only R2 has a route; other ingresses blackhole → Reachable fails.
/// dp.fib_mut(RouterId(1)).install(
///     "8.8.8.0/24".parse().unwrap(),
///     FibEntry { action: FibAction::Exit(e2), installed_at: SimTime::ZERO },
/// );
/// let report = verify(&topo, &dp, &[Policy::Reachable { prefix: "8.8.8.0/24".parse().unwrap() }]);
/// assert_eq!(report.violations.len(), 2);
/// ```
pub fn verify(topo: &Topology, dp: &DataPlane, policies: &[Policy]) -> VerifyReport {
    verify_classes(topo, dp, policies, |_| true)
}

/// Checks every policy against those of its equivalence classes that
/// `in_scope` selects, in (policy, class) order.
fn verify_classes(
    topo: &Topology,
    dp: &DataPlane,
    policies: &[Policy],
    in_scope: impl Fn(&EquivClass) -> bool,
) -> VerifyReport {
    let union = dp.prefix_union();
    let mut jobs: Vec<(usize, EquivClass)> = Vec::new();
    for (idx, policy) in policies.iter().enumerate() {
        for ec in classes_under(&union, policy.prefix()) {
            if in_scope(&ec) {
                jobs.push((idx, ec));
            }
        }
    }
    let mut report = VerifyReport {
        ecs_checked: jobs.len(),
        ..VerifyReport::default()
    };
    for (violations, traces) in run_class_checks(topo, dp, policies, &jobs) {
        report.traces_run += traces;
        report.violations.extend(violations);
    }
    report
}

/// The equivalence classes a policy with scope `scope` must check, given
/// the union trie of installed prefixes: the scope's own class (the part
/// of `scope` no installed more-specific prefix covers) followed by the
/// classes of every installed prefix under the scope, in prefix order.
///
/// This is exactly the class set the original sort-and-scan computed
/// from `installed ∩ overlapping(scope) ∪ {scope}` filtered to owners
/// inside `scope`: installed prefixes *above* the scope never own a kept
/// class and never shrink one (their space lies outside every kept
/// owner's children).
pub(crate) fn classes_under<V>(trie: &PrefixTrie<V>, scope: Ipv4Prefix) -> Vec<EquivClass> {
    let mut out = Vec::new();
    if let Some(ec) = class_of(trie, scope) {
        out.push(ec);
    }
    for (p, _) in trie.covered_by(&scope) {
        if p == scope {
            continue; // already emitted as the scope's own class
        }
        if let Some(ec) = class_of(trie, p) {
            out.push(ec);
        }
    }
    out
}

/// The equivalence classes a policy scoped to `scope` would check against
/// this data plane. Exposed for tests and tooling that want to inspect
/// the slicing without running traces.
pub fn policy_equivalence_classes(dp: &DataPlane, scope: Ipv4Prefix) -> Vec<EquivClass> {
    classes_under(&dp.prefix_union(), scope)
}

/// Runs `(policy index, class)` jobs, each yielding its violations and
/// trace count, in job order.
pub(crate) fn run_class_checks(
    topo: &Topology,
    dp: &DataPlane,
    policies: &[Policy],
    jobs: &[(usize, EquivClass)],
) -> Vec<(Vec<Violation>, usize)> {
    jobs.iter()
        .map(|(idx, ec)| check_class(topo, dp, *idx, &policies[*idx], ec))
        .collect()
}

/// Incremental verification: like [`verify`], but re-checks only the
/// equivalence classes whose owning prefix overlaps one of the `changed`
/// prefixes — the VeriFlow-style fast path used when gating a single FIB
/// update. A class whose owner is disjoint from every changed prefix
/// kept both its shape (its children are inside the owner) and its
/// forwarding vector (its representative's LPM never consults a disjoint
/// prefix), so skipping it cannot hide a new violation.
pub fn verify_incremental(
    topo: &Topology,
    dp: &DataPlane,
    policies: &[Policy],
    changed: &[Ipv4Prefix],
) -> VerifyReport {
    verify_classes(topo, dp, policies, |ec| {
        changed.iter().any(|c| c.overlaps(&ec.prefix))
    })
}

/// Checks one policy against one equivalence class, returning the
/// violations found and the number of traces run.
fn check_class(
    topo: &Topology,
    dp: &DataPlane,
    idx: usize,
    policy: &Policy,
    ec: &EquivClass,
) -> (Vec<Violation>, usize) {
    let mut violations = Vec::new();
    let mut traces = 0usize;
    let ingresses: Vec<RouterId> = match policy {
        Policy::Waypoint { from, .. } => vec![*from],
        _ => (0..dp.num_routers() as u32).map(RouterId).collect(),
    };
    for ingress in ingresses {
        let trace = dp.trace(topo, ingress, ec.representative);
        traces += 1;
        let bad: Option<String> = match policy {
            Policy::Reachable { .. } => {
                if trace.outcome.is_delivered() {
                    None
                } else {
                    Some(trace.outcome.to_string())
                }
            }
            Policy::LoopFree { .. } => match trace.outcome {
                TraceOutcome::Loop(_) => Some(trace.outcome.to_string()),
                _ => None,
            },
            Policy::ExitsVia { peer, .. } => match trace.outcome {
                TraceOutcome::Exited(p) if p == *peer => None,
                _ => Some(trace.outcome.to_string()),
            },
            Policy::PreferredExit {
                primary, backup, ..
            } => {
                let want = if topo.ext_peer(*primary).state.is_up() {
                    Some(*primary)
                } else if topo.ext_peer(*backup).state.is_up() {
                    Some(*backup)
                } else {
                    None // both uplinks down: vacuously satisfied
                };
                match want {
                    None => None,
                    Some(want) => match trace.outcome {
                        TraceOutcome::Exited(p) if p == want => None,
                        _ => Some(format!("{} (wanted exit {})", trace.outcome, want)),
                    },
                }
            }
            Policy::Waypoint { via, .. } => {
                if !trace.outcome.is_delivered() {
                    Some(trace.outcome.to_string())
                } else if trace.router_path().contains(via) {
                    None
                } else {
                    Some(format!(
                        "path {:?} skips waypoint {via}",
                        trace.router_path()
                    ))
                }
            }
            Policy::Isolation { forbidden, .. } => match trace.outcome {
                TraceOutcome::Exited(p) if p == *forbidden => {
                    Some(format!("exited via forbidden peer {p}"))
                }
                _ => None,
            },
        };
        if let Some(observed) = bad {
            violations.push(Violation {
                policy_idx: idx,
                policy: policy.clone(),
                ingress,
                representative: ec.representative,
                observed,
            });
        }
    }
    (violations, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpvr_dataplane::{FibAction, FibEntry};
    use cpvr_topo::builder::shapes;
    use cpvr_topo::{ExtPeerId, LinkState};
    use cpvr_types::SimTime;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn entry(action: FibAction) -> FibEntry {
        FibEntry {
            action,
            installed_at: SimTime::ZERO,
        }
    }

    /// Paper triangle with all traffic for P exiting via R2's uplink.
    fn good_paper_dp() -> (cpvr_topo::Topology, DataPlane, ExtPeerId, ExtPeerId) {
        let (topo, e1, e2) = shapes::paper_triangle();
        let mut dp = DataPlane::new(3);
        let l12 = topo.link_between(RouterId(0), RouterId(1)).unwrap().id;
        let l23 = topo.link_between(RouterId(1), RouterId(2)).unwrap().id;
        dp.fib_mut(RouterId(0))
            .install(p("8.8.8.0/24"), entry(FibAction::Forward(l12)));
        dp.fib_mut(RouterId(1))
            .install(p("8.8.8.0/24"), entry(FibAction::Exit(e2)));
        dp.fib_mut(RouterId(2))
            .install(p("8.8.8.0/24"), entry(FibAction::Forward(l23)));
        (topo, dp, e1, e2)
    }

    fn paper_policy(e1: ExtPeerId, e2: ExtPeerId) -> Policy {
        Policy::PreferredExit {
            prefix: p("8.8.8.0/24"),
            primary: e2,
            backup: e1,
        }
    }

    #[test]
    fn compliant_dataplane_passes() {
        let (topo, dp, e1, e2) = good_paper_dp();
        let report = verify(&topo, &dp, &[paper_policy(e1, e2)]);
        assert!(report.ok(), "{:?}", report.violations);
        assert_eq!(report.ecs_checked, 1);
        assert_eq!(report.traces_run, 3);
    }

    #[test]
    fn wrong_exit_is_violation() {
        let (topo, mut dp, e1, e2) = good_paper_dp();
        // R2 now exits via... wait, R1 exits directly via its own uplink:
        // the Fig. 2 violation (traffic leaves via R1 while R2's uplink is
        // up).
        dp.fib_mut(RouterId(0))
            .install(p("8.8.8.0/24"), entry(FibAction::Exit(e1)));
        let report = verify(&topo, &dp, &[paper_policy(e1, e2)]);
        assert!(!report.ok());
        assert!(report.violations.iter().any(|v| v.ingress == RouterId(0)));
        assert!(report.violations[0].observed.contains("wanted exit Ext1"));
    }

    #[test]
    fn preferred_exit_fails_over_when_primary_down() {
        let (mut topo, mut dp, e1, e2) = good_paper_dp();
        topo.set_ext_peer_state(e2, LinkState::Down);
        // Everything now points at R1's uplink: compliant with the backup
        // clause.
        let l21 = topo.link_between(RouterId(1), RouterId(0)).unwrap().id;
        let l31 = topo.link_between(RouterId(2), RouterId(0)).unwrap().id;
        dp.fib_mut(RouterId(0))
            .install(p("8.8.8.0/24"), entry(FibAction::Exit(e1)));
        dp.fib_mut(RouterId(1))
            .install(p("8.8.8.0/24"), entry(FibAction::Forward(l21)));
        dp.fib_mut(RouterId(2))
            .install(p("8.8.8.0/24"), entry(FibAction::Forward(l31)));
        let report = verify(&topo, &dp, &[paper_policy(e1, e2)]);
        assert!(report.ok(), "{:?}", report.violations);
        // Both uplinks down → vacuous.
        topo.set_ext_peer_state(e1, LinkState::Down);
        let report = verify(&topo, &dp, &[paper_policy(e1, e2)]);
        assert!(report.ok());
    }

    #[test]
    fn loop_detection() {
        let (topo, mut dp, _e1, _e2) = good_paper_dp();
        // Make R2 point back at R1 → R1→R2→R1 loop.
        let l12 = topo.link_between(RouterId(0), RouterId(1)).unwrap().id;
        dp.fib_mut(RouterId(1))
            .install(p("8.8.8.0/24"), entry(FibAction::Forward(l12)));
        let report = verify(
            &topo,
            &dp,
            &[Policy::LoopFree {
                prefix: p("8.8.8.0/24"),
            }],
        );
        assert!(!report.ok());
        assert!(report.violations[0].observed.contains("loop"));
    }

    #[test]
    fn blackhole_detection_via_reachable() {
        let (topo, mut dp, _e1, _e2) = good_paper_dp();
        dp.fib_mut(RouterId(1)).remove(&p("8.8.8.0/24"));
        let report = verify(
            &topo,
            &dp,
            &[Policy::Reachable {
                prefix: p("8.8.8.0/24"),
            }],
        );
        assert!(!report.ok());
        assert!(report
            .violations
            .iter()
            .any(|v| v.observed.contains("blackhole")));
    }

    #[test]
    fn waypoint_enforced() {
        let (topo, dp, _e1, _e2) = good_paper_dp();
        // R1's path to the exit is R1→R2: waypoint R3 is skipped.
        let pol = Policy::Waypoint {
            from: RouterId(0),
            prefix: p("8.8.8.0/24"),
            via: RouterId(2),
        };
        let report = verify(&topo, &dp, &[pol]);
        assert!(!report.ok());
        assert!(report.violations[0].observed.contains("skips waypoint"));
        // R3's own traffic goes R3→R2 — from R3 the waypoint IS on the
        // path.
        let pol = Policy::Waypoint {
            from: RouterId(2),
            prefix: p("8.8.8.0/24"),
            via: RouterId(2),
        };
        assert!(verify(&topo, &dp, &[pol]).ok());
    }

    #[test]
    fn more_specific_prefix_induces_second_class() {
        let (topo, mut dp, e1, e2) = good_paper_dp();
        // A more-specific /25 on R1 hijacks half the space to Ext0.
        dp.fib_mut(RouterId(0))
            .install(p("8.8.8.0/25"), entry(FibAction::Exit(e1)));
        let report = verify(&topo, &dp, &[paper_policy(e1, e2)]);
        assert_eq!(report.ecs_checked, 2, "the /25 must split the /24's class");
        // Violations only for the hijacked half, only from R1.
        assert!(!report.ok());
        for v in &report.violations {
            assert!(p("8.8.8.0/25").contains_addr(v.representative));
        }
    }

    #[test]
    fn policy_classes_scope_first_then_specifics() {
        let (_, mut dp, e1, _) = good_paper_dp();
        dp.fib_mut(RouterId(0))
            .install(p("8.8.8.0/25"), entry(FibAction::Exit(e1)));
        let ecs = policy_equivalence_classes(&dp, p("8.8.8.0/24"));
        assert_eq!(ecs.len(), 2);
        assert_eq!(ecs[0].prefix, p("8.8.8.0/24"));
        // The scope's own class dodges the /25 hijack.
        assert!(!p("8.8.8.0/25").contains_addr(ecs[0].representative));
        assert_eq!(ecs[1].prefix, p("8.8.8.0/25"));
        // A scope with no installed routes still gets its own class.
        let bare = policy_equivalence_classes(&dp, p("9.9.9.0/24"));
        assert_eq!(bare.len(), 1);
        assert_eq!(bare[0].prefix, p("9.9.9.0/24"));
    }

    #[test]
    fn incremental_skips_unrelated_policies() {
        let (topo, dp, e1, e2) = good_paper_dp();
        let policies = vec![
            paper_policy(e1, e2),
            Policy::Reachable {
                prefix: p("9.9.9.0/24"),
            },
        ];
        let full = verify(&topo, &dp, &policies);
        let inc = verify_incremental(&topo, &dp, &policies, &[p("8.8.8.0/24")]);
        // Incremental does strictly less tracing work.
        assert!(inc.traces_run < full.traces_run);
        assert!(inc.ok());
        // A change overlapping nothing verifies nothing.
        let none = verify_incremental(&topo, &dp, &policies, &[p("7.7.7.0/24")]);
        assert_eq!(none.traces_run, 0);
    }

    #[test]
    fn incremental_preserves_original_policy_indices() {
        let (topo, mut dp, e1, e2) = good_paper_dp();
        dp.fib_mut(RouterId(0))
            .install(p("8.8.8.0/24"), entry(FibAction::Drop));
        let policies = vec![
            Policy::Reachable {
                prefix: p("9.9.9.0/24"),
            },
            paper_policy(e1, e2),
        ];
        let inc = verify_incremental(&topo, &dp, &policies, &[p("8.8.8.0/24")]);
        assert!(!inc.ok());
        assert_eq!(inc.violations[0].policy_idx, 1);
    }

    #[test]
    fn policy_with_no_installed_routes_blackholes_everywhere() {
        let (topo, _, e1, e2) = good_paper_dp();
        let dp = DataPlane::new(3);
        let report = verify(&topo, &dp, &[paper_policy(e1, e2)]);
        assert_eq!(report.violations.len(), 3, "every ingress blackholes");
    }

    #[test]
    fn isolation_forbids_an_exit() {
        let (topo, dp, _e1, e2) = good_paper_dp();
        // Everything exits via e2; forbidding e2 violates, forbidding a
        // different peer does not.
        let bad = Policy::Isolation {
            prefix: p("8.8.8.0/24"),
            forbidden: e2,
        };
        let report = verify(&topo, &dp, &[bad]);
        assert!(!report.ok());
        assert!(report.violations[0].observed.contains("forbidden"));
        let fine = Policy::Isolation {
            prefix: p("8.8.8.0/24"),
            forbidden: ExtPeerId(0),
        };
        assert!(verify(&topo, &dp, &[fine]).ok());
        // Blackholed traffic trivially satisfies isolation.
        let empty = DataPlane::new(3);
        assert!(verify(
            &topo,
            &empty,
            &[Policy::Isolation {
                prefix: p("8.8.8.0/24"),
                forbidden: e2
            }]
        )
        .ok());
    }
}
