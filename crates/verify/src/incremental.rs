//! The live incremental verifier: equivalence classes and per-class
//! verdicts maintained across a stream of FIB updates.
//!
//! [`IncrementalVerifier`] holds a data-plane mirror, the union trie of
//! installed prefixes (reference-counted across routers), and a verdict
//! per `(policy, class owner)` pair. Each [`FibUpdate`] is applied to the
//! mirror and only the classes whose address space intersects the updated
//! prefix are re-traced; everything else is reused.
//!
//! **Batch-equivalence invariant**: after any sequence of
//! [`IncrementalVerifier::apply`] calls, [`IncrementalVerifier::report`]
//! equals [`verify`](crate::verify) run on the same topology, data plane,
//! and policies — same violations in the same order, same `ecs_checked`,
//! same `traces_run`. The property tests in `tests/prop_incremental.rs`
//! pin this under randomized install/remove sequences.
//!
//! Why the delta is sound: a class owned by prefix `p` disjoint from the
//! updated prefix `u` keeps its shape (its children all sit inside `p`,
//! so none appeared or vanished) and its forwarding vector (its
//! representative lies in `p ∖ children ⊆ p`, where longest-prefix match
//! never consults an entry at `u`). Only owners overlapping `u` — `u`'s
//! ancestors, `u` itself, and `u`'s descendants — can change, and each
//! policy contributes at most its scope class plus the owners under its
//! scope.

use crate::ec::{BehaviorCache, EquivClass};
use crate::policy::{Policy, Violation};
use crate::verifier::{classes_under, run_class_checks, VerifyReport};
use cpvr_dataplane::{DataPlane, FibUpdate, UpdateKind};
use cpvr_topo::Topology;
use cpvr_types::{Ipv4Prefix, PrefixTrie};
use std::collections::BTreeMap;

/// Counters describing how much work the incremental engine did and how
/// much it avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// FIB updates applied via [`IncrementalVerifier::apply`].
    pub updates_applied: usize,
    /// Per-policy classes re-traced because they overlap an update.
    pub classes_recomputed: usize,
    /// Per-policy classes whose cached verdict was reused.
    pub classes_reused: usize,
    /// Forwarding traces executed (initial build + deltas).
    pub traces_run: usize,
    /// [`IncrementalVerifier::gate`] calls that found a violation and
    /// rolled the update back.
    pub gate_rollbacks: usize,
}

/// The cached outcome of checking one policy against one class.
#[derive(Clone, Debug)]
struct ClassResult {
    ec: EquivClass,
    violations: Vec<Violation>,
    traces: usize,
}

/// A verifier that stays resident between FIB updates, re-checking only
/// the equivalence classes an update can affect. See the module docs for
/// the batch-equivalence invariant and the soundness argument.
#[derive(Clone, Debug)]
pub struct IncrementalVerifier {
    topo: Topology,
    policies: Vec<Policy>,
    dp: DataPlane,
    /// Union of installed prefixes, refcounted across routers.
    installed: PrefixTrie<usize>,
    /// Verdict per (policy index, class owner). `BTreeMap` order equals
    /// batch job order: per policy, the scope class's owner (the scope)
    /// sorts before every owner it covers.
    verdicts: BTreeMap<(usize, Ipv4Prefix), ClassResult>,
    behavior: BehaviorCache,
    stats: IncrementalStats,
}

impl IncrementalVerifier {
    /// Builds the verifier from a data-plane snapshot, checking every
    /// class once.
    pub fn new(topo: Topology, dp: DataPlane, policies: Vec<Policy>) -> Self {
        let mut v = IncrementalVerifier {
            topo,
            policies,
            dp,
            installed: PrefixTrie::new(),
            verdicts: BTreeMap::new(),
            behavior: BehaviorCache::new(),
            stats: IncrementalStats::default(),
        };
        v.rebuild();
        v
    }

    /// Recomputes everything from the current mirror: the union trie,
    /// every class, every verdict. Used at construction and after
    /// topology changes.
    pub fn rebuild(&mut self) {
        self.installed = self.dp.prefix_union();
        self.behavior.clear();
        let mut jobs: Vec<(usize, EquivClass)> = Vec::new();
        for (idx, policy) in self.policies.iter().enumerate() {
            for ec in classes_under(&self.installed, policy.prefix()) {
                jobs.push((idx, ec));
            }
        }
        let results = run_class_checks(&self.topo, &self.dp, &self.policies, &jobs);
        self.verdicts.clear();
        for ((idx, ec), (violations, traces)) in jobs.into_iter().zip(results) {
            self.stats.classes_recomputed += 1;
            self.stats.traces_run += traces;
            self.verdicts.insert(
                (idx, ec.prefix),
                ClassResult {
                    ec,
                    violations,
                    traces,
                },
            );
        }
    }

    /// Applies one FIB update to the mirror and re-checks only the
    /// classes it can affect. The returned report covers exactly the
    /// re-checked classes and equals
    /// [`verify_incremental`](crate::verify_incremental) on the post-update
    /// data plane with `changed = [update.prefix]`.
    pub fn apply(&mut self, update: &FibUpdate) -> VerifyReport {
        self.stats.updates_applied += 1;
        let prev = self.dp.fib(update.router).get(&update.prefix).copied();
        self.dp.fib_mut(update.router).apply(update);
        self.behavior.invalidate(update);

        // Maintain the refcounted union; the owner set only shifts when a
        // prefix's network-wide count crosses zero, and the owner diff
        // below handles shifted and unshifted cases uniformly.
        match update.kind {
            UpdateKind::Install if prev.is_none() => match self.installed.get_mut(&update.prefix) {
                Some(c) => *c += 1,
                None => {
                    self.installed.insert(update.prefix, 1);
                }
            },
            UpdateKind::Remove if prev.is_some() => {
                let emptied = {
                    let count = self
                        .installed
                        .get_mut(&update.prefix)
                        .expect("union trie out of sync with mirror");
                    *count -= 1;
                    *count == 0
                };
                if emptied {
                    self.installed.remove(&update.prefix);
                }
            }
            // Replacing an existing entry or removing a missing one
            // leaves the union untouched.
            _ => {}
        }

        let mut jobs: Vec<(usize, EquivClass)> = Vec::new();
        let mut reused = 0usize;
        let mut fresh: BTreeMap<(usize, Ipv4Prefix), ClassResult> = BTreeMap::new();
        for (idx, policy) in self.policies.iter().enumerate() {
            let scope = policy.prefix();
            if !update.prefix.overlaps(&scope) {
                // No owner of this policy can overlap the update; keep
                // all its verdicts as-is.
                let kept = self
                    .verdicts
                    .range((idx, Ipv4Prefix::DEFAULT)..=(idx, Ipv4Prefix::from_bits(u32::MAX, 32)));
                for (k, v) in kept {
                    fresh.insert(*k, v.clone());
                    reused += 1;
                }
                continue;
            }
            // Owners disjoint from the update are reusable even when the
            // class structure shifted elsewhere; overlapping owners (and
            // any new owners) are re-checked. Skipping classes_under when
            // !structural would also work, but recomputing it keeps one
            // code path and it is trace-free.
            for ec in classes_under(&self.installed, scope) {
                if ec.prefix.overlaps(&update.prefix) {
                    jobs.push((idx, ec));
                } else {
                    let old = self
                        .verdicts
                        .get(&(idx, ec.prefix))
                        .expect("disjoint class must already have a verdict");
                    debug_assert_eq!(old.ec, ec, "disjoint class changed shape");
                    fresh.insert((idx, ec.prefix), old.clone());
                    reused += 1;
                }
            }
        }
        let results = run_class_checks(&self.topo, &self.dp, &self.policies, &jobs);
        let mut report = VerifyReport {
            ecs_checked: jobs.len(),
            ..VerifyReport::default()
        };
        for ((idx, ec), (violations, traces)) in jobs.into_iter().zip(results) {
            report.traces_run += traces;
            report.violations.extend(violations.iter().cloned());
            fresh.insert(
                (idx, ec.prefix),
                ClassResult {
                    ec,
                    violations,
                    traces,
                },
            );
        }
        self.stats.classes_recomputed += report.ecs_checked;
        self.stats.classes_reused += reused;
        self.stats.traces_run += report.traces_run;
        self.verdicts = fresh;
        report
    }

    /// Tentatively applies `update`: if the delta check passes the update
    /// stays and `Ok(report)` is returned; otherwise the update is rolled
    /// back (mirror, union, and verdicts all restored) and the offending
    /// report comes back as `Err`.
    pub fn gate(&mut self, update: &FibUpdate) -> Result<VerifyReport, VerifyReport> {
        let prev = self.dp.fib(update.router).get(&update.prefix).copied();
        let report = self.apply(update);
        if report.ok() {
            return Ok(report);
        }
        // Roll back through the same delta machinery so every cache stays
        // consistent.
        match prev {
            Some(entry) => {
                self.apply(&FibUpdate {
                    router: update.router,
                    prefix: update.prefix,
                    kind: UpdateKind::Install,
                    action: entry.action,
                    at: entry.installed_at,
                });
            }
            None if update.kind == UpdateKind::Install => {
                self.apply(&FibUpdate {
                    router: update.router,
                    prefix: update.prefix,
                    kind: UpdateKind::Remove,
                    action: update.action,
                    at: update.at,
                });
            }
            // Removing a missing entry changed nothing; no inverse.
            None => {}
        }
        self.stats.gate_rollbacks += 1;
        Err(report)
    }

    /// The full current report, batch-equivalent to
    /// [`verify`](crate::verify) on [`dataplane`](Self::dataplane).
    pub fn report(&self) -> VerifyReport {
        let mut report = VerifyReport {
            ecs_checked: self.verdicts.len(),
            ..VerifyReport::default()
        };
        for result in self.verdicts.values() {
            report.traces_run += result.traces;
            report.violations.extend(result.violations.iter().cloned());
        }
        report
    }

    /// True if no policy is currently violated.
    pub fn ok(&self) -> bool {
        self.verdicts.values().all(|r| r.violations.is_empty())
    }

    /// The current `(policy index, class)` pairs in check order.
    pub fn classes(&self) -> Vec<(usize, EquivClass)> {
        self.verdicts
            .iter()
            .map(|((idx, _), r)| (*idx, r.ec.clone()))
            .collect()
    }

    /// The §6 behavior classes of the mirrored data plane, served from a
    /// cache invalidated only in regions touched by applied updates.
    pub fn behavior_classes(&mut self) -> BTreeMap<Vec<String>, Vec<Ipv4Prefix>> {
        self.behavior.classes(&self.dp)
    }

    /// The mirrored data-plane snapshot.
    pub fn dataplane(&self) -> &DataPlane {
        &self.dp
    }

    /// The policies being enforced.
    pub fn policies(&self) -> &[Policy] {
        &self.policies
    }

    /// Replaces the topology and rebuilds: traces depend on link and
    /// peer state, so cached verdicts are all stale after a topology
    /// change.
    pub fn set_topology(&mut self, topo: Topology) {
        self.topo = topo;
        self.rebuild();
    }

    /// Work counters since construction.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{behavior_classes, verify, verify_incremental};
    use cpvr_dataplane::{FibAction, FibEntry};
    use cpvr_topo::builder::shapes;
    use cpvr_types::{RouterId, SimTime};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn entry(action: FibAction) -> FibEntry {
        FibEntry {
            action,
            installed_at: SimTime::ZERO,
        }
    }

    fn setup() -> (Topology, DataPlane, Vec<Policy>) {
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
        let policies = vec![
            Policy::PreferredExit {
                prefix: p("8.8.8.0/24"),
                primary: e2,
                backup: e1,
            },
            Policy::Reachable {
                prefix: p("8.8.8.0/24"),
            },
        ];
        (topo, dp, policies)
    }

    fn assert_batch_equivalent(iv: &IncrementalVerifier, topo: &Topology, policies: &[Policy]) {
        let batch = verify(topo, iv.dataplane(), policies);
        let live = iv.report();
        assert_eq!(live.violations, batch.violations);
        assert_eq!(live.ecs_checked, batch.ecs_checked);
        assert_eq!(live.traces_run, batch.traces_run);
    }

    #[test]
    fn build_matches_batch() {
        let (topo, dp, policies) = setup();
        let iv = IncrementalVerifier::new(topo.clone(), dp, policies.clone());
        assert!(iv.ok());
        assert_batch_equivalent(&iv, &topo, &policies);
    }

    #[test]
    fn apply_equals_verify_incremental_and_stays_batch_equivalent() {
        let (topo, dp, policies) = setup();
        let mut iv = IncrementalVerifier::new(topo.clone(), dp.clone(), policies.clone());
        // Hijack half the space on R1 with a /25 null route.
        let u = FibUpdate {
            router: RouterId(0),
            prefix: p("8.8.8.0/25"),
            kind: UpdateKind::Install,
            action: FibAction::Drop,
            at: SimTime::from_millis(1),
        };
        let delta = iv.apply(&u);
        let mut mirror = dp;
        mirror.fib_mut(u.router).apply(&u);
        let inc = verify_incremental(&topo, &mirror, &policies, &[u.prefix]);
        assert_eq!(delta.violations, inc.violations);
        assert_eq!(delta.ecs_checked, inc.ecs_checked);
        assert_eq!(delta.traces_run, inc.traces_run);
        assert!(!delta.ok(), "the /25 drop must violate");
        assert_batch_equivalent(&iv, &topo, &policies);
    }

    #[test]
    fn disjoint_update_reuses_everything() {
        let (topo, dp, policies) = setup();
        let mut iv = IncrementalVerifier::new(topo.clone(), dp, policies.clone());
        let before = iv.stats();
        let u = FibUpdate {
            router: RouterId(0),
            prefix: p("99.0.0.0/8"),
            kind: UpdateKind::Install,
            action: FibAction::Drop,
            at: SimTime::from_millis(1),
        };
        let delta = iv.apply(&u);
        assert_eq!(delta.traces_run, 0, "no policy class overlaps 99/8");
        assert_eq!(iv.stats().traces_run, before.traces_run);
        assert!(iv.stats().classes_reused > before.classes_reused);
        assert_batch_equivalent(&iv, &topo, &policies);
    }

    #[test]
    fn gate_rolls_back_violating_update() {
        let (topo, dp, policies) = setup();
        let mut iv = IncrementalVerifier::new(topo.clone(), dp.clone(), policies.clone());
        let u = FibUpdate {
            router: RouterId(1),
            prefix: p("8.8.8.0/24"),
            kind: UpdateKind::Remove,
            action: FibAction::Drop,
            at: SimTime::from_millis(1),
        };
        let res = iv.gate(&u);
        assert!(res.is_err(), "removing the exit route must be blocked");
        // State fully restored: mirror equals the original and the live
        // report is clean and batch-equivalent.
        assert_eq!(
            iv.dataplane().fib(RouterId(1)).get(&p("8.8.8.0/24")),
            dp.fib(RouterId(1)).get(&p("8.8.8.0/24"))
        );
        assert!(iv.ok());
        assert_batch_equivalent(&iv, &topo, &policies);
        // A compliant update passes and sticks.
        let fine = FibUpdate {
            router: RouterId(0),
            prefix: p("99.0.0.0/8"),
            kind: UpdateKind::Install,
            action: FibAction::Drop,
            at: SimTime::from_millis(2),
        };
        assert!(iv.gate(&fine).is_ok());
        assert!(iv
            .dataplane()
            .fib(RouterId(0))
            .get(&p("99.0.0.0/8"))
            .is_some());
    }

    #[test]
    fn behavior_cache_matches_batch_after_updates() {
        let (topo, dp, policies) = setup();
        let mut iv = IncrementalVerifier::new(topo, dp, policies);
        assert_eq!(iv.behavior_classes(), behavior_classes(iv.dataplane()));
        let u = FibUpdate {
            router: RouterId(2),
            prefix: p("8.8.8.0/24"),
            kind: UpdateKind::Install,
            action: FibAction::Drop,
            at: SimTime::from_millis(3),
        };
        iv.apply(&u);
        assert_eq!(iv.behavior_classes(), behavior_classes(iv.dataplane()));
    }

    #[test]
    fn topology_change_rebuilds() {
        let (topo, dp, policies) = setup();
        let mut iv = IncrementalVerifier::new(topo.clone(), dp, policies.clone());
        assert!(iv.ok());
        // Down the preferred uplink: the cached verdicts are stale until
        // set_topology rebuilds them.
        let mut t2 = topo;
        let e2 = match &policies[0] {
            Policy::PreferredExit { primary, .. } => *primary,
            _ => unreachable!(),
        };
        t2.set_ext_peer_state(e2, cpvr_topo::LinkState::Down);
        iv.set_topology(t2.clone());
        assert!(!iv.ok(), "exit via a downed peer must now violate");
        assert_batch_equivalent(&iv, &t2, &policies);
    }
}
