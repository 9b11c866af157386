//! The repair phase: seeded misconfiguration incidents against the
//! workload's converged state, each driven through the whole §6 chain —
//! detect, trace provenance, propose, prove, gate, journal, revert —
//! with the benchmark standing where the control plane would.
//!
//! An incident is a captured causal chain on one router (`ConfigChange →
//! SoftReconfig → RibInstall → FibInstall`) whose FIB update blackholes
//! a policy-protected prefix. The chain is appended to the resident
//! trace and folded by a resident `HbgBuilder` exactly as a live tap
//! would deliver it; everything after that is the system's own public
//! functions.

use crate::check::Reference;
use crate::deploy::Live;
use crate::trace::Tracer;
use crate::workload::{Input, PolicyKind, Spec, ROUTERS};
use cpvr_bgp::{ConfigChange, PeerRef};
use cpvr_collector::{RepairRecord, RepairStage};
use cpvr_core::repair::RepairAction;
use cpvr_core::{
    gate_repair, propose_repairs, prove, root_causes, HbgBuilder, InferConfig, PredictedBehavior,
};
use cpvr_dataplane::{FibAction, FibUpdate, UpdateKind};
use cpvr_sim::{EventId, IoEvent, IoKind, Proto, Trace};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use cpvr_verify::{IncrementalVerifier, Policy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::time::{Duration, Instant};

/// Prefixes put under policy.
const POLICIES: usize = 32;
/// HBR confidence the chain acts on (the control loop's default).
const MIN_CONFIDENCE: f64 = 0.8;
/// One incident in this many carries a tampered proof.
const TAMPER_EVERY: u64 = 10;

/// How an incident's proof is (not) tampered with before the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tamper {
    None,
    /// A flipped bit in the hash chain: the gate must answer ERROR.
    Chain,
    /// A forged behavior prediction: the gate must answer DIVERGED.
    Prediction,
}

impl Tamper {
    fn of(incident: u64) -> Tamper {
        match incident % (2 * TAMPER_EVERY) {
            7 => Tamper::Chain,
            17 => Tamper::Prediction,
            _ => Tamper::None,
        }
    }

    /// The gate verdict code this tampering must produce.
    fn expected_code(self) -> u8 {
        match self {
            Tamper::None => 0,
            Tamper::Prediction => 1,
            Tamper::Chain => 2,
        }
    }
}

/// Wall time one incident spent in each stage of the chain.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub fold: Duration,
    pub apply: Duration,
    pub report: Duration,
    pub root_causes: Duration,
    pub propose: Duration,
    pub prove: Duration,
    pub gate: Duration,
    pub journal: Duration,
    pub journal_records: u32,
    pub revert: Duration,
    pub total: Duration,
    /// Federation only, traced pass only: Gated journaled → every peer
    /// re-validated the broadcast proof.
    pub peer_verify: Option<Duration>,
}

/// The resident control-plane state the incidents run against. The
/// resident trace itself stays with the input (the generators replay
/// its original events between repair rounds) and is passed to each
/// incident, which appends its captured chains to it.
pub struct RepairBench {
    builder: HbgBuilder,
    verifier: IncrementalVerifier,
    /// `(router, prefix, healthy action)` triples an incident may break.
    targets: Vec<(RouterId, Ipv4Prefix, FibAction)>,
    rng: StdRng,
    clock: SimTime,
    incident: u64,
    pub policies: usize,
}

fn policies_for(spec: &Spec, input: &Input, prefixes: &[Ipv4Prefix]) -> Vec<Policy> {
    prefixes
        .iter()
        .map(|&prefix| match (spec.policy, input.exits) {
            (PolicyKind::PreferredExit, Some((primary, backup))) => Policy::PreferredExit {
                prefix,
                primary,
                backup,
            },
            _ => Policy::Reachable { prefix },
        })
        .collect()
}

impl RepairBench {
    /// Builds the verifier over the converged data plane with policies
    /// on up to [`POLICIES`] prefixes that every router forwards and
    /// that currently comply, and lists the FIB entries an incident may
    /// break.
    pub fn new(
        spec: &Spec,
        input: &Input,
        reference: &Reference,
        seed: u64,
    ) -> io::Result<RepairBench> {
        let dp = &reference.dataplane;
        let everywhere: Vec<Ipv4Prefix> = dp
            .all_prefixes()
            .into_iter()
            .filter(|p| (0..ROUTERS).all(|r| dp.fib(RouterId(r)).get(p).is_some()))
            .collect();
        // An even stride over the sorted prefix list: seed-independent,
        // spread over the whole table.
        let stride = (everywhere.len() / (2 * POLICIES)).max(1);
        let sampled: Vec<Ipv4Prefix> = everywhere.iter().step_by(stride).copied().collect();
        let probe = IncrementalVerifier::new(
            input.topo.clone(),
            dp.clone(),
            policies_for(spec, input, &sampled),
        );
        let broken: Vec<Ipv4Prefix> = probe
            .report()
            .violations
            .iter()
            .map(|v| v.policy.prefix())
            .collect();
        let chosen: Vec<Ipv4Prefix> = sampled
            .into_iter()
            .filter(|p| !broken.contains(p))
            .take(POLICIES)
            .collect();
        if chosen.is_empty() {
            return Err(io::Error::other(
                "no compliant prefix to put under policy in the converged state",
            ));
        }
        let verifier = IncrementalVerifier::new(
            input.topo.clone(),
            dp.clone(),
            policies_for(spec, input, &chosen),
        );
        debug_assert!(verifier.ok());
        let targets = chosen
            .iter()
            .flat_map(|p| {
                (0..ROUTERS).filter_map(|r| {
                    let action = dp.fib(RouterId(r)).get(p)?.action;
                    (action != FibAction::Drop).then_some((RouterId(r), *p, action))
                })
            })
            .collect();
        let clock = input.workload().last().map_or(SimTime::ZERO, |e| e.time);
        Ok(RepairBench {
            builder: HbgBuilder::new(&InferConfig {
                rules: true,
                patterns: None,
                min_confidence: MIN_CONFIDENCE,
                proximate: false,
            }),
            verifier,
            targets,
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_1c1d),
            clock: clock + SimTime::from_secs(1),
            incident: 0,
            policies: chosen.len(),
        })
    }

    /// Appends one captured causal chain that ends in `action` landing
    /// in `router`'s FIB for `prefix`, folds it, and returns the id of
    /// the FIB event.
    fn capture_chain(
        &mut self,
        trace: &mut Trace,
        router: RouterId,
        prefix: Ipv4Prefix,
        action: FibAction,
        change: ConfigChange,
        inverse: ConfigChange,
    ) -> EventId {
        let kinds = [
            IoKind::ConfigChange {
                desc: change.to_string(),
                change: Some(change),
                inverse: Some(inverse),
            },
            IoKind::SoftReconfig {
                desc: "reapply session policy".into(),
            },
            IoKind::RibInstall {
                proto: Proto::Bgp,
                prefix,
                route: None,
            },
            IoKind::FibInstall { prefix, action },
        ];
        let mut last = EventId(0);
        for kind in kinds {
            self.clock += SimTime::from_millis(1);
            let e = IoEvent {
                id: EventId(trace.events.len() as u32),
                router,
                time: self.clock,
                arrived_at: Some(self.clock),
                kind,
            };
            self.builder.ingest(&e);
            last = e.id;
            trace.events.push(e);
        }
        self.builder.advance(self.clock);
        last
    }

    /// Runs one incident end to end. `Ok(Err(why))` is an incident whose
    /// outcome was wrong (a failed operation); `Err` is an I/O failure
    /// of the deployment.
    pub fn incident(
        &mut self,
        trace: &mut Trace,
        live: &Live,
        tracer: Option<&Tracer>,
    ) -> io::Result<Result<StageTimes, String>> {
        let n = self.incident;
        self.incident += 1;
        let tamper = Tamper::of(n);
        let (router, prefix, healthy) = self.targets[self.rng.gen_range(0..self.targets.len())];
        let peer = PeerRef::Internal(RouterId((router.0 + 1) % ROUTERS));
        let bad = ConfigChange::SetWeight {
            peer,
            weight: 100 + n as u32,
        };
        let good = ConfigChange::SetWeight { peer, weight: 0 };
        let mut t = StageTimes::default();
        let started = Instant::now();
        let root_span = tracer.map_or(0, |tr| tr.reserve());
        // Times one stage, as a child span of the incident when tracing.
        macro_rules! stage {
            ($slot:expr, $name:literal, $body:expr) => {{
                let t0 = Instant::now();
                let out = $body;
                $slot += t0.elapsed();
                if let Some(tr) = tracer {
                    tr.record(root_span, $name, t0, n, 1);
                }
                out
            }};
        }

        let bad_fib = stage!(
            t.fold,
            "core.builder.fold_incident",
            self.capture_chain(trace, router, prefix, FibAction::Drop, bad, good.clone())
        );
        let at = self.clock;
        let delta = stage!(
            t.apply,
            "verify.incremental.apply",
            self.verifier.apply(&FibUpdate {
                router,
                prefix,
                kind: UpdateKind::Install,
                action: FibAction::Drop,
                at,
            })
        );
        if delta.ok() {
            return Ok(Err(format!(
                "incident {n}: the seeded update violated nothing"
            )));
        }
        let report = stage!(
            t.report,
            "verify.incremental.report",
            self.verifier.report()
        );
        if report.ok() {
            return Ok(Err(format!("incident {n}: full report lost the violation")));
        }
        let causes = stage!(
            t.root_causes,
            "core.provenance.root_causes",
            root_causes(trace, self.builder.hbg(), bad_fib, MIN_CONFIDENCE)
        );
        let plans = stage!(
            t.propose,
            "core.repair.propose",
            propose_repairs(&causes, MIN_CONFIDENCE)
        );
        let Some(plan) = plans
            .into_iter()
            .find(|p| p.action == RepairAction::RevertConfig(good.clone()))
        else {
            return Ok(Err(format!(
                "incident {n}: no plan reverts the seeded change"
            )));
        };
        let mut proof = stage!(
            t.prove,
            "core.proof.prove",
            prove(
                trace,
                self.builder.hbg(),
                &self.verifier,
                &plan,
                bad_fib,
                MIN_CONFIDENCE
            )
        );
        match tamper {
            Tamper::None => {}
            Tamper::Chain => proof.chain[0] ^= 1,
            Tamper::Prediction => proof.predicted.push(PredictedBehavior {
                behavior: vec!["forged".into()],
                prefixes: vec![prefix],
            }),
        }
        let id = proof.repair_id();
        let journal = |t: &mut StageTimes, stage, verdict, proof: Vec<u8>| {
            let t0 = Instant::now();
            let r = live.journal_repair(RepairRecord {
                repair_id: id,
                stage,
                at,
                verdict,
                proof,
                trace: None,
            });
            t.journal += t0.elapsed();
            t.journal_records += 1;
            if let Some(tr) = tracer {
                tr.record(root_span, "collector.repair_journal.journal", t0, n, 1);
            }
            r
        };
        journal(&mut t, RepairStage::Proposed, None, Vec::new())?;
        journal(&mut t, RepairStage::Proven, None, proof.encode_binary())?;
        let verdict = stage!(
            t.gate,
            "verify.replay.gate",
            gate_repair(&self.verifier, &proof)
        );
        let peers_before = live.peer_proofs();
        journal(&mut t, RepairStage::Gated, Some(verdict.code()), Vec::new())?;
        if tracer.is_some() && live.peer_proofs_expected() > 0 {
            let t0 = Instant::now();
            let want = peers_before + live.peer_proofs_expected();
            while live.peer_proofs() < want && t0.elapsed() < Duration::from_secs(5) {
                std::thread::sleep(Duration::from_micros(100));
            }
            t.peer_verify = Some(t0.elapsed());
        }
        if verdict.code() != tamper.expected_code() {
            return Ok(Err(format!(
                "incident {n}: gate said {verdict:?}, expected code {} for {tamper:?}",
                tamper.expected_code()
            )));
        }
        let restore = FibUpdate {
            router,
            prefix,
            kind: UpdateKind::Install,
            action: healthy,
            at: self.clock,
        };
        if verdict.is_reproduced() {
            // REPRODUCED: commit the transcript's undo steps and capture
            // the rollback the network would now perform.
            let cleared = stage!(t.revert, "benchmark.repair.revert", {
                for u in &proof.transcript.undo {
                    self.verifier.apply(u);
                }
                self.capture_chain(trace, router, prefix, healthy, good.clone(), good.clone());
                self.verifier.ok()
            });
            journal(&mut t, RepairStage::Applied, Some(0), Vec::new())?;
            if !cleared {
                return Ok(Err(format!("incident {n}: the revert left a violation")));
            }
        } else {
            journal(
                &mut t,
                RepairStage::Blocked,
                Some(verdict.code()),
                Vec::new(),
            )?;
            // Blocked must mean untouched: the footprint still digests to
            // what the proof was minted against.
            if proof.transcript.digest_on(self.verifier.dataplane()) != proof.transcript.base_digest
                || self.verifier.ok()
            {
                return Ok(Err(format!("incident {n}: a blocked repair changed state")));
            }
        }
        t.total = started.elapsed();
        if let Some(tr) = tracer {
            let span = tr.span(root_span, 0, "benchmark.repair.incident", started, n, 1, 0);
            tr.extend(vec![span]);
        }
        if !verdict.is_reproduced() {
            // Untimed: put the network back so the next incident starts
            // from the converged state again.
            self.verifier.apply(&restore);
            self.capture_chain(trace, router, prefix, healthy, good.clone(), good);
        }
        Ok(Ok(t))
    }

    /// Incidents run so far.
    pub fn incidents(&self) -> u64 {
        self.incident
    }
}
