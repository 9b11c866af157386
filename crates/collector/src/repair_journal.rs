//! The crash-safe repair journal: folds [`Frame::Repair`] WAL records
//! into per-repair lifecycle state.
//!
//! A repair moves `Proposed → Proven → Gated → Applied | Blocked`
//! (and, for an applied repair later undone, `→ RolledBack`). Each
//! transition is journaled as a kind-16 wire frame *before* the control
//! plane acts on it, so recovery replays an in-flight repair to the
//! same decision the live run reached: the `Proven` record carries the
//! full [`RepairProof`] binary bytes, and re-gating those bytes against
//! the recovered verifier state is deterministic — the recovered
//! verdict is bit-identical to the live one.
//!
//! The ledger is policy-free, like the rest of the ingest pipeline: it
//! records what happened and exposes it; deciding is the control
//! plane's job ([`cpvr_core::proof::gate_repair`]).
//!
//! [`Frame::Repair`]: crate::codec::Frame::Repair
//! [`RepairProof`]: cpvr_core::RepairProof

use crate::codec::{RepairRecord, RepairStage};
use cpvr_types::SimTime;
use std::collections::BTreeMap;

/// Everything the journal knows about one repair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairEntry {
    /// The repair's content digest ([`RepairRecord::repair_id`]).
    pub repair_id: u64,
    /// Lifecycle transitions in journal order.
    pub(crate) stages: Vec<(RepairStage, SimTime)>,
    /// The proof's v3 binary bytes, from the `Proven` record (empty
    /// until one arrives).
    pub proof: Vec<u8>,
    /// The latest gate verdict code (0 = reproduced, 1 = diverged,
    /// 2 = error), from the `Gated` or later records.
    pub verdict: Option<u8>,
}

impl RepairEntry {
    /// The last journaled stage, if any.
    pub(crate) fn last_stage(&self) -> Option<RepairStage> {
        self.stages.last().map(|&(s, _)| s)
    }

    /// Whether this repair has reached a terminal decision.
    pub(crate) fn decided(&self) -> bool {
        matches!(
            self.last_stage(),
            Some(RepairStage::Applied | RepairStage::Blocked | RepairStage::RolledBack)
        )
    }
}

/// The fold over every journaled [`RepairRecord`]: one entry per
/// repair id, in-flight tracking, and deterministic equality (two
/// ledgers fed the same records in the same order are `==`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairLedger {
    entries: BTreeMap<u64, RepairEntry>,
    records: u64,
}

impl RepairLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record. Returns `false` for an exact lifecycle
    /// duplicate — the same `(repair_id, stage)` already journaled —
    /// which a recovering federation member's regenerated stream can
    /// produce; duplicates change nothing.
    pub fn accept(&mut self, r: &RepairRecord) -> bool {
        let e = self
            .entries
            .entry(r.repair_id)
            .or_insert_with(|| RepairEntry {
                repair_id: r.repair_id,
                stages: Vec::new(),
                proof: Vec::new(),
                verdict: None,
            });
        if e.stages.iter().any(|&(s, _)| s == r.stage) {
            return false;
        }
        e.stages.push((r.stage, r.at));
        if !r.proof.is_empty() {
            e.proof = r.proof.clone();
        }
        if r.verdict.is_some() {
            e.verdict = r.verdict;
        }
        self.records += 1;
        true
    }

    /// The entry for one repair.
    pub fn get(&self, repair_id: u64) -> Option<&RepairEntry> {
        self.entries.get(&repair_id)
    }

    /// Every entry, in repair-id order.
    pub fn entries(&self) -> impl Iterator<Item = &RepairEntry> {
        self.entries.values()
    }

    /// Number of distinct repairs seen.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no repair was ever journaled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Non-duplicate records folded.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Repairs journaled but not yet decided — the ones recovery must
    /// replay to a decision before the control plane may act again.
    pub fn in_flight(&self) -> Vec<u64> {
        self.entries
            .values()
            .filter(|e| !e.decided())
            .map(|e| e.repair_id)
            .collect()
    }

    /// The terminal decision for one repair: its last stage and latest
    /// verdict code. `None` if the repair was never journaled.
    pub fn decision(&self, repair_id: u64) -> Option<(RepairStage, Option<u8>)> {
        let e = self.entries.get(&repair_id)?;
        Some((e.last_stage()?, e.verdict))
    }

    /// Merges another ledger's entries (used when merging federation
    /// members' folds for comparison against a single collector). An
    /// id present in both keeps the union of stages in `self`-first
    /// order.
    pub(crate) fn absorb(&mut self, other: &RepairLedger) {
        for e in other.entries() {
            for &(stage, at) in &e.stages {
                self.accept(&RepairRecord {
                    repair_id: e.repair_id,
                    stage,
                    at,
                    verdict: e.verdict,
                    proof: e.proof.clone(),
                    trace: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, stage: RepairStage, verdict: Option<u8>, proof: &[u8]) -> RepairRecord {
        RepairRecord {
            repair_id: id,
            stage,
            at: SimTime::from_nanos(42),
            verdict,
            proof: proof.to_vec(),
            trace: None,
        }
    }

    #[test]
    fn lifecycle_folds_in_order() {
        let mut l = RepairLedger::new();
        assert!(l.accept(&rec(7, RepairStage::Proposed, None, &[])));
        assert!(l.accept(&rec(7, RepairStage::Proven, None, b"proofbytes")));
        assert_eq!(l.in_flight(), vec![7]);
        assert!(l.accept(&rec(7, RepairStage::Gated, Some(0), &[])));
        assert_eq!(l.in_flight(), vec![7]);
        assert!(l.accept(&rec(7, RepairStage::Applied, Some(0), &[])));
        assert!(l.in_flight().is_empty());
        let e = l.get(7).unwrap();
        assert_eq!(e.proof, b"proofbytes");
        assert_eq!(e.verdict, Some(0));
        assert_eq!(l.decision(7), Some((RepairStage::Applied, Some(0))));
    }

    #[test]
    fn duplicates_are_inert_and_ledgers_stay_equal() {
        let mut a = RepairLedger::new();
        let mut b = RepairLedger::new();
        let records = [
            rec(1, RepairStage::Proposed, None, &[]),
            rec(1, RepairStage::Proven, None, b"p"),
            rec(1, RepairStage::Gated, Some(1), &[]),
            rec(1, RepairStage::Blocked, Some(1), &[]),
        ];
        for r in &records {
            a.accept(r);
            b.accept(r);
        }
        // A regenerated replay of the whole stream changes nothing.
        for r in &records {
            assert!(!b.accept(r));
        }
        assert_eq!(a, b);
        assert_eq!(a.records(), 4);
        assert!(a.get(1).unwrap().decided());
    }

    #[test]
    fn absorb_unions_members() {
        let mut a = RepairLedger::new();
        a.accept(&rec(1, RepairStage::Proposed, None, &[]));
        let mut b = RepairLedger::new();
        b.accept(&rec(1, RepairStage::Proposed, None, &[]));
        b.accept(&rec(2, RepairStage::Proposed, None, &[]));
        a.absorb(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.records(), 2);
    }
}
