//! Replay-validated repair gating (REPRODUCED / DIVERGED / ERROR).
//!
//! A repair is only as trustworthy as the evidence behind it. The
//! [`ReplayTranscript`] is that evidence in executable form: the
//! violations observed when the repair was minted, a digest of the FIB
//! entries the root cause touched, and two deterministic step lists
//! derived from the (time,id) fold — `undo` (revert the root cause's
//! FIB consequences) and `redo` (reapply them). [`ReplayGate`]
//! re-executes the transcript against a **clone** of the resident
//! [`IncrementalVerifier`] — the shadow state — so the tentative apply
//! is rolled back for free by discarding the clone, and returns:
//!
//! * [`ReplayVerdict::Reproduced`] — the live state matches the
//!   transcript's base, the undo steps clear every base violation, and
//!   the redo steps bring both the violations and the FIB digest back
//!   to base. The repair's causal story checks out; committing it is
//!   safe.
//! * [`ReplayVerdict::Diverged`] — the replay executed but the
//!   outcomes differ (stale base state, undo fails to clear the
//!   violation, redo fails to reproduce it). The repair is blocked.
//! * [`ReplayVerdict::Error`] — the transcript is structurally unsound
//!   (empty, or references routers outside the topology). The repair
//!   is blocked; nothing was replayed.
//!
//! Verdicts are deterministic: the same verifier state and transcript
//! always yield the same verdict, which is what lets a crash-recovered
//! collector re-gate a journaled proof to a bit-identical decision.

use std::collections::BTreeSet;

use cpvr_dataplane::{DataPlane, FibUpdate};
use cpvr_types::hash::Fnv1a64;
use cpvr_types::{Ipv4Prefix, RouterId};

use crate::incremental::IncrementalVerifier;
use crate::policy::Violation;

/// A canonical, serializable signature of one `Violation` — enough to
/// compare violation *sets* across replay without carrying the full
/// policy AST in every transcript.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct ViolationSig {
    /// Index of the violated policy in the verifier's policy list.
    pub policy_idx: usize,
    /// The ingress router the violating trace started from.
    pub ingress: RouterId,
    /// The representative destination address, rendered.
    pub representative: String,
    /// What the trace observed (loop, blackhole, wrong exit, ...).
    pub observed: String,
}

impl ViolationSig {
    /// The signature of one violation.
    pub(crate) fn of(v: &Violation) -> Self {
        ViolationSig {
            policy_idx: v.policy_idx,
            ingress: v.ingress,
            representative: v.representative.to_string(),
            observed: v.observed.clone(),
        }
    }
}

/// The canonical (sorted, deduplicated) signature set of a violation
/// list — the form transcripts store and the gate compares.
pub fn violation_sigs(violations: &[Violation]) -> Vec<ViolationSig> {
    let mut sigs: Vec<ViolationSig> = violations.iter().map(ViolationSig::of).collect();
    sigs.sort();
    sigs.dedup();
    sigs
}

/// The deterministic replay transcript carried by a repair proof.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayTranscript {
    /// Violations observed on the live state when the repair was
    /// minted, in canonical order (see [`violation_sigs`]).
    pub base_violations: Vec<ViolationSig>,
    /// `ReplayTranscript::state_digest` over the touched
    /// (router, prefix) pairs at mint time.
    pub base_digest: u64,
    /// FIB deltas that revert the root cause's consequences, in
    /// (time,id) fold order. Applying them to base state must clear
    /// every base violation.
    pub undo: Vec<FibUpdate>,
    /// FIB deltas that reapply the consequences. Applying them after
    /// `undo` must reproduce `base_violations` and return the touched
    /// entries to `base_digest`.
    pub redo: Vec<FibUpdate>,
}

impl ReplayTranscript {
    /// Every (router, prefix) pair the transcript touches, sorted and
    /// deduplicated — the footprint the state digest covers.
    pub(crate) fn touched_pairs(&self) -> Vec<(RouterId, Ipv4Prefix)> {
        let set: BTreeSet<(RouterId, Ipv4Prefix)> = self
            .undo
            .iter()
            .chain(self.redo.iter())
            .map(|u| (u.router, u.prefix))
            .collect();
        set.into_iter().collect()
    }

    /// A deterministic digest of `dp`'s entries for `pairs`: presence
    /// and forwarding action per pair, in pair order. Install times are
    /// deliberately excluded — they are capture bookkeeping, not
    /// forwarding behavior.
    pub(crate) fn state_digest(dp: &DataPlane, pairs: &[(RouterId, Ipv4Prefix)]) -> u64 {
        let mut h = Fnv1a64::new();
        for &(router, prefix) in pairs {
            h.update_u64(u64::from(router.0));
            h.update_u64(u64::from(prefix.bits()));
            h.update(&[prefix.len()]);
            match dp.fib(router).get(&prefix) {
                Some(e) => {
                    h.update(b"some");
                    h.update(format!("{:?}", e.action).as_bytes());
                }
                None => h.update(b"none"),
            }
        }
        h.finish()
    }

    /// The digest of the transcript's own footprint on `dp`.
    pub fn digest_on(&self, dp: &DataPlane) -> u64 {
        Self::state_digest(dp, &self.touched_pairs())
    }
}

/// The outcome of re-executing a [`ReplayTranscript`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// The transcript replayed exactly: base state matched, undo
    /// cleared the violations, redo reproduced them.
    Reproduced,
    /// The replay executed but its outcome differs from the
    /// transcript's claims; the reason says where.
    Diverged(String),
    /// The transcript is structurally unsound and was not replayed;
    /// the reason says why.
    Error(String),
}

impl ReplayVerdict {
    /// Whether the verdict permits committing the repair.
    pub fn is_reproduced(&self) -> bool {
        matches!(self, ReplayVerdict::Reproduced)
    }

    /// The lowercase label used in metrics and journal records.
    pub fn label(&self) -> &'static str {
        match self {
            ReplayVerdict::Reproduced => "reproduced",
            ReplayVerdict::Diverged(_) => "diverged",
            ReplayVerdict::Error(_) => "error",
        }
    }

    /// Compact numeric code for journal records (0/1/2 in label order).
    pub fn code(&self) -> u8 {
        match self {
            ReplayVerdict::Reproduced => 0,
            ReplayVerdict::Diverged(_) => 1,
            ReplayVerdict::Error(_) => 2,
        }
    }
}

/// Re-executes replay transcripts against a shadow of the resident
/// verifier.
pub struct ReplayGate;

impl ReplayGate {
    /// Replays `t` against a clone of `verifier` and judges it.
    ///
    /// The live `verifier` is never mutated: the tentative apply runs
    /// on the clone, and every exit path — including REPRODUCED —
    /// discards it, which *is* the rollback the blocking verdicts
    /// require. Committing a REPRODUCED repair is the caller's move.
    pub fn execute(verifier: &IncrementalVerifier, t: &ReplayTranscript) -> ReplayVerdict {
        // Structural soundness first: these are ERRORs, not
        // divergences, because nothing can be replayed at all.
        if t.undo.is_empty() && t.redo.is_empty() {
            return ReplayVerdict::Error("empty transcript: no undo or redo steps".into());
        }
        let n = verifier.dataplane().num_routers();
        for u in t.undo.iter().chain(t.redo.iter()) {
            if u.router.index() >= n {
                return ReplayVerdict::Error(format!(
                    "transcript references router {} outside the {n}-router topology",
                    u.router.0
                ));
            }
        }

        // Base-state checks: the transcript claims the live state looks
        // like it did at mint time. A mismatch means the world moved on
        // (or the proof was tampered with) — the replay would not be
        // measuring what the proof claims, so the repair must block.
        let live = violation_sigs(&verifier.report().violations);
        if live != t.base_violations {
            return ReplayVerdict::Diverged(format!(
                "base violations differ: transcript has {}, live state has {}",
                t.base_violations.len(),
                live.len()
            ));
        }
        let pairs = t.touched_pairs();
        let live_digest = ReplayTranscript::state_digest(verifier.dataplane(), &pairs);
        if live_digest != t.base_digest {
            return ReplayVerdict::Diverged(format!(
                "base FIB digest differs: transcript {:#018x}, live {live_digest:#018x}",
                t.base_digest
            ));
        }

        // Shadow replay: undo must clear every base violation...
        let mut shadow = verifier.clone();
        for u in &t.undo {
            shadow.apply(u);
        }
        let after_undo = violation_sigs(&shadow.report().violations);
        for sig in &t.base_violations {
            if after_undo.contains(sig) {
                return ReplayVerdict::Diverged(format!(
                    "undo does not clear violation of policy {} at {}",
                    sig.policy_idx, sig.ingress
                ));
            }
        }

        // ...and redo must bring the violations and the footprint
        // digest back to base, proving the transcript captured the
        // actual cause rather than a coincidental state change.
        for u in &t.redo {
            shadow.apply(u);
        }
        let after_redo = violation_sigs(&shadow.report().violations);
        if after_redo != t.base_violations {
            return ReplayVerdict::Diverged(format!(
                "redo does not reproduce base violations: expected {}, got {}",
                t.base_violations.len(),
                after_redo.len()
            ));
        }
        let redo_digest = ReplayTranscript::state_digest(shadow.dataplane(), &pairs);
        if redo_digest != t.base_digest {
            return ReplayVerdict::Diverged(format!(
                "redo does not restore the FIB digest: expected {:#018x}, got {redo_digest:#018x}",
                t.base_digest
            ));
        }

        ReplayVerdict::Reproduced
    }
}

cpvr_types::impl_json_struct!(ViolationSig {
    policy_idx,
    ingress,
    representative,
    observed,
});

cpvr_types::impl_json_struct!(ReplayTranscript {
    base_violations,
    base_digest,
    undo,
    redo,
});

cpvr_types::impl_json_enum!(ReplayVerdict {
    Reproduced,
    Diverged(reason),
    Error(reason),
});
