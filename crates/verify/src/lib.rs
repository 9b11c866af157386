//! A data-plane verifier in the HSA / VeriFlow tradition.
//!
//! Data-plane verifiers "sidestep the complexity of the control plane by
//! verifying the control plane's output" (§1). This crate implements that
//! layer from scratch:
//!
//! * [`ec`] — equivalence-class slicing: carve the destination address
//!   space into classes whose members are forwarded identically, so each
//!   class is verified once (VeriFlow's trick). Also computes
//!   *behavioral* classes (prefixes treated identically network-wide),
//!   the §6 notion under which 100K-prefix networks collapse to <15
//!   classes.
//! * [`policy`] — the policy language: reachability, loop freedom,
//!   blackhole freedom, waypointing, and the paper's running example
//!   ("exit via R2 while its uplink is up, else R1") as
//!   [`Policy::PreferredExit`].
//! * [`verifier`] — the batch checker, kept as the oracle: full
//!   ([`verify`]) and delta-scoped ([`verify_incremental`]) verification
//!   over a [`DataPlane`](cpvr_dataplane::DataPlane) snapshot.
//! * [`incremental`] — the production engine: [`IncrementalVerifier`]
//!   keeps the equivalence classes and per-class verdicts live across a
//!   stream of FIB updates, re-checking only classes whose address space
//!   intersects each update.
//! * [`replay`] — replay-validated repair gating: [`ReplayGate`]
//!   re-executes a repair proof's deterministic transcript against a
//!   shadow clone of the resident verifier and returns
//!   REPRODUCED/DIVERGED/ERROR; the blocking verdicts roll back the
//!   tentative apply by discarding the shadow.
//! * [`distributed`] — the §5 sketch of distributed verification: routers
//!   exchange partial per-EC results instead of centralizing the
//!   snapshot; this module models the message/work tradeoff
//!   (experiment A3 only).
//!
//! # Batch-equivalence invariant
//!
//! The fast path in this crate is defined by equivalence to the slow
//! one. [`IncrementalVerifier::report`] after any sequence of applied
//! updates equals [`verify`] run from scratch on the same snapshot — same
//! violations in the same order, same `ecs_checked`, same `traces_run` —
//! and each [`IncrementalVerifier::apply`] returns what
//! [`verify_incremental`] returns for that update's prefix. The property
//! tests in `tests/prop_incremental.rs` pin both under randomized
//! install/remove sequences; performance work must never buy speed with
//! a weaker verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod ec;
pub mod incremental;
pub mod policy;
pub mod replay;
pub mod verifier;

pub use distributed::{distributed_verify, DistStats};
pub use ec::{
    behavior_classes, class_of, equivalence_classes, equivalence_classes_in, BehaviorCache,
    EquivClass,
};
pub use incremental::{IncrementalStats, IncrementalVerifier};
pub use policy::{Policy, Violation};
pub use replay::{violation_sigs, ReplayGate, ReplayTranscript, ReplayVerdict, ViolationSig};
pub use verifier::{policy_equivalence_classes, verify, verify_incremental, VerifyReport};
