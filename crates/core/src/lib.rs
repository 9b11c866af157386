//! CPVR core: integrating verification and repair into the control plane.
//!
//! This crate is the paper's contribution. Everything below consumes only
//! what a deployment would have: the stream of captured control-plane
//! I/Os ([`IoEvent`](cpvr_sim::IoEvent)s, §4.2's "most commercial router
//! platforms provide a mechanism for logging control plane I/Os") and the
//! FIB snapshots assembled from them. It never touches router internals
//! or the simulator's ground truth — the ground-truth edges exist solely
//! to *grade* the inference (experiment A2).
//!
//! The pipeline, mirroring the paper's Fig. 3:
//!
//! 1. **Infer happens-before relationships** between captured I/Os
//!    ([`infer`]), using the four §4.2 techniques: prefix filtering,
//!    timestamp filtering, protocol rule matching ([`rules`]), and
//!    statistical pattern mining with per-HBR confidence.
//! 2. **Aggregate them into a happens-before graph** ([`hbg`], §4.3).
//! 3. **Build consistent data-plane snapshots** ([`snapshot`], §5): the
//!    HBG tells the verifier when its view is causally closed, so it can
//!    wait instead of raising false alarms (Fig. 1c).
//! 4. **Trace provenance** of problematic FIB updates back to root-cause
//!    leaf events ([`provenance`], Fig. 4).
//! 5. **Repair** by reverting the root cause ([`repair`], §6) — never by
//!    naively blocking FIB updates, whose hazard the repair module can
//!    also quantify.
//! 6. **Predict** outcomes early using the repetitiveness of control
//!    plane behavior across prefix equivalence classes ([`predict`], §6).
//! 7. Drive the whole loop against a live network (`control`, Fig. 3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod blocks;
pub mod builder;
pub(crate) mod control;
pub mod distributed;
pub(crate) mod gate;
pub mod hbg;
pub mod infer;
pub mod predict;
pub(crate) mod proof;
pub mod provenance;
pub mod repair;
pub mod rules;
pub(crate) mod shard;
pub mod snapshot;

pub use builder::HbgBuilder;
pub use control::{ControlLoop, Guard, GuardAction, GuardReport};
pub use gate::install_inline_gate;
pub use hbg::{Hbg, HbrSource};
pub use infer::{infer_hbg, InferConfig};
pub use predict::OutcomePredictor;
pub use proof::{chain_over, gate_repair, prove, PredictedBehavior, ProvenanceHop, RepairProof};
pub use provenance::{provenance_path, root_causes};
pub use repair::{propose_repairs, propose_repairs_report, RepairPlan};
pub use rules::FoldRecord;
pub use shard::{FederationPlan, ShardPlan};
pub use snapshot::{consistency_check, ConsistencyTracker, ConvDigest, SnapshotStatus};
