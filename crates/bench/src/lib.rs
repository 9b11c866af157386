//! Experiment harness: one runner per paper figure plus the ablations.
//!
//! Each public function executes one experiment end to end and returns a
//! structured result; the `src/bin/*` binaries print them in the shape of
//! the paper's figures, and the Criterion benches in `benches/` time the
//! underlying machinery. See `EXPERIMENTS.md` at the workspace root for
//! the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod experiments;
pub mod ingest;

pub use experiments::*;
