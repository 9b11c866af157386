//! The data plane: FIBs and packet forwarding.
//!
//! The control plane's *output* is a forwarding information base (FIB) per
//! router; the data plane verifier's *input* is a snapshot of all of them.
//! This crate provides:
//!
//! * `Fib` — one router's longest-prefix-match forwarding table.
//! * [`FibAction`] — what a matching packet does (forward over a link, exit
//!   to an external peer, deliver locally, or drop).
//! * [`FibUpdate`] — a single install/remove delta, the unit the paper's
//!   verifier interposes on ("only allow the data plane to be updated if
//!   the inputs and outputs are deemed correct").
//! * [`DataPlane`] — all routers' FIBs plus [`trace`](DataPlane::trace),
//!   which walks a packet hop by hop and classifies the outcome
//!   (delivered / looped / blackholed), exactly the checks data-plane
//!   verifiers like HSA and VeriFlow perform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod fib;
pub(crate) mod trace;

pub use fib::{FibAction, FibEntry, FibUpdate, UpdateKind};
pub use trace::{DataPlane, Hop, TraceOutcome, TraceResult};
