//! A deterministic discrete-event simulator for distributed control planes.
//!
//! This crate is the substitute for the paper's GNS3-emulated Cisco
//! routers (§7): it hosts the real protocol implementations from
//! `cpvr-bgp` and `cpvr-igp` on a simulated network, delivers their
//! messages with configurable latencies (including a profile calibrated to
//! the paper's Fig. 5 measurements), applies FIB updates to a live
//! [`DataPlane`](cpvr_dataplane::DataPlane), and — crucially — **captures
//! every control-plane I/O** as an [`IoEvent`]:
//!
//! * inputs: configuration changes, hardware (link) status changes,
//!   received route advertisements and withdrawals;
//! * outputs: RIB updates, FIB updates, sent advertisements and
//!   withdrawals —
//!
//! exactly the six I/O classes of the paper's §4.1. Each event records
//! both the local (router) timestamp and the time it *arrives at the
//! verifier*, with configurable per-router capture delay and loss, because
//! the gap between those two clocks is what makes naive data-plane
//! snapshots inconsistent (Fig. 1c).
//!
//! The simulator also records the **ground-truth dependency edges**
//! between I/O events (it knows which input caused which outputs). The
//! inference machinery in `cpvr-core` never reads them; they exist so the
//! accuracy of inferred happens-before relationships can be measured
//! (experiment A2).
//!
//! Everything is deterministic: a seeded RNG drives all jitter, and the
//! event queue breaks time ties by insertion order. Same seed, same
//! scenario → byte-identical trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod engine;
pub(crate) mod io;
pub(crate) mod latency;
pub(crate) mod router;
pub mod scenario;
pub(crate) mod sink;
pub mod wire;
pub mod workload;

pub use engine::{FibGate, Simulation};
pub use io::{EventId, IoEvent, IoKind, Proto, Trace};
pub use latency::{CaptureProfile, LatencyProfile};
pub use router::{IgpKind, RouterConfig};
pub use sink::{EventSink, RouterShardSink};
