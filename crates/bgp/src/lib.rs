//! BGP: the Border Gateway Protocol, as a deterministic state machine.
//!
//! This crate implements the protocol at the level of fidelity the paper
//! cares about — the *decision process and dissemination behavior that
//! produce control-plane I/Os* — including the parts model-based verifiers
//! tend to drop:
//!
//! * full best-path selection with **vendor-specific variants**
//!   ([`decision`], [`VendorProfile`]): Cisco's `weight` attribute and
//!   oldest-route tie-break versus the standard router-id tie-break. The
//!   paper (§2) cites exactly these cross-vendor differences as a reason
//!   model-based verification falls short.
//! * route maps with match/set clauses ([`policy`]), applied at import and
//!   export, supporting the local-preference configurations of the paper's
//!   Figs. 1–2.
//! * proper RIB structure (`rib`): raw Adj-RIB-In (so *soft
//!   reconfiguration* — re-running policy over stored routes, the 25 s
//!   event in the paper's Fig. 5 — is possible), Loc-RIB, and Adj-RIB-Out
//!   (so withdrawals and duplicate suppression are exact) — one record
//!   per prefix in one ordered table, so work follows the paths touched,
//!   not the table size.
//! * iBGP/eBGP dissemination rules (full-mesh iBGP, no re-advertisement of
//!   iBGP-learned routes to iBGP peers, next-hop-self at the border), and
//!   optional **BGP Add-Path**, which the paper's §8 identifies as the
//!   mechanism that makes BGP outcomes deterministic and hence repairable.
//!
//! Like the IGP crate, everything is a pure state machine: the simulator
//! owns time and transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod config;
pub mod decision;
pub(crate) mod instance;
pub mod policy;
pub(crate) mod rib;
pub(crate) mod route;

pub use config::{BgpConfig, ConfigChange, SessionCfg};
pub use decision::VendorProfile;
pub use instance::{BgpInstance, BgpOutputs, IgpView, StaticIgpView};
pub use policy::{Clause, MatchCond, RouteMap, SetAction};
pub use route::{BgpRoute, BgpUpdate, NextHop, Origin, PeerRef};
