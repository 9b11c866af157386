//! Network topology model.
//!
//! A [`Topology`] is the static structure the control plane runs over:
//! routers, their interfaces, the point-to-point links between them, and
//! *external peers* (eBGP neighbors outside the administrative domain, like
//! the two upstream providers in the paper's Fig. 1). Link and interface
//! *state* (up/down) lives here too, because hardware status changes are one
//! of the three control-plane input classes the paper tracks (§4.1).
//!
//! The topology is intentionally protocol-agnostic: BGP sessions, OSPF
//! areas, and route maps are configured in the protocol crates, keyed by the
//! identifiers defined here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod graph;
pub(crate) mod topology;

pub use builder::TopologyBuilder;
pub use topology::{ExtPeerId, LinkId, LinkState, Topology};
