//! Allocation budget of the simulated BGP control plane.
//!
//! Trace generation is most of the ledger's `setup_s` on the BGP
//! workloads, and what it used to pay for was copies: a deep `BgpRoute`
//! clone per candidate, per peer told and per captured event, and a map
//! probe per configured session whether or not that peer was to hear
//! anything. Routes are shared now (`Arc<BgpRoute>`, allocated where a
//! route is created or rewritten) and the decision pass keeps its buffers,
//! so this test counts heap allocations — not time, so it is immune to a
//! noisy machine — while the ledger's `bgp-merger` generator shape runs:
//! a random full iBGP mesh with three uplinks under 2 000 announce /
//! withdraw churn items and syslog capture, at 12 routers and at 48.
//!
//! * The churn stays under 3.0 allocations per captured event at both
//!   sizes (5.44 and 5.26 before routes were shared; 2.12 and 1.81
//!   after). A reintroduced per-peer route clone or per-pass buffer
//!   shows here first.
//! * Cloning the captured events — what the ledger does to build its
//!   input — allocates a handful of times, not once per route-bearing
//!   event (100 479 times for the 174 933 events of the 48-router run
//!   before; what is left is the `Vec` and the start-up events' `desc`
//!   strings).
//!
//! The count is per thread, so the tests may run side by side.

use cpvr::sim::workload::{ibgp_configs, prefix_block, random_topology, schedule_churn, IbgpShape};
use cpvr::sim::{CaptureProfile, IoEvent, IoKind, LatencyProfile, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// This thread's allocations since it started counting; `None` when
    /// it is not.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

/// Heap allocations (and reallocations) `work` makes on this thread.
fn allocations_of(work: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    work();
    ALLOCATIONS
        .with(|n| n.replace(None))
        .expect("counting was on")
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MAX_EVENTS: usize = 50_000_000;

/// Runs the `bgp-merger` generator shape on `routers` routers and holds
/// its churn, and a clone of what it captured, to their budgets.
fn churn_stays_in_budget(routers: usize, extra_links: usize) {
    let (topo, uplinks) = random_topology(routers, extra_links, 3, 7);
    let configs = ibgp_configs(&topo, &uplinks, IbgpShape::FullMesh);
    let (latency, capture) = (LatencyProfile::cisco(), CaptureProfile::syslog());
    let mut sim = Simulation::new(topo, configs, latency, capture, 1);
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    let converged = sim.trace().len();
    let prefixes = prefix_block(256);
    let allocations = allocations_of(|| {
        schedule_churn(&mut sim, &uplinks, &prefixes, 2_000, 1);
        sim.run_to_quiescence(MAX_EVENTS);
    });
    let events = &sim.trace().events;
    let churned = events.len() - converged;
    assert!(churned > 15 * 2_000, "only {churned} events captured");
    let per_event = allocations as f64 / churned as f64;
    println!("{routers} routers: {allocations} allocations / {churned} events = {per_event:.2}");
    assert!(
        per_event <= 3.0,
        "{routers} routers: {per_event:.2} allocations per captured event"
    );

    // No wildcard arm: a new or removed `IoKind` variant has to be
    // looked at here (the fold's cost depends on the variant set).
    let with_route = |e: &&IoEvent| match &e.kind {
        IoKind::RecvAdvert { route, .. }
        | IoKind::SendAdvert { route, .. }
        | IoKind::RibInstall { route, .. } => route.is_some(),
        IoKind::ConfigChange { .. }
        | IoKind::SoftReconfig { .. }
        | IoKind::LinkStatus { .. }
        | IoKind::RecvWithdraw { .. }
        | IoKind::RibRemove { .. }
        | IoKind::FibInstall { .. }
        | IoKind::FibRemove { .. }
        | IoKind::SendWithdraw { .. } => false,
    };
    let route_bearing = events.iter().filter(with_route).count();
    assert!(route_bearing > churned / 4, "{route_bearing} carry a route");
    let mut copy = Vec::new();
    let cloning = allocations_of(|| copy = events.clone());
    assert_eq!(copy.len(), events.len());
    println!("{routers} routers: {cloning} allocations to clone them all");
    assert!(
        cloning < 100,
        "{cloning} allocations to clone {} events",
        events.len()
    );
}

#[test]
fn twelve_router_mesh_churn_stays_in_budget() {
    churn_stays_in_budget(12, 8);
}

#[test]
fn forty_eight_router_mesh_churn_stays_in_budget() {
    churn_stays_in_budget(48, 32);
}

/// The generator's sort, the trace clone, every sink and the collector
/// move `IoEvent`s by value, and `churn-sharded` (which never builds a
/// `Simulation`) is sensitive to their size: the same bound the type
/// asserts beside its definition, held where the allocation bars are.
#[test]
fn io_event_layout_is_unchanged() {
    assert!(std::mem::size_of::<IoEvent>() <= 136);
}
