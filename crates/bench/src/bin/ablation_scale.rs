//! A12 / A16 — simulator scale.
//!
//! * `ablation_scale [PREFIXES…]` (A12): BGP table size vs convergence and
//!   soft-reconfiguration time on the 12-router two-exit network. Table
//!   sizes come from the command line (default 512 → 65 536).
//! * `ablation_scale --routers 12,48,96` (A16): the session-count axis —
//!   1 000 churn items on a full iBGP mesh and on a route-reflector star
//!   of each size, as events captured, nanoseconds and heap allocations
//!   per captured event. Per-event cost should stay near flat: a speaker
//!   pays for the sessions that hear something, not for every session.

use cpvr_bench::{router_scaling, sim_scaling};
use cpvr_sim::workload::IbgpShape;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations (and reallocations) of the process so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting is one relaxed
// atomic add, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn router_axis(sizes: &str) {
    const CHURN_ITEMS: usize = 1_000;
    let sizes: Vec<usize> = sizes
        .split(',')
        .map(|n| n.parse().expect("router counts are integers"))
        .collect();
    println!("=== A16: simulator scale ({CHURN_ITEMS} churn items, three uplinks) ===");
    println!(
        "{:>15} {:>8} {:>10} {:>10} {:>13}",
        "sessions", "routers", "events", "ns/event", "allocs/event"
    );
    for (label, shape) in [
        ("full mesh", IbgpShape::FullMesh),
        ("reflector star", IbgpShape::ReflectorStar),
    ] {
        for &n in &sizes {
            // Best of three: the count repeats exactly, the time does not.
            let r = (0..3)
                .map(|_| router_scaling(n, shape, CHURN_ITEMS, 1, allocations))
                .min_by(|a, b| a.ns_per_event.total_cmp(&b.ns_per_event))
                .expect("three runs");
            println!(
                "{label:>15} {:>8} {:>10} {:>10.0} {:>13.2}",
                r.routers, r.events, r.ns_per_event, r.allocs_per_event
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, sizes] = args.as_slice() {
        if flag == "--routers" {
            return router_axis(sizes);
        }
    }
    let mut sizes: Vec<usize> = args
        .iter()
        .map(|a| a.parse().expect("table sizes are integers"))
        .collect();
    if sizes.is_empty() {
        sizes = vec![512, 1024, 2048, 4096, 16_384, 65_536];
    }
    println!("=== A12: simulator scale (12 routers, two exits) ===");
    println!(
        "{:>9} {:>10} {:>12} {:>18}",
        "prefixes", "events", "converge s", "fault+rollback s"
    );
    for n in sizes {
        let r = sim_scaling(n, 1);
        println!(
            "{:>9} {:>10} {:>12.2} {:>18.2}",
            r.prefixes, r.events, r.converge_s, r.fault_rollback_s
        );
    }
}
