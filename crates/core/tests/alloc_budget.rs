//! Allocation budget of the incremental fold.
//!
//! The §7 feasibility argument needs the per-update check to be cheap
//! *per update*; the first thing that breaks that is an allocator call
//! per event. This test counts heap allocations (not time, so it is
//! immune to a noisy machine) while [`HbgBuilder`] and
//! [`ConsistencyTracker`] fold router-local RIB→FIB install/remove pairs
//! over a fixed prefix set, and holds the steady state — the second
//! 50 000 events, after every map has seen its keys — to 0.05
//! allocations per event: amortised buffer growth only.
//!
//! This file holds exactly one test: the counting allocator is
//! process-global, and the count is only taken on the test's own thread.

use cpvr_core::{ConsistencyTracker, HbgBuilder, InferConfig};
use cpvr_dataplane::FibAction;
use cpvr_sim::workload::prefix_block;
use cpvr_sim::{EventId, IoEvent, IoKind, Proto};
use cpvr_types::{RouterId, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only an
// atomic and a const-initialised thread-local, neither of which
// allocates.
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
static ALLOCATOR: Counting = Counting;

const ROUTERS: u32 = 4;
const PREFIXES: usize = 2048;
const PASS: usize = 50_000;
/// Events between two advances.
const BATCH: usize = 500;

/// `2 * PASS` events: each item is a BGP RIB change on one router and,
/// a microsecond later, the FIB change it causes (one `rib->fib` edge),
/// toggling install/remove per `(router, prefix)`.
fn events() -> Vec<IoEvent> {
    let prefixes = prefix_block(PREFIXES);
    let mut installed = vec![false; ROUTERS as usize * PREFIXES];
    let mut out = Vec::with_capacity(2 * PASS);
    let mut lcg: u64 = 0x2545_f491_4f6c_dd1d;
    while out.len() < 2 * PASS {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let pick = (lcg >> 33) as usize % installed.len();
        let router = RouterId((pick / PREFIXES) as u32);
        let prefix = prefixes[pick % PREFIXES];
        installed[pick] = !installed[pick];
        let kinds = if installed[pick] {
            [
                IoKind::RibInstall {
                    proto: Proto::Bgp,
                    prefix,
                    route: None,
                },
                IoKind::FibInstall {
                    prefix,
                    action: FibAction::Local,
                },
            ]
        } else {
            [
                IoKind::RibRemove {
                    proto: Proto::Bgp,
                    prefix,
                },
                IoKind::FibRemove { prefix },
            ]
        };
        for kind in kinds {
            let time = SimTime::from_micros(out.len() as u64 + 1);
            out.push(IoEvent {
                id: EventId(out.len() as u32),
                router,
                time,
                arrived_at: Some(time),
                kind,
            });
        }
    }
    out
}

#[test]
fn steady_state_fold_stays_within_the_allocation_budget() {
    let events = events();
    let mut builder = HbgBuilder::new(&InferConfig {
        rules: true,
        patterns: None,
        min_confidence: 0.0,
        proximate: false,
    });
    let mut tracker = ConsistencyTracker::new(ROUTERS as usize);
    let mut fold = |pass: &[IoEvent]| {
        for batch in pass.chunks(BATCH) {
            for e in batch {
                builder.ingest(e);
                tracker.ingest(e);
            }
            let h = batch.last().expect("chunks are non-empty").time;
            builder.advance(h);
            assert!(tracker.advance(h).is_consistent());
        }
    };
    let (warm_up, steady) = events.split_at(PASS);
    fold(warm_up);
    COUNTING.with(|c| c.set(true));
    fold(steady);
    COUNTING.with(|c| c.set(false));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(builder.processed(), 2 * PASS);
    assert_eq!(
        builder.hbg().edges().len(),
        PASS,
        "one rib->fib edge per pair"
    );
    let budget = PASS as u64 / 20;
    assert!(
        allocations <= budget,
        "{allocations} heap allocations while folding {PASS} steady-state events \
         ({:.3} per event); the budget is 0.05 per event ({budget})",
        allocations as f64 / PASS as f64
    );
}
