//! Allocation budget of the incremental fold.
//!
//! The §7 feasibility argument needs the per-update check to be cheap
//! *per update*; the first thing that breaks that is an allocator call
//! per event. These tests count heap allocations (not time, so they are
//! immune to a noisy machine) while [`HbgBuilder`] and
//! [`ConsistencyTracker`] fold
//!
//! * router-local RIB→FIB install/remove pairs over a fixed prefix set,
//!   holding the steady state — the second 50 000 events, after every
//!   map has seen its keys — to 0.05 allocations per event: amortised
//!   buffer growth only;
//! * a simulator-generated BGP churn trace whose adverts and RIB
//!   installs carry their routes (`as_path` and all), as the collector's
//!   `IngestPipeline` folds it — one [`FoldRecord`] per event, handed to
//!   both consumers — holding the whole fold to 0.35 allocations per
//!   event. What is left is state the fold must create: a cell per
//!   `(router, prefix)` and per conversation. Buffering the events
//!   themselves cost one more allocation for every route.
//!
//! The count is per thread, so the tests may run side by side.

use cpvr_bgp::{BgpConfig, PeerRef, SessionCfg};
use cpvr_core::{ConsistencyTracker, FoldRecord, HbgBuilder, InferConfig};
use cpvr_dataplane::FibAction;
use cpvr_sim::workload::{churn_plan, prefix_block, random_topology};
use cpvr_sim::{
    CaptureProfile, EventId, IgpKind, IoEvent, IoKind, LatencyProfile, Proto, RouterConfig,
    Simulation,
};
use cpvr_types::{AsNum, RouterId, SimTime};
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
    let allocations = allocations_of(|| fold(steady));

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

/// A full iBGP mesh of 12 routers with three uplinks under
/// announce/withdraw churn, syslog-skewed capture: the ledger's
/// `bgp-merger` shape. Adverts and BGP RIB installs carry their route.
fn bgp_churn_trace() -> Vec<IoEvent> {
    const MAX_EVENTS: usize = 4_000_000;
    let (topo, peers) = random_topology(12, 8, 3, 7);
    let n = topo.num_routers() as u32;
    let configs = (0..n)
        .map(|r| {
            let mut bgp = BgpConfig::new(RouterId(r), AsNum(65000));
            let mesh = (0..n).filter(|o| *o != r);
            bgp.sessions
                .extend(mesh.map(|o| SessionCfg::new(PeerRef::Internal(RouterId(o)))));
            let uplinks = peers
                .iter()
                .filter(|up| topo.ext_peer(**up).attach.0 == RouterId(r));
            bgp.sessions
                .extend(uplinks.map(|up| SessionCfg::new(PeerRef::External(*up))));
            RouterConfig {
                bgp,
                igp: IgpKind::Ospf,
            }
        })
        .collect();
    let mut sim = Simulation::new(
        topo,
        configs,
        LatencyProfile::cisco(),
        CaptureProfile::syslog(),
        1,
    );
    sim.start();
    sim.run_to_quiescence(MAX_EVENTS);
    let prefixes = prefix_block(256);
    let base = sim.now();
    for (t_ms, peer, prefix, announce) in churn_plan(3_000, peers.len(), prefixes.len(), 1) {
        let at = base + SimTime::from_millis(t_ms);
        if announce {
            sim.schedule_ext_announce(at, peers[peer], &[prefixes[prefix]]);
        } else {
            sim.schedule_ext_withdraw(at, peers[peer], &[prefixes[prefix]]);
        }
    }
    sim.run_to_quiescence(MAX_EVENTS);
    sim.trace().events.clone()
}

#[test]
fn route_bearing_bgp_fold_stays_within_the_allocation_budget() {
    let events = bgp_churn_trace();
    assert!(events.len() >= 50_000, "only {} events", events.len());
    let with_route = |e: &&IoEvent| {
        matches!(
            e.kind,
            IoKind::RecvAdvert { route: Some(_), .. }
                | IoKind::SendAdvert { route: Some(_), .. }
                | IoKind::RibInstall { route: Some(_), .. }
        )
    };
    let routes = events.iter().filter(with_route).count();
    assert!(2 * routes > events.len(), "{routes} events carry a route");
    let mut order: Vec<&IoEvent> = events.iter().collect();
    order.sort_by_key(|e| (e.time, e.id));

    let mut builder = HbgBuilder::new(&InferConfig {
        rules: true,
        patterns: None,
        min_confidence: 0.9,
        proximate: false,
    });
    let mut tracker = ConsistencyTracker::new(12);
    let allocations = allocations_of(|| {
        for batch in order.chunks(BATCH) {
            for e in batch {
                let rec = FoldRecord::of(e);
                builder.ingest_record(rec);
                tracker.ingest_record(rec, e.arrived_at);
            }
            let h = batch.last().expect("chunks are non-empty").time;
            builder.advance(h);
            tracker.advance(h);
            tracker.drain_applied();
        }
    });

    assert_eq!(builder.processed(), events.len());
    assert!(builder.hbg().edges().len() > events.len() / 2);
    let per_event = allocations as f64 / events.len() as f64;
    assert!(
        per_event <= 0.35,
        "{allocations} heap allocations while folding {} events ({per_event:.3} per event); \
         the budget is 0.35 per event",
        events.len()
    );
}
