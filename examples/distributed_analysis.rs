//! Distributed verification, distributed provenance, and a live
//! federation of collectors (§5).
//!
//! Instead of hauling every FIB and every log record to one box, routers
//! keep their own transfer functions and happens-before subgraphs and
//! exchange partial results. This example runs the in-process cost
//! models for both distributed schemes, then folds the very same trace
//! through a *real* federation: three collectors over loopback TCP,
//! each owning a subset of the routers, exchanging frontiers, boundary
//! edges, and partial verdicts over the wire codec's peer frames. If
//! the live federation cannot launch (no loopback, no scratch dir), the
//! in-process models above stand as the fallback.
//!
//! Run with: `cargo run --example distributed_analysis`

use cpvr::bgp::{ConfigChange, PeerRef, RouteMap, SetAction};
use cpvr::collector::wal::{wait_for, TempDir};
use cpvr::collector::SocketSink;
use cpvr::core::distributed::{distributed_root_events, partition};
use cpvr::core::FederationPlan;
use cpvr::federation::Federation;
use cpvr::sim::scenario::two_exit_scenario;
use cpvr::sim::{CaptureProfile, IoEvent, IoKind, LatencyProfile};
use cpvr::types::{RouterId, SimTime};
use cpvr::verify::distributed::distributed_verify;
use cpvr::verify::Policy;
use std::time::Duration;

fn main() {
    // An 8-router line with exits at both ends, fully converged, then a
    // fault: the right exit's import gets a rock-bottom local preference.
    let (mut sim, left, right) =
        two_exit_scenario(8, LatencyProfile::fast(), CaptureProfile::ideal(), 5);
    let p: cpvr::types::Ipv4Prefix = "8.8.8.0/24".parse().unwrap();
    sim.start();
    sim.run_to_quiescence(500_000);
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(1), left, &[p]);
    sim.schedule_ext_announce(sim.now() + SimTime::from_millis(40), right, &[p]);
    sim.run_to_quiescence(500_000);

    // --- distributed data-plane verification (in-process cost model) ---
    let policy = Policy::PreferredExit {
        prefix: p,
        primary: right,
        backup: left,
    };
    let (report, stats) = distributed_verify(
        sim.topology(),
        sim.dataplane(),
        std::slice::from_ref(&policy),
    );
    println!("distributed verification of '{policy}':");
    println!(
        "  verdict                  : {}",
        if report.ok() { "compliant" } else { "VIOLATED" }
    );
    println!("  partial-result messages  : {}", stats.dist_messages);
    println!(
        "  busiest node lookups     : {} (centralized does all {})",
        stats.dist_max_node_work, stats.central_work
    );
    println!(
        "  snapshot entries avoided : {}",
        stats.central_snapshot_entries
    );

    // --- inject the fault and do distributed provenance ----------------
    let t_change = sim.now() + SimTime::from_millis(10);
    let change = ConfigChange::SetImport {
        peer: PeerRef::External(right),
        map: RouteMap::set_all(vec![SetAction::LocalPref(1)]),
    };
    sim.schedule_config(t_change, RouterId(7), change);
    sim.run_to_quiescence(500_000);

    // The problematic FIB update: R1 reprogramming P after the change.
    let trace = sim.trace().clone();
    let bad = trace
        .events
        .iter()
        .filter(|e| e.router == RouterId(0) && e.time >= t_change)
        .filter(|e| matches!(&e.kind, IoKind::FibInstall { prefix, .. } if *prefix == p))
        .map(|e| e.id)
        .max()
        .expect("R1 reprogrammed P");

    let subs = partition(&trace);
    let (roots, pstats) = distributed_root_events(&subs, bad);
    println!(
        "\ndistributed provenance from {}:",
        trace.events[bad.index()]
    );
    println!("  partial-path messages    : {}", pstats.messages);
    println!(
        "  routers involved         : {} of 8",
        pstats.routers_involved
    );
    println!("  root events:");
    for id in &roots {
        println!("    {}", trace.events[id.index()]);
    }

    // --- the same trace through a *real* federation --------------------
    match run_federated(&trace.events) {
        Ok(()) => {}
        Err(e) => println!(
            "\nlive federation unavailable ({e}); the in-process \
             distributed models above are the fallback"
        ),
    }
}

/// Folds the captured trace through a live 3-member federation and
/// prints what actually crossed the collector↔collector links.
fn run_federated(events: &[IoEvent]) -> std::io::Result<()> {
    const MEMBERS: u32 = 3;
    let n_routers = events.iter().map(|e| e.router.0).max().unwrap() + 1;
    let tmp = TempDir::new("distributed-analysis-fed")?;
    let fed = Federation::launch(FederationPlan::uniform(MEMBERS), n_routers, tmp.path())?;
    println!("\nlive federation: {MEMBERS} collectors over loopback TCP");
    for m in 0..fed.members() {
        let owned: Vec<u32> = (0..n_routers)
            .filter(|&r| fed.plan().of_router(RouterId(r)) == m)
            .collect();
        println!("  member {m} on {} owns routers {owned:?}", fed.addr(m));
    }

    let mut sinks: Vec<SocketSink> = (0..n_routers)
        .map(|r| {
            let r = RouterId(r);
            SocketSink::connect(fed.addr_of_router(r), r, n_routers)
        })
        .collect::<std::io::Result<_>>()?;
    for sink in &mut sinks {
        let mut mine: Vec<&IoEvent> = events
            .iter()
            .filter(|e| e.router == sink.source())
            .collect();
        mine.sort_by_key(|e| (e.time, e.id));
        for e in mine {
            sink.send(e)?;
        }
        if !sink.drain(Duration::from_secs(10))? {
            return Err(std::io::Error::other("stream never drained"));
        }
    }
    let end = events
        .iter()
        .map(|e| e.arrived_at.unwrap_or(e.time))
        .max()
        .unwrap();
    let mut t = SimTime::ZERO;
    while t < end + SimTime::from_millis(10) {
        t += SimTime::from_millis(10);
        for sink in &mut sinks {
            sink.watermark(t)?;
        }
    }
    for sink in &mut sinks {
        sink.bye()?;
    }
    for m in 0..fed.members() {
        if !wait_for(Duration::from_secs(10), || {
            fed.handle(m).stats().watermark == Some(SimTime::MAX)
        }) {
            return Err(std::io::Error::other(format!(
                "member {m} never folded to the final horizon"
            )));
        }
    }
    drop(sinks);

    let report = fed.shutdown()?;
    let g = &report.global;
    let (waits, resolved) = g.wait_stats();
    println!(
        "  global fold: {} events, {} HBG edges, {waits} WaitFor issued \
         / {resolved} resolved, verdict {}",
        g.events(),
        g.canonical_edges().len(),
        if g.status().is_consistent() {
            "consistent"
        } else {
            "WAITING"
        }
    );
    let mut total_boundary = 0u64;
    let mut total_bytes = 0u64;
    for member in &report.members {
        if let Some(snap) = &member.metrics {
            total_boundary += snap.counter_total("cpvr_boundary_events_sent_total");
            total_bytes += snap.counter_total("cpvr_boundary_bytes_sent_total");
        }
    }
    println!(
        "  inter-collector cost: {total_boundary} boundary events shipped, \
         {total_bytes} B of peer frames — instead of the full {}-event trace \
         on one box",
        events.len()
    );
    Ok(())
}
