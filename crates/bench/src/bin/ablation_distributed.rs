//! A3 — distributed vs centralized verification and provenance (§5):
//! message counts, per-node work, and bottleneck relief as the network
//! grows.

use cpvr_bench::scaled_scenario;
use cpvr_core::distributed::{distributed_root_events, partition};
use cpvr_sim::IoKind;
use cpvr_types::Ipv4Prefix;
use cpvr_verify::distributed::distributed_verify;
use cpvr_verify::Policy;

fn main() {
    let prefix: Ipv4Prefix = "100.0.0.0/8".parse().unwrap();
    println!("=== A3: distributed verification (per network size) ===");
    println!(
        "{:>3} {:>10} {:>14} {:>13} {:>17}",
        "n", "messages", "max node work", "central work", "snapshot entries"
    );
    for n in [4usize, 8, 12, 16] {
        let sim = scaled_scenario(n, 30, 3);
        let policies = vec![Policy::Reachable { prefix }];
        let (_, stats) = distributed_verify(sim.topology(), sim.dataplane(), &policies);
        println!(
            "{:>3} {:>10} {:>14} {:>13} {:>17}",
            n,
            stats.dist_messages,
            stats.dist_max_node_work,
            stats.central_work,
            stats.central_snapshot_entries
        );
    }
    println!("\n=== A3: distributed provenance (per network size) ===");
    println!(
        "{:>3} {:>10} {:>18} {:>12}",
        "n", "messages", "routers involved", "roots"
    );
    for n in [4usize, 8, 12] {
        let sim = scaled_scenario(n, 10, 4);
        let trace = sim.trace().clone();
        let subs = partition(&trace);
        // Trace provenance of the last FIB install anywhere.
        let bad = trace
            .events
            .iter()
            .rev()
            .find(|e| matches!(e.kind, IoKind::FibInstall { .. }))
            .expect("fib events exist")
            .id;
        let (roots, stats) = distributed_root_events(&subs, bad);
        println!(
            "{:>3} {:>10} {:>18} {:>12}",
            n,
            stats.messages,
            stats.routers_involved,
            roots.len()
        );
    }
    println!("\n(distributed spreads the lookup work; the cost is partial-result messages)");
}
