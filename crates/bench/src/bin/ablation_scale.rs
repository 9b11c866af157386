//! A12 — simulator scale: BGP table size vs convergence and
//! soft-reconfiguration time on the 12-router two-exit network.
//!
//! Table sizes come from the command line (default 512 → 65 536).

use cpvr_bench::sim_scaling;

fn main() {
    let mut sizes: Vec<usize> = std::env::args()
        .skip(1)
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
