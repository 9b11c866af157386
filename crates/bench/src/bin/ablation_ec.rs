//! A1 — equivalence-class scaling: prefixes vs discovered classes
//! (paper §6: 100K prefixes often collapse to <15 classes).

use cpvr_bench::ec_scaling;

fn main() {
    println!("=== A1: equivalence classes vs prefix count ===");
    println!(
        "{:>9} {:>15} {:>17} {:>15}",
        "prefixes", "policy classes", "behavior classes", "forwarding ECs"
    );
    for n in [10usize, 100, 1_000, 10_000, 100_000] {
        let r = ec_scaling(n, 8, 9);
        println!(
            "{:>9} {:>15} {:>17} {:>15}",
            r.prefixes, r.policy_classes, r.behavior_classes, r.forwarding_ecs
        );
    }
    println!("(behavior classes stay bounded while prefixes grow — the §6 observation)");
}
