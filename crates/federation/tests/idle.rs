//! An idle federation sleeps: with every source connected but silent,
//! the members' peer links block — their reply readers in `read`, their
//! own threads on a condvar — and each member's session loop sleeps
//! until its next deadline, the first lease running out (15 s at the
//! default leases, past this test's 3 s window). Nothing ticks to pump
//! the links.
//!
//! One test in its own binary, so no other test's threads share the
//! process whose context switches are counted.

#![cfg(target_os = "linux")]

use cpvr_collector::wal::TempDir;
use cpvr_collector::SocketSink;
use cpvr_core::FederationPlan;
use cpvr_federation::Federation;
use cpvr_types::RouterId;
use std::time::Duration;

/// Voluntary plus involuntary context switches, summed over every live
/// thread of this process.
fn context_switches() -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let Ok(status) = std::fs::read_to_string(task.unwrap().path().join("status")) else {
            continue; // the thread exited under us
        };
        for line in status.lines() {
            if let Some(n) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += n.trim().parse::<u64>().unwrap();
            }
        }
    }
    total
}

#[test]
fn an_idle_federation_does_not_tick() {
    const SOURCES: u32 = 6;
    let tmp = TempDir::new("fed-idle").unwrap();
    let fed = Federation::launch(FederationPlan::uniform(3), SOURCES, tmp.path()).expect("launch");
    let sinks: Vec<SocketSink> = (0..SOURCES)
        .map(|r| {
            let r = RouterId(r);
            SocketSink::connect(fed.addr_of_router(r), r, SOURCES).expect("connect")
        })
        .collect();
    // Let the handshakes and the peer links land before counting.
    std::thread::sleep(Duration::from_millis(500));

    let before = context_switches();
    std::thread::sleep(Duration::from_secs(3));
    let switches = context_switches() - before;
    eprintln!("{switches} context switches in 3 s: 3 members, {SOURCES} silent sources");
    assert!(
        switches <= 60,
        "an idle federation switched context {switches} times in 3 s (at most 60)"
    );

    drop(sinks);
    fed.shutdown().expect("clean shutdown");
}
