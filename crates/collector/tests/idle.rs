//! An idle collector sleeps: its acceptor and readers block on their
//! sockets instead of waking on a clock to poll a stop flag. With three
//! connected but silent sources, the whole process may switch context
//! only a few times a second. The session loop has no sweep cadence
//! either: it sleeps until its next deadline, which with live, silent
//! sources is the first lease running out (15 s at the default leases,
//! well past this test's 3 s window).
//!
//! One test in its own binary, so no other test's threads share the
//! process whose context switches are counted.

#![cfg(target_os = "linux")]

use cpvr_collector::client::SocketSink;
use cpvr_collector::collector::{Collector, CollectorConfig};
use cpvr_collector::wal::{TempDir, WalConfig};
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
fn an_idle_collector_does_not_wake_to_poll() {
    const SOURCES: u32 = 3;
    let dir = TempDir::new("idle").unwrap();
    let cfg = CollectorConfig::new(SOURCES).with_wal(WalConfig::new(dir.path()));
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind");
    let sinks: Vec<SocketSink> = (0..SOURCES)
        .map(|r| SocketSink::connect(handle.local_addr(), RouterId(r), SOURCES).expect("connect"))
        .collect();
    // Let the handshakes land before counting.
    std::thread::sleep(Duration::from_millis(200));

    let before = context_switches();
    std::thread::sleep(Duration::from_secs(3));
    let switches = context_switches() - before;
    eprintln!("{switches} context switches in 3 s with {SOURCES} silent sources");
    assert!(
        switches <= 30,
        "an idle collector switched context {switches} times in 3 s (at most 30)"
    );

    drop(sinks);
    handle.shutdown().expect("clean shutdown");
}
