//! Tier-1 smoke over the networked half of the system, which no other
//! root-level test runs: real loopback sockets into the collector's
//! one ingest engine — one fold shard, several, and a three-member
//! federation — each held to the in-process `IngestPipeline` fold of
//! the same trace, plus WAL restart and the lease-eviction black box.
//! The exhaustive versions live in `crates/collector/tests` and
//! `crates/federation/tests`; this keeps `cargo test` honest about them.

// The collector suites' trace, reference fold and comparison.
#[path = "../crates/collector/tests/common/mod.rs"]
mod common;

use common::{assert_same_fold, events_for, reference_pipeline, sample_events, N_ROUTERS};
use cpvr_collector::collector::{Collector, CollectorConfig, LeaseConfig};
use cpvr_collector::wal::{wait_for, TempDir, WalConfig};
use cpvr_collector::{CollectorStats, FoldReport, SocketSink};
use cpvr_core::FederationPlan;
use cpvr_federation::Federation;
use cpvr_sim::IoEvent;
use cpvr_types::{RouterId, SimTime};
use std::net::SocketAddr;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);
const END: [SimTime; 1] = [SimTime::MAX];

/// Streams each of `routers`' slice of `events` to the collector
/// `addr_of` names for it, says goodbye, and waits until `stats` shows
/// every collector at the final watermark.
fn stream(
    events: &[IoEvent],
    routers: impl Iterator<Item = u32>,
    addr_of: impl Fn(RouterId) -> SocketAddr,
    stats: impl Fn() -> Vec<CollectorStats>,
) {
    for r in routers.map(RouterId) {
        let mut sink = SocketSink::connect(addr_of(r), r, N_ROUTERS).expect("connect");
        for e in events_for(events, r) {
            sink.send(&e).expect("send");
        }
        sink.bye().expect("bye");
        assert!(
            sink.drain(WAIT).expect("drain"),
            "router {r:?} left unacked"
        );
    }
    assert!(
        wait_for(WAIT, || stats()
            .iter()
            .all(|s| s.watermark == Some(SimTime::MAX))),
        "never reached the final watermark: {:?}",
        stats()
    );
}

fn run_single(events: &[IoEvent], cfg: CollectorConfig) -> FoldReport {
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    stream(events, 0..N_ROUTERS, |_| addr, || vec![handle.stats()]);
    handle.shutdown().expect("clean shutdown").pipeline
}

#[test]
fn every_shard_count_matches_the_in_process_fold() {
    let events = sample_events(7);
    let reference = reference_pipeline(&events, &END);
    for shards in [1, 4] {
        let dir = TempDir::new("smoke-shards").unwrap();
        let cfg = CollectorConfig::new(N_ROUTERS)
            .with_wal(WalConfig::new(dir.path()))
            .with_shards(shards);
        let got = run_single(&events, cfg);
        assert_eq!(got.shards(), shards);
        assert_same_fold(&got, &reference, &format!("shards={shards}"));
    }
}

#[test]
fn a_restart_recovers_the_journaled_fold() {
    let events = sample_events(7);
    let reference = reference_pipeline(&events, &END);
    let dir = TempDir::new("smoke-restart").unwrap();
    let cfg = || CollectorConfig::new(N_ROUTERS).with_wal(WalConfig::new(dir.path()));
    assert_same_fold(&run_single(&events, cfg()), &reference, "live");

    let handle = Collector::start(cfg(), "127.0.0.1:0").expect("restart");
    let recovery = handle.recovery().clone();
    assert_eq!(recovery.events_replayed, events.len());
    assert_eq!(recovery.watermark, Some(SimTime::MAX));
    let recovered = handle.shutdown().expect("clean shutdown").pipeline;
    assert_same_fold(&recovered, &reference, "recovered");
}

#[test]
fn a_three_member_federation_matches_the_in_process_fold() {
    let events = sample_events(7);
    let dir = TempDir::new("smoke-fed").unwrap();
    let fed = Federation::launch(FederationPlan::uniform(3), N_ROUTERS, dir.path()).unwrap();
    stream(
        &events,
        0..N_ROUTERS,
        |r| fed.addr_of_router(r),
        || fed.handles().map(|h| h.stats()).collect(),
    );
    let report = fed.shutdown().expect("members agree");
    assert_eq!(report.global.shards(), 3);
    assert_same_fold(
        &report.global,
        &reference_pipeline(&events, &END),
        "federation",
    );
}

#[test]
fn an_eviction_at_two_shards_freezes_one_dump() {
    let events = sample_events(7);
    let dir = TempDir::new("smoke-evict").unwrap();
    let cfg = CollectorConfig::new(N_ROUTERS)
        .with_shards(2)
        .with_wal(WalConfig::new(dir.path()))
        .with_lease(LeaseConfig {
            lagging_after: Duration::from_millis(50),
            evict_after: Duration::from_millis(400),
            stall_after: Duration::MAX,
        });
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    // Router 0 never shows up: its missing promise gates the fold until
    // the lease evicts it, and only then can the others' byes land.
    stream(&events, 1..N_ROUTERS, |_| addr, || vec![handle.stats()]);
    let report = handle.shutdown().expect("clean shutdown");
    assert_eq!(report.stats.evictions, 1);
    let dumps = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with("flight-eviction-")
        })
        .count();
    assert_eq!(dumps, 1, "exactly one flight dump per eviction");
}

#[test]
fn federation_members_at_two_shards_match_the_in_process_fold() {
    use cpvr_collector::FederationConfig;
    use std::net::TcpListener;
    let events = sample_events(7);
    let dir = TempDir::new("smoke-fed-shards").unwrap();
    let listeners: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let cfgs = (0..3)
        .map(|i| {
            CollectorConfig::new(N_ROUTERS)
                .with_shards(2)
                .with_wal(WalConfig::new(dir.path().join(format!("member-{i}"))))
                .with_federation(FederationConfig {
                    plan: FederationPlan::uniform(3),
                    member: i,
                    peers: peers.clone(),
                })
        })
        .collect();
    let fed = Federation::launch_on(cfgs, listeners).unwrap();
    stream(
        &events,
        0..N_ROUTERS,
        |r| fed.addr_of_router(r),
        || fed.handles().map(|h| h.stats()).collect(),
    );
    let report = fed.shutdown().expect("members agree");
    assert_eq!(report.global.shards(), 6);
    assert_same_fold(
        &report.global,
        &reference_pipeline(&events, &END),
        "federation, shards=2",
    );
}
