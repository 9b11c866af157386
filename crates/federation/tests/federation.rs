//! The federation's oracle: N peer-connected collectors must reproduce
//! a single merged collector bit-for-bit on the same trace — snapshot
//! verdict, wait accounting, HBG edge multiset, and assembled data
//! plane — live, after one member crash-recovers from its WAL, and
//! across a collector↔collector partition/heal cycle.
//!
//! The streaming schedule is *phased* (everything sent and drained
//! before the watermark grid steps in lockstep across all sources, each
//! step fully folded federation-wide before the next), pinning down the
//! exact barrier sequence so order-sensitive observables — the §4.3
//! wait counters above all — are bit-comparable.

use cpvr_collector::collector::{Collector, CollectorConfig, CollectorReport};
use cpvr_collector::fault::{ChaosProxy, FaultPlan};
use cpvr_collector::wal::{wait_for, TempDir, WalConfig};
use cpvr_collector::{CollectorRole, FederationConfig, SocketSink};
use cpvr_core::FederationPlan;
use cpvr_dataplane::{DataPlane, FibEntry};
use cpvr_federation::{Federation, FederationReport};
use cpvr_sim::scenario::paper_scenario;
use cpvr_sim::{CaptureProfile, IoEvent, LatencyProfile};
use cpvr_types::{Ipv4Prefix, RouterId, SimTime};
use std::net::TcpListener;
use std::time::Duration;

const N_ROUTERS: u32 = 3;
const MEMBERS: u32 = 3;
const STEP: SimTime = SimTime::from_millis(2);

type DpFingerprint = Vec<(u32, Vec<(Ipv4Prefix, FibEntry)>, SimTime)>;

fn dataplane_fingerprint(dp: &DataPlane) -> DpFingerprint {
    (0..dp.num_routers() as u32)
        .map(|r| {
            let r = RouterId(r);
            (r.0, dp.fib(r).entries(), dp.taken_at(r))
        })
        .collect()
}

/// Syslog-skewed capture so intermediate horizons cut conversations
/// open and the tracker issues real WaitFor verdicts — without them the
/// wait-accounting comparison would be vacuous.
fn sample_events(seed: u64) -> Vec<IoEvent> {
    let mut s = paper_scenario(LatencyProfile::fast(), CaptureProfile::syslog(), seed);
    s.sim.start();
    s.sim.run_to_quiescence(100_000);
    s.sim
        .schedule_ext_announce(s.sim.now() + SimTime::from_millis(5), s.ext_r1, &[s.prefix]);
    s.sim.schedule_ext_announce(
        s.sim.now() + SimTime::from_millis(400),
        s.ext_r2,
        &[s.prefix],
    );
    s.sim.run_to_quiescence(100_000);
    s.sim.trace().events.clone()
}

fn events_for(events: &[IoEvent], router: RouterId) -> Vec<IoEvent> {
    let mut mine: Vec<IoEvent> = events
        .iter()
        .filter(|e| e.router == router)
        .cloned()
        .collect();
    mine.sort_by_key(|e| (e.time, e.id));
    mine
}

/// The lockstep horizon grid: every capture *arrival* must fall under
/// some step (WaitFor verdicts live in arrival-time windows).
fn grid(events: &[IoEvent]) -> Vec<SimTime> {
    let end = events
        .iter()
        .map(|e| e.arrived_at.unwrap_or(e.time))
        .max()
        .unwrap();
    let mut steps = Vec::new();
    let mut t = SimTime::ZERO;
    while t < end + STEP {
        t += STEP;
        steps.push(t);
    }
    steps
}

/// The single-collector oracle, streamed under the same phased schedule.
fn run_phased_single(events: &[IoEvent]) -> CollectorReport {
    let cfg = CollectorConfig::new(N_ROUTERS);
    let handle = Collector::start(cfg, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    let mut sinks: Vec<SocketSink> = (0..N_ROUTERS)
        .map(|r| SocketSink::connect(addr, RouterId(r), N_ROUTERS).expect("connect"))
        .collect();
    for sink in &mut sinks {
        for e in events_for(events, sink.source()) {
            sink.send(&e).expect("send");
        }
        assert!(sink.drain(Duration::from_secs(30)).expect("drain"));
    }
    for t in grid(events) {
        for sink in &mut sinks {
            sink.watermark(t).expect("watermark");
        }
        assert!(
            wait_for(Duration::from_secs(30), || {
                handle.stats().watermark == Some(t)
            }),
            "single: watermark never reached {t:?}: {:?}",
            handle.stats()
        );
    }
    for sink in &mut sinks {
        sink.bye().expect("bye");
    }
    assert!(wait_for(Duration::from_secs(30), || {
        handle.stats().watermark == Some(SimTime::MAX)
    }));
    drop(sinks);
    handle.shutdown().expect("clean shutdown")
}

fn connect_sinks(fed: &Federation) -> Vec<SocketSink> {
    (0..N_ROUTERS)
        .map(|r| {
            let r = RouterId(r);
            SocketSink::connect(fed.addr_of_router(r), r, N_ROUTERS).expect("connect")
        })
        .collect()
}

fn send_all(sinks: &mut [SocketSink], events: &[IoEvent]) {
    for sink in sinks.iter_mut() {
        for e in events_for(events, sink.source()) {
            sink.send(&e).expect("send");
        }
        assert!(
            sink.drain(Duration::from_secs(30)).expect("drain"),
            "router {} left events unacked",
            sink.source().0
        );
    }
}

/// One lockstep grid step: promise `t` everywhere, then wait until the
/// *global* verdict for `t` landed on every member.
fn step_all(fed: &Federation, sinks: &mut [SocketSink], t: SimTime) {
    for sink in sinks.iter_mut() {
        sink.watermark(t).expect("watermark");
    }
    for m in 0..fed.members() {
        assert!(
            wait_for(Duration::from_secs(30), || {
                fed.handle(m).stats().watermark == Some(t)
            }),
            "member {m}: watermark never reached {t:?}: {:?}",
            fed.handle(m).stats()
        );
    }
}

fn finish(fed: &Federation, sinks: Vec<SocketSink>) {
    let mut sinks = sinks;
    for sink in &mut sinks {
        sink.bye().expect("bye");
    }
    for m in 0..fed.members() {
        assert!(
            wait_for(Duration::from_secs(30), || {
                fed.handle(m).stats().watermark == Some(SimTime::MAX)
            }),
            "member {m}: byes never pushed the watermark to MAX: {:?}",
            fed.handle(m).stats()
        );
    }
    drop(sinks);
}

/// Every observable the paper's verifier exposes must match the single
/// collector: verdict, wait stats, HBG multiset, fold counters, data
/// plane, watermark.
fn assert_equivalent(fed: &FederationReport, single: &CollectorReport, label: &str) {
    let got = &fed.global;
    let base = &single.pipeline;
    assert_eq!(got.events(), base.events(), "{label}: event count");
    assert_eq!(got.processed(), base.processed(), "{label}: folded events");
    assert_eq!(got.pending(), 0, "{label}: pending events");
    assert_eq!(
        got.canonical_edges(),
        base.canonical_edges(),
        "{label}: HBG must be bit-identical"
    );
    assert_eq!(
        got.edge_counts(),
        base.edge_counts(),
        "{label}: per-rule edge counts"
    );
    assert_eq!(got.status(), base.status(), "{label}: snapshot verdict");
    assert_eq!(
        got.wait_stats(),
        base.wait_stats(),
        "{label}: wait accounting"
    );
    assert_eq!(got.watermark(), base.watermark(), "{label}: watermark");
    assert_eq!(
        dataplane_fingerprint(got.dataplane()),
        dataplane_fingerprint(base.dataplane()),
        "{label}: assembled data plane"
    );
    for (m, member) in fed.members.iter().enumerate() {
        match &member.role {
            CollectorRole::Member {
                member,
                members,
                peers,
            } => {
                assert_eq!(*member, m as u32);
                assert_eq!(*members, MEMBERS);
                assert_eq!(peers.len() as u32, MEMBERS - 1, "{label}: peer summaries");
                for p in peers {
                    assert_eq!(p.min, Some(SimTime::MAX), "{label}: final peer frontier");
                }
            }
            CollectorRole::Standalone => panic!("{label}: member {m} reported standalone"),
        }
    }
}

#[test]
fn federated_fold_matches_single_collector() {
    let events = sample_events(17);
    assert!(events.len() > 100, "scenario should produce a real trace");
    let single = run_phased_single(&events);
    assert!(
        single.pipeline.wait_stats().0 > 0,
        "the stepped schedule should issue real WaitFor verdicts"
    );

    let tmp = TempDir::new("fed-equiv").unwrap();
    let fed = Federation::launch(FederationPlan::uniform(MEMBERS), N_ROUTERS, tmp.path()).unwrap();
    let mut sinks = connect_sinks(&fed);
    send_all(&mut sinks, &events);
    for t in grid(&events) {
        step_all(&fed, &mut sinks, t);
    }
    finish(&fed, sinks);
    let report = fed.shutdown().expect("merge");
    assert_eq!(report.global.shards(), 3, "one fold shard per member");
    assert_equivalent(&report, &single, "live");
}

#[test]
fn member_crash_recovery_preserves_equivalence() {
    let events = sample_events(17);
    let single = run_phased_single(&events);

    let tmp = TempDir::new("fed-crash").unwrap();
    let mut fed =
        Federation::launch(FederationPlan::uniform(MEMBERS), N_ROUTERS, tmp.path()).unwrap();
    let mut sinks = connect_sinks(&fed);
    send_all(&mut sinks, &events);
    let steps = grid(&events);
    let (first, rest) = steps.split_at(steps.len() / 2);
    for &t in first {
        step_all(&fed, &mut sinks, t);
    }

    // Kill member 0 at a quiescent grid boundary and bring a fresh
    // process instance up over the same journal and listen address. Its
    // routers' sinks ride their reconnect policy; its peers deduplicate
    // the regenerated peer stream under the new session.
    fed.stop_member(0).expect("stop member 0");
    fed.restart_member(0).expect("restart member 0");
    let recovered = fed
        .handle(0)
        .recovery()
        .expect("wal configured => recovery report")
        .clone();
    assert!(recovered.events_replayed > 0, "member 0 replayed its fold");
    assert!(!recovered.torn_tail);
    assert_eq!(recovered.watermark, Some(first[first.len() - 1]));

    for &t in rest {
        step_all(&fed, &mut sinks, t);
    }
    finish(&fed, sinks);
    let report = fed.shutdown().expect("merge");
    assert_equivalent(&report, &single, "post-recovery");
}

/// Severs every collector↔collector link touching member 0 (router
/// links stay up), holds the partition long enough to prove the fold
/// stalls rather than diverges, heals, and requires the go-back-N
/// replay to converge to the single collector bit-for-bit.
///
/// Ignored unless `CHAOS_PARTITION` is set — this is the CI chaos arm.
#[test]
fn partition_heal_converges_bit_identical() {
    if std::env::var("CHAOS_PARTITION").is_err() {
        eprintln!("skipping: set CHAOS_PARTITION=1 to run the partition/heal cycle");
        return;
    }
    let events = sample_events(17);
    let single = run_phased_single(&events);

    // Real listeners first, then one chaos proxy per *ordered* member
    // pair: member i dials proxies[i][j], which forwards to member j.
    let tmp = TempDir::new("fed-partition").unwrap();
    let listeners: Vec<TcpListener> = (0..MEMBERS)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let real: Vec<std::net::SocketAddr> =
        listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let plan = FederationPlan::uniform(MEMBERS);
    let mut proxies: Vec<Vec<Option<ChaosProxy>>> = Vec::new();
    for i in 0..MEMBERS as usize {
        let mut row = Vec::new();
        for (j, &to) in real.iter().enumerate() {
            row.push(if i == j {
                None
            } else {
                Some(ChaosProxy::start(to, FaultPlan::none()).unwrap())
            });
        }
        proxies.push(row);
    }
    let cfgs: Vec<CollectorConfig> = (0..MEMBERS)
        .map(|i| {
            let dir = tmp.path().join(format!("member-{i}"));
            std::fs::create_dir_all(&dir).unwrap();
            let peers = (0..MEMBERS as usize)
                .map(|j| {
                    proxies[i as usize][j]
                        .as_ref()
                        .map_or(real[i as usize], |p| p.local_addr())
                })
                .collect();
            CollectorConfig::new(N_ROUTERS)
                .with_wal(WalConfig::new(&dir))
                .with_federation(FederationConfig {
                    plan: plan.clone(),
                    member: i,
                    peers,
                })
        })
        .collect();
    let fed = Federation::launch_on(cfgs, listeners).unwrap();
    let mut sinks = connect_sinks(&fed);
    send_all(&mut sinks, &events);

    let steps = grid(&events);
    let (first, rest) = steps.split_at(steps.len() / 2);
    for &t in first {
        step_all(&fed, &mut sinks, t);
    }
    let held = first[first.len() - 1];

    // Partition: both directions of every link touching member 0.
    for (j, row) in proxies.iter().enumerate().skip(1) {
        proxies[0][j].as_ref().unwrap().partition();
        row[0].as_ref().unwrap().partition();
    }
    // Clients keep promising into the partition; the federated minimum
    // cannot move without member 0's frontier, so every member must
    // hold the last completed horizon instead of folding ahead.
    let during: Vec<SimTime> = rest[..rest.len().min(3)].to_vec();
    for &t in &during {
        for sink in sinks.iter_mut() {
            sink.watermark(t).expect("watermark");
        }
    }
    std::thread::sleep(Duration::from_millis(500));
    for m in 0..MEMBERS {
        assert_eq!(
            fed.handle(m).stats().watermark,
            Some(held),
            "member {m} folded ahead during the partition"
        );
    }

    // Heal: links reconnect with capped backoff and the go-back-N
    // buffers replay every frontier, boundary batch, and partial in
    // order — the queued grid values fold serially to convergence.
    for (j, row) in proxies.iter().enumerate().skip(1) {
        proxies[0][j].as_ref().unwrap().heal();
        row[0].as_ref().unwrap().heal();
    }
    if let Some(&t) = during.last() {
        for m in 0..fed.members() {
            assert!(
                wait_for(Duration::from_secs(30), || {
                    fed.handle(m).stats().watermark == Some(t)
                }),
                "member {m}: never converged to {t:?} after heal: {:?}",
                fed.handle(m).stats()
            );
        }
    }
    for &t in &rest[during.len()..] {
        step_all(&fed, &mut sinks, t);
    }
    finish(&fed, sinks);
    let report = fed.shutdown().expect("merge");
    assert_equivalent(&report, &single, "post-heal");
}
