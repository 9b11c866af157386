//! `cpvr-ledger`: the control-loop ledger.
//!
//! One process runs one workload through the same phases — setup,
//! warm-up (discarded), bulk (closed loop) with a recovery per session,
//! paced (open loop), repair — and prints every metric by name with its
//! unit, checking the system's outputs against an in-process reference
//! on the way. `--trace 1` runs the traced pass instead and prints the
//! per-layer metrics. See `benchmark/README.md` for what each number
//! means and `BENCHMARK.json` for the contract.

mod calibrate;
mod check;
mod deploy;
mod layers;
mod loadgen;
mod metrics;
mod repair;
mod stats;
mod sys;
mod trace;
mod workload;

use check::{Fingerprint, Reference};
use cpvr_collector::{IngestPipeline, PipelineConfig};
use cpvr_types::SimTime;
use deploy::{Finished, Live};
use loadgen::{BulkRun, PacedRun, Timetable};
use metrics::Metrics;
use repair::{RepairBench, StageTimes};
use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Deployment, Input, Spec, ROUTERS};

/// Horizons of the bulk grid. Few, because `SocketSink::watermark` parks
/// the sender in its ack poll for milliseconds per call; enough that the
/// BGP traces still get cut mid-conversation.
const BULK_HORIZONS: usize = 4;
/// Spacing of the paced timetable's horizons: two of the client's ack
/// polls, so an exporter is back from one `watermark` call well before
/// its next export is due.
const PACED_INTERVAL: Duration = Duration::from_millis(16);
/// Horizons of one paced session. The first few are start-up (cold
/// connections, first allocations) and are not sampled.
const PACED_HORIZONS: usize = 80;
const PACED_SKIP: usize = 10;
/// Set-up is repeated so that `setup_s` is a median and not one sample:
/// at least twice, and again while the set-ups so far have used less
/// than this share of the window (a one-second set-up is at the mercy of
/// a single slow second; a three-second one is not).
const MIN_SETUPS: usize = 2;
const SETUP_SHARE: f64 = 0.08;
/// Fewest incidents a repair chunk runs however little of its round is
/// left.
const MIN_INCIDENTS: usize = 4;
/// A latency reported for a horizon whose verdict never came: longer
/// than any limit anyone would set.
const MISSED_MS: f64 = 60_000.0;
/// The window length `Spec::rounds` is sized for.
const NOMINAL_SECONDS: f64 = 30.0;

/// The measured window. It starts with the process: set-up and warm-up
/// come out of it, and the rounds share the rest equally.
struct Window {
    start: Instant,
    seconds: f64,
    /// `--quick`: one sample of everything, a short timetable.
    quick: bool,
}

impl Window {
    /// `full` samples, or one under `--quick`.
    fn samples(&self, full: usize) -> usize {
        if self.quick {
            1
        } else {
            full
        }
    }

    /// Rounds of this run: the workload's count, scaled if the window is
    /// not the nominal one. Fixed before the run, so two runs take the
    /// same number of samples whatever the machine is doing.
    fn rounds(&self, spec: &Spec) -> usize {
        let scaled = (spec.rounds as f64 * self.seconds / NOMINAL_SECONDS).round() as usize;
        self.samples(scaled.max(3))
    }

    fn paced_horizons(&self) -> usize {
        if self.quick {
            2 * PACED_SKIP
        } else {
            PACED_HORIZONS
        }
    }

    fn end(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.seconds)
    }
}

/// Everything set-up produces.
struct Prepared {
    input: Input,
    reference: Reference,
    bulk_grid: Vec<SimTime>,
    table: Timetable,
}

struct SetupTimes {
    trace_gen: Duration,
    reference_fold: Duration,
    total: Duration,
}

/// Topology, simulated trace, horizon grids and the reference fold.
fn setup(spec: &Spec, seed: u64, window: &Window) -> (Prepared, SetupTimes) {
    let t0 = Instant::now();
    let input = workload::generate(spec, seed);
    let trace_gen = t0.elapsed();
    let bulk_grid = input.grid(BULK_HORIZONS);
    let table = Timetable::new(
        &input,
        spec.paced_rate,
        PACED_INTERVAL,
        window.paced_horizons(),
    );
    let t1 = Instant::now();
    let reference = check::reference_fold(&input, &bulk_grid, &table.grid, table.events);
    let reference_fold = t1.elapsed();
    let times = SetupTimes {
        trace_gen,
        reference_fold,
        total: t0.elapsed(),
    };
    (
        Prepared {
            input,
            reference,
            bulk_grid,
            table,
        },
        times,
    )
}

/// Counts operations against the number attempted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED: {}", what());
        }
    }

    fn fingerprint(&mut self, what: &str, got: &Fingerprint, want: &Fingerprint) {
        self.check(got == want, || {
            format!("{what}: fold differs from the reference\n  got  {got:?}\n  want {want:?}")
        });
    }
}

/// One bulk session with its recovery, both checked.
struct Session {
    run: BulkRun,
    recovery: Duration,
    /// `wal::replay_all` alone (single collectors, traced pass only).
    wal_replay: Duration,
    wal_segments: usize,
    wal_bytes: u64,
    finished: Finished,
    start_time: Duration,
}

fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => total += dir_bytes(&e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

/// Streams the whole trace closed-loop into a fresh deployment, recovers
/// from the journal it wrote, and holds both against the reference.
fn session(
    spec: &Spec,
    prep: &Prepared,
    tally: &mut Tally,
    tracer: Option<&trace::Tracer>,
) -> io::Result<Session> {
    let mut live = Live::start(spec)?;
    let start_time = live.start_time;
    let run = loadgen::bulk(&live, &prep.input, &prep.bulk_grid, sys::nproc(), tracer)?;
    let mut recovery = Duration::ZERO;
    let mut streamed = None;
    if matches!(spec.deployment, Deployment::Federation { .. }) {
        // A member's recovery regenerates peer traffic, so it is timed
        // inside the live federation: one member crashes and comes back.
        streamed = Some(live.observe());
        recovery = live.restart_member(SimTime::MAX)?;
    }
    let mut finished = live.shutdown()?;
    if let Some((stats, metrics)) = streamed {
        (finished.stats, finished.metrics) = (stats, metrics);
    }
    tally.fingerprint("bulk session", &finished.fingerprint, &prep.reference.bulk);
    let (mut wal_replay, mut wal_segments) = (Duration::ZERO, 0);
    if let Deployment::Single { shards } = spec.deployment {
        let threads = shards as usize;
        if tracer.is_some() {
            let t0 = Instant::now();
            let replayed = cpvr_collector::wal::replay_all(finished.wal.path(), threads)?;
            wal_replay = t0.elapsed();
            wal_segments = replayed.iter().map(|(_, r)| r.segments).sum();
        }
        let t0 = Instant::now();
        let (pipeline, _, events) = IngestPipeline::recover_parts(
            PipelineConfig::new(ROUTERS),
            finished.wal.path(),
            threads,
        )?;
        recovery = t0.elapsed();
        drop(events);
        // Recovery advances once to the journaled watermark, so its wait
        // transitions are not the live run's; everything else must be.
        tally.fingerprint(
            "recovered pipeline",
            &check::of_pipeline(&pipeline).without_waits(),
            &finished.fingerprint.without_waits(),
        );
    } else {
        // The merged fold checked above was taken after the member had
        // recovered.
        tally.attempted += 1;
    }
    Ok(Session {
        run,
        recovery,
        wal_replay,
        wal_segments,
        wal_bytes: dir_bytes(finished.wal.path()),
        finished,
        start_time,
    })
}

/// The sampled horizons' latencies (start-up horizons dropped), a missed
/// horizon counting as [`MISSED_MS`].
fn latency_values(run: &PacedRun) -> Vec<f64> {
    run.latency_ms
        .iter()
        .skip(PACED_SKIP)
        .map(|l| l.unwrap_or(MISSED_MS))
        .collect()
}

/// Median of the last quarter of `values` minus median of the first.
fn quartile_drift(values: &[f64]) -> f64 {
    let q = (values.len() / 4).max(1);
    stats::median(&values[values.len() - q..]) - stats::median(&values[..q])
}

/// One paced session on a fresh deployment, which stays up for the
/// repair chunk that follows.
fn paced_session(spec: &Spec, prep: &Prepared, tally: &mut Tally) -> io::Result<(Live, PacedRun)> {
    let live = Live::start(spec)?;
    let run = loadgen::paced(&live, &prep.input, &prep.table)?;
    for l in run.latency_ms.iter().skip(PACED_SKIP) {
        tally.check(l.is_some(), || "a horizon's verdict never came".into());
    }
    let lat = latency_values(&run);
    println!(
        "  paced: {:.0} ev/s exported every {} ms, {} horizons ({} missed); verdict latency ms \
         p50 {:.3} p90 {:.3} max {:.3}, first-to-last-quartile drift {:+.3}; \
         generator lag ms p50 {:.3} p90 {:.3} max {:.3}",
        spec.paced_rate,
        PACED_INTERVAL.as_millis(),
        lat.len(),
        run.latency_ms.iter().filter(|l| l.is_none()).count(),
        stats::percentile(&lat, 0.5),
        stats::percentile(&lat, 0.9),
        stats::percentile(&lat, 1.0),
        quartile_drift(&lat),
        stats::percentile(&run.gen_lag_ms, 0.5),
        stats::percentile(&run.gen_lag_ms, 0.9),
        stats::percentile(&run.gen_lag_ms, 1.0),
    );
    Ok((live, run))
}

/// Runs incidents on `live` until `deadline` (and `at_least` that many);
/// returns the stage times of the good ones.
fn repair_chunk(
    bench: &mut RepairBench,
    prep: &mut Prepared,
    live: &Live,
    deadline: Instant,
    at_least: usize,
    tally: &mut Tally,
    tracer: Option<&trace::Tracer>,
) -> io::Result<Vec<StageTimes>> {
    let mut times = Vec::new();
    let mut failures = 0;
    while (Instant::now() < deadline || times.len() < at_least) && failures < 20 {
        match bench.incident(&mut prep.input.trace, live, tracer)? {
            Ok(t) => {
                tally.attempted += 1;
                times.push(t);
            }
            Err(why) => {
                failures += 1;
                tally.check(false, || why);
            }
        }
    }
    Ok(times)
}

/// Shuts the paced session's deployment down and checks its fold and the
/// ledger of the `incidents` journaled through it.
fn finish_paced(live: Live, prep: &Prepared, incidents: u64, tally: &mut Tally) -> io::Result<()> {
    let finished = live.shutdown()?;
    tally.fingerprint(
        "paced session",
        &finished.fingerprint,
        &prep.reference.paced,
    );
    let ledger = &finished.repairs;
    tally.check(
        ledger.len() as u64 == incidents && ledger.in_flight().is_empty(),
        || {
            format!(
                "repair ledger holds {} repairs ({} undecided) after {incidents} incidents",
                ledger.len(),
                ledger.in_flight().len()
            )
        },
    );
    Ok(())
}

/// The untraced pass: every end-to-end metric.
///
/// After set-up and a warm-up session the window is spent in *rounds* —
/// bulk session, its recovery, paced session, repair chunk — so every
/// metric is sampled across the whole window and a burst of outside
/// interference lands in one round's samples, not in one metric. The
/// number of rounds is fixed; each gets an equal share of what is left
/// of the window, and its repair chunk runs until that share is used up.
/// A metric's run-level value is the median of its samples; the latency
/// percentiles are taken over the horizons of all rounds pooled.
fn measure(spec: &Spec, seed: u64, window: &Window) -> io::Result<(Metrics, Tally)> {
    let mut tally = Tally::default();

    let mut setups: Vec<f64> = Vec::new();
    let mut prep = None;
    while setups.len() < window.samples(MIN_SETUPS)
        || setups.iter().sum::<f64>() < window.seconds * SETUP_SHARE
    {
        drop(prep.take()); // never hold two inputs at once
        let (p, times) = setup(spec, seed, window);
        println!(
            "setup[{}]: {:.3} s (trace {:.3} s, reference folds {:.3} s), {} events",
            setups.len(),
            times.total.as_secs_f64(),
            times.trace_gen.as_secs_f64(),
            times.reference_fold.as_secs_f64(),
            p.input.events,
        );
        setups.push(times.total.as_secs_f64());
        prep = Some(p);
    }
    let mut prep = prep.expect("at least one setup ran");

    // Warm-up: one full session, discarded.
    let warm = session(spec, &prep, &mut Tally::default(), None)?;
    println!(
        "warm-up: {:.0} ev/s (discarded)",
        warm.run.events as f64 / warm.run.wall.as_secs_f64()
    );
    drop(warm);

    let mut bench = RepairBench::new(spec, &prep.input, &prep.reference, seed)?;
    let (mut ingest, mut cpu, mut recovery) = (Vec::new(), Vec::new(), Vec::new());
    let (mut latency, mut repair_ms) = (Vec::new(), Vec::new());
    let rounds = window.rounds(spec);
    for round in 0..rounds {
        let now = Instant::now();
        let round_end = now + window.end().saturating_duration_since(now) / (rounds - round) as u32;
        let s = session(spec, &prep, &mut tally, None)?;
        let events = s.run.events as f64;
        let events_per_s = events / s.run.wall.as_secs_f64();
        let cpu_us = s.run.cpu.as_secs_f64() * 1e6 / events;
        println!(
            "round {round}: bulk {events_per_s:.0} ev/s, {:.3} s wall, {cpu_us:.3} us cpu/event \
             ({:.3} generator), {} preemptions; recovery {:.3} s over {} events / {:.1} MiB of WAL",
            s.run.wall.as_secs_f64(),
            s.run.gen_cpu.as_secs_f64() * 1e6 / events,
            s.run.preemptions,
            s.recovery.as_secs_f64(),
            s.run.events,
            s.wal_bytes as f64 / f64::from(1 << 20),
        );
        ingest.push(events_per_s);
        cpu.push(cpu_us);
        recovery.push(s.recovery.as_secs_f64());
        drop(s);

        let (live, paced) = paced_session(spec, &prep, &mut tally)?;
        latency.extend(latency_values(&paced));

        let before = bench.incidents();
        let at_least = window.samples(MIN_INCIDENTS);
        let times = repair_chunk(
            &mut bench, &mut prep, &live, round_end, at_least, &mut tally, None,
        )?;
        let ms: Vec<f64> = times.iter().map(|t| t.total.as_secs_f64() * 1e3).collect();
        println!(
            "  repair: {} incidents, {:.3} ms median",
            ms.len(),
            stats::median(&ms)
        );
        repair_ms.extend(ms);
        finish_paced(live, &prep, bench.incidents() - before, &mut tally)?;
        println!(
            "  round took {:.3} s; peak RSS so far {:.1} MiB",
            now.elapsed().as_secs_f64(),
            sys::peak_rss_mb()
        );
    }
    let p90 = stats::percentile(&latency, 0.9);
    println!(
        "samples: {} setups; {rounds} rounds of 1 bulk session + 1 recovery; {} horizons pooled \
         ({} beyond p90); {} incidents (against {} policies)",
        setups.len(),
        latency.len(),
        latency.iter().filter(|&&l| l > p90).count(),
        repair_ms.len(),
        bench.policies,
    );

    let mut m = Metrics::new(&metrics::MEASURED);
    for (name, samples) in [
        ("ingest_events_per_s", &ingest),
        ("ingest_cpu_us_per_event", &cpu),
        ("repair_ms_per_incident", &repair_ms),
        ("recovery_s", &recovery),
        ("setup_s", &setups),
    ] {
        let shown = &samples[..samples.len().min(8)];
        println!(
            "{name}: median of {} samples, the first {shown:.4?}",
            samples.len()
        );
        m.set(name, stats::median(samples));
    }
    m.set("verdict_latency_ms_p50", stats::percentile(&latency, 0.5));
    m.set("verdict_latency_ms_p90", p90);
    m.set("peak_rss_mb", sys::peak_rss_mb());
    Ok((m, tally))
}

/// The traced pass: every per-layer metric, from spans around the calls
/// into each layer plus the counts the deployments report at shutdown.
fn trace_pass(
    spec: &Spec,
    seed: u64,
    window: &Window,
    out_dir: &Path,
) -> io::Result<(Metrics, Tally)> {
    let mut tally = Tally::default();
    let mut m = Metrics::new(&metrics::PER_LAYER);
    let tracer = trace::Tracer::new();
    let (mut prep, times) = setup(spec, seed, window);
    let setup_cpu = sys::process_cpu();
    m.set("sim.trace_gen_s", times.trace_gen.as_secs_f64());
    m.set(
        "collector.pipeline.reference_fold_s",
        times.reference_fold.as_secs_f64(),
    );
    let events = prep.input.events as f64;

    drop(session(spec, &prep, &mut Tally::default(), None)?); // warm-up
    let plain = session(spec, &prep, &mut tally, None)?;
    let traced = session(spec, &prep, &mut tally, Some(&tracer))?;
    let plain_wall = plain.run.wall.as_secs_f64();
    m.set(
        "trace.overhead_pct",
        (traced.run.wall.as_secs_f64() - plain_wall) / plain_wall * 100.0,
    );
    // One-session readings of whichever end-to-end figures calibration
    // moved to the per-layer list.
    m.offer("ingest_events_per_s", events / plain_wall);
    m.offer(
        "ingest_cpu_us_per_event",
        plain.run.cpu.as_secs_f64() * 1e6 / events,
    );
    m.offer("recovery_s", plain.recovery.as_secs_f64());
    drop(plain);

    // Client-side spans of the traced session.
    let rows = trace::self_times(&tracer.finish());
    let row = |name: &str| rows.get(name).cloned().unwrap_or_default();
    let send = row("collector.client.send");
    m.set(
        "collector.client.send_ns_per_event",
        send.total_ns as f64 / events,
    );
    let wm = row("collector.client.watermark");
    m.set(
        "collector.client.watermark_us_per_call",
        wm.total_ns as f64 / 1e3 / wm.calls.max(1) as f64,
    );
    let dr = row("collector.client.drain");
    m.set(
        "collector.client.drain_ms",
        dr.total_ns as f64 / 1e6 / dr.calls.max(1) as f64,
    );

    // Counts and clocks of the traced session.
    let s = &traced;
    let fin = &s.finished;
    let cpu_us = s.run.cpu.as_secs_f64() * 1e6 / events;
    let gen_us = s.run.gen_cpu.as_secs_f64() * 1e6 / events;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let kernel_us = s.run.collector_kernel_cpu.as_secs_f64() * 1e6 / events;
    m.set("loadgen.cpu_us_per_event", gen_us);
    m.set("process.collector_kernel_us_per_event", kernel_us);
    m.set("collector.collector.start_ms", ms(s.start_time));
    m.set("collector.collector.shutdown_ms", ms(fin.shutdown_time));
    m.set(
        "collector.pipeline.dup_gap_late_events",
        fin.stats
            .iter()
            .map(|c| c.duplicate_events + c.gap_events + c.late_events)
            .sum::<u64>() as f64,
    );
    m.set(
        "collector.wal.syncs_per_kevent",
        fin.counter("cpvr_wal_syncs_total") as f64 / events * 1e3,
    );
    m.set(
        "collector.wal.bytes_per_event",
        fin.counter("cpvr_wal_bytes_total") as f64 / events,
    );
    m.set("collector.wal.segments", s.wal_segments as f64);
    m.set(
        "collector.wal.replay_ns_per_event",
        s.wal_replay.as_secs_f64() * 1e9 / events,
    );
    m.set(
        "collector.pipeline.recover_ns_per_event",
        s.recovery.as_secs_f64() * 1e9 / events,
    );
    m.set(
        "collector.shard.barrier_rounds",
        fin.counter("cpvr_barrier_rounds_total") as f64,
    );
    m.set(
        "collector.shard.barrier_stall_ms_p50",
        stats::bucketed_median(&fin.histogram_buckets("cpvr_shard_barrier_stall_nanos")) / 1e6,
    );
    m.set(
        "process.involuntary_ctx_switches_per_kevent",
        s.run.preemptions as f64 / events * 1e3,
    );
    let federated = matches!(spec.deployment, Deployment::Federation { .. });
    m.set(
        "federation.rounds",
        fin.counter("cpvr_federation_rounds_total") as f64,
    );
    m.set(
        "federation.round_ms_p50",
        stats::bucketed_median(&fin.histogram_buckets("cpvr_partial_verdict_nanos")) / 1e6,
    );
    m.set(
        "federation.boundary_events_per_event",
        fin.counter("cpvr_boundary_events_sent_total") as f64 / events,
    );
    m.set(
        "federation.boundary_bytes_per_event",
        fin.counter("cpvr_boundary_bytes_sent_total") as f64 / events,
    );
    let if_fed = |v: f64| if federated { v } else { 0.0 };
    m.set("federation.launch_ms", if_fed(ms(s.start_time)));
    m.set("federation.shutdown_ms", if_fed(ms(fin.shutdown_time)));
    let mut fed_overhead = 0.0;
    if federated {
        // The same bytes through one merger: the difference is what
        // distribution costs in CPU.
        let merger = Spec {
            deployment: Deployment::Single { shards: 1 },
            ..*spec
        };
        let base = session(&merger, &prep, &mut tally, None)?;
        fed_overhead = cpu_us - base.run.cpu.as_secs_f64() * 1e6 / events;
    }
    m.set("federation.cpu_overhead_us_per_event", fed_overhead);
    drop(traced);

    // The layers, in-process, twice. Over the bulk grid, for what the
    // traced session's own work costs per event; its spans are dropped,
    // so the self-time table counts every layer once.
    let coarse = layers::replay(&prep.input, &prep.bulk_grid, &trace::Tracer::new())?;
    // And over a grid as fine as the paced one — as many horizons per
    // event as the timetable has — for what a horizon costs.
    let fine_horizons = prep.input.events * prep.table.grid.len() / prep.table.events.max(1);
    let fine_grid = prep.input.grid(fine_horizons.max(1));
    let fine = layers::replay(&prep.input, &fine_grid, &tracer)?;
    for layer in [&coarse, &fine] {
        tally.check(layer.edges == prep.reference.bulk.edges, || {
            format!(
                "layer replay folded {} edges, the reference {}",
                layer.edges, prep.reference.bulk.edges
            )
        });
    }
    let per_event_ns = |d: Duration| d.as_secs_f64() * 1e9 / events;
    let per_horizon_us = |d: Duration| d.as_secs_f64() * 1e6 / fine.horizons.max(1) as f64;
    m.set(
        "collector.codec.encode_ns_per_event",
        per_event_ns(coarse.encode),
    );
    m.set(
        "collector.codec.decode_ns_per_event",
        per_event_ns(coarse.decode),
    );
    m.set(
        "collector.codec.bytes_per_event",
        coarse.wire_bytes as f64 / events,
    );
    m.set(
        "collector.wal.append_ns_per_event",
        per_event_ns(coarse.wal_append),
    );
    m.set(
        "collector.wal.sync_ms_p50",
        stats::median(&coarse.wal_syncs_ms),
    );
    m.set(
        "core.builder.ingest_ns_per_event",
        per_event_ns(coarse.builder_ingest),
    );
    m.set(
        "core.snapshot.ingest_ns_per_event",
        per_event_ns(coarse.tracker_ingest),
    );
    m.set(
        "core.builder.advance_us_per_horizon",
        per_horizon_us(fine.builder_advance),
    );
    m.set(
        "core.snapshot.advance_us_per_horizon",
        per_horizon_us(fine.tracker_advance),
    );
    m.set("core.builder.edges_per_event", fine.edges as f64 / events);
    m.set("core.snapshot.waits_issued", fine.waits.0 as f64);
    m.set("core.snapshot.waits_resolved", fine.waits.1 as f64);
    m.set(
        "core.snapshot.consistent_horizon_ratio",
        fine.consistent_horizons as f64 / fine.horizons.max(1) as f64,
    );
    // What a socket session burns beyond the generator and the layers'
    // own work over the same grid: threads, channels, sockets, dedup,
    // acks.
    let layers_us = coarse.collector_cpu.as_secs_f64() * 1e6 / events;
    m.set(
        "collector.fold.overhead_us_per_event",
        cpu_us - gen_us - layers_us,
    );
    // The session's CPU that has a name: the generator's, the layers'
    // user time, and the kernel's on the collector's threads (which
    // already holds the layers' journal writes, so those are not counted
    // twice).
    let layers_user_us =
        (coarse.collector_cpu - coarse.collector_kernel_cpu).as_secs_f64() * 1e6 / events;
    m.set(
        "trace.attributed_pct",
        (gen_us + layers_user_us + kernel_us) / cpu_us * 100.0,
    );

    // Paced and repair, traced.
    let (live, paced) = paced_session(spec, &prep, &mut tally)?;
    let lat = latency_values(&paced);
    m.set(
        "paced.gen_lag_ms_p90",
        stats::percentile(&paced.gen_lag_ms, 0.9),
    );
    m.set(
        "paced.horizons_missed",
        paced.latency_ms.iter().filter(|l| l.is_none()).count() as f64,
    );
    m.set("paced.backlog_growth_ms", quartile_drift(&lat));
    m.set(
        "paced.verdict_latency_ms_p99",
        stats::percentile(&lat, 0.99),
    );
    m.offer("verdict_latency_ms_p50", stats::percentile(&lat, 0.5));
    m.offer("verdict_latency_ms_p90", stats::percentile(&lat, 0.9));
    let mut bench = RepairBench::new(spec, &prep.input, &prep.reference, seed)?;
    let measured_cpu0 = setup_cpu;
    let repair_cpu0 = sys::process_cpu();
    let at_least = window.samples(MIN_INCIDENTS);
    let incidents = repair_chunk(
        &mut bench,
        &mut prep,
        &live,
        window.end(),
        at_least,
        &mut tally,
        Some(&tracer),
    )?;
    let repair_cpu = sys::process_cpu() - repair_cpu0;
    finish_paced(live, &prep, bench.incidents(), &mut tally)?;
    let n = incidents.len().max(1) as f64;
    let mean_us = |f: &dyn Fn(&StageTimes) -> Duration| {
        incidents.iter().map(|t| f(t).as_secs_f64()).sum::<f64>() * 1e6 / n
    };
    m.set("verify.incremental.apply_us", mean_us(&|t| t.apply));
    m.set("verify.incremental.report_us", mean_us(&|t| t.report));
    m.set(
        "core.provenance.root_causes_us",
        mean_us(&|t| t.root_causes),
    );
    m.set("core.repair.propose_us", mean_us(&|t| t.propose));
    m.set("core.proof.prove_us", mean_us(&|t| t.prove));
    m.set("verify.replay.gate_us", mean_us(&|t| t.gate));
    let records: u32 = incidents.iter().map(|t| t.journal_records).sum();
    m.set(
        "collector.repair_journal.journal_ms_per_record",
        incidents
            .iter()
            .map(|t| t.journal.as_secs_f64())
            .sum::<f64>()
            * 1e3
            / f64::from(records.max(1)),
    );
    let peer: Vec<f64> = incidents
        .iter()
        .filter_map(|t| t.peer_verify)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    m.set(
        "collector.federation.peer_proof_verify_ms",
        stats::median(&peer),
    );
    // Share of the CPU burnt after set-up that went into the chain.
    m.set(
        "process.repair_cpu_share_pct",
        repair_cpu.as_secs_f64() / (sys::process_cpu() - measured_cpu0).as_secs_f64() * 100.0,
    );
    let total_ms: Vec<f64> = incidents
        .iter()
        .map(|t| t.total.as_secs_f64() * 1e3)
        .collect();
    m.offer("repair_ms_per_incident", stats::median(&total_ms));
    m.offer("peak_rss_mb", sys::peak_rss_mb());
    println!(
        "samples: 1 traced bulk session, {} layer-replay horizons, {} paced horizons, {} incidents",
        fine.horizons,
        paced.latency_ms.len(),
        incidents.len(),
    );

    let spans = tracer.finish();
    let table = trace::render_table(&trace::self_times(&spans));
    println!("{table}");
    let stem = format!("trace-{}-{seed}", spec.name);
    std::fs::write(
        out_dir.join(format!("{stem}.json")),
        trace::render_chrome(&spans),
    )?;
    std::fs::write(out_dir.join(format!("{stem}.txt")), table)?;
    println!(
        "{} spans written to {}/{stem}.json",
        spans.len(),
        out_dir.display()
    );
    Ok((m, tally))
}

/// `--quick`: every workload at a twelfth of its size, both passes, one
/// sample of everything — correctness only.
fn quick(out_dir: &Path) -> io::Result<bool> {
    let mut ok = true;
    for spec in &workload::SPECS {
        let small = Spec {
            events: spec.events / 12,
            ..*spec
        };
        for traced in [false, true] {
            let window = Window {
                start: Instant::now(),
                seconds: 0.0,
                quick: true,
            };
            let (_, tally) = if traced {
                trace_pass(&small, 1, &window, out_dir)?
            } else {
                measure(&small, 1, &window)?
            };
            println!(
                "quick {} trace={}: {} of {} operations failed",
                spec.name,
                u8::from(traced),
                tally.failed,
                tally.attempted
            );
            ok &= tally.failed == 0;
        }
    }
    Ok(ok)
}

fn arg(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cpvr-ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         cpvr-ledger --calibrate <runs> [--seconds <s>]\n       cpvr-ledger --quick",
        workload::SPECS.map(|s| s.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().collect();
    // Journals, span dumps and everything else this process writes stay
    // under the benchmark's own directory.
    let out_dir = match std::env::current_dir() {
        Ok(cwd) if cwd.join("benchmark").is_dir() => cwd.join("benchmark/out"),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    if let Err(e) = std::fs::create_dir_all(out_dir.join("tmp")) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    // `wal::TempDir` creates its directories under the system temp dir;
    // set before any thread exists.
    std::env::set_var("TMPDIR", out_dir.join("tmp"));

    let seconds: f64 = match arg(&args, "--seconds").map(|s| s.parse()) {
        None => 30.0,
        Some(Ok(s)) if s > 0.0 => s,
        Some(_) => return usage(),
    };
    if let Some(runs) = arg(&args, "--calibrate") {
        let Ok(runs) = runs.parse::<usize>() else {
            return usage();
        };
        return match calibrate::run(runs, seconds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("calibration failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.iter().any(|a| a == "--quick") {
        return match quick(&out_dir) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("quick check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (Some(name), Some(seed), Some(traced)) = (
        arg(&args, "--workload"),
        arg(&args, "--seed").and_then(|s| s.parse::<u64>().ok()),
        arg(&args, "--trace").and_then(|s| match s.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    let Some(spec) = workload::spec(&name) else {
        return usage();
    };
    let window = Window {
        start,
        seconds,
        quick: false,
    };
    println!(
        "cpvr-ledger: workload {} seed {seed} seconds {seconds} trace {} on {} cores",
        spec.name,
        u8::from(traced),
        sys::nproc()
    );
    let result = if traced {
        trace_pass(spec, seed, &window, &out_dir)
    } else {
        measure(spec, seed, &window)
    };
    match result {
        Ok((metrics, tally)) => {
            println!("{}", metrics.table());
            println!("wall {:.1} s", start.elapsed().as_secs_f64());
            let (attempted, failed) = (tally.attempted.max(1), tally.failed);
            if !traced {
                // Everything measured, for `--calibrate`; the result line
                // holds the part `BENCHMARK.json` puts a bound on.
                println!("measured {}", metrics.result_line(attempted, failed));
            }
            let listed = if traced {
                metrics
            } else {
                metrics.subset(&metrics::END_TO_END)
            };
            println!("{}", listed.result_line(attempted, failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
