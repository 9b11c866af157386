//! The load generators: a closed-loop bulk replay and an open-loop paced
//! replay, both speaking through `SocketSink` — one connection per
//! router, v3 codec — exactly as a router-side capture tap would.

use crate::deploy::Live;
use crate::sys;
use crate::trace::{Span, Tracer};
use crate::workload::{Input, ROUTERS};
use cpvr_collector::{CodecVersion, ReconnectPolicy, SocketSink};
use cpvr_types::{RouterId, SimTime};
use std::io;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long any single wait for the collector may last before the run
/// is declared failed.
const SESSION_TIMEOUT: Duration = Duration::from_secs(60);

fn connect(live: &Live, r: u32) -> io::Result<SocketSink> {
    SocketSink::connect_with_codec(
        live.addr_of_router(RouterId(r)),
        RouterId(r),
        ROUTERS,
        ReconnectPolicy::default(),
        CodecVersion::V3,
    )
}

fn drain(sink: &mut SocketSink) -> io::Result<()> {
    if sink.drain(SESSION_TIMEOUT)? {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "router {} left {} events unacknowledged",
            sink.source().0,
            sink.unacked()
        )))
    }
}

/// What one bulk session measured.
#[derive(Clone, Copy, Debug)]
pub struct BulkRun {
    pub events: u64,
    /// First send → every member's watermark at `SimTime::MAX`.
    pub wall: Duration,
    /// Process user+sys CPU over the same window.
    pub cpu: Duration,
    /// The generator threads' share of `cpu`.
    pub gen_cpu: Duration,
    /// The part of `cpu` spent in the kernel by every thread that is not
    /// a generator: the collector's socket reads, ack writes, journal
    /// writes and syncs, and thread wake-ups.
    pub collector_kernel_cpu: Duration,
    /// Involuntary context switches over the same window.
    pub preemptions: u64,
}

/// One sender thread of the bulk replay: walks the horizon grid and, for
/// each of its routers, sends the router's events up to the horizon and
/// then promises it. Returns the CPU the thread burnt and the part of it
/// spent in the kernel.
fn bulk_sender(
    live: &Live,
    input: &Input,
    grid: &[SimTime],
    routers: &[u32],
    start: &Barrier,
    tracer: Option<(&Tracer, u32)>,
) -> io::Result<(Duration, Duration)> {
    let connected: io::Result<Vec<SocketSink>> =
        routers.iter().map(|&r| connect(live, r)).collect();
    // Reach the barrier even on a failed connect, or the others hang.
    start.wait();
    let mut sinks = connected?;
    let (cpu0, kernel0) = (sys::thread_cpu(), sys::thread_kernel_cpu());
    let mut spans: Vec<Span> = Vec::new();
    let mut cursor = vec![0usize; routers.len()];
    let events = &input.trace.events;
    let mut step = |sinks: &mut Vec<SocketSink>,
                    spans: &mut Vec<Span>,
                    k: usize,
                    h: Option<SimTime>|
     -> io::Result<()> {
        for (i, &r) in routers.iter().enumerate() {
            let mine = &input.per_router[r as usize];
            let t0 = Instant::now();
            let from = cursor[i];
            while cursor[i] < mine.len()
                && h.is_none_or(|h| events[mine[cursor[i]] as usize].time <= h)
            {
                sinks[i].send(&events[mine[cursor[i]] as usize])?;
                cursor[i] += 1;
            }
            if let Some((t, thread)) = tracer {
                let n = (cursor[i] - from) as u64;
                spans.push(t.span(
                    t.reserve(),
                    0,
                    "collector.client.send",
                    t0,
                    k as u64,
                    n,
                    thread,
                ));
            }
            let t0 = Instant::now();
            match h {
                Some(h) => sinks[i].watermark(h)?,
                None => sinks[i].bye()?,
            }
            if let (Some((t, thread)), Some(_)) = (tracer, h) {
                let id = t.reserve();
                spans.push(t.span(id, 0, "collector.client.watermark", t0, k as u64, 1, thread));
            }
        }
        Ok(())
    };
    for (k, &h) in grid.iter().enumerate() {
        step(&mut sinks, &mut spans, k, Some(h))?;
    }
    step(&mut sinks, &mut spans, grid.len(), None)?;
    for sink in &mut sinks {
        let t0 = Instant::now();
        drain(sink)?;
        if let Some((t, thread)) = tracer {
            let id = t.reserve();
            spans.push(t.span(id, 0, "collector.client.drain", t0, 0, 1, thread));
        }
    }
    let gen_cpu = sys::thread_cpu() - cpu0;
    let gen_kernel = sys::thread_kernel_cpu() - kernel0;
    if let Some((t, _)) = tracer {
        t.extend(spans);
    }
    Ok((gen_cpu, gen_kernel))
}

/// Closed-loop replay of the whole trace: `senders` threads, each
/// multiplexing an equal share of the router connections, send as fast
/// as the collector's acks and TCP windows let them.
pub fn bulk(
    live: &Live,
    input: &Input,
    grid: &[SimTime],
    senders: usize,
    tracer: Option<&Tracer>,
) -> io::Result<BulkRun> {
    let start = Barrier::new(senders + 1);
    let shares: Vec<Vec<u32>> = (0..senders)
        .map(|t| {
            (0..ROUTERS)
                .filter(|r| *r as usize % senders == t)
                .collect()
        })
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(t, routers)| {
                let start = &start;
                let tracer = tracer.map(|tr| (tr, t as u32 + 1));
                scope.spawn(move || bulk_sender(live, input, grid, routers, start, tracer))
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        let (cpu0, kernel0) = (sys::process_cpu(), sys::process_kernel_cpu());
        let sw0 = sys::involuntary_ctx_switches();
        let (mut gen_cpu, mut gen_kernel) = (Duration::ZERO, Duration::ZERO);
        let mut failed = None;
        for h in handles {
            match h.join().expect("bulk sender panicked") {
                Ok((cpu, kernel)) => {
                    gen_cpu += cpu;
                    gen_kernel += kernel;
                }
                Err(e) => failed = Some(e),
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if !live.wait_drained(SESSION_TIMEOUT) {
            return Err(io::Error::other(format!(
                "bulk session never drained: watermark {:?}",
                live.watermark()
            )));
        }
        Ok(BulkRun {
            events: input.events as u64,
            wall: t0.elapsed(),
            cpu: sys::process_cpu() - cpu0,
            gen_cpu,
            collector_kernel_cpu: (sys::process_kernel_cpu() - kernel0).saturating_sub(gen_kernel),
            preemptions: sys::involuntary_ctx_switches() - sw0,
        })
    })
}

/// The open-loop timetable of a paced session, fixed before it starts.
///
/// The traffic model is periodic batch export: every `interval` each
/// router ships the events it captured since its last export, followed
/// by a watermark frame. All twelve exports of a horizon are due at the
/// same instant, a fixed offset from the session start.
pub struct Timetable {
    /// Horizons promised on schedule.
    pub grid: Vec<SimTime>,
    /// Due time of each horizon's exports, as an offset from the session
    /// start.
    pub due: Vec<Duration>,
    /// Events the timetable covers: the session replays this prefix of
    /// the trace and nothing else.
    pub events: usize,
}

impl Timetable {
    /// Lays `horizons` horizons `interval` apart over the first
    /// `rate * interval * horizons` events of the trace (fewer horizons
    /// if the trace is shorter).
    pub fn new(input: &Input, rate: f64, interval: Duration, horizons: usize) -> Timetable {
        let events = input.workload();
        let per_horizon = (rate * interval.as_secs_f64()).round().max(1.0) as usize;
        let mut table = Timetable {
            grid: Vec::new(),
            due: Vec::new(),
            events: 0,
        };
        for k in 1..=horizons {
            let end = k * per_horizon;
            if end > events.len() {
                break;
            }
            // The horizon must fall between two distinct stamps; extend
            // it over any events sharing the boundary stamp.
            let h = events[end - 1].time;
            if table.grid.last().is_some_and(|&last| h <= last) {
                continue;
            }
            table.grid.push(h);
            table.due.push(interval * k as u32);
            table.events = events.partition_point(|e| e.time <= h);
        }
        table
    }
}

/// What one paced session measured.
pub struct PacedRun {
    /// Per horizon: due time of its exports → verdict visible on every
    /// member. `None` = the verdict never came.
    pub latency_ms: Vec<Option<f64>>,
    /// Per export: how late the generator issued its watermark frame.
    pub gen_lag_ms: Vec<f64>,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// One router's exporter in the paced replay: sleeps until each export
/// is due, ships the horizon's events and its watermark frame, and never
/// waits for the collector (beyond what `SocketSink` itself does).
fn paced_sender(
    live: &Live,
    input: &Input,
    table: &Timetable,
    r: u32,
    start: &Barrier,
    t0: &std::sync::OnceLock<Instant>,
) -> io::Result<Vec<f64>> {
    let connected = connect(live, r);
    start.wait();
    let mut sink = connected?;
    let t0 = *t0.wait();
    let events = &input.trace.events;
    let mine = &input.per_router[r as usize];
    let mut next = 0usize;
    let mut lag = Vec::with_capacity(table.grid.len());
    for (&h, &due) in table.grid.iter().zip(&table.due) {
        sleep_until(t0 + due);
        while next < mine.len() && events[mine[next] as usize].time <= h {
            sink.send(&events[mine[next] as usize])?;
            next += 1;
        }
        lag.push((t0 + due).elapsed().as_secs_f64() * 1e3);
        sink.watermark(h)?;
    }
    sink.bye()?;
    drain(&mut sink)?;
    Ok(lag)
}

/// Open-loop replay of the timetable's prefix of the trace: one sleeping
/// exporter thread per router follows the timetable while one sleeping
/// observer watches the verdict frontier.
///
/// A thread per router (not per core) because `SocketSink::watermark`
/// blocks in its ack poll for several milliseconds per call; twelve such
/// calls in sequence on one thread would cap the timetable at a handful
/// of horizons per second. The threads are asleep — in that poll or in
/// `sleep_until` — for all but a few percent of the session.
pub fn paced(live: &Live, input: &Input, table: &Timetable) -> io::Result<PacedRun> {
    let start = Barrier::new(ROUTERS as usize + 1);
    let t0_cell = std::sync::OnceLock::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ROUTERS)
            .map(|r| {
                let (start, t0) = (&start, &t0_cell);
                scope.spawn(move || paced_sender(live, input, table, r, start, t0))
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        t0_cell.set(t0).expect("set once");

        // The observer: sleeps between looks at the frontier and stamps
        // each horizon the first time the frontier has reached it.
        let mut seen: Vec<Option<Instant>> = vec![None; table.grid.len()];
        let mut k = 0;
        let deadline = t0 + table.due.last().copied().unwrap_or_default() + SESSION_TIMEOUT;
        while k < table.grid.len() && Instant::now() < deadline {
            if let Some(wm) = live.watermark() {
                let now = Instant::now();
                while k < table.grid.len() && wm >= table.grid[k] {
                    seen[k] = Some(now);
                    k += 1;
                }
            }
            std::thread::sleep(Duration::from_micros(100));
        }

        let mut gen_lag_ms = Vec::new();
        let mut failed = None;
        for h in handles {
            match h.join().expect("paced sender panicked") {
                Ok(lag) => gen_lag_ms.extend(lag),
                Err(e) => failed = Some(e),
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if !live.wait_drained(SESSION_TIMEOUT) {
            return Err(io::Error::other(format!(
                "paced session never drained: watermark {:?}",
                live.watermark()
            )));
        }
        let latency_ms = seen
            .iter()
            .zip(&table.due)
            .map(|(seen, &due)| {
                seen.map(|at| at.saturating_duration_since(t0 + due).as_secs_f64() * 1e3)
            })
            .collect();
        Ok(PacedRun {
            latency_ms,
            gen_lag_ms,
        })
    })
}
