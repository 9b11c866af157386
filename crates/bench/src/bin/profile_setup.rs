//! A18 — where the ledger's `setup_s` goes: a sampling profiler over its
//! two halves, for a box with no `perf`.
//!
//! `profile_setup --shape bgp|fib --phase gen|fold [--reps N]` rebuilds
//! one of the ledger's generator shapes — `bgp`: a 12-router iBGP mesh
//! under announce/withdraw churn and syslog capture, cloned, sorted by
//! `(time, id)` and renumbered to 160 000 events; `fib`: 12 × 35 000
//! local FIB installs and removes — and samples either that generation
//! (`gen`) or the reference fold over it (`fold`: `IngestPipeline`,
//! ingest everything, advance a four-horizon grid). `ITIMER_PROF` raises
//! `SIGPROF` every 4 ms of CPU; the handler stores glibc's `backtrace`
//! in a buffer allocated beforehand, and the report resolves addresses
//! against `/proc/self/maps` and `nm -C` of this executable, printing
//! self and inclusive percentages per symbol. Linux with glibc only; a
//! developer tool that nothing depends on and that claims no metric.

use cpvr_collector::{IngestPipeline, PipelineConfig};
use cpvr_dataplane::FibAction;
use cpvr_sim::workload::{ibgp_configs, prefix_block, random_topology, schedule_churn, IbgpShape};
use cpvr_sim::{CaptureProfile, EventId, IoEvent, IoKind, LatencyProfile, Simulation};
use cpvr_types::{RouterId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::ffi::c_void;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

const DEPTH: usize = 40;
const MAX_SAMPLES: usize = 1 << 14;
const TICK_US: i64 = 4_000;
const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct itimerval` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct Itimerval {
    it_interval: Timeval,
    it_value: Timeval,
}

extern "C" {
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn backtrace(buffer: *mut *mut c_void, size: i32) -> i32;
}

/// `MAX_SAMPLES` stacks of `DEPTH` return addresses each, zeroed; a
/// stack ends at its first null.
static STACKS: AtomicPtr<*mut c_void> = AtomicPtr::new(std::ptr::null_mut());
static TAKEN: AtomicUsize = AtomicUsize::new(0);

extern "C" fn on_tick(_signal: i32) {
    let stacks = STACKS.load(Ordering::Relaxed);
    let slot = TAKEN.fetch_add(1, Ordering::Relaxed);
    if slot < MAX_SAMPLES {
        // SAFETY: `stacks` points at `MAX_SAMPLES * DEPTH` writable
        // entries (set before the timer is armed, never freed), `slot`
        // is in range and each slot is claimed once; `backtrace` was
        // called once before arming, so it loads nothing here, and the
        // sampled work neither loads libraries nor unwinds, so the
        // loader lock the unwinder takes is never already held.
        unsafe { backtrace(stacks.add(slot * DEPTH), DEPTH as i32) };
    }
}

fn set_timer(tick_us: i64) {
    let tick = || Timeval {
        tv_sec: 0,
        tv_usec: tick_us,
    };
    let timer = Itimerval {
        it_interval: tick(),
        it_value: tick(),
    };
    // SAFETY: `timer` is a valid `struct itimerval` for the call and a
    // null old-value pointer is allowed.
    let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "setitimer failed");
}

/// Runs `work` under the sampler and returns the stacks it took,
/// innermost frame first, without the signal frames.
fn sample(mut work: impl FnMut()) -> Vec<Vec<usize>> {
    let buffer = vec![std::ptr::null_mut::<c_void>(); MAX_SAMPLES * DEPTH].leak();
    // SAFETY: `buffer` holds `DEPTH` writable entries. This first call
    // makes glibc load its unwinder now, outside the signal handler.
    unsafe { backtrace(buffer.as_mut_ptr(), DEPTH as i32) };
    buffer[..DEPTH].fill(std::ptr::null_mut());
    STACKS.store(buffer.as_mut_ptr(), Ordering::SeqCst);
    // SAFETY: `on_tick` has the signature of a signal handler and only
    // touches the atomics above and the leaked buffer.
    let previous = unsafe { signal(SIGPROF, on_tick) };
    assert_ne!(previous, usize::MAX, "signal(SIGPROF) failed");
    set_timer(TICK_US);
    work();
    set_timer(0);
    let taken = TAKEN.load(Ordering::SeqCst);
    if taken > MAX_SAMPLES {
        println!(
            "(buffer full: the last {} ticks were dropped)",
            taken - MAX_SAMPLES
        );
    }
    // Frame 0 is `on_tick`, frame 1 the kernel's signal trampoline.
    let stacks = buffer.chunks(DEPTH).take(taken.min(MAX_SAMPLES));
    let frames = |s: &[*mut c_void]| {
        let addrs = s.iter().skip(2).map(|a| *a as usize);
        addrs.take_while(|a| *a != 0).collect()
    };
    stacks.map(frames).collect()
}

/// Code symbols of this executable by load address, and the address
/// ranges of everything else that is mapped, labelled `[file name]`.
struct Symbols {
    exe: Vec<(usize, String)>,
    mapped: Vec<(usize, usize, String)>,
}

impl Symbols {
    fn load() -> Symbols {
        let exe = std::env::current_exe().expect("own path");
        let exe = exe.to_str().expect("utf-8 path");
        let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
        let mapped: Vec<(usize, usize, String)> = maps
            .lines()
            .filter_map(|l| {
                let mut fields = l.split_whitespace();
                let (lo, hi) = fields.next()?.split_once('-')?;
                let hex = |s| usize::from_str_radix(s, 16).ok();
                let path = fields.nth(4).unwrap_or("anon").to_string();
                Some((hex(lo)?, hex(hi)?, path))
            })
            .collect();
        // A position-independent executable (the default): `nm` prints
        // offsets from its lowest mapping.
        let base = mapped.iter().filter(|m| m.2 == exe).map(|m| m.0).min();
        let base = base.expect("the executable is mapped");
        let nm = std::process::Command::new("nm")
            .args(["-C", "--defined-only", exe])
            .output()
            .expect("run nm");
        let mut table: Vec<(usize, String)> = String::from_utf8_lossy(&nm.stdout)
            .lines()
            .filter_map(|l| {
                let (addr, rest) = l.split_once(' ')?;
                let (kind, name) = rest.split_once(' ')?;
                if !matches!(kind, "t" | "T" | "w" | "W") {
                    return None; // not code
                }
                // Drop the `::h<hash>` that ends a demangled Rust name.
                let name = name.rsplit_once("::h").map_or(name, |(n, _)| n);
                let addr = usize::from_str_radix(addr, 16).ok()?;
                Some((base + addr, name.to_string()))
            })
            .collect();
        table.sort();
        let others = mapped.into_iter().filter(|m| m.2 != exe);
        let label = |path: String| format!("[{}]", path.rsplit('/').next().unwrap_or(&path));
        let symbols = Symbols {
            exe: table,
            mapped: others.map(|(lo, hi, path)| (lo, hi, label(path))).collect(),
        };
        let own = symbols.name(on_tick as *const () as usize);
        assert!(
            own.contains("on_tick"),
            "symbols are off: the handler resolves to {own}"
        );
        symbols
    }

    fn name(&self, addr: usize) -> &str {
        if let Some(m) = self.mapped.iter().find(|m| (m.0..m.1).contains(&addr)) {
            return &m.2;
        }
        match self.exe.partition_point(|s| s.0 <= addr) {
            0 => "[unknown]",
            n => &self.exe[n - 1].1,
        }
    }
}

fn report(stacks: &[Vec<usize>]) {
    let symbols = Symbols::load();
    let mut own: BTreeMap<&str, usize> = BTreeMap::new();
    let mut inclusive: BTreeMap<&str, usize> = BTreeMap::new();
    for stack in stacks {
        // Above the innermost frame an address is a return address: the
        // call is the instruction before it.
        let frames = stack.iter().enumerate();
        let names: Vec<&str> = frames.map(|(i, a)| symbols.name(a - i.min(1))).collect();
        *own.entry(names.first().copied().unwrap_or_default())
            .or_default() += 1;
        for name in names.into_iter().collect::<BTreeSet<_>>() {
            *inclusive.entry(name).or_default() += 1;
        }
    }
    for (title, counts) in [("self", own), ("inclusive", inclusive)] {
        println!("\n{title:>9}  symbol");
        let mut rows: Vec<(usize, &str)> = counts.into_iter().map(|(n, c)| (c, n)).collect();
        rows.sort_by(|a, b| b.cmp(a));
        for (count, name) in rows.iter().take(30) {
            let pct = 100.0 * *count as f64 / stacks.len().max(1) as f64;
            println!(
                "{pct:>8.1}%  {}",
                name.chars().take(110).collect::<String>()
            );
        }
    }
}

/// Puts a capture in the ledger's input order: `(time, id)`, cut to
/// `keep` events, renumbered.
fn ledger_order(mut events: Vec<IoEvent>, keep: usize) -> Vec<IoEvent> {
    events.sort_by_key(|e| (e.time, e.id));
    events.truncate(keep);
    for (i, e) in events.iter_mut().enumerate() {
        e.id = EventId(i as u32);
    }
    events
}

/// The `bgp-merger` / `bgp-fed` generator shape.
fn bgp_shape() -> Vec<IoEvent> {
    const EVENTS: usize = 160_000;
    let (topo, uplinks) = random_topology(12, 8, 3, 7);
    let configs = ibgp_configs(&topo, &uplinks, IbgpShape::FullMesh);
    let (latency, capture) = (LatencyProfile::cisco(), CaptureProfile::syslog());
    let mut sim = Simulation::new(topo, configs, latency, capture, 1);
    sim.start();
    sim.run_to_quiescence(usize::MAX);
    let prefixes = prefix_block(256);
    for round in 0.. {
        if sim.trace().len() >= EVENTS {
            break;
        }
        schedule_churn(&mut sim, &uplinks, &prefixes, 2_000, 1 ^ (round << 32));
        sim.run_to_quiescence(usize::MAX);
    }
    ledger_order(sim.trace().events.clone(), EVENTS)
}

/// The `churn-sharded` generator shape: every router installs and
/// removes prefixes of a window rolling through a `/24` block.
fn fib_shape() -> Vec<IoEvent> {
    const ROUTERS: u32 = 12;
    const PER_ROUTER: usize = 35_000;
    const WINDOW: usize = 2_048;
    let block = prefix_block(65_536);
    let mut streams: Vec<(StdRng, Vec<usize>)> = (0..ROUTERS)
        .map(|r| (StdRng::seed_from_u64(u64::from(r) + 1), Vec::new()))
        .collect();
    let mut events = Vec::with_capacity(PER_ROUTER * ROUTERS as usize);
    for j in 0..PER_ROUTER {
        for r in 0..ROUTERS {
            let (rng, installed) = &mut streams[r as usize];
            let remove =
                installed.len() > WINDOW / 2 || (!installed.is_empty() && rng.gen_bool(0.35));
            let kind = if remove {
                let prefix = block[installed.swap_remove(rng.gen_range(0..installed.len()))];
                IoKind::FibRemove { prefix }
            } else {
                installed.push((j / 4 + rng.gen_range(0..WINDOW)) % block.len());
                let (prefix, action) = (block[installed[installed.len() - 1]], FibAction::Local);
                IoKind::FibInstall { prefix, action }
            };
            let time = SimTime::from_nanos((j as u64 + 1) * 10_000 + u64::from(r) * 100);
            events.push(IoEvent {
                id: EventId(events.len() as u32),
                router: RouterId(r),
                time,
                arrived_at: Some(time),
                kind,
            });
        }
    }
    let keep = events.len();
    ledger_order(events, keep)
}

/// The ledger's reference fold: ingest everything, then advance through
/// four horizons at equal event-count intervals and to the end.
fn fold(events: &[IoEvent]) {
    let mut pipeline = IngestPipeline::new(PipelineConfig::new(12));
    for e in events {
        pipeline.ingest(e);
    }
    for k in 1..=4 {
        pipeline.advance(events[events.len() * k / 4 - 1].time);
    }
    pipeline.advance(SimTime::MAX);
    std::hint::black_box(pipeline.builder().hbg().edges().len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let option = |name: &str, default: &str| {
        let at = args.iter().position(|a| a == name);
        at.and_then(|i| args.get(i + 1))
            .map_or(default.to_string(), String::clone)
    };
    let (shape, phase) = (option("--shape", "bgp"), option("--phase", "gen"));
    let reps: usize = option("--reps", "20")
        .parse()
        .expect("--reps takes a count");
    let generate = match shape.as_str() {
        "bgp" => bgp_shape,
        "fib" => fib_shape,
        other => panic!("--shape is bgp or fib, not {other}"),
    };
    let stacks = match phase.as_str() {
        "gen" => sample(|| (0..reps).for_each(|_| drop(std::hint::black_box(generate())))),
        "fold" => {
            let events = generate();
            sample(|| (0..reps).for_each(|_| fold(&events)))
        }
        other => panic!("--phase is gen or fold, not {other}"),
    };
    println!(
        "shape {shape}, phase {phase}, {reps} reps: {} samples at {} ms of CPU each; IoEvent is {} bytes",
        stacks.len(),
        TICK_US / 1000,
        std::mem::size_of::<IoEvent>()
    );
    report(&stacks);
}
