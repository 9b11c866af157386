//! Process and thread accounting read from the OS: CPU clocks, context
//! switches, peak resident memory.
//!
//! The workspace is dependency-free, so the two libc calls this needs
//! are declared here by hand (std already links libc). Linux x86-64 /
//! aarch64 layouts; every other number comes from `/proc`.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// timevals followed by fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

extern "C" {
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn cpu_clock(id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the
    // duration of the call, and both clock ids are defined on Linux.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User + system CPU consumed by every thread of this process so far,
/// exited threads included.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU consumed by the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn rusage(who: i32) -> Rusage {
    // SAFETY: an all-zero `Rusage` is a valid value of the plain-integer
    // struct, and the kernel only writes within its size.
    let mut ru: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: `ru` is a valid, writable `struct rusage`, and both `who`
    // values are defined on Linux.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    ru
}

fn system_time(ru: &Rusage) -> Duration {
    Duration::new(ru.ru_stime.tv_sec as u64, ru.ru_stime.tv_usec as u32 * 1000)
}

/// The part of [`process_cpu`] spent in the kernel. The kernel splits
/// user from system time by sampling, so this is good to a few percent
/// over a second of work, not to the microsecond.
pub fn process_kernel_cpu() -> Duration {
    system_time(&rusage(RUSAGE_SELF))
}

/// The part of [`thread_cpu`] spent in the kernel.
pub fn thread_kernel_cpu() -> Duration {
    system_time(&rusage(RUSAGE_THREAD))
}

/// Involuntary context switches of the whole process so far (a thread
/// was runnable and got preempted) — the direct sign of more runnable
/// threads than cores.
pub fn involuntary_ctx_switches() -> u64 {
    rusage(RUSAGE_SELF).ru_nivcsw as u64
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
