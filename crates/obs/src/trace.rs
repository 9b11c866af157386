//! Black-box flight recorder + causal-trace stitching.
//!
//! Counters answer "how much"; this module answers "*why*": why did
//! that EC go inconsistent, that watermark stall, that repair come
//! back BLOCKED? Every layer of the pipeline — sink, decoder, WAL,
//! merger workers, federation rounds, the replay gate — appends
//! compact structured records ([`FlightRecord`]: stage code, optional
//! [`TraceCtx`], monotonic nanos, two payload words) into per-thread
//! lock-free ring buffers. The rings overwrite oldest-first and cost a
//! handful of relaxed atomic stores per record, so they stay armed on
//! the hot path at all times, like an aircraft's black box.
//!
//! When an anomaly fires — lease eviction, gate DIVERGED/ERROR,
//! watermark stall, CRC-quarantine burst — the recorder freezes a
//! snapshot of every ring and writes it to `flight-<reason>-<n>.json`
//! next to the WAL. Operators can also snapshot a live collector over
//! the wire via the `DumpReq`/`DumpResp` codec frames.
//!
//! Dumps from different federation members are merged by
//! [`stitch`]ing on `trace_id` (trace ids are minted deterministically
//! from content identities, see `cpvr_types::trace`), and
//! [`chrome_trace`] renders the merged timeline as Chrome
//! `trace_event` JSON, openable in `about:tracing` or Perfetto —
//! one repair reads as: proposed@member-0 → proof journaled → gated
//! REPRODUCED → proof broadcast → peers verified.
//!
//! ## Ring memory model
//!
//! Each ring is single-producer (one [`RingHandle`] per thread),
//! multi-reader (any thread may snapshot). Slots are seqlocks built
//! from `AtomicU64`s only — no unsafe: the writer bumps the slot's
//! sequence word to an odd value, stores the five payload words with
//! relaxed ordering, then publishes an even sequence with release
//! ordering. A reader that observes the same even sequence before and
//! after reading the payload words has a tear-free record; anything
//! else is retried or skipped. The final even sequence also encodes
//! the record's global index, which is how dumps recover oldest-first
//! order after wrap-around.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cpvr_types::json;
use cpvr_types::TraceCtx;

/// Stage codes stamped on flight records. Codes are stable wire/JSON
/// values: dumps from older builds must keep meaning the same thing.
pub mod stage {
    /// A sampled event flight left the sink (minted its trace).
    pub const SINK_SEND: u32 = 1;
    /// The collector reader decoded a traced event frame.
    pub const DECODED: u32 = 2;
    /// A traced record was appended to the write-ahead log.
    pub const JOURNALED: u32 = 3;
    /// The merger folded the event past the watermark.
    pub const FOLDED: u32 = 4;
    /// Repair lifecycle: proposed (payload a = repair_id).
    pub const REPAIR_PROPOSED: u32 = 10;
    /// Repair lifecycle: proof attached and journaled.
    pub const REPAIR_PROVEN: u32 = 11;
    /// Repair lifecycle: replay gate returned a verdict
    /// (payload b = verdict code: 0 reproduced, 1 diverged, 2 error).
    pub const REPAIR_GATED: u32 = 12;
    /// Repair lifecycle: applied to the live fold.
    pub const REPAIR_APPLIED: u32 = 13;
    /// Repair lifecycle: blocked by the gate.
    pub const REPAIR_BLOCKED: u32 = 14;
    /// Repair lifecycle: rolled back.
    pub const REPAIR_ROLLED_BACK: u32 = 15;
    /// A gated proof was broadcast to federation peers.
    pub const PROOF_BROADCAST: u32 = 16;
    /// A peer re-validated a broadcast proof
    /// (payload a = repair_id, b = originating member).
    pub const PEER_PROOF_VERIFIED: u32 = 17;
    /// A federated round opened at a fold horizon.
    pub const ROUND_OPENED: u32 = 20;
    /// Boundary edges for a round were sent to a peer.
    pub const ROUND_BOUNDARY: u32 = 21;
    /// A partial verdict for a round was sent.
    pub const ROUND_PARTIAL: u32 = 22;
    /// A federated round completed with a global verdict.
    pub const ROUND_COMPLETE: u32 = 23;
    /// Anomaly: a silent source's lease was evicted.
    pub const EVICTION: u32 = 30;
    /// Anomaly: the replay gate answered DIVERGED or ERROR.
    pub const GATE_ANOMALY: u32 = 31;
    /// Anomaly: the global min-watermark stalled past the threshold.
    pub const WATERMARK_STALL: u32 = 32;
    /// Anomaly: a burst of CRC-quarantined frames on one reader.
    pub const CRC_BURST: u32 = 33;

    /// Human-readable name for a stage code (used in Chrome traces).
    pub fn name(code: u32) -> &'static str {
        match code {
            SINK_SEND => "sink-send",
            DECODED => "decoded",
            JOURNALED => "journaled",
            FOLDED => "folded",
            REPAIR_PROPOSED => "repair-proposed",
            REPAIR_PROVEN => "repair-proven",
            REPAIR_GATED => "repair-gated",
            REPAIR_APPLIED => "repair-applied",
            REPAIR_BLOCKED => "repair-blocked",
            REPAIR_ROLLED_BACK => "repair-rolled-back",
            PROOF_BROADCAST => "proof-broadcast",
            PEER_PROOF_VERIFIED => "peer-proof-verified",
            ROUND_OPENED => "round-opened",
            ROUND_BOUNDARY => "round-boundary",
            ROUND_PARTIAL => "round-partial",
            ROUND_COMPLETE => "round-complete",
            EVICTION => "eviction",
            GATE_ANOMALY => "gate-anomaly",
            WATERMARK_STALL => "watermark-stall",
            CRC_BURST => "crc-burst",
            _ => "unknown",
        }
    }
}

/// Payload words per slot besides the sequence word: packed
/// stage+parent, monotonic nanos, trace id, and two payload words.
const SLOT_WORDS: usize = 5;

struct Slot {
    /// Seqlock word: 0 = never written, odd = write in progress,
    /// even `s` = record number `s/2 - 1` is stable in the slot.
    seq: AtomicU64,
    words: [AtomicU64; SLOT_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// One single-producer ring inside the recorder.
struct Ring {
    label: String,
    slots: Vec<Slot>,
    /// Total records ever written (monotone; `head > capacity` means
    /// the ring has wrapped and overwritten `head - capacity` records).
    head: AtomicU64,
    overwrites: AtomicU64,
}

impl Ring {
    fn new(label: String, capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Slot::new());
        }
        Ring {
            label,
            slots,
            head: AtomicU64::new(0),
            overwrites: AtomicU64::new(0),
        }
    }

    /// Tear-free snapshot of the ring's surviving records,
    /// oldest-first. Runs concurrently with the writer: a slot being
    /// overwritten mid-read is retried a few times, then skipped.
    fn snapshot(&self, epoch: Instant, out: &mut Vec<FlightRecord>) {
        let cap = self.slots.len() as u64;
        let head = self.head.load(Ordering::Acquire);
        let live = head.min(cap);
        let mut got: Vec<FlightRecord> = Vec::with_capacity(live as usize);
        for slot in &self.slots {
            for _attempt in 0..8 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 {
                    break; // never written
                }
                if s1 & 1 == 1 {
                    std::hint::spin_loop();
                    continue; // write in progress
                }
                let mut w = [0u64; SLOT_WORDS];
                for (dst, src) in w.iter_mut().zip(slot.words.iter()) {
                    *dst = src.load(Ordering::Relaxed);
                }
                let s2 = slot.seq.load(Ordering::Acquire);
                if s1 == s2 {
                    let n = s1 / 2 - 1;
                    let stage = (w[0] & 0xffff_ffff) as u32;
                    let parent = (w[0] >> 32) as u32;
                    let trace_id = w[2];
                    got.push(FlightRecord {
                        ring: self.label.clone(),
                        n,
                        stage,
                        t_nanos: w[1],
                        trace: if trace_id == 0 {
                            None
                        } else {
                            Some(TraceCtx { trace_id, parent })
                        },
                        a: w[3],
                        b: w[4],
                    });
                    break;
                }
                // torn read: the writer lapped us; retry
            }
        }
        let _ = epoch; // t_nanos is already epoch-relative at write time
        got.sort_by_key(|r| r.n);
        out.extend(got);
    }
}

/// A single-producer handle for appending flight records from one
/// thread. Cheap to use (a few relaxed atomic stores); cloneable only
/// by re-registering with the recorder.
pub struct RingHandle {
    ring: Arc<Ring>,
    epoch: Instant,
}

impl RingHandle {
    /// Appends one record. `trace` is `None` for untraced records
    /// (anomaly markers that are not part of any sampled story).
    pub fn record(&self, stage: u32, trace: Option<TraceCtx>, a: u64, b: u64) {
        let h = self.ring.head.load(Ordering::Relaxed);
        let cap = self.ring.slots.len() as u64;
        let slot = &self.ring.slots[(h % cap) as usize];
        // Odd = write in progress. Release so readers that saw the
        // previous even value order their payload reads before this.
        slot.seq.store(2 * h + 1, Ordering::Release);
        let (trace_id, parent) = match trace {
            Some(ctx) => (ctx.trace_id, ctx.parent),
            None => (0, 0),
        };
        let packed = (stage as u64) | ((parent as u64) << 32);
        let t = self.epoch.elapsed().as_nanos() as u64;
        slot.words[0].store(packed, Ordering::Relaxed);
        slot.words[1].store(t, Ordering::Relaxed);
        slot.words[2].store(trace_id, Ordering::Relaxed);
        slot.words[3].store(a, Ordering::Relaxed);
        slot.words[4].store(b, Ordering::Relaxed);
        // Even value encoding the record number publishes the slot.
        slot.seq.store(2 * (h + 1), Ordering::Release);
        if h >= cap {
            self.ring.overwrites.fetch_add(1, Ordering::Relaxed);
        }
        self.ring.head.store(h + 1, Ordering::Release);
    }
}

/// One decoded flight record, as it appears in dumps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightRecord {
    /// Label of the ring (thread) that emitted the record.
    pub ring: String,
    /// Global record number within its ring (monotone, gap-free per
    /// ring until overwritten).
    pub(crate) n: u64,
    /// Stage code (see [`stage`]).
    pub stage: u32,
    /// Monotonic nanos since the recorder's epoch. Comparable within
    /// one process only — never across federation members.
    pub t_nanos: u64,
    /// The causal story this record belongs to, if traced.
    pub trace: Option<TraceCtx>,
    /// Stage-specific payload word (e.g. repair_id, source id).
    pub a: u64,
    /// Second stage-specific payload word (e.g. verdict code).
    pub b: u64,
}

cpvr_types::impl_json_struct!(FlightRecord {
    ring,
    n,
    stage,
    t_nanos,
    #[omit_none]
    trace,
    a,
    b,
});

/// A frozen snapshot of every ring on one collector, as written to
/// `flight-<reason>-<n>.json` and served over `DumpResp`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightDump {
    /// Federation member id that produced the dump; -1 standalone.
    pub member: i64,
    /// Why the dump was taken (`"eviction"`, `"diverged"`, `"stall"`,
    /// `"crc-burst"`, `"dump-req"`, ...).
    pub reason: String,
    /// All surviving records across all rings. Ordered per-ring
    /// oldest-first; cross-ring order is by each record's `t_nanos`.
    pub records: Vec<FlightRecord>,
}

cpvr_types::impl_json_struct!(FlightDump {
    member,
    reason,
    records
});

/// The collector-wide flight recorder: a registry of per-thread rings
/// plus the anomaly-dump machinery. One per collector, shared as
/// `Arc<FlightRecorder>`.
pub struct FlightRecorder {
    epoch: Instant,
    rings: Mutex<Vec<Arc<Ring>>>,
    dump_dir: Mutex<Option<PathBuf>>,
    member: AtomicU64, // i64 stored as u64 bits; -1 = standalone
    dump_seq: AtomicU64,
    dumps_written: AtomicU64,
    last_reason: Mutex<Option<String>>,
    stall_fired: AtomicBool,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A fresh recorder with no rings and no dump directory (dumps
    /// are skipped, never an error, until one is armed).
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
            dump_dir: Mutex::new(None),
            member: AtomicU64::new((-1i64) as u64),
            dump_seq: AtomicU64::new(0),
            dumps_written: AtomicU64::new(0),
            last_reason: Mutex::new(None),
            stall_fired: AtomicBool::new(false),
        }
    }

    /// Arms anomaly dumps: artifacts land in `dir` as
    /// `flight-<reason>-<n>.json` (typically next to the WAL).
    pub fn arm(&self, dir: &Path) {
        *self.dump_dir.lock().unwrap() = Some(dir.to_path_buf());
    }

    /// Tags dumps with the federation member id for stitching.
    pub fn set_member(&self, member: i64) {
        self.member.store(member as u64, Ordering::Relaxed);
    }

    /// Registers a new single-producer ring with `capacity` slots.
    /// Call once per thread; the returned handle is that thread's
    /// append-side.
    pub fn register(&self, label: &str, capacity: usize) -> RingHandle {
        let ring = Arc::new(Ring::new(label.to_string(), capacity));
        self.rings.lock().unwrap().push(Arc::clone(&ring));
        RingHandle {
            ring,
            epoch: self.epoch,
        }
    }

    /// Freezes a tear-free snapshot of every ring, merged and ordered
    /// by monotonic time.
    pub fn snapshot(&self, reason: &str) -> FlightDump {
        let mut records = Vec::new();
        for ring in self.rings.lock().unwrap().iter() {
            ring.snapshot(self.epoch, &mut records);
        }
        records.sort_by(|x, y| {
            x.t_nanos
                .cmp(&y.t_nanos)
                .then_with(|| x.ring.cmp(&y.ring))
                .then_with(|| x.n.cmp(&y.n))
        });
        FlightDump {
            member: self.member.load(Ordering::Relaxed) as i64,
            reason: reason.to_string(),
            records,
        }
    }

    /// Freezes the rings and writes `flight-<reason>-<n>.json` in the
    /// armed dump directory. Returns the artifact path, or `None`
    /// when not armed (or the write failed — the recorder must never
    /// take the pipeline down).
    pub fn dump(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.dump_dir.lock().unwrap().clone()?;
        let n = self.dump_seq.fetch_add(1, Ordering::Relaxed);
        let snap = self.snapshot(reason);
        let path = dir.join(format!("flight-{reason}-{n}.json"));
        let body = json::to_string_compact(&snap);
        if std::fs::write(&path, body).is_err() {
            return None;
        }
        self.dumps_written.fetch_add(1, Ordering::Relaxed);
        *self.last_reason.lock().unwrap() = Some(reason.to_string());
        Some(path)
    }

    /// One-shot stall dump: fires at most once per stall episode.
    /// Returns the artifact path on the first call of an episode.
    pub fn dump_stall_once(&self, reason: &str) -> Option<PathBuf> {
        if self.stall_fired.swap(true, Ordering::Relaxed) {
            return None;
        }
        self.dump(reason)
    }

    /// Re-arms the one-shot stall trigger once the watermark advances.
    pub fn clear_stall(&self) {
        self.stall_fired.store(false, Ordering::Relaxed);
    }

    /// Number of anomaly dumps successfully written.
    pub fn dumps_written(&self) -> u64 {
        self.dumps_written.load(Ordering::Relaxed)
    }

    /// Reason string of the most recent dump, if any.
    pub fn last_reason(&self) -> Option<String> {
        self.last_reason.lock().unwrap().clone()
    }

    /// Total records overwritten (lost to wrap-around) across rings.
    pub fn ring_overwrites(&self) -> u64 {
        self.rings
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.overwrites.load(Ordering::Relaxed))
            .sum()
    }
}

/// One causal story reconstructed from a set of dumps: every record
/// across every member that carries the same `trace_id`.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// The shared trace id.
    pub trace_id: u64,
    /// `(member, record)` pairs. Ordered by parent stage code first
    /// (the causal hop counter, comparable across members), then by
    /// member and local time (comparable only within a member).
    pub records: Vec<(i64, FlightRecord)>,
}

/// Merges dumps from any number of federation members into causal
/// timelines keyed by `trace_id`. Untraced records (anomaly markers)
/// are dropped here; they are still visible in the raw dumps.
pub fn stitch(dumps: &[FlightDump]) -> Vec<Timeline> {
    let mut by_trace: BTreeMap<u64, Vec<(i64, FlightRecord)>> = BTreeMap::new();
    for d in dumps {
        for r in &d.records {
            if let Some(ctx) = r.trace {
                by_trace
                    .entry(ctx.trace_id)
                    .or_default()
                    .push((d.member, r.clone()));
            }
        }
    }
    by_trace
        .into_iter()
        .map(|(trace_id, mut records)| {
            records.sort_by(|x, y| {
                let px = x.1.trace.map(|c| c.parent).unwrap_or(0);
                let py = y.1.trace.map(|c| c.parent).unwrap_or(0);
                px.cmp(&py)
                    .then_with(|| x.0.cmp(&y.0))
                    .then_with(|| x.1.t_nanos.cmp(&y.1.t_nanos))
            });
            // Drop duplicate observations of the same hop on the same
            // member (e.g. a record that survived in two rings).
            records.dedup_by(|x, y| x.0 == y.0 && x.1.stage == y.1.stage && x.1.a == y.1.a);
            Timeline { trace_id, records }
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders stitched dumps as Chrome `trace_event` JSON (openable in
/// `about:tracing` or Perfetto). Members become processes, rings
/// become threads; each flight record is an instant event, and flow
/// arrows connect the hops of each trace across members.
pub fn chrome_trace(dumps: &[FlightDump]) -> String {
    let mut events: Vec<String> = Vec::new();
    // Process/thread naming metadata.
    for d in dumps {
        let pid = d.member;
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"member {pid} ({})\"}}}}",
            json_escape(&d.reason)
        ));
    }
    // Stable tid per (member, ring label).
    let mut tids: BTreeMap<(i64, String), u64> = BTreeMap::new();
    for d in dumps {
        for r in &d.records {
            let key = (d.member, r.ring.clone());
            let next = tids.len() as u64 + 1;
            let tid = *tids.entry(key).or_insert(next);
            let _ = tid;
        }
    }
    for ((pid, ring), tid) in &tids {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(ring)
        ));
    }
    // Instant events for every record; flow arrows per trace.
    for d in dumps {
        for r in &d.records {
            let tid = tids.get(&(d.member, r.ring.clone())).copied().unwrap_or(0);
            let ts_us = r.t_nanos as f64 / 1000.0;
            let (trace_id, parent) = match r.trace {
                Some(c) => (c.trace_id, c.parent),
                None => (0, 0),
            };
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"p\",\"pid\":{},\"tid\":{tid},\
                 \"ts\":{ts_us:.3},\"args\":{{\"trace_id\":{trace_id},\"parent\":{parent},\
                 \"a\":{},\"b\":{}}}}}",
                json_escape(stage::name(r.stage)),
                d.member,
                r.a,
                r.b
            ));
        }
    }
    for tl in stitch(dumps) {
        for (hop, (member, r)) in tl.records.iter().enumerate() {
            let tid = tids.get(&(*member, r.ring.clone())).copied().unwrap_or(0);
            let ts_us = r.t_nanos as f64 / 1000.0;
            let ph = if hop == 0 {
                "s"
            } else if hop + 1 == tl.records.len() {
                "f"
            } else {
                "t"
            };
            let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
            events.push(format!(
                "{{\"name\":\"trace-{:016x}\",\"cat\":\"cpvr\",\"ph\":\"{ph}\"{bp},\
                 \"id\":\"0x{:x}\",\"pid\":{member},\"tid\":{tid},\"ts\":{ts_us:.3}}}",
                tl.trace_id, tl.trace_id
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn ring_keeps_newest_records_oldest_first() {
        let rec = FlightRecorder::new();
        let h = rec.register("merger", 4);
        for i in 0..10u64 {
            h.record(stage::FOLDED, None, i, 0);
        }
        let snap = rec.snapshot("test");
        // Capacity 4, 10 writes: records 6..=9 survive, oldest first.
        let ns: Vec<u64> = snap.records.iter().map(|r| r.n).collect();
        assert_eq!(ns, vec![6, 7, 8, 9]);
        let payloads: Vec<u64> = snap.records.iter().map(|r| r.a).collect();
        assert_eq!(payloads, vec![6, 7, 8, 9]);
        assert_eq!(rec.ring_overwrites(), 6);
    }

    #[test]
    fn concurrent_snapshots_never_observe_tears() {
        // The writer stamps every payload word with the same value per
        // record; a torn read would surface mismatched words.
        let rec = Arc::new(FlightRecorder::new());
        let h = rec.register("writer", 8);
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..3 {
            let rec = Arc::clone(&rec);
            let stop = Arc::clone(&stop);
            readers.push(thread::spawn(move || {
                let mut seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = rec.snapshot("probe");
                    for r in &snap.records {
                        assert_eq!(r.a, r.b, "torn record: a != b");
                        assert_eq!(
                            r.trace.map(|c| c.trace_id),
                            Some(r.a.max(1)),
                            "torn record: trace_id != payload"
                        );
                        seen += 1;
                    }
                }
                seen
            }));
        }
        for i in 0..200_000u64 {
            let ctx = TraceCtx {
                trace_id: i.max(1),
                parent: 0,
            };
            h.record(stage::FOLDED, Some(ctx), i, i);
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(total > 0, "readers never observed a record");
    }

    #[test]
    fn dump_writes_artifact_and_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "cpvr-flight-test-{}-{}",
            std::process::id(),
            Instant::now().elapsed().as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = FlightRecorder::new();
        assert!(rec.dump("eviction").is_none(), "unarmed dump must no-op");
        rec.arm(&dir);
        rec.set_member(2);
        let h = rec.register("reader-0", 16);
        h.record(stage::EVICTION, None, 7, 0);
        h.record(
            stage::REPAIR_GATED,
            Some(TraceCtx::for_repair(99).child(stage::REPAIR_PROVEN)),
            99,
            1,
        );
        let path = rec.dump("eviction").expect("armed dump");
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("flight-eviction-"));
        let body = std::fs::read_to_string(&path).unwrap();
        let back: FlightDump = json::from_str(&body).unwrap();
        assert_eq!(back.member, 2);
        assert_eq!(back.reason, "eviction");
        assert_eq!(back.records.len(), 2);
        assert_eq!(back.records[0].trace, None);
        assert_eq!(
            back.records[1].trace,
            Some(TraceCtx::for_repair(99).child(stage::REPAIR_PROVEN))
        );
        assert_eq!(rec.dumps_written(), 1);
        assert_eq!(rec.last_reason().as_deref(), Some("eviction"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stall_trigger_is_one_shot_until_cleared() {
        let dir = std::env::temp_dir().join(format!("cpvr-flight-stall-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = FlightRecorder::new();
        rec.arm(&dir);
        assert!(rec.dump_stall_once("stall").is_some());
        assert!(rec.dump_stall_once("stall").is_none());
        rec.clear_stall();
        assert!(rec.dump_stall_once("stall").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stitch_connects_hops_across_members() {
        let ctx = TraceCtx::for_repair(42);
        let mk = |member: i64, stage_code: u32, parent: u32, t: u64| FlightDump {
            member,
            reason: "dump-req".to_string(),
            records: vec![FlightRecord {
                ring: "merger".to_string(),
                n: 0,
                stage: stage_code,
                t_nanos: t,
                trace: Some(ctx.child(parent)),
                a: 42,
                b: 0,
            }],
        };
        let dumps = vec![
            mk(0, stage::REPAIR_PROPOSED, 0, 10),
            mk(0, stage::PROOF_BROADCAST, stage::REPAIR_GATED, 50),
            mk(1, stage::PEER_PROOF_VERIFIED, stage::PROOF_BROADCAST, 9),
            mk(2, stage::PEER_PROOF_VERIFIED, stage::PROOF_BROADCAST, 11),
        ];
        let timelines = stitch(&dumps);
        assert_eq!(timelines.len(), 1);
        let tl = &timelines[0];
        assert_eq!(tl.trace_id, ctx.trace_id);
        let members: Vec<i64> = tl.records.iter().map(|(m, _)| *m).collect();
        assert_eq!(members, vec![0, 0, 1, 2]);
        // Hop order follows the parent stage chain, not local clocks.
        let stages: Vec<u32> = tl.records.iter().map(|(_, r)| r.stage).collect();
        assert_eq!(
            stages,
            vec![
                stage::REPAIR_PROPOSED,
                stage::PROOF_BROADCAST,
                stage::PEER_PROOF_VERIFIED,
                stage::PEER_PROOF_VERIFIED
            ]
        );
        let chrome = chrome_trace(&dumps);
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("repair-proposed"));
        assert!(chrome.contains("\"ph\":\"s\""));
        assert!(chrome.contains("\"ph\":\"f\""));
    }
}
