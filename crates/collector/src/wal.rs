//! A segmented, append-only write-ahead log.
//!
//! The collector appends every accepted wire frame to the WAL *before*
//! acting on it, so a crash loses at most the unsynced tail and
//! recovery ([`crate::pipeline::IngestPipeline::recover`]) can rebuild
//! the verification state up to the last durable watermark.
//!
//! On-disk layout: a directory of segment files named
//! `wal-00000000.seg`, `wal-00000001.seg`, … Each segment is a sequence
//! of records:
//!
//! ```text
//! +-----------+-----------+-- - - - --+
//! | len (LE)  | crc (LE)  |  payload  |
//! +-----------+-----------+-- - - - --+
//!      4           4        len bytes
//! ```
//!
//! The CRC-32 (IEEE) covers the payload. Replay walks segments in name
//! order and stops at the first torn record (short read or CRC
//! mismatch) — everything before it is the durable prefix. Payloads
//! here are encoded wire frames ([`crate::codec::encode_frame`]),
//! so the WAL reuses the codec's own corruption detection end to end.
//!
//! A fresh [`Wal::open`] never writes into an existing segment: it
//! starts a new segment numbered after the highest present, so a torn
//! tail from a crash is left untouched as forensic evidence and replay
//! naturally skips past it on the next recovery (replay of the *old*
//! segment still stops at the tear; new records land in the new file).

use cpvr_types::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Record header size: 4-byte length + 4-byte CRC.
const RECORD_HEADER: usize = 8;

/// Records larger than this are rejected on append and treated as torn
/// on replay — mirrors [`crate::codec::MAX_FRAME_LEN`] plus header room.
const MAX_RECORD_LEN: u32 = (1 << 24) + 64;

/// When to `fsync` the active segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every record. Maximum durability, minimum throughput.
    Always,
    /// Sync after every `n` records (and on rotation/close). The default
    /// is `EveryN(256)` — bounded loss, near-`Never` throughput.
    EveryN(u32),
    /// Never sync explicitly; rely on the OS page cache. A crash of the
    /// *process* loses nothing (the kernel still has the writes); a
    /// crash of the *machine* loses the cached tail.
    Never,
}

/// WAL location and tuning.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Rotate to a new segment once the active one reaches this size.
    pub segment_bytes: u64,
    /// Durability policy for the active segment.
    pub fsync: FsyncPolicy,
    /// Which segment series this handle writes. `None` is the
    /// unnumbered series (`wal-NNNNNNNN.seg`); `Some(k)` is shard `k`'s
    /// series (`wal-s<k>-NNNNNNNN.seg`). Series share the directory but
    /// never a file, so one writer per series needs no locking.
    pub series: Option<u32>,
    /// When true, [`Wal::append`] neither flushes nor fsyncs — the
    /// owner batches durability itself: [`Wal::flush`] per batch, and
    /// fsyncs aggregated across all series by a group-commit thread
    /// holding [`Wal::active_file`] clones. Rotation and
    /// [`Wal::close`] still sync inline, so a finished segment is
    /// always durable before the writer moves on.
    pub deferred_sync: bool,
}

impl WalConfig {
    /// A config with default tuning (8 MiB segments, sync every 256
    /// records, unnumbered series, inline durability) for the given
    /// directory.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::EveryN(256),
            series: None,
            deferred_sync: false,
        }
    }

    /// The same config, writing shard `k`'s segment series.
    pub fn for_series(mut self, k: u32) -> Self {
        self.series = Some(k);
        self
    }
}

/// An open write-ahead log (the append side).
pub struct Wal {
    cfg: WalConfig,
    seg_index: u64,
    seg_len: u64,
    file: BufWriter<File>,
    since_sync: u32,
    /// Total records appended through this handle.
    appended: u64,
    /// Total explicit fsyncs issued through this handle.
    syncs: u64,
    /// Registry handles, when the owning collector is instrumented.
    metrics: Option<WalMetrics>,
}

/// Registry handles the WAL publishes through (see
/// [`Wal::set_metrics`]); resolved by the collector so the WAL itself
/// stays ignorant of metric names.
pub struct WalMetrics {
    /// Records appended.
    pub appends: cpvr_obs::Counter,
    /// Payload bytes appended.
    pub bytes: cpvr_obs::Counter,
    /// fsync (`sync_data`) calls issued.
    pub syncs: cpvr_obs::Counter,
    /// Segment rotations.
    pub rotations: cpvr_obs::Counter,
    /// Wall-clock latency of one flush+fsync, in nanoseconds.
    pub fsync_nanos: cpvr_obs::Histogram,
}

fn segment_path(dir: &Path, series: Option<u32>, index: u64) -> PathBuf {
    match series {
        None => dir.join(format!("wal-{index:08}.seg")),
        Some(k) => dir.join(format!("wal-s{k}-{index:08}.seg")),
    }
}

/// Parses a segment file name into `(series, index)`.
fn parse_segment_name(name: &str) -> Option<(Option<u32>, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if let Some(tail) = rest.strip_prefix('s') {
        let (series, idx) = tail.split_once('-')?;
        Some((Some(series.parse().ok()?), idx.parse().ok()?))
    } else {
        Some((None, rest.parse().ok()?))
    }
}

/// Lists one series' segment indices in ascending order.
fn list_segments(dir: &Path, series: Option<u32>) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((s, idx)) = parse_segment_name(name) {
            if s == series {
                out.push(idx);
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Lists the segment series present in a WAL directory: the
/// unnumbered series first (if present), then shard series in ascending
/// order. A missing directory lists as empty.
pub fn list_series(dir: &Path) -> io::Result<Vec<Option<u32>>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some((s, _)) = parse_segment_name(name) {
            out.push(s);
        }
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

impl Wal {
    /// Opens (creating the directory if needed) and starts a *new*
    /// segment after any existing ones.
    pub fn open(cfg: WalConfig) -> io::Result<Self> {
        fs::create_dir_all(&cfg.dir)?;
        let next = list_segments(&cfg.dir, cfg.series)?
            .last()
            .map_or(0, |last| last + 1);
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(&cfg.dir, cfg.series, next))?;
        Ok(Wal {
            cfg,
            seg_index: next,
            seg_len: 0,
            file: BufWriter::new(file),
            since_sync: 0,
            appended: 0,
            syncs: 0,
            metrics: None,
        })
    }

    /// Attaches registry handles; every later append/sync/rotation is
    /// published through them.
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = Some(metrics);
    }

    /// Appends one record and applies the fsync policy. Returns only
    /// once the record is at least in the kernel (flushed), and — per
    /// policy — on stable storage (synced).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = payload.len() as u64;
        assert!(
            len <= MAX_RECORD_LEN as u64,
            "wal record of {len} bytes exceeds the {MAX_RECORD_LEN}-byte cap"
        );
        let record_len = RECORD_HEADER as u64 + len;
        if self.seg_len > 0 && self.seg_len + record_len > self.cfg.segment_bytes {
            self.rotate()?;
        }
        self.file.write_all(&(len as u32).to_le_bytes())?;
        self.file
            .write_all(&crc32::checksum(payload).to_le_bytes())?;
        self.file.write_all(payload)?;
        self.seg_len += record_len;
        self.appended += 1;
        self.since_sync += 1;
        if let Some(m) = &self.metrics {
            m.appends.inc();
            m.bytes.add(len);
        }
        if self.cfg.deferred_sync {
            // Durability is batched by the owner (flush per batch,
            // fsyncs aggregated by the group-commit thread).
            return Ok(());
        }
        match self.cfg.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                if self.since_sync >= n.max(1) {
                    self.sync()?;
                } else {
                    self.file.flush()?;
                }
            }
            FsyncPolicy::Never => self.file.flush()?,
        }
        Ok(())
    }

    /// Flushes buffered writes to the OS without fsyncing — the
    /// per-batch step of deferred-sync (group commit) operation.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    /// A clone of the active segment's file handle, for a group-commit
    /// thread to fsync out-of-band. Must be re-fetched after a
    /// rotation ([`segment_index`](Self::segment_index) changes).
    pub fn active_file(&self) -> io::Result<File> {
        self.file.get_ref().try_clone()
    }

    /// Flushes and fsyncs the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        let start = std::time::Instant::now();
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.since_sync = 0;
        self.syncs += 1;
        if let Some(m) = &self.metrics {
            m.syncs.inc();
            m.fsync_nanos.observe_since(start);
        }
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        if let Some(m) = &self.metrics {
            m.rotations.inc();
        }
        self.seg_index += 1;
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(&self.cfg.dir, self.cfg.series, self.seg_index))?;
        self.file = BufWriter::new(file);
        self.seg_len = 0;
        Ok(())
    }

    /// Total records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Total explicit fsyncs issued (policy-driven, rotation, and
    /// manual [`sync`](Wal::sync) calls alike).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Records appended since the last fsync — the worst-case loss
    /// window if the machine dies right now. Under
    /// [`FsyncPolicy::EveryN`] this must never reach `n`, including
    /// across segment rotations (rotation syncs the old segment before
    /// switching, so the window never silently widens per segment).
    pub fn pending_sync(&self) -> u32 {
        self.since_sync
    }

    /// Index of the active segment file.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }

    /// Syncs and closes the log.
    pub fn close(mut self) -> io::Result<()> {
        self.sync()
    }
}

/// The result of scanning a WAL directory.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every intact record payload, in append order across segments.
    pub records: Vec<Vec<u8>>,
    /// Whether a torn tail (short or corrupt record) was found. Records
    /// after the first tear in a segment are not trusted; later
    /// *segments* are still read because [`Wal::open`] always starts a
    /// fresh segment, so a tear can only be the final write of its
    /// segment's writing process.
    pub torn: bool,
    /// How many segment files were scanned.
    pub segments: usize,
    /// Total intact payload bytes recovered.
    pub bytes: u64,
}

/// Reads every intact record of one series, in append order across its
/// segments. A missing directory replays as empty.
pub fn replay_series(dir: &Path, series: Option<u32>) -> io::Result<WalReplay> {
    let mut out = WalReplay::default();
    if !dir.exists() {
        return Ok(out);
    }
    for idx in list_segments(dir, series)? {
        out.segments += 1;
        let mut data = Vec::new();
        File::open(segment_path(dir, series, idx))?.read_to_end(&mut data)?;
        let mut at = 0usize;
        let mut torn_here = false;
        while data.len() - at >= RECORD_HEADER {
            let len = u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(data[at + 4..at + 8].try_into().expect("4 bytes"));
            let start = at + RECORD_HEADER;
            if len > MAX_RECORD_LEN as usize || data.len() - start < len {
                torn_here = true;
                break;
            }
            let payload = &data[start..start + len];
            if crc32::checksum(payload) != crc {
                torn_here = true;
                break;
            }
            out.records.push(payload.to_vec());
            out.bytes += len as u64;
            at = start + len;
        }
        if at < data.len() && !torn_here {
            // Trailing bytes too short to even hold a header.
            torn_here = true;
        }
        out.torn |= torn_here;
    }
    Ok(out)
}

/// Replays every series in a WAL directory, using up to `threads`
/// reader threads (series are independent files, so they replay in
/// parallel). Results are returned in deterministic series order (the
/// unnumbered series first, then shard series ascending) — the
/// same result at any thread count.
pub fn replay_all(dir: &Path, threads: usize) -> io::Result<Vec<(Option<u32>, WalReplay)>> {
    let series = list_series(dir)?;
    let threads = threads.clamp(1, series.len().max(1));
    let mut out: Vec<(Option<u32>, io::Result<WalReplay>)> = Vec::with_capacity(series.len());
    if threads <= 1 {
        for s in series {
            out.push((s, replay_series(dir, s)));
        }
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Option<io::Result<WalReplay>>>> =
            series.iter().map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(s) = series.get(i) else { break };
                    *slots[i].lock().unwrap() = Some(replay_series(dir, *s));
                });
            }
        });
        for (s, slot) in series.iter().zip(slots) {
            out.push((*s, slot.into_inner().unwrap().expect("worker filled slot")));
        }
    }
    out.into_iter().map(|(s, r)| Ok((s, r?))).collect()
}

/// Reads every intact record from the WAL directory: all series, each
/// in its own append order, concatenated in series order. For a
/// single-series directory this is exactly the series' append order.
pub fn replay(dir: &Path) -> io::Result<WalReplay> {
    let mut out = WalReplay::default();
    for (_, r) in replay_all(dir, 1)? {
        out.records.extend(r.records);
        out.torn |= r.torn;
        out.segments += r.segments;
        out.bytes += r.bytes;
    }
    Ok(out)
}

/// A throwaway directory for tests and examples: created under the
/// system temp dir, removed on drop.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh uniquely named directory. `tag` shows up in the
    /// name to make leftovers attributable.
    pub fn new(tag: &str) -> io::Result<Self> {
        let base = std::env::temp_dir();
        // Uniqueness from pid + a monotonic counter + a retry loop on
        // collision — no clock or RNG needed.
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let pid = std::process::id();
        loop {
            let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let path = base.join(format!("cpvr-{tag}-{pid}-{n}"));
            match fs::create_dir(&path) {
                Ok(()) => return Ok(TempDir { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Blocks until `pred` returns true or `timeout` elapses; returns
/// whether it became true. Polling helper for tests that wait on
/// threaded collector state.
pub fn wait_for(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = std::time::Instant::now();
    loop {
        if pred() {
            return true;
        }
        if start.elapsed() >= timeout {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize) -> Vec<u8> {
        format!("record-{i}-{}", "x".repeat(i % 7)).into_bytes()
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let tmp = TempDir::new("wal-rt").unwrap();
        let mut wal = Wal::open(WalConfig::new(tmp.path())).unwrap();
        let records: Vec<Vec<u8>> = (0..100).map(record).collect();
        for r in &records {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.appended(), 100);
        wal.close().unwrap();
        let replayed = replay(tmp.path()).unwrap();
        assert_eq!(replayed.records, records);
        assert!(!replayed.torn);
        assert_eq!(replayed.segments, 1);
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let tmp = TempDir::new("wal-rot").unwrap();
        let mut cfg = WalConfig::new(tmp.path());
        cfg.segment_bytes = 64; // force frequent rotation
        let mut wal = Wal::open(cfg).unwrap();
        let records: Vec<Vec<u8>> = (0..40).map(record).collect();
        for r in &records {
            wal.append(r).unwrap();
        }
        assert!(wal.segment_index() > 0, "tiny segments must rotate");
        wal.close().unwrap();
        let replayed = replay(tmp.path()).unwrap();
        assert_eq!(replayed.records, records);
        assert!(!replayed.torn);
        assert!(replayed.segments > 1);
    }

    #[test]
    fn torn_tail_stops_replay_at_last_intact_record() {
        let tmp = TempDir::new("wal-torn").unwrap();
        let mut wal = Wal::open(WalConfig::new(tmp.path())).unwrap();
        for i in 0..10 {
            wal.append(&record(i)).unwrap();
        }
        wal.close().unwrap();
        // Append garbage simulating a crash mid-write.
        let seg = segment_path(tmp.path(), None, 0);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0xde, 0xad, 0xbe, 0xef, 0x01]).unwrap();
        drop(f);
        let replayed = replay(tmp.path()).unwrap();
        assert_eq!(replayed.records.len(), 10);
        assert!(replayed.torn);
    }

    #[test]
    fn corrupt_record_is_rejected() {
        let tmp = TempDir::new("wal-crc").unwrap();
        let mut wal = Wal::open(WalConfig::new(tmp.path())).unwrap();
        for i in 0..5 {
            wal.append(&record(i)).unwrap();
        }
        wal.close().unwrap();
        let seg = segment_path(tmp.path(), None, 0);
        let mut data = fs::read(&seg).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xff; // corrupt the final record's payload
        fs::write(&seg, &data).unwrap();
        let replayed = replay(tmp.path()).unwrap();
        assert_eq!(replayed.records.len(), 4);
        assert!(replayed.torn);
    }

    #[test]
    fn reopen_starts_a_new_segment_and_preserves_history() {
        let tmp = TempDir::new("wal-reopen").unwrap();
        let mut wal = Wal::open(WalConfig::new(tmp.path())).unwrap();
        wal.append(b"first-life").unwrap();
        wal.close().unwrap();
        let mut wal = Wal::open(WalConfig::new(tmp.path())).unwrap();
        assert_eq!(wal.segment_index(), 1, "reopen must not touch segment 0");
        wal.append(b"second-life").unwrap();
        wal.close().unwrap();
        let replayed = replay(tmp.path()).unwrap();
        assert_eq!(
            replayed.records,
            vec![b"first-life".to_vec(), b"second-life".to_vec()]
        );
        assert_eq!(replayed.segments, 2);
    }

    #[test]
    fn missing_directory_replays_empty() {
        let tmp = TempDir::new("wal-none").unwrap();
        let replayed = replay(&tmp.path().join("never-created")).unwrap();
        assert!(replayed.records.is_empty());
        assert!(!replayed.torn);
        assert_eq!(replayed.segments, 0);
    }

    #[test]
    fn every_n_counter_carries_across_rotation() {
        // EveryN's unsynced window must stay bounded by n even when
        // appends straddle segment rotations: rotation itself syncs
        // (counted), and the per-record counter must not be reset by a
        // segment switch without that sync. 40 small records with
        // 64-byte segments rotate many times; n = 7 never divides the
        // per-segment record count evenly, so a per-segment counter
        // reset would show up as pending_sync exceeding the cadence or
        // syncs going missing.
        let tmp = TempDir::new("wal-rotsync").unwrap();
        let mut cfg = WalConfig::new(tmp.path());
        cfg.segment_bytes = 64;
        cfg.fsync = FsyncPolicy::EveryN(7);
        let mut wal = Wal::open(cfg).unwrap();
        let mut max_pending = 0u32;
        for i in 0..40 {
            wal.append(&record(i)).unwrap();
            assert!(
                wal.pending_sync() < 7,
                "record {i}: {} records unsynced under EveryN(7)",
                wal.pending_sync()
            );
            max_pending = max_pending.max(wal.pending_sync());
        }
        assert!(wal.segment_index() > 1, "test needs several rotations");
        assert!(
            max_pending > 0,
            "policy should leave some records pending between syncs"
        );
        // Syncs come from the policy cadence and from rotations; with
        // both active there must be at least ceil(40/7) of them.
        assert!(wal.syncs() >= 40 / 7, "too few syncs: {}", wal.syncs());
        let seg_before_close = wal.segment_index();
        wal.close().unwrap();
        // Nothing torn, nothing lost, order preserved across segments.
        let replayed = replay(tmp.path()).unwrap();
        assert_eq!(replayed.records.len(), 40);
        assert!(!replayed.torn);
        assert_eq!(replayed.segments as u64, seg_before_close + 1);
    }

    #[test]
    fn replay_tolerates_an_empty_trailing_segment() {
        // A collector that recovers and immediately crashes (or shuts
        // down before journaling anything) leaves a zero-byte trailing
        // segment. Replay must read through it: no tear, no phantom
        // records, and the history before it intact.
        let tmp = TempDir::new("wal-empty-tail").unwrap();
        let mut wal = Wal::open(WalConfig::new(tmp.path())).unwrap();
        for i in 0..6 {
            wal.append(&record(i)).unwrap();
        }
        wal.close().unwrap();
        // Open and close without appending: segment 1 stays empty.
        Wal::open(WalConfig::new(tmp.path()))
            .unwrap()
            .close()
            .unwrap();
        let replayed = replay(tmp.path()).unwrap();
        assert_eq!(replayed.segments, 2);
        assert_eq!(replayed.records.len(), 6);
        assert!(!replayed.torn, "an empty segment is not a torn one");
        // And a third generation still appends after the empty one.
        let mut wal = Wal::open(WalConfig::new(tmp.path())).unwrap();
        assert_eq!(wal.segment_index(), 2);
        wal.append(b"after-the-gap").unwrap();
        wal.close().unwrap();
        let replayed = replay(tmp.path()).unwrap();
        assert_eq!(replayed.records.len(), 7);
        assert_eq!(replayed.records[6], b"after-the-gap");
        assert!(!replayed.torn);
    }

    #[test]
    fn fsync_policies_all_produce_identical_logs() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(3),
            FsyncPolicy::Never,
        ] {
            let tmp = TempDir::new("wal-sync").unwrap();
            let mut cfg = WalConfig::new(tmp.path());
            cfg.fsync = policy;
            let mut wal = Wal::open(cfg).unwrap();
            for i in 0..10 {
                wal.append(&record(i)).unwrap();
            }
            wal.close().unwrap();
            let replayed = replay(tmp.path()).unwrap();
            assert_eq!(replayed.records.len(), 10, "{policy:?}");
            assert!(!replayed.torn, "{policy:?}");
        }
    }
}
