//! A segmented, append-only write-ahead log.
//!
//! The collector appends every accepted wire frame to the WAL *before*
//! acting on it, so a crash loses at most the unsynced tail and
//! recovery (`WalScan::read`, then `Shards::start` seeding the fold
//! workers) can rebuild the verification state up to the last durable
//! watermark. [`IngestPipeline::recover`](crate::pipeline::IngestPipeline::recover)
//! folds the same scan in-process: it is the test oracle, not a
//! collector's path.
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
//!
//! The log is mechanism only: [`Wal::append`] frames a record into the
//! write buffer and returns. When the bytes reach the kernel
//! (`Wal::flush`) and stable storage ([`Wal::sync`]) is the owner's
//! call — the collector's fold workers flush once per batch, and the
//! group-commit thread (`crate::group_commit`) alone applies the
//! [`FsyncPolicy`] across every series. Rotation syncs the finished
//! segment inline and [`Wal::close`] syncs the active one, so a segment
//! the writer has left is always durable. A new segment's directory
//! entry is made durable before any record lands in it: the directory
//! is fsynced right after the segment is created, and its parent too
//! when [`Wal::open`] had to create the directory.

use cpvr_types::bin::Reader;
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

/// When a collector's journal reaches stable storage. [`Wal`] never
/// reads it; the group-commit thread
/// (`GroupCommit`) applies it across all series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every batch is fsynced before it is acked. Maximum durability,
    /// minimum throughput.
    Always,
    /// One fsync per `n` records appended across all series (and on
    /// rotation/close). The default is `EveryN(256)` — bounded loss,
    /// near-`Never` throughput.
    EveryN(u32),
    /// No fsync on cadence — only rotation, close and shutdown sync;
    /// rely on the OS page cache between them. A crash of the *process*
    /// loses nothing acked (every batch is flushed to the kernel before
    /// its ack); a crash of the *machine* loses the cached tail.
    Never,
}

/// WAL location and tuning.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Directory holding the segment files (created if absent).
    pub(crate) dir: PathBuf,
    /// Rotate to a new segment once the active one reaches this size.
    pub segment_bytes: u64,
    /// Durability policy, applied by the owner's group commit.
    pub fsync: FsyncPolicy,
    /// Which segment series this handle writes. `None` is the
    /// unnumbered series (`wal-NNNNNNNN.seg`); `Some(k)` is shard `k`'s
    /// series (`wal-s<k>-NNNNNNNN.seg`). Series share the directory but
    /// never a file, so one writer per series needs no locking.
    pub(crate) series: Option<u32>,
}

impl WalConfig {
    /// A config with default tuning (8 MiB segments, sync every 256
    /// records, unnumbered series) for the given directory.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 8 * 1024 * 1024,
            fsync: FsyncPolicy::EveryN(256),
            series: None,
        }
    }
}

/// An open write-ahead log (the append side).
pub struct Wal {
    cfg: WalConfig,
    seg_index: u64,
    seg_len: u64,
    file: BufWriter<File>,
    since_sync: u32,
    /// Registry handles, when the owning collector is instrumented.
    metrics: Option<WalMetrics>,
}

/// Registry handles the WAL publishes through (see
/// [`Wal::set_metrics`]); resolved by the collector so the WAL itself
/// stays ignorant of metric names.
#[derive(Clone)]
pub(crate) struct WalMetrics {
    /// Records appended.
    pub(crate) appends: cpvr_obs::Counter,
    /// Payload bytes appended.
    pub(crate) bytes: cpvr_obs::Counter,
    /// fsync (`sync_data`) calls issued.
    pub(crate) syncs: cpvr_obs::Counter,
    /// fsync calls issued on a directory: the WAL's, after each new
    /// segment, and the parents of directories [`Wal::open`] created.
    pub(crate) dir_syncs: cpvr_obs::Counter,
    /// Segment rotations.
    pub(crate) rotations: cpvr_obs::Counter,
    /// Wall-clock latency of one flush+fsync, in nanoseconds.
    pub(crate) fsync_nanos: cpvr_obs::Histogram,
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

/// Creates segment `index` of `cfg`'s series and makes its directory
/// entry durable, before any record can land in it.
fn create_segment(cfg: &WalConfig, index: u64, metrics: Option<&WalMetrics>) -> io::Result<File> {
    let file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(segment_path(&cfg.dir, cfg.series, index))?;
    sync_dir(&cfg.dir, metrics)?;
    Ok(file)
}

/// Fsyncs a directory (`""` is the working one), making the entries
/// created in it durable.
fn sync_dir(dir: &Path, metrics: Option<&WalMetrics>) -> io::Result<()> {
    File::open(Path::new(".").join(dir))?.sync_all()?;
    if let Some(m) = metrics {
        m.dir_syncs.inc();
    }
    Ok(())
}

impl Wal {
    /// Opens (creating the directory if needed) and starts a *new*
    /// segment after any existing ones.
    pub fn open(cfg: WalConfig) -> io::Result<Self> {
        Self::open_with(cfg, None)
    }

    /// [`open`](Self::open), publishing every append, sync and rotation
    /// — and the directory syncs of the open itself — through `metrics`.
    pub(crate) fn open_with(cfg: WalConfig, metrics: Option<WalMetrics>) -> io::Result<Self> {
        let created: Vec<PathBuf> = cfg
            .dir
            .ancestors()
            .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
            .map(Path::to_path_buf)
            .collect();
        fs::create_dir_all(&cfg.dir)?;
        // Outermost first: each new directory's entry lives in its parent.
        for dir in created.iter().rev() {
            sync_dir(dir.parent().unwrap_or(Path::new("")), metrics.as_ref())?;
        }
        let next = list_segments(&cfg.dir, cfg.series)?
            .last()
            .map_or(0, |last| last + 1);
        let file = create_segment(&cfg, next, metrics.as_ref())?;
        Ok(Wal {
            cfg,
            seg_index: next,
            seg_len: 0,
            file: BufWriter::new(file),
            since_sync: 0,
            metrics,
        })
    }

    /// Appends one record to the write buffer, rotating first if it
    /// would overflow the active segment. The record reaches the kernel
    /// on the next `flush` (or when the buffer fills)
    /// and stable storage on the next [`sync`](Self::sync).
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
        self.since_sync += 1;
        if let Some(m) = &self.metrics {
            m.appends.inc();
            m.bytes.add(len);
        }
        Ok(())
    }

    /// Flushes buffered writes to the OS without fsyncing — the
    /// per-batch step of a group-committed writer.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    /// A clone of the active segment's file handle, for a group-commit
    /// thread to fsync out-of-band. Must be re-fetched after a
    /// rotation ([`segment_index`](Self::segment_index) changes).
    pub(crate) fn active_file(&self) -> io::Result<File> {
        self.file.get_ref().try_clone()
    }

    /// Flushes and fsyncs the active segment.
    pub fn sync(&mut self) -> io::Result<()> {
        let start = std::time::Instant::now();
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.since_sync = 0;
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
        let file = create_segment(&self.cfg, self.seg_index, self.metrics.as_ref())?;
        self.file = BufWriter::new(file);
        self.seg_len = 0;
        Ok(())
    }

    /// Records appended since this handle's last [`sync`](Self::sync)
    /// (rotation and [`close`](Self::close) sync too). Fsyncs the
    /// group-commit thread issues on an `active_file`
    /// clone do not reset it.
    pub fn pending_sync(&self) -> u32 {
        self.since_sync
    }

    /// Index of the active segment file.
    pub(crate) fn segment_index(&self) -> u64 {
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
    pub(crate) bytes: u64,
}

/// Reads every intact record of one series, in append order across its
/// segments. A missing directory replays as empty.
pub(crate) fn replay_series(dir: &Path, series: Option<u32>) -> io::Result<WalReplay> {
    let mut out = WalReplay::default();
    if !dir.exists() {
        return Ok(out);
    }
    for idx in list_segments(dir, series)? {
        out.segments += 1;
        let mut data = Vec::new();
        File::open(segment_path(dir, series, idx))?.read_to_end(&mut data)?;
        let mut r = Reader::new(&data);
        while r.remaining() > 0 {
            // A short or corrupt record is a torn tail.
            let Some(payload) = next_record(&mut r) else {
                out.torn = true;
                break;
            };
            out.records.push(payload.to_vec());
            out.bytes += payload.len() as u64;
        }
    }
    Ok(out)
}

/// Reads one `len` LE32 · `crc` LE32 · payload record; `None` if it is
/// short, oversized or fails its checksum.
fn next_record<'a>(r: &mut Reader<'a>) -> Option<&'a [u8]> {
    let (len, crc) = (r.u32_le().ok()?, r.u32_le().ok()?);
    if len > MAX_RECORD_LEN {
        return None;
    }
    let payload = r.take(len as usize).ok()?;
    (crc32::checksum(payload) == crc).then_some(payload)
}

/// Replays every series in a WAL directory, using up to `threads`
/// threads (series are independent files, so they replay in parallel):
/// the calling thread and `threads - 1` helpers run one worker loop, so
/// one thread spawns nothing. Results are returned in deterministic
/// series order (the unnumbered series first, then shard series
/// ascending) — the same result at any thread count.
pub fn replay_all(dir: &Path, threads: usize) -> io::Result<Vec<(Option<u32>, WalReplay)>> {
    let series = list_series(dir)?;
    let threads = threads.clamp(1, series.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<io::Result<WalReplay>>>> =
        series.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let Some(s) = series.get(i) else { break };
        *slots[i].lock().unwrap() = Some(replay_series(dir, *s));
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    let filled = slots.into_iter().map(|slot| slot.into_inner().unwrap());
    (series.into_iter().zip(filled))
        .map(|(s, r)| Ok((s, r.expect("the worker loop fills every slot")?)))
        .collect()
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
    fn append_only_buffers_until_the_owner_flushes() {
        let tmp = TempDir::new("wal-buffer").unwrap();
        let mut wal = Wal::open(WalConfig::new(tmp.path())).unwrap();
        for i in 0..3 {
            wal.append(&record(i)).unwrap();
        }
        let seg = segment_path(tmp.path(), None, 0);
        let on_disk = || fs::metadata(&seg).unwrap().len();
        assert_eq!(on_disk(), 0, "append must leave the bytes in the buffer");
        wal.flush().unwrap();
        let written: usize = (0..3).map(|i| RECORD_HEADER + record(i).len()).sum();
        assert_eq!(on_disk(), written as u64);
        assert_eq!(wal.pending_sync(), 3, "a flush is not a sync");
        wal.sync().unwrap();
        assert_eq!(wal.pending_sync(), 0);
        wal.close().unwrap();
        assert_eq!(replay(tmp.path()).unwrap().records.len(), 3);
    }

    /// A new segment's directory entry is made durable: opening into a
    /// new directory syncs it and its parent, each rotation syncs it
    /// once more, and reopening syncs it for the reopen's segment.
    #[test]
    fn new_segments_and_a_created_directory_are_synced() {
        let tmp = TempDir::new("wal-dir-sync").unwrap();
        let m = crate::metrics::CollectorMetrics::new(1, 1, 1).wal_metrics();
        let mut cfg = WalConfig::new(tmp.path().join("journal"));
        cfg.segment_bytes = 64; // force frequent rotation
        let mut wal = Wal::open_with(cfg.clone(), Some(m.clone())).unwrap();
        assert_eq!(m.dir_syncs.value(), 2, "the new directory and its parent");
        assert_eq!(m.syncs.value(), 0, "directory syncs are counted apart");
        for i in 0..40 {
            wal.append(&record(i)).unwrap();
        }
        let rotations = wal.segment_index();
        assert!(rotations > 0, "tiny segments must rotate");
        assert_eq!(m.rotations.value(), rotations);
        assert_eq!(m.dir_syncs.value(), 2 + rotations);
        assert_eq!(m.syncs.value(), rotations, "rotation syncs the old segment");
        wal.close().unwrap();
        Wal::open_with(cfg, Some(m.clone()))
            .unwrap()
            .close()
            .unwrap();
        assert_eq!(m.dir_syncs.value(), 3 + rotations);
    }
}
