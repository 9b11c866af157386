//! WAL group commit: one dedicated thread aggregates fsyncs across all
//! fold workers' WAL series.
//!
//! A bare [`Wal`](crate::Wal) applies `FsyncPolicy::EveryN` per handle:
//! every N-th append pays a blocking `fsync` on the appending thread.
//! The fold workers instead open their WALs in deferred-sync mode
//! ([`crate::WalConfig::deferred_sync`]): a worker only `flush()`es per
//! ingest batch and credits the group-commit thread with the records
//! appended, and the thread fsyncs *every registered segment file at
//! once* when the global (cross-shard, cross-connection) counter
//! reaches N. One thread absorbs all fsync latency, the fold threads
//! never block on the disk, and the worst-case loss window stays N
//! records — counted across the whole collector instead of per stream.
//!
//! Under [`FsyncPolicy::Always`](crate::FsyncPolicy) workers instead
//! call [`GroupCommitHandle::sync_now`] and wait for the ticket before
//! acking, so acked ⇒ fsynced holds even though the fsync itself runs
//! on the sync thread — the property the durability tests crash the
//! sync thread to probe — and concurrent batches coalesce into shared
//! fsync cycles.

use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

enum SyncReq {
    /// (Re-)register shard `k`'s active segment file; replaces any
    /// previous handle for `k` (rotation).
    Register { shard: u32, file: File },
    /// `n` records were appended (and flushed) by some shard.
    Appended { n: u32 },
    /// Fsync everything now and report; the ticket a worker waits on
    /// before acking under `FsyncPolicy::Always`.
    SyncNow { done: Sender<io::Result<()>> },
    /// Test hook: die without syncing, as a crashed sync thread would.
    Crash,
    /// Final sync, report, exit.
    Stop { done: Sender<io::Result<()>> },
}

/// A worker-side handle to the group-commit thread. Cheap to clone;
/// every call returns `false`/`Err` once the thread is gone (crashed or
/// stopped), which callers must treat as a durability fault.
#[derive(Clone)]
pub struct GroupCommitHandle {
    tx: Sender<SyncReq>,
}

impl GroupCommitHandle {
    /// Registers (or, after a rotation, replaces) shard `k`'s active
    /// segment file.
    pub fn register(&self, shard: u32, file: File) -> bool {
        self.tx.send(SyncReq::Register { shard, file }).is_ok()
    }

    /// Credits `n` appended-and-flushed records toward the global
    /// EveryN counter.
    pub fn appended(&self, n: u32) -> bool {
        self.tx.send(SyncReq::Appended { n }).is_ok()
    }

    /// Fsyncs every registered file and returns once done — the
    /// blocking ticket for `FsyncPolicy::Always`.
    pub fn sync_now(&self) -> io::Result<()> {
        let (done_tx, done_rx) = channel();
        self.tx
            .send(SyncReq::SyncNow { done: done_tx })
            .map_err(|_| io::Error::other("group-commit thread is gone"))?;
        done_rx
            .recv()
            .map_err(|_| io::Error::other("group-commit thread died mid-sync"))?
    }

    /// Test hook: makes the sync thread exit immediately *without* a
    /// final sync, as a crash would.
    pub fn crash(&self) {
        let _ = self.tx.send(SyncReq::Crash);
    }
}

/// The owning side of the group-commit thread.
pub struct GroupCommit {
    handle: GroupCommitHandle,
    join: Option<JoinHandle<u64>>,
}

impl GroupCommit {
    /// Spawns the sync thread. `every` is the global record cadence
    /// (`u32::MAX` effectively never syncs on cadence — the
    /// `FsyncPolicy::Never` analogue; explicit `sync_now`/`stop` still
    /// sync). The registry handles publish fsync count and latency.
    pub fn start(
        every: u32,
        (syncs_total, fsync_nanos): (cpvr_obs::Counter, cpvr_obs::Histogram),
    ) -> Self {
        let (tx, rx) = channel::<SyncReq>();
        let every = every.max(1);
        let join = std::thread::Builder::new()
            .name("cpvr-wal-sync".into())
            .spawn(move || {
                let mut files: HashMap<u32, File> = HashMap::new();
                let mut pending: u64 = 0;
                let mut syncs: u64 = 0;
                let mut latched: Option<io::Error> = None;
                let sync_all = |files: &HashMap<u32, File>,
                                syncs: &mut u64,
                                latched: &mut Option<io::Error>|
                 -> io::Result<()> {
                    let start = std::time::Instant::now();
                    let mut result = Ok(());
                    for f in files.values() {
                        if let Err(e) = f.sync_data() {
                            if latched.is_none() {
                                *latched = Some(io::Error::new(e.kind(), e.to_string()));
                            }
                            result = Err(e);
                            break;
                        }
                    }
                    *syncs += 1;
                    syncs_total.inc();
                    fsync_nanos.observe_since(start);
                    result
                };
                while let Ok(req) = rx.recv() {
                    match req {
                        SyncReq::Register { shard, file } => {
                            files.insert(shard, file);
                        }
                        SyncReq::Appended { n } => {
                            pending += n as u64;
                            if pending >= every as u64 {
                                let _ = sync_all(&files, &mut syncs, &mut latched);
                                pending = 0;
                            }
                        }
                        SyncReq::SyncNow { done } => {
                            let r = sync_all(&files, &mut syncs, &mut latched);
                            pending = 0;
                            let _ = done.send(r);
                        }
                        SyncReq::Crash => return syncs,
                        SyncReq::Stop { done } => {
                            let r = if pending > 0 || latched.is_none() {
                                sync_all(&files, &mut syncs, &mut latched)
                            } else {
                                Ok(())
                            };
                            let _ = done.send(match (r, latched.take()) {
                                (Err(e), _) => Err(e),
                                (Ok(()), Some(e)) => Err(e),
                                (Ok(()), None) => Ok(()),
                            });
                            return syncs;
                        }
                    }
                }
                syncs
            })
            .expect("spawn group-commit thread");
        GroupCommit {
            handle: GroupCommitHandle { tx },
            join: Some(join),
        }
    }

    /// A clonable worker-side handle.
    pub fn handle(&self) -> GroupCommitHandle {
        self.handle.clone()
    }

    /// Final sync, then join. Returns the total group fsyncs issued, or
    /// the first latched sync error. A crashed thread reports as an
    /// error (its final sync never happened).
    pub fn stop(mut self) -> io::Result<u64> {
        let (done_tx, done_rx) = channel();
        let send_ok = self.handle.tx.send(SyncReq::Stop { done: done_tx }).is_ok();
        let result = if send_ok {
            done_rx
                .recv()
                .map_err(|_| io::Error::other("group-commit thread died before final sync"))
                .and_then(|r| r)
        } else {
            Err(io::Error::other(
                "group-commit thread crashed before shutdown",
            ))
        };
        let syncs = self
            .join
            .take()
            .expect("joined once")
            .join()
            .unwrap_or_default();
        result.map(|()| syncs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{replay_series, TempDir, Wal, WalConfig};
    use crate::FsyncPolicy;

    fn deferred_wal(dir: &std::path::Path, shard: u32) -> Wal {
        let mut cfg = WalConfig::new(dir).for_series(shard);
        cfg.deferred_sync = true;
        cfg.fsync = FsyncPolicy::EveryN(4);
        Wal::open(cfg).unwrap()
    }

    /// Fsync count and latency handles from a throwaway registry.
    fn sync_metrics() -> (cpvr_obs::Counter, cpvr_obs::Histogram) {
        let r = cpvr_obs::MetricsRegistry::new();
        (
            r.counter("syncs", "fsyncs"),
            r.histogram("fsync", "fsync latency"),
        )
    }

    #[test]
    fn cadence_spans_all_registered_series() {
        let tmp = TempDir::new("gc-cadence").unwrap();
        let mut w0 = deferred_wal(tmp.path(), 0);
        let mut w1 = deferred_wal(tmp.path(), 1);
        let gc = GroupCommit::start(4, sync_metrics());
        let h = gc.handle();
        assert!(h.register(0, w0.active_file().unwrap()));
        assert!(h.register(1, w1.active_file().unwrap()));
        // 3 appends on shard 0 + 2 on shard 1 cross the global cadence
        // of 4 even though neither shard alone does.
        for i in 0..3 {
            w0.append(format!("a{i}").as_bytes()).unwrap();
        }
        w0.flush().unwrap();
        assert!(h.appended(3));
        for i in 0..2 {
            w1.append(format!("b{i}").as_bytes()).unwrap();
        }
        w1.flush().unwrap();
        assert!(h.appended(2));
        let syncs = gc.stop().unwrap();
        assert!(syncs >= 2, "cadence sync plus final sync, got {syncs}");
        w0.close().unwrap();
        w1.close().unwrap();
        assert_eq!(replay_series(tmp.path(), Some(0)).unwrap().records.len(), 3);
        assert_eq!(replay_series(tmp.path(), Some(1)).unwrap().records.len(), 2);
    }

    #[test]
    fn sync_now_ticket_fails_after_crash() {
        let gc = GroupCommit::start(1024, sync_metrics());
        let h = gc.handle();
        assert!(h.sync_now().is_ok());
        h.crash();
        assert!(
            h.sync_now().is_err(),
            "a ticket must never report durability a dead sync thread cannot provide"
        );
        assert!(!h.appended(1));
        assert!(gc.stop().is_err(), "crash must surface at shutdown");
    }
}
