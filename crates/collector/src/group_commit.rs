//! WAL group commit: one dedicated thread applies the
//! [`FsyncPolicy`] across all fold workers' WAL series.
//!
//! A [`Wal`](crate::Wal) only frames and buffers; this is the one place
//! that knows what a policy means. A worker flushes each ingest batch
//! and [`commit`](GroupCommitHandle::commit)s the records it appended,
//! and the thread fsyncs *every registered segment file at once*:
//!
//! * under `EveryN(n)` when the global (cross-shard, cross-connection)
//!   count of committed records reaches `n` — the commit is a credit,
//!   the fold threads never block on the disk, and the worst-case loss
//!   window stays `n` records counted across the whole collector;
//! * under `Always` on every commit, which blocks until that fsync is
//!   done, so an ack follows its fsync even though the fsync itself runs
//!   on the sync thread — the property the durability tests crash the
//!   sync thread to probe — and concurrent batches coalesce into shared
//!   fsync cycles;
//! * under `Never` only at [`stop`](GroupCommit::stop).
//!
//! Rotation and [`Wal::close`](crate::Wal::close) sync inline whatever
//! the policy, so a segment a writer has left is always durable.

use crate::FsyncPolicy;
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;

enum SyncReq {
    /// (Re-)register shard `k`'s active segment file; replaces any
    /// previous handle for `k` (rotation).
    Register { shard: u32, file: File },
    /// `n` records were appended and flushed by some shard; `done` is
    /// the ticket an `Always` commit waits on.
    Commit {
        n: u32,
        done: Option<Sender<io::Result<()>>>,
    },
    /// Test hook: die without syncing, as a crashed sync thread would.
    Crash,
    /// Final sync, report, exit.
    Stop { done: Sender<io::Result<()>> },
}

/// A worker-side handle to the group-commit thread. Cheap to clone;
/// every call fails once the thread is gone (crashed or stopped),
/// which callers must treat as a durability fault.
#[derive(Clone)]
pub struct GroupCommitHandle {
    tx: Sender<SyncReq>,
    policy: FsyncPolicy,
}

fn gone() -> io::Error {
    io::Error::other("group-commit thread is gone")
}

impl GroupCommitHandle {
    /// Registers (or, after a rotation, replaces) shard `k`'s active
    /// segment file.
    pub(crate) fn register(&self, shard: u32, file: File) -> io::Result<()> {
        self.tx
            .send(SyncReq::Register { shard, file })
            .map_err(|_| gone())
    }

    /// Commits `n` appended-and-flushed records: under `Always`, returns
    /// once every registered file is fsynced; otherwise a cadence credit
    /// that returns at once.
    pub(crate) fn commit(&self, n: u32) -> io::Result<()> {
        if self.policy != FsyncPolicy::Always {
            return self
                .tx
                .send(SyncReq::Commit { n, done: None })
                .map_err(|_| gone());
        }
        let (done, ticket) = channel();
        self.tx
            .send(SyncReq::Commit {
                n,
                done: Some(done),
            })
            .map_err(|_| gone())?;
        ticket
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
pub(crate) struct GroupCommit {
    handle: GroupCommitHandle,
    join: JoinHandle<()>,
}

impl GroupCommit {
    /// Spawns the sync thread applying `policy`. The registry handles
    /// count and time its fsyncs.
    pub(crate) fn start(
        policy: FsyncPolicy,
        (syncs, fsync_nanos): (cpvr_obs::Counter, cpvr_obs::Histogram),
    ) -> Self {
        let (tx, rx) = channel::<SyncReq>();
        // Whether `pending` committed records are due an fsync.
        let due = move |pending: u64| match policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => pending >= u64::from(n.max(1)),
            FsyncPolicy::Never => false,
        };
        let join = std::thread::Builder::new()
            .name("cpvr-wal-sync".into())
            .spawn(move || {
                let mut files: HashMap<u32, File> = HashMap::new();
                let mut pending: u64 = 0;
                let mut latched: Option<io::Error> = None;
                // Fsyncs every file, latching the first error for `stop`.
                let sync_all = |files: &HashMap<u32, File>, latched: &mut Option<io::Error>| {
                    let start = std::time::Instant::now();
                    let result = files.values().try_for_each(File::sync_data);
                    if let (Err(e), None) = (&result, &latched) {
                        *latched = Some(io::Error::new(e.kind(), e.to_string()));
                    }
                    syncs.inc();
                    fsync_nanos.observe_since(start);
                    result
                };
                while let Ok(req) = rx.recv() {
                    match req {
                        SyncReq::Register { shard, file } => {
                            files.insert(shard, file);
                        }
                        SyncReq::Commit { n, done } => {
                            pending += u64::from(n);
                            let r = if due(pending) {
                                pending = 0;
                                sync_all(&files, &mut latched)
                            } else {
                                Ok(())
                            };
                            if let Some(done) = done {
                                let _ = done.send(r);
                            }
                        }
                        SyncReq::Crash => return,
                        SyncReq::Stop { done } => {
                            let r = if pending > 0 || latched.is_none() {
                                sync_all(&files, &mut latched)
                            } else {
                                Ok(())
                            };
                            let _ = done.send(r.and(latched.take().map_or(Ok(()), Err)));
                            return;
                        }
                    }
                }
            })
            .expect("spawn group-commit thread");
        GroupCommit {
            handle: GroupCommitHandle { tx, policy },
            join,
        }
    }

    /// A clonable worker-side handle.
    pub(crate) fn handle(&self) -> GroupCommitHandle {
        self.handle.clone()
    }

    /// Final sync, then join. Returns the first latched sync error; a
    /// crashed thread reports as an error (its final sync never
    /// happened).
    pub(crate) fn stop(self) -> io::Result<()> {
        let (done_tx, done_rx) = channel();
        let result = match self.handle.tx.send(SyncReq::Stop { done: done_tx }) {
            Ok(()) => done_rx
                .recv()
                .map_err(|_| io::Error::other("group-commit thread died before final sync"))
                .and_then(|r| r),
            Err(_) => Err(io::Error::other(
                "group-commit thread crashed before shutdown",
            )),
        };
        let _ = self.join.join();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{replay_series, wait_for, TempDir, Wal, WalConfig};
    use std::time::Duration;

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
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::EveryN(4),
            FsyncPolicy::Never,
        ] {
            let tmp = TempDir::new("gc-cadence").unwrap();
            let mut w0 = Wal::open(WalConfig {
                series: Some(0),
                ..WalConfig::new(tmp.path())
            })
            .unwrap();
            let mut w1 = Wal::open(WalConfig {
                series: Some(1),
                ..WalConfig::new(tmp.path())
            })
            .unwrap();
            let (syncs, fsync_nanos) = sync_metrics();
            let gc = GroupCommit::start(policy, (syncs.clone(), fsync_nanos));
            let h = gc.handle();
            h.register(0, w0.active_file().unwrap()).unwrap();
            h.register(1, w1.active_file().unwrap()).unwrap();
            // 3 appends on shard 0 + 2 on shard 1 cross the global
            // cadence of 4 even though neither shard alone does.
            for (i, (w, n)) in [(&mut w0, 3), (&mut w1, 2)].into_iter().enumerate() {
                for r in 0..n {
                    w.append(format!("{i}-{r}").as_bytes()).unwrap();
                }
                w.flush().unwrap();
                h.commit(n).unwrap();
                if policy == FsyncPolicy::Always {
                    assert_eq!(
                        syncs.value(),
                        i as u64 + 1,
                        "an Always commit returns fsynced"
                    );
                }
            }
            if policy == FsyncPolicy::EveryN(4) {
                assert!(
                    wait_for(Duration::from_secs(5), || syncs.value() >= 1),
                    "five credits over two series must cross EveryN(4)"
                );
            }
            // Commits are processed in order, so the count at stop says
            // how many fsyncs the commits themselves issued.
            gc.stop().unwrap();
            let expected = match policy {
                FsyncPolicy::Always => 3,
                FsyncPolicy::EveryN(_) => 2,
                FsyncPolicy::Never => 1,
            };
            assert_eq!(
                syncs.value(),
                expected,
                "{policy:?}: commits plus the final sync"
            );
            w0.close().unwrap();
            w1.close().unwrap();
            assert_eq!(replay_series(tmp.path(), Some(0)).unwrap().records.len(), 3);
            assert_eq!(replay_series(tmp.path(), Some(1)).unwrap().records.len(), 2);
        }
    }

    #[test]
    fn commit_fails_after_crash() {
        let gc = GroupCommit::start(FsyncPolicy::Always, sync_metrics());
        let h = gc.handle();
        assert!(h.commit(1).is_ok());
        h.crash();
        assert!(
            h.commit(1).is_err(),
            "a ticket must never report durability a dead sync thread cannot provide"
        );
        // The failed ticket saw the thread gone, so a credit fails too.
        let credit = GroupCommitHandle {
            policy: FsyncPolicy::EveryN(1024),
            ..h
        };
        assert!(credit.commit(1).is_err());
        assert!(gc.stop().is_err(), "crash must surface at shutdown");
    }
}
