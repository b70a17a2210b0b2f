//! The per-node persistence engine: policy + WAL + snapshot + recovery.
//!
//! Table I row "Persistency Strategy: periodically flush or write-ahead
//! logs according users' needs — different speed and availability". The
//! engine is driven by the owning node: `note_write` on every accepted
//! write, `tick` from a periodic timer, `recover` at boot.

use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use sedna_common::time::Micros;
use sedna_common::{CausalContext, Key, SednaResult, Timestamp, Value};
use sedna_memstore::{BatchWrite, MemStore};

use crate::snapshot::{load_snapshot, write_snapshot};
use crate::wal::{Wal, WalRecord};

/// Durability policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistMode {
    /// No durability; replication is the only protection.
    None,
    /// Snapshot the whole store every `interval_micros`.
    Periodic {
        /// Flush interval (µs).
        interval_micros: Micros,
    },
    /// Log each write before acknowledging; snapshot every
    /// `snapshot_interval_micros` to bound replay, truncating the log.
    WriteAhead {
        /// Snapshot interval (µs).
        snapshot_interval_micros: Micros,
    },
}

/// Engine state.
pub struct PersistEngine {
    mode: PersistMode,
    snapshot_path: PathBuf,
    wal: Option<Mutex<Wal>>,
    last_flush: Mutex<Micros>,
    /// Flush/snapshot count (metrics/tests).
    flushes: Mutex<u64>,
    /// Crash-point injection: `Some(n)` tears the WAL frame on the append
    /// after `n` more successful ones (see [`PersistEngine::arm_crash_after`]).
    crash_after: Mutex<Option<u64>>,
    /// Once a crash point fired (or [`PersistEngine::inject_torn_append`]
    /// ran), every further append fails — the simulated process is dead.
    crashed: Mutex<bool>,
}

impl PersistEngine {
    /// Creates the engine rooted at `dir` (created if absent) with the
    /// given policy.
    pub fn new(dir: impl AsRef<Path>, mode: PersistMode) -> SednaResult<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join("store.snapshot");
        let wal = match mode {
            PersistMode::WriteAhead { .. } => Some(Mutex::new(Wal::open(dir.join("store.wal"))?)),
            _ => None,
        };
        Ok(PersistEngine {
            mode,
            snapshot_path,
            wal,
            last_flush: Mutex::new(0),
            flushes: Mutex::new(0),
            crash_after: Mutex::new(None),
            crashed: Mutex::new(false),
        })
    }

    /// The configured policy.
    pub fn mode(&self) -> PersistMode {
        self.mode
    }

    /// Snapshots taken so far.
    pub fn flush_count(&self) -> u64 {
        *self.flushes.lock()
    }

    /// Called on every accepted local write. Under `WriteAhead` this logs
    /// and flushes before returning — the write is durable once this
    /// returns — otherwise it is a no-op.
    pub fn note_write(
        &self,
        key: &Key,
        ts: Timestamp,
        value: &Value,
        ctx: &CausalContext,
        latest: bool,
    ) -> SednaResult<()> {
        let record = if latest {
            WalRecord::WriteLatest {
                key: key.clone(),
                ts,
                value: value.clone(),
                ctx: ctx.clone(),
            }
        } else {
            WalRecord::WriteAll {
                key: key.clone(),
                ts,
                value: value.clone(),
                ctx: ctx.clone(),
            }
        };
        self.append_record(&record)
    }

    /// Called on key removal.
    pub fn note_remove(&self, key: &Key) -> SednaResult<()> {
        self.append_record(&WalRecord::Remove { key: key.clone() })
    }

    fn append_record(&self, record: &WalRecord) -> SednaResult<()> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        if *self.crashed.lock() {
            return Err(crash_error());
        }
        if let Some(n) = self.crash_after.lock().as_mut() {
            if *n == 0 {
                wal.lock().append_torn(record)?;
                *self.crashed.lock() = true;
                return Err(crash_error());
            }
            *n -= 1;
        }
        let mut wal = wal.lock();
        wal.append(record)?;
        wal.sync()?;
        Ok(())
    }

    /// Crash-point injection: writes a torn frame at the current log tail
    /// and marks the engine dead (every later append fails). A nemesis
    /// applies this in the same instant it crashes the owning node, so
    /// recovery replays a mid-append power cut. No-op outside `WriteAhead`.
    pub fn inject_torn_append(&self) -> SednaResult<()> {
        if let Some(wal) = &self.wal {
            wal.lock().append_torn(&WalRecord::Remove {
                key: Key::from("__torn__"),
            })?;
            *self.crashed.lock() = true;
        }
        Ok(())
    }

    /// Arms a deterministic crash point: after `appends` more successful
    /// appends, the next one writes a torn frame, fails, and kills the
    /// engine. Unit-test companion to [`PersistEngine::inject_torn_append`].
    pub fn arm_crash_after(&self, appends: u64) {
        *self.crash_after.lock() = Some(appends);
    }

    /// True once a crash point fired.
    pub fn crashed(&self) -> bool {
        *self.crashed.lock()
    }

    /// Periodic driver: takes a snapshot when the policy's interval has
    /// elapsed. Returns true when a snapshot was written.
    pub fn tick(&self, now: Micros, store: &MemStore) -> SednaResult<bool> {
        let interval = match self.mode {
            PersistMode::None => return Ok(false),
            PersistMode::Periodic { interval_micros } => interval_micros,
            PersistMode::WriteAhead {
                snapshot_interval_micros,
            } => snapshot_interval_micros,
        };
        let mut last = self.last_flush.lock();
        if now.saturating_sub(*last) < interval {
            return Ok(false);
        }
        *last = now;
        drop(last);
        self.flush(store)?;
        Ok(true)
    }

    /// Forces a snapshot now (and truncates the WAL, which the snapshot
    /// subsumes).
    pub fn flush(&self, store: &MemStore) -> SednaResult<()> {
        write_snapshot(&self.snapshot_path, store)?;
        if let Some(wal) = &self.wal {
            wal.lock().truncate()?;
        }
        *self.flushes.lock() += 1;
        Ok(())
    }

    /// Boot-time recovery: loads the snapshot, then replays the WAL on top.
    /// A torn tail (crash mid-append) is truncated away so the log is
    /// clean for post-recovery appends. Returns `(snapshot_rows,
    /// wal_records)`.
    pub fn recover(&self, store: &MemStore) -> SednaResult<(u64, u64)> {
        let rows = load_snapshot(&self.snapshot_path, store)?;
        let mut replayed = 0u64;
        if self.wal.is_some() {
            let wal_path = self.snapshot_path.with_file_name("store.wal");
            let records = Wal::replay(&wal_path)?;
            Wal::repair(&wal_path)?;
            replayed = records.len() as u64;
            for r in records {
                apply_record(store, r);
            }
        }
        Ok((rows, replayed))
    }
}

/// Applies one replayed WAL record to `store`.
fn apply_record(store: &MemStore, record: WalRecord) {
    let (key, ts, value, ctx, latest) = match record {
        WalRecord::WriteLatest {
            key,
            ts,
            value,
            ctx,
        } => (key, ts, value, ctx, true),
        WalRecord::WriteAll {
            key,
            ts,
            value,
            ctx,
        } => (key, ts, value, ctx, false),
        WalRecord::Remove { key } => {
            store.remove(&key);
            return;
        }
    };
    store.write(&BatchWrite {
        key,
        ts,
        value,
        ctx,
        latest,
    });
}

/// The error a dead engine returns for every append: the process hosting
/// it has "crashed", so nothing more reaches the disk.
fn crash_error() -> sedna_common::SednaError {
    sedna_common::SednaError::Io(std::io::Error::other("injected WAL crash point"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::NodeId;
    use sedna_memstore::StoreConfig;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sedna-engine-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn ts(micros: u64) -> Timestamp {
        Timestamp::new(micros, 0, NodeId(0))
    }

    #[test]
    fn none_mode_never_flushes() {
        let dir = tmp_dir("none");
        let e = PersistEngine::new(&dir, PersistMode::None).unwrap();
        let s = MemStore::new(StoreConfig::default());
        s.write_latest(&Key::from("k"), ts(1), Value::from("v"));
        assert!(!e.tick(10_000_000, &s).unwrap());
        assert_eq!(e.flush_count(), 0);
        let fresh = MemStore::new(StoreConfig::default());
        assert_eq!(e.recover(&fresh).unwrap(), (0, 0));
        assert!(fresh.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn periodic_mode_flushes_on_interval_and_recovers() {
        let dir = tmp_dir("periodic");
        let e = PersistEngine::new(
            &dir,
            PersistMode::Periodic {
                interval_micros: 1_000,
            },
        )
        .unwrap();
        let s = MemStore::new(StoreConfig::default());
        s.write_latest(&Key::from("k"), ts(1), Value::from("v"));
        assert!(!e.tick(500, &s).unwrap(), "interval not elapsed");
        assert!(e.tick(1_500, &s).unwrap());
        assert!(!e.tick(1_600, &s).unwrap(), "just flushed");
        assert!(e.tick(3_000, &s).unwrap());
        assert_eq!(e.flush_count(), 2);
        let fresh = MemStore::new(StoreConfig::default());
        let (rows, wal) = e.recover(&fresh).unwrap();
        assert_eq!((rows, wal), (1, 0));
        assert_eq!(
            fresh.read_latest(&Key::from("k")).unwrap().value,
            Value::from("v")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_ahead_recovers_unflushed_writes() {
        let dir = tmp_dir("wal");
        let mode = PersistMode::WriteAhead {
            snapshot_interval_micros: 1_000_000,
        };
        {
            let e = PersistEngine::new(&dir, mode).unwrap();
            let s = MemStore::new(StoreConfig::default());
            for i in 0..10u64 {
                let k = Key::from(format!("k{i}"));
                let v = Value::from(format!("v{i}"));
                s.write_latest(&k, ts(i + 1), v.clone());
                e.note_write(&k, ts(i + 1), &v, &CausalContext::EMPTY, true)
                    .unwrap();
            }
            e.note_remove(&Key::from("k3")).unwrap();
            // No snapshot taken — simulate a crash by dropping everything.
        }
        let e = PersistEngine::new(&dir, mode).unwrap();
        let fresh = MemStore::new(StoreConfig::default());
        let (rows, replayed) = e.recover(&fresh).unwrap();
        assert_eq!(rows, 0, "no snapshot existed");
        assert_eq!(replayed, 11);
        assert_eq!(fresh.len(), 9);
        assert!(!fresh.contains(&Key::from("k3")));
        assert_eq!(
            fresh.read_latest(&Key::from("k9")).unwrap().value,
            Value::from("v9")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_wal_and_recovery_composes_both() {
        let dir = tmp_dir("compose");
        let mode = PersistMode::WriteAhead {
            snapshot_interval_micros: 1_000,
        };
        let e = PersistEngine::new(&dir, mode).unwrap();
        let s = MemStore::new(StoreConfig::default());
        // Phase 1: logged writes, then a snapshot (truncates the log).
        s.write_latest(&Key::from("a"), ts(1), Value::from("1"));
        e.note_write(
            &Key::from("a"),
            ts(1),
            &Value::from("1"),
            &CausalContext::EMPTY,
            true,
        )
        .unwrap();
        assert!(e.tick(2_000, &s).unwrap(), "snapshot taken");
        // Phase 2: more writes after the snapshot, only in the WAL.
        s.write_latest(&Key::from("b"), ts(2), Value::from("2"));
        e.note_write(
            &Key::from("b"),
            ts(2),
            &Value::from("2"),
            &CausalContext::EMPTY,
            true,
        )
        .unwrap();
        // Recover into a fresh store: snapshot row 'a' + wal record 'b'.
        let fresh = MemStore::new(StoreConfig::default());
        let (rows, replayed) = e.recover(&fresh).unwrap();
        assert_eq!((rows, replayed), (1, 1));
        assert!(fresh.contains(&Key::from("a")));
        assert!(fresh.contains(&Key::from("b")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn armed_crash_point_tears_wal_and_recovery_repairs_it() {
        let dir = tmp_dir("crashpoint");
        let mode = PersistMode::WriteAhead {
            snapshot_interval_micros: 1_000_000,
        };
        {
            let e = PersistEngine::new(&dir, mode).unwrap();
            e.arm_crash_after(2);
            for i in 0..2u64 {
                let k = Key::from(format!("k{i}"));
                e.note_write(
                    &k,
                    ts(i + 1),
                    &Value::from("v"),
                    &CausalContext::EMPTY,
                    true,
                )
                .unwrap();
            }
            // Third append hits the crash point: torn frame, engine dead.
            let torn = e.note_write(
                &Key::from("k2"),
                ts(3),
                &Value::from("v"),
                &CausalContext::EMPTY,
                true,
            );
            assert!(torn.is_err());
            assert!(e.crashed());
            assert!(
                e.note_write(
                    &Key::from("k3"),
                    ts(4),
                    &Value::from("v"),
                    &CausalContext::EMPTY,
                    true
                )
                .is_err(),
                "a crashed engine stays dead"
            );
        }
        // Recovery sees only the two intact records and repairs the tail.
        let e = PersistEngine::new(&dir, mode).unwrap();
        let fresh = MemStore::new(StoreConfig::default());
        let (rows, replayed) = e.recover(&fresh).unwrap();
        assert_eq!((rows, replayed), (0, 2));
        assert!(!fresh.contains(&Key::from("k2")), "torn write never lands");
        // Post-recovery appends must survive a *second* recovery — this is
        // what the tail repair buys.
        e.note_write(
            &Key::from("after"),
            ts(9),
            &Value::from("v"),
            &CausalContext::EMPTY,
            true,
        )
        .unwrap();
        let again = MemStore::new(StoreConfig::default());
        let (_, replayed2) = PersistEngine::new(&dir, mode)
            .unwrap()
            .recover(&again)
            .unwrap();
        assert_eq!(replayed2, 3);
        assert!(again.contains(&Key::from("after")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inject_torn_append_kills_engine_without_losing_prefix() {
        let dir = tmp_dir("inject");
        let mode = PersistMode::WriteAhead {
            snapshot_interval_micros: 1_000_000,
        };
        {
            let e = PersistEngine::new(&dir, mode).unwrap();
            e.note_write(
                &Key::from("a"),
                ts(1),
                &Value::from("1"),
                &CausalContext::EMPTY,
                true,
            )
            .unwrap();
            e.inject_torn_append().unwrap();
            assert!(e.crashed());
        }
        let fresh = MemStore::new(StoreConfig::default());
        let e = PersistEngine::new(&dir, mode).unwrap();
        let (_, replayed) = e.recover(&fresh).unwrap();
        assert_eq!(replayed, 1, "intact prefix survives the torn tail");
        assert!(fresh.contains(&Key::from("a")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_all_records_preserve_value_lists() {
        let dir = tmp_dir("writeall");
        let mode = PersistMode::WriteAhead {
            snapshot_interval_micros: 1_000_000,
        };
        let e = PersistEngine::new(&dir, mode).unwrap();
        let k = Key::from("list");
        e.note_write(
            &k,
            Timestamp::new(1, 0, NodeId(1)),
            &Value::from("s1"),
            &CausalContext::EMPTY,
            false,
        )
        .unwrap();
        e.note_write(
            &k,
            Timestamp::new(2, 0, NodeId(2)),
            &Value::from("s2"),
            &CausalContext::EMPTY,
            false,
        )
        .unwrap();
        let fresh = MemStore::new(StoreConfig::default());
        e.recover(&fresh).unwrap();
        assert_eq!(fresh.read_all(&k).unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
