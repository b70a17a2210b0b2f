//! Full-store snapshots (the paper's "periodic data flushing").
//!
//! Layout: `MAGIC "SEDNASNP" | row_count: u64 | rows… | crc32(all rows)`.
//! Each row: `key | row_clock | version_count | (ts, value)…` via the
//! shared codec — the row clock carries the dots the row has witnessed
//! *and pruned*, so a recovered replica cannot resurrect dead siblings.
//! Written to a temp file and atomically renamed, so a crash mid-flush
//! leaves the previous snapshot intact.

use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

use sedna_common::{Key, SednaError, SednaResult, Value};
use sedna_memstore::{MemStore, VersionedValue};

use crate::codec::{crc32, Decoder, Encoder};

const MAGIC: &[u8; 8] = b"SEDNASNP";

/// Writes a snapshot of `store` to `path` (atomic replace).
///
/// Returns the number of rows written.
pub fn write_snapshot(path: impl AsRef<Path>, store: &MemStore) -> SednaResult<u64> {
    let path = path.as_ref();
    let mut body = Encoder::new();
    let mut rows = 0u64;
    store.for_each_row(|_, key, snap| {
        body.bytes(key.as_bytes());
        body.context(&snap.clock());
        let versions = snap.as_slice();
        body.u32(versions.len() as u32);
        for v in versions {
            body.timestamp(v.ts);
            body.bytes(v.value.as_bytes());
        }
        rows += 1;
    });
    let body = body.finish();

    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(MAGIC)?;
        f.write_all(&rows.to_le_bytes())?;
        f.write_all(&body)?;
        f.write_all(&crc32(&body).to_le_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(rows)
}

/// Loads a snapshot into `store` by merging (so it composes with WAL replay
/// and with data already present). Returns rows loaded; a missing file
/// loads zero rows.
pub fn load_snapshot(path: impl AsRef<Path>, store: &MemStore) -> SednaResult<u64> {
    let mut bytes = Vec::new();
    match File::open(path.as_ref()) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(SednaError::Io(e)),
    }
    if bytes.len() < MAGIC.len() + 8 + 4 || &bytes[..8] != MAGIC {
        return Err(SednaError::Persistence("bad snapshot header".into()));
    }
    let rows = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let body = &bytes[16..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err(SednaError::Persistence("snapshot checksum mismatch".into()));
    }
    let mut d = Decoder::new(body);
    for _ in 0..rows {
        let key = Key::from_bytes(
            d.bytes()
                .map_err(|_| SednaError::Persistence("truncated snapshot row".into()))?
                .to_vec(),
        );
        let clock = d
            .context()
            .map_err(|_| SednaError::Persistence("truncated snapshot row".into()))?;
        let count = d
            .u32()
            .map_err(|_| SednaError::Persistence("truncated snapshot row".into()))?;
        let mut versions = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let ts = d
                .timestamp()
                .map_err(|_| SednaError::Persistence("truncated snapshot row".into()))?;
            let value = Value::from_bytes(
                d.bytes()
                    .map_err(|_| SednaError::Persistence("truncated snapshot row".into()))?
                    .to_vec(),
            );
            versions.push(VersionedValue { ts, value });
        }
        store.merge_row(&key, &versions, &clock);
    }
    if !d.is_done() {
        return Err(SednaError::Persistence("snapshot trailing garbage".into()));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::{NodeId, Timestamp};
    use sedna_memstore::StoreConfig;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sedna-snap-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn ts(micros: u64, origin: u32) -> Timestamp {
        Timestamp::new(micros, 0, NodeId(origin))
    }

    fn populated_store() -> MemStore {
        let s = MemStore::new(StoreConfig::default());
        for i in 0..50 {
            s.write_latest(
                &Key::from(format!("k{i}")),
                ts(i + 1, 0),
                Value::from(format!("v{i}")),
            );
        }
        s.write_all(&Key::from("multi"), ts(100, 1), Value::from("a"));
        s.write_all(&Key::from("multi"), ts(101, 2), Value::from("b"));
        s
    }

    #[test]
    fn snapshot_roundtrip_restores_everything() {
        let path = tmp("roundtrip");
        let s = populated_store();
        let written = write_snapshot(&path, &s).unwrap();
        assert_eq!(written, 51);
        let restored = MemStore::new(StoreConfig::default());
        let loaded = load_snapshot(&path, &restored).unwrap();
        assert_eq!(loaded, 51);
        assert_eq!(restored.len(), 51);
        assert_eq!(
            restored.read_latest(&Key::from("k7")).unwrap().value,
            Value::from("v7")
        );
        assert_eq!(restored.read_all(&Key::from("multi")).unwrap().len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_merges_with_existing_newer_data() {
        let path = tmp("merge");
        let s = populated_store();
        write_snapshot(&path, &s).unwrap();
        let target = MemStore::new(StoreConfig::default());
        // Newer local value must survive the snapshot load.
        target.write_latest(&Key::from("k0"), ts(1_000, 0), Value::from("newer"));
        load_snapshot(&path, &target).unwrap();
        assert_eq!(
            target.read_latest(&Key::from("k0")).unwrap().value,
            Value::from("newer")
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_snapshot_is_zero_rows() {
        let s = MemStore::new(StoreConfig::default());
        assert_eq!(load_snapshot("/nonexistent/snap", &s).unwrap(), 0);
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let path = tmp("corrupt");
        let s = populated_store();
        write_snapshot(&path, &s).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let target = MemStore::new(StoreConfig::default());
        assert!(matches!(
            load_snapshot(&path, &target),
            Err(SednaError::Persistence(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_header_is_rejected() {
        let path = tmp("header");
        std::fs::write(&path, b"NOTASNAP").unwrap();
        let target = MemStore::new(StoreConfig::default());
        assert!(load_snapshot(&path, &target).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overwrite_is_atomic_previous_snapshot_survives_failed_store() {
        let path = tmp("atomic");
        let s = populated_store();
        write_snapshot(&path, &s).unwrap();
        // Second snapshot with more data overwrites in place.
        s.write_latest(&Key::from("extra"), ts(999, 0), Value::from("x"));
        let rows = write_snapshot(&path, &s).unwrap();
        assert_eq!(rows, 52);
        let restored = MemStore::new(StoreConfig::default());
        assert_eq!(load_snapshot(&path, &restored).unwrap(), 52);
        std::fs::remove_file(&path).unwrap();
    }
}
