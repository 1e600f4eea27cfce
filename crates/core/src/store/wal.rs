//! The per-shard write-ahead log of a durable store: its records, replay
//! with its verification against the disk, and compaction into snapshots
//! (module docs of [`crate::store`], "Durability"). The file itself is a
//! [`Log`].

use super::format::{sig_file_name, TempFile};
use super::index::Shard;
use super::{Durability, IntermediateStore, RecoveryInfo};
use crate::log::Log;
use crate::Result;
use helix_dataflow::fx::FxHashMap;
use helix_json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

pub(super) fn wal_record_put(sig: u64, bytes: u64, secs: f64) -> String {
    Json::obj([
        ("v", Json::Num(1.0)),
        ("op", Json::str("put")),
        ("sig", Json::str(format!("{sig:016x}"))),
        ("bytes", Json::Num(bytes as f64)),
        ("secs", Json::Num(secs)),
        ("file", Json::str(sig_file_name(sig))),
    ])
    .to_string()
}

pub(super) fn wal_record_evict(sig: u64) -> String {
    Json::obj([
        ("v", Json::Num(1.0)),
        ("op", Json::str("evict")),
        ("sig", Json::str(format!("{sig:016x}"))),
    ])
    .to_string()
}

/// Replays every log under `wal_dir` against the store's files, `files`
/// (id → bytes on disk). The last record per file wins, and a torn or
/// corrupt record is skipped with a warning (truncate-and-warn). The
/// files are the ground truth the index is built from, so replay only
/// counts in `recovery` how the log disagreed with them: logged files
/// that are gone (dropped), logged sizes that differ (repaired to the
/// file's) and files the log missed (adopted).
pub(super) fn replay(
    wal_dir: &Path,
    files: &FxHashMap<u64, u64>,
    recovery: &mut RecoveryInfo,
) -> Result<()> {
    let mut wal_files: Vec<PathBuf> = std::fs::read_dir(wal_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("wal"))
        .collect();
    wal_files.sort();
    let mut logged = FxHashMap::default();
    for path in &wal_files {
        let (records, bytes) = Log::replay(path)?;
        recovery.wal_bytes_replayed += bytes;
        for record in records {
            let field = |key| record.as_ref().and_then(|r| r.get(key));
            let sig = field("sig")
                .and_then(Json::as_str)
                .and_then(|hex| u64::from_str_radix(hex, 16).ok());
            let bytes = field("bytes").and_then(Json::as_u64);
            match (field("op").and_then(Json::as_str), sig, bytes) {
                (Some("put"), Some(sig), Some(bytes)) => {
                    logged.insert(sig, bytes);
                }
                (Some("evict"), Some(sig), _) => {
                    logged.remove(&sig);
                }
                _ => {
                    recovery.torn_records += 1;
                    eprintln!(
                        "helix-store: dropping a torn, corrupt or unrecognized WAL record \
                         in {} (truncate-and-warn)",
                        path.display()
                    );
                }
            }
        }
    }
    for (&sig, &logged_bytes) in &logged {
        match files.get(&sig) {
            Some(&bytes) if bytes != logged_bytes => {
                recovery.repaired_sizes += 1;
                eprintln!(
                    "helix-store: WAL size for {sig:016x} was {logged_bytes}, \
                     file is {bytes} bytes; using the file"
                );
            }
            Some(_) => {}
            None => {
                recovery.dropped_entries += 1;
                eprintln!("helix-store: dropping WAL entry {sig:016x}: file missing");
            }
        }
    }
    recovery.adopted_files = files.keys().filter(|id| !logged.contains_key(id)).count();
    Ok(())
}

impl IntermediateStore {
    /// Rewrites shard `idx`'s WAL as a snapshot — exactly one `put`
    /// record per live file — via temp file + rename, then reopens the
    /// append handle. Must be called with the shard's lock held.
    pub(super) fn compact_shard_locked(&self, idx: usize, shard: &mut Shard) -> Result<()> {
        let Some(wal_dir) = &self.inner.wal_dir else {
            return Ok(());
        };
        let fsync = matches!(self.inner.durability, Durability::Wal { fsync: true, .. });
        let path = wal_dir.join(format!("shard-{idx}.wal"));
        let mut text = String::new();
        for (&id, meta) in &shard.files {
            text.push_str(&wal_record_put(id, meta.bytes, 0.0));
            text.push('\n');
        }
        TempFile::write(&path, text.as_bytes(), fsync)?.commit(&path)?;
        shard.wal = Some(Log::open(&path, fsync)?);
        self.inner
            .last_snapshot_unix
            .store(unix_now(), Ordering::Release);
        Ok(())
    }

    /// Compacts every shard's WAL into a snapshot now and removes log
    /// files left over from older shard layouts. A no-op `Ok(())` for
    /// volatile stores. (`POST /admin/snapshot` lands here.)
    pub fn snapshot_now(&self) -> Result<()> {
        let Some(wal_dir) = &self.inner.wal_dir else {
            return Ok(());
        };
        for (idx, slot) in self.inner.shards.iter().enumerate() {
            let mut shard = slot.lock();
            self.compact_shard_locked(idx, &mut shard)?;
        }
        // Stale files (e.g. `shard-7.wal` after reopening with 4 shards)
        // are only removed after every live shard has a fresh snapshot:
        // a crash in between leaves extra logs whose records deduplicate
        // harmlessly on the next replay.
        let live: Vec<String> = (0..self.inner.shards.len())
            .map(|i| format!("shard-{i}.wal"))
            .collect();
        for entry in std::fs::read_dir(wal_dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".wal") && !live.iter().any(|l| l == name) {
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(())
    }

    /// Appends a WAL record for the shard, warning instead of failing:
    /// the file map and the files on disk are already consistent, and
    /// replay verification self-heals a lost record (the file is the
    /// ground truth), so a log write error must not fail the operation.
    /// `sync: false` skips the fsync for a record whose loss replay
    /// repairs from the disk alone (a shrink's rewrite).
    pub(super) fn wal_append_locked(
        &self,
        idx: usize,
        shard: &mut Shard,
        record: &str,
        sync: bool,
    ) {
        let Durability::Wal {
            compact_after_bytes,
            ..
        } = self.inner.durability
        else {
            return;
        };
        #[cfg(test)]
        if self.inner.fail_skip_wal_append.load(Ordering::Relaxed) {
            return;
        }
        let Some(wal) = shard.wal.as_mut() else {
            eprintln!("helix-store: WAL writer missing for shard {idx}");
            return;
        };
        if let Err(err) = wal.append(record, sync) {
            eprintln!(
                "helix-store: WAL append failed for shard {idx}: {err} (entry is on \
                 disk; replay will adopt it)"
            );
        }
        if wal.bytes() > compact_after_bytes {
            if let Err(err) = self.compact_shard_locked(idx, shard) {
                eprintln!("helix-store: WAL compaction failed for shard {idx}: {err}");
            }
        }
    }
}
