//! The key → location index and the budget ledger: which file holds
//! each key's bytes, what each file costs, and the reservations in-flight
//! puts hold (module docs of [`crate::store`], "Sharding").

use super::format::{read_head, sig_file_name, FileKey, StoreFile};
use super::{IntermediateStore, RecoveryInfo};
use crate::signature::Signature;
use crate::{HelixError, Result};
use helix_dataflow::fx::FxHashMap;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Where one key's bytes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Loc {
    /// Id of the file (named `<id>.hlx`).
    pub(super) file: u64,
    /// The file's incarnation this location belongs to (an overwrite of
    /// the same id starts a new one).
    pub(super) gen: u64,
    /// Row group within the file; `None` for the whole output.
    pub(super) group: Option<u32>,
    /// Bytes a read of this location returns.
    pub(super) bytes: u64,
}

/// One file on disk.
#[derive(Debug, Clone)]
pub(super) struct FileMeta {
    /// On-disk size — the file's whole share of the budget ledger.
    pub(super) bytes: u64,
    /// Incarnation, matched against [`Loc::gen`].
    pub(super) gen: u64,
    /// Keys still pointing here; the file is deleted when this hits 0.
    pub(super) live: usize,
    /// Keys of a manifest's external groups, in file order (empty for
    /// every other file). They hold no share of this file: the whole
    /// output reads as missing once any of them has no location.
    pub(super) refs: Arc<[u64]>,
}

/// One shard of the key and file maps.
#[derive(Debug, Default)]
pub(super) struct Shard {
    /// Keys hashing to this shard → their locations, oldest first.
    pub(super) keys: FxHashMap<u64, Vec<Loc>>,
    /// Files whose id hashes to this shard (visible to readers through
    /// their keys only once fully written and renamed).
    pub(super) files: FxHashMap<u64, FileMeta>,
    /// Budget reserved by in-flight `put` calls, keyed by file id.
    /// Invisible to readers and to `evict` — a reservation becomes a
    /// file only once it is fully written and renamed.
    pub(super) reserved: FxHashMap<u64, u64>,
}

impl Shard {
    /// The external keys of the manifest that whole-output location `loc`
    /// reads, from the shard holding its key — a whole output's key is
    /// its file's id, so the file's entry is in the same shard. `None`
    /// for a group location and for every other file.
    pub(super) fn manifest_refs(&self, loc: Loc) -> Option<Arc<[u64]>> {
        let meta = self.files.get(&loc.file)?;
        (loc.group.is_none() && meta.gen == loc.gen && !meta.refs.is_empty())
            .then(|| Arc::clone(&meta.refs))
    }

    /// The bytes of the file key `key` is the only key of, when `key` is
    /// a whole output with one location — a whole output's key is its
    /// file's id, so the file's entry is in the key's shard.
    pub(super) fn sole_file_bytes(&self, key: u64) -> Option<u64> {
        let [loc] = self.keys.get(&key)?.as_slice() else {
            return None;
        };
        let meta = self.files.get(&loc.file)?;
        (loc.group.is_none() && loc.file == key && meta.gen == loc.gen && meta.live == 1)
            .then_some(meta.bytes)
    }
}

/// Maps a signature to a shard index. Signatures are already Merkle
/// hashes, but the multiply-shift spreads any residual structure (e.g.
/// test signatures 1, 2, 3, …) across shards.
pub(super) fn shard_index(sig: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mixed = sig.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((mixed >> 32) as usize) % shards
}

/// Lists file `id` (incarnation `gen`) as a location of each of `keys`,
/// with the group each reads and its bytes.
pub(super) fn publish(shards: &[Mutex<Shard>], id: u64, gen: u64, keys: Vec<FileKey>) {
    for (key, group, bytes) in keys {
        let mut shard = shards[shard_index(key, shards.len())].lock();
        let loc = Loc {
            file: id,
            gen,
            group,
            bytes,
        };
        shard.keys.entry(key).or_default().push(loc);
    }
}

/// Indexes the files of `dir`, id → bytes each, from their heads: every
/// file's keys and refs, split across `shard_count` shards. Returns the
/// shards, the bytes the files hold and the last incarnation number
/// handed out. An unreadable chunk-only file is deleted and counted in
/// `recovery`; every other file is counted as adopted.
pub(super) fn index_files(
    dir: &Path,
    files: FxHashMap<u64, u64>,
    shard_count: usize,
    recovery: &mut RecoveryInfo,
) -> (Box<[Mutex<Shard>]>, u64, u64) {
    let shards: Box<[Mutex<Shard>]> = (0..shard_count).map(|_| Mutex::default()).collect();
    let (mut used, mut gen) = (0, 0);
    let mut files: Vec<(u64, u64)> = files.into_iter().collect();
    // A key held by several files lists them in a reproducible order.
    files.sort_unstable();
    for (id, bytes) in files {
        let path = dir.join(sig_file_name(id));
        let mut head = Vec::new();
        let parsed = std::fs::File::open(&path)
            .map_err(HelixError::from)
            .and_then(|mut file| read_head(&mut file, bytes, &mut head))
            .and_then(|()| StoreFile::parse(&head));
        let file = match parsed {
            Ok(file) => file,
            // An unreadable file still occupies its bytes and answers to
            // its name; the first read finds it corrupt and drops it. A
            // chunk-only file has no name to answer to.
            Err(err) => {
                let file = StoreFile::unreadable(&head);
                if !file.node {
                    eprintln!("helix-store: dropping unreadable chunk file {id:016x}: {err}");
                    recovery.dropped_entries += 1;
                    let _ = std::fs::remove_file(&path);
                    continue;
                }
                file
            }
        };
        let keys = file.keys(id, bytes);
        recovery.adopted_files += 1;
        gen += 1;
        let meta = FileMeta {
            bytes,
            gen,
            live: keys.len(),
            refs: file.refs(),
        };
        shards[shard_index(id, shard_count)]
            .lock()
            .files
            .insert(id, meta);
        used += bytes;
        publish(&shards, id, gen, keys);
    }
    (shards, used, gen)
}

impl IntermediateStore {
    pub(super) fn slot(&self, id: u64) -> &Mutex<Shard> {
        &self.inner.shards[shard_index(id, self.inner.shards.len())]
    }

    /// The bytes evicting `sig` frees, if it is a resident (see
    /// [`residents`](Self::residents)).
    fn resident_bytes(&self, sig: Signature) -> Option<u64> {
        self.slot(sig.0).lock().sole_file_bytes(sig.0)
    }

    /// Reserves `size` bytes of the ledger for file `id` (in shard `idx`),
    /// evicting the keys of `displace` in order, each only while the file
    /// still does not fit (see
    /// [`put_grouped`](IntermediateStore::put_grouped)).
    pub(super) fn reserve(
        &self,
        idx: usize,
        id: u64,
        size: u64,
        displace: &[Signature],
    ) -> Result<()> {
        let over_budget = || {
            HelixError::Store(format!(
                "materializing {size} bytes would exceed the {}-byte budget ({} used)",
                self.inner.budget_bytes,
                self.used_bytes()
            ))
        };
        let mut victims = displace.iter().copied().filter(|v| v.0 != id);
        let mut room_checked = false;
        loop {
            let mut shard = self.inner.shards[idx].lock();
            if shard.reserved.contains_key(&id) {
                // Two in-flight puts of one file would race the rename.
                // One run's plan-order merge never does this, but two
                // concurrent sessions materializing the same workflow
                // can: both pass the engine's lookup-before-put check,
                // and the loser lands here. The engine treats the error
                // as "someone else is materializing it" and moves on.
                return Err(HelixError::Store(format!(
                    "concurrent put already in flight for signature {id:016x}"
                )));
            }
            // The shard lock pins `existing` (deleting this file needs the
            // same lock), so the CAS admits exactly the puts a single-lock
            // store would have.
            let existing = shard.files.get(&id).map(|m| m.bytes).unwrap_or(0);
            let reserve =
                self.inner
                    .used_bytes
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                        (used.saturating_sub(existing) + size <= self.inner.budget_bytes)
                            .then_some(used + size)
                    });
            if reserve.is_ok() {
                shard.reserved.insert(id, size);
                return Ok(());
            }
            drop(shard);
            // None of the victims goes unless together they make room.
            if !room_checked {
                room_checked = true;
                let freeable: u64 = victims.clone().filter_map(|v| self.resident_bytes(v)).sum();
                if self.remaining_bytes() + existing + freeable < size {
                    return Err(over_budget());
                }
            }
            let victim = victims.next().ok_or_else(over_budget)?;
            if let Some(freed) = self.resident_bytes(victim) {
                if let Ok(true) = self.evict(victim) {
                    self.inner.displaced_entries.fetch_add(1, Ordering::Relaxed);
                    self.inner
                        .displaced_bytes
                        .fetch_add(freed, Ordering::Relaxed);
                }
            }
        }
    }

    /// Removes every key location that points at incarnation `gen` of
    /// file `id` (an overwritten, shrunk or corrupt file), dropping keys
    /// left with no location. Decoded entries read from it leave too,
    /// unless `relocate` is set — the store moved the same bytes — and
    /// their key still has a location, which they are then filed under.
    pub(super) fn purge_locations(&self, id: u64, gen: u64, relocate: bool) {
        for slot in self.inner.shards.iter() {
            slot.lock().keys.retain(|_, locs| {
                locs.retain(|l| l.file != id || l.gen != gen);
                !locs.is_empty()
            });
        }
        // After the keys: an admission that re-checks a key's locations
        // from here on no longer finds this file.
        let keys = self.inner.decoded.lock().remove_file(id, gen, relocate);
        for (key, entry) in keys {
            let shard = self.slot(key).lock();
            if let Some(&loc) = shard.keys.get(&key).and_then(|locs| locs.first()) {
                self.inner.decoded.lock().reinsert(key, entry, loc);
            }
        }
    }

    /// Drops a hold on incarnation `gen` of file `id` — every hold when
    /// `all` is set — and deletes the file with its last: from disk,
    /// then from the file map and the ledger. A
    /// file already gone counts as deleted; if the removal fails nothing
    /// changes, so the store's view still matches the disk. The file's
    /// shard lock is held throughout, so a deletion cannot race a put's
    /// rename of a fresh file to the same path. A replaced incarnation
    /// holds nothing.
    pub(super) fn release(&self, id: u64, gen: u64, all: bool) -> std::io::Result<()> {
        let mut shard = self.slot(id).lock();
        let Some(meta) = shard.files.get_mut(&id).filter(|m| m.gen == gen) else {
            return Ok(());
        };
        if meta.live > 1 && !all {
            meta.live -= 1;
            return Ok(());
        }
        let bytes = meta.bytes;
        match std::fs::remove_file(self.path_for(id)) {
            Err(err) if err.kind() != std::io::ErrorKind::NotFound => return Err(err),
            _ => {}
        }
        shard.files.remove(&id);
        self.inner.used_bytes.fetch_sub(bytes, Ordering::AcqRel);
        Ok(())
    }
}
