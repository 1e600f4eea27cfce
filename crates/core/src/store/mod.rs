//! The intermediate store: signature-keyed materializations on disk.
//!
//! Each materialized node output lives in one file named by its Merkle
//! signature (`<sig>.hlx`), so validity is purely a key-existence check:
//! any workflow change upstream of a node changes its signature and the
//! old file simply stops matching (it stays on disk and becomes reusable
//! again if the user reverts — the paper's version-rollback story).
//!
//! # Modules
//!
//! This module is the public API: [`IntermediateStore`] and its options,
//! and the put, read, evict and open paths that tie the parts together.
//! Each concern lives in one submodule:
//! - `format`: the files — the one grouped-file type a node file, a
//!   chunk-only file and a manifest share (its keys, external refs,
//!   group byte ranges and shrunk bytes, all from one parse of its head),
//!   and the temp-file writer every store and durable-tier document write
//!   goes through;
//! - `index`: the key → location index (`Shard`, `Loc`, `FileMeta`,
//!   `shard_index`), indexing a directory at open, and the budget ledger
//!   with its reservations and displacement;
//! - `cache`: the decoded-read cache ("Decoded reads" below).
//!
//! # Keys, files and row groups
//!
//! A *key* is what callers look up: a node signature, or the partition
//! signature (psig) of one of a node's data chunks
//! ([`crate::slicing::NodeChunks`]). A *file* is what the disk and the
//! budget hold. A chunk-aligned node is written once
//! ([`IntermediateStore::put_grouped`]): its file is codec v3 row groups
//! (see [`helix_dataflow::codec`]), one per chunk, and each group's key is
//! the chunk's psig — so the node's signature serves the whole output and
//! each psig serves just its rows, read from the file's header and that
//! group's byte range. When the materialization policy declines a node,
//! the engine still keeps its missing chunks in a *chunk-only* file
//! ([`IntermediateStore::put_chunks`]) that serves only its group keys and
//! is invisible to whole-node lookups.
//!
//! A data delta changes a node's signature but few of its chunks, so the
//! next version of the node holds mostly groups an older file holds too.
//! The new file copies those groups' bytes from the older file instead of
//! encoding them, and is written whole — byte-identical to what a fresh
//! store would write. The older file then shrinks to a *manifest*: the
//! same header, with every group another file holds marked *external*
//! (no bytes here), plus the bytes of the groups only it holds (the old
//! tail chunk). A chunk-only file keeps only the groups no other file
//! holds, and goes when none is left. So a node's history costs one whole
//! file plus a small manifest per older version, and each chunk's bytes
//! live in one file. The rewrite is atomic like any put.
//!
//! A manifest serves its node's signature, never its external groups'
//! keys, and a reopen rebuilds its keys the same way. Its whole output
//! reads its own groups from its bytes and each external group through
//! that group's key, wherever the key lives, and shares the pieces' rows
//! ([`DataCollection::concat_all`]). While any external key has no
//! location (evicted, or dropped with a corrupt file) the manifest reads
//! as a missing entry — [`IntermediateStore::lookup`] says `None` — so the
//! caller recomputes. A key may live in several files (a chunk-only file
//! and a node file, say); reads try each location in turn.
//!
//! The budget ledger counts each file once. [`IntermediateStore::evict`]
//! removes one key; a file is deleted along with its last key. A read
//! verifies the checksums of the bytes it decodes; a file that fails is
//! deleted with all its keys (every other location of those keys stays
//! serviceable), and the read reports a [`HelixError::Store`] naming the
//! key, so the caller recomputes. Version-2 files — one whole output each,
//! as earlier releases wrote both node outputs and per-psig chunk entries
//! — are still read; they serve their file name as their one key, and so
//! do version-3 files written before manifests existed.
//!
//! The store enforces the materialization optimizer's **storage budget**
//! (paper §2.3: "with a maximum storage constraint") and reports measured
//! I/O durations to the cost model. A put that does not fit refuses,
//! unless the caller names residents to displace
//! ([`IntermediateStore::put_grouped`]): the store then evicts them in
//! order, only until the encoded output fits, and counts what went
//! ([`IntermediateStore::displaced_stats`]).
//!
//! # Decoded reads
//!
//! Reads hand out [`Arc<NodeOutput>`]. The store keeps recently decoded
//! outputs in memory, so a repeated read of the same key is a refcount
//! increment rather than a file read, checksum pass, decode and later
//! free. Verified reads are admitted: whole version-3 data files,
//! manifests, and single row groups — the chunks a data delta reloads
//! every round. (Models and version-2 files are not.) Their checksums were
//! verified by the decode that admits them, and that is the one
//! verification the entry ever gets: a later change to the file is
//! caught by the next *disk* read (after the entry leaves the cache, or
//! after a reopen). Collections share their rows ([`DataCollection`] is
//! `Arc`-shared segments), so a hit, and a chunk's reuse inside a bigger
//! output, copies no row. Admission happens on a key's *second* verified
//! decode, so outputs read once and never again stay out. The cache holds
//! at most [`DECODED_CACHE_BYTES`] of [`NodeOutput::estimated_bytes`],
//! evicts least recently used entries first, and never admits an entry
//! larger than [`DECODED_ENTRY_BYTES`]. An entry is served only while the
//! location it was decoded from is still listed for its key, and it leaves
//! together with that location: on [`IntermediateStore::evict`], when a
//! corrupt file is dropped, when a file is overwritten, and on
//! [`IntermediateStore::clear`]. The one exception is a shrink, which
//! moves the same bytes: an entry whose key another file still serves is
//! filed under that location instead. A reopened store starts with an
//! empty cache.
//!
//! # Sharding
//!
//! Both maps — files by id, keys by signature — are split across `N`
//! shards by hash, so the ready-queue executor's concurrent
//! `lookup`/`get`/`put`/`evict` traffic does not serialize on one lock;
//! no operation holds two shard locks at once (except [`clear`], which
//! takes them all in index order). The byte ledger is a store-wide atomic
//! with **reservation** semantics: a `put` reserves its file's bytes with
//! one compare-and-swap (performed while the file's shard lock pins the
//! size of any file it overwrites), so concurrent puts can never jointly
//! overshoot the budget, and a failed write releases exactly its own
//! reservation. The shard count comes from
//! [`crate::EngineConfig::store_shards`] (default
//! [`DEFAULT_STORE_SHARDS`]); `1` reproduces a single-lock store.
//!
//! [`clear`]: IntermediateStore::clear
//!
//! # Durability
//!
//! The store is a cache: a stored output equals its recomputation, so a
//! lost file costs a recompute, never a wrong answer, and the store keeps
//! no log. Every open — durable or volatile — indexes the `.hlx` files
//! actually in the directory: the files are the ground truth and the
//! budget ledger is their bytes, so a crash at *any* point of a put or an
//! evict can never double-count budget. A file is renamed into place
//! whole, so a reopen sees it whole or not at all. A durable open reports
//! in [`RecoveryInfo`] what it indexed and what it dropped; it never
//! refuses to start. The keys come from the files' headers, so an evicted
//! key whose file still serves other keys returns after a reopen (it
//! never held bytes of its own). A `wal/` directory an earlier release
//! left is never read. See docs/ARCHITECTURE.md § Durability.

mod cache;
mod format;
mod index;

pub(crate) use format::{sweep_tmp, TempFile};

use crate::materialize::Resident;
use crate::ops::NodeOutput;
use crate::signature::Signature;
use crate::{HelixError, Result};
use cache::DecodedCache;
use format::{read_head, sig_file_name, StoreFile};
use helix_dataflow::codec::{self, GroupSpec};
use helix_dataflow::fx::{FxHashMap, FxHasher};
use helix_dataflow::DataCollection;
use index::{shard_index, FileMeta, Loc, Shard};
use parking_lot::Mutex;
use std::hash::Hasher;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default number of shards ([`StoreOptions::shards`] and
/// [`crate::EngineConfig::with_store_shards`] override it).
pub const DEFAULT_STORE_SHARDS: usize = 16;

/// Bytes of decoded outputs, counted in [`NodeOutput::estimated_bytes`],
/// the store keeps in memory (see the module docs, "Decoded reads").
/// Sized for two hot sets: the serving loop's few prediction outputs of
/// about 0.8 MB each, and the chunks a label-append loop reloads every
/// round. In a 10 k-row census session those are the row groups of
/// `rows`, the extractors, the Bucketizers and `income`: 13.4 MB after
/// 40 rounds, under this bound. Least-recently-used eviction over a
/// cyclic scan larger than the bound hits nothing, so a longer session
/// of that shape stops hitting.
pub const DECODED_CACHE_BYTES: usize = 16 << 20;

/// The largest output, in [`NodeOutput::estimated_bytes`], the decoded
/// cache keeps. A data chunk's row group is far smaller; a whole 10 k-row
/// `rows` or `income` output is larger, and is read from disk each time
/// rather than held beside its own row groups.
pub const DECODED_ENTRY_BYTES: usize = 2 << 20;

/// How (and whether) engine state survives a process crash.
///
/// The default is [`Durability::Volatile`]. Servers that must resume
/// sessions across restarts opt into [`Durability::Wal`]. The store's
/// files survive either way; the store itself keeps no log (module docs,
/// "Durability").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Stored outputs still live on disk and a reopen rescans the
    /// directory, but the cost model, version history, memo and sessions
    /// do not survive the process.
    #[default]
    Volatile,
    /// The engine meta and every session record are journals — a
    /// snapshot plus an fsync'd log of records appended since — so a
    /// reopened engine resumes where the last acknowledged call left it.
    Wal,
}

impl Durability {
    /// [`Durability::Wal`]. Kept as a constructor because callers written
    /// when the variant carried fields, the `benchmark/` crate among
    /// them, still build the tier through it.
    pub fn wal() -> Self {
        Durability::Wal
    }

    /// Whether this mode persists state across restarts.
    pub fn is_durable(&self) -> bool {
        matches!(self, Durability::Wal)
    }

    /// Parses the `HELIX_DURABILITY` environment value: `volatile` or
    /// `wal` (case-insensitive). `None` for anything else.
    pub fn from_env_value(value: &str) -> Option<Durability> {
        match value.to_ascii_lowercase().as_str() {
            "volatile" => Some(Durability::Volatile),
            "wal" => Some(Durability::Wal),
            _ => None,
        }
    }
}

/// Builder for opening an [`IntermediateStore`] — the one constructor
/// path.
///
/// ```no_run
/// use helix_core::{Durability, StoreOptions};
/// let store = StoreOptions::new("/tmp/helix-store")
///     .budget_bytes(1 << 30)
///     .shards(16)
///     .durability(Durability::wal())
///     .open()
///     .unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct StoreOptions {
    dir: PathBuf,
    budget_bytes: u64,
    shards: usize,
    durability: Durability,
}

impl StoreOptions {
    /// Options rooted at `dir` with an unlimited budget, the default
    /// shard count ([`DEFAULT_STORE_SHARDS`]), and
    /// [`Durability::Volatile`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreOptions {
            dir: dir.into(),
            budget_bytes: u64::MAX,
            shards: DEFAULT_STORE_SHARDS,
            durability: Durability::default(),
        }
    }

    /// Sets the storage budget in bytes.
    pub fn budget_bytes(mut self, budget_bytes: u64) -> Self {
        self.budget_bytes = budget_bytes;
        self
    }

    /// Sets the shard count (clamped to ≥ 1; `1` reproduces the
    /// historical single-lock store).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the durability mode. The store writes the same files either
    /// way; only a durable open reports [`RecoveryInfo`] (see
    /// [`IntermediateStore::recovery`]).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Opens (or creates) the store, indexing the files in its directory.
    pub fn open(self) -> Result<IntermediateStore> {
        IntermediateStore::open_with(self)
    }
}

/// What a durable store's open found in its directory. All zeros for
/// [`Durability::Volatile`] stores.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Keys the indexed files serve.
    pub recovered_entries: usize,
    /// `.hlx` files the open indexed into the file map.
    pub adopted_files: usize,
    /// Chunk-only files dropped because their header is unreadable.
    pub dropped_entries: usize,
    /// Always 0: the store keeps no log to tear. Kept because callers
    /// written against the earlier per-shard log, the `benchmark/` crate
    /// among them, still read it.
    pub torn_records: usize,
}

/// Metadata for one stored key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// Bytes a read of the key returns: the whole file for a node
    /// output, the row group for a chunk.
    pub bytes: u64,
}

/// What the decoded-read cache holds now, and how often it answered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodedStats {
    /// Outputs held.
    pub entries: usize,
    /// Their [`NodeOutput::estimated_bytes`], summed.
    pub bytes: u64,
    /// Reads answered from memory since the store was opened.
    pub hits: u64,
}

/// What puts displaced to make room (see
/// [`IntermediateStore::put_grouped`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DisplacedStats {
    /// Keys evicted since the store was opened.
    pub entries: u64,
    /// Bytes their eviction freed.
    pub bytes: u64,
}

/// One answered read (see [`IntermediateStore::get`]).
pub(crate) struct StoreRead {
    pub(crate) output: Arc<NodeOutput>,
    /// Bytes of the location read: the file, or the row group.
    pub(crate) bytes: u64,
    pub(crate) secs: f64,
    /// Answered from the decoded cache; no file was read.
    pub(crate) cached: bool,
}

/// Why [`IntermediateStore::write_file`] writes a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteKind {
    /// New content: decoded entries of a file it replaces leave with it.
    New,
    /// The store rewrites one of its files to hold the same keys with
    /// the same content, in fewer bytes: decoded entries of the old
    /// incarnation stay where their keys are still served.
    Rewrite,
}

/// The shared state behind [`IntermediateStore`] handles.
#[derive(Debug, Default)]
struct StoreInner {
    dir: PathBuf,
    budget_bytes: u64,
    /// Bytes of files plus in-flight reservations across all shards (the
    /// budget ledger).
    used_bytes: AtomicU64,
    shards: Box<[Mutex<Shard>]>,
    durability: Durability,
    /// Next file incarnation number.
    next_gen: AtomicU64,
    /// What a durable open found.
    recovery: RecoveryInfo,
    /// Decoded outputs kept in memory (module docs, "Decoded reads").
    decoded: Mutex<DecodedCache>,
    /// Keys and bytes displaced by puts since open.
    displaced_entries: AtomicU64,
    displaced_bytes: AtomicU64,
    /// A failpoint for fault tests: a full disk under every data-file
    /// write.
    #[cfg(test)]
    fail_writes: std::sync::atomic::AtomicBool,
    /// When set, a read about to admit its output waits on this barrier
    /// twice, so a test can run another operation in between.
    #[cfg(test)]
    pause_before_admit: Mutex<Option<Arc<std::sync::Barrier>>>,
}

/// On-disk store with budget accounting, sharded for concurrent access.
///
/// An `IntermediateStore` is a cheap [`Clone`]-able handle to shared
/// state: every clone sees the same entries, ledger, and budget. The
/// ready-queue scheduler clones the handle into its persistent worker
/// threads (`'static` jobs cannot borrow the caller's store).
#[derive(Debug, Clone)]
pub struct IntermediateStore {
    inner: Arc<StoreInner>,
}

/// Whether a failed read means the bytes on disk are bad (as opposed to
/// the file having gone away, or a transient I/O error).
fn is_corruption(err: &HelixError) -> bool {
    match err {
        HelixError::Io(io) => io.kind() == std::io::ErrorKind::UnexpectedEof,
        HelixError::Dataflow(_) | HelixError::Ml(_) | HelixError::Store(_) => true,
        _ => false,
    }
}

/// Checks that keyed `groups` cover `[0, rows)` in order, so the file's
/// whole decode is the output itself.
fn groups_tile(groups: &[GroupSpec], rows: usize) -> bool {
    let mut at = 0;
    for g in groups {
        if g.start != at || g.end < g.start || g.key == 0 {
            return false;
        }
        at = g.end;
    }
    at == rows
}

impl IntermediateStore {
    /// Opens (or creates) a store from [`StoreOptions`]: indexes every
    /// `.hlx` file in the directory from its header, dropping unreadable
    /// chunk-only files, and for durable options reports what it found
    /// in [`IntermediateStore::recovery`]. It never refuses to start over
    /// a recoverable directory.
    pub fn open_with(options: StoreOptions) -> Result<Self> {
        let dir = options.dir;
        std::fs::create_dir_all(&dir)?;
        sweep_tmp(&dir);
        // The files are the index: every `<id>.hlx` in the directory.
        let mut files = FxHashMap::default();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let hlx = path.extension().is_some_and(|e| e == "hlx");
            let stem = path.file_stem().and_then(|s| s.to_str()).filter(|_| hlx);
            if let Some(id) = stem.and_then(|s| u64::from_str_radix(s, 16).ok()) {
                files.insert(id, entry.metadata()?.len());
            }
        }
        let mut recovery = RecoveryInfo::default();
        let (shard_maps, used, last_gen) =
            index::index_files(&dir, files, options.shards.max(1), &mut recovery);
        recovery.recovered_entries = shard_maps.iter().map(|s| s.lock().keys.len()).sum();
        if !options.durability.is_durable() {
            recovery = RecoveryInfo::default();
        }
        Ok(IntermediateStore {
            inner: Arc::new(StoreInner {
                dir,
                budget_bytes: options.budget_bytes,
                used_bytes: AtomicU64::new(used),
                shards: shard_maps,
                durability: options.durability,
                next_gen: AtomicU64::new(last_gen + 1),
                recovery,
                ..StoreInner::default()
            }),
        })
    }

    /// The storage budget in bytes.
    pub fn budget_bytes(&self) -> u64 {
        self.inner.budget_bytes
    }

    /// Number of shards the key and file maps are split across.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The directory the store is rooted at.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The durability mode the store was opened with.
    pub fn durability(&self) -> Durability {
        self.inner.durability
    }

    /// What the open found in the directory (all zeros for volatile
    /// stores).
    pub fn recovery(&self) -> RecoveryInfo {
        self.inner.recovery
    }

    /// Always 0: the store keeps no log. Kept because callers written
    /// against the earlier per-shard log, the `benchmark/` crate among
    /// them, still read it.
    pub fn wal_bytes(&self) -> u64 {
        0
    }

    /// Bytes currently used (files plus in-flight reservations).
    pub fn used_bytes(&self) -> u64 {
        self.inner.used_bytes.load(Ordering::Acquire)
    }

    /// Bytes still available under the budget.
    pub fn remaining_bytes(&self) -> u64 {
        self.inner.budget_bytes.saturating_sub(self.used_bytes())
    }

    /// Number of stored keys: whole outputs plus row-group keys.
    pub fn len(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().keys.len()).sum()
    }

    /// Whether the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// What the decoded-read cache holds (module docs, "Decoded reads").
    pub fn decoded_stats(&self) -> DecodedStats {
        let cache = self.inner.decoded.lock();
        DecodedStats {
            entries: cache.entries.len(),
            bytes: cache.bytes as u64,
            hits: cache.hits,
        }
    }

    /// What puts have displaced since the store was opened.
    pub fn displaced_stats(&self) -> DisplacedStats {
        DisplacedStats {
            entries: self.inner.displaced_entries.load(Ordering::Relaxed),
            bytes: self.inner.displaced_bytes.load(Ordering::Relaxed),
        }
    }

    /// Every stored whole output whose eviction would delete its file,
    /// with that file's bytes: the outputs a put may displace. A file that
    /// also serves row-group keys is not listed (evicting its node key
    /// frees nothing), and neither is a chunk-only file.
    pub fn residents(&self) -> Vec<Resident> {
        let mut residents = Vec::new();
        for slot in self.inner.shards.iter() {
            let shard = slot.lock();
            residents.extend(shard.keys.keys().filter_map(|&key| {
                Some(Resident {
                    sig: Signature(key),
                    bytes: shard.sole_file_bytes(key)?,
                })
            }));
        }
        residents
    }

    /// Size of what a read of `sig` returns, if stored. A manifest whose
    /// external groups have all got a location counts their bytes; one
    /// missing any is not stored.
    pub fn lookup(&self, sig: Signature) -> Option<EntryMeta> {
        let (bytes, refs) = {
            let shard = self.slot(sig.0).lock();
            let loc = *shard.keys.get(&sig.0)?.first()?;
            (loc.bytes, shard.manifest_refs(loc))
        };
        let external = match refs {
            Some(refs) => self.refs_bytes(&refs)?,
            None => 0,
        };
        Some(EntryMeta {
            bytes: bytes + external,
        })
    }

    /// Bytes of the first location of every key in `refs`, summed; `None`
    /// if any key has none.
    fn refs_bytes(&self, refs: &[u64]) -> Option<u64> {
        refs.iter().try_fold(0, |sum, &key| {
            let shard = self.slot(key).lock();
            Some(sum + shard.keys.get(&key)?.first()?.bytes)
        })
    }

    /// Whether a file other than `file` holds the bytes of key `key`.
    fn served_elsewhere(&self, key: u64, file: u64) -> bool {
        self.slot(key)
            .lock()
            .keys
            .get(&key)
            .is_some_and(|locs| locs.iter().any(|l| l.file != file))
    }

    fn path_for(&self, id: u64) -> PathBuf {
        self.inner.dir.join(sig_file_name(id))
    }

    /// Writes an output under `sig`, enforcing the budget.
    ///
    /// Returns `(bytes_written, seconds)` on success. Writing is atomic
    /// (temp file + rename) so a crash cannot leave a torn entry behind,
    /// and the budget check **reserves** the entry's bytes with a single
    /// compare-and-swap on the ledger while the file's shard lock is
    /// held — concurrent puts can never jointly overshoot the budget by
    /// each passing a stale check (the ready-queue executor's workers and
    /// any future background materializer rely on this). Reservations are
    /// a side ledger: readers and `evict` never see an entry whose file
    /// is not fully on disk, and a failed write releases only its own
    /// reservation, so racing `get`/`evict` calls cannot be corrupted by
    /// a put that later fails.
    ///
    /// An overwrite conservatively holds both the old file's bytes and
    /// the new reservation until the rename lands (the old file stays
    /// readable throughout).
    ///
    /// # Errors
    /// [`HelixError::Store`] if the entry would exceed the budget.
    pub fn put(&self, sig: Signature, output: &NodeOutput) -> Result<(u64, f64)> {
        self.put_grouped(sig, output, &[], &[])
    }

    /// [`put`](Self::put) for a chunk-aligned data output: one file
    /// whose row groups `groups` (which must cover the output's rows in
    /// order, with non-zero keys) are also served under their own keys.
    /// No groups is a plain `put`.
    ///
    /// When the encoded output does not fit, the keys of `displace` are
    /// evicted in order, each only while it still does not fit, and the
    /// output is written in the room they leave. Only
    /// [`residents`](Self::residents) count: if even all of them together
    /// cannot make room, none goes and the put refuses. An empty list
    /// refuses at once.
    ///
    /// A group another file already holds is copied from that file's
    /// bytes rather than encoded again; the file is byte-identical to a
    /// fresh encode either way. Every older file holding one of the groups
    /// then shrinks: a node file becomes a *manifest* of its groups, and a
    /// chunk-only file keeps only the groups no other file holds, or goes
    /// (module docs, "Keys, files and row groups").
    ///
    /// # Errors
    /// As [`put`](Self::put); [`HelixError::Store`] if the groups do not
    /// tile the output.
    pub fn put_grouped(
        &self,
        sig: Signature,
        output: &NodeOutput,
        groups: &[GroupSpec],
        displace: &[Signature],
    ) -> Result<(u64, f64)> {
        let started = Instant::now();
        if groups.is_empty() {
            // Encoding is part of the materialization cost the optimizer
            // trades off, so it is inside the timed region.
            let bytes = output.encode();
            return self.write_file(sig.0, bytes, started, WriteKind::New, displace);
        }
        let data = output.as_data()?;
        if !groups_tile(groups, data.len()) {
            return Err(HelixError::Store(format!(
                "row groups of {} do not tile its {} rows",
                sig.hex(),
                data.len()
            )));
        }
        self.put_groups(sig.0, true, data, groups, displace, started)
    }

    /// Writes a **chunk-only** file: the rows of `groups` (ranges of
    /// `data` with non-zero keys), served under the group keys only
    /// and never as a whole output. The file's name is derived from the
    /// keys. Same budget, atomicity and durability as
    /// [`put`](Self::put).
    ///
    /// # Errors
    /// As [`put`](Self::put); [`HelixError::Store`] for no groups, a zero
    /// key or a range outside `data`.
    pub fn put_chunks(&self, data: &DataCollection, groups: &[GroupSpec]) -> Result<(u64, f64)> {
        let started = Instant::now();
        if groups.is_empty()
            || groups
                .iter()
                .any(|g| g.key == 0 || g.start > g.end || g.end > data.len())
        {
            return Err(HelixError::Store(
                "chunk groups must be keyed ranges of the output".into(),
            ));
        }
        let mut hasher = FxHasher::default();
        hasher.write(b"chunks");
        for g in groups {
            hasher.write_u64(g.key);
        }
        self.put_groups(hasher.finish(), false, data, groups, &[], started)
    }

    /// Writes the rows of `groups` of `data` as grouped file `id`: a node
    /// file when `node` holds, else a chunk-only file. A node file copies
    /// each group another file already holds from that file's bytes
    /// rather than encoding it again (the encoding is a function of the
    /// rows, so the file is byte-identical to a fresh encode), and then
    /// those files shrink. A chunk-only file takes no group over from
    /// another file.
    fn put_groups(
        &self,
        id: u64,
        node: bool,
        data: &DataCollection,
        groups: &[GroupSpec],
        displace: &[Signature],
        started: Instant,
    ) -> Result<(u64, f64)> {
        let holders = if node {
            self.holders(id, groups)
        } else {
            Vec::new()
        };
        let older: Vec<(u64, u64, StoreFile, Vec<u8>)> = holders
            .into_iter()
            .filter_map(|(file, gen)| {
                let bytes = std::fs::read(self.path_for(file)).ok()?;
                Some((file, gen, StoreFile::parse(&bytes).ok()?, bytes))
            })
            .collect();
        let encoded = |k: usize| {
            let g = &groups[k];
            older.iter().find_map(|(.., file, bytes)| {
                file.own_group(bytes, g.key, (g.end - g.start) as u64)
            })
        };
        let mut bytes = vec![format::tag(node, false)];
        codec::encode_spliced_into(data, groups, encoded, &mut bytes);
        let (size, _) = self.write_file(id, bytes, started, WriteKind::New, displace)?;
        for (file, gen, parsed, bytes) in &older {
            if let Err(err) = self.shrink(*file, *gen, parsed, bytes) {
                eprintln!(
                    "helix-store: could not shrink {}: {err}",
                    sig_file_name(*file)
                );
            }
        }
        Ok((size, started.elapsed().as_secs_f64()))
    }

    /// The files other than `id` that hold the bytes of one of `groups`,
    /// in the order their keys list them.
    fn holders(&self, id: u64, groups: &[GroupSpec]) -> Vec<(u64, u64)> {
        let mut files: Vec<(u64, u64)> = Vec::new();
        for g in groups {
            let shard = self.slot(g.key).lock();
            for loc in shard.keys.get(&g.key).into_iter().flatten() {
                if loc.file != id && loc.group.is_some() && !files.contains(&(loc.file, loc.gen)) {
                    files.push((loc.file, loc.gen));
                }
            }
        }
        files
    }

    /// Rewrites incarnation `gen` of file `id` — a file whose groups a
    /// newer node file also holds; `bytes` is all of it — without the
    /// bytes of the groups another file holds: a node file becomes a
    /// manifest whose shared groups are external, and a chunk-only file
    /// keeps only the groups no other file holds, or goes. A group whose
    /// key was evicted goes too. A node file whose whole key was evicted
    /// is left alone: a rewrite would serve it again.
    fn shrink(&self, id: u64, gen: u64, file: &StoreFile, bytes: &[u8]) -> Result<()> {
        let started = Instant::now();
        let listed = |key: u64, group: Option<u32>| {
            self.slot(key).lock().keys.get(&key).is_some_and(|locs| {
                locs.iter()
                    .any(|l| l.file == id && l.gen == gen && l.group == group)
            })
        };
        if file.node && !listed(id, None) {
            return Ok(());
        }
        let rewrite = file.shrunk(bytes, |k, g| {
            g.key == 0 || !self.served_elsewhere(g.key, id) && listed(g.key, Some(k as u32))
        })?;
        match rewrite {
            Some(bytes) if bytes.is_empty() => self.drop_file(id, gen, true),
            Some(bytes) => {
                self.write_file(id, bytes, started, WriteKind::Rewrite, &[])?;
            }
            None => {}
        }
        Ok(())
    }

    /// The body of every put: reserve (displacing `displace` as far as
    /// needed, see [`put_grouped`](Self::put_grouped)), write a temp file,
    /// rename it to `<id>.hlx`, commit the file, then publish
    /// its keys and retire those of the incarnation it replaced.
    fn write_file(
        &self,
        id: u64,
        bytes: Vec<u8>,
        started: Instant,
        write: WriteKind,
        displace: &[Signature],
    ) -> Result<(u64, f64)> {
        let size = bytes.len() as u64;
        let file = StoreFile::parse(&bytes)?;
        let keys = file.keys(id, size);
        let idx = shard_index(id, self.inner.shards.len());
        self.reserve(idx, id, size, displace)?;
        let path = self.path_for(id);
        let written = self
            .injected_write_failure()
            .and_then(|()| TempFile::write(&path, &bytes, false));
        let gen = self.inner.next_gen.fetch_add(1, Ordering::Relaxed);
        let previous = {
            let mut shard = self.inner.shards[idx].lock();
            shard.reserved.remove(&id);
            // The rename happens under the shard lock (a cheap metadata
            // op) so deleting a replaced file can never delete the fresh
            // one: deletion holds the same lock across its remove_file.
            if let Err(err) = written.and_then(|tmp| tmp.commit(&path)) {
                // Release only this call's reservation; nothing else was
                // touched, so concurrent get/evict state is unaffected.
                self.inner.used_bytes.fetch_sub(size, Ordering::AcqRel);
                return Err(err.into());
            }
            let meta = FileMeta {
                bytes: size,
                gen,
                live: keys.len(),
                refs: file.refs(),
            };
            let previous = shard.files.insert(id, meta);
            // The reservation's bytes stay in the ledger as the file's; an
            // overwrite releases the replaced file's share now.
            if let Some(old) = &previous {
                self.inner.used_bytes.fetch_sub(old.bytes, Ordering::AcqRel);
            }
            previous
        };
        let secs = started.elapsed().as_secs_f64();
        index::publish(&self.inner.shards, id, gen, keys);
        if let Some(old) = previous {
            self.purge_locations(id, old.gen, write == WriteKind::Rewrite);
        }
        Ok((size, secs))
    }

    /// Fails as a full disk would once a test has set `fail_writes`.
    fn injected_write_failure(&self) -> std::io::Result<()> {
        #[cfg(test)]
        if self.inner.fail_writes.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("injected: no space left on device"));
        }
        Ok(())
    }

    /// Reads the output stored under `sig`: the whole file for a node
    /// output, only the header and the group's bytes for a chunk, and for
    /// a manifest its own groups plus a read of each external group's key.
    /// A location whose bytes fail verification is dropped — its whole
    /// file is deleted — and the next location is tried. An output held by
    /// the decoded cache is answered from memory instead (module docs,
    /// "Decoded reads").
    ///
    /// Returns `(output, bytes_read, seconds)`; a cached answer reports the
    /// bytes its disk read returned.
    ///
    /// # Errors
    /// [`HelixError::Store`] if the entry is missing (a manifest with an
    /// external group no file serves is missing), or corrupt (naming the
    /// signature; the entry is then gone).
    pub fn get(&self, sig: Signature) -> Result<(Arc<NodeOutput>, u64, f64)> {
        let read = self.read(sig)?;
        Ok((read.output, read.bytes, read.secs))
    }

    /// [`get`](Self::get), also saying whether the answer came from the
    /// decoded cache.
    pub(crate) fn read(&self, sig: Signature) -> Result<StoreRead> {
        let started = Instant::now();
        let missing = || HelixError::Store(format!("no entry for signature {}", sig.hex()));
        // The cache is asked under the key's shard lock, so a hit and an
        // `evict` of the key are ordered; a manifest's external keys live
        // in other shards, so they are checked between two such locks.
        let cached = |locs: &[Loc]| self.inner.decoded.lock().hit(sig.0, locs);
        let (locs, refs, mut hit) = {
            let shard = self.slot(sig.0).lock();
            let locs = shard.keys.get(&sig.0).cloned().unwrap_or_default();
            let refs = locs.first().and_then(|&loc| shard.manifest_refs(loc));
            let hit = if refs.is_none() { cached(&locs) } else { None };
            (locs, refs, hit)
        };
        if let Some(refs) = refs {
            if self.refs_bytes(&refs).is_none() {
                return Err(missing());
            }
            let _shard = self.slot(sig.0).lock();
            hit = cached(&locs);
        }
        if let Some((output, bytes)) = hit {
            return Ok(StoreRead {
                output,
                bytes,
                secs: started.elapsed().as_secs_f64(),
                cached: true,
            });
        }
        let mut failure = None;
        for loc in locs {
            match self.read_loc(sig, loc) {
                Ok(Some((output, bytes, verified))) => {
                    let read = StoreRead {
                        output: Arc::new(output),
                        bytes,
                        secs: started.elapsed().as_secs_f64(),
                        cached: false,
                    };
                    if verified {
                        self.offer(sig, loc, &read);
                    }
                    return Ok(read);
                }
                Ok(None) => failure = Some(missing()),
                Err(err) if is_corruption(&err) => {
                    eprintln!(
                        "helix-store: entry {} in {} failed verification ({err}); dropping the file",
                        sig.hex(),
                        sig_file_name(loc.file)
                    );
                    self.drop_file(loc.file, loc.gen, false);
                    failure = Some(HelixError::Store(format!(
                        "stored entry {} is corrupt and was evicted: {err}",
                        sig.hex()
                    )));
                }
                Err(err) => failure = Some(err),
            }
        }
        Err(failure.unwrap_or_else(missing))
    }

    /// Decodes one location of key `sig`, with the bytes the read
    /// returned. The flag is set when the read verified checksums over
    /// everything it decoded (a version-3 data file, a manifest, or a row
    /// group): the only reads the decoded cache admits. `None` when the
    /// location is a manifest with an external group that no longer
    /// reads.
    fn read_loc(&self, sig: Signature, loc: Loc) -> Result<Option<(NodeOutput, u64, bool)>> {
        let mut file = std::fs::File::open(self.path_for(loc.file))?;
        let Some(group) = loc.group else {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let parsed = StoreFile::parse(&bytes)?;
            return match &parsed.header {
                Some(header) if header.groups.iter().any(|g| g.is_external()) => {
                    self.read_manifest(&parsed, header, &bytes)
                }
                header => Ok(Some((
                    NodeOutput::decode(&bytes)?,
                    loc.bytes,
                    header.is_some(),
                ))),
            };
        };
        let len = file.metadata()?.len();
        let mut head = Vec::new();
        read_head(&mut file, len, &mut head)?;
        let parsed = StoreFile::parse(&head)?;
        let group = group as usize;
        let keyed = parsed
            .header
            .as_ref()
            .filter(|h| h.groups.get(group).map(|g| g.key) == Some(sig.0));
        let Some(header) = keyed else {
            return Err(HelixError::Store(format!(
                "group {group} of {} is not keyed {}",
                sig_file_name(loc.file),
                sig.hex()
            )));
        };
        let range = parsed.range(group, len)?;
        file.seek(SeekFrom::Start(range.start))?;
        let mut bytes = vec![0u8; (range.end - range.start) as usize];
        file.read_exact(&mut bytes)?;
        let output = NodeOutput::Data(codec::decode_group(header, group, &bytes)?);
        Ok(Some((output, loc.bytes, true)))
    }

    /// Assembles a manifest's output: its own groups decoded from `bytes`
    /// (the whole file `file`, whose header is `header`), each external
    /// group read through its key. The pieces share their rows; `None` if
    /// an external key does not read.
    fn read_manifest(
        &self,
        file: &StoreFile,
        header: &codec::Header,
        bytes: &[u8],
    ) -> Result<Option<(NodeOutput, u64, bool)>> {
        let mut total = bytes.len() as u64;
        let mut parts = Vec::with_capacity(header.groups.len());
        for (k, group) in header.groups.iter().enumerate() {
            if !group.is_external() {
                parts.push(codec::decode_group(header, k, file.group(bytes, k)?)?);
                continue;
            }
            let Ok(read) = self.read(Signature(group.key)) else {
                return Ok(None);
            };
            let part = read.output.as_data()?;
            if part.len() as u64 != group.rows || part.schema() != &header.schema {
                return Err(HelixError::Store(format!(
                    "external group {k} ({:016x}) does not match the manifest",
                    group.key
                )));
            }
            total += read.bytes;
            parts.push(part.clone());
        }
        let data = DataCollection::concat_all(parts)?;
        if data.len() as u64 != header.rows {
            return Err(HelixError::Store(format!(
                "manifest groups hold {} rows, header says {}",
                data.len(),
                header.rows
            )));
        }
        Ok(Some((NodeOutput::Data(data), total, true)))
    }

    /// Deletes incarnation `gen` of file `id` and every key location in
    /// it (a corrupt file). If the removal itself fails the file keeps
    /// its ledger bytes — the ledger stays equal to the disk — but serves
    /// nothing.
    fn drop_file(&self, id: u64, gen: u64, relocate: bool) {
        if let Err(err) = self.release(id, gen, true) {
            eprintln!("helix-store: could not delete {id:016x}: {err}");
        }
        self.purge_locations(id, gen, relocate);
    }

    /// Removes the key `sig` (every location of it) if present; each file
    /// that loses its last key is deleted and frees its budget. The key's
    /// decoded-cache entry goes in the same step, under the key's shard
    /// lock.
    ///
    /// A file removal happens under the file's shard lock so it cannot
    /// race a concurrent `put`'s rename of a fresh file to the same path.
    /// The file is removed *before* its bookkeeping mutates: if the
    /// removal fails, the key is restored, the file stays in the map and
    /// the ledger keeps its bytes, so the store's view still matches the
    /// disk (a reopen rescan would find the surviving file). An
    /// already-missing file (`NotFound`) counts as removed.
    pub fn evict(&self, sig: Signature) -> Result<bool> {
        let removed = {
            let mut shard = self.slot(sig.0).lock();
            self.inner.decoded.lock().remove(sig.0);
            shard.keys.remove(&sig.0)
        };
        let Some(locs) = removed else {
            return Ok(false);
        };
        for (k, &loc) in locs.iter().enumerate() {
            if let Err(err) = self.release(loc.file, loc.gen, false) {
                let mut shard = self.slot(sig.0).lock();
                let restored = shard.keys.entry(sig.0).or_default();
                restored.splice(0..0, locs[k..].iter().copied());
                return Err(err.into());
            }
        }
        Ok(true)
    }

    /// Every key currently stored, in no particular order (the retention
    /// sweep walks this to find unreferenced entries).
    pub fn signatures(&self) -> Vec<Signature> {
        self.inner
            .shards
            .iter()
            .flat_map(|shard| shard.lock().keys.keys().copied().collect::<Vec<_>>())
            .map(Signature)
            .collect()
    }

    /// Deletes everything, the decoded cache included (used between
    /// benchmark scenarios). In-flight
    /// `put` reservations keep their budget share so a concurrent put
    /// completing after the clear stays correctly accounted.
    pub fn clear(&self) -> Result<()> {
        // Hold every shard lock at once so the ledger reset sees a
        // consistent picture (locks are acquired in index order, and no
        // other path holds two shard locks, so this cannot deadlock).
        let mut guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        let mut reserved = 0u64;
        for guard in guards.iter_mut() {
            for (id, _) in guard.files.drain() {
                let _ = std::fs::remove_file(self.path_for(id));
            }
            guard.keys.clear();
            reserved += guard.reserved.values().sum::<u64>();
        }
        self.inner.decoded.lock().clear();
        self.inner.used_bytes.store(reserved, Ordering::Release);
        Ok(())
    }
}

#[cfg(test)]
impl IntermediateStore {
    /// Makes every later data-file write fail as a full disk would.
    pub(crate) fn fail_writes(&self) {
        self.inner.fail_writes.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::format::TAG_MANIFEST;
    use super::*;
    use helix_dataflow::{DataCollection, DataType, Row, Schema, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open_store(dir: impl Into<PathBuf>, budget: u64) -> IntermediateStore {
        StoreOptions::new(dir).budget_bytes(budget).open().unwrap()
    }

    fn open_wal_store(dir: impl Into<PathBuf>, budget: u64) -> IntermediateStore {
        StoreOptions::new(dir)
            .budget_bytes(budget)
            .durability(Durability::wal())
            .open()
            .unwrap()
    }

    fn sample_output(n: i64) -> NodeOutput {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rows = (0..n).map(|i| Row(vec![Value::Int(i)])).collect();
        NodeOutput::Data(DataCollection::new(schema, rows).unwrap())
    }

    #[test]
    fn put_get_round_trip() {
        let store = open_store(tmpdir("rt"), 1 << 20);
        let out = sample_output(100);
        let (written, _) = store.put(Signature(7), &out).unwrap();
        assert!(written > 0);
        assert_eq!(store.len(), 1);
        let (back, read, _) = store.get(Signature(7)).unwrap();
        assert_eq!(read, written);
        assert_eq!(back, out);
    }

    #[test]
    fn a_put_displaces_residents_only_until_it_fits() {
        let small = sample_output(100);
        let size = small.encode().len() as u64;
        let store = open_store(tmpdir("displace"), 3 * size + size / 2);
        for sig in 1..=3 {
            store.put(Signature(sig), &small).unwrap();
        }
        let all = [Signature(1), Signature(2), Signature(3)];
        assert!(store.put(Signature(4), &small).is_err(), "no list: refuse");
        store.put_grouped(Signature(4), &small, &[], &all).unwrap();
        assert!(
            store.lookup(Signature(1)).is_none(),
            "the first victim went"
        );
        assert!(store.lookup(Signature(2)).is_some() && store.lookup(Signature(3)).is_some());
        assert_eq!(
            store.displaced_stats(),
            DisplacedStats {
                entries: 1,
                bytes: size
            }
        );
        let mut residents = store.residents();
        residents.sort_by_key(|r| r.sig.0);
        assert_eq!(
            residents,
            (2..=4)
                .map(|sig| Resident {
                    sig: Signature(sig),
                    bytes: size
                })
                .collect::<Vec<_>>()
        );

        // Victims that cannot make room together: none goes.
        let big = sample_output(1_000);
        assert!(big.encode().len() as u64 > size + size / 2);
        assert!(store
            .put_grouped(Signature(5), &big, &[], &[Signature(2), Signature(9)])
            .is_err());
        assert!(store.lookup(Signature(2)).is_some());
        assert_eq!(store.displaced_stats().entries, 1);
        assert_matches_disk(&store);
    }

    #[test]
    fn a_file_serving_row_groups_is_no_resident() {
        let store = open_store(tmpdir("residents"), 1 << 20);
        let data = int_rows(0..9);
        store
            .put_grouped(
                Signature(8),
                &NodeOutput::Data(data.clone()),
                &groups_at(&[0, 3, 6, 9], 800),
                &[],
            )
            .unwrap();
        store.put_chunks(&data, &groups_at(&[0, 9], 900)).unwrap();
        assert!(store.residents().is_empty());
    }

    #[test]
    fn missing_entry_errors() {
        let store = open_store(tmpdir("miss"), 1 << 20);
        assert!(store.get(Signature(1)).is_err());
        assert!(store.lookup(Signature(1)).is_none());
    }

    #[test]
    fn budget_enforced() {
        let store = open_store(tmpdir("budget"), 64);
        let out = sample_output(1000);
        let err = store.put(Signature(1), &out).unwrap_err();
        assert!(err.to_string().contains("budget"));
        assert_eq!(store.used_bytes(), 0);
    }

    #[test]
    fn overwrite_replaces_budget_share() {
        let dir = tmpdir("overwrite");
        let store = open_store(&dir, 1 << 20);
        store.put(Signature(9), &sample_output(100)).unwrap();
        let used_first = store.used_bytes();
        store.put(Signature(9), &sample_output(100)).unwrap();
        assert_eq!(store.used_bytes(), used_first);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn reopen_rescans_entries() {
        let dir = tmpdir("reopen");
        {
            let store = open_store(&dir, 1 << 20);
            store.put(Signature(3), &sample_output(10)).unwrap();
        }
        let store = open_store(&dir, 1 << 20);
        assert_eq!(store.len(), 1);
        let (out, ..) = store.get(Signature(3)).unwrap();
        assert_eq!(out, sample_output(10));
        assert!(store.used_bytes() > 0);
    }

    #[test]
    fn reopen_with_different_shard_count_sees_all_entries() {
        let dir = tmpdir("reshard");
        {
            let store = StoreOptions::new(&dir)
                .budget_bytes(1 << 20)
                .shards(4)
                .open()
                .unwrap();
            for i in 0..12 {
                store.put(Signature(i + 1), &sample_output(10)).unwrap();
            }
        }
        for shards in [1, 3, 16] {
            let store = StoreOptions::new(&dir)
                .budget_bytes(1 << 20)
                .shards(shards)
                .open()
                .unwrap();
            assert_eq!(store.shard_count(), shards);
            assert_eq!(store.len(), 12, "{shards} shards");
            for i in 0..12 {
                assert_eq!(store.get(Signature(i + 1)).unwrap().0, sample_output(10));
            }
        }
    }

    #[test]
    fn evict_frees_budget() {
        let store = open_store(tmpdir("evict"), 1 << 20);
        store.put(Signature(5), &sample_output(10)).unwrap();
        assert!(store.evict(Signature(5)).unwrap());
        assert!(!store.evict(Signature(5)).unwrap());
        assert_eq!(store.used_bytes(), 0);
        assert!(store.get(Signature(5)).is_err());
    }

    #[test]
    fn evict_failure_leaves_entry_and_ledger_intact() {
        // Force `remove_file` to fail by replacing the entry's file with
        // a non-empty directory of the same name. The failed evict must
        // not mutate the map or the budget ledger — otherwise the store's
        // view disagrees with the disk and a reopen rescan resurrects the
        // "evicted" entry.
        let store = open_store(tmpdir("evict-fail"), 1 << 20);
        store.put(Signature(9), &sample_output(10)).unwrap();
        let used_before = store.used_bytes();
        let path = store.path_for(9);
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        std::fs::write(path.join("occupant"), b"x").unwrap();

        assert!(store.evict(Signature(9)).is_err());
        assert!(
            store.lookup(Signature(9)).is_some(),
            "failed evict must keep the entry"
        );
        assert_eq!(
            store.used_bytes(),
            used_before,
            "failed evict must not free budget"
        );

        // Once the obstruction is gone the same evict succeeds; the file
        // is already absent (NotFound), which counts as removed.
        std::fs::remove_dir_all(&path).unwrap();
        assert!(store.evict(Signature(9)).unwrap());
        assert_eq!(store.used_bytes(), 0);
    }

    #[test]
    fn evict_treats_missing_file_as_removed() {
        let store = open_store(tmpdir("evict-gone"), 1 << 20);
        store.put(Signature(3), &sample_output(10)).unwrap();
        std::fs::remove_file(store.path_for(3)).unwrap();
        assert!(store.evict(Signature(3)).unwrap());
        assert_eq!(store.used_bytes(), 0);
        assert!(store.lookup(Signature(3)).is_none());
    }

    #[test]
    fn signatures_lists_live_entries() {
        let store = open_store(tmpdir("sigs"), 1 << 20);
        for i in 1..=5 {
            store.put(Signature(i), &sample_output(4)).unwrap();
        }
        store.evict(Signature(3)).unwrap();
        let mut sigs: Vec<u64> = store.signatures().into_iter().map(|s| s.0).collect();
        sigs.sort_unstable();
        assert_eq!(sigs, vec![1, 2, 4, 5]);
    }

    #[test]
    fn clear_removes_everything() {
        let store = open_store(tmpdir("clear"), 1 << 20);
        store.put(Signature(1), &sample_output(5)).unwrap();
        store.put(Signature(2), &sample_output(5)).unwrap();
        store.clear().unwrap();
        assert!(store.is_empty());
        assert_eq!(store.remaining_bytes(), 1 << 20);
    }

    /// Bookkeeping invariant shared by the stress tests: the byte ledger
    /// must equal the sum of live entries and respect the budget.
    fn assert_ledger_consistent(store: &IntermediateStore, sigs: &[Signature]) {
        let summed: u64 = sigs
            .iter()
            .filter_map(|&s| store.lookup(s))
            .map(|m| m.bytes)
            .sum();
        assert_eq!(
            store.used_bytes(),
            summed,
            "ledger out of sync with entries"
        );
        assert!(
            store.used_bytes() <= store.budget_bytes(),
            "budget exceeded: {} > {}",
            store.used_bytes(),
            store.budget_bytes()
        );
    }

    /// The ledger of a reopened durable store must equal the bytes of the
    /// `.hlx` files actually in the directory — the acceptance check for
    /// "replay can never double-count budget".
    fn assert_matches_disk(store: &IntermediateStore) {
        let on_disk: u64 = std::fs::read_dir(store.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("hlx"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert_eq!(store.used_bytes(), on_disk, "ledger != bytes on disk");
    }

    #[test]
    fn concurrent_puts_never_exceed_budget() {
        // Each entry is ~1.3 KiB encoded; a budget of ~8 entries with 32
        // threads racing means most puts must be rejected — and the
        // accepted set must exactly account for every used byte. Run at
        // several shard counts: with many shards the racing puts hold
        // *different* locks, so the ledger CAS is all that stands between
        // them and a joint overshoot.
        let one_entry = sample_output(100).encode().len() as u64;
        let budget = one_entry * 8 + one_entry / 2;
        for shards in [1, 4, 16] {
            let store = StoreOptions::new(tmpdir("race-budget"))
                .budget_bytes(budget)
                .shards(shards)
                .open()
                .unwrap();
            let sigs: Vec<Signature> = (0..32).map(|i| Signature(1000 + i)).collect();
            let accepted: usize = std::thread::scope(|scope| {
                let handles: Vec<_> = sigs
                    .iter()
                    .map(|&sig| {
                        let store = &store;
                        scope.spawn(move || match store.put(sig, &sample_output(100)) {
                            Ok(_) => 1usize,
                            Err(HelixError::Store(_)) => 0usize,
                            Err(other) => panic!("unexpected error: {other}"),
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            });
            assert_eq!(
                accepted, 8,
                "{shards} shards: exactly the entries that fit are accepted"
            );
            assert_eq!(store.len(), 8, "{shards} shards");
            assert_ledger_consistent(&store, &sigs);
        }
    }

    #[test]
    fn puts_racing_eviction_never_corrupt_entries() {
        // Writers repeatedly put distinct signatures while an evictor
        // tears entries down; afterwards every surviving entry must decode
        // to exactly what its writer stored.
        let store = open_wal_store(tmpdir("race-evict"), 1 << 22);
        let per_writer = 24i64;
        let writers = 4i64;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let store = &store;
                scope.spawn(move || {
                    for k in 0..per_writer {
                        let sig = Signature((w * per_writer + k) as u64 + 1);
                        // Payload derived from the signature so readers can
                        // verify integrity without coordination.
                        store
                            .put(sig, &sample_output(10 + (sig.0 % 7) as i64))
                            .unwrap();
                    }
                });
            }
            let store = &store;
            scope.spawn(move || {
                for round in 0..64u64 {
                    let _ = store.evict(Signature(round % (writers * per_writer) as u64 + 1));
                }
            });
        });
        let sigs: Vec<Signature> = (0..writers * per_writer)
            .map(|i| Signature(i as u64 + 1))
            .collect();
        assert_ledger_consistent(&store, &sigs);
        let mut survivors = 0;
        for &sig in &sigs {
            if store.lookup(sig).is_some() {
                let (out, ..) = store.get(sig).unwrap();
                assert_eq!(
                    out,
                    sample_output(10 + (sig.0 % 7) as i64),
                    "entry {sig:?} corrupt"
                );
                survivors += 1;
            }
        }
        assert!(survivors > 0, "eviction should not have removed everything");
    }

    #[test]
    fn concurrent_readers_see_consistent_snapshots() {
        let store = open_store(tmpdir("race-read"), 1 << 22);
        for i in 0..8 {
            store.put(Signature(i + 1), &sample_output(50)).unwrap();
        }
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..8u64 {
                        let (out, bytes, _) = store.get(Signature(i + 1)).unwrap();
                        assert_eq!(out, sample_output(50));
                        assert!(bytes > 0);
                    }
                });
            }
        });
        assert_eq!(store.len(), 8);
    }

    #[test]
    fn failed_put_rolls_back_reservation() {
        // Force the write to fail by deleting the store directory out from
        // under it; the reservation must be rolled back so the budget is
        // not permanently leaked.
        let dir = tmpdir("rollback");
        let store = open_store(&dir, 1 << 20);
        std::fs::remove_dir_all(&dir).unwrap();
        let err = store.put(Signature(7), &sample_output(100)).unwrap_err();
        assert!(matches!(err, HelixError::Io(_)), "got: {err}");
        assert_eq!(store.used_bytes(), 0, "reservation must roll back");
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn shard_index_spreads_and_stays_in_range() {
        for shards in [1usize, 2, 5, 16] {
            let mut hit = vec![false; shards];
            for sig in 0..256u64 {
                let idx = shard_index(sig, shards);
                assert!(idx < shards);
                hit[idx] = true;
            }
            assert!(hit.iter().all(|&h| h), "{shards} shards all reachable");
        }
    }

    // ------------------------------------------------------------------
    // Durable tier
    // ------------------------------------------------------------------

    #[test]
    fn wal_reopen_restores_entries_and_ledger() {
        let dir = tmpdir("wal-reopen");
        let used;
        {
            let store = open_wal_store(&dir, 1 << 20);
            for i in 1..=6 {
                store
                    .put(Signature(i), &sample_output(10 + i as i64))
                    .unwrap();
            }
            store.evict(Signature(4)).unwrap();
            used = store.used_bytes();
        }
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 5);
        assert_eq!(store.used_bytes(), used);
        assert_eq!(store.recovery().recovered_entries, 5);
        assert_eq!(store.recovery().adopted_files, 5);
        assert_eq!(store.recovery().dropped_entries, 0);
        assert_matches_disk(&store);
        for i in [1u64, 2, 3, 5, 6] {
            assert_eq!(
                store.get(Signature(i)).unwrap().0,
                sample_output(10 + i as i64)
            );
        }
        assert!(
            store.lookup(Signature(4)).is_none(),
            "an evicted key's file is gone"
        );
    }

    #[test]
    fn wal_open_adopts_files_from_a_volatile_store() {
        let dir = tmpdir("wal-adopt");
        {
            let store = open_store(&dir, 1 << 20);
            for i in 1..=4 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
        }
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 4);
        assert_eq!(store.recovery().adopted_files, 4);
        assert_eq!(store.recovery().recovered_entries, 4);
        assert_matches_disk(&store);
        // Nothing but the files is kept: a second reopen indexes them
        // the same way.
        drop(store);
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.recovery().adopted_files, 4);
        assert_eq!(store.recovery().recovered_entries, 4);
    }

    // ------------------------------------------------------------------
    // Row groups
    // ------------------------------------------------------------------

    fn int_rows(values: std::ops::Range<i64>) -> DataCollection {
        let schema = Schema::of(&[("x", DataType::Int)]);
        DataCollection::new(schema, values.map(|i| Row(vec![Value::Int(i)])).collect()).unwrap()
    }

    /// Groups of `data` at the given bounds, keyed `base + k`.
    fn groups_at(bounds: &[usize], base: u64) -> Vec<GroupSpec> {
        bounds
            .windows(2)
            .enumerate()
            .map(|(k, w)| GroupSpec {
                start: w[0],
                end: w[1],
                key: base + k as u64,
            })
            .collect()
    }

    fn hlx_files(store: &IntermediateStore) -> usize {
        std::fs::read_dir(store.dir())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .and_then(|x| x.to_str())
                    == Some("hlx")
            })
            .count()
    }

    /// The header of file `id` as stored (after its one tag byte).
    fn stored_header(store: &IntermediateStore, id: u64) -> codec::Header {
        let bytes = std::fs::read(store.path_for(id)).unwrap();
        codec::read_header(&bytes[1..]).unwrap()
    }

    #[test]
    fn one_grouped_put_serves_the_whole_key_and_every_group_key() {
        let store = open_store(tmpdir("groups-serve"), 1 << 20);
        let data = int_rows(0..10);
        let groups = groups_at(&[0, 3, 7, 10], 500);
        let output = NodeOutput::Data(data.clone());
        let (written, _) = store
            .put_grouped(Signature(7), &output, &groups, &[])
            .unwrap();
        assert_eq!(hlx_files(&store), 1, "one file for the node and its chunks");
        assert_eq!(store.len(), 4, "the whole key plus three group keys");
        assert_eq!(store.used_bytes(), written);
        assert_matches_disk(&store);

        let (whole, read, _) = store.get(Signature(7)).unwrap();
        assert_eq!((&*whole, read), (&output, written));
        let header = stored_header(&store, 7);
        for (k, g) in groups.iter().enumerate() {
            let (part, read, _) = store.get(Signature(g.key)).unwrap();
            assert_eq!(part.as_data().unwrap(), &data.slice(g.start, g.end));
            assert_eq!(
                read, header.groups[k].len,
                "a group read reports its own bytes"
            );
            assert!(read < written);
            assert_eq!(store.lookup(Signature(g.key)).unwrap().bytes, read);
        }
    }

    #[test]
    fn evicting_the_whole_key_keeps_group_keys_and_frees_the_file_once() {
        let store = open_store(tmpdir("groups-evict"), 1 << 20);
        let data = int_rows(0..9);
        let groups = groups_at(&[0, 4, 9], 600);
        let (written, _) = store
            .put_grouped(Signature(8), &NodeOutput::Data(data.clone()), &groups, &[])
            .unwrap();

        assert!(store.evict(Signature(8)).unwrap());
        assert!(store.lookup(Signature(8)).is_none());
        assert!(store.get(Signature(8)).is_err());
        let (part, ..) = store.get(Signature(601)).unwrap();
        assert_eq!(part.as_data().unwrap(), &data.slice(4, 9));
        assert_eq!(
            store.used_bytes(),
            written,
            "the file still holds its bytes"
        );
        assert_matches_disk(&store);

        assert!(store.evict(Signature(600)).unwrap());
        assert_eq!(store.used_bytes(), written);
        assert_matches_disk(&store);

        assert!(store.evict(Signature(601)).unwrap());
        assert_eq!(store.used_bytes(), 0, "the last key takes the file with it");
        assert_eq!(hlx_files(&store), 0);
        assert_matches_disk(&store);
        assert!(store.is_empty());
    }

    #[test]
    fn a_psig_held_by_two_files_survives_eviction_of_one_of_them() {
        let store = open_store(tmpdir("groups-shared"), 1 << 20);
        let data = int_rows(0..6);
        // The node file, then a chunk-only file holding chunk 700 again.
        store
            .put_grouped(
                Signature(9),
                &NodeOutput::Data(data.clone()),
                &groups_at(&[0, 3, 6], 700),
                &[],
            )
            .unwrap();
        store
            .put_chunks(&data, &groups_at(&[0, 3], 700)[..1])
            .unwrap();
        assert_eq!(hlx_files(&store), 2);
        assert_eq!(store.len(), 3, "chunk 700 is one key with two locations");

        // Chunk 700's bytes in the node file go bad. The read evicts that
        // file — every key it held — and serves the chunk from the other.
        let header = stored_header(&store, 9);
        let range = header.group_range(0, u64::MAX).unwrap();
        let path = store.path_for(9);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[1 + range.start as usize + 9] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (part, ..) = store.get(Signature(700)).unwrap();
        assert_eq!(part.as_data().unwrap(), &data.slice(0, 3));
        assert!(!path.exists(), "the corrupt file is gone");
        assert!(store.lookup(Signature(9)).is_none());
        assert!(store.lookup(Signature(701)).is_none());
        assert!(store.lookup(Signature(700)).is_some());
        assert_eq!(hlx_files(&store), 1);
        assert_matches_disk(&store);

        // Evicting the key removes its remaining location and file.
        assert!(store.evict(Signature(700)).unwrap());
        assert!(store.is_empty());
        assert_matches_disk(&store);
    }

    #[test]
    fn a_corrupt_whole_entry_is_evicted_with_a_store_error_naming_it() {
        let store = open_store(tmpdir("groups-corrupt"), 1 << 20);
        let data = int_rows(0..8);
        store
            .put_grouped(
                Signature(10),
                &NodeOutput::Data(data),
                &groups_at(&[0, 4, 8], 800),
                &[],
            )
            .unwrap();
        let path = store.path_for(10);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.get(Signature(10)).unwrap_err();
        assert!(
            matches!(&err, HelixError::Store(msg) if msg.contains(&Signature(10).hex())),
            "got {err}"
        );
        assert!(store.is_empty(), "the file and all its keys are gone");
        assert_eq!(store.used_bytes(), 0);
        assert_matches_disk(&store);
    }

    #[test]
    fn a_durable_reopen_restores_every_group_key() {
        let dir = tmpdir("groups-reopen");
        let data = int_rows(0..12);
        let node_groups = groups_at(&[0, 5, 12], 900);
        let loose = groups_at(&[5, 12], 950);
        {
            let store = StoreOptions::new(&dir)
                .budget_bytes(1 << 20)
                .durability(Durability::wal())
                .open()
                .unwrap();
            store
                .put_grouped(
                    Signature(11),
                    &NodeOutput::Data(data.clone()),
                    &node_groups,
                    &[],
                )
                .unwrap();
            store.put_chunks(&data, &loose).unwrap();
        }
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 20)
            .durability(Durability::wal())
            .open()
            .unwrap();
        assert_eq!(store.recovery().adopted_files, 2);
        assert_eq!(store.recovery().recovered_entries, 4);
        assert_eq!(store.len(), 4);
        assert_matches_disk(&store);
        let (whole, ..) = store.get(Signature(11)).unwrap();
        assert_eq!(whole, NodeOutput::Data(data.clone()));
        for g in node_groups.iter().chain(&loose) {
            let (part, ..) = store.get(Signature(g.key)).unwrap();
            assert_eq!(part.as_data().unwrap(), &data.slice(g.start, g.end));
        }
    }

    #[test]
    fn version_2_entries_serve_their_file_name() {
        // `sample_output(3)` exactly as the version-2 writer stored it.
        let v2: &[u8] = &[
            1, 72, 76, 88, 68, 2, 0, 0, 0, 1, 1, 120, 1, 0, 3, 3, 0, 3, 2, 3, 4,
        ];
        let dir = tmpdir("v2-entry");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(sig_file_name(12)), v2).unwrap();
        let store = open_store(&dir, 1 << 20);
        assert_eq!(store.len(), 1);
        assert_eq!(store.lookup(Signature(12)).unwrap().bytes, v2.len() as u64);
        assert_eq!(store.get(Signature(12)).unwrap().0, sample_output(3));
        assert_matches_disk(&store);
    }

    #[test]
    fn grouped_puts_reject_groups_that_do_not_tile() {
        let store = open_store(tmpdir("groups-bad"), 1 << 20);
        let output = NodeOutput::Data(int_rows(0..6));
        for bounds in [&[0, 3][..], &[1, 6], &[0, 4, 3, 6]] {
            let groups = groups_at(bounds, 1);
            assert!(matches!(
                store.put_grouped(Signature(13), &output, &groups, &[]),
                Err(HelixError::Store(_))
            ));
        }
        assert!(store.put_chunks(&int_rows(0..6), &[]).is_err());
        assert!(store.is_empty());
        assert_eq!(store.used_bytes(), 0);
    }

    // ------------------------------------------------------------------
    // Decoded reads
    // ------------------------------------------------------------------

    /// An `Int` collection whose estimated size is exactly `bytes` (to
    /// within one row of 32 bytes).
    fn output_of_size(bytes: usize) -> NodeOutput {
        NodeOutput::Data(int_rows(0..((bytes - 48) / 32) as i64))
    }

    /// Reads `sig` `times` times and returns whether the last read was
    /// answered from memory.
    fn read_times(store: &IntermediateStore, sig: u64, times: usize) -> bool {
        let mut cached = false;
        for _ in 0..times {
            cached = store.read(Signature(sig)).unwrap().cached;
        }
        cached
    }

    #[test]
    fn a_whole_output_is_admitted_on_its_second_verified_decode() {
        let store = open_store(tmpdir("dc-admit"), 1 << 20);
        let out = sample_output(100);
        let (written, _) = store.put(Signature(7), &out).unwrap();

        assert!(!store.read(Signature(7)).unwrap().cached);
        assert_eq!(store.decoded_stats(), DecodedStats::default());
        let second = store.read(Signature(7)).unwrap();
        assert!(!second.cached, "the admitting read is a disk read");
        assert_eq!(
            store.decoded_stats(),
            DecodedStats {
                entries: 1,
                bytes: out.estimated_bytes() as u64,
                hits: 0
            }
        );
        let third = store.read(Signature(7)).unwrap();
        assert!(third.cached);
        assert!(Arc::ptr_eq(&second.output, &third.output));
        assert_eq!(third.bytes, written, "a hit reports the stored bytes");
        assert_eq!(store.get(Signature(7)).unwrap().0, out);
        assert_eq!(store.decoded_stats().hits, 2);

        // An overwrite replaces the file the entry was decoded from.
        store.put(Signature(7), &out).unwrap();
        assert_eq!(store.decoded_stats().entries, 0);
        assert!(!store.read(Signature(7)).unwrap().cached);
    }

    #[test]
    fn version_2_reads_are_never_admitted() {
        let store = open_store(tmpdir("dc-v2"), 1 << 20);
        // A version-2 file carries no checksums to verify.
        let v2: &[u8] = &[
            1, 72, 76, 88, 68, 2, 0, 0, 0, 1, 1, 120, 1, 0, 3, 3, 0, 3, 2, 3, 4,
        ];
        std::fs::write(store.dir().join(sig_file_name(12)), v2).unwrap();
        let store = open_store(store.dir(), 1 << 20);
        assert!(!read_times(&store, 12, 3));
        assert_eq!(store.decoded_stats(), DecodedStats::default());
    }

    #[test]
    fn a_row_group_is_served_without_decode_and_leaves_with_its_location() {
        let store = open_store(tmpdir("dc-groups"), 1 << 20);
        let data = int_rows(0..10);
        let groups = groups_at(&[0, 4, 10], 500);
        store
            .put_grouped(Signature(8), &NodeOutput::Data(data.clone()), &groups, &[])
            .unwrap();
        let first = store.read(Signature(501)).unwrap();
        let second = store.read(Signature(501)).unwrap();
        assert!(
            !first.cached && !second.cached,
            "admitted by its second decode"
        );
        let entry = store.decoded_stats();
        assert_eq!((entry.entries, entry.hits), (1, 0));
        let third = store.read(Signature(501)).unwrap();
        assert!(third.cached, "no file read, no decode");
        assert!(Arc::ptr_eq(&second.output, &third.output));
        assert_eq!(third.bytes, second.bytes);
        assert_eq!(third.output.as_data().unwrap(), &data.slice(4, 10));

        // Evicting the key takes its location, and the entry with it.
        assert!(store.evict(Signature(501)).unwrap());
        assert_eq!(store.decoded_stats().entries, 0);
        assert!(store.get(Signature(501)).is_err());
    }

    #[test]
    fn a_superseded_node_file_becomes_a_manifest_over_the_newer_groups() {
        let dir = tmpdir("manifest");
        let store = open_wal_store(&dir, 1 << 20);
        let old = int_rows(0..6);
        let new = int_rows(0..9);
        store
            .put_grouped(
                Signature(1),
                &NodeOutput::Data(old.clone()),
                &groups_at(&[0, 3, 6], 700),
                &[],
            )
            .unwrap();
        let whole_size = std::fs::metadata(store.path_for(1)).unwrap().len();
        // Chunk 700 is read twice, so the cache holds it from file 1.
        assert!(!read_times(&store, 700, 2));
        // The next version shares chunks 700 and 701 and adds 702.
        let new_groups = groups_at(&[0, 3, 6, 9], 700);
        store
            .put_grouped(
                Signature(2),
                &NodeOutput::Data(new.clone()),
                &new_groups,
                &[],
            )
            .unwrap();

        let manifest = std::fs::read(store.path_for(1)).unwrap();
        assert_eq!(manifest[0], TAG_MANIFEST);
        assert!((manifest.len() as u64) < whole_size);
        let header = codec::read_header(&manifest[1..]).unwrap();
        assert!(header.groups.iter().all(|g| g.is_external()));
        // The newer file is what a fresh store would write.
        let mut fresh = vec![crate::ops::OUT_TAG_DATA];
        codec::encode_grouped_into(&new, &new_groups, &mut fresh);
        assert_eq!(std::fs::read(store.path_for(2)).unwrap(), fresh);
        assert_matches_disk(&store);

        // Both outputs read whole; the manifest reports the bytes it read.
        let (back, bytes, _) = store.get(Signature(1)).unwrap();
        assert_eq!(back, NodeOutput::Data(old.clone()));
        assert_eq!(Some(bytes), store.lookup(Signature(1)).map(|m| m.bytes));
        assert_eq!(
            store.get(Signature(2)).unwrap().0,
            NodeOutput::Data(new.clone())
        );
        // The cached chunk moved with its bytes: no decode.
        assert!(store.read(Signature(700)).unwrap().cached);

        // Reopened, the manifest is credited with none of its groups.
        drop(store);
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 5, "two node keys and three chunk keys");
        assert_eq!(store.get(Signature(1)).unwrap().0, NodeOutput::Data(old));
        assert_matches_disk(&store);

        // A manifest whose group key is gone reads as missing; the node
        // that holds the bytes still reads.
        assert!(store.evict(Signature(700)).unwrap());
        assert!(store.lookup(Signature(1)).is_none());
        let err = store.get(Signature(1)).unwrap_err();
        assert!(err.to_string().contains("no entry"), "{err}");
        assert_eq!(store.get(Signature(2)).unwrap().0, NodeOutput::Data(new));
    }

    #[test]
    fn a_chunk_only_file_goes_once_a_node_file_holds_all_its_groups() {
        let store = open_store(tmpdir("chunks-adopted"), 1 << 20);
        let data = int_rows(0..9);
        let groups = groups_at(&[0, 3, 6, 9], 800);
        // A declined node kept chunks 800 and 801; chunk 802 is new.
        store.put_chunks(&data, &groups[..2]).unwrap();
        store.put_chunks(&data, &groups[1..]).unwrap();
        assert_eq!(hlx_files(&store), 2);
        store
            .put_grouped(Signature(3), &NodeOutput::Data(data.clone()), &groups, &[])
            .unwrap();
        assert_eq!(hlx_files(&store), 1, "only the node file is left");
        for (k, g) in groups.iter().enumerate() {
            let (part, ..) = store.get(Signature(g.key)).unwrap();
            assert_eq!(part.as_data().unwrap(), &data.slice(3 * k, 3 * k + 3));
        }
        assert_ledger_consistent(&store, &[Signature(3)]);
        assert_matches_disk(&store);
    }

    #[test]
    fn lru_eviction_keeps_the_cache_under_its_bound() {
        // As many of the largest admitted entries as the bound holds fit;
        // the next ones evict.
        let store = open_store(tmpdir("dc-lru"), 1 << 30);
        let out = output_of_size(DECODED_ENTRY_BYTES);
        let size = out.estimated_bytes() as u64;
        let fit = (DECODED_CACHE_BYTES as u64 / size) as usize;
        let sigs = fit as u64 + 2;
        for sig in 1..=sigs {
            store.put(Signature(sig), &out).unwrap();
            read_times(&store, sig, 2);
            assert!(store.decoded_stats().bytes <= DECODED_CACHE_BYTES as u64);
        }
        assert_eq!(store.decoded_stats().entries, fit);
        assert_eq!(store.decoded_stats().bytes, fit as u64 * size);
        assert!(read_times(&store, 3, 1), "recent entries stay");
        // 3 is now the most recent: admitting one more evicts 4, the
        // oldest.
        store.put(Signature(sigs + 1), &out).unwrap();
        read_times(&store, sigs + 1, 2);
        assert_eq!(store.decoded_stats().entries, fit);
        assert!(read_times(&store, 3, 1));
        assert!(!read_times(&store, 4, 1), "the least recently used left");
        assert!(!read_times(&store, 1, 1));
        assert_eq!(
            store.len(),
            sigs as usize + 1,
            "eviction from memory keeps the files"
        );
    }

    #[test]
    fn an_entry_over_the_entry_bound_is_never_admitted() {
        let store = open_store(tmpdir("dc-entry"), 1 << 30);
        let out = output_of_size(DECODED_ENTRY_BYTES + 64);
        assert!(out.estimated_bytes() > DECODED_ENTRY_BYTES);
        store.put(Signature(3), &out).unwrap();
        assert!(!read_times(&store, 3, 4));
        assert_eq!(store.decoded_stats(), DecodedStats::default());
    }

    #[test]
    fn an_entry_over_a_quarter_of_the_bound_is_never_admitted() {
        let store = open_store(tmpdir("dc-large"), 1 << 30);
        let out = output_of_size(DECODED_CACHE_BYTES / 4 + 64);
        assert!(out.estimated_bytes() > DECODED_CACHE_BYTES / 4);
        store.put(Signature(3), &out).unwrap();
        assert!(!read_times(&store, 3, 4));
        assert_eq!(store.decoded_stats(), DecodedStats::default());
    }

    #[test]
    fn evict_and_clear_invalidate_entries() {
        let store = open_store(tmpdir("dc-evict"), 1 << 20);
        store.put(Signature(1), &sample_output(10)).unwrap();
        store.put(Signature(2), &sample_output(20)).unwrap();
        read_times(&store, 1, 2);
        read_times(&store, 2, 2);
        assert_eq!(store.decoded_stats().entries, 2);

        assert!(store.evict(Signature(1)).unwrap());
        assert_eq!(store.decoded_stats().entries, 1);
        let err = store.get(Signature(1)).unwrap_err();
        assert!(err.to_string().contains("no entry"), "got {err}");

        store.clear().unwrap();
        assert_eq!(store.decoded_stats().entries, 0);
        assert_eq!(store.decoded_stats().bytes, 0);
        assert!(store.get(Signature(2)).is_err());
    }

    #[test]
    fn a_dropped_corrupt_file_takes_its_entries_along() {
        let store = open_store(tmpdir("dc-drop"), 1 << 20);
        let data = int_rows(0..6);
        store
            .put_grouped(
                Signature(9),
                &NodeOutput::Data(data.clone()),
                &groups_at(&[0, 3, 6], 700),
                &[],
            )
            .unwrap();
        // Chunk 700 and key 9 each also live in a chunk-only file.
        store
            .put_chunks(&data, &groups_at(&[0, 3], 700)[..1])
            .unwrap();
        store.put_chunks(&data, &groups_at(&[0, 6], 9)).unwrap();
        assert!(!read_times(&store, 9, 2));
        assert_eq!(store.decoded_stats().entries, 1, "admitted from file 9");

        // A corrupt chunk drops file 9, and the entry decoded from it.
        let range = stored_header(&store, 9).group_range(0, u64::MAX).unwrap();
        let path = store.path_for(9);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[1 + range.start as usize + 9] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        store.get(Signature(700)).unwrap();
        assert!(!path.exists());
        assert_eq!(store.decoded_stats().entries, 0);

        // Key 9 is then served by its next location, as without a cache.
        let read = store.read(Signature(9)).unwrap();
        assert!(!read.cached);
        assert_eq!(read.output, NodeOutput::Data(data));
    }

    #[test]
    fn a_file_corrupted_after_admission_fails_its_next_disk_read() {
        let dir = tmpdir("dc-corrupt");
        let store = open_store(&dir, 1 << 20);
        let out = sample_output(40);
        store.put(Signature(4), &out).unwrap();
        read_times(&store, 4, 2);
        let path = store.path_for(4);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // The verified copy in memory still answers.
        let read = store.read(Signature(4)).unwrap();
        assert!(read.cached);
        assert_eq!(read.output, out);

        // A reopened store starts empty, so its first read is from disk.
        drop(store);
        let store = open_store(&dir, 1 << 20);
        assert_eq!(store.decoded_stats(), DecodedStats::default());
        let err = store.get(Signature(4)).unwrap_err();
        assert!(
            matches!(&err, HelixError::Store(msg) if msg.contains(&Signature(4).hex())),
            "got {err}"
        );
        assert!(!path.exists(), "the corrupt file was dropped");
    }

    #[test]
    fn a_get_racing_an_evict_cannot_bring_the_key_back() {
        let store = open_store(tmpdir("dc-race"), 1 << 20);
        let out = sample_output(50);
        store.put(Signature(5), &out).unwrap();
        read_times(&store, 5, 1);
        let pause = Arc::new(std::sync::Barrier::new(2));
        *store.inner.pause_before_admit.lock() = Some(Arc::clone(&pause));
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| store.get(Signature(5)));
            // The reader has decoded and verified, and waits to admit.
            pause.wait();
            assert!(store.evict(Signature(5)).unwrap());
            pause.wait();
            let (read, ..) = reader.join().unwrap().unwrap();
            assert_eq!(read, out, "the read itself finished before the evict");
        });
        *store.inner.pause_before_admit.lock() = None;
        assert_eq!(store.decoded_stats(), DecodedStats::default());
        assert!(store.get(Signature(5)).is_err());
        assert!(store.lookup(Signature(5)).is_none());
    }

    /// A collection of `(x, s)` rows, one per value; `s` repeats, so the
    /// encoding carries a string dictionary.
    fn golden_rows(values: impl IntoIterator<Item = i64>) -> DataCollection {
        let schema = Schema::of(&[("x", DataType::Int), ("s", DataType::Str)]);
        let rows = values
            .into_iter()
            .map(|i| Row(vec![Value::Int(i), Value::Str(format!("v{}", i % 3))]))
            .collect();
        DataCollection::new(schema, rows).unwrap()
    }

    /// Name and Fx hash of every file under `dir` with extension `ext`,
    /// by name.
    fn file_hashes(dir: &Path, ext: &str) -> Vec<(String, u64)> {
        let mut files: Vec<(String, u64)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().and_then(|x| x.to_str()) == Some(ext))
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                let bytes = std::fs::read(&p).unwrap();
                (name, helix_dataflow::fx::hash_bytes(&bytes))
            })
            .collect();
        files.sort();
        files
    }

    /// Every file a fixed script of puts leaves after each step, as
    /// `(step, name, Fx hash of the bytes)`: a whole node, a model, a
    /// grouped node, a second version that shrinks it to a manifest, a
    /// chunk-only file, a put that shrinks that file and one that
    /// empties it; a durable reopen then writes nothing. The expected
    /// list was captured from the single-file store this module replaced,
    /// so every file kind is written byte for byte as before.
    #[test]
    fn store_files_are_byte_identical_to_the_parent() {
        let dir = tmpdir("golden");
        let store = StoreOptions::new(&dir).shards(4).open().unwrap();
        let ds = helix_ml::Dataset::new(
            vec![helix_ml::LabeledExample {
                features: helix_ml::SparseVector::from_pairs(vec![(0, 1.0)]),
                label: 1.0,
            }],
            1,
        );
        let model =
            helix_ml::logreg::train(&ds, &helix_ml::logreg::LogRegConfig::default()).unwrap();
        let model = NodeOutput::Model(crate::ops::TrainedModel {
            model: helix_ml::Model::LogReg(model),
            feature_names: vec!["edu=BS".into()],
        });
        let grouped = |sig: u64, data: DataCollection, bounds: &[usize], keys: &[u64]| {
            let groups: Vec<GroupSpec> = groups_at(bounds, 0)
                .into_iter()
                .zip(keys)
                .map(|(g, &key)| GroupSpec { key, ..g })
                .collect();
            store
                .put_grouped(Signature(sig), &NodeOutput::Data(data), &groups, &[])
                .unwrap();
        };
        let mut seen = Vec::new();
        let mut step = |n: usize| {
            for (name, hash) in file_hashes(&dir, "hlx") {
                seen.push((n, name, hash));
            }
        };
        store
            .put(Signature(0x11), &NodeOutput::Data(golden_rows(0..20)))
            .unwrap();
        step(1);
        store.put(Signature(0x12), &model).unwrap();
        step(2);
        grouped(
            0x13,
            golden_rows(0..9),
            &[0, 3, 6, 9],
            &[0x700, 0x701, 0x702],
        );
        step(3);
        grouped(
            0x14,
            golden_rows((0..6).chain(50..53)),
            &[0, 3, 6, 9],
            &[0x700, 0x701, 0x710],
        );
        step(4);
        let loose = golden_rows(20..29);
        store
            .put_chunks(&loose, &groups_at(&[0, 3, 6, 9], 0x720))
            .unwrap();
        step(5);
        grouped(0x15, golden_rows(20..26), &[0, 3, 6], &[0x720, 0x721]);
        step(6);
        grouped(0x16, golden_rows(26..29), &[0, 3], &[0x722]);
        step(7);
        drop(store);
        let store = StoreOptions::new(&dir)
            .shards(2)
            .durability(Durability::wal())
            .open()
            .unwrap();
        step(8);
        assert!(!dir.join("wal").exists(), "a durable open keeps no log");
        assert_eq!(store.len(), 13);
        let expected: &[(usize, &str, u64)] = &[
            (1, "0000000000000011.hlx", 0x4fbb198356849574),
            (2, "0000000000000011.hlx", 0x4fbb198356849574),
            (2, "0000000000000012.hlx", 0xfafb91cc1a659dcf),
            (3, "0000000000000011.hlx", 0x4fbb198356849574),
            (3, "0000000000000012.hlx", 0xfafb91cc1a659dcf),
            (3, "0000000000000013.hlx", 0xfeeb8f681f053c73),
            (4, "0000000000000011.hlx", 0x4fbb198356849574),
            (4, "0000000000000012.hlx", 0xfafb91cc1a659dcf),
            (4, "0000000000000013.hlx", 0xc3d0fa4ba24598a2),
            (4, "0000000000000014.hlx", 0xb348c9babcf9801d),
            (5, "0000000000000011.hlx", 0x4fbb198356849574),
            (5, "0000000000000012.hlx", 0xfafb91cc1a659dcf),
            (5, "0000000000000013.hlx", 0xc3d0fa4ba24598a2),
            (5, "0000000000000014.hlx", 0xb348c9babcf9801d),
            (5, "90c2d9adadc89118.hlx", 0xbce3b660eddbb7a5),
            (6, "0000000000000011.hlx", 0x4fbb198356849574),
            (6, "0000000000000012.hlx", 0xfafb91cc1a659dcf),
            (6, "0000000000000013.hlx", 0xc3d0fa4ba24598a2),
            (6, "0000000000000014.hlx", 0xb348c9babcf9801d),
            (6, "0000000000000015.hlx", 0xe3748febcb19754c),
            (6, "90c2d9adadc89118.hlx", 0x8bf058cb5269986f),
            (7, "0000000000000011.hlx", 0x4fbb198356849574),
            (7, "0000000000000012.hlx", 0xfafb91cc1a659dcf),
            (7, "0000000000000013.hlx", 0xc3d0fa4ba24598a2),
            (7, "0000000000000014.hlx", 0xb348c9babcf9801d),
            (7, "0000000000000015.hlx", 0xe3748febcb19754c),
            (7, "0000000000000016.hlx", 0xe739457b190aaaf),
            (8, "0000000000000011.hlx", 0x4fbb198356849574),
            (8, "0000000000000012.hlx", 0xfafb91cc1a659dcf),
            (8, "0000000000000013.hlx", 0xc3d0fa4ba24598a2),
            (8, "0000000000000014.hlx", 0xb348c9babcf9801d),
            (8, "0000000000000015.hlx", 0xe3748febcb19754c),
            (8, "0000000000000016.hlx", 0xe739457b190aaaf),
        ];
        let seen: Vec<(usize, &str, u64)> = seen
            .iter()
            .map(|(n, name, h)| (*n, name.as_str(), *h))
            .collect();
        assert_eq!(seen, expected, "{seen:#x?}");
    }

    /// The store keeps no log: the directory scan is the index. A
    /// directory holding a stale `wal/shard-0.wal` of garbage, as an
    /// earlier release that kept a per-shard log could leave, serves
    /// exactly what a copy without it serves — keys, sizes, ledger and
    /// files — and the log is never read or written.
    #[test]
    fn a_durable_reopen_without_its_log_serves_what_a_reopen_with_it_serves() {
        let dir = tmpdir("with-log");
        {
            let store = open_wal_store(&dir, 1 << 20);
            store.put(Signature(1), &sample_output(30)).unwrap();
            let node = |sig: u64, data: DataCollection, keys: [u64; 3]| {
                let groups: Vec<GroupSpec> = groups_at(&[0, 3, 6, 9], 0)
                    .into_iter()
                    .zip(keys)
                    .map(|(g, key)| GroupSpec { key, ..g })
                    .collect();
                let output = NodeOutput::Data(data);
                store
                    .put_grouped(Signature(sig), &output, &groups, &[])
                    .unwrap();
            };
            node(2, golden_rows(0..9), [0x700, 0x701, 0x702]);
            // Shares two groups with node 2, which becomes a manifest.
            node(3, golden_rows((0..6).chain(50..53)), [0x700, 0x701, 0x710]);
            let loose = golden_rows(20..26);
            store
                .put_chunks(&loose, &groups_at(&[0, 3, 6], 0x720))
                .unwrap();
            assert!(store.evict(Signature(0x701)).unwrap());
            let manifest = std::fs::read(store.path_for(2)).unwrap();
            assert_eq!(manifest[0], TAG_MANIFEST);
        }
        assert!(!dir.join("wal").exists(), "a durable store keeps no log");
        let copy = tmpdir("without-log");
        std::fs::create_dir_all(&copy).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
        }
        // The stale log: a put record for a file that is gone, one whose
        // size is wrong, and a torn tail. Its access time is set before
        // its modification time, so a read would move it (relatime).
        let stale = dir.join("wal").join("shard-0.wal");
        std::fs::create_dir_all(stale.parent().unwrap()).unwrap();
        let garbage = b"{\"v\":1,\"op\":\"put\",\"sig\":\"00000000000000ff\",\"bytes\":9}\n\
            {\"v\":1,\"op\":\"put\",\"sig\":\"0000000000000001\",\"bytes\":1}\n\
            \x00\xffnot json{\"op\":\"evi";
        std::fs::write(&stale, garbage).unwrap();
        let long_ago = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000_000);
        std::fs::File::options()
            .write(true)
            .open(&stale)
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_accessed(long_ago))
            .unwrap();
        let before = std::fs::metadata(&stale).unwrap();

        let with = open_wal_store(&dir, 1 << 20);
        let without = open_wal_store(&copy, 1 << 20);
        assert_eq!(with.recovery(), without.recovery());
        assert_eq!(with.recovery().adopted_files, 4, "every file is indexed");
        assert_eq!(with.recovery().torn_records, 0, "the log is not parsed");

        let keys = |store: &IntermediateStore| {
            let mut sigs: Vec<u64> = store.signatures().into_iter().map(|s| s.0).collect();
            sigs.sort_unstable();
            sigs
        };
        assert_eq!(keys(&with), keys(&without));
        for sig in keys(&with) {
            assert_eq!(
                with.lookup(Signature(sig)),
                without.lookup(Signature(sig)),
                "{sig:x}"
            );
        }
        assert_eq!(with.used_bytes(), without.used_bytes());
        assert_eq!(file_hashes(&dir, "hlx"), file_hashes(&copy, "hlx"));
        drop((with, without));
        let after = std::fs::metadata(&stale).unwrap();
        assert_eq!(std::fs::read(&stale).unwrap(), garbage);
        assert_eq!(after.modified().unwrap(), before.modified().unwrap());
        assert_eq!(after.accessed().unwrap(), long_ago, "never read");
        assert!(!copy.join("wal").exists());
    }
}
