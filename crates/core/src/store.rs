//! The intermediate store: signature-keyed materializations on disk.
//!
//! Each materialized node output lives in one file named by its Merkle
//! signature (`<sig>.hlx`), so validity is purely a key-existence check:
//! any workflow change upstream of a node changes its signature and the
//! old file simply stops matching (it stays on disk and becomes reusable
//! again if the user reverts — the paper's version-rollback story).
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
//! is invisible to whole-node lookups. A key may live in several files
//! (an unchanged chunk appears in every version of the node); reads try
//! each location in turn.
//!
//! The budget ledger counts each file once. [`IntermediateStore::evict`]
//! removes one key; a file is deleted along with its last key. A read
//! verifies the checksums of the bytes it decodes; a file that fails is
//! deleted with all its keys (every other location of those keys stays
//! serviceable), and the read reports a [`HelixError::Store`] naming the
//! key, so the caller recomputes. Version-2 files — one whole output each,
//! as earlier releases wrote both node outputs and per-psig chunk entries
//! — are still read; they serve their file name as their one key.
//!
//! The store enforces the materialization optimizer's **storage budget**
//! (paper §2.3: "with a maximum storage constraint") and reports measured
//! I/O durations to the cost model.
//!
//! # Decoded reads
//!
//! Reads hand out [`Arc<NodeOutput>`]. The store keeps recently decoded
//! whole outputs in memory, so a repeated load of the same key is a
//! refcount increment rather than a file read, checksum pass, decode and
//! later free. Only whole-output reads of version-3 data files are
//! admitted. Their checksums were verified by the decode that admits
//! them, and that is the one verification the entry ever gets: a later
//! change to the file is caught by the next *disk* read (after the entry
//! leaves the cache, or after a reopen). Admission happens on a key's
//! *second* verified decode, so outputs read once and never again stay
//! out. The cache holds at most [`DECODED_CACHE_BYTES`] of
//! [`NodeOutput::estimated_bytes`], evicts least recently used entries
//! first, and never admits an entry larger than a quarter of that. An
//! entry is served only while the location it was decoded from is still
//! listed for its key, and it leaves together with that location: on
//! [`IntermediateStore::evict`], when a corrupt file is dropped, when a
//! file is overwritten, and on [`IntermediateStore::clear`]. A reopened
//! store starts with an empty cache.
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
//! A store opened with [`Durability::Wal`] keeps a per-shard write-ahead
//! log under `<dir>/wal/shard-<i>.wal`: one JSON-line record is appended
//! (and optionally fsync'd) for every file written and every file
//! deleted, and the log is compacted into a snapshot (a log holding
//! exactly one `put` record per live file) whenever it outgrows
//! `compact_after_bytes`. Opening a durable store replays the log,
//! **verifies every record against the files actually on disk** (missing
//! file → entry dropped; size mismatch → repaired to the file's actual
//! size; untracked `.hlx` file → adopted), truncates torn or corrupt tail
//! records with a warning — the store never refuses to start — and
//! finally writes a fresh snapshot. Because replay rebuilds the budget
//! ledger from the deduplicated, disk-verified file map, a crash at *any*
//! point between a file write/rename and the matching log append can
//! never double-count budget. Every open — durable or volatile — then
//! rebuilds the keys from the files' headers: the file is the ground
//! truth, so an evicted key whose file still serves other keys returns
//! after a reopen (it never held bytes of its own). See
//! docs/ARCHITECTURE.md § Durability.

use crate::ops::NodeOutput;
use crate::signature::Signature;
use crate::{HelixError, Result};
use helix_dataflow::codec::{self, GroupSpec};
use helix_dataflow::fx::{FxHashMap, FxHasher};
use helix_dataflow::DataCollection;
use helix_json::Json;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::hash::Hasher;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Process-wide counter for unique temp-file names (see [`IntermediateStore::put`]).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Default number of shards ([`StoreOptions::shards`] and
/// [`crate::EngineConfig::with_store_shards`] override it).
pub const DEFAULT_STORE_SHARDS: usize = 16;

/// Bytes of decoded outputs, counted in [`NodeOutput::estimated_bytes`],
/// the store keeps in memory (see the module docs, "Decoded reads"). An
/// output larger than a quarter of this is never kept. Sized for the
/// serving loop's hot set: a few prediction outputs of about 0.8 MB each.
pub const DECODED_CACHE_BYTES: usize = 8 << 20;

/// How many keys decoded once the decoded cache remembers while it waits
/// for their second decode.
const DECODED_ONCE_KEYS: usize = 256;

/// First byte of a chunk-only file (a node output's own first byte is
/// its [`NodeOutput`] tag, 1 or 2): codec v3 row groups that serve their
/// keys only, never a whole node output.
const TAG_CHUNKS: u8 = 3;

/// How (and whether) the store and engine state survive a process crash.
///
/// The default is [`Durability::Volatile`] — identical behavior and put
/// path to the store before the durable tier existed. Servers that must
/// resume sessions across restarts opt into [`Durability::Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No write-ahead log. Entries still live on disk and a reopen
    /// rescans the directory, but evictions, budget history, version
    /// DAGs, and sessions do not survive the process.
    #[default]
    Volatile,
    /// Per-shard write-ahead log plus engine/session snapshots.
    Wal {
        /// `fsync` each log record before `put`/`evict` returns. Turning
        /// this off (`wal-nosync`) keeps crash *consistency* — replay
        /// verifies against the files on disk — but a crash may lose the
        /// most recent records' bookkeeping until the files are rescanned.
        fsync: bool,
        /// Compact a shard's log into a snapshot once it exceeds this
        /// many bytes.
        compact_after_bytes: u64,
    },
}

impl Durability {
    /// Default log-compaction threshold for [`Durability::wal`].
    pub const DEFAULT_COMPACT_AFTER_BYTES: u64 = 1 << 20;

    /// Durable with fsync'd records — the safe default for serving.
    pub fn wal() -> Self {
        Durability::Wal {
            fsync: true,
            compact_after_bytes: Self::DEFAULT_COMPACT_AFTER_BYTES,
        }
    }

    /// Durable log without per-record fsync: crash-consistent but the
    /// tail may be lost on power failure. Useful when the fsync cost on
    /// the put path matters (see docs/PERFORMANCE.md).
    pub fn wal_nosync() -> Self {
        Durability::Wal {
            fsync: false,
            compact_after_bytes: Self::DEFAULT_COMPACT_AFTER_BYTES,
        }
    }

    /// Whether this mode persists state across restarts.
    pub fn is_durable(&self) -> bool {
        matches!(self, Durability::Wal { .. })
    }

    /// Overrides the WAL compaction threshold: a shard whose log exceeds
    /// this many bytes compacts into a snapshot on the next append,
    /// instead of only at open and on `POST /admin/snapshot`. A no-op for
    /// [`Durability::Volatile`].
    pub fn with_compact_after_bytes(self, bytes: u64) -> Self {
        match self {
            Durability::Volatile => Durability::Volatile,
            Durability::Wal { fsync, .. } => Durability::Wal {
                fsync,
                compact_after_bytes: bytes.max(1),
            },
        }
    }

    /// Parses the `HELIX_DURABILITY` environment value: `volatile`,
    /// `wal`, or `wal-nosync` (case-insensitive). `None` for anything
    /// else.
    pub fn from_env_value(value: &str) -> Option<Durability> {
        match value.to_ascii_lowercase().as_str() {
            "volatile" => Some(Durability::Volatile),
            "wal" => Some(Durability::wal()),
            "wal-nosync" | "wal_nosync" => Some(Durability::wal_nosync()),
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

    /// Sets the durability mode.
    pub fn durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Opens (or creates) the store, replaying and verifying the WAL
    /// when the options are durable.
    pub fn open(self) -> Result<IntermediateStore> {
        IntermediateStore::open_with(self)
    }
}

/// Counters describing what the WAL replay found when a durable store
/// was opened. All zeros for [`Durability::Volatile`] stores.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Keys live after replay, verification, adoption and the header
    /// scan.
    pub recovered_entries: usize,
    /// `.hlx` files present on disk but absent from the log (e.g. written
    /// before a crash beat the log append, or inherited from a volatile
    /// store) that were adopted into the file map.
    pub adopted_files: usize,
    /// Replayed files dropped because they no longer exist, and
    /// chunk-only files dropped because their header is unreadable.
    pub dropped_entries: usize,
    /// Replayed files whose logged size disagreed with the file on
    /// disk; the ledger uses the file's actual size.
    pub repaired_sizes: usize,
    /// Torn or corrupt log records skipped under the truncate-and-warn
    /// policy (the tail record after a mid-append crash lands here).
    pub torn_records: usize,
    /// Total WAL bytes read during replay.
    pub wal_bytes_replayed: u64,
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

/// One answered read (see [`IntermediateStore::get`]).
pub(crate) struct StoreRead {
    pub(crate) output: Arc<NodeOutput>,
    /// Bytes of the location read: the file, or the row group.
    pub(crate) bytes: u64,
    pub(crate) secs: f64,
    /// Answered from the decoded cache; no file was read.
    pub(crate) cached: bool,
}

/// Append handle for one shard's write-ahead log.
#[derive(Debug)]
struct WalWriter {
    file: std::fs::File,
    path: PathBuf,
    bytes: u64,
    fsync: bool,
}

impl WalWriter {
    fn open_append(path: PathBuf, fsync: bool) -> std::io::Result<WalWriter> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let bytes = file.metadata()?.len();
        Ok(WalWriter {
            file,
            path,
            bytes,
            fsync,
        })
    }

    /// Appends one record (the trailing newline is added here) as a
    /// single write, then flushes — and fsyncs when configured — before
    /// returning.
    fn append(&mut self, record: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(record.len() + 1);
        buf.extend_from_slice(record.as_bytes());
        buf.push(b'\n');
        self.file.write_all(&buf)?;
        if self.fsync {
            self.file.sync_data()?;
        }
        self.bytes += buf.len() as u64;
        Ok(())
    }
}

/// Where one key's bytes live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    /// Id of the file (named `<id>.hlx`).
    file: u64,
    /// The file's incarnation this location belongs to (an overwrite of
    /// the same id starts a new one).
    gen: u64,
    /// Row group within the file; `None` for the whole output.
    group: Option<u32>,
    /// Bytes a read of this location returns.
    bytes: u64,
}

/// One file on disk.
#[derive(Debug, Clone, Copy)]
struct FileMeta {
    /// On-disk size — the file's whole share of the budget ledger.
    bytes: u64,
    /// Incarnation, matched against [`Loc::gen`].
    gen: u64,
    /// Keys still pointing here; the file is deleted when this hits 0.
    live: usize,
}

/// One shard of the key and file maps.
#[derive(Debug, Default)]
struct Shard {
    /// Keys hashing to this shard → their locations, oldest first.
    keys: FxHashMap<u64, Vec<Loc>>,
    /// Files whose id hashes to this shard (visible to readers through
    /// their keys only once fully written and renamed).
    files: FxHashMap<u64, FileMeta>,
    /// Budget reserved by in-flight `put` calls, keyed by file id.
    /// Invisible to readers and to `evict` — a reservation becomes a
    /// file only once it is fully written and renamed.
    reserved: FxHashMap<u64, u64>,
    /// This shard's WAL append handle (durable stores only).
    wal: Option<WalWriter>,
}

/// One admitted output.
#[derive(Debug)]
struct Decoded {
    output: Arc<NodeOutput>,
    /// The location it was decoded from. A hit needs it still listed for
    /// the key, and reports its bytes.
    loc: Loc,
    /// [`NodeOutput::estimated_bytes`] of the output.
    size: usize,
    /// Last use, the entry's key in [`DecodedCache::lru`].
    used: u64,
}

/// The decoded-read cache (module docs, "Decoded reads"). Lock order: a
/// shard lock may be held while taking this one, never the reverse.
#[derive(Debug, Default)]
struct DecodedCache {
    entries: FxHashMap<u64, Decoded>,
    /// Keys by last use, oldest first.
    lru: BTreeMap<u64, u64>,
    /// Keys decoded once and not admitted, oldest first.
    once: VecDeque<u64>,
    bytes: usize,
    tick: u64,
    hits: u64,
}

impl DecodedCache {
    /// The output held for `key`, if it was decoded from one of `locs`.
    fn hit(&mut self, key: u64, locs: &[Loc]) -> Option<(Arc<NodeOutput>, u64)> {
        let entry = self
            .entries
            .get_mut(&key)
            .filter(|e| locs.contains(&e.loc))?;
        self.tick += 1;
        self.lru.remove(&entry.used);
        self.lru.insert(self.tick, key);
        entry.used = self.tick;
        self.hits += 1;
        Some((Arc::clone(&entry.output), entry.loc.bytes))
    }

    /// Notes a verified decode of `key`: `true` when it is the second
    /// since the key was last remembered.
    fn decoded_before(&mut self, key: u64) -> bool {
        if let Some(at) = self.once.iter().position(|&k| k == key) {
            self.once.remove(at);
            return true;
        }
        if self.once.len() == DECODED_ONCE_KEYS {
            self.once.pop_front();
        }
        self.once.push_back(key);
        false
    }

    /// Admits `output`, then drops least recently used entries until the
    /// cache is back under its bound.
    fn insert(&mut self, key: u64, loc: Loc, output: Arc<NodeOutput>, size: usize) {
        self.remove(key);
        self.tick += 1;
        self.lru.insert(self.tick, key);
        self.bytes += size;
        self.entries.insert(
            key,
            Decoded {
                output,
                loc,
                size,
                used: self.tick,
            },
        );
        while self.bytes > DECODED_CACHE_BYTES {
            let Some((_, oldest)) = self.lru.pop_first() else {
                break;
            };
            if let Some(entry) = self.entries.remove(&oldest) {
                self.bytes -= entry.size;
            }
        }
    }

    fn remove(&mut self, key: u64) {
        if let Some(entry) = self.entries.remove(&key) {
            self.lru.remove(&entry.used);
            self.bytes -= entry.size;
        }
    }

    /// Drops every entry decoded from incarnation `gen` of file `file`.
    fn remove_file(&mut self, file: u64, gen: u64) {
        let keys: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.loc.file == file && e.loc.gen == gen)
            .map(|(&key, _)| key)
            .collect();
        for key in keys {
            self.remove(key);
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.lru.clear();
        self.once.clear();
        self.bytes = 0;
    }
}

/// The shared state behind [`IntermediateStore`] handles.
#[derive(Debug)]
struct StoreInner {
    dir: PathBuf,
    budget_bytes: u64,
    /// Bytes of files plus in-flight reservations across all shards (the
    /// budget ledger).
    used_bytes: AtomicU64,
    shards: Box<[Mutex<Shard>]>,
    durability: Durability,
    /// `<dir>/wal` when durable, `None` when volatile.
    wal_dir: Option<PathBuf>,
    /// Unix seconds of the most recent snapshot compaction (0 = never).
    last_snapshot_unix: AtomicU64,
    /// Next file incarnation number.
    next_gen: AtomicU64,
    /// What replay found at open time.
    recovery: RecoveryInfo,
    /// Decoded outputs kept in memory (module docs, "Decoded reads").
    decoded: Mutex<DecodedCache>,
    /// Per-instance failpoints for crash-consistency regression tests:
    /// simulate a kill between the file rename and the WAL append
    /// (`put`), or between file removal and log compaction (`clear`), or
    /// a full disk under a chunk-only write (`put_chunks`).
    #[cfg(test)]
    fail_skip_wal_append: std::sync::atomic::AtomicBool,
    #[cfg(test)]
    fail_skip_clear_compaction: std::sync::atomic::AtomicBool,
    #[cfg(test)]
    fail_chunk_write: std::sync::atomic::AtomicBool,
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

fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

fn sig_file_name(sig: u64) -> String {
    format!("{sig:016x}.hlx")
}

fn wal_record_put(sig: u64, bytes: u64, secs: f64) -> String {
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

fn wal_record_evict(sig: u64) -> String {
    Json::obj([
        ("v", Json::Num(1.0)),
        ("op", Json::str("evict")),
        ("sig", Json::str(format!("{sig:016x}"))),
    ])
    .to_string()
}

/// Removes leftover `*.tmp` files (half-written entry or snapshot temp
/// files from a crashed process) from `dir`.
fn sweep_tmp_files(dir: &Path) -> Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("tmp") {
            let _ = std::fs::remove_file(&path);
        }
    }
    Ok(())
}

/// Replays one WAL file into `map` (last record per file wins),
/// applying the truncate-and-warn policy to torn or corrupt records.
fn replay_wal_file(
    path: &Path,
    map: &mut FxHashMap<u64, u64>,
    recovery: &mut RecoveryInfo,
) -> Result<()> {
    let data = std::fs::read(path)?;
    recovery.wal_bytes_replayed += data.len() as u64;
    let mut offset = 0usize;
    while offset < data.len() {
        let (line, next) = match data[offset..].iter().position(|&b| b == b'\n') {
            Some(p) => (&data[offset..offset + p], offset + p + 1),
            None => (&data[offset..], data.len()),
        };
        offset = next;
        if line.is_empty() {
            continue;
        }
        let record = std::str::from_utf8(line)
            .ok()
            .and_then(|text| Json::parse(text).ok());
        let Some(record) = record else {
            recovery.torn_records += 1;
            eprintln!(
                "helix-store: dropping torn/corrupt WAL record in {} (truncate-and-warn)",
                path.display()
            );
            continue;
        };
        let sig = record
            .get("sig")
            .and_then(Json::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok());
        match (record.get("op").and_then(Json::as_str), sig) {
            (Some("put"), Some(sig)) => {
                let Some(bytes) = record.get("bytes").and_then(Json::as_u64) else {
                    recovery.torn_records += 1;
                    eprintln!(
                        "helix-store: put record without byte count in {}",
                        path.display()
                    );
                    continue;
                };
                map.insert(sig, bytes);
            }
            (Some("evict"), Some(sig)) => {
                map.remove(&sig);
            }
            _ => {
                recovery.torn_records += 1;
                eprintln!(
                    "helix-store: skipping unrecognized WAL record in {}",
                    path.display()
                );
            }
        }
    }
    Ok(())
}

/// Reads a file's first byte and, for a codec v3 data file, its header
/// — nothing else. `None` for a model or a version-2 file, which have no
/// row groups.
fn read_file_header(file: &mut std::fs::File, len: u64) -> Result<(u8, Option<codec::Header>)> {
    let mut prefix = [0u8; 1 + codec::PREFIX_BYTES];
    let have = (len as usize).min(prefix.len());
    file.read_exact(&mut prefix[..have])?;
    let Some((&tag, rest)) = prefix[..have].split_first() else {
        return Err(HelixError::Store("empty store file".into()));
    };
    if tag == crate::ops::OUT_TAG_MODEL {
        return Ok((tag, None));
    }
    let Some(header_len) = codec::header_len(rest)? else {
        return Ok((tag, None));
    };
    if header_len as u64 > len - 1 {
        return Err(HelixError::Store(format!(
            "header of {header_len} bytes in a {len}-byte file"
        )));
    }
    let mut header = vec![0u8; header_len];
    header[..rest.len()].copy_from_slice(rest);
    file.read_exact(&mut header[rest.len()..])?;
    Ok((tag, Some(codec::read_header(&header)?)))
}

/// The keys file `id` serves, with the group each reads and its bytes:
/// the id itself for the whole output (unless the file is chunk-only),
/// then every keyed row group.
fn file_keys(
    id: u64,
    len: u64,
    tag: u8,
    header: Option<&codec::Header>,
) -> Vec<(u64, Option<u32>, u64)> {
    let whole = (tag != TAG_CHUNKS).then_some((id, None, len));
    let groups = header.into_iter().flat_map(|h| {
        h.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.key != 0)
            .map(|(k, g)| (g.key, Some(k as u32), g.len))
    });
    whole.into_iter().chain(groups).collect()
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
    /// Opens (or creates) a store from [`StoreOptions`]. For durable
    /// options this replays the WAL, verifies every replayed file
    /// against the disk, adopts untracked files, truncates torn tail
    /// records with a warning, and writes a fresh snapshot; every open
    /// then rebuilds the keys from the file headers. It never refuses to
    /// start over a recoverable directory.
    pub fn open_with(options: StoreOptions) -> Result<Self> {
        let StoreOptions {
            dir,
            budget_bytes,
            shards,
            durability,
        } = options;
        std::fs::create_dir_all(&dir)?;
        sweep_tmp_files(&dir)?;
        let shard_count = shards.max(1);
        let mut recovery = RecoveryInfo::default();
        let mut map: FxHashMap<u64, u64> = FxHashMap::default();
        let wal_dir = match durability {
            Durability::Volatile => None,
            Durability::Wal { .. } => {
                let wal_dir = dir.join("wal");
                std::fs::create_dir_all(&wal_dir)?;
                sweep_tmp_files(&wal_dir)?;
                let mut wal_files: Vec<PathBuf> = std::fs::read_dir(&wal_dir)?
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("wal"))
                    .collect();
                wal_files.sort();
                for file in &wal_files {
                    replay_wal_file(file, &mut map, &mut recovery)?;
                }
                // Verify every replayed record against the disk: the
                // files are the ground truth, the log is the index.
                let replayed: Vec<(u64, u64)> = map.drain().collect();
                for (sig, logged_bytes) in replayed {
                    match std::fs::metadata(dir.join(sig_file_name(sig))) {
                        Ok(md) => {
                            if md.len() != logged_bytes {
                                recovery.repaired_sizes += 1;
                                eprintln!(
                                    "helix-store: WAL size for {sig:016x} was {logged_bytes}, \
                                     file is {} bytes; using the file",
                                    md.len()
                                );
                            }
                            map.insert(sig, md.len());
                        }
                        Err(_) => {
                            recovery.dropped_entries += 1;
                            eprintln!("helix-store: dropping WAL entry {sig:016x}: file missing");
                        }
                    }
                }
                Some(wal_dir)
            }
        };
        // Scan the directory: the volatile store's entire index, and the
        // durable store's adoption pass for files the log missed.
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("hlx") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(sig) = u64::from_str_radix(stem, 16) else {
                continue;
            };
            if map.contains_key(&sig) {
                continue;
            }
            map.insert(sig, entry.metadata()?.len());
            if wal_dir.is_some() {
                recovery.adopted_files += 1;
            }
        }
        let mut shard_maps: Vec<Shard> = (0..shard_count).map(|_| Shard::default()).collect();
        let mut used = 0u64;
        let mut next_gen = 0u64;
        let mut files: Vec<(u64, u64)> = map.into_iter().collect();
        // A key held by several files lists them in a reproducible order.
        files.sort_unstable();
        for (id, bytes) in files {
            let path = dir.join(sig_file_name(id));
            let header = std::fs::File::open(&path)
                .map_err(HelixError::from)
                .and_then(|mut file| read_file_header(&mut file, bytes));
            let keys = match header {
                Ok((tag, header)) => file_keys(id, bytes, tag, header.as_ref()),
                // An unreadable file still occupies its bytes and answers
                // to its name; the first read finds it corrupt and drops
                // it. A chunk-only file has no name to answer to.
                Err(err) => {
                    let mut first = [0u8; 1];
                    let chunk_only = std::fs::File::open(&path)
                        .and_then(|mut f| f.read_exact(&mut first))
                        .is_ok()
                        && first[0] == TAG_CHUNKS;
                    if chunk_only {
                        eprintln!("helix-store: dropping unreadable chunk file {id:016x}: {err}");
                        if wal_dir.is_some() {
                            recovery.dropped_entries += 1;
                        }
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    vec![(id, None, bytes)]
                }
            };
            next_gen += 1;
            shard_maps[shard_index(id, shard_count)].files.insert(
                id,
                FileMeta {
                    bytes,
                    gen: next_gen,
                    live: keys.len(),
                },
            );
            used += bytes;
            for (key, group, key_bytes) in keys {
                shard_maps[shard_index(key, shard_count)]
                    .keys
                    .entry(key)
                    .or_default()
                    .push(Loc {
                        file: id,
                        gen: next_gen,
                        group,
                        bytes: key_bytes,
                    });
            }
        }
        if wal_dir.is_some() {
            recovery.recovered_entries = shard_maps.iter().map(|s| s.keys.len()).sum();
        }
        let store = IntermediateStore {
            inner: Arc::new(StoreInner {
                dir,
                budget_bytes,
                used_bytes: AtomicU64::new(used),
                shards: shard_maps.into_iter().map(Mutex::new).collect(),
                durability,
                wal_dir,
                last_snapshot_unix: AtomicU64::new(0),
                next_gen: AtomicU64::new(next_gen + 1),
                recovery,
                decoded: Mutex::new(DecodedCache::default()),
                #[cfg(test)]
                fail_skip_wal_append: std::sync::atomic::AtomicBool::new(false),
                #[cfg(test)]
                fail_skip_clear_compaction: std::sync::atomic::AtomicBool::new(false),
                #[cfg(test)]
                fail_chunk_write: std::sync::atomic::AtomicBool::new(false),
                #[cfg(test)]
                pause_before_admit: Mutex::new(None),
            }),
        };
        // A durable open ends with a fresh snapshot: stale log files from
        // previous shard layouts are dropped and the WAL starts compact.
        store.snapshot_now()?;
        Ok(store)
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

    /// What WAL replay found when this store was opened (all zeros for
    /// volatile stores).
    pub fn recovery(&self) -> RecoveryInfo {
        self.inner.recovery
    }

    /// Current total size of the write-ahead logs in bytes (0 when
    /// volatile).
    pub fn wal_bytes(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().wal.as_ref().map_or(0, |w| w.bytes))
            .sum()
    }

    /// Unix seconds of the most recent snapshot compaction; 0 if never
    /// (volatile stores stay 0).
    pub fn last_snapshot_unix(&self) -> u64 {
        self.inner.last_snapshot_unix.load(Ordering::Acquire)
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

    /// Size of what a read of `sig` returns, if stored.
    pub fn lookup(&self, sig: Signature) -> Option<EntryMeta> {
        self.slot(sig.0)
            .lock()
            .keys
            .get(&sig.0)
            .and_then(|locs| locs.first())
            .map(|loc| EntryMeta { bytes: loc.bytes })
    }

    fn slot(&self, id: u64) -> &Mutex<Shard> {
        &self.inner.shards[shard_index(id, self.inner.shards.len())]
    }

    fn path_for(&self, id: u64) -> PathBuf {
        self.inner.dir.join(sig_file_name(id))
    }

    /// Rewrites shard `idx`'s WAL as a snapshot — exactly one `put`
    /// record per live file — via temp file + rename, then reopens the
    /// append handle. Must be called with the shard's lock held.
    fn compact_shard_locked(&self, idx: usize, shard: &mut Shard) -> Result<()> {
        let Some(wal_dir) = &self.inner.wal_dir else {
            return Ok(());
        };
        let fsync = matches!(self.inner.durability, Durability::Wal { fsync: true, .. });
        let path = wal_dir.join(format!("shard-{idx}.wal"));
        let token = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = wal_dir.join(format!("shard-{idx}.wal.{token}.tmp"));
        let mut text = String::new();
        for (&id, meta) in &shard.files {
            text.push_str(&wal_record_put(id, meta.bytes, 0.0));
            text.push('\n');
        }
        let written = (|| -> Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.flush()?;
            if fsync {
                file.sync_data()?;
            }
            Ok(())
        })();
        if let Err(err) = written.and_then(|()| Ok(std::fs::rename(&tmp, &path)?)) {
            let _ = std::fs::remove_file(&tmp);
            return Err(err);
        }
        shard.wal = Some(WalWriter::open_append(path, fsync)?);
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
            if path.extension().and_then(|e| e.to_str()) != Some("wal") {
                continue;
            }
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !live.iter().any(|l| l == name) {
                let _ = std::fs::remove_file(&path);
            }
        }
        Ok(())
    }

    /// Appends a WAL record for the shard, warning instead of failing:
    /// the file map and the files on disk are already consistent, and
    /// replay verification self-heals a lost record (the file is the
    /// ground truth), so a log write error must not fail the operation.
    fn wal_append_locked(&self, idx: usize, shard: &mut Shard, record: &str) {
        let Durability::Wal {
            compact_after_bytes,
            ..
        } = self.inner.durability
        else {
            return;
        };
        match shard.wal.as_mut() {
            Some(wal) => {
                if let Err(err) = wal.append(record) {
                    eprintln!(
                        "helix-store: WAL append failed on {}: {err} (entry is on disk; \
                         replay will adopt it)",
                        wal.path.display()
                    );
                }
            }
            None => eprintln!("helix-store: WAL writer missing for shard {idx}"),
        }
        if shard
            .wal
            .as_ref()
            .is_some_and(|w| w.bytes > compact_after_bytes)
        {
            if let Err(err) = self.compact_shard_locked(idx, shard) {
                eprintln!("helix-store: WAL compaction failed for shard {idx}: {err}");
            }
        }
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
    /// On a durable store, a WAL record is appended (and fsync'd when
    /// configured) after the rename commits, while the shard lock is
    /// still held. A crash between the rename and the append loses only
    /// the record — replay's adoption pass recovers the entry from the
    /// file itself.
    ///
    /// # Errors
    /// [`HelixError::Store`] if the entry would exceed the budget.
    pub fn put(&self, sig: Signature, output: &NodeOutput) -> Result<(u64, f64)> {
        let started = Instant::now();
        // Encoding is part of the materialization cost the optimizer
        // trades off, so it is inside the timed region.
        let bytes = output.encode();
        self.write_file(sig.0, bytes, started)
    }

    /// [`put`](Self::put) for a chunk-aligned data output: one file
    /// whose row groups `groups` (which must cover the output's rows in
    /// order, with non-zero keys) are also served under their own keys.
    /// No groups is a plain `put`.
    ///
    /// # Errors
    /// As [`put`](Self::put); [`HelixError::Store`] if the groups do not
    /// tile the output.
    pub fn put_grouped(
        &self,
        sig: Signature,
        output: &NodeOutput,
        groups: &[GroupSpec],
    ) -> Result<(u64, f64)> {
        if groups.is_empty() {
            return self.put(sig, output);
        }
        let started = Instant::now();
        let data = output.as_data()?;
        if !groups_tile(groups, data.len()) {
            return Err(HelixError::Store(format!(
                "row groups of {} do not tile its {} rows",
                sig.hex(),
                data.len()
            )));
        }
        let mut bytes = vec![crate::ops::OUT_TAG_DATA];
        codec::encode_grouped_into(data, groups, &mut bytes);
        self.write_file(sig.0, bytes, started)
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
        let mut bytes = vec![TAG_CHUNKS];
        codec::encode_grouped_into(data, groups, &mut bytes);
        self.write_file(hasher.finish(), bytes, started)
    }

    /// The body of every put: reserve, write a temp file, rename it to
    /// `<id>.hlx`, commit the file (and log it), then publish its keys.
    fn write_file(&self, id: u64, bytes: Vec<u8>, started: Instant) -> Result<(u64, f64)> {
        let size = bytes.len() as u64;
        let header = match bytes.first() {
            Some(&tag) if tag != crate::ops::OUT_TAG_MODEL => codec::read_header(&bytes[1..]).ok(),
            _ => None,
        };
        let keys = file_keys(id, size, bytes[0], header.as_ref());
        let idx = shard_index(id, self.inner.shards.len());
        {
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
            if reserve.is_err() {
                return Err(HelixError::Store(format!(
                    "materializing {size} bytes would exceed the {}-byte budget ({} used)",
                    self.inner.budget_bytes,
                    self.used_bytes()
                )));
            }
            shard.reserved.insert(id, size);
        }
        // Unique temp name: a racing put of another file must not write
        // through this one's half-finished temp file.
        let token = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = self.inner.dir.join(format!("{id:016x}.{token}.tmp"));
        let written = (|| -> Result<()> {
            #[cfg(test)]
            if bytes[0] == TAG_CHUNKS
                && self
                    .inner
                    .fail_chunk_write
                    .load(std::sync::atomic::Ordering::Relaxed)
            {
                return Err(std::io::Error::other("injected: no space left on device").into());
            }
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&bytes)?;
            file.flush()?;
            Ok(())
        })();
        let gen = self.inner.next_gen.fetch_add(1, Ordering::Relaxed);
        let (previous, secs) = {
            let mut shard = self.inner.shards[idx].lock();
            shard.reserved.remove(&id);
            // The rename happens under the shard lock (a cheap metadata
            // op) so deleting a replaced file can never delete the fresh
            // one: deletion holds the same lock across its remove_file.
            let published = written.and_then(|()| Ok(std::fs::rename(&tmp, self.path_for(id))?));
            if let Err(err) = published {
                // Release only this call's reservation; nothing else was
                // touched, so concurrent get/evict state is unaffected.
                self.inner.used_bytes.fetch_sub(size, Ordering::AcqRel);
                drop(shard);
                let _ = std::fs::remove_file(&tmp);
                return Err(err);
            }
            let meta = FileMeta {
                bytes: size,
                gen,
                live: keys.len(),
            };
            let previous = shard.files.insert(id, meta);
            // The reservation's bytes stay in the ledger as the file's; an
            // overwrite releases the replaced file's share now.
            if let Some(old) = previous {
                self.inner.used_bytes.fetch_sub(old.bytes, Ordering::AcqRel);
            }
            let secs = started.elapsed().as_secs_f64();
            #[cfg(test)]
            let skip_wal = self
                .inner
                .fail_skip_wal_append
                .load(std::sync::atomic::Ordering::Relaxed);
            #[cfg(not(test))]
            let skip_wal = false;
            if !skip_wal {
                self.wal_append_locked(idx, &mut shard, &wal_record_put(id, size, secs));
            }
            (previous, secs)
        };
        if let Some(old) = previous {
            self.purge_locations(id, old.gen);
        }
        for (key, group, key_bytes) in keys {
            self.slot(key)
                .lock()
                .keys
                .entry(key)
                .or_default()
                .push(Loc {
                    file: id,
                    gen,
                    group,
                    bytes: key_bytes,
                });
        }
        Ok((size, secs))
    }

    /// Removes every key location that points at incarnation `gen` of
    /// file `id` (an overwritten or corrupt file), dropping keys left with
    /// no location.
    fn purge_locations(&self, id: u64, gen: u64) {
        for slot in self.inner.shards.iter() {
            slot.lock().keys.retain(|_, locs| {
                locs.retain(|l| l.file != id || l.gen != gen);
                !locs.is_empty()
            });
        }
        // After the keys: an admission that re-checks a key's locations
        // from here on no longer finds this file.
        self.inner.decoded.lock().remove_file(id, gen);
    }

    /// Reads the output stored under `sig`: the whole file for a node
    /// output, only the header and the group's bytes for a chunk. A
    /// location whose bytes fail verification is dropped — its whole file
    /// is deleted — and the next location is tried. A whole output held
    /// by the decoded cache is answered from memory instead (module docs,
    /// "Decoded reads").
    ///
    /// Returns `(output, bytes_read, seconds)`; a cached answer reports the
    /// bytes its disk read would have returned.
    ///
    /// # Errors
    /// [`HelixError::Store`] if the entry is missing, or corrupt (naming
    /// the signature; the entry is then gone).
    pub fn get(&self, sig: Signature) -> Result<(Arc<NodeOutput>, u64, f64)> {
        let read = self.read(sig)?;
        Ok((read.output, read.bytes, read.secs))
    }

    /// [`get`](Self::get), also saying whether the answer came from the
    /// decoded cache.
    pub(crate) fn read(&self, sig: Signature) -> Result<StoreRead> {
        let started = Instant::now();
        let (locs, hit) = {
            let shard = self.slot(sig.0).lock();
            let locs = shard.keys.get(&sig.0).cloned().unwrap_or_default();
            let hit = self.inner.decoded.lock().hit(sig.0, &locs);
            (locs, hit)
        };
        if let Some((output, bytes)) = hit {
            return Ok(StoreRead {
                output,
                bytes,
                secs: started.elapsed().as_secs_f64(),
                cached: true,
            });
        }
        if locs.is_empty() {
            return Err(HelixError::Store(format!(
                "no entry for signature {}",
                sig.hex()
            )));
        }
        let mut failure = None;
        for loc in locs {
            match self.read_loc(sig, loc) {
                Ok((output, verified)) => {
                    let output = Arc::new(output);
                    if verified {
                        self.offer(sig, loc, &output);
                    }
                    return Ok(StoreRead {
                        output,
                        bytes: loc.bytes,
                        secs: started.elapsed().as_secs_f64(),
                        cached: false,
                    });
                }
                Err(err) if is_corruption(&err) => {
                    eprintln!(
                        "helix-store: entry {} in {} failed verification ({err}); dropping the file",
                        sig.hex(),
                        sig_file_name(loc.file)
                    );
                    self.drop_file(loc.file, loc.gen);
                    failure = Some(HelixError::Store(format!(
                        "stored entry {} is corrupt and was evicted: {err}",
                        sig.hex()
                    )));
                }
                Err(err) => failure = Some(err),
            }
        }
        Err(failure.expect("at least one location was tried"))
    }

    /// Offers a verified whole-output decode of `sig` from `loc` to the
    /// decoded cache, which admits the key's second one if it is small
    /// enough and `loc` still serves the key.
    fn offer(&self, sig: Signature, loc: Loc, output: &Arc<NodeOutput>) {
        if !self.inner.decoded.lock().decoded_before(sig.0) {
            return;
        }
        let size = output.estimated_bytes();
        if size > DECODED_CACHE_BYTES / 4 {
            return;
        }
        #[cfg(test)]
        {
            let pause = self.inner.pause_before_admit.lock().clone();
            if let Some(pause) = pause {
                pause.wait();
                pause.wait();
            }
        }
        // Re-checked under the key's shard lock: an `evict` or a dropped
        // file that won the race took the location away, and the key must
        // not come back through the cache.
        let shard = self.slot(sig.0).lock();
        if shard
            .keys
            .get(&sig.0)
            .is_some_and(|locs| locs.contains(&loc))
        {
            self.inner
                .decoded
                .lock()
                .insert(sig.0, loc, Arc::clone(output), size);
        }
    }

    /// Decodes one location of key `sig`. The flag is set when the read
    /// verified checksums over the whole output (a version-3 data file
    /// read whole): the only reads the decoded cache admits.
    fn read_loc(&self, sig: Signature, loc: Loc) -> Result<(NodeOutput, bool)> {
        let mut file = std::fs::File::open(self.path_for(loc.file))?;
        let Some(group) = loc.group else {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let verified = bytes.first() == Some(&crate::ops::OUT_TAG_DATA)
                && matches!(codec::header_len(&bytes[1..]), Ok(Some(_)));
            return Ok((NodeOutput::decode(&bytes)?, verified));
        };
        let len = file.metadata()?.len();
        let (_, header) = read_file_header(&mut file, len)?;
        let header = header.ok_or_else(|| HelixError::Store("file has no row groups".into()))?;
        let group = group as usize;
        if header.groups.get(group).map(|g| g.key) != Some(sig.0) {
            return Err(HelixError::Store(format!(
                "group {group} of {} is not keyed {}",
                sig_file_name(loc.file),
                sig.hex()
            )));
        }
        let range = header.group_range(group, len - 1)?;
        file.seek(SeekFrom::Start(1 + range.start))?;
        let mut bytes = vec![0u8; (range.end - range.start) as usize];
        file.read_exact(&mut bytes)?;
        let output = NodeOutput::Data(codec::decode_group(&header, group, &bytes)?);
        Ok((output, false))
    }

    /// Deletes incarnation `gen` of file `id` and every key location in
    /// it (a corrupt file). If the removal itself fails the file keeps
    /// its ledger bytes — the ledger stays equal to the disk — but serves
    /// nothing.
    fn drop_file(&self, id: u64, gen: u64) {
        let idx = shard_index(id, self.inner.shards.len());
        {
            let mut shard = self.inner.shards[idx].lock();
            if shard.files.get(&id).is_some_and(|m| m.gen == gen) {
                match std::fs::remove_file(self.path_for(id)) {
                    Ok(()) => self.forget_file_locked(idx, &mut shard, id),
                    Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                        self.forget_file_locked(idx, &mut shard, id)
                    }
                    Err(err) => eprintln!("helix-store: could not delete {id:016x}: {err}"),
                }
            }
        }
        self.purge_locations(id, gen);
    }

    /// Bookkeeping for a file that is gone from disk: drop it from the
    /// map and the ledger, and log the removal.
    fn forget_file_locked(&self, idx: usize, shard: &mut Shard, id: u64) {
        if let Some(meta) = shard.files.remove(&id) {
            self.inner
                .used_bytes
                .fetch_sub(meta.bytes, Ordering::AcqRel);
            self.wal_append_locked(idx, shard, &wal_record_evict(id));
        }
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
    /// already-missing file (`NotFound`) counts as removed. On a durable
    /// store an evict record is appended after the bookkeeping; a crash
    /// before the append is harmless because replay drops entries whose
    /// file is gone.
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
            if let Err(err) = self.release(loc) {
                let mut shard = self.slot(sig.0).lock();
                let restored = shard.keys.entry(sig.0).or_default();
                restored.splice(0..0, locs[k..].iter().copied());
                return Err(err);
            }
        }
        Ok(true)
    }

    /// Drops one key location's hold on its file, deleting the file with
    /// its last hold. A location of a replaced incarnation holds nothing.
    fn release(&self, loc: Loc) -> Result<()> {
        let idx = shard_index(loc.file, self.inner.shards.len());
        let mut shard = self.inner.shards[idx].lock();
        let Some(meta) = shard.files.get_mut(&loc.file).filter(|m| m.gen == loc.gen) else {
            return Ok(());
        };
        if meta.live > 1 {
            meta.live -= 1;
            return Ok(());
        }
        match std::fs::remove_file(self.path_for(loc.file)) {
            Ok(()) => {}
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
            Err(err) => return Err(err.into()),
        }
        self.forget_file_locked(idx, &mut shard, loc.file);
        Ok(())
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
    ///
    /// On a durable store each shard's WAL is compacted to an empty
    /// snapshot after its files are removed; a crash in between leaves
    /// stale put records whose files are gone, which replay verification
    /// drops (never double-counts).
    pub fn clear(&self) -> Result<()> {
        // Hold every shard lock at once so the ledger reset sees a
        // consistent picture (locks are acquired in index order, and no
        // other path holds two shard locks, so this cannot deadlock).
        let mut guards: Vec<_> = self.inner.shards.iter().map(|s| s.lock()).collect();
        let mut reserved = 0u64;
        for (idx, guard) in guards.iter_mut().enumerate() {
            for (id, _) in guard.files.drain() {
                let _ = std::fs::remove_file(self.path_for(id));
            }
            guard.keys.clear();
            reserved += guard.reserved.values().sum::<u64>();
            #[cfg(test)]
            if self
                .inner
                .fail_skip_clear_compaction
                .load(std::sync::atomic::Ordering::Relaxed)
            {
                continue;
            }
            if self.inner.wal_dir.is_some() {
                if let Err(err) = self.compact_shard_locked(idx, guard) {
                    eprintln!("helix-store: WAL compaction after clear failed: {err}");
                }
            }
        }
        self.inner.decoded.lock().clear();
        self.inner.used_bytes.store(reserved, Ordering::Release);
        Ok(())
    }
}

#[cfg(test)]
impl IntermediateStore {
    /// Makes every later chunk-only write fail as a full disk would.
    pub(crate) fn fail_chunk_writes(&self) {
        self.inner
            .fail_chunk_write
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Maps a signature to a shard index. Signatures are already Merkle
/// hashes, but the multiply-shift spreads any residual structure (e.g.
/// test signatures 1, 2, 3, …) across shards.
fn shard_index(sig: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mixed = sig.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((mixed >> 32) as usize) % shards
}

#[cfg(test)]
mod tests {
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
    fn compact_threshold_override_applies_only_to_wal() {
        assert_eq!(
            Durability::wal().with_compact_after_bytes(4096),
            Durability::Wal {
                fsync: true,
                compact_after_bytes: 4096
            }
        );
        assert_eq!(
            Durability::wal_nosync().with_compact_after_bytes(0),
            Durability::Wal {
                fsync: false,
                compact_after_bytes: 1
            }
        );
        assert_eq!(
            Durability::Volatile.with_compact_after_bytes(4096),
            Durability::Volatile
        );
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
        // to exactly what its writer stored. Run durable so the WAL
        // append path is exercised under the same contention.
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
            assert!(store.wal_bytes() > 0);
            assert!(store.last_snapshot_unix() > 0);
        }
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 5);
        assert_eq!(store.used_bytes(), used);
        assert_eq!(store.recovery().recovered_entries, 5);
        assert_eq!(store.recovery().dropped_entries, 0);
        assert_eq!(store.recovery().torn_records, 0);
        assert_matches_disk(&store);
        for i in [1u64, 2, 3, 5, 6] {
            assert_eq!(
                store.get(Signature(i)).unwrap().0,
                sample_output(10 + i as i64)
            );
        }
        assert!(store.lookup(Signature(4)).is_none(), "evict must replay");
    }

    #[test]
    fn wal_replay_drops_entries_whose_file_is_missing() {
        let dir = tmpdir("wal-drop");
        {
            let store = open_wal_store(&dir, 1 << 20);
            for i in 1..=3 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
        }
        // Simulate a crash window: the file is gone but its log records
        // survive (an evict whose record append never landed).
        std::fs::remove_file(dir.join(sig_file_name(2))).unwrap();
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 2);
        assert_eq!(store.recovery().dropped_entries, 1);
        assert_matches_disk(&store);
    }

    #[test]
    fn wal_replay_repairs_size_mismatches_from_disk() {
        let dir = tmpdir("wal-repair");
        {
            let store = open_wal_store(&dir, 1 << 20);
            store.put(Signature(8), &sample_output(50)).unwrap();
        }
        // The file changed size behind the log's back — the file wins.
        std::fs::write(dir.join(sig_file_name(8)), b"short").unwrap();
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 1);
        assert_eq!(store.recovery().repaired_sizes, 1);
        assert_eq!(store.used_bytes(), 5);
        assert_matches_disk(&store);
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
        // The adoption is now snapshotted: a second reopen replays it
        // from the log instead.
        drop(store);
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.recovery().adopted_files, 0);
        assert_eq!(store.recovery().recovered_entries, 4);
    }

    #[test]
    fn torn_wal_tail_is_truncated_with_a_warning() {
        let dir = tmpdir("wal-torn");
        {
            let store = StoreOptions::new(&dir)
                .budget_bytes(1 << 20)
                .shards(1)
                .durability(Durability::wal())
                .open()
                .unwrap();
            for i in 1..=3 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
        }
        // Append a torn record (no closing brace, no newline) as a crash
        // mid-append would leave.
        let wal = dir.join("wal").join("shard-0.wal");
        let mut file = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
        file.write_all(b"{\"v\":1,\"op\":\"put\",\"sig\":\"00000000000000ff\",\"byt")
            .unwrap();
        drop(file);
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 20)
            .shards(1)
            .durability(Durability::wal())
            .open()
            .unwrap();
        assert_eq!(store.len(), 3, "torn tail must not lose committed entries");
        assert_eq!(store.recovery().torn_records, 1);
        assert_matches_disk(&store);
        // Open rewrote the snapshot, so the torn record is gone for good.
        drop(store);
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 20)
            .shards(1)
            .durability(Durability::wal())
            .open()
            .unwrap();
        assert_eq!(store.recovery().torn_records, 0);
    }

    #[test]
    fn crash_between_rename_and_wal_append_cannot_double_count() {
        // Failpoint: the put's file rename lands but the WAL record is
        // never appended — the window the ISSUE's bugfix audit names.
        let dir = tmpdir("wal-fp-put");
        {
            let store = open_wal_store(&dir, 1 << 20);
            store.put(Signature(1), &sample_output(30)).unwrap();
            store
                .inner
                .fail_skip_wal_append
                .store(true, std::sync::atomic::Ordering::Relaxed);
            // An overwrite whose new size differs: the log still holds
            // the OLD size for sig 1, the disk holds the new file.
            store.put(Signature(1), &sample_output(90)).unwrap();
            // And a brand-new entry with no log record at all.
            store.put(Signature(2), &sample_output(20)).unwrap();
        }
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 2);
        // sig 1's stale logged size was repaired from disk; sig 2 was
        // adopted from its file. Either way the ledger equals the disk —
        // counted once, not twice.
        assert_eq!(store.recovery().repaired_sizes, 1);
        assert_eq!(store.recovery().adopted_files, 1);
        assert_matches_disk(&store);
    }

    #[test]
    fn crash_during_clear_cannot_resurrect_entries() {
        // Failpoint: clear removes the files but dies before compacting
        // the WAL, leaving stale put records for deleted files.
        let dir = tmpdir("wal-fp-clear");
        {
            let store = open_wal_store(&dir, 1 << 20);
            for i in 1..=5 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
            store
                .inner
                .fail_skip_clear_compaction
                .store(true, std::sync::atomic::Ordering::Relaxed);
            store.clear().unwrap();
        }
        let store = open_wal_store(&dir, 1 << 20);
        assert_eq!(store.len(), 0, "stale put records must not resurrect");
        assert_eq!(store.used_bytes(), 0);
        assert_eq!(store.recovery().dropped_entries, 5);
        assert_matches_disk(&store);
    }

    #[test]
    fn wal_compaction_caps_log_size() {
        let dir = tmpdir("wal-compact");
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 22)
            .shards(1)
            .durability(Durability::Wal {
                fsync: false,
                compact_after_bytes: 512,
            })
            .open()
            .unwrap();
        for round in 0..40u64 {
            store
                .put(Signature(round % 4 + 1), &sample_output(20))
                .unwrap();
        }
        // 40 puts × ~100 bytes per record would be ~4 KiB of log; the
        // 512-byte threshold keeps it at snapshot size (4 live entries).
        assert!(
            store.wal_bytes() < 1024,
            "log should have compacted: {} bytes",
            store.wal_bytes()
        );
        assert!(store.last_snapshot_unix() > 0);
        drop(store);
        let store = open_wal_store(&dir, 1 << 22);
        assert_eq!(store.len(), 4);
        assert_matches_disk(&store);
    }

    #[test]
    fn snapshot_now_is_a_noop_for_volatile_stores() {
        let store = open_store(tmpdir("vol-snap"), 1 << 20);
        store.put(Signature(1), &sample_output(5)).unwrap();
        store.snapshot_now().unwrap();
        assert_eq!(store.wal_bytes(), 0);
        assert_eq!(store.last_snapshot_unix(), 0);
        assert_eq!(store.recovery(), RecoveryInfo::default());
    }

    #[test]
    fn wal_reopen_across_shard_counts_drops_stale_logs() {
        let dir = tmpdir("wal-reshard");
        {
            let store = StoreOptions::new(&dir)
                .budget_bytes(1 << 20)
                .shards(8)
                .durability(Durability::wal())
                .open()
                .unwrap();
            for i in 1..=10 {
                store.put(Signature(i), &sample_output(10)).unwrap();
            }
        }
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 20)
            .shards(2)
            .durability(Durability::wal())
            .open()
            .unwrap();
        assert_eq!(store.len(), 10);
        assert_matches_disk(&store);
        let wal_files: Vec<String> = std::fs::read_dir(dir.join("wal"))
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".wal"))
            .collect();
        assert_eq!(
            wal_files.len(),
            2,
            "stale shard logs removed: {wal_files:?}"
        );
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
        let (written, _) = store.put_grouped(Signature(7), &output, &groups).unwrap();
        assert_eq!(hlx_files(&store), 1, "one file for the node and its chunks");
        assert_eq!(store.len(), 4, "the whole key plus three group keys");
        assert_eq!(store.used_bytes(), written);
        assert_matches_disk(&store);

        let (whole, read, _) = store.get(Signature(7)).unwrap();
        assert_eq!((&*whole, read), (&output, written));
        let header = stored_header(&store, 7);
        for (k, g) in groups.iter().enumerate() {
            let (part, read, _) = store.get(Signature(g.key)).unwrap();
            assert_eq!(part.as_data().unwrap().rows(), &data.rows()[g.start..g.end]);
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
            .put_grouped(Signature(8), &NodeOutput::Data(data.clone()), &groups)
            .unwrap();

        assert!(store.evict(Signature(8)).unwrap());
        assert!(store.lookup(Signature(8)).is_none());
        assert!(store.get(Signature(8)).is_err());
        let (part, ..) = store.get(Signature(601)).unwrap();
        assert_eq!(part.as_data().unwrap().rows(), &data.rows()[4..9]);
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
        assert_eq!(part.as_data().unwrap().rows(), &data.rows()[0..3]);
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
    fn wal_nosync_reopen_restores_every_group_key() {
        let dir = tmpdir("groups-reopen");
        let data = int_rows(0..12);
        let node_groups = groups_at(&[0, 5, 12], 900);
        let loose = groups_at(&[5, 12], 950);
        {
            let store = StoreOptions::new(&dir)
                .budget_bytes(1 << 20)
                .durability(Durability::wal_nosync())
                .open()
                .unwrap();
            store
                .put_grouped(Signature(11), &NodeOutput::Data(data.clone()), &node_groups)
                .unwrap();
            // A chunk-only file whose log record never lands.
            store
                .inner
                .fail_skip_wal_append
                .store(true, std::sync::atomic::Ordering::Relaxed);
            store.put_chunks(&data, &loose).unwrap();
        }
        let store = StoreOptions::new(&dir)
            .budget_bytes(1 << 20)
            .durability(Durability::wal_nosync())
            .open()
            .unwrap();
        assert_eq!(store.recovery().adopted_files, 1);
        assert_eq!(store.recovery().recovered_entries, 4);
        assert_eq!(store.len(), 4);
        assert_matches_disk(&store);
        let (whole, ..) = store.get(Signature(11)).unwrap();
        assert_eq!(whole, NodeOutput::Data(data.clone()));
        for g in node_groups.iter().chain(&loose) {
            let (part, ..) = store.get(Signature(g.key)).unwrap();
            assert_eq!(part.as_data().unwrap().rows(), &data.rows()[g.start..g.end]);
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
                store.put_grouped(Signature(13), &output, &groups),
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
    fn row_group_and_version_2_reads_are_never_admitted() {
        let store = open_store(tmpdir("dc-groups"), 1 << 20);
        let data = int_rows(0..10);
        let groups = groups_at(&[0, 4, 10], 500);
        store
            .put_grouped(Signature(8), &NodeOutput::Data(data), &groups)
            .unwrap();
        assert!(!read_times(&store, 500, 3));
        assert!(!read_times(&store, 501, 3));
        assert_eq!(store.decoded_stats(), DecodedStats::default());

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
    fn lru_eviction_keeps_the_cache_under_its_bound() {
        // Five entries of 3/16 of the bound fit; the sixth evicts.
        let store = open_store(tmpdir("dc-lru"), 1 << 30);
        let out = output_of_size(DECODED_CACHE_BYTES * 3 / 16);
        let size = out.estimated_bytes() as u64;
        for sig in 1..=7 {
            store.put(Signature(sig), &out).unwrap();
            read_times(&store, sig, 2);
            assert!(store.decoded_stats().bytes <= DECODED_CACHE_BYTES as u64);
        }
        assert_eq!(store.decoded_stats().entries, 5);
        assert_eq!(store.decoded_stats().bytes, 5 * size);
        assert!(read_times(&store, 3, 1), "recent entries stay");
        // 3 is now the most recent: admitting 8 evicts 4, the oldest.
        store.put(Signature(8), &out).unwrap();
        read_times(&store, 8, 2);
        assert_eq!(store.decoded_stats().entries, 5);
        assert!(read_times(&store, 3, 1));
        assert!(!read_times(&store, 4, 1), "the least recently used left");
        assert!(!read_times(&store, 1, 1));
        assert_eq!(store.len(), 8, "eviction from memory keeps the files");
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
}
