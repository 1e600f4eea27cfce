//! Incremental data: per-chunk content hashing and durable CSV append.
//!
//! The Helix paper's human-in-the-loop supplies *data* — labels and new
//! examples — at least as often as workflow edits. This module gives the
//! dataset a Merkle-style identity of its own so the signature machinery
//! can see data change at sub-file granularity:
//!
//! * Every [`crate::ops::OperatorKind::CsvSource`] split file is divided
//!   into **chunks** of `HELIX_DATA_CHUNK_ROWS` non-blank lines (the same
//!   lines [`crate::exec`] turns into source rows), and each chunk is
//!   content-hashed together with its split tag. The per-source
//!   [`SourceManifest`] folds the chunk hashes into one content hash that
//!   replaces the source's *path* parameters inside its signature — two
//!   sources with identical bytes sign identically wherever the files
//!   live, which is what makes an incremental rerun byte-comparable to a
//!   from-scratch rerun on the concatenated data.
//! * [`append_lines`] is the durable ingest path behind
//!   `Session::append_data`: a delta is first staged in a `<file>.ingest`
//!   sidecar (written atomically), then applied to the CSV, then the
//!   sidecar is removed. [`heal_pending_ingest`] replays a sidecar left
//!   behind by a crash — truncate to the recorded base length, re-apply,
//!   remove — so an acknowledged delta survives SIGKILL at any point and a
//!   half-applied one is completed before anyone hashes the file. Appends
//!   and heals run one at a time process-wide.
//!
//! Chunk hashes also key **partition signatures** (see
//! [`crate::slicing::chunk_plan`]): appending rows leaves every existing
//! chunk's hash intact, so downstream row-aligned partitions keep their
//! store entries and only the new tail recomputes.
//!
//! Every compile needs the manifests, so a split file's chunk list is
//! cached process-wide under its *stamp* (length, mtime, ctime, inode,
//! device) and served again only while a fresh `stat` still returns that
//! stamp. A file changed within [`RACY_WINDOW`] of being hashed is never
//! cached (git's "racy timestamp" rule), so a same-length rewrite inside
//! one coarse clock tick cannot hide behind an unchanged stamp.

use crate::ops::OperatorKind;
use crate::workflow::Workflow;
use crate::{HelixError, Result};
use helix_dataflow::fx::{FxHashMap, FxHasher};
use helix_json::Json;
use std::hash::Hasher;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Default rows per data chunk when `HELIX_DATA_CHUNK_ROWS` is unset:
/// small enough that the census workloads split into several chunks,
/// large enough that chunk bookkeeping stays negligible.
pub const DEFAULT_DATA_CHUNK_ROWS: usize = 512;

/// One contiguous run of non-blank source lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataChunk {
    /// Content hash of the chunk's lines, salted with the split tag.
    pub hash: u64,
    /// Number of non-blank lines (= source rows) the chunk covers.
    pub rows: usize,
}

/// The chunked content identity of one data source.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceManifest {
    /// Hash over all chunk hashes (and the split layout) — the value that
    /// stands in for the source's path parameters during signing.
    pub content_hash: u64,
    /// Chunks in source row order: train-file chunks, then test-file
    /// chunks — exactly the row order `exec_csv_source` emits.
    pub chunks: Vec<DataChunk>,
}

/// Splits one file's non-blank lines into chunks of `chunk_rows`, hashing
/// each with the split tag. A missing or unreadable file contributes no
/// chunks (compile-time signing must not fail on paths that only exist at
/// execution time).
fn chunk_split(path: &Path, split: &str, chunk_rows: usize, out: &mut Vec<DataChunk>) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let mut hasher: Option<FxHasher> = None;
    let mut rows = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let h = hasher.get_or_insert_with(|| {
            let mut h = FxHasher::default();
            h.write(split.as_bytes());
            h.write_u8(0xfe);
            h
        });
        h.write(line.as_bytes());
        h.write_u8(0xfd);
        rows += 1;
        if rows == chunk_rows {
            out.push(DataChunk {
                hash: hasher.take().unwrap().finish(),
                rows,
            });
            rows = 0;
        }
    }
    if let Some(h) = hasher {
        out.push(DataChunk {
            hash: h.finish(),
            rows,
        });
    }
}

/// How much older than the start of hashing a file's mtime and ctime must
/// be before its chunk list is cached. Filesystem timestamps come from a
/// clock that ticks in up to 1–2 s on some filesystems, so a same-length
/// rewrite within one tick of the hash could keep the stamp the hash was
/// cached under. ctime counts too: restoring an mtime is itself a change.
pub const RACY_WINDOW: Duration = Duration::from_secs(2);

/// Split files whose chunk lists the manifest cache holds at once; an
/// insert into a full cache drops the oldest entry.
const MANIFEST_CACHE_ENTRIES: usize = 32;

/// What a `stat` says about one version of a file's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    len: u64,
    mtime_ns: i128,
    ctime_ns: i128,
    ino: u64,
    dev: u64,
}

impl Stamp {
    /// Whether the file was last changed at least [`RACY_WINDOW`] before
    /// `started`.
    fn settled_before(&self, started: SystemTime) -> bool {
        let Ok(since_epoch) = started.duration_since(UNIX_EPOCH) else {
            return false;
        };
        let cutoff = since_epoch.saturating_sub(RACY_WINDOW).as_nanos() as i128;
        self.mtime_ns.max(self.ctime_ns) <= cutoff
    }
}

/// The file's stamp; `None` when it cannot be stat'ed.
#[cfg(unix)]
fn stamp(path: &Path) -> Option<Stamp> {
    use std::os::unix::fs::MetadataExt;
    let meta = std::fs::metadata(path).ok()?;
    let ns = |secs: i64, nsec: i64| i128::from(secs) * 1_000_000_000 + i128::from(nsec);
    Some(Stamp {
        len: meta.len(),
        mtime_ns: ns(meta.mtime(), meta.mtime_nsec()),
        ctime_ns: ns(meta.ctime(), meta.ctime_nsec()),
        ino: meta.ino(),
        dev: meta.dev(),
    })
}

/// Without a ctime and an inode a stamp cannot catch a restored mtime or a
/// replaced file, so nothing is cached.
#[cfg(not(unix))]
fn stamp(_path: &Path) -> Option<Stamp> {
    None
}

/// One split file's chunk list, valid while the file's stamp is `stamp`.
struct CachedSplit {
    path: PathBuf,
    split: &'static str,
    chunk_rows: usize,
    stamp: Stamp,
    chunks: Vec<DataChunk>,
}

impl CachedSplit {
    fn is_for(&self, path: &Path, split: &str, chunk_rows: usize) -> bool {
        self.path == path && self.split == split && self.chunk_rows == chunk_rows
    }
}

static MANIFEST_CACHE: Mutex<Vec<CachedSplit>> = Mutex::new(Vec::new());

/// [`chunk_split`] behind the manifest cache: served from the cache while
/// the file's stamp is unchanged, otherwise hashed and, if the file held
/// still during the read and is older than [`RACY_WINDOW`], cached.
fn chunk_split_cached(
    path: &Path,
    split: &'static str,
    chunk_rows: usize,
    out: &mut Vec<DataChunk>,
) {
    let Some(before) = stamp(path) else {
        return chunk_split(path, split, chunk_rows, out);
    };
    if let Some(hit) = crate::lock(&MANIFEST_CACHE)
        .iter()
        .find(|e| e.is_for(path, split, chunk_rows) && e.stamp == before)
    {
        out.extend_from_slice(&hit.chunks);
        return;
    }
    let started = SystemTime::now();
    let start = out.len();
    chunk_split(path, split, chunk_rows, out);
    if stamp(path) != Some(before) || !before.settled_before(started) {
        return;
    }
    let mut cache = crate::lock(&MANIFEST_CACHE);
    cache.retain(|e| !e.is_for(path, split, chunk_rows));
    if cache.len() >= MANIFEST_CACHE_ENTRIES {
        cache.remove(0);
    }
    cache.push(CachedSplit {
        path: path.to_path_buf(),
        split,
        chunk_rows,
        stamp: before,
        chunks: out[start..].to_vec(),
    });
}

/// Builds the [`SourceManifest`] for a data-source operator, healing any
/// pending ingest sidecar first so a half-applied delta is never hashed.
/// `None` for operators that are not chunkable data sources.
pub fn source_manifest(kind: &OperatorKind, chunk_rows: usize) -> Option<SourceManifest> {
    manifest_with(kind, chunk_rows, chunk_split_cached)
}

/// [`source_manifest`] with `chunks_of` producing each split's chunks.
fn manifest_with(
    kind: &OperatorKind,
    chunk_rows: usize,
    chunks_of: fn(&Path, &'static str, usize, &mut Vec<DataChunk>),
) -> Option<SourceManifest> {
    let OperatorKind::CsvSource {
        train_path,
        test_path,
    } = kind
    else {
        return None;
    };
    let chunk_rows = chunk_rows.max(1);
    let mut chunks = Vec::new();
    let mut combined = FxHasher::default();
    let mut split = |path: &Path, tag: &'static str| {
        let _ = heal_pending_ingest(path);
        combined.write(tag.as_bytes());
        combined.write_u8(0xfe);
        let start = chunks.len();
        chunks_of(path, tag, chunk_rows, &mut chunks);
        for chunk in &chunks[start..] {
            combined.write_u64(chunk.hash);
        }
    };
    split(train_path, crate::SPLIT_TRAIN);
    if let Some(test) = test_path {
        split(test, crate::SPLIT_TEST);
    }
    Some(SourceManifest {
        content_hash: combined.finish(),
        chunks,
    })
}

/// Manifests for every chunkable source of a workflow, keyed by node
/// index.
pub fn workflow_manifests(
    workflow: &Workflow,
    chunk_rows: usize,
) -> FxHashMap<usize, SourceManifest> {
    let mut map = FxHashMap::default();
    for (i, node) in workflow.nodes().iter().enumerate() {
        if let Some(manifest) = source_manifest(&node.kind, chunk_rows) {
            map.insert(i, manifest);
        }
    }
    map
}

/// Path of the ingest sidecar staged next to a data file.
fn sidecar_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".ingest");
    path.with_file_name(name)
}

/// Serializes every ingest step in the process: an append reads the file's
/// length, stages it and truncates back to it, so two appends (or an append
/// and a heal) interleaved on one file would lose or repeat rows. Sessions
/// built from one server template share their data files.
static INGEST: Mutex<()> = Mutex::new(());

fn io_err(path: &Path, op: &str, e: std::io::Error) -> HelixError {
    HelixError::Store(format!("{op} {}: {e}", path.display()))
}

/// Applies a staged sidecar to the data file: truncate to the recorded
/// base length, append the payload, fsync, remove the sidecar. Idempotent.
fn apply_sidecar(path: &Path, base_len: u64, payload: &str) -> Result<()> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(path)
        .map_err(|e| io_err(path, "open", e))?;
    file.set_len(base_len)
        .map_err(|e| io_err(path, "truncate", e))?;
    let mut file = file;
    use std::io::Seek;
    file.seek(std::io::SeekFrom::End(0))
        .map_err(|e| io_err(path, "seek", e))?;
    file.write_all(payload.as_bytes())
        .map_err(|e| io_err(path, "append", e))?;
    file.sync_all().map_err(|e| io_err(path, "fsync", e))?;
    std::fs::remove_file(sidecar_path(path)).map_err(|e| io_err(path, "unstage", e))?;
    Ok(())
}

/// Completes a delta left half-applied by a crash. The sidecar is written
/// atomically, so its presence means a complete staged delta: re-apply it
/// (truncating any torn partial append first) and remove it. A no-op when
/// no sidecar exists.
pub fn heal_pending_ingest(path: &Path) -> Result<bool> {
    let _ingest = crate::lock(&INGEST);
    heal_staged(path)
}

/// [`heal_pending_ingest`] with [`INGEST`] already held.
fn heal_staged(path: &Path) -> Result<bool> {
    let sidecar = sidecar_path(path);
    let Ok(text) = std::fs::read_to_string(&sidecar) else {
        return Ok(false);
    };
    let json = Json::parse(&text).map_err(|e| {
        HelixError::Store(format!("corrupt ingest sidecar {}: {e}", sidecar.display()))
    })?;
    let base_len = json.get("base_len").and_then(Json::as_u64).unwrap_or(0);
    let payload = json
        .get("payload")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    apply_sidecar(path, base_len, &payload)?;
    Ok(true)
}

/// Durably appends `lines` to a CSV data file. On return the delta is on
/// disk and crash-safe: either the call fails (and the file is untouched
/// or will be healed to include the delta), or the data survives SIGKILL
/// at any later point. Returns the number of lines appended.
///
/// Blank lines are rejected — they would be invisible to the source
/// operator and make the acknowledged row count a lie.
pub fn append_lines(path: &Path, lines: &[String]) -> Result<usize> {
    if lines
        .iter()
        .any(|l| l.trim().is_empty() || l.contains('\n'))
    {
        return Err(HelixError::Workflow(
            "data rows must be non-blank single lines".into(),
        ));
    }
    if lines.is_empty() {
        return Ok(0);
    }
    let _ingest = crate::lock(&INGEST);
    heal_staged(path)?;
    let base_len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    // If the file exists without a trailing newline, the payload opens
    // with one so the first appended row starts a fresh line.
    let needs_newline = base_len > 0 && {
        use std::io::{Read, Seek};
        let mut f = std::fs::File::open(path).map_err(|e| io_err(path, "open", e))?;
        f.seek(std::io::SeekFrom::End(-1))
            .map_err(|e| io_err(path, "seek", e))?;
        let mut last = [0u8; 1];
        f.read_exact(&mut last)
            .map_err(|e| io_err(path, "read", e))?;
        last[0] != b'\n'
    };
    let mut payload = String::new();
    if needs_newline {
        payload.push('\n');
    }
    for line in lines {
        payload.push_str(line);
        payload.push('\n');
    }
    let record = Json::obj(vec![
        ("base_len", Json::Num(base_len as f64)),
        ("payload", Json::str(&payload)),
    ]);
    let sidecar = sidecar_path(path);
    crate::persist::write_atomic(&sidecar, &record.to_string())
        .map_err(|e| io_err(&sidecar, "stage", e))?;
    apply_sidecar(path, base_len, &payload)?;
    Ok(lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-data-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn source(train: &Path) -> OperatorKind {
        OperatorKind::CsvSource {
            train_path: train.to_path_buf(),
            test_path: None,
        }
    }

    /// The manifest as hashed from the file, bypassing the cache.
    fn uncached(path: &Path, chunk_rows: usize) -> SourceManifest {
        manifest_with(&source(path), chunk_rows, chunk_split).unwrap()
    }

    /// Whether the cache holds `path`'s train chunks under its current
    /// stamp, i.e. whether the next `source_manifest` call is a hit.
    fn cached(path: &Path, chunk_rows: usize) -> bool {
        let now = stamp(path);
        crate::lock(&MANIFEST_CACHE)
            .iter()
            .any(|e| e.is_for(path, crate::SPLIT_TRAIN, chunk_rows) && Some(e.stamp) == now)
    }

    #[test]
    fn a_racy_same_length_rewrite_is_rehashed() {
        let dir = tmpdir("racy");
        let train = dir.join("train.csv");
        std::fs::write(&train, "a,1\nb,2\n").unwrap();
        let before = source_manifest(&source(&train), 4).unwrap();
        assert!(
            !cached(&train, 4),
            "a file inside the racy window is not cached"
        );
        std::fs::write(&train, "c,3\nd,4\n").unwrap();
        let after = source_manifest(&source(&train), 4).unwrap();
        assert_eq!(after, uncached(&train, 4));
        assert_ne!(after, before);
    }

    /// Every case that needs a file older than the racy window, so the
    /// suite waits the window out once.
    #[cfg(unix)]
    #[test]
    fn cache_serves_a_manifest_only_while_its_stamp_holds() {
        let dir = tmpdir("stamp");
        let file = |name: &str| dir.join(format!("{name}.csv"));
        let names = [
            "hit",
            "restamped",
            "renamed",
            "appended",
            "deleted",
            "rechunked",
        ];
        for name in names {
            std::fs::write(file(name), "a,1\nb,2\nc,3\n").unwrap();
        }
        std::thread::sleep(RACY_WINDOW + Duration::from_millis(100));
        let original = uncached(&file("hit"), 2);
        for name in names {
            assert_eq!(source_manifest(&source(&file(name)), 2).unwrap(), original);
            assert!(cached(&file(name), 2), "{name}: a settled file is cached");
        }

        // A hit equals the uncached manifest bit for bit.
        assert_eq!(source_manifest(&source(&file("hit")), 2).unwrap(), original);

        // A same-length rewrite with its mtime put back: ctime tells.
        let restamped = file("restamped");
        let mtime = std::fs::metadata(&restamped).unwrap().modified().unwrap();
        std::fs::write(&restamped, "x,9\ny,8\nz,7\n").unwrap();
        std::fs::File::options()
            .write(true)
            .open(&restamped)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        assert_eq!(
            std::fs::metadata(&restamped).unwrap().modified().unwrap(),
            mtime
        );
        assert!(!cached(&restamped, 2));
        let rehashed = source_manifest(&source(&restamped), 2).unwrap();
        assert_eq!(rehashed, uncached(&restamped, 2));
        assert_ne!(rehashed, original);

        // A rename-replace by a same-length file with the same mtime: a
        // new inode.
        let renamed = file("renamed");
        let replacement = dir.join("replacement.tmp");
        std::fs::write(&replacement, "x,9\ny,8\nz,7\n").unwrap();
        std::fs::File::options()
            .write(true)
            .open(&replacement)
            .unwrap()
            .set_modified(mtime)
            .unwrap();
        std::fs::rename(&replacement, &renamed).unwrap();
        assert!(!cached(&renamed, 2));
        assert_eq!(source_manifest(&source(&renamed), 2).unwrap(), rehashed);

        // An append grows the file.
        let appended = file("appended");
        append_lines(&appended, &["d,4".into()]).unwrap();
        assert!(!cached(&appended, 2));
        let grown = source_manifest(&source(&appended), 2).unwrap();
        assert_eq!(grown, uncached(&appended, 2));
        assert_eq!(grown.chunks.len(), 2);
        assert_ne!(grown, original);

        // A deleted file has no stamp and no chunks.
        let deleted = file("deleted");
        std::fs::remove_file(&deleted).unwrap();
        assert!(!cached(&deleted, 2));
        assert!(source_manifest(&source(&deleted), 2)
            .unwrap()
            .chunks
            .is_empty());

        // Another chunk size is another key.
        let rechunked = file("rechunked");
        assert!(!cached(&rechunked, 3));
        let whole = source_manifest(&source(&rechunked), 3).unwrap();
        assert_eq!(whole, uncached(&rechunked, 3));
        assert_eq!(whole.chunks.len(), 1);
    }

    #[test]
    fn missing_file_hashes_deterministically() {
        let kind = source(Path::new("/nonexistent/train.csv"));
        let a = source_manifest(&kind, 4).unwrap();
        let b = source_manifest(&kind, 4).unwrap();
        assert_eq!(a, b);
        assert!(a.chunks.is_empty());
    }

    #[test]
    fn append_extends_chunks_without_touching_existing_hashes() {
        let dir = tmpdir("chunks");
        let train = dir.join("train.csv");
        std::fs::write(&train, "a,1\nb,2\nc,3\n").unwrap();
        let before = source_manifest(&source(&train), 2).unwrap();
        assert_eq!(before.chunks.len(), 2);
        append_lines(&train, &["d,4".into(), "e,5".into()]).unwrap();
        let after = source_manifest(&source(&train), 2).unwrap();
        assert_eq!(after.chunks.len(), 3);
        // The full first chunk is untouched; only the partial tail grew.
        assert_eq!(after.chunks[0], before.chunks[0]);
        assert_ne!(after.content_hash, before.content_hash);
        assert_eq!(after.chunks.iter().map(|c| c.rows).sum::<usize>(), 5);
    }

    #[test]
    fn content_hash_ignores_paths() {
        let dir = tmpdir("paths");
        let a = dir.join("a.csv");
        let b = dir.join("b.csv");
        std::fs::write(&a, "x,1\ny,2\n").unwrap();
        std::fs::write(&b, "x,1\ny,2\n").unwrap();
        let ma = source_manifest(&source(&a), 8).unwrap();
        let mb = source_manifest(&source(&b), 8).unwrap();
        assert_eq!(ma, mb);
    }

    #[test]
    fn same_lines_in_different_splits_hash_differently() {
        let dir = tmpdir("splits");
        let f = dir.join("f.csv");
        std::fs::write(&f, "x,1\n").unwrap();
        let train_only = source_manifest(&source(&f), 8).unwrap();
        let test_only = source_manifest(
            &OperatorKind::CsvSource {
                train_path: dir.join("empty.csv"),
                test_path: Some(f.clone()),
            },
            8,
        )
        .unwrap();
        assert_ne!(train_only.content_hash, test_only.content_hash);
    }

    #[test]
    fn append_without_trailing_newline_starts_fresh_line() {
        let dir = tmpdir("newline");
        let train = dir.join("train.csv");
        std::fs::write(&train, "a,1").unwrap();
        append_lines(&train, &["b,2".into()]).unwrap();
        assert_eq!(std::fs::read_to_string(&train).unwrap(), "a,1\nb,2\n");
    }

    #[test]
    fn blank_rows_rejected() {
        let dir = tmpdir("blank");
        let train = dir.join("train.csv");
        std::fs::write(&train, "a,1\n").unwrap();
        assert!(append_lines(&train, &["  ".into()]).is_err());
        assert!(append_lines(&train, &["a\nb".into()]).is_err());
        assert_eq!(std::fs::read_to_string(&train).unwrap(), "a,1\n");
    }

    #[test]
    fn heal_replays_staged_delta_over_torn_append() {
        let dir = tmpdir("heal");
        let train = dir.join("train.csv");
        std::fs::write(&train, "a,1\n").unwrap();
        // Simulate a crash after staging but mid-append: sidecar present,
        // file holds a torn partial write.
        let record = Json::obj(vec![
            ("base_len", Json::Num(4.0)),
            ("payload", Json::str("b,2\nc,3\n")),
        ]);
        std::fs::write(sidecar_path(&train), record.to_string()).unwrap();
        std::fs::write(&train, "a,1\nb,").unwrap();
        assert!(heal_pending_ingest(&train).unwrap());
        assert_eq!(std::fs::read_to_string(&train).unwrap(), "a,1\nb,2\nc,3\n");
        assert!(!sidecar_path(&train).exists());
        // Idempotent: healing again is a no-op.
        assert!(!heal_pending_ingest(&train).unwrap());
    }

    #[test]
    fn concurrent_appends_to_one_file_keep_every_acknowledged_row() {
        let dir = tmpdir("concurrent");
        let train = dir.join("train.csv");
        std::fs::write(&train, "").unwrap();
        let appending = std::sync::atomic::AtomicBool::new(true);
        let (acked, errors) = std::thread::scope(|s| {
            // A compile heals the file before hashing it, whatever else
            // is appending to it.
            s.spawn(|| {
                while appending.load(std::sync::atomic::Ordering::Relaxed) {
                    let _ = heal_pending_ingest(&train);
                }
            });
            let workers: Vec<_> = (0..2)
                .map(|t| {
                    let train = &train;
                    s.spawn(move || {
                        let mut outcome = (0, 0);
                        for i in 0..50 {
                            match append_lines(train, &[format!("{t},{i}")]) {
                                Ok(_) => outcome.0 += 1,
                                Err(_) => outcome.1 += 1,
                            }
                        }
                        outcome
                    })
                })
                .collect();
            let outcome = workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            appending.store(false, std::sync::atomic::Ordering::Relaxed);
            outcome
        });
        let rows = std::fs::read_to_string(&train).unwrap().lines().count();
        assert_eq!((acked, errors, rows), (100, 0, 100));
        assert!(!sidecar_path(&train).exists());
    }
}
