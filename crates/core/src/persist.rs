//! Durable-tier documents: the layout of the engine meta (cost model,
//! global version history, optimizer memo) and of the per-session
//! records, the [`Journal`] each is kept in, and the atomic-replace file
//! writer every snapshot goes through. Each persisted type encodes itself
//! beside its definition (`to_json` / `from_json`); this module only
//! arranges those encodings into documents and records and provides the
//! field readers they share.
//!
//! The store keeps no log (its files are the index, see [`crate::store`]);
//! this module covers everything *above* the store: what a restarted engine needs to resume
//! every session's lineage. A document is a snapshot, written whole via
//! temp-file + rename ([`write_atomic`]) so readers only ever observe a
//! complete old or new one, plus a log of the records appended since, so
//! a run, an edit or an iterate costs its delta. Parse errors surface as
//! `String`s; recovery callers warn and go on rather than refuse to open
//! (see `docs/ARCHITECTURE.md`, "Durability").

use crate::cost::{CostEvent, CostModel};
use crate::engine::Lineage;
use crate::log::Log;
use crate::memo::MemoTable;
use crate::session::WorkflowEdit;
use crate::signature::Signature;
use crate::store::TempFile;
use crate::version::WorkflowVersion;
use helix_json::Json;
use std::path::{Path, PathBuf};

/// Format version stamped into every persisted document. v2 writes each
/// version in its wire shape (DAG under `dag`, metrics as an object); the
/// decoders still read v1 documents.
const FORMAT_V: f64 = 2.0;

// ---------------------------------------------------------------------------
// Paths, atomic writes and journals
// ---------------------------------------------------------------------------

/// Directory holding engine- and session-level metadata, beside the
/// store's payload files.
pub(crate) fn meta_dir(store_dir: &Path) -> PathBuf {
    store_dir.join("meta")
}

/// Engine-wide state: cost model plus global version history.
pub(crate) fn engine_meta_path(store_dir: &Path) -> PathBuf {
    meta_dir(store_dir).join("engine.json")
}

/// Directory of per-session records.
pub(crate) fn sessions_dir(store_dir: &Path) -> PathBuf {
    meta_dir(store_dir).join("sessions")
}

/// Record path for one named session. The file name percent-encodes the
/// session name so arbitrary names (slashes, dots, unicode) can never
/// escape the sessions directory; the real name is stored inside the
/// record.
pub(crate) fn session_path(store_dir: &Path, name: &str) -> PathBuf {
    sessions_dir(store_dir).join(format!("{}.json", encode_name(name)))
}

/// The log kept beside the snapshot at `snapshot` (`<name>.log`).
pub(crate) fn log_path(snapshot: &Path) -> PathBuf {
    snapshot.with_extension("log")
}

/// Injective percent-encoding over `[A-Za-z0-9_-]`: every other byte
/// becomes `%XX`, so distinct names never collide and no encoded name
/// contains a path separator.
pub(crate) fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for byte in name.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => out.push(byte as char),
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

/// Writes `text` to `path` atomically and durably: a fsync'd temp file
/// renamed over the target ([`crate::store::TempFile`]). A crash at any
/// point leaves either the previous file or the new one, plus at worst a
/// stray `*.tmp` that [`crate::store::sweep_tmp`] removes on the next
/// open.
pub(crate) fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    TempFile::write(path, text.as_bytes(), true)?.commit(path)
}

/// A document kept as a snapshot, written whole by [`Journal::compact`],
/// plus a [`Log`] of the records appended since ([`log_path`]). Every
/// record carries the next sequence number, and a snapshot the last one it
/// folds in, so replay skips what a crash between a compaction's rename
/// and its log reset left behind. Records and snapshots are fsync'd
/// before their call returns.
#[derive(Debug)]
pub(crate) struct Journal {
    snapshot: PathBuf,
    snapshot_bytes: u64,
    log: Log,
    seq: u64,
}

impl Journal {
    /// Opens the journal of `snapshot` for appending after sequence
    /// number `seq`.
    pub(crate) fn open(snapshot: &Path, seq: u64) -> std::io::Result<Journal> {
        if let Some(dir) = snapshot.parent() {
            std::fs::create_dir_all(dir)?;
        }
        Ok(Journal {
            snapshot: snapshot.to_path_buf(),
            snapshot_bytes: std::fs::metadata(snapshot).map_or(0, |m| m.len()),
            log: Log::open(&log_path(snapshot))?,
            seq,
        })
    }

    /// Recovers the journal of `snapshot`, whose contents through sequence
    /// number `seq` are `state`: the log's newer records are applied on
    /// top, in order, up to the first that does not parse or apply (a
    /// torn tail, or corruption nothing after can be trusted to follow),
    /// which is dropped with everything after it and one warning. A log
    /// that held anything, or a `stale` snapshot, is then folded into a
    /// fresh snapshot, so appends start clean. Returns the journal, open
    /// for appending, and the records dropped.
    pub(crate) fn recover<T: Doc>(
        snapshot: &Path,
        seq: u64,
        state: &mut T,
        stale: bool,
    ) -> std::io::Result<(Journal, usize)> {
        let path = log_path(snapshot);
        let (records, log_bytes) = Log::replay(&path)?;
        let mut journal = Journal::open(snapshot, seq)?;
        let mut dropped = 0;
        for (i, record) in records.iter().enumerate() {
            let applied = record.as_ref().ok_or("not JSON".into()).and_then(|r| {
                let record_seq = field(r, "seq")?.as_u64().ok_or("bad `seq`")?;
                if record_seq > journal.seq {
                    state.apply(r)?;
                    journal.seq = record_seq;
                }
                Ok::<_, String>(())
            });
            if let Err(err) = applied {
                dropped = records.len() - i;
                eprintln!(
                    "helix: warning: dropping {dropped} record(s) of {} from a bad one on ({err})",
                    path.display()
                );
                break;
            }
        }
        if log_bytes > 0 || stale {
            journal.compact(state.to_json())?;
        }
        Ok((journal, dropped))
    }

    /// Appends `record`, stamped with the next sequence number. Returns
    /// whether the log has outgrown its snapshot: time to compact.
    pub(crate) fn append(&mut self, record: Json) -> std::io::Result<bool> {
        self.seq += 1;
        self.log.append(&stamped(record, self.seq).to_string())?;
        Ok(self.log.bytes() > self.snapshot_bytes)
    }

    /// Writes `doc`, the state through the last record, as the snapshot
    /// and empties the log.
    pub(crate) fn compact(&mut self, doc: Json) -> std::io::Result<()> {
        let text = stamped(doc, self.seq).to_string();
        write_atomic(&self.snapshot, &text)?;
        self.snapshot_bytes = text.len() as u64;
        self.log.clear()
    }
}

/// A document a [`Journal`] keeps: its snapshot form, and how one log
/// record changes it.
pub(crate) trait Doc {
    /// The snapshot document.
    fn to_json(&self) -> Json;
    /// Applies one log record. Decodes the whole record before changing
    /// anything.
    fn apply(&mut self, record: &Json) -> Result<(), String>;
}

/// `json` (an object) with `seq` as its first field.
fn stamped(json: Json, seq: u64) -> Json {
    let Json::Obj(mut pairs) = json else {
        return json;
    };
    pairs.insert(0, ("seq".to_string(), Json::Num(seq as f64)));
    Json::Obj(pairs)
}

/// Reads the snapshot document at `path`: `Ok(None)` when it does not
/// exist, `Err` when it does but cannot be read or parsed.
fn read_doc(path: &Path) -> Result<Option<Json>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    Json::parse(&text)
        .map(Some)
        .map_err(|e| format!("parse {}: {e}", path.display()))
}

/// A document's unsigned count, 0 when absent (fields added after the
/// format was first written).
fn count(json: &Json, key: &str) -> u64 {
    json.get(key).and_then(Json::as_u64).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Field readers and writers shared by the types' `to_json` / `from_json`
// ---------------------------------------------------------------------------

/// Fixed-width hex: signatures and other full-range `u64`s do not fit a
/// JSON number (an `f64`) exactly.
pub(crate) fn u64_hex(v: u64) -> String {
    format!("{v:016x}")
}

pub(crate) fn hex_u64(text: &str) -> Result<u64, String> {
    u64::from_str_radix(text, 16).map_err(|e| format!("bad hex `{text}`: {e}"))
}

pub(crate) fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(Json::str).collect())
}

pub(crate) fn sig_arr(sigs: &[Signature]) -> Json {
    Json::Arr(sigs.iter().map(|s| Json::str(u64_hex(s.0))).collect())
}

/// A JSON array of `items`, each encoded by `encode`.
fn json_arr<T>(items: &[T], encode: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(encode).collect())
}

pub(crate) fn field<'j>(obj: &'j Json, key: &str) -> Result<&'j Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

pub(crate) fn str_field(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

/// A string field that may be `null`.
pub(crate) fn opt_str_field(obj: &Json, key: &str) -> Result<Option<String>, String> {
    match field(obj, key)? {
        Json::Null => Ok(None),
        _ => str_field(obj, key).map(Some),
    }
}

pub(crate) fn f64_field(obj: &Json, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

pub(crate) fn bool_field(obj: &Json, key: &str) -> Result<bool, String> {
    field(obj, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a bool"))
}

pub(crate) fn arr_field<'j>(obj: &'j Json, key: &str) -> Result<&'j [Json], String> {
    field(obj, key)?
        .as_array()
        .ok_or_else(|| format!("field `{key}` is not an array"))
}

pub(crate) fn string_list(obj: &Json, key: &str) -> Result<Vec<String>, String> {
    arr_field(obj, key)?
        .iter()
        .map(|j| {
            j.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` entry is not a string"))
        })
        .collect()
}

pub(crate) fn sig_list(obj: &Json, key: &str) -> Result<Vec<Signature>, String> {
    string_list(obj, key)?
        .iter()
        .map(|s| hex_u64(s).map(Signature))
        .collect()
}

/// A decoder of one persisted item.
type Decode<T> = fn(&Json) -> Result<T, String>;

/// The array field `key`, each item decoded by `decode`.
fn decoded<T>(obj: &Json, key: &str, decode: Decode<T>) -> Result<Vec<T>, String> {
    arr_field(obj, key)?.iter().map(decode).collect()
}

// ---------------------------------------------------------------------------
// Engine meta (cost model + global history)
// ---------------------------------------------------------------------------

/// Engine-wide durable state: what the meta snapshot holds and its log
/// records change.
#[derive(Debug, Default)]
pub(crate) struct EngineMeta {
    /// The cost model.
    pub cost: CostModel,
    /// The global version history.
    pub versions: Vec<WorkflowVersion>,
    /// The optimizer memo (empty for pre-memo meta files).
    pub memo: MemoTable,
    /// Signatures pinned by the last offline Optimal pass.
    pub pinned: Vec<Signature>,
    /// Lifetime adaptive re-plan count.
    pub replans_triggered: u64,
    /// Unix timestamp of the last offline pass (0 = never ran).
    pub last_offline_unix: u64,
    /// The last log sequence number the snapshot folds in.
    pub seq: u64,
}

impl Doc for EngineMeta {
    /// The snapshot document (pinned signatures sorted, for stable files).
    fn to_json(&self) -> Json {
        let mut pinned = self.pinned.clone();
        pinned.sort_unstable_by_key(|s| s.0);
        let versions = json_arr(&self.versions, WorkflowVersion::to_json);
        let count = |n: u64| Json::Num(n as f64);
        Json::obj([
            ("v", Json::Num(FORMAT_V)),
            ("cost", self.cost.to_json()),
            ("versions", versions),
            ("memo", self.memo.to_json()),
            ("pinned", sig_arr(&pinned)),
            ("replans_triggered", count(self.replans_triggered)),
            ("last_offline_unix", count(self.last_offline_unix)),
        ])
    }

    /// Applies one meta-log record: a run's cost events, memo recordings
    /// and version (`null` for a failed run), or an offline pass's pins;
    /// both carry the counters.
    fn apply(&mut self, record: &Json) -> Result<(), String> {
        let replans = field(record, "replans")?.as_u64().ok_or("bad `replans`")?;
        let offline = field(record, "offline")?.as_u64().ok_or("bad `offline`")?;
        match str_field(record, "op")?.as_str() {
            "run" => {
                let events = decoded(record, "cost", CostEvent::from_json)?;
                let recordings = decoded(record, "memo", crate::memo::recording_from_json)?;
                let version = match field(record, "version")? {
                    Json::Null => None,
                    json => Some(WorkflowVersion::from_json(json)?),
                };
                for event in &events {
                    self.cost.observe(event);
                }
                self.memo.begin_run();
                for (sig, name, parents, observation) in recordings {
                    self.memo.record(sig, &name, &parents, observation);
                }
                self.versions.extend(version);
            }
            "pins" => self.pinned = sig_list(record, "pinned")?,
            op => return Err(format!("unknown meta record `{op}`")),
        }
        self.replans_triggered = replans;
        self.last_offline_unix = offline;
        Ok(())
    }
}

/// Loads the engine meta snapshot. `Ok(None)` when the file does not exist
/// (fresh directory); `Err` when it exists but cannot be parsed — the
/// caller warns and starts fresh (torn/corrupt policy: never refuse to
/// open). The caller replays the log on top ([`Journal::recover`]).
pub(crate) fn load_engine_meta(path: &Path) -> Result<Option<EngineMeta>, String> {
    let Some(doc) = read_doc(path)? else {
        return Ok(None);
    };
    // Optimizer fields default when absent: meta files written before the
    // memo existed must keep loading (forward rolls never refuse).
    let memo = doc
        .get("memo")
        .map_or(Ok(MemoTable::new()), MemoTable::from_json)?;
    let pinned = doc
        .get("pinned")
        .map_or(Ok(Vec::new()), |_| sig_list(&doc, "pinned"))?;
    Ok(Some(EngineMeta {
        cost: CostModel::from_json(field(&doc, "cost")?)?,
        versions: decoded(&doc, "versions", WorkflowVersion::from_json)?,
        memo,
        pinned,
        replans_triggered: count(&doc, "replans_triggered"),
        last_offline_unix: count(&doc, "last_offline_unix"),
        seq: count(&doc, "seq"),
    }))
}

// ---------------------------------------------------------------------------
// Session records
// ---------------------------------------------------------------------------

/// Everything needed to resume one named session after a restart: the
/// registry template it was built from, the replayable edit history, its
/// private lineage, and its version store.
pub(crate) struct SessionRecord {
    /// Session name (the registry key; the file name is an encoding of
    /// this, but this field is authoritative).
    pub name: String,
    /// Workflow template the session was created from, when known.
    pub template: Option<String>,
    /// Whether the live workflow can no longer be rebuilt from
    /// `template` + edits (wholesale replacement or a non-replayable
    /// edit happened). Recovery of such a session is degraded: lineage
    /// and history survive, the workflow resets to the template.
    pub workflow_replaced: bool,
    /// The session's private lineage.
    pub lineage: Lineage,
    /// Edits already folded into executed iterations, oldest first.
    pub applied_edits: Vec<WorkflowEdit>,
    /// Edits recorded since the last iteration.
    pub pending_edits: Vec<WorkflowEdit>,
    /// The session's private version history.
    pub versions: Vec<WorkflowVersion>,
}

impl Doc for SessionRecord {
    fn to_json(&self) -> Json {
        let template = self.template.as_deref().map_or(Json::Null, Json::str);
        let edits = |edits: &[WorkflowEdit]| json_arr(edits, WorkflowEdit::to_json);
        let versions = json_arr(&self.versions, WorkflowVersion::to_json);
        Json::obj([
            ("v", Json::Num(FORMAT_V)),
            ("name", Json::str(&self.name)),
            ("template", template),
            ("workflow_replaced", Json::Bool(self.workflow_replaced)),
            ("lineage", self.lineage.to_json()),
            ("applied_edits", edits(&self.applied_edits)),
            ("pending_edits", edits(&self.pending_edits)),
            ("versions", versions),
        ])
    }

    /// Applies one session-log record: an edit becomes pending; an
    /// iterate records its version and lineage change, and the pending
    /// edits become applied.
    fn apply(&mut self, record: &Json) -> Result<(), String> {
        match str_field(record, "op")?.as_str() {
            "edit" => {
                let edit = WorkflowEdit::from_json(field(record, "edit")?)?;
                self.pending_edits.push(edit);
            }
            "iterate" => {
                let version = WorkflowVersion::from_json(field(record, "version")?)?;
                let mut lineage = self.lineage.clone();
                lineage.apply_delta(field(record, "lineage")?)?;
                self.lineage = lineage;
                self.versions.push(version);
                self.applied_edits.append(&mut self.pending_edits);
            }
            op => return Err(format!("unknown session record `{op}`")),
        }
        Ok(())
    }
}

/// Parses one session snapshot, returning it with the last log sequence
/// number it folds in.
pub(crate) fn load_session_record(path: &Path) -> Result<(SessionRecord, u64), String> {
    let doc = read_doc(path)?.ok_or_else(|| format!("{} is gone", path.display()))?;
    let record = SessionRecord {
        name: str_field(&doc, "name")?,
        template: opt_str_field(&doc, "template")?,
        workflow_replaced: bool_field(&doc, "workflow_replaced")?,
        lineage: Lineage::from_json(field(&doc, "lineage")?)?,
        applied_edits: decoded(&doc, "applied_edits", WorkflowEdit::from_json)?,
        pending_edits: decoded(&doc, "pending_edits", WorkflowEdit::from_json)?,
        versions: decoded(&doc, "versions", WorkflowVersion::from_json)?,
    };
    Ok((record, count(&doc, "seq")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::Observation;
    use crate::ops::Stage;
    use crate::store::sweep_tmp;
    use crate::version::{DagSnapshot, NodeSnapshot, VersionStore};
    use std::sync::Arc;

    fn save_session_record(path: &Path, record: &SessionRecord) {
        write_atomic(path, &record.to_json().to_string()).unwrap();
    }

    fn load_session(path: &Path) -> SessionRecord {
        load_session_record(path).unwrap().0
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_version(id: usize, session: Option<&str>) -> WorkflowVersion {
        WorkflowVersion {
            id,
            session: session.map(str::to_string),
            snapshot: Arc::new(DagSnapshot {
                nodes: vec![NodeSnapshot {
                    name: "rows".into(),
                    tag: "csv_scan".into(),
                    params: "age:int".into(),
                    parents: vec!["data".into()],
                    stage: Stage::DataPreProcessing,
                }],
                outputs: vec!["rows".into()],
            }),
            metrics: vec![("accuracy".into(), 0.91)],
            total_secs: 1.5,
            change_summary: "initial version".into(),
        }
    }

    /// A lineage at `iteration` whose previous snapshot maps node names to
    /// `(local, sig)`; `None` before the first iteration. Built through
    /// the decoder: the fields are private to `engine.rs`.
    fn lineage(iteration: usize, previous: Option<&[(&str, u64, u64)]>) -> Lineage {
        let previous = previous.map_or(Json::Null, |entries| {
            Json::Arr(
                entries
                    .iter()
                    .map(|&(node, local, sig)| {
                        Json::obj([
                            ("node", Json::str(node)),
                            ("local", Json::str(u64_hex(local))),
                            ("sig", Json::str(u64_hex(sig))),
                        ])
                    })
                    .collect(),
            )
        });
        Lineage::from_json(&Json::obj([
            ("iteration", Json::Num(iteration as f64)),
            ("previous", previous),
        ]))
        .unwrap()
    }

    #[test]
    fn cost_model_roundtrips() {
        let mut cost = CostModel::new();
        cost.observe_compute("rows", 0.25);
        cost.observe_io(1 << 20, 0.01);
        cost.observe_encode(1000, 800);
        let json = cost.to_json();
        let back = CostModel::from_json(&json).unwrap();
        assert_eq!(back.compute_estimate_secs("rows"), Some(0.25));
        let back = back.to_json();
        for key in ["bytes_per_sec", "io_latency_sec", "encode_ratio"] {
            assert_eq!(back.get(key), json.get(key), "{key}");
        }
    }

    #[test]
    fn corrupt_cost_parameters_fall_back_to_defaults() {
        let defaults = CostModel::new().to_json();
        let restored = CostModel::from_json(&Json::obj([
            ("bytes_per_sec", Json::Num(-1.0)),
            ("io_latency_sec", Json::Num(f64::INFINITY)),
            ("encode_ratio", Json::Num(0.0)),
            (
                "compute_secs",
                Json::obj([("bad", Json::Num(f64::NAN)), ("ok", Json::Num(0.5))]),
            ),
        ]))
        .unwrap();
        assert_eq!(restored.compute_estimate_secs("bad"), None);
        assert_eq!(restored.compute_estimate_secs("ok"), Some(0.5));
        let restored = restored.to_json();
        for key in ["bytes_per_sec", "io_latency_sec", "encode_ratio"] {
            assert_eq!(restored.get(key), defaults.get(key), "{key}");
        }
    }

    #[test]
    fn versions_roundtrip_with_snapshot_and_metrics() {
        let store = VersionStore::from_versions(vec![
            sample_version(0, None),
            sample_version(1, Some("alice")),
        ]);
        let json: Vec<Json> = store.all().iter().map(WorkflowVersion::to_json).collect();
        let back = VersionStore::from_versions(
            json.iter()
                .map(WorkflowVersion::from_json)
                .collect::<Result<_, _>>()
                .unwrap(),
        );
        assert_eq!(back.len(), 2);
        assert_eq!(back.get(1).unwrap().session.as_deref(), Some("alice"));
        assert_eq!(
            back.get(0).unwrap().snapshot.nodes,
            store.get(0).unwrap().snapshot.nodes
        );
        assert_eq!(back.get(0).unwrap().metrics, store.get(0).unwrap().metrics);
    }

    #[test]
    fn lineage_roundtrips_including_full_u64_signatures() {
        // Values outside f64's exact-integer range must survive (hence hex
        // strings, not JSON numbers).
        let lineage = lineage(
            3,
            Some(&[("rows", u64::MAX - 1, u64::MAX), ("data", 7, 42)]),
        );
        let back = Lineage::from_json(&lineage.to_json()).unwrap();
        assert_eq!(back.iteration(), 3);
        let mut sigs: Vec<u64> = back.signatures().iter().map(|s| s.0).collect();
        sigs.sort_unstable();
        assert_eq!(sigs, vec![42, u64::MAX]);
        assert_eq!(back.to_json(), lineage.to_json());

        let fresh = Lineage::from_json(&Lineage::new().to_json()).unwrap();
        assert!(!fresh.has_history());
    }

    #[test]
    fn edits_roundtrip_every_variant() {
        let edits = vec![
            WorkflowEdit::SetLearnerParam {
                learner: "preds".into(),
                param: "reg_param=0.9".into(),
            },
            WorkflowEdit::ReplaceOperator {
                node: "checked".into(),
                tag: "evaluate".into(),
            },
            WorkflowEdit::Rewire {
                node: "income".into(),
                parents: vec!["rows".into(), "edu_f".into()],
            },
            WorkflowEdit::AddOutput {
                node: "income".into(),
            },
            WorkflowEdit::Freeform {
                description: "add age bucketizer".into(),
            },
            WorkflowEdit::AppendData {
                source: "data".into(),
                rows: 64,
            },
        ];
        let json = Json::obj([(
            "edits",
            Json::Arr(edits.iter().map(WorkflowEdit::to_json).collect()),
        )]);
        let back = decoded(&json, "edits", WorkflowEdit::from_json).unwrap();
        assert_eq!(back, edits);
    }

    #[test]
    fn session_record_roundtrips_through_a_file() {
        let dir = tmpdir("session-record");
        let path = session_path(&dir, "alice/../etc");
        assert!(
            path.parent().unwrap().ends_with("meta/sessions"),
            "encoded name must not traverse out of the sessions dir"
        );
        let record = SessionRecord {
            name: "alice/../etc".into(),
            template: Some("census".into()),
            workflow_replaced: false,
            lineage: lineage(2, None),
            applied_edits: vec![WorkflowEdit::AddOutput {
                node: "income".into(),
            }],
            pending_edits: vec![],
            versions: vec![sample_version(0, Some("alice/../etc"))],
        };
        save_session_record(&path, &record);
        let back = load_session(&path);
        assert_eq!(back.name, record.name);
        assert_eq!(back.template.as_deref(), Some("census"));
        assert_eq!(back.lineage.iteration(), 2);
        assert_eq!(back.applied_edits, record.applied_edits);
        assert_eq!(back.versions.len(), 1);
    }

    #[test]
    fn engine_meta_roundtrips_and_absent_file_is_none() {
        let dir = tmpdir("engine-meta");
        let path = engine_meta_path(&dir);
        assert!(load_engine_meta(&path).unwrap().is_none());

        let mut cost = CostModel::new();
        cost.observe_compute("rows", 0.5);
        let mut memo = MemoTable::new();
        memo.record(
            Signature(7),
            "rows",
            &[Signature(3)],
            Observation {
                exec_secs: 0.25,
                output_bytes: 2048,
                loaded: false,
                rows: 100,
                run: 0,
            },
        );
        memo.record(
            Signature(7),
            "rows",
            &[Signature(3)],
            Observation {
                exec_secs: 0.01,
                output_bytes: 1024,
                loaded: true,
                rows: 0,
                run: 0,
            },
        );
        let saved = EngineMeta {
            cost,
            versions: vec![sample_version(0, None)],
            memo: memo.clone(),
            pinned: vec![Signature(7), Signature(3)],
            replans_triggered: 5,
            last_offline_unix: 1234,
            seq: 0,
        };
        write_atomic(&path, &saved.to_json().to_string()).unwrap();
        let meta = load_engine_meta(&path).unwrap().unwrap();
        assert_eq!(meta.cost.compute_estimate_secs("rows"), Some(0.5));
        assert_eq!(meta.versions.len(), 1);
        assert_eq!(meta.memo.len(), 1);
        assert_eq!(meta.memo.observations_recorded(), 2);
        assert_eq!(meta.memo.get(Signature(7)), memo.get(Signature(7)));
        assert_eq!(meta.pinned, vec![Signature(3), Signature(7)]);
        assert_eq!(meta.replans_triggered, 5);
        assert_eq!(meta.last_offline_unix, 1234);
    }

    #[test]
    fn non_finite_metrics_survive_a_restart() {
        // JSON has no NaN or infinity, so a diverged learner's metric is
        // written as `null`. Reading it back must not fail the document:
        // that would drop every version (and, for the engine meta, the
        // cost model and memo) on the next open.
        let dir = tmpdir("non-finite");
        let mut version = sample_version(0, Some("alice"));
        version.metrics = vec![
            ("log_loss".into(), f64::NAN),
            ("rmse".into(), f64::INFINITY),
            ("accuracy".into(), 0.5),
        ];
        let check = |versions: &[WorkflowVersion]| {
            assert_eq!(versions.len(), 1);
            let metrics = &versions[0].metrics;
            let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["log_loss", "rmse", "accuracy"]);
            assert!(metrics[0].1.is_nan() && metrics[1].1.is_nan());
            assert_eq!(metrics[2].1, 0.5);
        };

        let path = engine_meta_path(&dir);
        let saved = EngineMeta {
            versions: vec![version.clone()],
            ..EngineMeta::default()
        };
        write_atomic(&path, &saved.to_json().to_string()).unwrap();
        check(&load_engine_meta(&path).unwrap().unwrap().versions);

        let path = session_path(&dir, "alice");
        let record = SessionRecord {
            name: "alice".into(),
            template: None,
            workflow_replaced: false,
            lineage: Lineage::new(),
            applied_edits: vec![],
            pending_edits: vec![],
            versions: vec![version],
        };
        save_session_record(&path, &record);
        check(&load_session(&path).versions);
    }

    /// An engine meta file and a session record exactly as the v1 format
    /// wrote them (DAG under `snapshot`, metrics and compute estimates as
    /// `[[name, value], …]` pairs): a store directory from before v2 must
    /// recover its whole history.
    const V1_ENGINE_META: &str = r#"{"v":1,"cost":{"bytes_per_sec":922034100.4825652,"io_latency_sec":0.00002,"encode_ratio":0.88,"compute_secs":[["preds",1.5],["rows",0.25]]},"versions":[{"id":0,"session":null,"snapshot":{"nodes":[{"name":"rows","tag":"csv_scan","params":"age:int","parents":["data"],"stage":"data-pre-processing"},{"name":"preds","tag":"apply","params":"","parents":["rows","preds__model"],"stage":"machine-learning"}],"outputs":["preds"]},"metrics":[["accuracy",0.8],["f1",0.5]],"total_secs":1.25,"change_summary":"set preds reg_param=0.5"},{"id":1,"session":"alice","snapshot":{"nodes":[{"name":"rows","tag":"csv_scan","params":"age:int","parents":["data"],"stage":"data-pre-processing"},{"name":"preds","tag":"apply","params":"","parents":["rows","preds__model"],"stage":"machine-learning"}],"outputs":["preds"]},"metrics":[["accuracy",0.83],["f1",0.5]],"total_secs":1.25,"change_summary":"set preds reg_param=0.5"}],"memo":{"observations_recorded":3,"current_run":2,"entries":[{"sig":"0000000000000007","name":"rows","parents":["0000000000000003"],"reuse_hits":1,"runs":2,"obs":[{"secs":0.25,"bytes":2048,"loaded":false,"rows":100,"run":1},{"secs":0.01,"bytes":1024,"loaded":true,"rows":0,"run":2}]},{"sig":"ffffffffffffffff","name":"preds","parents":["0000000000000007","0000000000000009"],"reuse_hits":0,"runs":1,"obs":[{"secs":1.5,"bytes":4096,"loaded":false,"rows":10,"run":2}]}]},"pinned":["0000000000000003","0000000000000007"],"replans_triggered":5,"last_offline_unix":1234}"#;
    const V1_SESSION_RECORD: &str = r#"{"v":1,"name":"alice","template":"census","workflow_replaced":true,"lineage":{"iteration":2,"previous":[{"node":"data","local":"0000000000000007","sig":"000000000000002a"},{"node":"rows","local":"fffffffffffffffe","sig":"ffffffffffffffff"}]},"applied_edits":[{"kind":"set_learner_param","learner":"preds","param":"model=logreg"},{"kind":"replace_operator","node":"checked","tag":"evaluate"},{"kind":"rewire","node":"income","parents":["rows","edu_f"]},{"kind":"freeform","description":"add age bucketizer"}],"pending_edits":[{"kind":"add_output","node":"income"},{"kind":"append_data","source":"data","rows":64}],"versions":[{"id":0,"session":"alice","snapshot":{"nodes":[{"name":"rows","tag":"csv_scan","params":"age:int","parents":["data"],"stage":"data-pre-processing"},{"name":"preds","tag":"apply","params":"","parents":["rows","preds__model"],"stage":"machine-learning"}],"outputs":["preds"]},"metrics":[["accuracy",0.83],["f1",0.5]],"total_secs":1.25,"change_summary":"set preds reg_param=0.5"}]}"#;

    /// The state the v1 fixtures above were written from.
    fn v1_version(id: usize, session: Option<&str>, accuracy: f64) -> WorkflowVersion {
        WorkflowVersion {
            id,
            session: session.map(str::to_string),
            snapshot: Arc::new(DagSnapshot {
                nodes: vec![
                    NodeSnapshot {
                        name: "rows".into(),
                        tag: "csv_scan".into(),
                        params: "age:int".into(),
                        parents: vec!["data".into()],
                        stage: Stage::DataPreProcessing,
                    },
                    NodeSnapshot {
                        name: "preds".into(),
                        tag: "apply".into(),
                        params: "".into(),
                        parents: vec!["rows".into(), "preds__model".into()],
                        stage: Stage::MachineLearning,
                    },
                ],
                outputs: vec!["preds".into()],
            }),
            metrics: vec![("accuracy".into(), accuracy), ("f1".into(), 0.5)],
            total_secs: 1.25,
            change_summary: "set preds reg_param=0.5".into(),
        }
    }

    fn encoded(versions: &[WorkflowVersion]) -> Vec<String> {
        versions.iter().map(|v| v.to_json().to_string()).collect()
    }

    #[test]
    fn v1_documents_still_load() {
        let dir = tmpdir("v1");
        let path = engine_meta_path(&dir);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, V1_ENGINE_META).unwrap();
        let meta = load_engine_meta(&path).unwrap().unwrap();

        let mut cost = CostModel::new();
        cost.observe_compute("rows", 0.25);
        cost.observe_compute("preds", 1.5);
        cost.observe_io(1 << 20, 0.01);
        cost.observe_encode(1000, 800);
        let mut memo = MemoTable::new();
        let obs = |exec_secs, output_bytes, loaded, rows| Observation {
            exec_secs,
            output_bytes,
            loaded,
            rows,
            run: 0,
        };
        memo.begin_run();
        memo.record(
            Signature(7),
            "rows",
            &[Signature(3)],
            obs(0.25, 2048, false, 100),
        );
        memo.begin_run();
        memo.record(
            Signature(7),
            "rows",
            &[Signature(3)],
            obs(0.01, 1024, true, 0),
        );
        memo.record(
            Signature(u64::MAX),
            "preds",
            &[Signature(7), Signature(9)],
            obs(1.5, 4096, false, 10),
        );
        assert_eq!(meta.cost.to_json(), cost.to_json());
        assert_eq!(
            encoded(&meta.versions),
            encoded(&[v1_version(0, None, 0.8), v1_version(1, Some("alice"), 0.83)])
        );
        assert_eq!(meta.memo.to_json(), memo.to_json());
        assert_eq!(meta.pinned, vec![Signature(3), Signature(7)]);
        assert_eq!(meta.replans_triggered, 5);
        assert_eq!(meta.last_offline_unix, 1234);

        let path = session_path(&dir, "alice");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, V1_SESSION_RECORD).unwrap();
        let record = load_session(&path);
        assert_eq!(record.name, "alice");
        assert_eq!(record.template.as_deref(), Some("census"));
        assert!(record.workflow_replaced);
        assert_eq!(
            record.lineage.to_json(),
            lineage(
                2,
                Some(&[("rows", u64::MAX - 1, u64::MAX), ("data", 7, 42)])
            )
            .to_json()
        );
        assert_eq!(
            record.applied_edits,
            vec![
                WorkflowEdit::SetLearnerParam {
                    learner: "preds".into(),
                    param: "model=logreg".into(),
                },
                WorkflowEdit::ReplaceOperator {
                    node: "checked".into(),
                    tag: "evaluate".into(),
                },
                WorkflowEdit::Rewire {
                    node: "income".into(),
                    parents: vec!["rows".into(), "edu_f".into()],
                },
                WorkflowEdit::Freeform {
                    description: "add age bucketizer".into(),
                },
            ]
        );
        assert_eq!(
            record.pending_edits,
            vec![
                WorkflowEdit::AddOutput {
                    node: "income".into(),
                },
                WorkflowEdit::AppendData {
                    source: "data".into(),
                    rows: 64,
                },
            ]
        );
        assert_eq!(
            encoded(&record.versions),
            encoded(&[v1_version(0, Some("alice"), 0.83)])
        );

        // Re-saving writes v2, which reads back to the same state.
        save_session_record(&path, &record);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(r#"{"v":2,"#) && text.contains(r#""dag":"#));
        assert_eq!(
            encoded(&load_session(&path).versions),
            encoded(&record.versions)
        );
    }

    #[test]
    fn pre_memo_engine_meta_still_loads() {
        // A meta file written before the optimizer memo existed (PR 8
        // format): the new fields must default, not fail the load.
        let dir = tmpdir("engine-meta-premem");
        let path = engine_meta_path(&dir);
        let doc = Json::obj([
            ("v", Json::Num(1.0)),
            ("cost", CostModel::new().to_json()),
            ("versions", Json::Arr(vec![])),
        ]);
        write_atomic(&path, &doc.to_string()).unwrap();
        let meta = load_engine_meta(&path).unwrap().unwrap();
        assert!(meta.memo.is_empty());
        assert!(meta.pinned.is_empty());
        assert_eq!(meta.replans_triggered, 0);
        assert_eq!(meta.last_offline_unix, 0);
    }

    #[test]
    fn corrupt_engine_meta_is_an_error_not_a_panic() {
        let dir = tmpdir("engine-meta-corrupt");
        let path = engine_meta_path(&dir);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{\"v\":1,\"cost\":tr").unwrap();
        assert!(load_engine_meta(&path).is_err());
    }

    #[test]
    fn write_atomic_replaces_and_sweep_removes_tmp() {
        let dir = tmpdir("atomic");
        let path = dir.join("state.json");
        write_atomic(&path, "one").unwrap();
        write_atomic(&path, "two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");

        std::fs::write(dir.join("state.json.999-0.tmp"), "torn").unwrap();
        sweep_tmp(&dir);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        assert!(!dir.join("state.json.999-0.tmp").exists());
    }

    #[test]
    fn encode_name_is_injective_and_path_safe() {
        let names = ["alice", "a/b", "a%2Fb", "день", "a.b", "a_b-c"];
        let encoded: Vec<String> = names.iter().map(|n| encode_name(n)).collect();
        for (i, enc) in encoded.iter().enumerate() {
            for (j, other) in encoded.iter().enumerate() {
                if i != j {
                    assert_ne!(enc, other, "{} vs {}", names[i], names[j]);
                }
            }
            assert!(!enc.contains('/') && !enc.contains('\\') && !enc.contains(".."));
        }
    }
}
