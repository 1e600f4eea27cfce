//! Durable-tier documents: the layout of the engine meta file (cost
//! model, global version history, optimizer memo) and of the per-session
//! records, plus the atomic-replace file writer every snapshot goes
//! through. Each persisted type encodes itself beside its definition
//! (`to_json` / `from_json`); this module only arranges those encodings
//! into documents and provides the field readers they share.
//!
//! The store's per-entry WAL lives in [`crate::store`]; this module covers
//! everything *above* the store: what a restarted engine needs to resume
//! every session's lineage. All files are single JSON documents written
//! via temp-file + rename ([`write_atomic`]), so readers only ever observe
//! a complete old or a complete new state — never a torn one. Parse
//! errors surface as `String`s; recovery callers warn and start fresh
//! rather than refuse to open (see `docs/ARCHITECTURE.md`, "Durability").

use crate::cost::CostModel;
use crate::engine::Lineage;
use crate::memo::MemoTable;
use crate::session::WorkflowEdit;
use crate::signature::Signature;
use crate::store::TempFile;
use crate::version::{VersionStore, WorkflowVersion};
use helix_json::Json;
use std::path::{Path, PathBuf};

/// Format version stamped into every persisted document. v2 writes each
/// version in its wire shape (DAG under `dag`, metrics as an object); the
/// decoders still read v1 documents.
const FORMAT_V: f64 = 2.0;

// ---------------------------------------------------------------------------
// Paths and atomic writes
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

fn version_list(obj: &Json) -> Result<Vec<WorkflowVersion>, String> {
    arr_field(obj, "versions")?
        .iter()
        .map(WorkflowVersion::from_json)
        .collect()
}

fn edit_list(obj: &Json, key: &str) -> Result<Vec<WorkflowEdit>, String> {
    arr_field(obj, key)?
        .iter()
        .map(WorkflowEdit::from_json)
        .collect()
}

// ---------------------------------------------------------------------------
// Engine meta (cost model + global history)
// ---------------------------------------------------------------------------

/// Engine-wide durable state loaded back on open.
pub(crate) struct EngineMeta {
    /// Recovered cost model.
    pub cost: CostModel,
    /// Recovered global version history.
    pub versions: Vec<WorkflowVersion>,
    /// Recovered optimizer memo (empty for pre-memo meta files).
    pub memo: MemoTable,
    /// Signatures pinned by the last offline Optimal pass.
    pub pinned: Vec<Signature>,
    /// Lifetime adaptive re-plan count.
    pub replans_triggered: u64,
    /// Unix timestamp of the last offline pass (0 = never ran).
    pub last_offline_unix: u64,
}

/// Serializes and atomically replaces the engine meta file.
pub(crate) fn save_engine_meta(
    path: &Path,
    cost: &CostModel,
    versions: &VersionStore,
    memo: &MemoTable,
    pinned: &[Signature],
    replans_triggered: u64,
    last_offline_unix: u64,
) -> Result<(), String> {
    let mut pinned: Vec<Signature> = pinned.to_vec();
    pinned.sort_unstable_by_key(|s| s.0);
    let doc = Json::obj([
        ("v", Json::Num(FORMAT_V)),
        ("cost", cost.to_json()),
        (
            "versions",
            json_arr(versions.all(), WorkflowVersion::to_json),
        ),
        ("memo", memo.to_json()),
        ("pinned", sig_arr(&pinned)),
        ("replans_triggered", Json::Num(replans_triggered as f64)),
        ("last_offline_unix", Json::Num(last_offline_unix as f64)),
    ]);
    write_atomic(path, &doc.to_string()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Loads the engine meta file. `Ok(None)` when the file does not exist
/// (fresh directory); `Err` when it exists but cannot be parsed — the
/// caller warns and starts fresh (torn/corrupt policy: never refuse to
/// open).
pub(crate) fn load_engine_meta(path: &Path) -> Result<Option<EngineMeta>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    // Optimizer fields default when absent: meta files written before the
    // memo existed must keep loading (forward rolls never refuse).
    let memo = match doc.get("memo") {
        Some(json) => MemoTable::from_json(json)?,
        None => MemoTable::new(),
    };
    let pinned = match doc.get("pinned") {
        Some(_) => sig_list(&doc, "pinned")?,
        None => Vec::new(),
    };
    let count = |key| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(Some(EngineMeta {
        cost: CostModel::from_json(field(&doc, "cost")?)?,
        versions: version_list(&doc)?,
        memo,
        pinned,
        replans_triggered: count("replans_triggered"),
        last_offline_unix: count("last_offline_unix"),
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

/// Serializes and atomically replaces one session record.
pub(crate) fn save_session_record(path: &Path, record: &SessionRecord) -> Result<(), String> {
    let doc = Json::obj([
        ("v", Json::Num(FORMAT_V)),
        ("name", Json::str(&record.name)),
        (
            "template",
            record.template.as_deref().map_or(Json::Null, Json::str),
        ),
        ("workflow_replaced", Json::Bool(record.workflow_replaced)),
        ("lineage", record.lineage.to_json()),
        (
            "applied_edits",
            json_arr(&record.applied_edits, WorkflowEdit::to_json),
        ),
        (
            "pending_edits",
            json_arr(&record.pending_edits, WorkflowEdit::to_json),
        ),
        (
            "versions",
            json_arr(&record.versions, WorkflowVersion::to_json),
        ),
    ]);
    write_atomic(path, &doc.to_string()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Parses one session record file.
pub(crate) fn load_session_record(path: &Path) -> Result<SessionRecord, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    Ok(SessionRecord {
        name: str_field(&doc, "name")?,
        template: opt_str_field(&doc, "template")?,
        workflow_replaced: bool_field(&doc, "workflow_replaced")?,
        lineage: Lineage::from_json(field(&doc, "lineage")?)?,
        applied_edits: edit_list(&doc, "applied_edits")?,
        pending_edits: edit_list(&doc, "pending_edits")?,
        versions: version_list(&doc)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::Observation;
    use crate::ops::Stage;
    use crate::store::sweep_tmp;
    use crate::version::{DagSnapshot, NodeSnapshot};
    use std::sync::Arc;

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
        let back = edit_list(&json, "edits").unwrap();
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
        save_session_record(&path, &record).unwrap();
        let back = load_session_record(&path).unwrap();
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
        let versions = VersionStore::from_versions(vec![sample_version(0, None)]);
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
        let pinned = [Signature(7), Signature(3)];
        save_engine_meta(&path, &cost, &versions, &memo, &pinned, 5, 1234).unwrap();
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
        let versions = VersionStore::from_versions(vec![version.clone()]);
        save_engine_meta(
            &path,
            &CostModel::new(),
            &versions,
            &MemoTable::new(),
            &[],
            0,
            0,
        )
        .unwrap();
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
        save_session_record(&path, &record).unwrap();
        check(&load_session_record(&path).unwrap().versions);
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
        let record = load_session_record(&path).unwrap();
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
        save_session_record(&path, &record).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(r#"{"v":2,"#) && text.contains(r#""dag":"#));
        assert_eq!(
            encoded(&load_session_record(&path).unwrap().versions),
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
