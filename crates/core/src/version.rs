//! Workflow versioning: history, metric trends, and version diffs.
//!
//! Backs the demo's Versions and Metrics tabs (§3.1): every executed
//! iteration is recorded as a version with a DAG snapshot, its metrics and
//! runtime, a git-log-style browser, "best version" shortcuts, and
//! git-like diffs between any two versions.

use crate::ops::Stage;
use crate::persist::{arr_field, f64_field, field, opt_str_field, str_arr, str_field, string_list};
use crate::report::IterationReport;
use crate::workflow::Workflow;
use helix_json::Json;
use std::sync::Arc;

/// An immutable snapshot of one node's definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// Node name.
    pub name: String,
    /// Operator tag (`train`, `csv_scan`, …).
    pub tag: String,
    /// Canonical parameter string.
    pub params: String,
    /// Parent node names, in wiring order.
    pub parents: Vec<String>,
    /// Workflow stage.
    pub stage: Stage,
}

/// An immutable snapshot of a whole workflow DAG.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DagSnapshot {
    /// Node snapshots in id order.
    pub nodes: Vec<NodeSnapshot>,
    /// Output node names.
    pub outputs: Vec<String>,
}

impl DagSnapshot {
    /// Captures a workflow.
    pub fn capture(workflow: &Workflow) -> DagSnapshot {
        let nodes = workflow
            .nodes()
            .iter()
            .map(|node| NodeSnapshot {
                name: node.name.clone(),
                tag: node.kind.tag().to_string(),
                params: node.kind.params_string(),
                parents: node
                    .parents
                    .iter()
                    .map(|p| workflow.node(*p).name.clone())
                    .collect(),
                stage: node.kind.stage(),
            })
            .collect();
        let outputs = workflow
            .outputs()
            .iter()
            .map(|o| workflow.node(*o).name.clone())
            .collect();
        DagSnapshot { nodes, outputs }
    }

    /// Finds a node snapshot by name.
    pub fn node(&self, name: &str) -> Option<&NodeSnapshot> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// The DAG as JSON: nodes with operator tag, canonical params,
    /// parents, and stage, plus the output set. The same shape is
    /// persisted and served (`docs/API.md`).
    pub fn to_json(&self) -> Json {
        let node = |node: &NodeSnapshot| {
            Json::obj([
                ("name", Json::str(&node.name)),
                ("tag", Json::str(&node.tag)),
                ("params", Json::str(&node.params)),
                ("parents", str_arr(&node.parents)),
                ("stage", Json::str(node.stage.to_string())),
            ])
        };
        Json::obj([
            ("nodes", Json::Arr(self.nodes.iter().map(node).collect())),
            ("outputs", str_arr(&self.outputs)),
        ])
    }

    /// Inverse of [`DagSnapshot::to_json`].
    ///
    /// # Errors
    /// Names the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<DagSnapshot, String> {
        let node = |json: &Json| {
            let stage = str_field(json, "stage")?;
            Ok(NodeSnapshot {
                name: str_field(json, "name")?,
                tag: str_field(json, "tag")?,
                params: str_field(json, "params")?,
                parents: string_list(json, "parents")?,
                stage: Stage::from_name(&stage).ok_or(format!("unknown stage `{stage}`"))?,
            })
        };
        Ok(DagSnapshot {
            nodes: arr_field(json, "nodes")?
                .iter()
                .map(node)
                .collect::<Result<_, String>>()?,
            outputs: string_list(json, "outputs")?,
        })
    }
}

/// Named values (harvested metrics, per-node cost estimates) as one
/// `{name: value}` object, in order. JSON has no NaN or infinity, so a
/// non-finite value is written as `null`.
pub fn metrics_to_json(metrics: &[(String, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| (name.clone(), Json::Num(*value)))
            .collect(),
    )
}

/// Inverse of [`metrics_to_json`]. `null` reads back as NaN, so one
/// diverged metric cannot make the whole document unreadable. Also
/// accepts the v1 `[[name, value], …]` pair list.
pub(crate) fn metrics_from_json(json: &Json) -> Result<Vec<(String, f64)>, String> {
    let value = |v: &Json| match v {
        Json::Null => Ok(f64::NAN),
        v => v.as_f64().ok_or("metric value is not a number"),
    };
    if let Some(pairs) = json.as_object() {
        return pairs
            .iter()
            .map(|(name, v)| Ok((name.clone(), value(v)?)))
            .collect();
    }
    json.as_array()
        .ok_or("metrics are neither an object nor a pair list")?
        .iter()
        .map(|pair| match pair.as_array() {
            Some([Json::Str(name), v]) => Ok((name.clone(), value(v)?)),
            _ => Err("metric entry is not a [name, value] pair".to_string()),
        })
        .collect()
}

/// One executed workflow version.
#[derive(Debug, Clone)]
pub struct WorkflowVersion {
    /// Sequential version id within this store (the engine's global
    /// history numbers versions across all sessions; a session's own
    /// store numbers its lineage from 0).
    pub id: usize,
    /// Name of the session that ran the iteration, when one did.
    pub session: Option<String>,
    /// The DAG as executed. Shared (`Arc`) because the same iteration is
    /// typically recorded twice — once in the engine's global history and
    /// once in the session's private store.
    pub snapshot: Arc<DagSnapshot>,
    /// Metrics harvested from Evaluate nodes.
    pub metrics: Vec<(String, f64)>,
    /// End-to-end runtime.
    pub total_secs: f64,
    /// One-line change summary vs the previous version.
    pub change_summary: String,
}

impl WorkflowVersion {
    /// The history list view: `id, session, change_summary, total_secs,
    /// metrics` — [`WorkflowVersion::to_json`] without its DAG, so a long
    /// history lists without encoding every snapshot.
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(self.id as f64)),
            (
                "session",
                self.session.as_deref().map_or(Json::Null, Json::str),
            ),
            ("change_summary", Json::str(&self.change_summary)),
            ("total_secs", Json::Num(self.total_secs)),
            ("metrics", metrics_to_json(&self.metrics)),
        ])
    }

    /// The whole record: [`WorkflowVersion::summary_json`] plus the DAG
    /// under `dag`. One shape for the durable tier and the wire's
    /// version-detail view.
    pub fn to_json(&self) -> Json {
        let mut json = self.summary_json();
        if let Json::Obj(pairs) = &mut json {
            pairs.push(("dag".to_string(), self.snapshot.to_json()));
        }
        json
    }

    /// Inverse of [`WorkflowVersion::to_json`]; also reads the v1 record
    /// (DAG under `snapshot`, metrics as `[[name, value], …]`).
    ///
    /// # Errors
    /// Names the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<WorkflowVersion, String> {
        let dag = json
            .get("dag")
            .or_else(|| json.get("snapshot"))
            .ok_or("missing field `dag`")?;
        Ok(WorkflowVersion {
            id: f64_field(json, "id")? as usize,
            session: opt_str_field(json, "session")?,
            snapshot: Arc::new(DagSnapshot::from_json(dag)?),
            metrics: metrics_from_json(field(json, "metrics")?)?,
            total_secs: f64_field(json, "total_secs")?,
            change_summary: str_field(json, "change_summary")?,
        })
    }
}

/// Differences between two versions' DAGs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionDiff {
    /// Node names only in the newer version.
    pub added: Vec<String>,
    /// Node names only in the older version.
    pub removed: Vec<String>,
    /// `(name, old, new)` for nodes whose params or wiring changed.
    pub changed: Vec<(String, String, String)>,
}

impl VersionDiff {
    /// Whether the two versions are structurally identical.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }
}

/// In-memory history of executed versions.
#[derive(Debug, Clone, Default)]
pub struct VersionStore {
    versions: Vec<WorkflowVersion>,
}

impl VersionStore {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an executed iteration (DAG snapshot, metrics, runtime,
    /// session, and change summary all come from the report); returns
    /// the new version id. Stores recording the same iteration (the
    /// engine's global history and a session's private one) share the
    /// report's snapshot allocation.
    pub fn record(&mut self, report: &IterationReport) -> usize {
        let id = self.versions.len();
        self.versions.push(WorkflowVersion {
            id,
            session: report.session.clone(),
            snapshot: Arc::clone(&report.snapshot),
            metrics: report.metrics.clone(),
            total_secs: report.total_secs,
            change_summary: report.change_summary.clone(),
        });
        id
    }

    /// Rebuilds a history from persisted versions (the durable tier's
    /// recovery path). Ids are re-sequenced to match their position so a
    /// partially recovered file still yields a self-consistent store.
    pub fn from_versions(versions: Vec<WorkflowVersion>) -> VersionStore {
        let versions = versions
            .into_iter()
            .enumerate()
            .map(|(id, mut v)| {
                v.id = id;
                v
            })
            .collect();
        VersionStore { versions }
    }

    /// Number of versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether no version was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// A version by id.
    pub fn get(&self, id: usize) -> Option<&WorkflowVersion> {
        self.versions.get(id)
    }

    /// The most recent version.
    pub fn latest(&self) -> Option<&WorkflowVersion> {
        self.versions.last()
    }

    /// All versions, oldest first.
    pub fn all(&self) -> &[WorkflowVersion] {
        &self.versions
    }

    /// The version with the highest value of `metric` (the demo's "best
    /// version" shortcut). A NaN value — a diverged run — is never best.
    pub fn best_by_metric(&self, metric: &str) -> Option<&WorkflowVersion> {
        self.versions
            .iter()
            .filter_map(|v| {
                let (_, value) = v.metrics.iter().find(|(m, _)| m == metric)?;
                (!value.is_nan()).then_some((v, *value))
            })
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(v, _)| v)
    }

    /// Metric trend across iterations: `(version id, value)` pairs.
    pub fn metric_trend(&self, metric: &str) -> Vec<(usize, f64)> {
        self.versions
            .iter()
            .filter_map(|v| {
                v.metrics
                    .iter()
                    .find(|(m, _)| m == metric)
                    .map(|(_, value)| (v.id, *value))
            })
            .collect()
    }

    /// Structural diff between two versions.
    pub fn diff(&self, old_id: usize, new_id: usize) -> Option<VersionDiff> {
        let old = self.get(old_id)?;
        let new = self.get(new_id)?;
        Some(diff_snapshots(&old.snapshot, &new.snapshot))
    }
}

/// Computes the git-like diff between two DAG snapshots.
pub fn diff_snapshots(old: &DagSnapshot, new: &DagSnapshot) -> VersionDiff {
    let mut diff = VersionDiff::default();
    for node in &new.nodes {
        match old.node(&node.name) {
            None => diff.added.push(node.name.clone()),
            Some(prev) => {
                if prev.params != node.params
                    || prev.parents != node.parents
                    || prev.tag != node.tag
                {
                    let old_desc = format!(
                        "{}({}) <- {}",
                        prev.tag,
                        prev.params,
                        prev.parents.join(",")
                    );
                    let new_desc = format!(
                        "{}({}) <- {}",
                        node.tag,
                        node.params,
                        node.parents.join(",")
                    );
                    diff.changed.push((node.name.clone(), old_desc, new_desc));
                }
            }
        }
    }
    for node in &old.nodes {
        if new.node(&node.name).is_none() {
            diff.removed.push(node.name.clone());
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{ExtractorKind, LearnerSpec};
    use crate::recompute::NodeState;
    use crate::signature::ChangeKind;

    fn workflow(reg: f64) -> Workflow {
        let mut w = Workflow::new("t");
        let src = w.csv_source("data", "train.csv", None::<&str>).unwrap();
        let rows = w
            .csv_scanner("rows", &src, &[("x", helix_dataflow::DataType::Int)])
            .unwrap();
        let x = w
            .field_extractor("x", &rows, "x", ExtractorKind::Numeric)
            .unwrap();
        let y = w
            .field_extractor("y", &rows, "x", ExtractorKind::Numeric)
            .unwrap();
        let income = w.assemble("income", &rows, &[&x], &y).unwrap();
        let preds = w
            .learner(
                "preds",
                &income,
                LearnerSpec {
                    reg_param: reg,
                    ..Default::default()
                },
            )
            .unwrap();
        w.output(&preds);
        w
    }

    fn fake_report(
        w: &Workflow,
        iteration: usize,
        acc: f64,
        secs: f64,
        summary: &str,
    ) -> IterationReport {
        IterationReport {
            iteration,
            workflow_name: "t".into(),
            snapshot: Arc::new(DagSnapshot::capture(w)),
            session: None,
            change_summary: summary.into(),
            total_secs: secs,
            optimizer_secs: 0.0,
            materialize_secs: 0.0,
            nodes: vec![crate::report::NodeReport {
                name: "preds".into(),
                stage: Stage::MachineLearning,
                state: NodeState::Compute,
                change: ChangeKind::Unchanged,
                duration_secs: secs,
                output_bytes: 0,
                materialized: false,
                chunks_loaded: 0,
                decision_source: crate::memo::DecisionSource::Estimate,
            }],
            metrics: vec![("accuracy".into(), acc)],
        }
    }

    #[test]
    fn record_and_lookup() {
        let mut vs = VersionStore::new();
        let w = workflow(0.1);
        let id0 = vs.record(&fake_report(&w, 0, 0.8, 1.0, "initial"));
        let id1 = vs.record(&fake_report(&w, 1, 0.85, 0.5, "tweak"));
        assert_eq!((id0, id1), (0, 1));
        assert_eq!(vs.len(), 2);
        assert_eq!(vs.latest().unwrap().id, 1);
        assert_eq!(vs.get(0).unwrap().change_summary, "initial");
    }

    #[test]
    fn best_by_metric_and_trend() {
        let mut vs = VersionStore::new();
        let w = workflow(0.1);
        vs.record(&fake_report(&w, 0, 0.80, 1.0, "a"));
        vs.record(&fake_report(&w, 1, 0.91, 1.0, "b"));
        vs.record(&fake_report(&w, 2, 0.86, 1.0, "c"));
        assert_eq!(vs.best_by_metric("accuracy").unwrap().id, 1);
        assert!(vs.best_by_metric("f1").is_none());
        assert_eq!(
            vs.metric_trend("accuracy"),
            vec![(0, 0.80), (1, 0.91), (2, 0.86)]
        );
    }

    #[test]
    fn best_by_metric_skips_nan() {
        let mut vs = VersionStore::new();
        let w = workflow(0.1);
        vs.record(&fake_report(&w, 0, 0.9, 1.0, "a"));
        vs.record(&fake_report(&w, 1, f64::NAN, 1.0, "b"));
        vs.record(&fake_report(&w, 2, 0.5, 1.0, "c"));
        assert_eq!(vs.best_by_metric("accuracy").unwrap().id, 0);
    }

    #[test]
    fn diff_detects_param_changes() {
        let mut vs = VersionStore::new();
        vs.record(&fake_report(&workflow(0.1), 0, 0.8, 1.0, "a"));
        vs.record(&fake_report(&workflow(0.9), 1, 0.8, 1.0, "b"));
        let diff = vs.diff(0, 1).unwrap();
        assert!(diff.added.is_empty());
        assert!(diff.removed.is_empty());
        // Both the Train node and its (unchanged-params) Apply node: only
        // the Train node differs.
        assert_eq!(diff.changed.len(), 1);
        assert_eq!(diff.changed[0].0, "preds__model");
        assert!(diff.changed[0].2.contains("reg=0.9"));
    }

    #[test]
    fn diff_detects_structure_changes() {
        let mut vs = VersionStore::new();
        let w1 = workflow(0.1);
        let mut w2 = workflow(0.1);
        let rows = w2.node_ref("rows").unwrap();
        let x = w2.node_ref("x").unwrap();
        let y = w2.node_ref("y").unwrap();
        let ms = w2
            .field_extractor("ms", &rows, "x", ExtractorKind::Categorical)
            .unwrap();
        w2.rewire("income", &[&rows, &x, &ms, &y]).unwrap();
        vs.record(&fake_report(&w1, 0, 0.8, 1.0, "a"));
        vs.record(&fake_report(&w2, 1, 0.8, 1.0, "b"));
        let diff = vs.diff(0, 1).unwrap();
        assert_eq!(diff.added, vec!["ms".to_string()]);
        assert_eq!(diff.changed.len(), 1, "income rewired");
        let back = vs.diff(1, 0).unwrap();
        assert_eq!(back.removed, vec!["ms".to_string()]);
    }

    #[test]
    fn identical_versions_diff_empty() {
        let mut vs = VersionStore::new();
        vs.record(&fake_report(&workflow(0.1), 0, 0.8, 1.0, "a"));
        vs.record(&fake_report(&workflow(0.1), 1, 0.8, 1.0, "b"));
        assert!(vs.diff(0, 1).unwrap().is_empty());
        assert!(vs.diff(0, 9).is_none());
    }

    #[test]
    fn snapshot_captures_outputs_and_stages() {
        let w = workflow(0.1);
        let snap = DagSnapshot::capture(&w);
        assert_eq!(snap.outputs, vec!["preds".to_string()]);
        assert_eq!(
            snap.node("preds__model").unwrap().stage,
            Stage::MachineLearning
        );
        assert_eq!(snap.node("rows").unwrap().stage, Stage::DataPreProcessing);
    }

    #[test]
    fn recorded_version_keeps_metrics_not_report() {
        let mut vs = VersionStore::new();
        vs.record(&fake_report(&workflow(0.1), 0, 0.77, 2.5, "a"));
        let v = vs.get(0).unwrap();
        assert_eq!(v.metrics, vec![("accuracy".to_string(), 0.77)]);
        assert_eq!(v.total_secs, 2.5);
    }
}
