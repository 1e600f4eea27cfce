//! Multi-tenant, session-oriented iteration: the serving-shaped API over
//! the shared-`&self` [`Engine`].
//!
//! Helix's premise is a human *iterating*: edit one operator, rerun,
//! reuse everything untouched. A [`Session`] is one such human's loop —
//! it owns a live [`Workflow`], typed edit handles
//! ([`Session::set_learner_param`], [`Session::replace_operator`],
//! [`Session::rewire`], [`Session::add_output`]) that record a diff
//! between iterations, and a per-session version [`Lineage`] so the
//! change tracker only ever compares the session against *its own*
//! previous iteration. [`Session::iterate`] compiles, executes, and
//! returns the existing [`IterationReport`].
//!
//! A [`SessionManager`] multiplexes many named sessions over one
//! `Arc<Engine>`: every session shares the engine's sharded intermediate
//! store and cost model, so analysts transparently reuse each other's
//! materialized intermediates (reuse falls out of signature identity),
//! while the store's atomic budget ledger keeps concurrent runs from
//! jointly overshooting the storage budget.
//!
//! # Example
//!
//! ```
//! use helix_core::session::{LearnerParam, SessionManager};
//! use helix_core::ops::{EvalSpec, ExtractorKind, LearnerSpec};
//! use helix_core::{Engine, EngineConfig, Workflow};
//! use helix_dataflow::DataType;
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("helix-session-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! std::fs::write(dir.join("train.csv"), "red,1\nblue,0\n".repeat(60)).unwrap();
//! std::fs::write(dir.join("test.csv"), "red,1\nblue,0\n".repeat(20)).unwrap();
//!
//! let mut w = Workflow::new("doc");
//! let data = w
//!     .csv_source("data", dir.join("train.csv"), Some(dir.join("test.csv")))
//!     .unwrap();
//! let rows = w
//!     .csv_scanner("rows", &data, &[("color", DataType::Str), ("y", DataType::Int)])
//!     .unwrap();
//! let color = w
//!     .field_extractor("color_f", &rows, "color", ExtractorKind::Categorical)
//!     .unwrap();
//! let label = w
//!     .field_extractor("label", &rows, "y", ExtractorKind::Numeric)
//!     .unwrap();
//! let examples = w.assemble("examples", &rows, &[&color], &label).unwrap();
//! let preds = w.learner("preds", &examples, LearnerSpec::default()).unwrap();
//! let checked = w.evaluate("checked", &preds, EvalSpec::default()).unwrap();
//! w.output(&checked);
//!
//! let engine = Arc::new(Engine::new(EngineConfig::helix(dir.join("store"))).unwrap());
//! let manager = SessionManager::new(Arc::clone(&engine));
//! let alice = manager.create("alice", w).unwrap();
//!
//! let first = alice.iterate().unwrap();
//! assert_eq!(first.iteration, 0);
//!
//! // The human-in-the-loop edit: one typed knob turn, then rerun.
//! alice.set_learner_param("preds", LearnerParam::RegParam(0.01)).unwrap();
//! let second = alice.iterate().unwrap();
//! assert_eq!(second.iteration, 1);
//! assert!(second.metric("accuracy").is_some());
//! assert!(second.change_summary.contains("reg_param"));
//! ```

use crate::engine::{Engine, Lineage, RunOptions};
use crate::ops::{LearnerSpec, ModelType, OperatorKind};
use crate::persist::{str_arr, str_field, string_list, Doc, Journal, SessionRecord};
use crate::report::IterationReport;
use crate::signature::Signature;
use crate::version::VersionStore;
use crate::workflow::{NodeRef, Workflow};
use crate::{HelixError, Result};
use helix_json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One typed knob of a learner — the parameters a user turns between
/// iterations ("change the regularization parameter", §1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LearnerParam {
    /// L2 regularization strength.
    RegParam(f64),
    /// SGD epochs.
    Epochs(usize),
    /// SGD learning rate.
    LearningRate(f64),
    /// Training seed.
    Seed(u64),
    /// Model family.
    Model(ModelType),
}

impl LearnerParam {
    fn apply(self, spec: &mut LearnerSpec) {
        match self {
            LearnerParam::RegParam(v) => spec.reg_param = v,
            LearnerParam::Epochs(v) => spec.epochs = v,
            LearnerParam::LearningRate(v) => spec.learning_rate = v,
            LearnerParam::Seed(v) => spec.seed = v,
            LearnerParam::Model(v) => spec.model_type = v,
        }
    }

    /// Inverse of [`fmt::Display`]: parses a rendered `key=value` knob
    /// back into the typed enum. This is how persisted session edits
    /// replay on recovery, so every variant's rendering must stay
    /// parseable.
    pub fn parse(text: &str) -> Option<LearnerParam> {
        let (key, value) = text.split_once('=')?;
        match key {
            "reg_param" => value.parse().ok().map(LearnerParam::RegParam),
            "epochs" => value.parse().ok().map(LearnerParam::Epochs),
            "learning_rate" => value.parse().ok().map(LearnerParam::LearningRate),
            "seed" => value.parse().ok().map(LearnerParam::Seed),
            "model" => ModelType::from_name(value).map(LearnerParam::Model),
            _ => None,
        }
    }
}

impl fmt::Display for LearnerParam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnerParam::RegParam(v) => write!(f, "reg_param={v}"),
            LearnerParam::Epochs(v) => write!(f, "epochs={v}"),
            LearnerParam::LearningRate(v) => write!(f, "learning_rate={v}"),
            LearnerParam::Seed(v) => write!(f, "seed={v}"),
            LearnerParam::Model(v) => write!(f, "model={v}"),
        }
    }
}

/// One recorded edit in a session's between-iterations diff. The pending
/// log becomes the change summary of the next [`Session::iterate`], so
/// the version history says what the user *did*.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowEdit {
    /// A typed learner knob turn.
    SetLearnerParam {
        /// The learner node the user addressed.
        learner: String,
        /// The knob, rendered (`reg_param=0.01`).
        param: String,
    },
    /// An operator swapped in place, wiring kept.
    ReplaceOperator {
        /// The edited node.
        node: String,
        /// Tag of the new operator.
        tag: String,
    },
    /// A node's parents rewired.
    Rewire {
        /// The rewired node.
        node: String,
        /// New parent names, in wiring order.
        parents: Vec<String>,
    },
    /// A node marked as a workflow output.
    AddOutput {
        /// The node now flagged as output.
        node: String,
    },
    /// A freeform structural edit applied through [`Session::edit`].
    Freeform {
        /// Caller-supplied description.
        description: String,
    },
    /// Rows appended to a CSV source's training split through
    /// [`Session::append_data`] — the active-learning "labels came back"
    /// edit. The rows themselves live in the CSV file (durably appended
    /// before the edit is recorded), so the record only describes them.
    AppendData {
        /// The CSV-source node that received the rows.
        source: String,
        /// How many rows were appended.
        rows: usize,
    },
}

impl WorkflowEdit {
    /// Whether this edit can be replayed from its record alone on
    /// recovery. Typed knob turns, rewires, and output additions carry
    /// all their inputs; operator replacements and freeform closures do
    /// not (the closure / the new operator's parameters are not
    /// serialized), so a session containing them recovers in degraded
    /// mode — lineage and history intact, workflow reset to its template.
    pub fn is_replayable(&self) -> bool {
        matches!(
            self,
            WorkflowEdit::SetLearnerParam { .. }
                | WorkflowEdit::Rewire { .. }
                | WorkflowEdit::AddOutput { .. }
                | WorkflowEdit::AppendData { .. }
        )
    }

    /// The persisted edit: a `kind` tag plus the variant's fields.
    pub(crate) fn to_json(&self) -> Json {
        match self {
            WorkflowEdit::SetLearnerParam { learner, param } => Json::obj([
                ("kind", Json::str("set_learner_param")),
                ("learner", Json::str(learner)),
                ("param", Json::str(param)),
            ]),
            WorkflowEdit::ReplaceOperator { node, tag } => Json::obj([
                ("kind", Json::str("replace_operator")),
                ("node", Json::str(node)),
                ("tag", Json::str(tag)),
            ]),
            WorkflowEdit::Rewire { node, parents } => Json::obj([
                ("kind", Json::str("rewire")),
                ("node", Json::str(node)),
                ("parents", str_arr(parents)),
            ]),
            WorkflowEdit::AddOutput { node } => {
                Json::obj([("kind", Json::str("add_output")), ("node", Json::str(node))])
            }
            WorkflowEdit::Freeform { description } => Json::obj([
                ("kind", Json::str("freeform")),
                ("description", Json::str(description)),
            ]),
            WorkflowEdit::AppendData { source, rows } => Json::obj([
                ("kind", Json::str("append_data")),
                ("source", Json::str(source)),
                ("rows", Json::Num(*rows as f64)),
            ]),
        }
    }

    /// Inverse of [`WorkflowEdit::to_json`].
    pub(crate) fn from_json(json: &Json) -> std::result::Result<WorkflowEdit, String> {
        Ok(match str_field(json, "kind")?.as_str() {
            "set_learner_param" => WorkflowEdit::SetLearnerParam {
                learner: str_field(json, "learner")?,
                param: str_field(json, "param")?,
            },
            "replace_operator" => WorkflowEdit::ReplaceOperator {
                node: str_field(json, "node")?,
                tag: str_field(json, "tag")?,
            },
            "rewire" => WorkflowEdit::Rewire {
                node: str_field(json, "node")?,
                parents: string_list(json, "parents")?,
            },
            "add_output" => WorkflowEdit::AddOutput {
                node: str_field(json, "node")?,
            },
            "freeform" => WorkflowEdit::Freeform {
                description: str_field(json, "description")?,
            },
            "append_data" => WorkflowEdit::AppendData {
                source: str_field(json, "source")?,
                rows: json
                    .get("rows")
                    .and_then(Json::as_u64)
                    .ok_or("append_data edit missing `rows`")? as usize,
            },
            other => return Err(format!("unknown edit kind `{other}`")),
        })
    }
}

impl fmt::Display for WorkflowEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowEdit::SetLearnerParam { learner, param } => {
                write!(f, "set {learner} {param}")
            }
            WorkflowEdit::ReplaceOperator { node, tag } => {
                write!(f, "replace {node} with {tag}")
            }
            WorkflowEdit::Rewire { node, parents } => {
                write!(f, "rewire {node} <- {}", parents.join(","))
            }
            WorkflowEdit::AddOutput { node } => write!(f, "output {node}"),
            WorkflowEdit::Freeform { description } => f.write_str(description),
            WorkflowEdit::AppendData { source, rows } => {
                write!(f, "append {rows} rows to {source}")
            }
        }
    }
}

/// One prediction ranked by distance from the decision boundary — what
/// [`Session::uncertain_examples`] hands an active-learning oracle to
/// label next.
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainExample {
    /// Row index within the predictions output (stable for one
    /// iteration; re-rank after every retrain).
    pub index: usize,
    /// The label the pipeline currently carries for this row.
    pub label: f64,
    /// Raw model score (probability-like, 0..1).
    pub score: f64,
    /// The thresholded decision.
    pub pred: f64,
    /// `|score - 0.5|` — smaller is more uncertain; the sort key.
    pub margin: f64,
}

/// One analyst's iterative loop over a shared engine: a live workflow,
/// typed edit handles, and a private version lineage. See the module
/// docs for the full story and a runnable example.
#[derive(Debug)]
pub struct Session {
    engine: Arc<Engine>,
    name: String,
    workflow: Workflow,
    lineage: Lineage,
    versions: VersionStore,
    edits: Vec<WorkflowEdit>,
    workflow_replaced: bool,
    /// Name of the registry template this session's workflow was built
    /// from — what recovery rebuilds the base workflow with.
    template: Option<String>,
    /// Edits already folded into executed iterations, oldest first (the
    /// full replayable history from the template to the live workflow).
    applied_edits: Vec<WorkflowEdit>,
    /// Set once the live workflow can no longer be rebuilt from
    /// `template` + recorded edits (wholesale [`Session::replace_workflow`]).
    replay_broken: bool,
    /// The durable session record, snapshot plus log (opened by
    /// [`SessionManager`] under a durable engine; standalone sessions
    /// stay in-memory).
    journal: Option<Journal>,
}

impl Session {
    /// Creates a session named `name` over `engine`, owning `workflow`
    /// as its live (editable) version.
    pub fn new(engine: Arc<Engine>, name: impl Into<String>, workflow: Workflow) -> Session {
        Session {
            engine,
            name: name.into(),
            workflow,
            lineage: Lineage::new(),
            versions: VersionStore::new(),
            edits: Vec::new(),
            workflow_replaced: false,
            template: None,
            applied_edits: Vec::new(),
            replay_broken: false,
            journal: None,
        }
    }

    /// The session name (its key in a [`SessionManager`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared engine this session runs on.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The live workflow as currently edited.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// This session's own version history (the engine's
    /// [`Engine::versions`] aggregates all sessions).
    pub fn versions(&self) -> &VersionStore {
        &self.versions
    }

    /// How many iterations this session has executed.
    pub fn iteration(&self) -> usize {
        self.lineage.iteration()
    }

    /// Store signatures this session's lineage still references — the
    /// entries a retention sweep must keep live so the session's next
    /// iteration can reuse its previous results.
    pub fn lineage_signatures(&self) -> Vec<Signature> {
        self.lineage.signatures()
    }

    /// Edits recorded since the last [`Session::iterate`], oldest first.
    pub fn pending_edits(&self) -> &[WorkflowEdit] {
        &self.edits
    }

    /// Edits already folded into executed iterations, oldest first.
    pub fn applied_edits(&self) -> &[WorkflowEdit] {
        &self.applied_edits
    }

    /// The registry template this session was created from, when known.
    pub fn template(&self) -> Option<&str> {
        self.template.as_deref()
    }

    /// Records which registry template built this session's base workflow
    /// (recovery rebuilds from it — see `docs/ARCHITECTURE.md`,
    /// "Durability").
    pub fn set_template(&mut self, template: impl Into<String>) {
        self.template = Some(template.into());
        self.persist();
    }

    // -- durability ----------------------------------------------------------

    /// Opens this session's durable record for appending after log
    /// sequence number `seq`.
    fn open_journal(&mut self, seq: u64) {
        let path = crate::persist::session_path(&self.engine.config().store_dir, &self.name);
        match Journal::open(&path, seq) {
            Ok(journal) => self.journal = Some(journal),
            Err(err) => eprintln!(
                "helix: warning: cannot open the record of session `{}`: {err}",
                self.name
            ),
        }
    }

    /// Writes this session's whole record as its snapshot and empties its
    /// log, if it has a durable record. Best-effort by design: a failed
    /// write warns and leaves the previous snapshot and log in place; it
    /// never fails the edit or iteration that triggered it.
    pub(crate) fn persist(&mut self) {
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        let record = SessionRecord {
            name: self.name.clone(),
            template: self.template.clone(),
            workflow_replaced: self.replay_broken,
            lineage: self.lineage.clone(),
            applied_edits: self.applied_edits.clone(),
            pending_edits: self.edits.clone(),
            versions: self.versions.all().to_vec(),
        };
        if let Err(err) = journal.compact(record.to_json()) {
            eprintln!(
                "helix: warning: failed to persist session `{}`: {err}",
                self.name
            );
        }
    }

    /// Appends `record` to this session's log, if it has one, and
    /// compacts when the log has outgrown its snapshot (or the append
    /// failed, so the snapshot carries the change instead).
    fn log(&mut self, record: impl FnOnce(&Session) -> Json) {
        if self.journal.is_none() {
            return;
        }
        let record = record(self);
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        let compact = journal.append(record).unwrap_or_else(|err| {
            eprintln!(
                "helix: warning: failed to log session `{}`: {err}",
                self.name
            );
            true
        });
        if compact {
            self.persist();
        }
    }

    /// Logs the edit just recorded as pending.
    fn log_edit(&mut self) {
        self.log(|s| {
            let edit = s.edits.last().map_or(Json::Null, WorkflowEdit::to_json);
            Json::obj([("op", Json::str("edit")), ("edit", edit)])
        });
    }

    /// Replays one persisted edit against the live workflow without
    /// recording it again. Returns false when the edit is not replayable
    /// (or no longer applies), which flips recovery into degraded mode.
    fn replay_edit(&mut self, edit: &WorkflowEdit) -> bool {
        let before = self.edits.len();
        let ok = match edit {
            WorkflowEdit::SetLearnerParam { learner, param } => LearnerParam::parse(param)
                .map(|p| self.set_learner_param(learner, p).is_ok())
                .unwrap_or(false),
            WorkflowEdit::Rewire { node, parents } => {
                let refs: Vec<&str> = parents.iter().map(String::as_str).collect();
                self.rewire(node, &refs).is_ok()
            }
            WorkflowEdit::AddOutput { node } => self.add_output(node).is_ok(),
            // The appended rows are already durably in the CSV file (the
            // append fsyncs before the edit is recorded), and data-content
            // signing rediscovers the delta from the file itself — so the
            // replay is a successful no-op.
            WorkflowEdit::AppendData { .. } => true,
            WorkflowEdit::ReplaceOperator { .. } | WorkflowEdit::Freeform { .. } => false,
        };
        // The typed handles above record the replayed edit as *pending*;
        // drop that duplicate — the caller decides which list it belongs
        // to from the persisted record.
        self.edits.truncate(before);
        ok
    }

    // -- typed edit handles --------------------------------------------------

    /// Turns one knob of a learner: resolves `learner` to its training
    /// node (accepting either a [`Workflow::learner`] predictions name or
    /// a direct [`Workflow::train`] node), updates the spec field, and
    /// records the edit.
    pub fn set_learner_param(&mut self, learner: &str, param: LearnerParam) -> Result<()> {
        let id = self.workflow.train_node(learner)?;
        let node_name = self.workflow.node(id).name.clone();
        let OperatorKind::Train(spec) = &self.workflow.node(id).kind else {
            unreachable!("train_node returns Train nodes only");
        };
        let mut spec = spec.clone();
        param.apply(&mut spec);
        self.workflow
            .replace_operator(&node_name, OperatorKind::Train(spec))?;
        self.edits.push(WorkflowEdit::SetLearnerParam {
            learner: learner.to_string(),
            param: param.to_string(),
        });
        self.log_edit();
        Ok(())
    }

    /// Replaces the operator at a named node, keeping its wiring (the
    /// paper's "swap the eval metric" class of edits).
    pub fn replace_operator(&mut self, node: &str, kind: OperatorKind) -> Result<()> {
        let tag = kind.tag().to_string();
        self.workflow.replace_operator(node, kind)?;
        self.edits.push(WorkflowEdit::ReplaceOperator {
            node: node.to_string(),
            tag,
        });
        self.log_edit();
        Ok(())
    }

    /// Rewires the parents of a named node, addressing parents by name
    /// (the paper's `has_extractors` edit).
    pub fn rewire(&mut self, node: &str, parents: &[&str]) -> Result<()> {
        let refs: Vec<NodeRef> = parents
            .iter()
            .map(|p| self.workflow.node_ref(p))
            .collect::<Result<_>>()?;
        let borrowed: Vec<&NodeRef> = refs.iter().collect();
        self.workflow.rewire(node, &borrowed)?;
        self.edits.push(WorkflowEdit::Rewire {
            node: node.to_string(),
            parents: parents.iter().map(|p| p.to_string()).collect(),
        });
        self.log_edit();
        Ok(())
    }

    /// Marks a named node as a workflow output.
    pub fn add_output(&mut self, node: &str) -> Result<()> {
        let r = self.workflow.node_ref(node)?;
        self.workflow.output(&r);
        self.edits.push(WorkflowEdit::AddOutput {
            node: node.to_string(),
        });
        self.log_edit();
        Ok(())
    }

    /// Appends labeled rows to a CSV source's training split — the data
    /// half of the active-learning loop ("fetch uncertain examples, label
    /// them, feed the labels back"). The rows are durably appended to the
    /// CSV file itself (staged through a fsynced sidecar so a crash
    /// mid-append can never tear the file; see [`crate::data`]) before the
    /// edit is recorded, so an acknowledged append survives any crash.
    /// The next [`Session::iterate`] sees the delta through data-content
    /// signing: only partitions downstream of the appended chunk
    /// recompute, unchanged partitions serve from the store.
    ///
    /// # Errors
    /// [`HelixError::Workflow`] if `source` is not a CSV-source node or a
    /// row is blank / contains a newline.
    pub fn append_data(&mut self, source: &str, rows: &[String]) -> Result<usize> {
        let r = self.workflow.node_ref(source)?;
        let OperatorKind::CsvSource { train_path, .. } = &self.workflow.node(r.0).kind else {
            return Err(HelixError::Workflow(format!(
                "node `{source}` is not a csv_source; data can only be appended to sources"
            )));
        };
        let path = train_path.clone();
        let appended = crate::data::append_lines(&path, rows)?;
        self.edits.push(WorkflowEdit::AppendData {
            source: source.to_string(),
            rows: appended,
        });
        self.log_edit();
        Ok(appended)
    }

    /// The `k` most-uncertain predictions from this session's last
    /// iteration — test-split rows whose score sits closest to the 0.5
    /// decision boundary, the examples an active-learning oracle should
    /// label next. Resolves the workflow's Apply (predictions) node
    /// through the lineage's previous-iteration signatures and fetches
    /// its materialized output from the store.
    ///
    /// # Errors
    /// [`HelixError::Workflow`] if the session has not iterated yet or
    /// the workflow has no Apply node; [`HelixError::Store`] if the
    /// predictions output is not materialized.
    pub fn uncertain_examples(&self, k: usize) -> Result<Vec<UncertainExample>> {
        let Some(prev) = self.lineage.previous_map() else {
            return Err(HelixError::Workflow(format!(
                "session `{}` has not iterated yet; nothing to rank",
                self.name
            )));
        };
        let apply = self
            .workflow
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, OperatorKind::Apply))
            .ok_or_else(|| {
                HelixError::Workflow(format!(
                    "session `{}` has no predictions (Apply) node",
                    self.name
                ))
            })?;
        let &(_, sig) = prev.get(&apply.name).ok_or_else(|| {
            HelixError::Workflow(format!(
                "predictions node `{}` was not part of the last iteration",
                apply.name
            ))
        })?;
        let output = self.engine.fetch(sig)?;
        let data = output.as_data()?;
        let split_idx = data.column_index(crate::SPLIT_COL)?;
        let label_idx = data.column_index("label")?;
        let score_idx = data.column_index("score")?;
        let pred_idx = data.column_index("pred")?;
        let mut ranked: Vec<UncertainExample> = data
            .rows()
            .iter()
            .enumerate()
            .filter(|(_, row)| row.get(split_idx).as_str() == Some(crate::SPLIT_TEST))
            .map(|(index, row)| {
                let score = row.get(score_idx).as_f64().unwrap_or(0.0);
                UncertainExample {
                    index,
                    label: row.get(label_idx).as_f64().unwrap_or(0.0),
                    score,
                    pred: row.get(pred_idx).as_f64().unwrap_or(0.0),
                    margin: (score - 0.5).abs(),
                }
            })
            .collect();
        ranked.sort_by(|a, b| {
            a.margin
                .partial_cmp(&b.margin)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index.cmp(&b.index))
        });
        ranked.truncate(k);
        Ok(ranked)
    }

    /// Applies an arbitrary structural edit to the live workflow (adding
    /// nodes, wiring new extractors) and records it under `description`.
    /// The edit is atomic: the closure runs against a scratch copy, so an
    /// error leaves the live workflow exactly as it was — no
    /// half-applied mutations and no edit record.
    pub fn edit<R>(
        &mut self,
        description: impl Into<String>,
        f: impl FnOnce(&mut Workflow) -> Result<R>,
    ) -> Result<R> {
        let mut scratch = self.workflow.clone();
        let value = f(&mut scratch)?;
        self.workflow = scratch;
        self.edits.push(WorkflowEdit::Freeform {
            description: description.into(),
        });
        self.log_edit();
        Ok(value)
    }

    /// Swaps in a freshly built workflow wholesale — the migration path
    /// for parameter-struct workloads that rebuild per iteration. Clears
    /// the typed edit log (it no longer describes the delta); the next
    /// iteration's summary is derived from the signature diff instead,
    /// even if typed edits are applied after the swap (the diff covers
    /// both, a partial edit log would not).
    pub fn replace_workflow(&mut self, workflow: Workflow) {
        self.workflow = workflow;
        self.edits.clear();
        self.workflow_replaced = true;
        // The live workflow no longer derives from template + edit log,
        // so the durable record switches to degraded mode (recovery
        // restores lineage and history but resets to the template).
        self.replay_broken = true;
        self.applied_edits.clear();
        self.persist();
    }

    /// [`Session::replace_workflow`] for a workflow freshly built from a
    /// named registry template (the server's `PUT .../workflow`).
    /// Because the new workflow *is* the template with no edits on top,
    /// the durable record stays exactly recoverable instead of degraded.
    pub fn replace_workflow_from_template(
        &mut self,
        workflow: Workflow,
        template: impl Into<String>,
    ) {
        self.workflow = workflow;
        self.edits.clear();
        self.workflow_replaced = true;
        self.applied_edits.clear();
        self.replay_broken = false;
        self.template = Some(template.into());
        self.persist();
    }

    // -- execution -----------------------------------------------------------

    /// Compiles the live workflow against this session's lineage without
    /// executing it (plan preview).
    pub fn compile_preview(&self) -> Result<crate::compiler::CompiledPlan> {
        self.engine.compile_in(&self.workflow, &self.lineage)
    }

    /// Runs one iteration of the live workflow: the recorded edit log
    /// becomes the version's change summary, the report lands in both the
    /// session's and the engine's history, and the lineage advances.
    /// Requires only `&self` on the engine, so any number of sessions
    /// iterate concurrently over one `Arc<Engine>`.
    pub fn iterate(&mut self) -> Result<IterationReport> {
        let summary = if self.workflow_replaced || self.edits.is_empty() {
            None
        } else {
            let parts: Vec<String> = self.edits.iter().map(|e| e.to_string()).collect();
            Some(parts.join("; "))
        };
        let options = RunOptions {
            session: Some(self.name.clone()),
            summary,
        };
        let base = self.journal.is_some().then(|| self.lineage.clone());
        let report = self
            .engine
            .run_in(&self.workflow, &mut self.lineage, options)?;
        self.versions.record(&report);
        self.applied_edits.append(&mut self.edits);
        self.workflow_replaced = false;
        self.log(|s| {
            let version = s.versions.all().last().map_or(Json::Null, |v| v.to_json());
            let lineage = s.lineage.delta_json(&base.unwrap_or_default());
            Json::obj([
                ("op", Json::str("iterate")),
                ("version", version),
                ("lineage", lineage),
            ])
        });
        Ok(report)
    }
}

use crate::lock;

/// A cloneable, thread-safe handle to one managed [`Session`]. All
/// methods take `&self` and serialize on the session's own lock —
/// distinct sessions never contend.
///
/// Every accessor also *touches* the handle's idle clock, so a session
/// being used — read or written — never looks idle to
/// [`SessionManager::evict_idle`].
#[derive(Debug, Clone)]
pub struct SessionHandle {
    name: String,
    inner: Arc<Mutex<Session>>,
    touched: Arc<Mutex<Instant>>,
}

impl SessionHandle {
    /// Wraps a standalone session in a shareable handle.
    pub fn from_session(session: Session) -> SessionHandle {
        SessionHandle {
            name: session.name.clone(),
            inner: Arc::new(Mutex::new(session)),
            touched: Arc::new(Mutex::new(Instant::now())),
        }
    }

    /// The session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resets the idle clock — called by every accessor; also available
    /// directly for traffic that observes a session without going
    /// through the handle's methods.
    pub fn touch(&self) {
        *lock(&self.touched) = Instant::now();
    }

    /// Time since this handle's session was last accessed through any
    /// accessor (or explicit [`SessionHandle::touch`]).
    pub fn idle_for(&self) -> Duration {
        lock(&self.touched).elapsed()
    }

    /// Runs `f` with exclusive access to the session (for inspection or
    /// several edits under one lock hold).
    pub fn with<R>(&self, f: impl FnOnce(&mut Session) -> R) -> R {
        self.touch();
        f(&mut lock(&self.inner))
    }

    /// See [`Session::iterate`].
    pub fn iterate(&self) -> Result<IterationReport> {
        self.touch();
        lock(&self.inner).iterate()
    }

    /// See [`Session::set_learner_param`].
    pub fn set_learner_param(&self, learner: &str, param: LearnerParam) -> Result<()> {
        self.touch();
        lock(&self.inner).set_learner_param(learner, param)
    }

    /// See [`Session::replace_operator`].
    pub fn replace_operator(&self, node: &str, kind: OperatorKind) -> Result<()> {
        self.touch();
        lock(&self.inner).replace_operator(node, kind)
    }

    /// See [`Session::rewire`].
    pub fn rewire(&self, node: &str, parents: &[&str]) -> Result<()> {
        self.touch();
        lock(&self.inner).rewire(node, parents)
    }

    /// See [`Session::add_output`].
    pub fn add_output(&self, node: &str) -> Result<()> {
        self.touch();
        lock(&self.inner).add_output(node)
    }

    /// See [`Session::append_data`].
    pub fn append_data(&self, source: &str, rows: &[String]) -> Result<usize> {
        self.touch();
        lock(&self.inner).append_data(source, rows)
    }

    /// See [`Session::uncertain_examples`].
    pub fn uncertain_examples(&self, k: usize) -> Result<Vec<UncertainExample>> {
        self.touch();
        lock(&self.inner).uncertain_examples(k)
    }

    /// See [`Session::edit`].
    pub fn edit<R>(
        &self,
        description: impl Into<String>,
        f: impl FnOnce(&mut Workflow) -> Result<R>,
    ) -> Result<R> {
        self.touch();
        lock(&self.inner).edit(description, f)
    }

    /// See [`Session::replace_workflow`].
    pub fn replace_workflow(&self, workflow: Workflow) {
        self.touch();
        lock(&self.inner).replace_workflow(workflow)
    }

    /// See [`Session::set_template`].
    pub fn set_template(&self, template: impl Into<String>) {
        self.touch();
        lock(&self.inner).set_template(template)
    }

    /// See [`Session::replace_workflow_from_template`].
    pub fn replace_workflow_from_template(&self, workflow: Workflow, template: impl Into<String>) {
        self.touch();
        lock(&self.inner).replace_workflow_from_template(workflow, template)
    }

    /// How many iterations the session has executed.
    pub fn iteration(&self) -> usize {
        self.touch();
        lock(&self.inner).iteration()
    }

    /// Point-in-time snapshot of this session's version history (the
    /// wire layer's history/lineage reads — no lock held after return).
    pub fn versions(&self) -> VersionStore {
        self.touch();
        lock(&self.inner).versions().clone()
    }
}

/// Called when a session leaves the manager (explicit [`SessionManager::remove`]
/// or [`SessionManager::evict_idle`]): receives the departing session's
/// name and the store signatures its lineage referenced that **no
/// surviving session still references** — the entries a store retention
/// policy may now evict without hurting any live analyst.
pub type RetentionHook = Arc<dyn Fn(&str, &[Signature]) + Send + Sync>;

/// Multiplexes many named sessions over one shared engine. Creating,
/// fetching, and removing sessions takes `&self`; handed-out
/// [`SessionHandle`]s stay valid after removal (removal only unregisters
/// the name).
///
/// The manager is also the server's idle-session authority: every
/// [`SessionHandle`] accessor touches its idle clock, and
/// [`SessionManager::evict_idle`] sweeps sessions idle past a TTL,
/// firing the optional [`RetentionHook`] so the intermediate store can
/// reclaim entries only departed sessions referenced.
pub struct SessionManager {
    engine: Arc<Engine>,
    sessions: Mutex<BTreeMap<String, SessionHandle>>,
    retention: Mutex<Option<RetentionHook>>,
    /// How many sessions [`SessionManager::recover`] rebuilt from durable
    /// records (surfaced by the server's `/stats`).
    recovered: std::sync::atomic::AtomicUsize,
    /// Session-log records [`SessionManager::recover`] dropped.
    records_dropped: std::sync::atomic::AtomicUsize,
}

impl fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionManager")
            .field("engine", &self.engine)
            .field("sessions", &self.sessions)
            .field("retention", &lock(&self.retention).is_some())
            .finish()
    }
}

impl SessionManager {
    /// A manager over an existing shared engine.
    pub fn new(engine: Arc<Engine>) -> SessionManager {
        SessionManager {
            engine,
            sessions: Mutex::new(BTreeMap::new()),
            retention: Mutex::new(None),
            recovered: std::sync::atomic::AtomicUsize::new(0),
            records_dropped: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Convenience: opens a fresh engine from `config` and wraps it.
    pub fn with_config(config: crate::EngineConfig) -> Result<SessionManager> {
        Ok(SessionManager::new(Arc::new(Engine::new(config)?)))
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Creates (and registers) a named session owning `workflow`.
    ///
    /// # Errors
    /// [`HelixError::Workflow`] if the name is already taken.
    pub fn create(&self, name: &str, workflow: Workflow) -> Result<SessionHandle> {
        self.create_with_template(name, workflow, None)
    }

    /// [`SessionManager::create`] with the registry template the workflow
    /// was built from, so a durable engine can rebuild the session after
    /// a restart. Sessions created without a template still persist their
    /// lineage and history but cannot be recovered (the base workflow is
    /// not serializable).
    pub fn create_with_template(
        &self,
        name: &str,
        workflow: Workflow,
        template: Option<&str>,
    ) -> Result<SessionHandle> {
        let mut sessions = lock(&self.sessions);
        if sessions.contains_key(name) {
            return Err(HelixError::Workflow(format!(
                "session `{name}` already exists"
            )));
        }
        let mut session = Session::new(Arc::clone(&self.engine), name, workflow);
        if let Some(template) = template {
            session.template = Some(template.to_string());
        }
        if self.engine.config().durability.is_durable() {
            session.open_journal(0);
            session.persist();
        }
        let handle = SessionHandle::from_session(session);
        sessions.insert(name.to_string(), handle.clone());
        Ok(handle)
    }

    /// Rebuilds sessions from the durable records under the engine's
    /// store directory: for each record, `rebuild` maps its template name
    /// back to a base [`Workflow`] (the server passes its workflow
    /// registry), the recorded edits replay on top, and lineage plus
    /// version history restore verbatim. Records that are corrupt, have
    /// no template, or whose template is unknown are skipped with a
    /// warning; records containing non-replayable edits recover degraded
    /// (template workflow, intact history). Returns how many sessions
    /// were registered; a volatile engine recovers nothing.
    pub fn recover(&self, rebuild: impl Fn(&str) -> Option<Workflow>) -> usize {
        let config = self.engine.config();
        if !config.durability.is_durable() {
            return 0;
        }
        let dir = crate::persist::sessions_dir(&config.store_dir);
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return 0;
        };
        let mut count = 0;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension() != Some(std::ffi::OsStr::new("json")) {
                continue;
            }
            let recovered = crate::persist::load_session_record(&path).and_then(|(mut r, seq)| {
                let (journal, dropped) =
                    Journal::recover(&path, seq, &mut r, false).map_err(|e| e.to_string())?;
                self.records_dropped
                    .fetch_add(dropped, std::sync::atomic::Ordering::Relaxed);
                Ok((r, journal))
            });
            let (record, journal) = match recovered {
                Ok(recovered) => recovered,
                Err(err) => {
                    eprintln!("helix: warning: skipping corrupt session record: {err}");
                    continue;
                }
            };
            if lock(&self.sessions).contains_key(&record.name) {
                continue;
            }
            let Some(template) = record.template.clone() else {
                eprintln!(
                    "helix: warning: session `{}` has no workflow template; not recovered",
                    record.name
                );
                continue;
            };
            let Some(base) = rebuild(&template) else {
                eprintln!(
                    "helix: warning: unknown workflow template `{template}` for session `{}`; not recovered",
                    record.name
                );
                continue;
            };
            let mut session = Session::new(Arc::clone(&self.engine), &record.name, base);
            session.template = Some(template);
            let mut degraded = record.workflow_replaced;
            if !degraded {
                for edit in &record.applied_edits {
                    if !session.replay_edit(edit) {
                        degraded = true;
                        break;
                    }
                }
            }
            session.applied_edits = record.applied_edits;
            if !degraded {
                for edit in &record.pending_edits {
                    if session.replay_edit(edit) {
                        session.edits.push(edit.clone());
                    } else {
                        degraded = true;
                        break;
                    }
                }
            }
            if degraded {
                // The live workflow is the bare template; the next
                // iteration derives its summary from the signature diff
                // and recomputes what the lineage no longer matches.
                session.replay_broken = true;
                session.workflow_replaced = true;
                session.edits.clear();
            }
            session.lineage = record.lineage;
            session.versions = VersionStore::from_versions(record.versions);
            session.journal = Some(journal);
            lock(&self.sessions).insert(record.name.clone(), SessionHandle::from_session(session));
            count += 1;
        }
        self.recovered
            .fetch_add(count, std::sync::atomic::Ordering::Relaxed);
        count
    }

    /// How many sessions [`SessionManager::recover`] rebuilt.
    pub fn recovered_sessions(&self) -> usize {
        self.recovered.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// How many session-log records [`SessionManager::recover`] dropped:
    /// replay stops, with a warning, at the first record of a session's
    /// log that does not parse (a torn tail), and drops it and every
    /// record after it.
    pub fn session_records_dropped(&self) -> usize {
        self.records_dropped
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Compacts every registered session's log into its snapshot (the
    /// session-level half of a `POST /admin/snapshot` checkpoint; no-op
    /// under a volatile engine).
    pub fn persist_all(&self) {
        let handles: Vec<SessionHandle> = lock(&self.sessions).values().cloned().collect();
        for handle in handles {
            handle.with(|s| s.persist());
        }
    }

    /// Removes a departed session's durable record, snapshot and log, if
    /// any.
    fn delete_record(&self, name: &str) {
        let config = self.engine.config();
        if config.durability.is_durable() {
            let path = crate::persist::session_path(&config.store_dir, name);
            let _ = std::fs::remove_file(crate::persist::log_path(&path));
            let _ = std::fs::remove_file(path);
        }
    }

    /// Fetches a registered session by name.
    pub fn get(&self, name: &str) -> Option<SessionHandle> {
        lock(&self.sessions).get(name).cloned()
    }

    /// Unregisters a session, returning its handle (still usable by any
    /// holder). Fires the retention hook with the signatures now
    /// unreferenced by every surviving session.
    pub fn remove(&self, name: &str) -> Option<SessionHandle> {
        let handle = lock(&self.sessions).remove(name)?;
        self.delete_record(name);
        self.release(&handle);
        Some(handle)
    }

    /// Installs the store-retention callback fired when sessions leave
    /// the manager (see [`RetentionHook`]). Replaces any previous hook.
    /// The hook must not call back into this manager.
    pub fn set_retention_hook(&self, hook: impl Fn(&str, &[Signature]) + Send + Sync + 'static) {
        *lock(&self.retention) = Some(Arc::new(hook));
    }

    /// Store signatures referenced by at least one registered session's
    /// lineage, deduplicated — the keep-set for a store retention sweep.
    pub fn retained_signatures(&self) -> Vec<Signature> {
        let handles: Vec<SessionHandle> = lock(&self.sessions).values().cloned().collect();
        let mut seen = BTreeSet::new();
        for handle in handles {
            for sig in handle.with(|s| s.lineage_signatures()) {
                seen.insert(sig.0);
            }
        }
        seen.into_iter().map(Signature).collect()
    }

    /// Evicts (unregisters) every session idle for at least `ttl`,
    /// returning the evicted names. Any accessor call on a session's
    /// handle resets its clock, so only genuinely abandoned sessions
    /// qualify; outstanding handles stay usable (eviction only
    /// unregisters the name, exactly like [`SessionManager::remove`]).
    pub fn evict_idle(&self, ttl: Duration) -> Vec<String> {
        let expired: Vec<SessionHandle> = lock(&self.sessions)
            .values()
            .filter(|handle| handle.idle_for() >= ttl)
            .cloned()
            .collect();
        let mut evicted = Vec::new();
        for handle in expired {
            {
                let mut sessions = lock(&self.sessions);
                // Re-check under the registry lock: the session may have
                // been touched (or already removed) since the scan.
                if handle.idle_for() < ttl || sessions.remove(handle.name()).is_none() {
                    continue;
                }
            }
            self.delete_record(handle.name());
            self.release(&handle);
            evicted.push(handle.name().to_string());
        }
        evicted
    }

    /// Fires the retention hook for a departed session with the
    /// signatures no surviving session still references. The hook is
    /// cloned out of its lock before running, so a slow hook never
    /// blocks registry traffic.
    fn release(&self, handle: &SessionHandle) {
        let Some(hook) = lock(&self.retention).clone() else {
            return;
        };
        let mine = handle.with(|s| s.lineage_signatures());
        let retained: BTreeSet<u64> = self
            .retained_signatures()
            .into_iter()
            .map(|sig| sig.0)
            .collect();
        let unreferenced: Vec<Signature> = mine
            .into_iter()
            .filter(|sig| !retained.contains(&sig.0))
            .collect();
        hook(handle.name(), &unreferenced);
    }

    /// Registered session names, sorted.
    pub fn names(&self) -> Vec<String> {
        lock(&self.sessions).keys().cloned().collect()
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        lock(&self.sessions).len()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        lock(&self.sessions).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{EvalSpec, ExtractorKind, LearnerSpec, MetricKind};
    use crate::{EngineConfig, NodeState};
    use helix_dataflow::DataType;
    use std::path::{Path, PathBuf};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn workflow(dir: &Path, reg: f64) -> Workflow {
        let train = dir.join("train.csv");
        let test = dir.join("test.csv");
        if !train.exists() {
            std::fs::write(&train, "BS,30,1\nMS,40,0\n".repeat(2_000)).unwrap();
            std::fs::write(&test, "BS,35,1\nMS,45,0\n".repeat(400)).unwrap();
        }
        let mut w = Workflow::new("session-mini");
        let data = w.csv_source("data", &train, Some(&test)).unwrap();
        let rows = w
            .csv_scanner(
                "rows",
                &data,
                &[
                    ("edu", DataType::Str),
                    ("age", DataType::Int),
                    ("target", DataType::Int),
                ],
            )
            .unwrap();
        let edu = w
            .field_extractor("edu_f", &rows, "edu", ExtractorKind::Categorical)
            .unwrap();
        let age = w
            .field_extractor("age_f", &rows, "age", ExtractorKind::Numeric)
            .unwrap();
        let target = w
            .field_extractor("target_f", &rows, "target", ExtractorKind::Numeric)
            .unwrap();
        let income = w.assemble("income", &rows, &[&edu, &age], &target).unwrap();
        let preds = w
            .learner(
                "predictions",
                &income,
                LearnerSpec {
                    reg_param: reg,
                    ..Default::default()
                },
            )
            .unwrap();
        let checked = w
            .evaluate(
                "checked",
                &preds,
                EvalSpec {
                    metrics: vec![MetricKind::Accuracy],
                    split: crate::SPLIT_TEST.into(),
                },
            )
            .unwrap();
        w.output(&preds);
        w.output(&checked);
        w
    }

    fn engine(dir: &Path) -> Arc<Engine> {
        Arc::new(Engine::new(EngineConfig::helix(dir.join("store"))).unwrap())
    }

    #[test]
    fn typed_edit_drives_reuse_and_summary() {
        let dir = tmpdir("typed");
        let mut session = Session::new(engine(&dir), "alice", workflow(&dir, 0.1));
        let first = session.iterate().unwrap();
        assert_eq!(first.change_summary, "initial version");
        assert_eq!(first.session.as_deref(), Some("alice"));

        session
            .set_learner_param("predictions", LearnerParam::RegParam(0.9))
            .unwrap();
        assert_eq!(session.pending_edits().len(), 1);
        let second = session.iterate().unwrap();
        assert!(session.pending_edits().is_empty(), "edit log drained");
        assert_eq!(second.change_summary, "set predictions reg_param=0.9");
        // The ML-only edit reuses pre-processing: income loads.
        let income = second.nodes.iter().find(|n| n.name == "income").unwrap();
        assert_eq!(income.state, NodeState::Load);
        let model = second
            .nodes
            .iter()
            .find(|n| n.name == "predictions__model")
            .unwrap();
        assert_eq!(model.state, NodeState::Compute);
        assert_eq!(session.versions().len(), 2);
    }

    #[test]
    fn edit_closure_and_rewire_record_freeform_diffs() {
        let dir = tmpdir("freeform");
        let mut session = Session::new(engine(&dir), "bob", workflow(&dir, 0.1));
        session.iterate().unwrap();
        session
            .edit("add age bucketizer", |w| {
                let age = w.node_ref("age_f")?;
                w.bucketizer("age_bucket", &age, 4)?;
                Ok(())
            })
            .unwrap();
        session
            .rewire("income", &["rows", "edu_f", "age_bucket", "target_f"])
            .unwrap();
        let report = session.iterate().unwrap();
        assert_eq!(
            report.change_summary,
            "add age bucketizer; rewire income <- rows,edu_f,age_bucket,target_f"
        );
        assert!(report.metric("accuracy").is_some());
        // The recorded diff also shows up structurally in the lineage.
        let diff = session.versions().diff(0, 1).unwrap();
        assert_eq!(diff.added, vec!["age_bucket".to_string()]);
    }

    #[test]
    fn replace_operator_and_add_output_handles() {
        let dir = tmpdir("replace-op");
        let mut session = Session::new(engine(&dir), "eve", workflow(&dir, 0.1));
        session.iterate().unwrap();
        session
            .replace_operator(
                "checked",
                OperatorKind::Evaluate(EvalSpec {
                    metrics: vec![MetricKind::F1],
                    split: crate::SPLIT_TEST.into(),
                }),
            )
            .unwrap();
        let report = session.iterate().unwrap();
        assert!(report.metric("f1").is_some());
        assert!(report.metric("accuracy").is_none());
        assert!(report.change_summary.contains("replace checked"));

        session.add_output("income").unwrap();
        let report = session.iterate().unwrap();
        assert!(report.change_summary.contains("output income"));
    }

    #[test]
    fn replace_workflow_clears_edits_and_derives_summary() {
        let dir = tmpdir("replace-wf");
        let mut session = Session::new(engine(&dir), "carol", workflow(&dir, 0.1));
        session.iterate().unwrap();
        session
            .set_learner_param("predictions", LearnerParam::Epochs(6))
            .unwrap();
        session.replace_workflow(workflow(&dir, 0.5));
        assert!(session.pending_edits().is_empty());
        let report = session.iterate().unwrap();
        assert!(
            report.change_summary.contains("predictions__model"),
            "signature-derived summary names the changed node, got: {}",
            report.change_summary
        );
    }

    #[test]
    fn typed_edit_after_replace_workflow_still_derives_summary_from_diff() {
        let dir = tmpdir("replace-then-edit");
        let mut session = Session::new(engine(&dir), "carol", workflow(&dir, 0.1));
        session.iterate().unwrap();
        session.replace_workflow(workflow(&dir, 0.5));
        session
            .set_learner_param("predictions", LearnerParam::Epochs(6))
            .unwrap();
        let report = session.iterate().unwrap();
        // The summary must describe the wholesale swap (signature diff),
        // not just the one typed edit applied after it.
        assert!(
            report.change_summary.contains("predictions__model"),
            "signature-derived summary names the changed node, got: {}",
            report.change_summary
        );
        assert_ne!(report.change_summary, "set predictions epochs=6");
        // A follow-up iteration with only typed edits goes back to the
        // edit-log summary.
        session
            .set_learner_param("predictions", LearnerParam::Epochs(8))
            .unwrap();
        let report = session.iterate().unwrap();
        assert_eq!(report.change_summary, "set predictions epochs=8");
    }

    #[test]
    fn manager_registers_fetches_and_rejects_duplicates() {
        let dir = tmpdir("manager");
        let manager = SessionManager::new(engine(&dir));
        assert!(manager.is_empty());
        let a = manager.create("alice", workflow(&dir, 0.1)).unwrap();
        manager.create("bob", workflow(&dir, 0.2)).unwrap();
        assert!(manager.create("alice", workflow(&dir, 0.3)).is_err());
        assert_eq!(manager.names(), vec!["alice", "bob"]);
        assert_eq!(manager.len(), 2);
        assert_eq!(manager.get("alice").unwrap().name(), "alice");
        assert!(manager.get("zed").is_none());

        a.iterate().unwrap();
        assert_eq!(a.iteration(), 1);
        let removed = manager.remove("alice").unwrap();
        assert_eq!(manager.len(), 1);
        // The removed handle stays usable.
        removed.iterate().unwrap();
        assert_eq!(removed.iteration(), 2);
    }

    #[test]
    fn sessions_share_materializations_through_one_engine() {
        let dir = tmpdir("shared");
        let manager = SessionManager::new(engine(&dir));
        let alice = manager.create("alice", workflow(&dir, 0.1)).unwrap();
        let bob = manager.create("bob", workflow(&dir, 0.1)).unwrap();
        let first = alice.iterate().unwrap();
        assert_eq!(first.loaded(), 0);
        // Bob's *first* iteration reuses Alice's materializations.
        let cross = bob.iterate().unwrap();
        assert!(cross.loaded() > 0, "cross-session reuse");
        assert_eq!(first.metrics, cross.metrics);
        // Both lineages recorded their own initial version.
        assert_eq!(alice.with(|s| s.versions().len()), 1);
        assert_eq!(bob.with(|s| s.versions().len()), 1);
        assert_eq!(manager.engine().versions().len(), 2);
    }

    #[test]
    fn evict_idle_spares_touched_sessions() {
        let dir = tmpdir("evict-idle");
        let manager = SessionManager::new(engine(&dir));
        let active = manager.create("active", workflow(&dir, 0.1)).unwrap();
        manager.create("idle", workflow(&dir, 0.2)).unwrap();
        std::thread::sleep(Duration::from_millis(700));
        // Any accessor counts as a touch.
        let _ = active.iteration();
        let evicted = manager.evict_idle(Duration::from_millis(500));
        assert_eq!(evicted, vec!["idle".to_string()]);
        assert_eq!(manager.names(), vec!["active"]);
        // The evicted name is free again.
        manager.create("idle", workflow(&dir, 0.2)).unwrap();
    }

    #[test]
    fn retention_hook_reports_only_unreferenced_signatures() {
        let dir = tmpdir("retention");
        let manager = SessionManager::new(engine(&dir));
        let released: Arc<Mutex<Vec<(String, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&released);
        manager.set_retention_hook(move |name, sigs| {
            lock(&sink).push((name.to_string(), sigs.len()));
        });

        // Two sessions over the *same* workflow share every signature.
        let alice = manager.create("alice", workflow(&dir, 0.1)).unwrap();
        let bob = manager.create("bob", workflow(&dir, 0.1)).unwrap();
        alice.iterate().unwrap();
        bob.iterate().unwrap();
        let shared = manager.retained_signatures().len();
        assert!(shared > 0, "iterated sessions must reference signatures");

        // Removing alice frees nothing: bob still references everything.
        manager.remove("alice").unwrap();
        {
            let calls = lock(&released);
            assert_eq!(calls.as_slice(), &[("alice".to_string(), 0)]);
        }
        // Removing bob frees the whole shared set.
        manager.remove("bob").unwrap();
        let calls = lock(&released);
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[1].0, "bob");
        assert_eq!(calls[1].1, shared, "last holder releases every signature");
    }

    #[test]
    fn retention_hook_can_evict_store_entries() {
        // The intended wiring: hook unreferenced signatures straight into
        // IntermediateStore::evict, shrinking the store when the last
        // session referencing an entry departs.
        let dir = tmpdir("retention-store");
        let eng = engine(&dir);
        let manager = SessionManager::new(Arc::clone(&eng));
        let store = Arc::clone(&eng);
        manager.set_retention_hook(move |_, sigs| {
            for &sig in sigs {
                let _ = store.store().evict(sig);
            }
        });
        let alice = manager.create("alice", workflow(&dir, 0.1)).unwrap();
        alice.iterate().unwrap();
        assert!(eng.store().used_bytes() > 0, "iteration materializes");
        manager.remove("alice").unwrap();
        // Everything alice's lineage referenced is gone from the store.
        for sig in alice.with(|s| s.lineage_signatures()) {
            assert!(
                eng.store().lookup(sig).is_none(),
                "signature {} should have been evicted",
                sig.hex()
            );
        }
    }

    fn durable_engine(dir: &Path) -> Arc<Engine> {
        Arc::new(
            Engine::new(
                EngineConfig::helix(dir.join("store"))
                    .with_durability(crate::Durability::wal_nosync()),
            )
            .unwrap(),
        )
    }

    #[test]
    fn manager_recovers_sessions_with_replayed_edits() {
        let dir = tmpdir("recover");
        {
            let manager = SessionManager::new(durable_engine(&dir));
            let alice = manager
                .create_with_template("alice", workflow(&dir, 0.1), Some("census"))
                .unwrap();
            alice.iterate().unwrap();
            alice
                .set_learner_param("predictions", LearnerParam::RegParam(0.9))
                .unwrap();
            alice.iterate().unwrap();
        } // process "dies" here: nothing is shut down in order

        let manager = SessionManager::new(durable_engine(&dir));
        let recovered =
            manager.recover(|template| (template == "census").then(|| workflow(&dir, 0.1)));
        assert_eq!(recovered, 1);
        assert_eq!(manager.recovered_sessions(), 1);
        let alice = manager.get("alice").unwrap();
        assert_eq!(alice.iteration(), 2, "lineage counter survives");
        let versions = alice.versions();
        assert_eq!(versions.len(), 2, "private history survives");
        assert_eq!(
            versions.get(1).unwrap().change_summary,
            "set predictions reg_param=0.9"
        );
        assert_eq!(
            alice.with(|s| s.applied_edits().len()),
            1,
            "edit history survives"
        );

        // The replayed workflow matches the pre-restart one exactly: the
        // restored lineage sees no changes and the reopened store serves
        // the same signatures.
        let report = alice.iterate().unwrap();
        assert_eq!(report.change_summary, "no changes");
        assert!(report.loaded() > 0, "restart resumes cache reuse");
    }

    #[test]
    fn pending_edits_survive_restart() {
        let dir = tmpdir("recover-pending");
        {
            let manager = SessionManager::new(durable_engine(&dir));
            let alice = manager
                .create_with_template("alice", workflow(&dir, 0.1), Some("census"))
                .unwrap();
            alice.iterate().unwrap();
            alice
                .set_learner_param("predictions", LearnerParam::Epochs(6))
                .unwrap();
            // killed before iterating the edit
        }
        let manager = SessionManager::new(durable_engine(&dir));
        manager.recover(|_| Some(workflow(&dir, 0.1)));
        let alice = manager.get("alice").unwrap();
        assert_eq!(alice.with(|s| s.pending_edits().len()), 1);
        let report = alice.iterate().unwrap();
        assert_eq!(report.change_summary, "set predictions epochs=6");
    }

    #[test]
    fn non_replayable_sessions_recover_degraded() {
        let dir = tmpdir("recover-degraded");
        {
            let manager = SessionManager::new(durable_engine(&dir));
            let bob = manager
                .create_with_template("bob", workflow(&dir, 0.1), Some("census"))
                .unwrap();
            bob.iterate().unwrap();
            bob.replace_workflow(workflow(&dir, 0.7));
            bob.iterate().unwrap();
        }
        let manager = SessionManager::new(durable_engine(&dir));
        assert_eq!(manager.recover(|_| Some(workflow(&dir, 0.1))), 1);
        let bob = manager.get("bob").unwrap();
        assert_eq!(bob.iteration(), 2, "lineage survives degraded recovery");
        assert_eq!(bob.versions().len(), 2, "history survives");
        // The live workflow reset to the template; the next iteration
        // still runs and derives its summary from the signature diff.
        let report = bob.iterate().unwrap();
        assert!(report.metric("accuracy").is_some());
    }

    #[test]
    fn removed_and_unknown_template_sessions_are_not_recovered() {
        let dir = tmpdir("recover-skips");
        {
            let manager = SessionManager::new(durable_engine(&dir));
            let keep = manager
                .create_with_template("keep", workflow(&dir, 0.1), Some("census"))
                .unwrap();
            keep.iterate().unwrap();
            let gone = manager
                .create_with_template("gone", workflow(&dir, 0.2), Some("census"))
                .unwrap();
            gone.iterate().unwrap();
            let orphan = manager
                .create_with_template("orphan", workflow(&dir, 0.3), Some("no-such-template"))
                .unwrap();
            orphan.iterate().unwrap();
            manager.remove("gone");
        }
        let manager = SessionManager::new(durable_engine(&dir));
        let recovered =
            manager.recover(|template| (template == "census").then(|| workflow(&dir, 0.1)));
        assert_eq!(recovered, 1, "removed + unknown-template skipped");
        assert_eq!(manager.names(), vec!["keep"]);
    }

    /// Two sessions iterating concurrently on one durable engine merge
    /// their runs in some order; the meta log must replay them in that
    /// order, so a reopened engine holds exactly the live cost model,
    /// memo and history.
    #[test]
    fn concurrent_sessions_replay_in_merge_order() {
        let dir = tmpdir("merge-order");
        let manager = SessionManager::new(durable_engine(&dir));
        let sessions = ["alice", "bob"].map(|name| {
            manager
                .create_with_template(name, workflow(&dir, 0.1), Some("census"))
                .unwrap()
        });
        // Each round starts both iterates together, so their merges race.
        let round = std::sync::Barrier::new(sessions.len());
        std::thread::scope(|scope| {
            for (t, session) in sessions.iter().enumerate() {
                let round = &round;
                scope.spawn(move || {
                    for i in 0..10 {
                        let reg = 0.05 * (1 + t * 10 + i) as f64;
                        session
                            .set_learner_param("predictions", LearnerParam::RegParam(reg))
                            .unwrap();
                        round.wait();
                        session.iterate().unwrap();
                    }
                });
            }
        });
        let state = |engine: &Engine| {
            let versions: Vec<String> = engine
                .versions()
                .all()
                .iter()
                .map(|v| v.to_json().to_string())
                .collect();
            (
                engine.cost_model().to_json().to_string(),
                engine.memo().to_json().to_string(),
                versions,
            )
        };
        let live = state(manager.engine());
        assert_eq!(live.2.len(), 20);
        drop(sessions);
        drop(manager);
        assert!(state(&durable_engine(&dir)) == live, "replay diverged");
    }

    /// `tests/fixtures/v2_meta` is a meta directory as the whole-document
    /// writer left it, with no logs: a durable session `a` built from
    /// template `census` (this module's `workflow(dir, 0.1)` with the CSV
    /// paths relative), iterated three times — after `reg_param=0.9`,
    /// then after `epochs=6` plus `income` as an output — with
    /// `reg_param=0.5` left pending. It recovers whole, and the next
    /// iterate appends to the logs and leaves both snapshots as they were.
    #[test]
    fn parent_written_v2_documents_still_load() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/v2_meta");
        let dir = tmpdir("v2-meta");
        let meta = dir.join("store").join("meta");
        let files = ["engine.json", "sessions/a.json"];
        std::fs::create_dir_all(meta.join("sessions")).unwrap();
        for file in files {
            std::fs::copy(fixture.join(file), meta.join(file)).unwrap();
        }
        let read = |file: &str| std::fs::read(meta.join(file)).unwrap();
        let before = files.map(read);
        let [engine_doc, session_doc] = before
            .clone()
            .map(|bytes| Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap());

        let manager = SessionManager::new(durable_engine(&dir));
        assert_eq!(
            manager.recover(|t| (t == "census").then(|| workflow(&dir, 0.1))),
            1
        );
        let encoded = |versions: &VersionStore| {
            Json::Arr(versions.all().iter().map(|v| v.to_json()).collect())
        };
        let engine = manager.engine();
        assert_eq!(
            Some(&encoded(&engine.versions())),
            engine_doc.get("versions")
        );
        assert_eq!(Some(&engine.memo().to_json()), engine_doc.get("memo"));
        let a = manager.get("a").unwrap();
        assert_eq!(Some(&encoded(&a.versions())), session_doc.get("versions"));
        a.with(|s| {
            assert_eq!(Some(&s.lineage.to_json()), session_doc.get("lineage"));
            let pending = s.pending_edits().iter().map(WorkflowEdit::to_json);
            assert_eq!(
                Some(&Json::Arr(pending.collect())),
                session_doc.get("pending_edits")
            );
        });

        let report = a.iterate().unwrap();
        assert_eq!(report.change_summary, "set predictions reg_param=0.5");
        for log in ["engine.log", "sessions/a.log"] {
            assert!(read(log).ends_with(b"}\n"), "the iterate appended to {log}");
        }
        assert!(
            files.map(read) == before,
            "the snapshots are untouched until a log outgrows them"
        );
    }

    #[test]
    fn volatile_manager_recovers_nothing_and_writes_no_records() {
        let dir = tmpdir("recover-volatile");
        // Pin Volatile explicitly: EngineConfig::helix reads HELIX_DURABILITY,
        // and this test must see no session records even when the suite runs
        // under HELIX_DURABILITY=wal (the CI durability job does exactly that).
        let volatile = Arc::new(
            Engine::new(
                EngineConfig::helix(dir.join("store"))
                    .with_durability(crate::store::Durability::Volatile),
            )
            .unwrap(),
        );
        let manager = SessionManager::new(volatile);
        let alice = manager
            .create_with_template("alice", workflow(&dir, 0.1), Some("census"))
            .unwrap();
        alice.iterate().unwrap();
        assert!(!dir.join("store").join("meta").join("sessions").exists());
        assert_eq!(manager.recover(|_| Some(workflow(&dir, 0.1))), 0);
        assert_eq!(manager.recovered_sessions(), 0);
    }

    #[test]
    fn failed_edit_leaves_workflow_untouched() {
        let dir = tmpdir("atomic-edit");
        let mut session = Session::new(engine(&dir), "x", workflow(&dir, 0.1));
        let before = session.workflow().len();
        let err = session.edit("half-applied", |w| {
            let age = w.node_ref("age_f")?;
            w.bucketizer("orphan", &age, 4)?;
            w.node_ref("no-such-node").map(|_| ())
        });
        assert!(err.is_err());
        assert_eq!(
            session.workflow().len(),
            before,
            "failed edit must not leak the orphan node into the live workflow"
        );
        assert!(session.workflow().by_name("orphan").is_none());
        assert!(session.pending_edits().is_empty());
    }

    #[test]
    fn set_learner_param_rejects_non_learners() {
        let dir = tmpdir("badparam");
        let mut session = Session::new(engine(&dir), "x", workflow(&dir, 0.1));
        assert!(session
            .set_learner_param("rows", LearnerParam::Epochs(2))
            .is_err());
        assert!(session.pending_edits().is_empty(), "failed edit unrecorded");
    }
}
