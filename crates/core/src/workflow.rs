//! The Helix workflow DSL.
//!
//! Mirrors the paper's Scala DSL (Fig. 1a) with a builder API: operators
//! are *declared by name* and *wired* into a DAG of data collections. The
//! Census example reads almost line-for-line like the paper:
//!
//! ```
//! use helix_core::workflow::Workflow;
//! use helix_core::ops::{ExtractorKind, LearnerSpec, EvalSpec};
//! use helix_dataflow::DataType;
//!
//! let mut w = Workflow::new("Census");
//! let data = w.csv_source("data", "train.csv", Some("test.csv")).unwrap();
//! let rows = w
//!     .csv_scanner("rows", &data, &[("age", DataType::Int), ("education", DataType::Str)])
//!     .unwrap();
//! let age = w.field_extractor("age", &rows, "age", ExtractorKind::Numeric).unwrap();
//! let edu = w.field_extractor("edu", &rows, "education", ExtractorKind::Categorical).unwrap();
//! let age_bucket = w.bucketizer("ageBucket", &age, 10).unwrap();
//! let target = w.field_extractor("target", &rows, "age", ExtractorKind::Numeric).unwrap();
//! let income = w.assemble("income", &rows, &[&edu, &age_bucket], &target).unwrap();
//! let predictions = w.learner("predictions", &income, LearnerSpec::default()).unwrap();
//! let checked = w.evaluate("checked", &predictions, EvalSpec::default()).unwrap();
//! w.output(&predictions);
//! w.output(&checked);
//! assert_eq!(w.len(), 10);
//! ```

use crate::ops::{EvalSpec, ExtractorKind, LearnerSpec, OperatorKind, Udf};
use crate::{HelixError, Result};
use helix_dataflow::fx::FxHashMap;
use helix_dataflow::DataType;
use std::path::PathBuf;

/// Index of a node within a workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A handle returned by DSL builder methods, used to wire children.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef(pub NodeId);

/// One declared operator and its wiring.
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique name within the workflow (the DSL declaration name).
    pub name: String,
    /// The operator.
    pub kind: OperatorKind,
    /// Parent nodes, in wiring order.
    pub parents: Vec<NodeId>,
}

/// A declarative ML workflow: a named DAG of operators.
#[derive(Debug, Clone, Default)]
pub struct Workflow {
    name: String,
    nodes: Vec<Node>,
    by_name: FxHashMap<String, NodeId>,
    outputs: Vec<NodeId>,
}

impl Workflow {
    /// Creates an empty workflow.
    pub fn new(name: impl Into<String>) -> Self {
        Workflow {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The workflow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of declared nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no nodes are declared.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes, indexable by [`NodeId::index`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node behind an id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Ids flagged as workflow outputs (`is_output()` in the paper DSL).
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Looks a node up by declaration name.
    pub fn by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    // -- generic insertion ---------------------------------------------------

    /// Adds an operator with explicit parents. The DSL helpers below are
    /// sugar over this; it is public so UDF-heavy workflows (like the IE
    /// application) can wire arbitrary shapes.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        kind: OperatorKind,
        parents: &[&NodeRef],
    ) -> Result<NodeRef> {
        let name = name.into();
        if name.is_empty() {
            return Err(HelixError::Workflow("node name must be non-empty".into()));
        }
        if self.by_name.contains_key(&name) {
            return Err(HelixError::Workflow(format!(
                "duplicate node name `{name}`"
            )));
        }
        check_operator(&kind)?;
        let parent_ids: Vec<NodeId> = parents.iter().map(|r| r.0).collect();
        for pid in &parent_ids {
            if pid.index() >= self.nodes.len() {
                return Err(HelixError::Workflow(format!(
                    "parent id {pid:?} of `{name}` does not exist"
                )));
            }
        }
        let id = NodeId(self.nodes.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.nodes.push(Node {
            name,
            kind,
            parents: parent_ids,
        });
        Ok(NodeRef(id))
    }

    /// Marks a node as a workflow output.
    pub fn output(&mut self, node: &NodeRef) {
        if !self.outputs.contains(&node.0) {
            self.outputs.push(node.0);
        }
    }

    // -- DSL sugar (paper Fig. 1a vocabulary) --------------------------------

    /// `data refers_to new FileSource(train, test)`.
    pub fn csv_source(
        &mut self,
        name: &str,
        train_path: impl Into<PathBuf>,
        test_path: Option<impl Into<PathBuf>>,
    ) -> Result<NodeRef> {
        self.add(
            name,
            OperatorKind::CsvSource {
                train_path: train_path.into(),
                test_path: test_path.map(Into::into),
            },
            &[],
        )
    }

    /// A one-document-per-line corpus source for unstructured-text tasks.
    pub fn text_source(
        &mut self,
        name: &str,
        path: impl Into<PathBuf>,
        test_fraction: f64,
    ) -> Result<NodeRef> {
        self.add(
            name,
            OperatorKind::TextSource {
                path: path.into(),
                test_fraction,
            },
            &[],
        )
    }

    /// `data is_read_into rows using CSVScanner(...)`.
    pub fn csv_scanner(
        &mut self,
        name: &str,
        source: &NodeRef,
        fields: &[(&str, DataType)],
    ) -> Result<NodeRef> {
        self.add(
            name,
            OperatorKind::CsvScan {
                fields: fields.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
            },
            &[source],
        )
    }

    /// `age refers_to FieldExtractor("age")` applied to `rows`.
    pub fn field_extractor(
        &mut self,
        name: &str,
        rows: &NodeRef,
        field: &str,
        kind: ExtractorKind,
    ) -> Result<NodeRef> {
        self.add(
            name,
            OperatorKind::FieldExtractor {
                field: field.to_string(),
                kind,
            },
            &[rows],
        )
    }

    /// `ageBucket refers_to Bucketizer(age, bins=10)`.
    pub fn bucketizer(&mut self, name: &str, input: &NodeRef, bins: usize) -> Result<NodeRef> {
        self.add(name, OperatorKind::Bucketizer { bins }, &[input])
    }

    /// `eduXocc refers_to InteractionFeature(Array(edu, occ))`.
    pub fn interaction(&mut self, name: &str, inputs: &[&NodeRef]) -> Result<NodeRef> {
        if inputs.len() < 2 {
            return Err(HelixError::Workflow("interaction needs ≥ 2 inputs".into()));
        }
        self.add(name, OperatorKind::Interaction, inputs)
    }

    /// `rows has_extractors(...)` + `income results_from rows with_labels
    /// target`: zips `rows` with the extractor fragments and a label.
    pub fn assemble(
        &mut self,
        name: &str,
        rows: &NodeRef,
        extractors: &[&NodeRef],
        label: &NodeRef,
    ) -> Result<NodeRef> {
        if extractors.is_empty() {
            return Err(HelixError::Workflow("assemble needs ≥ 1 extractor".into()));
        }
        let mut parents: Vec<&NodeRef> = vec![rows];
        parents.extend_from_slice(extractors);
        parents.push(label);
        self.add(name, OperatorKind::AssembleFeatures, &parents)
    }

    /// `incPred refers_to new Learner(...)` + `predictions results_from
    /// incPred on income`, fused into train-then-apply: returns the
    /// *predictions* node (the trained model is its own upstream node named
    /// `<name>__model`).
    pub fn learner(
        &mut self,
        name: &str,
        examples: &NodeRef,
        spec: LearnerSpec,
    ) -> Result<NodeRef> {
        let model = self.add(
            format!("{name}__model"),
            OperatorKind::Train(spec),
            &[examples],
        )?;
        self.add(name, OperatorKind::Apply, &[&model, examples])
    }

    /// Declares only the training node (for workflows that apply one model
    /// to several collections).
    pub fn train(&mut self, name: &str, examples: &NodeRef, spec: LearnerSpec) -> Result<NodeRef> {
        self.add(name, OperatorKind::Train(spec), &[examples])
    }

    /// Applies an existing trained-model node to a collection.
    pub fn apply(&mut self, name: &str, model: &NodeRef, examples: &NodeRef) -> Result<NodeRef> {
        self.add(name, OperatorKind::Apply, &[model, examples])
    }

    /// `checked results_from checkResults on testData(predictions)`.
    pub fn evaluate(
        &mut self,
        name: &str,
        predictions: &NodeRef,
        spec: EvalSpec,
    ) -> Result<NodeRef> {
        self.add(name, OperatorKind::Evaluate(spec), &[predictions])
    }

    /// An arbitrary user-defined transform (inline UDFs in the paper DSL).
    pub fn udf(&mut self, name: &str, inputs: &[&NodeRef], udf: Udf) -> Result<NodeRef> {
        self.add(name, OperatorKind::UserDefined(udf), inputs)
    }

    /// A row-wise user-defined transform the scheduler may partition: each
    /// output row depends only on the corresponding row of the *first*
    /// input (see [`OperatorKind::RowUdf`] for the exact contract). Use
    /// [`Workflow::udf`] for transforms that aggregate across rows.
    pub fn row_udf(&mut self, name: &str, inputs: &[&NodeRef], udf: Udf) -> Result<NodeRef> {
        self.add(name, OperatorKind::RowUdf(udf), inputs)
    }

    // -- iteration support ---------------------------------------------------

    /// Replaces the operator at a named node, keeping its wiring — the
    /// primitive behind iterative modifications ("change the regularization
    /// parameter", "swap the eval metric").
    pub fn replace_operator(&mut self, name: &str, kind: OperatorKind) -> Result<()> {
        let id = self
            .by_name(name)
            .ok_or_else(|| HelixError::Workflow(format!("no node named `{name}`")))?;
        check_operator(&kind)?;
        self.nodes[id.index()].kind = kind;
        Ok(())
    }

    /// Rewires the parents of a named node (e.g. adding an extractor to an
    /// `assemble` node — the paper's `has_extractors` edit).
    pub fn rewire(&mut self, name: &str, parents: &[&NodeRef]) -> Result<()> {
        let id = self
            .by_name(name)
            .ok_or_else(|| HelixError::Workflow(format!("no node named `{name}`")))?;
        let parent_ids: Vec<NodeId> = parents.iter().map(|r| r.0).collect();
        for pid in &parent_ids {
            if pid.index() >= self.nodes.len() {
                return Err(HelixError::Workflow(format!(
                    "parent id {pid:?} does not exist"
                )));
            }
            if *pid == id {
                return Err(HelixError::Workflow(format!(
                    "`{name}` cannot be its own parent"
                )));
            }
        }
        self.nodes[id.index()].parents = parent_ids;
        Ok(())
    }

    /// Resolves the *training* node behind a learner name: either the
    /// node itself when it is a [`OperatorKind::Train`] declaration, or
    /// the `<name>__model` twin the [`Workflow::learner`] sugar creates.
    /// This is what typed session edits (`set_learner_param`) target.
    pub fn train_node(&self, learner: &str) -> Result<NodeId> {
        let direct = self
            .by_name(learner)
            .filter(|id| matches!(self.node(*id).kind, OperatorKind::Train(_)));
        if let Some(id) = direct {
            return Ok(id);
        }
        self.by_name(&format!("{learner}__model"))
            .filter(|id| matches!(self.node(*id).kind, OperatorKind::Train(_)))
            .ok_or_else(|| HelixError::Workflow(format!("no learner node named `{learner}`")))
    }

    /// A handle for an existing node, for rewiring.
    pub fn node_ref(&self, name: &str) -> Result<NodeRef> {
        self.by_name(name)
            .map(NodeRef)
            .ok_or_else(|| HelixError::Workflow(format!("no node named `{name}`")))
    }

    // -- graph queries -------------------------------------------------------

    /// Children lists per node (inverse of parent wiring).
    pub fn children(&self) -> Vec<Vec<NodeId>> {
        let mut children = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for parent in &node.parents {
                children[parent.index()].push(NodeId(i as u32));
            }
        }
        children
    }

    /// Topological order of all nodes.
    ///
    /// # Errors
    /// [`HelixError::Compile`] if rewiring created a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        for (i, node) in self.nodes.iter().enumerate() {
            indegree[i] = node.parents.len();
        }
        let children = self.children();
        let mut queue: Vec<NodeId> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(|i| NodeId(i as u32))
            .collect();
        // Deterministic order: process smallest id first.
        queue.sort();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            let mut newly_ready: Vec<NodeId> = Vec::new();
            for &child in &children[id.index()] {
                indegree[child.index()] -= 1;
                if indegree[child.index()] == 0 {
                    newly_ready.push(child);
                }
            }
            newly_ready.sort();
            queue.extend(newly_ready);
        }
        if order.len() != n {
            return Err(HelixError::Compile("workflow contains a cycle".into()));
        }
        Ok(order)
    }

    /// All ancestors (transitive parents) of a node, excluding itself.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = self.nodes[id.index()].parents.clone();
        let mut out = Vec::new();
        while let Some(p) = stack.pop() {
            if !seen[p.index()] {
                seen[p.index()] = true;
                out.push(p);
                stack.extend(self.nodes[p.index()].parents.iter().copied());
            }
        }
        out.sort();
        out
    }
}

/// Checks the parameters of an operator, whichever entry point sets it
/// ([`Workflow::add`] and its DSL sugar, or
/// [`Workflow::replace_operator`]).
fn check_operator(kind: &OperatorKind) -> Result<()> {
    match kind {
        OperatorKind::Bucketizer { bins: 0 } => {
            Err(HelixError::Workflow("bucketizer needs ≥ 1 bin".into()))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_workflow() -> (Workflow, NodeRef, NodeRef, NodeRef) {
        let mut w = Workflow::new("t");
        let a = w.csv_source("a", "train.csv", None::<&str>).unwrap();
        let b = w.csv_scanner("b", &a, &[("x", DataType::Int)]).unwrap();
        let c = w
            .field_extractor("c", &b, "x", ExtractorKind::Numeric)
            .unwrap();
        (w, a, b, c)
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut w = Workflow::new("t");
        w.csv_source("a", "x.csv", None::<&str>).unwrap();
        assert!(w.csv_source("a", "y.csv", None::<&str>).is_err());
    }

    #[test]
    fn empty_name_rejected() {
        let mut w = Workflow::new("t");
        assert!(w.csv_source("", "x.csv", None::<&str>).is_err());
    }

    #[test]
    fn topo_order_respects_parents() {
        let (w, ..) = linear_workflow();
        let order = w.topo_order().unwrap();
        let pos: Vec<usize> = order.iter().map(|id| id.index()).collect();
        assert_eq!(pos.len(), 3);
        assert!(pos.iter().position(|&p| p == 0) < pos.iter().position(|&p| p == 1));
    }

    #[test]
    fn cycles_detected_after_rewire() {
        let (mut w, _a, b, c) = linear_workflow();
        // b's parent becomes c: a cycle b -> c -> b.
        w.rewire("b", &[&c]).unwrap();
        let _ = b;
        assert!(w.topo_order().is_err());
    }

    #[test]
    fn self_parent_rejected() {
        let (mut w, _a, b, _c) = linear_workflow();
        assert!(w.rewire("b", &[&b]).is_err());
    }

    #[test]
    fn ancestors_are_transitive_parents() {
        let (w, a, b, c) = linear_workflow();
        assert_eq!(w.ancestors(c.0), vec![a.0, b.0]);
        assert!(w.ancestors(a.0).is_empty());
    }

    #[test]
    fn learner_creates_model_and_apply_nodes() {
        let mut w = Workflow::new("t");
        let src = w.csv_source("data", "train.csv", None::<&str>).unwrap();
        let rows = w
            .csv_scanner("rows", &src, &[("x", DataType::Int)])
            .unwrap();
        let ext = w
            .field_extractor("x", &rows, "x", ExtractorKind::Numeric)
            .unwrap();
        let label = w
            .field_extractor("y", &rows, "x", ExtractorKind::Numeric)
            .unwrap();
        let income = w.assemble("income", &rows, &[&ext], &label).unwrap();
        let preds = w
            .learner("predictions", &income, LearnerSpec::default())
            .unwrap();
        assert!(w.by_name("predictions__model").is_some());
        let node = w.node(preds.0);
        assert_eq!(node.parents.len(), 2);
        assert!(matches!(node.kind, OperatorKind::Apply));
    }

    #[test]
    fn train_node_resolves_learner_sugar_and_direct_train() {
        let mut w = Workflow::new("t");
        let src = w.csv_source("data", "train.csv", None::<&str>).unwrap();
        let rows = w
            .csv_scanner("rows", &src, &[("x", DataType::Int)])
            .unwrap();
        let ext = w
            .field_extractor("x", &rows, "x", ExtractorKind::Numeric)
            .unwrap();
        let label = w
            .field_extractor("y", &rows, "x", ExtractorKind::Numeric)
            .unwrap();
        let income = w.assemble("income", &rows, &[&ext], &label).unwrap();
        w.learner("predictions", &income, LearnerSpec::default())
            .unwrap();
        let direct = w.train("solo", &income, LearnerSpec::default()).unwrap();
        assert_eq!(
            w.train_node("predictions").unwrap(),
            w.by_name("predictions__model").unwrap()
        );
        assert_eq!(w.train_node("solo").unwrap(), direct.0);
        assert!(w.train_node("rows").is_err(), "not a learner");
        assert!(w.train_node("zzz").is_err());
    }

    #[test]
    fn outputs_deduplicate() {
        let (mut w, a, ..) = linear_workflow();
        w.output(&a);
        w.output(&a);
        assert_eq!(w.outputs().len(), 1);
    }

    #[test]
    fn replace_operator_changes_params() {
        let (mut w, ..) = linear_workflow();
        w.replace_operator(
            "c",
            OperatorKind::FieldExtractor {
                field: "x".into(),
                kind: ExtractorKind::Categorical,
            },
        )
        .unwrap();
        assert!(w
            .node(w.by_name("c").unwrap())
            .kind
            .params_string()
            .contains("Categorical"));
        assert!(w
            .replace_operator("zzz", OperatorKind::Interaction)
            .is_err());
    }

    #[test]
    fn zero_bins_are_refused_by_every_entry_point() {
        let (mut w, _a, _b, c) = linear_workflow();
        let zero = OperatorKind::Bucketizer { bins: 0 };
        assert!(w.add("bk0", zero.clone(), &[&c]).is_err());
        w.bucketizer("bk", &c, 4).unwrap();
        let err = w.replace_operator("bk", zero).unwrap_err();
        assert!(err.to_string().contains("≥ 1 bin"), "got {err}");
        let kept = &w.node(w.by_name("bk").unwrap()).kind;
        assert!(matches!(kept, OperatorKind::Bucketizer { bins: 4 }));
    }

    #[test]
    fn validation_of_dsl_arities() {
        let (mut w, _a, b, c) = linear_workflow();
        assert!(w.interaction("i", &[&c]).is_err());
        assert!(w.bucketizer("bk", &c, 0).is_err());
        let label = w
            .field_extractor("lbl", &b, "x", ExtractorKind::Numeric)
            .unwrap();
        assert!(w.assemble("asm", &b, &[], &label).is_err());
    }
}
