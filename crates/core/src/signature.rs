//! Merkle-style operator signatures for change detection.
//!
//! Each node's signature hashes its operator tag, canonical parameter
//! string, and — crucially — its parents' signatures. A change to any
//! operator therefore changes the signature of *every* downstream node,
//! which gives the paper's "invalidates all results affected by the changes
//! via dependency analysis" (§2.2) for free: the intermediate store is
//! keyed by signature, so stale results simply never match.
//!
//! A pleasant consequence the paper's versioning UI exploits (§3.1 "roll
//! back to a past version"): reverting an edit restores the old signatures,
//! so materializations from before the edit become reusable again.

use crate::workflow::{NodeId, Workflow};
use crate::Result;
use helix_dataflow::fx::FxHasher;
use std::hash::Hasher;

/// A 64-bit node signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(pub u64);

impl Signature {
    /// Hex rendering used for store file names.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Computes signatures for every node, in [`NodeId`] index order.
///
/// # Errors
/// Propagates cycle detection from topological ordering.
pub fn compute_signatures(workflow: &Workflow) -> Result<Vec<Signature>> {
    compute_signatures_with_data(workflow, &helix_dataflow::fx::FxHashMap::default())
}

/// [`compute_signatures`] with per-node **data content hashes** mixed in:
/// for a node index present in `data_hashes` (a chunkable data source, see
/// [`crate::data::workflow_manifests`]), the content hash *replaces* the
/// operator's parameter string in the hash. Source parameters are file
/// paths, so this swap is what makes signatures track what the data *is*
/// rather than where it lives: appending rows changes the source signature
/// (and everything downstream), while relocating identical bytes does not.
pub fn compute_signatures_with_data(
    workflow: &Workflow,
    data_hashes: &helix_dataflow::fx::FxHashMap<usize, u64>,
) -> Result<Vec<Signature>> {
    let order = workflow.topo_order()?;
    let mut sigs = vec![Signature(0); workflow.len()];
    for id in order {
        let node = workflow.node(id);
        let mut hasher = FxHasher::default();
        hasher.write(node.kind.tag().as_bytes());
        hasher.write_u8(0xfe);
        match data_hashes.get(&id.index()) {
            Some(content) => {
                hasher.write(b"data-content");
                hasher.write_u64(*content);
            }
            None => hasher.write(node.kind.params_string().as_bytes()),
        }
        hasher.write_u8(0xff);
        // Parent signatures in wiring order: reordering parents is a change.
        for parent in &node.parents {
            hasher.write_u64(sigs[parent.index()].0);
        }
        sigs[id.index()] = Signature(hasher.finish());
    }
    Ok(sigs)
}

/// How a node differs from the previous iteration, as reported by the
/// iterative change tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// Same signature as last iteration.
    Unchanged,
    /// The node's own operator parameters or wiring changed.
    LocallyChanged,
    /// An ancestor changed; this node's cached results are stale.
    TransitivelyAffected,
    /// The node did not exist in the previous version.
    Added,
}

/// Per-node change report between two workflow versions (matched by node
/// name), plus names that disappeared.
#[derive(Debug, Clone)]
pub struct ChangeReport {
    /// Change kind per node of the *new* workflow.
    pub kinds: Vec<ChangeKind>,
    /// Node names present previously but not anymore.
    pub removed: Vec<String>,
}

impl ChangeReport {
    /// Human-readable single-line summary (for the versions browser).
    pub fn summary(&self, workflow: &Workflow) -> String {
        let mut local = Vec::new();
        let mut added = Vec::new();
        for (i, kind) in self.kinds.iter().enumerate() {
            let name = &workflow.nodes()[i].name;
            match kind {
                ChangeKind::LocallyChanged => local.push(name.as_str()),
                ChangeKind::Added => added.push(name.as_str()),
                _ => {}
            }
        }
        let mut parts = Vec::new();
        if !local.is_empty() {
            parts.push(format!("~ {}", local.join(", ")));
        }
        if !added.is_empty() {
            parts.push(format!("+ {}", added.join(", ")));
        }
        if !self.removed.is_empty() {
            parts.push(format!("- {}", self.removed.join(", ")));
        }
        if parts.is_empty() {
            "no changes".to_string()
        } else {
            parts.join("; ")
        }
    }
}

/// The iterative change tracker: diffs the new workflow against the
/// previous version's `(name, local-hash, signature)` records.
///
/// `previous` maps node name → (local hash, merkle signature) from the last
/// iteration; see [`local_hash`].
pub fn track_changes(
    workflow: &Workflow,
    signatures: &[Signature],
    previous: &helix_dataflow::fx::FxHashMap<String, (u64, Signature)>,
) -> ChangeReport {
    let mut kinds = Vec::with_capacity(workflow.len());
    for (i, node) in workflow.nodes().iter().enumerate() {
        let kind = match previous.get(&node.name) {
            None => ChangeKind::Added,
            Some(&(prev_local, prev_sig)) => {
                if prev_sig == signatures[i] {
                    ChangeKind::Unchanged
                } else if prev_local != local_hash(workflow, NodeId(i as u32)) {
                    ChangeKind::LocallyChanged
                } else {
                    ChangeKind::TransitivelyAffected
                }
            }
        };
        kinds.push(kind);
    }
    let removed = previous
        .keys()
        .filter(|name| workflow.by_name(name).is_none())
        .cloned()
        .collect();
    ChangeReport { kinds, removed }
}

/// Hash of a node's *own* definition (tag + params + parent names), i.e.
/// excluding ancestor content — used to distinguish "you edited this
/// operator" from "something upstream changed".
pub fn local_hash(workflow: &Workflow, id: NodeId) -> u64 {
    let node = workflow.node(id);
    let mut hasher = FxHasher::default();
    hasher.write(node.kind.tag().as_bytes());
    hasher.write_u8(0xfe);
    hasher.write(node.kind.params_string().as_bytes());
    hasher.write_u8(0xff);
    for parent in &node.parents {
        hasher.write(workflow.node(*parent).name.as_bytes());
        hasher.write_u8(0xfd);
    }
    hasher.finish()
}

/// Builds the `previous` map for [`track_changes`] from a workflow and its
/// signatures (recorded at the end of each iteration).
pub fn snapshot(
    workflow: &Workflow,
    signatures: &[Signature],
) -> helix_dataflow::fx::FxHashMap<String, (u64, Signature)> {
    let mut map = helix_dataflow::fx::FxHashMap::default();
    for (i, node) in workflow.nodes().iter().enumerate() {
        map.insert(
            node.name.clone(),
            (local_hash(workflow, NodeId(i as u32)), signatures[i]),
        );
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{ExtractorKind, LearnerSpec, OperatorKind};
    use crate::workflow::Workflow;
    use helix_dataflow::DataType;

    fn base() -> Workflow {
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
        w.output(&preds);
        w
    }

    #[test]
    fn identical_workflows_have_identical_signatures() {
        let w1 = base();
        let w2 = base();
        assert_eq!(
            compute_signatures(&w1).unwrap(),
            compute_signatures(&w2).unwrap()
        );
    }

    #[test]
    fn param_change_ripples_downstream_only() {
        let w1 = base();
        let mut w2 = base();
        w2.replace_operator(
            "predictions__model",
            OperatorKind::Train(LearnerSpec {
                reg_param: 0.9,
                ..Default::default()
            }),
        )
        .unwrap();
        let s1 = compute_signatures(&w1).unwrap();
        let s2 = compute_signatures(&w2).unwrap();
        let id = |name: &str| w1.by_name(name).unwrap().index();
        // Upstream unchanged.
        assert_eq!(s1[id("rows")], s2[id("rows")]);
        assert_eq!(s1[id("income")], s2[id("income")]);
        // Model and its dependents changed.
        assert_ne!(s1[id("predictions__model")], s2[id("predictions__model")]);
        assert_ne!(s1[id("predictions")], s2[id("predictions")]);
    }

    #[test]
    fn tracker_classifies_changes() {
        let w1 = base();
        let s1 = compute_signatures(&w1).unwrap();
        let prev = snapshot(&w1, &s1);

        let mut w2 = base();
        w2.replace_operator(
            "predictions__model",
            OperatorKind::Train(LearnerSpec {
                reg_param: 0.9,
                ..Default::default()
            }),
        )
        .unwrap();
        let s2 = compute_signatures(&w2).unwrap();
        let report = track_changes(&w2, &s2, &prev);

        let kind = |name: &str| report.kinds[w2.by_name(name).unwrap().index()];
        assert_eq!(kind("rows"), ChangeKind::Unchanged);
        assert_eq!(kind("predictions__model"), ChangeKind::LocallyChanged);
        assert_eq!(kind("predictions"), ChangeKind::TransitivelyAffected);
        assert!(report.removed.is_empty());
        let summary = report.summary(&w2);
        assert!(summary.contains("predictions__model"));
    }

    #[test]
    fn tracker_reports_added_and_removed() {
        let w1 = base();
        let s1 = compute_signatures(&w1).unwrap();
        let prev = snapshot(&w1, &s1);

        let mut w2 = base();
        let rows = w2.node_ref("rows").unwrap();
        w2.field_extractor("ms", &rows, "marital_status", ExtractorKind::Categorical)
            .unwrap();
        let s2 = compute_signatures(&w2).unwrap();
        let report = track_changes(&w2, &s2, &prev);
        let kind = |name: &str| report.kinds[w2.by_name(name).unwrap().index()];
        assert_eq!(kind("ms"), ChangeKind::Added);

        // Removal: diff w1 against w2's snapshot.
        let prev2 = snapshot(&w2, &s2);
        let report_back = track_changes(&w1, &s1, &prev2);
        assert_eq!(report_back.removed, vec!["ms".to_string()]);
    }

    #[test]
    fn revert_restores_signatures() {
        let w1 = base();
        let mut w2 = base();
        w2.replace_operator(
            "x",
            OperatorKind::FieldExtractor {
                field: "x".into(),
                kind: ExtractorKind::Categorical,
            },
        )
        .unwrap();
        let mut w3 = w2.clone();
        w3.replace_operator(
            "x",
            OperatorKind::FieldExtractor {
                field: "x".into(),
                kind: ExtractorKind::Numeric,
            },
        )
        .unwrap();
        assert_eq!(
            compute_signatures(&w1).unwrap(),
            compute_signatures(&w3).unwrap()
        );
    }

    #[test]
    fn rewiring_changes_signature() {
        let w1 = base();
        let mut w2 = base();
        let rows = w2.node_ref("rows").unwrap();
        let x = w2.node_ref("x").unwrap();
        let y = w2.node_ref("y").unwrap();
        let ms = w2
            .field_extractor("ms", &rows, "marital_status", ExtractorKind::Categorical)
            .unwrap();
        w2.rewire("income", &[&rows, &x, &ms, &y]).unwrap();
        let s1 = compute_signatures(&w1).unwrap();
        let s2 = compute_signatures(&w2).unwrap();
        let id = |w: &Workflow, n: &str| w.by_name(n).unwrap().index();
        assert_ne!(s1[id(&w1, "income")], s2[id(&w2, "income")]);
        assert_eq!(s1[id(&w1, "x")], s2[id(&w2, "x")]);
    }
}
