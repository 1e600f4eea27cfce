//! Program slicing: prune operators that do not contribute to outputs.
//!
//! The paper's slicer uses "fine-grained data provenance to automatically
//! eliminate computation for features that do not impact the model, without
//! any code change by the user" (§2.2). In this DAG encoding, provenance is
//! explicit: an extractor feeds the model iff it is wired into an
//! `AssembleFeatures` node (the `has_extractors` list). Extractors dropped
//! from that list — like `race`/`cl` in Fig. 1b, grayed out — simply stop
//! being ancestors of any output and are sliced away here.

use crate::data::SourceManifest;
use crate::ops::OperatorKind;
use crate::signature::Signature;
use crate::workflow::{NodeId, Workflow};
use crate::Result;
use helix_dataflow::fx::{FxHashMap, FxHasher};
use std::hash::Hasher;

/// Result of slicing: which nodes survive.
#[derive(Debug, Clone)]
pub struct Slice {
    /// `true` for nodes that (transitively) feed an output.
    pub active: Vec<bool>,
}

impl Slice {
    /// Ids of sliced-away (inactive) nodes.
    pub fn pruned(&self) -> Vec<NodeId> {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, a)| !**a)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }
}

/// Computes the backward slice from the workflow outputs.
///
/// # Errors
/// [`crate::HelixError::Compile`] if the workflow has no outputs — an
/// entirely dead workflow is almost certainly a bug in user code, and the
/// paper's engine likewise refuses to run output-less programs.
pub fn slice(workflow: &Workflow) -> Result<Slice> {
    if workflow.outputs().is_empty() {
        return Err(crate::HelixError::Compile(
            "workflow has no outputs; nothing to execute (did you forget is_output()?)".into(),
        ));
    }
    let mut active = vec![false; workflow.len()];
    let mut stack: Vec<NodeId> = workflow.outputs().to_vec();
    while let Some(id) = stack.pop() {
        if active[id.index()] {
            continue;
        }
        active[id.index()] = true;
        stack.extend(workflow.node(id).parents.iter().copied());
    }
    Ok(Slice { active })
}

/// Per-partition signatures for one node: the dataset's chunk structure
/// projected through the row-aligned region of the DAG (see
/// [`chunk_plan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeChunks {
    /// Half-open `[start, end)` row ranges of the node's output, one per
    /// data chunk, covering all rows in order.
    pub ranges: Vec<(usize, usize)>,
    /// Partition signature per range — a content-derived store key, so an
    /// unchanged chunk's partitions stay loadable after a data delta.
    pub psigs: Vec<Signature>,
}

/// Whether an operator maps input rows to output rows 1:1, so its output
/// can be partitioned by the *source's* chunk ranges. A Bucketizer is
/// row-wise once its bin edges are known; the edges depend on every row,
/// so its partition keys get an execution-time salt (see [`chunk_plan`]).
fn row_aligned(kind: &OperatorKind) -> bool {
    matches!(
        kind,
        OperatorKind::CsvScan { .. }
            | OperatorKind::FieldExtractor { .. }
            | OperatorKind::Bucketizer { .. }
            | OperatorKind::Interaction
    )
}

/// Whether an operator's partitions follow its parents' chunks: the
/// row-aligned operators, and `AssembleFeatures`. Assembly is row-wise
/// but drops label-less rows, so its chunks are *input* ranges whose
/// output rows are the labelled rows among them; its output no longer
/// lines up with the source, and nothing downstream of it inherits
/// chunks.
fn chunked(kind: &OperatorKind) -> bool {
    row_aligned(kind) || matches!(kind, OperatorKind::AssembleFeatures)
}

/// Computes per-node **partition signatures**: the per-partition analogue
/// of the Merkle node signature, over the region of the DAG where output
/// rows stay aligned with source rows, plus its `AssembleFeatures`
/// boundary.
///
/// A chunkable source's partitions are its data chunks
/// ([`crate::data::SourceManifest`], keyed by node index in `manifests`);
/// a downstream node inherits the structure iff its operator is chunked
/// (1:1 row-aligned, or an assembly), *every* parent carries the same
/// ranges, and no parent is an assembly. Each partition signature hashes
/// the operator's identity with the parents' partition signatures — for
/// a source, with the chunk's content hash — so it is independent of file
/// paths and of everything outside its own row range. After a data
/// delta, partitions over unchanged chunks keep their store keys and are
/// served from the store while only new-chunk partitions recompute.
///
/// One input is not in a chunk's rows: a Bucketizer's bin edges span the
/// whole input. These signatures are therefore the compile-time half of a
/// key. When the scheduler plans a node below a Bucketizer it folds the
/// edges' salt ([`crate::exec::BinEdges::salt`]) into them, so an append
/// that moves an edge misses every chunk below it. A node with no
/// Bucketizer above it keeps these signatures as its keys.
pub fn chunk_plan(
    workflow: &Workflow,
    manifests: &FxHashMap<usize, SourceManifest>,
) -> Result<Vec<Option<NodeChunks>>> {
    let order = workflow.topo_order()?;
    let mut chunks: Vec<Option<NodeChunks>> = vec![None; workflow.len()];
    for id in order {
        let node = workflow.node(id);
        let computed = if let Some(manifest) = manifests.get(&id.index()) {
            if manifest.chunks.is_empty() {
                None
            } else {
                let mut ranges = Vec::with_capacity(manifest.chunks.len());
                let mut psigs = Vec::with_capacity(manifest.chunks.len());
                let mut start = 0usize;
                for chunk in &manifest.chunks {
                    ranges.push((start, start + chunk.rows));
                    start += chunk.rows;
                    let mut hasher = FxHasher::default();
                    hasher.write(node.kind.tag().as_bytes());
                    hasher.write_u8(0xfe);
                    hasher.write(b"chunk");
                    hasher.write_u64(chunk.hash);
                    hasher.write_u8(0xff);
                    psigs.push(Signature(hasher.finish()));
                }
                Some(NodeChunks { ranges, psigs })
            }
        } else if chunked(&node.kind) && !node.parents.is_empty() {
            let parents: Option<Vec<&NodeChunks>> = node
                .parents
                .iter()
                .map(|p| {
                    let parent = workflow.node(*p);
                    let assembled = matches!(parent.kind, OperatorKind::AssembleFeatures);
                    chunks[p.index()].as_ref().filter(|_| !assembled)
                })
                .collect();
            parents
                .filter(|ps| ps.iter().all(|p| p.ranges == ps[0].ranges))
                .map(|ps| {
                    let ranges = ps[0].ranges.clone();
                    let psigs = (0..ranges.len())
                        .map(|k| {
                            let mut hasher = FxHasher::default();
                            hasher.write(node.kind.tag().as_bytes());
                            hasher.write_u8(0xfe);
                            hasher.write(node.kind.params_string().as_bytes());
                            hasher.write_u8(0xff);
                            for parent in &ps {
                                hasher.write_u64(parent.psigs[k].0);
                            }
                            Signature(hasher.finish())
                        })
                        .collect();
                    NodeChunks { ranges, psigs }
                })
        } else {
            None
        };
        chunks[id.index()] = computed;
    }
    Ok(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{ExtractorKind, LearnerSpec};
    use crate::workflow::Workflow;
    use helix_dataflow::DataType;

    /// Census-like workflow where `race` and `cl` are declared but not
    /// wired into `income` — the exact Fig. 1b situation.
    fn census_like() -> Workflow {
        let mut w = Workflow::new("census");
        let src = w.csv_source("data", "train.csv", None::<&str>).unwrap();
        let rows = w
            .csv_scanner(
                "rows",
                &src,
                &[
                    ("age", DataType::Int),
                    ("race", DataType::Str),
                    ("target", DataType::Int),
                ],
            )
            .unwrap();
        let age = w
            .field_extractor("age", &rows, "age", ExtractorKind::Numeric)
            .unwrap();
        let _race = w
            .field_extractor("race", &rows, "race", ExtractorKind::Categorical)
            .unwrap();
        let _cl = w
            .field_extractor("cl", &rows, "age", ExtractorKind::Numeric)
            .unwrap();
        let target = w
            .field_extractor("target", &rows, "target", ExtractorKind::Numeric)
            .unwrap();
        let income = w.assemble("income", &rows, &[&age], &target).unwrap();
        let preds = w
            .learner("predictions", &income, LearnerSpec::default())
            .unwrap();
        w.output(&preds);
        w
    }

    #[test]
    fn unwired_extractors_are_pruned() {
        let w = census_like();
        let s = slice(&w).unwrap();
        let active = |name: &str| s.active[w.by_name(name).unwrap().index()];
        assert!(active("rows"));
        assert!(active("age"));
        assert!(active("income"));
        assert!(active("predictions"));
        assert!(
            !active("race"),
            "race is not in has_extractors; must be sliced"
        );
        assert!(!active("cl"));
        assert_eq!(s.pruned().len(), 2);
    }

    #[test]
    fn no_outputs_is_an_error() {
        let mut w = Workflow::new("t");
        w.csv_source("a", "x.csv", None::<&str>).unwrap();
        assert!(slice(&w).is_err());
    }

    #[test]
    fn rewiring_extractor_back_in_reactivates_it() {
        let mut w = census_like();
        let rows = w.node_ref("rows").unwrap();
        let age = w.node_ref("age").unwrap();
        let race = w.node_ref("race").unwrap();
        let target = w.node_ref("target").unwrap();
        w.rewire("income", &[&rows, &age, &race, &target]).unwrap();
        let s = slice(&w).unwrap();
        assert!(s.active[w.by_name("race").unwrap().index()]);
    }

    #[test]
    fn chunk_structure_reaches_assemble_and_stops_below_it() {
        let dir = std::env::temp_dir().join(format!("helix-slice-chunks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let train = dir.join("train.csv");
        let mut lines = String::new();
        for i in 0..10 {
            lines.push_str(&format!("{i},1\n"));
        }
        std::fs::write(&train, &lines).unwrap();

        let mut w = Workflow::new("t");
        let src = w.csv_source("data", &train, None::<&str>).unwrap();
        let rows = w
            .csv_scanner("rows", &src, &[("x", DataType::Int), ("y", DataType::Int)])
            .unwrap();
        let x = w
            .field_extractor("x", &rows, "x", ExtractorKind::Numeric)
            .unwrap();
        let y = w
            .field_extractor("y", &rows, "y", ExtractorKind::Numeric)
            .unwrap();
        let x_bucket = w.bucketizer("xBucket", &x, 3).unwrap();
        let income = w.assemble("income", &rows, &[&x, &x_bucket], &y).unwrap();
        let preds = w
            .learner("predictions", &income, LearnerSpec::default())
            .unwrap();
        w.output(&preds);

        let manifests = crate::data::workflow_manifests(&w, 4);
        let plan = chunk_plan(&w, &manifests).unwrap();
        let at = |name: &str| plan[w.by_name(name).unwrap().index()].as_ref();
        let src_chunks = at("data").expect("source has chunk structure");
        assert_eq!(src_chunks.ranges, vec![(0, 4), (4, 8), (8, 10)]);
        let rows_chunks = at("rows").expect("scan inherits chunk structure");
        assert_eq!(rows_chunks.ranges, src_chunks.ranges);
        assert_ne!(rows_chunks.psigs, src_chunks.psigs);
        assert!(at("x").is_some());
        assert_eq!(at("xBucket").unwrap().ranges, src_chunks.ranges);
        let income = at("income").expect("assemble carries input-ranged chunks");
        assert_eq!(income.ranges, src_chunks.ranges);
        assert!(
            at("predictions__model").is_none() && at("predictions").is_none(),
            "assembled rows no longer line up with the source"
        );

        // Appending preserves the psigs of covered chunks.
        crate::data::append_lines(&train, &["10,1".into(), "11,1".into()]).unwrap();
        let manifests2 = crate::data::workflow_manifests(&w, 4);
        let plan2 = chunk_plan(&w, &manifests2).unwrap();
        let rows2 = plan2[w.by_name("rows").unwrap().index()].as_ref().unwrap();
        assert_eq!(rows2.ranges.len(), 3);
        assert_eq!(rows2.psigs[0], rows_chunks.psigs[0]);
        assert_eq!(rows2.psigs[1], rows_chunks.psigs[1]);
        assert_ne!(rows2.psigs[2], rows_chunks.psigs[2]);
    }

    #[test]
    fn all_nodes_active_when_everything_feeds_outputs() {
        let mut w = Workflow::new("t");
        let a = w.csv_source("a", "x.csv", None::<&str>).unwrap();
        let b = w.csv_scanner("b", &a, &[("x", DataType::Int)]).unwrap();
        w.output(&b);
        let s = slice(&w).unwrap();
        assert_eq!(s.active.iter().filter(|a| **a).count(), 2);
        assert!(s.pruned().is_empty());
    }
}
