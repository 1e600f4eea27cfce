//! The DAG optimizer: from a workflow to a physical execution plan.
//!
//! Compilation stitches the pieces together exactly as paper §2.2
//! describes: the intermediate code generator (here: the workflow *is* the
//! operator DAG), the iterative change tracker (Merkle signatures vs the
//! previous version), the program slicer, and the recomputation optimizer,
//! yielding a [`CompiledPlan`] the engine executes.

use crate::cost::{secs_to_us, CostModel};
use crate::memo::{DecisionSource, MemoTable};
use crate::recompute::{plan_states, NodeCosts, NodeState, RecomputationPolicy};
use crate::signature::{
    compute_signatures_with_data, track_changes, ChangeKind, ChangeReport, Signature,
};
use crate::slicing::{self, NodeChunks};
use crate::store::IntermediateStore;
use crate::workflow::{NodeId, Workflow};
use crate::Result;
use helix_dataflow::fx::FxHashMap;

/// Default compute estimate for operators never observed before (50 ms):
/// large enough that loading a small cached result wins, small enough that
/// a plan never *depends* on the estimate being right — unknown nodes have
/// no materialization and must compute regardless. The offline pass
/// prices a signature that was only ever loaded the same way.
pub(crate) const DEFAULT_COMPUTE_SECS: f64 = 0.05;

/// The physical plan for one iteration.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// Topological execution order over all nodes.
    pub order: Vec<NodeId>,
    /// Merkle signature per node.
    pub signatures: Vec<Signature>,
    /// Slice mask: nodes feeding outputs.
    pub active: Vec<bool>,
    /// Load/compute/prune decision per node.
    pub states: Vec<NodeState>,
    /// Costs used by the optimizer (µs), for reports and tests.
    pub costs: Vec<NodeCosts>,
    /// Where each node's planning cost came from: `Estimate` out of
    /// [`compile`], flipped to `Observed` per memo-backed node when
    /// [`adapt_plan_with_memo`] re-plans.
    pub sources: Vec<DecisionSource>,
    /// Diff against the previous iteration, when one exists.
    pub change: Option<ChangeReport>,
    /// Per-partition signatures over the row-aligned region downstream of
    /// chunkable data sources and its assembly boundary (`None` for nodes
    /// outside it) — the keys, salted below a Bucketizer by its bin edges
    /// at execution, that the scheduler uses to serve unchanged
    /// partitions from the store after a data delta. See
    /// [`crate::slicing::chunk_plan`].
    pub chunks: Vec<Option<NodeChunks>>,
}

impl CompiledPlan {
    /// Number of nodes planned to load from the store.
    pub fn load_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == NodeState::Load)
            .count()
    }

    /// Number of nodes planned to compute.
    pub fn compute_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == NodeState::Compute)
            .count()
    }

    /// Number of pruned nodes (sliced or shadowed by loads).
    pub fn prune_count(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s == NodeState::Prune)
            .count()
    }
}

/// Compiles a workflow into a physical plan.
///
/// `previous` is the signature snapshot of the last executed version (for
/// the change tracker); `None` on the first iteration.
pub fn compile(
    workflow: &Workflow,
    store: &IntermediateStore,
    cost_model: &CostModel,
    policy: RecomputationPolicy,
    previous: Option<&FxHashMap<String, (u64, Signature)>>,
) -> Result<CompiledPlan> {
    compile_with_slicing(workflow, store, cost_model, policy, previous, true)
}

/// [`compile`] with program slicing optionally disabled (the
/// "unoptimized Helix" configuration of the paper's demo §3: every
/// declared operator executes whether or not it feeds an output).
pub fn compile_with_slicing(
    workflow: &Workflow,
    store: &IntermediateStore,
    cost_model: &CostModel,
    policy: RecomputationPolicy,
    previous: Option<&FxHashMap<String, (u64, Signature)>>,
    enable_slicing: bool,
) -> Result<CompiledPlan> {
    let order = workflow.topo_order()?;
    // Chunk the data sources and sign them by *content*: the manifest
    // hash stands in for the source's path parameters, so a data delta is
    // a signature change like any workflow edit, and unchanged chunks
    // keep their partition signatures across deltas.
    let manifests = crate::data::workflow_manifests(workflow, crate::config_env::data_chunk_rows());
    // A source whose files are missing or empty keeps its path-based
    // signature: there is no content to sign, and workflows are routinely
    // compiled before their data exists.
    let data_hashes = manifests
        .iter()
        .filter(|(_, m)| !m.chunks.is_empty())
        .map(|(i, m)| (*i, m.content_hash))
        .collect();
    let signatures = compute_signatures_with_data(workflow, &data_hashes)?;
    let chunks = slicing::chunk_plan(workflow, &manifests)?;
    let slice = if enable_slicing {
        slicing::slice(workflow)?
    } else {
        slicing::Slice {
            active: vec![true; workflow.len()],
        }
    };
    let change = previous.map(|prev| track_changes(workflow, &signatures, prev));

    let mut costs = Vec::with_capacity(workflow.len());
    for (i, node) in workflow.nodes().iter().enumerate() {
        let compute_secs = cost_model
            .compute_estimate_secs(&node.name)
            .unwrap_or(DEFAULT_COMPUTE_SECS);
        // A node is loadable iff the store has an entry under its *current*
        // signature. Stale or never-materialized results simply miss.
        let load_us = store
            .lookup(signatures[i])
            .map(|meta| secs_to_us(cost_model.load_estimate_secs(meta.bytes)));
        costs.push(NodeCosts {
            compute_us: secs_to_us(compute_secs),
            load_us,
        });
    }

    let states = plan_states(workflow, &slice.active, &costs, policy)?;
    let sources = vec![DecisionSource::Estimate; workflow.len()];
    Ok(CompiledPlan {
        order,
        signatures,
        active: slice.active,
        states,
        costs,
        sources,
        change,
        chunks,
    })
}

/// The adaptive re-plan: replaces estimate-backed compute costs with
/// memo-observed per-signature history and re-runs the recomputation
/// optimizer when they diverge.
///
/// For every active node whose signature has compute history in `memo`,
/// the divergence ratio `max(observed/estimate, estimate/observed)` is
/// compared against `replan_factor` (clamped to ≥ 1; a factor of exactly
/// `1.0` re-plans whenever *any* memo-backed node exists, which keeps
/// tests deterministic; `f64::INFINITY` disables re-planning). When any
/// node diverges, all memo-backed compute costs are swapped in,
/// [`plan_states`] runs again over the same slice mask, those nodes'
/// [`CompiledPlan::sources`] flip to [`DecisionSource::Observed`], and
/// `Ok(true)` is returned. Only `states`/`costs`/`sources` change —
/// signatures, order, and the slice are untouched, so execution results
/// stay byte-identical; only load/compute/store choices may move.
pub fn adapt_plan_with_memo(
    workflow: &Workflow,
    plan: &mut CompiledPlan,
    memo: &MemoTable,
    policy: RecomputationPolicy,
    replan_factor: f64,
) -> Result<bool> {
    let factor = if replan_factor.is_nan() {
        f64::INFINITY
    } else {
        replan_factor.max(1.0)
    };
    if factor.is_infinite() || memo.is_empty() {
        return Ok(false);
    }
    // Memo-backed compute costs for active nodes, and whether any
    // diverges from the estimate by the configured factor.
    let mut observed_us: Vec<Option<u64>> = vec![None; workflow.len()];
    let mut diverged = false;
    for (i, slot) in observed_us.iter_mut().enumerate() {
        if !plan.active[i] {
            continue;
        }
        let Some(secs) = memo.observed_compute_secs(plan.signatures[i]) else {
            continue;
        };
        let us = secs_to_us(secs);
        *slot = Some(us);
        let est = plan.costs[i].compute_us.max(1) as f64;
        let obs = us.max(1) as f64;
        if (obs / est).max(est / obs) >= factor {
            diverged = true;
        }
    }
    if !diverged {
        return Ok(false);
    }
    for (i, us) in observed_us.iter().enumerate() {
        if let Some(us) = us {
            plan.costs[i].compute_us = *us;
            plan.sources[i] = DecisionSource::Observed;
        }
    }
    plan.states = plan_states(workflow, &plan.active, &plan.costs, policy)?;
    Ok(true)
}

/// Convenience for reports: pairs each node name with its plan state and
/// change kind.
pub fn describe_plan(
    workflow: &Workflow,
    plan: &CompiledPlan,
) -> Vec<(String, NodeState, ChangeKind)> {
    workflow
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let change = plan
                .change
                .as_ref()
                .map(|c| c.kinds[i])
                .unwrap_or(ChangeKind::Added);
            (node.name.clone(), plan.states[i], change)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{ExtractorKind, LearnerSpec, NodeOutput, OperatorKind};
    use crate::signature::{compute_signatures, snapshot};
    use helix_dataflow::{DataCollection, DataType, Schema};

    fn tmp_store(tag: &str) -> IntermediateStore {
        let dir = std::env::temp_dir().join(format!("helix-compile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::store::StoreOptions::new(dir)
            .budget_bytes(1 << 24)
            .open()
            .unwrap()
    }

    fn census_like() -> Workflow {
        let mut w = Workflow::new("census");
        let src = w.csv_source("data", "train.csv", None::<&str>).unwrap();
        let rows = w
            .csv_scanner(
                "rows",
                &src,
                &[("age", DataType::Int), ("target", DataType::Int)],
            )
            .unwrap();
        let age = w
            .field_extractor("age_f", &rows, "age", ExtractorKind::Numeric)
            .unwrap();
        let target = w
            .field_extractor("target_f", &rows, "target", ExtractorKind::Numeric)
            .unwrap();
        let income = w.assemble("income", &rows, &[&age], &target).unwrap();
        let preds = w
            .learner("predictions", &income, LearnerSpec::default())
            .unwrap();
        w.output(&preds);
        w
    }

    #[test]
    fn first_iteration_computes_everything_active() {
        let w = census_like();
        let store = tmp_store("first");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        assert_eq!(plan.load_count(), 0);
        assert_eq!(plan.compute_count(), w.len());
        assert!(plan.change.is_none());
    }

    #[test]
    fn materialized_results_become_loads() {
        let w = census_like();
        let store = tmp_store("loads");
        let mut cm = CostModel::new();
        // Pretend every node ran for 1s and the assembled result was
        // materialized.
        let sigs = compute_signatures(&w).unwrap();
        for node in w.nodes() {
            cm.observe_compute(&node.name, 1.0);
        }
        let income = w.by_name("income").unwrap();
        let out = NodeOutput::Data(DataCollection::empty(Schema::of(&[("x", DataType::Int)])));
        store.put(sigs[income.index()], &out).unwrap();

        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        assert_eq!(plan.states[income.index()], NodeState::Load);
        // Ancestors of income are shadowed by the load.
        let rows = w.by_name("rows").unwrap();
        assert_eq!(plan.states[rows.index()], NodeState::Prune);
        // Model still computes (no materialization).
        let model = w.by_name("predictions__model").unwrap();
        assert_eq!(plan.states[model.index()], NodeState::Compute);
    }

    #[test]
    fn changed_operator_invalidates_materialization() {
        let w1 = census_like();
        let store = tmp_store("invalidate");
        let mut cm = CostModel::new();
        for node in w1.nodes() {
            cm.observe_compute(&node.name, 1.0);
        }
        let sigs1 = compute_signatures(&w1).unwrap();
        let income = w1.by_name("income").unwrap();
        let out = NodeOutput::Data(DataCollection::empty(Schema::of(&[("x", DataType::Int)])));
        store.put(sigs1[income.index()], &out).unwrap();

        // Change the scanner: income's signature changes, the entry is stale.
        let mut w2 = census_like();
        w2.replace_operator(
            "rows",
            OperatorKind::CsvScan {
                fields: vec![
                    ("age".to_string(), DataType::Float),
                    ("target".to_string(), DataType::Int),
                ],
            },
        )
        .unwrap();
        let prev = snapshot(&w1, &sigs1);
        let plan = compile(&w2, &store, &cm, RecomputationPolicy::Optimal, Some(&prev)).unwrap();
        assert_eq!(plan.states[income.index()], NodeState::Compute);
        let change = plan.change.as_ref().unwrap();
        assert_eq!(
            change.kinds[w2.by_name("rows").unwrap().index()],
            ChangeKind::LocallyChanged
        );
        assert_eq!(
            change.kinds[income.index()],
            ChangeKind::TransitivelyAffected
        );
    }

    #[test]
    fn adapt_plan_swaps_in_observed_costs_when_diverged() {
        let w = census_like();
        let store = tmp_store("adapt");
        let cm = CostModel::new();
        let mut plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let income = w.by_name("income").unwrap().index();

        // Empty memo: nothing to adapt.
        let memo = crate::memo::MemoTable::new();
        assert!(
            !adapt_plan_with_memo(&w, &mut plan, &memo, RecomputationPolicy::Optimal, 4.0).unwrap()
        );

        // Observed cost 100× the 50 ms default estimate: diverged at 4×.
        let mut memo = crate::memo::MemoTable::new();
        memo.record(
            plan.signatures[income],
            "income",
            &[],
            crate::memo::Observation {
                exec_secs: 5.0,
                output_bytes: 1024,
                loaded: false,
                rows: 10,
                run: 0,
            },
        );
        assert!(
            adapt_plan_with_memo(&w, &mut plan, &memo, RecomputationPolicy::Optimal, 4.0).unwrap()
        );
        assert_eq!(plan.sources[income], DecisionSource::Observed);
        assert_eq!(plan.costs[income].compute_us, secs_to_us(5.0));
        // Non-memo-backed nodes keep their estimate provenance.
        let rows = w.by_name("rows").unwrap().index();
        assert_eq!(plan.sources[rows], DecisionSource::Estimate);

        // Infinity disables re-planning outright.
        let mut plan2 = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        assert!(!adapt_plan_with_memo(
            &w,
            &mut plan2,
            &memo,
            RecomputationPolicy::Optimal,
            f64::INFINITY
        )
        .unwrap());
        assert!(plan2.sources.iter().all(|s| *s == DecisionSource::Estimate));

        // A factor of exactly 1.0 re-plans whenever history exists, even
        // with zero divergence (deterministic-test semantics).
        let mut memo_eq = crate::memo::MemoTable::new();
        memo_eq.record(
            plan2.signatures[income],
            "income",
            &[],
            crate::memo::Observation {
                exec_secs: DEFAULT_COMPUTE_SECS,
                output_bytes: 0,
                loaded: false,
                rows: 0,
                run: 0,
            },
        );
        assert!(
            adapt_plan_with_memo(&w, &mut plan2, &memo_eq, RecomputationPolicy::Optimal, 1.0)
                .unwrap()
        );
        assert_eq!(plan2.sources[income], DecisionSource::Observed);
    }

    mod properties {
        use super::*;
        use crate::memo::{MemoTable, Observation};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A run plans from `MemoTable::subset(&plan.signatures)`: the
            /// re-plan must read exactly what it reads from the whole memo.
            #[test]
            fn adapt_plan_on_the_plan_subset_matches_the_whole_memo(
                // Per node: its load cost (µs), if loadable, and the memo's
                // samples of its signature as (ms, loaded, runs begun before).
                history in proptest::collection::vec(
                    (
                        proptest::option::of(1u64..400_000),
                        proptest::collection::vec((1u64..500, any::<bool>(), 0u64..40), 0..4),
                    ),
                    12,
                ),
                others in proptest::collection::vec((any::<u64>(), 1u64..500), 0..6),
                factor in prop_oneof![Just(1.0), Just(2.0), Just(4.0), Just(f64::INFINITY)],
            ) {
                let w = census_like();
                let store = tmp_store("subset");
                let mut plan =
                    compile(&w, &store, &CostModel::new(), RecomputationPolicy::Optimal, None)
                        .unwrap();
                let mut memo = MemoTable::new();
                let observation = |ms: u64, loaded: bool| Observation {
                    exec_secs: ms as f64 / 1e3,
                    output_bytes: ms * 10,
                    loaded,
                    rows: ms,
                    run: 0,
                };
                // More histories than nodes: the surplus goes unused.
                prop_assert!(w.len() <= history.len());
                for (i, (load_us, samples)) in history.iter().take(w.len()).enumerate() {
                    plan.costs[i].load_us = *load_us;
                    for &(ms, loaded, runs) in samples {
                        for _ in 0..runs {
                            memo.begin_run();
                        }
                        memo.record(plan.signatures[i], "n", &[], observation(ms, loaded));
                    }
                }
                for &(sig, ms) in &others {
                    memo.record(Signature(sig), "other", &[], observation(ms, false));
                }

                let subset = memo.subset(&plan.signatures);
                prop_assert_eq!(subset.current_run(), memo.current_run());
                let (mut whole_plan, mut subset_plan) = (plan.clone(), plan);
                let policy = RecomputationPolicy::Optimal;
                let whole = adapt_plan_with_memo(&w, &mut whole_plan, &memo, policy, factor);
                let from_subset =
                    adapt_plan_with_memo(&w, &mut subset_plan, &subset, policy, factor);
                prop_assert_eq!(whole.unwrap(), from_subset.unwrap());
                prop_assert_eq!(whole_plan.states, subset_plan.states);
                prop_assert_eq!(whole_plan.costs, subset_plan.costs);
                prop_assert_eq!(whole_plan.sources, subset_plan.sources);
            }
        }
    }

    #[test]
    fn describe_plan_lists_every_node() {
        let w = census_like();
        let store = tmp_store("describe");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let desc = describe_plan(&w, &plan);
        assert_eq!(desc.len(), w.len());
        assert!(desc.iter().any(|(name, ..)| name == "income"));
    }
}
