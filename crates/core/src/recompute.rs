//! The recomputation optimizer: optimal `{load, compute, prune}` states.
//!
//! Paper §2.2, Equation (1): given per-node compute costs `c_i` and load
//! costs `l_i` (∞ when no valid materialization exists), choose states
//! minimizing total cost subject to the *prune constraint* — a computed
//! node's parents must be available — and to outputs being available.
//!
//! This cannot be solved by a DAG traversal (loading a node lets you prune
//! its ancestors, but their value depends on *their* other descendants), so
//! Helix reduces it to the Project Selection Problem:
//!
//! * project `a_i` — "make node *i* available", profit `−l_i`;
//! * project `b_i` — "compute node *i*", profit `l_i − c_i`,
//!   requiring `a_i` and `a_p` for every parent `p`.
//!
//! Selecting both means computing (net `−c_i`), selecting `a_i` alone means
//! loading (net `−l_i`), selecting neither means pruning (0). A node with
//! no valid materialization gets `l_i = L∞`, making the load-only choice
//! prohibitively bad while `a_i + b_i` still nets exactly `−c_i`. Outputs'
//! `a` projects are mandatory. One min-cut solves the whole instance.

use crate::workflow::{NodeId, Workflow};
use crate::Result;
use helix_mincut::{Project, ProjectSelection};

/// Sentinel load cost for "cannot be loaded" (unmaterialized or stale).
/// Far above any real cost (≈ 13 days in µs) yet far below the solver's
/// mandatory-project big-M, so the two never interfere.
pub const LOAD_INFEASIBLE_US: u64 = 1 << 40;

/// Per-node inputs to the optimizer, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCosts {
    /// Estimated cost to compute this node from its (available) parents.
    pub compute_us: u64,
    /// Estimated cost to load this node, or `None` when no valid
    /// materialization exists.
    pub load_us: Option<u64>,
}

impl NodeCosts {
    /// The effective load cost fed to the reduction.
    fn load_or_inf(&self) -> u64 {
        match self.load_us {
            Some(l) => l.min(LOAD_INFEASIBLE_US - 1),
            None => LOAD_INFEASIBLE_US,
        }
    }
}

/// The state assigned to a node by the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Read the materialized result from the store.
    Load,
    /// Execute the operator on its parents' results.
    Compute,
    /// Skip entirely: no descendant needs this node's result.
    Prune,
}

/// Which algorithm picks the states — the paper's optimum plus the
/// baselines used by `helix-baselines` and the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecomputationPolicy {
    /// The PSP/min-cut optimum (Helix).
    #[default]
    Optimal,
    /// Recompute every active node (KeystoneML-style, no cross-iteration
    /// reuse).
    ComputeAll,
    /// Load whatever has a valid materialization, compute the rest
    /// (DeepDive-style greedy reuse; never prunes redundant ancestors'
    /// compute when loads make them unnecessary — wait, it does: ancestors
    /// of loaded nodes still not needed are pruned by a reachability pass).
    LoadAllAvailable,
}

/// Computes states for the active subgraph.
///
/// `active[i]` marks nodes surviving program slicing; inactive nodes are
/// assigned [`NodeState::Prune`] unconditionally. `outputs` must be active.
///
/// # Errors
/// Propagates cycle errors; rejects inactive outputs.
pub fn plan_states(
    workflow: &Workflow,
    active: &[bool],
    costs: &[NodeCosts],
    policy: RecomputationPolicy,
) -> Result<Vec<NodeState>> {
    let n = workflow.len();
    assert_eq!(active.len(), n, "active mask length mismatch");
    assert_eq!(costs.len(), n, "costs length mismatch");
    for output in workflow.outputs() {
        if !active[output.index()] {
            return Err(crate::HelixError::Compile(format!(
                "output `{}` was sliced away",
                workflow.node(*output).name
            )));
        }
    }
    match policy {
        RecomputationPolicy::Optimal => plan_optimal(workflow, active, costs),
        RecomputationPolicy::ComputeAll => Ok(plan_compute_all(workflow, active)),
        RecomputationPolicy::LoadAllAvailable => Ok(plan_load_all(workflow, active, costs)),
    }
}

fn plan_optimal(
    workflow: &Workflow,
    active: &[bool],
    costs: &[NodeCosts],
) -> Result<Vec<NodeState>> {
    let n = workflow.len();
    let mut psp = ProjectSelection::new();
    // Project ids: a_i = 2*i, b_i = 2*i + 1 (inactive nodes get dummy
    // never-selected projects to keep indexing simple).
    let is_output = {
        let mut mask = vec![false; n];
        for o in workflow.outputs() {
            mask[o.index()] = true;
        }
        mask
    };
    for i in 0..n {
        if !active[i] {
            // Dummy projects with strongly negative profit.
            psp.add_project(Project::new(-(LOAD_INFEASIBLE_US as i64)));
            psp.add_project(Project::new(-(LOAD_INFEASIBLE_US as i64)));
            continue;
        }
        let l = costs[i].load_or_inf() as i64;
        let c = costs[i].compute_us as i64;
        let a = if is_output[i] {
            Project::mandatory(-l)
        } else {
            Project::new(-l)
        };
        psp.add_project(a);
        psp.add_project(Project::new(l - c));
    }
    for (i, node) in workflow.nodes().iter().enumerate() {
        if !active[i] {
            continue;
        }
        let b = 2 * i + 1;
        psp.require(b, 2 * i);
        for parent in &node.parents {
            psp.require(b, 2 * parent.index());
        }
    }
    let solution = psp.solve();
    let mut states = Vec::with_capacity(n);
    for (i, &is_active) in active.iter().enumerate().take(n) {
        let state = if !is_active {
            NodeState::Prune
        } else if solution.selected[2 * i + 1] {
            NodeState::Compute
        } else if solution.selected[2 * i] {
            NodeState::Load
        } else {
            NodeState::Prune
        };
        states.push(state);
    }
    Ok(states)
}

fn plan_compute_all(workflow: &Workflow, active: &[bool]) -> Vec<NodeState> {
    (0..workflow.len())
        .map(|i| {
            if active[i] {
                NodeState::Compute
            } else {
                NodeState::Prune
            }
        })
        .collect()
}

/// Load every loadable node; compute the rest; then prune nodes nothing
/// depends on (ancestors fully shadowed by loads).
fn plan_load_all(workflow: &Workflow, active: &[bool], costs: &[NodeCosts]) -> Vec<NodeState> {
    let n = workflow.len();
    let mut states: Vec<NodeState> = (0..n)
        .map(|i| {
            if !active[i] {
                NodeState::Prune
            } else if costs[i].load_us.is_some() {
                NodeState::Load
            } else {
                NodeState::Compute
            }
        })
        .collect();
    // A node is needed if it is an output, or a parent of a needed Compute
    // node. Walk backwards from outputs.
    let mut needed = vec![false; n];
    let mut stack: Vec<NodeId> = workflow.outputs().to_vec();
    while let Some(id) = stack.pop() {
        let i = id.index();
        if needed[i] {
            continue;
        }
        needed[i] = true;
        if states[i] == NodeState::Compute {
            stack.extend(workflow.node(id).parents.iter().copied());
        }
    }
    for i in 0..n {
        if !needed[i] {
            states[i] = NodeState::Prune;
        }
    }
    states
}

/// Per-node downstream critical-path estimate in µs: the node's own cost
/// plus the most expensive chain of *compute* descendants hanging off it
/// (`0` for pruned nodes). A node with a deep or expensive tail is the
/// one to start first — the ready-queue scheduler uses these as pop
/// priorities when more than one node is ready (see `crate::scheduler`).
/// Load children do not extend a parent's path: they read the store, not the
/// parent's output.
pub fn critical_path_priority_us(
    workflow: &Workflow,
    states: &[NodeState],
    costs: &[NodeCosts],
) -> Vec<u64> {
    let n = workflow.len();
    assert_eq!(states.len(), n, "states length mismatch");
    assert_eq!(costs.len(), n, "costs length mismatch");
    let children = workflow.children();
    let order = workflow
        .topo_order()
        .unwrap_or_else(|_| (0..n as u32).map(NodeId).collect());
    let mut priority = vec![0u64; n];
    for id in order.iter().rev() {
        let i = id.index();
        let own = match states[i] {
            NodeState::Prune => continue,
            NodeState::Compute => costs[i].compute_us,
            NodeState::Load => costs[i].load_us.unwrap_or(1),
        };
        let tail = children[i]
            .iter()
            .filter(|c| states[c.index()] == NodeState::Compute)
            .map(|c| priority[c.index()])
            .max()
            .unwrap_or(0);
        priority[i] = own.saturating_add(tail);
    }
    priority
}

/// Total plan cost in µs under the given states (∞-loads count as the
/// sentinel; used by tests and the ablation benches).
pub fn plan_cost_us(states: &[NodeState], costs: &[NodeCosts]) -> u64 {
    states
        .iter()
        .zip(costs)
        .map(|(s, c)| match s {
            NodeState::Compute => c.compute_us,
            NodeState::Load => c.load_or_inf(),
            NodeState::Prune => 0,
        })
        .sum()
}

/// Checks plan feasibility: outputs available, computed nodes have
/// available parents, loads only where a materialization exists.
pub fn validate_plan(
    workflow: &Workflow,
    states: &[NodeState],
    costs: &[NodeCosts],
) -> std::result::Result<(), String> {
    for output in workflow.outputs() {
        if states[output.index()] == NodeState::Prune {
            return Err(format!("output `{}` pruned", workflow.node(*output).name));
        }
    }
    for (i, node) in workflow.nodes().iter().enumerate() {
        match states[i] {
            NodeState::Compute => {
                for parent in &node.parents {
                    if states[parent.index()] == NodeState::Prune {
                        return Err(format!(
                            "`{}` computed but parent `{}` pruned",
                            node.name,
                            workflow.node(*parent).name
                        ));
                    }
                }
            }
            NodeState::Load => {
                if costs[i].load_us.is_none() {
                    return Err(format!("`{}` loaded without materialization", node.name));
                }
            }
            NodeState::Prune => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OperatorKind;
    use crate::workflow::{NodeRef, Workflow};

    /// Builds a workflow shaped like a random DAG using inert UDF nodes
    /// (the optimizer never executes anything, it only needs shape).
    fn dag_workflow(n: usize, edges: &[(usize, usize)], outputs: &[usize]) -> Workflow {
        let mut w = Workflow::new("t");
        let mut refs: Vec<NodeRef> = Vec::new();
        for i in 0..n {
            let parents: Vec<&NodeRef> = edges
                .iter()
                .filter(|&&(_, dst)| dst == i)
                .map(|&(src, _)| &refs[src])
                .collect();
            let udf = crate::ops::Udf::new("v1", |inputs: &[&helix_dataflow::DataCollection]| {
                Ok(inputs.first().map(|dc| (*dc).clone()).unwrap_or_else(|| {
                    helix_dataflow::DataCollection::empty(helix_dataflow::Schema::of(&[]))
                }))
            });
            let r = w
                .add(format!("n{i}"), OperatorKind::UserDefined(udf), &parents)
                .unwrap();
            refs.push(r);
        }
        for &o in outputs {
            let r = refs[o];
            w.output(&r);
        }
        w
    }

    fn all_active(w: &Workflow) -> Vec<bool> {
        vec![true; w.len()]
    }

    /// Brute force over all 3^n assignments (feasible ones only).
    fn brute_force(w: &Workflow, costs: &[NodeCosts]) -> u64 {
        let n = w.len();
        assert!(n <= 10);
        let mut best = u64::MAX;
        let mut states = vec![NodeState::Prune; n];
        fn rec(
            w: &Workflow,
            costs: &[NodeCosts],
            states: &mut Vec<NodeState>,
            i: usize,
            best: &mut u64,
        ) {
            if i == states.len() {
                if validate_plan(w, states, costs).is_ok() {
                    *best = (*best).min(plan_cost_us(states, costs));
                }
                return;
            }
            for s in [NodeState::Load, NodeState::Compute, NodeState::Prune] {
                // Skip infeasible loads early.
                if s == NodeState::Load && costs[i].load_us.is_none() {
                    continue;
                }
                states[i] = s;
                rec(w, costs, states, i + 1, best);
            }
            states[i] = NodeState::Prune;
        }
        rec(w, costs, &mut states, 0, &mut best);
        best
    }

    #[test]
    fn chain_prefers_loading_cheap_tail() {
        // a -> b -> c (output). c materialized & cheap to load: optimal is
        // load c, prune a and b.
        let w = dag_workflow(3, &[(0, 1), (1, 2)], &[2]);
        let costs = vec![
            NodeCosts {
                compute_us: 100,
                load_us: None,
            },
            NodeCosts {
                compute_us: 100,
                load_us: None,
            },
            NodeCosts {
                compute_us: 100,
                load_us: Some(10),
            },
        ];
        let states =
            plan_states(&w, &all_active(&w), &costs, RecomputationPolicy::Optimal).unwrap();
        assert_eq!(
            states,
            vec![NodeState::Prune, NodeState::Prune, NodeState::Load]
        );
    }

    #[test]
    fn expensive_load_recomputes_instead() {
        // Loading the output costs more than recomputing the whole chain.
        let w = dag_workflow(3, &[(0, 1), (1, 2)], &[2]);
        let costs = vec![
            NodeCosts {
                compute_us: 10,
                load_us: None,
            },
            NodeCosts {
                compute_us: 10,
                load_us: None,
            },
            NodeCosts {
                compute_us: 10,
                load_us: Some(1_000),
            },
        ];
        let states =
            plan_states(&w, &all_active(&w), &costs, RecomputationPolicy::Optimal).unwrap();
        assert_eq!(states, vec![NodeState::Compute; 3]);
    }

    #[test]
    fn paper_counterexample_keeps_shared_parent() {
        // The §2.2 example: loading n_i would prune ancestor n_j, but n_j
        // has another child n_k with huge load cost, so the optimum keeps
        // n_j computed and computes n_k from it.
        //   j -> i (output), j -> k (output)
        let w = dag_workflow(3, &[(0, 1), (0, 2)], &[1, 2]);
        let costs = vec![
            // n_j: moderately expensive to compute, no materialization.
            NodeCosts {
                compute_us: 50,
                load_us: None,
            },
            // n_i: cheap to load.
            NodeCosts {
                compute_us: 40,
                load_us: Some(5),
            },
            // n_k: load far pricier than compute (l_k >> c_k).
            NodeCosts {
                compute_us: 20,
                load_us: Some(10_000),
            },
        ];
        let states =
            plan_states(&w, &all_active(&w), &costs, RecomputationPolicy::Optimal).unwrap();
        assert_eq!(states[0], NodeState::Compute, "shared parent must stay");
        assert_eq!(states[1], NodeState::Load);
        assert_eq!(states[2], NodeState::Compute);
    }

    #[test]
    fn diamond_matches_brute_force() {
        let w = dag_workflow(4, &[(0, 1), (0, 2), (1, 3), (2, 3)], &[3]);
        let costs = vec![
            NodeCosts {
                compute_us: 30,
                load_us: Some(25),
            },
            NodeCosts {
                compute_us: 50,
                load_us: Some(10),
            },
            NodeCosts {
                compute_us: 70,
                load_us: None,
            },
            NodeCosts {
                compute_us: 20,
                load_us: Some(200),
            },
        ];
        let states =
            plan_states(&w, &all_active(&w), &costs, RecomputationPolicy::Optimal).unwrap();
        validate_plan(&w, &states, &costs).unwrap();
        assert_eq!(plan_cost_us(&states, &costs), brute_force(&w, &costs));
    }

    #[test]
    fn inactive_nodes_always_pruned() {
        let w = dag_workflow(3, &[(0, 1)], &[1]);
        let mut active = all_active(&w);
        active[2] = false;
        let costs = vec![
            NodeCosts {
                compute_us: 1,
                load_us: None
            };
            3
        ];
        for policy in [
            RecomputationPolicy::Optimal,
            RecomputationPolicy::ComputeAll,
            RecomputationPolicy::LoadAllAvailable,
        ] {
            let states = plan_states(&w, &active, &costs, policy).unwrap();
            assert_eq!(states[2], NodeState::Prune, "{policy:?}");
        }
    }

    #[test]
    fn compute_all_never_loads() {
        let w = dag_workflow(3, &[(0, 1), (1, 2)], &[2]);
        let costs = vec![
            NodeCosts {
                compute_us: 10,
                load_us: Some(1)
            };
            3
        ];
        let states =
            plan_states(&w, &all_active(&w), &costs, RecomputationPolicy::ComputeAll).unwrap();
        assert_eq!(states, vec![NodeState::Compute; 3]);
    }

    #[test]
    fn load_all_prunes_shadowed_ancestors() {
        let w = dag_workflow(3, &[(0, 1), (1, 2)], &[2]);
        let costs = vec![
            NodeCosts {
                compute_us: 10,
                load_us: None,
            },
            NodeCosts {
                compute_us: 10,
                load_us: None,
            },
            NodeCosts {
                compute_us: 10,
                load_us: Some(10_000),
            },
        ];
        // Greedy loads node 2 even though recomputing would be cheaper,
        // then prunes its ancestors — exactly DeepDive's behaviour.
        let states = plan_states(
            &w,
            &all_active(&w),
            &costs,
            RecomputationPolicy::LoadAllAvailable,
        )
        .unwrap();
        assert_eq!(
            states,
            vec![NodeState::Prune, NodeState::Prune, NodeState::Load]
        );
    }

    #[test]
    fn pruned_output_detected() {
        let w = dag_workflow(2, &[(0, 1)], &[1]);
        let mut active = all_active(&w);
        active[1] = false;
        let costs = vec![
            NodeCosts {
                compute_us: 1,
                load_us: None
            };
            2
        ];
        assert!(plan_states(&w, &active, &costs, RecomputationPolicy::Optimal).is_err());
    }

    #[test]
    fn critical_path_priorities_favor_deep_chains() {
        // 0 -> 1 -> 2 (deep chain) and 3 (shallow, expensive-ish): the
        // chain head must outrank the standalone node even though its own
        // cost is smaller, because its downstream tail dominates.
        let w = dag_workflow(4, &[(0, 1), (1, 2)], &[2, 3]);
        let states = vec![NodeState::Compute; 4];
        let costs: Vec<NodeCosts> = [10, 50, 40, 60]
            .iter()
            .map(|&c| NodeCosts {
                compute_us: c,
                load_us: None,
            })
            .collect();
        let prio = critical_path_priority_us(&w, &states, &costs);
        assert_eq!(prio, vec![100, 90, 40, 60]);
        assert!(prio[0] > prio[3], "chain head beats shallow node");
    }

    #[test]
    fn critical_path_priorities_skip_prunes_and_load_children() {
        // 0 -> 1 -> 2 with node 1 loaded: the load severs node 0's tail
        // (a Load never consumes its parent's output), and a pruned node
        // contributes nothing.
        let w = dag_workflow(4, &[(0, 1), (1, 2), (0, 3)], &[2]);
        let states = vec![
            NodeState::Compute,
            NodeState::Load,
            NodeState::Compute,
            NodeState::Prune,
        ];
        let costs: Vec<NodeCosts> = [10, 5, 40, 99]
            .iter()
            .map(|&c| NodeCosts {
                compute_us: c,
                load_us: Some(7),
            })
            .collect();
        let prio = critical_path_priority_us(&w, &states, &costs);
        assert_eq!(prio[3], 0, "pruned nodes carry no priority");
        assert_eq!(prio[1], 7 + 40, "load cost plus compute tail");
        assert_eq!(prio[0], 10, "load child does not extend the parent");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// (node count, forward edges, per-node (compute, load) costs).
        type ArbInstance = (usize, Vec<(usize, usize)>, Vec<(u64, Option<u64>)>);

        fn arb_instance() -> impl Strategy<Value = ArbInstance> {
            (2usize..8).prop_flat_map(|n| {
                let edges = proptest::collection::vec((0..n, 0..n), 0..12).prop_map(move |pairs| {
                    pairs
                        .into_iter()
                        .filter(|&(a, b)| a < b)
                        .collect::<Vec<_>>()
                });
                let costs =
                    proptest::collection::vec((1u64..200, proptest::option::of(1u64..200)), n);
                (Just(n), edges, costs)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The min-cut plan is always feasible and exactly matches the
            /// exhaustive optimum on random DAGs.
            #[test]
            fn optimal_matches_brute_force((n, edges, raw_costs) in arb_instance()) {
                // Every sink is an output; ensures at least one output.
                let has_child: Vec<bool> = (0..n)
                    .map(|i| edges.iter().any(|&(src, _)| src == i))
                    .collect();
                let outputs: Vec<usize> =
                    (0..n).filter(|&i| !has_child[i]).collect();
                let w = dag_workflow(n, &edges, &outputs);
                let costs: Vec<NodeCosts> = raw_costs
                    .iter()
                    .map(|&(c, l)| NodeCosts { compute_us: c, load_us: l })
                    .collect();
                let states = plan_states(
                    &w,
                    &vec![true; n],
                    &costs,
                    RecomputationPolicy::Optimal,
                ).unwrap();
                prop_assert!(validate_plan(&w, &states, &costs).is_ok());
                prop_assert_eq!(
                    plan_cost_us(&states, &costs),
                    brute_force(&w, &costs)
                );
            }

            /// Baselines are feasible and never beat the optimum.
            #[test]
            fn baselines_feasible_and_dominated((n, edges, raw_costs) in arb_instance()) {
                let has_child: Vec<bool> = (0..n)
                    .map(|i| edges.iter().any(|&(src, _)| src == i))
                    .collect();
                let outputs: Vec<usize> = (0..n).filter(|&i| !has_child[i]).collect();
                let w = dag_workflow(n, &edges, &outputs);
                let costs: Vec<NodeCosts> = raw_costs
                    .iter()
                    .map(|&(c, l)| NodeCosts { compute_us: c, load_us: l })
                    .collect();
                let optimal = plan_states(&w, &vec![true; n], &costs, RecomputationPolicy::Optimal).unwrap();
                let opt_cost = plan_cost_us(&optimal, &costs);
                for policy in [RecomputationPolicy::ComputeAll, RecomputationPolicy::LoadAllAvailable] {
                    let states = plan_states(&w, &vec![true; n], &costs, policy).unwrap();
                    prop_assert!(validate_plan(&w, &states, &costs).is_ok(), "{:?}", policy);
                    prop_assert!(plan_cost_us(&states, &costs) >= opt_cost, "{:?}", policy);
                }
            }
        }
    }
}
