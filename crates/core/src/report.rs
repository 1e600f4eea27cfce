//! Per-iteration execution reports.

use crate::ops::Stage;
use crate::recompute::NodeState;
use crate::signature::ChangeKind;
use crate::version::DagSnapshot;
use std::sync::Arc;

/// What happened to one node during an iteration.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Node name.
    pub name: String,
    /// Workflow stage (for Fig.-2-style attribution).
    pub stage: Stage,
    /// Planned (and executed) state.
    pub state: NodeState,
    /// How the node differed from the previous version.
    pub change: ChangeKind,
    /// Wall-clock seconds spent computing or loading (0 for pruned).
    pub duration_secs: f64,
    /// Output size estimate in bytes (0 for pruned).
    pub output_bytes: u64,
    /// Whether the output was newly materialized this iteration.
    pub materialized: bool,
    /// Data-chunk partitions served from the store while computing this
    /// node (the incremental-data fast path; 0 for loads and chunk-free
    /// computes).
    pub chunks_loaded: usize,
    /// Where the node's planning cost came from: the name-keyed estimate,
    /// or per-signature observed history via the adaptive re-plan.
    pub decision_source: crate::memo::DecisionSource,
}

/// The result of executing one workflow iteration.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// 0-based iteration number within the lineage (session) that ran it.
    pub iteration: usize,
    /// Workflow name.
    pub workflow_name: String,
    /// Name of the session that ran the iteration, when one did (`None`
    /// for direct [`crate::Engine::run`] calls).
    pub session: Option<String>,
    /// One-line description of what changed since the previous iteration
    /// of this lineage: the session's typed edit log when edits were
    /// recorded, otherwise a summary derived from the signature diff.
    pub change_summary: String,
    /// End-to-end wall time, including optimization and store traffic.
    pub total_secs: f64,
    /// Seconds spent inside the compiler/optimizers.
    pub optimizer_secs: f64,
    /// Seconds spent writing materializations.
    pub materialize_secs: f64,
    /// Per-node details, in [`crate::workflow::NodeId`] index order —
    /// the primary execution record.
    pub nodes: Vec<NodeReport>,
    /// Metric values harvested from Evaluate nodes.
    pub metrics: Vec<(String, f64)>,
    /// The DAG as executed, captured once per run. Shared (`Arc`) with
    /// every version-history record of this iteration — the engine's
    /// global store and a session's private store hold the same
    /// allocation.
    pub snapshot: Arc<DagSnapshot>,
}

impl IterationReport {
    /// Nodes loaded from the store.
    pub fn loaded(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeState::Load)
            .count()
    }

    /// Nodes computed.
    pub fn computed(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeState::Compute)
            .count()
    }

    /// Nodes pruned (sliced away or shadowed by loads).
    pub fn pruned(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeState::Prune)
            .count()
    }

    /// Fraction of non-pruned nodes that were reused (loaded), the
    /// headline number behind Helix's near-zero post-processing iterations.
    pub fn reuse_rate(&self) -> f64 {
        let touched = self.loaded() + self.computed();
        if touched == 0 {
            return 0.0;
        }
        self.loaded() as f64 / touched as f64
    }

    /// Data-chunk partitions served from the store across all computed
    /// nodes — the upstream-reuse count of an incremental (data-delta)
    /// run. Zero when the dataset is new or every node loaded whole.
    pub fn chunks_reused(&self) -> usize {
        self.nodes.iter().map(|n| n.chunks_loaded).sum()
    }

    /// Total seconds of node execution work (the sum of per-node
    /// durations — CPU-time-like, not wall-clock when parallel).
    pub fn exec_secs(&self) -> f64 {
        self.nodes.iter().map(|n| n.duration_secs).sum()
    }

    /// Value of a named metric, if an Evaluate node produced it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m == name)
            .map(|(_, v)| *v)
    }

    /// Seconds attributed to a given workflow stage.
    pub fn stage_secs(&self, stage: Stage) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.stage == stage)
            .map(|n| n.duration_secs)
            .sum()
    }

    /// One-line summary for logs and the demo UI.
    pub fn summary(&self) -> String {
        format!(
            "iter {} [{}]: {:.3}s total ({} loaded, {} computed, {} pruned, reuse {:.0}%)",
            self.iteration,
            self.workflow_name,
            self.total_secs,
            self.loaded(),
            self.computed(),
            self.pruned(),
            self.reuse_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, state: NodeState, secs: f64, stage: Stage) -> NodeReport {
        NodeReport {
            name: name.into(),
            stage,
            state,
            change: ChangeKind::Unchanged,
            duration_secs: secs,
            output_bytes: 0,
            materialized: false,
            chunks_loaded: 0,
            decision_source: crate::memo::DecisionSource::Estimate,
        }
    }

    fn report() -> IterationReport {
        IterationReport {
            iteration: 3,
            workflow_name: "census".into(),
            snapshot: Arc::default(),
            session: Some("analyst".into()),
            change_summary: "no changes".into(),
            total_secs: 1.5,
            optimizer_secs: 0.01,
            materialize_secs: 0.2,
            nodes: vec![
                node("a", NodeState::Load, 0.1, Stage::DataPreProcessing),
                node("b", NodeState::Compute, 1.0, Stage::MachineLearning),
                node("c", NodeState::Prune, 0.0, Stage::DataPreProcessing),
                node("d", NodeState::Compute, 0.4, Stage::Evaluation),
            ],
            metrics: vec![("accuracy".into(), 0.83)],
        }
    }

    #[test]
    fn counts_and_reuse() {
        let r = report();
        assert_eq!(r.loaded(), 1);
        assert_eq!(r.computed(), 2);
        assert_eq!(r.pruned(), 1);
        assert!((r.reuse_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn metric_lookup() {
        let r = report();
        assert_eq!(r.metric("accuracy"), Some(0.83));
        assert_eq!(r.metric("f1"), None);
    }

    #[test]
    fn stage_attribution() {
        let r = report();
        assert!((r.stage_secs(Stage::DataPreProcessing) - 0.1).abs() < 1e-12);
        assert!((r.stage_secs(Stage::MachineLearning) - 1.0).abs() < 1e-12);
        assert!((r.stage_secs(Stage::Evaluation) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_counts() {
        let s = report().summary();
        assert!(s.contains("1 loaded"));
        assert!(s.contains("2 computed"));
        assert!(s.contains("census"));
    }

    #[test]
    fn empty_report_reuse_rate_is_zero() {
        let r = IterationReport {
            iteration: 0,
            workflow_name: "x".into(),
            snapshot: Arc::default(),
            session: None,
            change_summary: "initial version".into(),
            total_secs: 0.0,
            optimizer_secs: 0.0,
            materialize_secs: 0.0,
            nodes: vec![],
            metrics: vec![],
        };
        assert_eq!(r.reuse_rate(), 0.0);
        assert_eq!(r.exec_secs(), 0.0);
    }

    #[test]
    fn exec_secs_sums_node_durations() {
        let r = report();
        assert!((r.exec_secs() - 1.5).abs() < 1e-12, "sum of node durations");
    }
}
