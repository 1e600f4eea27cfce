//! The per-layer ledger: what the public fields of an iteration report say
//! about where one iteration's time went, summed over a pass.

use crate::stats;
use helix_core::ops::Stage;
use helix_core::{IterationReport, NodeState};
use helix_json::Json;

/// `(metric name, value)` pairs; names are those of `spec::PER_LAYER`.
pub type Metrics = Vec<(&'static str, f64)>;

/// The public timing and reuse fields of one iteration report, from the
/// in-process report or from its wire form.
#[derive(Debug, Clone, Default)]
pub struct IterSummary {
    /// Iteration counter the engine reported.
    pub iteration: usize,
    /// `total_secs`.
    pub total_s: f64,
    /// `optimizer_secs`.
    pub optimizer_s: f64,
    /// `materialize_secs`.
    pub materialize_s: f64,
    /// Summed duration of computed nodes.
    pub compute_busy_s: f64,
    /// Summed duration of loaded nodes.
    pub load_busy_s: f64,
    /// Node seconds per stage: DPR, L/I, PPR.
    pub stage_busy_s: [f64; 3],
    /// Node seconds in `train` operators.
    pub train_busy_s: f64,
    /// Node seconds in user-defined (NLP) operators.
    pub udf_busy_s: f64,
    /// Longest single node.
    pub top_node_s: f64,
    /// Nodes loaded / computed / pruned / newly materialized.
    pub loaded: usize,
    /// See `loaded`.
    pub computed: usize,
    /// See `loaded`.
    pub pruned: usize,
    /// See `loaded`.
    pub materialized: usize,
    /// Data-chunk partitions served from the store.
    pub chunks_reused: usize,
    /// Metric values the iteration's Evaluate nodes produced.
    pub metrics: Vec<(String, f64)>,
}

/// `Workflow::learner` names its training node `<learner>__model`; the
/// wire report carries names but no operator tags.
const TRAIN_NODE_SUFFIX: &str = "__model";

impl IterSummary {
    /// Summarises an in-process report.
    pub fn from_report(report: &IterationReport) -> IterSummary {
        let mut s = IterSummary {
            iteration: report.iteration,
            total_s: report.total_secs,
            optimizer_s: report.optimizer_secs,
            materialize_s: report.materialize_secs,
            metrics: report.metrics.clone(),
            ..IterSummary::default()
        };
        for (node, def) in report.nodes.iter().zip(&report.snapshot.nodes) {
            s.add_node(
                node.stage,
                node.state,
                node.duration_secs,
                node.materialized,
                node.chunks_loaded,
                def.tag == "train",
                def.tag.ends_with("udf"),
            );
        }
        s
    }

    /// Summarises the body of a `POST .../iterate` reply; `None` when a
    /// field the ledger needs is missing or mistyped.
    pub fn from_wire(body: &Json) -> Option<IterSummary> {
        let num = |key: &str| body.get(key).and_then(Json::as_f64);
        let mut s = IterSummary {
            iteration: body.get("iteration")?.as_u64()? as usize,
            total_s: num("total_secs")?,
            optimizer_s: num("optimizer_secs")?,
            materialize_s: num("materialize_secs")?,
            metrics: body
                .get("metrics")?
                .as_object()?
                .iter()
                .map(|(name, value)| Some((name.clone(), value.as_f64()?)))
                .collect::<Option<_>>()?,
            ..IterSummary::default()
        };
        for node in body.get("nodes")?.as_array()? {
            let state = match node.get("state")?.as_str()? {
                "load" => NodeState::Load,
                "compute" => NodeState::Compute,
                "prune" => NodeState::Prune,
                _ => return None,
            };
            s.add_node(
                Stage::from_name(node.get("stage")?.as_str()?)?,
                state,
                node.get("duration_secs")?.as_f64()?,
                node.get("materialized")?.as_bool()?,
                node.get("chunks_loaded")?.as_u64()? as usize,
                node.get("name")?.as_str()?.ends_with(TRAIN_NODE_SUFFIX),
                false,
            );
        }
        Some(s)
    }

    #[allow(clippy::too_many_arguments)]
    fn add_node(
        &mut self,
        stage: Stage,
        state: NodeState,
        secs: f64,
        materialized: bool,
        chunks: usize,
        is_train: bool,
        is_udf: bool,
    ) {
        match state {
            NodeState::Prune => {
                self.pruned += 1;
                return;
            }
            NodeState::Load => {
                self.loaded += 1;
                self.load_busy_s += secs;
            }
            NodeState::Compute => {
                self.computed += 1;
                self.compute_busy_s += secs;
                if is_train {
                    self.train_busy_s += secs;
                }
                if is_udf {
                    self.udf_busy_s += secs;
                }
            }
        }
        let stage = match stage {
            Stage::DataPreProcessing => 0,
            Stage::MachineLearning => 1,
            Stage::Evaluation => 2,
        };
        self.stage_busy_s[stage] += secs;
        self.top_node_s = self.top_node_s.max(secs);
        self.materialized += materialized as usize;
        self.chunks_reused += chunks;
    }

    /// Share of `total_secs` no public field accounts for.
    fn unattributed_s(&self) -> f64 {
        self.total_s
            - (self.optimizer_s + self.compute_busy_s + self.load_busy_s + self.materialize_s)
    }
}

/// The ledger of one pass: report fields summed over its iterations.
pub fn pass_ledger(iters: &[IterSummary]) -> Metrics {
    let sum = |f: fn(&IterSummary) -> f64| iters.iter().map(f).sum::<f64>();
    let count = |f: fn(&IterSummary) -> usize| iters.iter().map(f).sum::<usize>() as f64;
    let busy = sum(|i| i.compute_busy_s + i.load_busy_s);
    let loaded = count(|i| i.loaded);
    let computed = count(|i| i.computed);
    vec![
        ("engine.optimizer_s", sum(|i| i.optimizer_s)),
        ("engine.exec_busy_s", sum(|i| i.compute_busy_s)),
        ("engine.load_busy_s", sum(|i| i.load_busy_s)),
        ("engine.materialize_s", sum(|i| i.materialize_s)),
        ("exec.dpr_busy_s", sum(|i| i.stage_busy_s[0])),
        ("exec.li_busy_s", sum(|i| i.stage_busy_s[1])),
        ("exec.ppr_busy_s", sum(|i| i.stage_busy_s[2])),
        ("exec.top_node_share", ratio(sum(|i| i.top_node_s), busy)),
        ("ml.train_busy_s", sum(|i| i.train_busy_s)),
        ("nlp.udf_busy_s", sum(|i| i.udf_busy_s)),
        ("store.hit_share", ratio(loaded, loaded + computed)),
        ("store.chunks_reused", count(|i| i.chunks_reused)),
        (
            "materialize.stored_share",
            ratio(count(|i| i.materialized), computed),
        ),
        (
            "materialize.write_s",
            iters.first().map_or(0.0, |i| i.materialize_s),
        ),
    ]
}

/// `1 − Σ(known) ÷ total` over a pass: the residue of `total_secs` the
/// report cannot explain. Only meaningful at parallelism 1, where node
/// durations do not overlap.
pub fn unattributed_share(iters: &[IterSummary]) -> f64 {
    ratio(
        iters.iter().map(IterSummary::unattributed_s).sum(),
        iters.iter().map(|i| i.total_s).sum(),
    )
}

/// `num ÷ den`, 0 when the denominator is 0 (a bypassed layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median per name across several passes' metric lists.
pub fn median_by_name(passes: &[Metrics]) -> Metrics {
    let mut names: Vec<&'static str> = Vec::new();
    for (name, _) in passes.iter().flatten() {
        if !names.contains(name) {
            names.push(name);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = passes
                .iter()
                .flatten()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .collect();
            (name, stats::median(&values).unwrap_or(0.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iter(total: f64, opt: f64, compute: f64, load: f64, mat: f64) -> IterSummary {
        IterSummary {
            total_s: total,
            optimizer_s: opt,
            compute_busy_s: compute,
            load_busy_s: load,
            materialize_s: mat,
            ..IterSummary::default()
        }
    }

    #[test]
    fn unattributed_is_total_minus_known() {
        let iters = [iter(1.0, 0.1, 0.5, 0.1, 0.1), iter(1.0, 0.1, 0.6, 0.0, 0.1)];
        assert!((unattributed_share(&iters) - 0.2).abs() < 1e-12);
        assert_eq!(unattributed_share(&[]), 0.0);
    }

    #[test]
    fn wire_summary_reads_the_report_shape() {
        let body = Json::parse(
            r#"{"iteration":3,"total_secs":0.5,"optimizer_secs":0.1,"materialize_secs":0.05,
                "metrics":{"accuracy":0.75},
                "nodes":[
                 {"name":"rows","stage":"data-pre-processing","state":"load","duration_secs":0.1,"materialized":false,"chunks_loaded":0},
                 {"name":"predictions__model","stage":"machine-learning","state":"compute","duration_secs":0.2,"materialized":true,"chunks_loaded":2},
                 {"name":"race","stage":"data-pre-processing","state":"prune","duration_secs":0,"materialized":false,"chunks_loaded":0}]}"#,
        )
        .unwrap();
        let s = IterSummary::from_wire(&body).unwrap();
        assert_eq!((s.iteration, s.loaded, s.computed, s.pruned), (3, 1, 1, 1));
        assert_eq!(s.train_busy_s, 0.2);
        assert_eq!(s.stage_busy_s, [0.1, 0.2, 0.0]);
        assert_eq!((s.materialized, s.chunks_reused), (1, 2));
        assert_eq!(s.metrics, vec![("accuracy".to_string(), 0.75)]);
        assert!(IterSummary::from_wire(&Json::parse("{}").unwrap()).is_none());
    }

    #[test]
    fn median_by_name_keeps_first_seen_order() {
        let passes = vec![
            vec![("a", 1.0), ("b", 10.0)],
            vec![("a", 3.0), ("b", 30.0)],
            vec![("a", 2.0)],
        ];
        assert_eq!(median_by_name(&passes), vec![("a", 2.0), ("b", 20.0)]);
    }
}
