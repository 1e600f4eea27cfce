//! DAG visualization: Graphviz DOT, ASCII plans, and version diffs.
//!
//! Mirrors the demo's visual vocabulary (Fig. 1b): data-pre-processing
//! operators purple, ML orange, evaluation green; pruned operators grayed
//! out; loaded nodes marked with a left "drum", materialized nodes with a
//! right one (rendered as `[disk→]` / `[→disk]` in text).

use crate::ops::Stage;
use crate::recompute::NodeState;
use crate::report::IterationReport;
use crate::version::VersionDiff;
use crate::workflow::Workflow;
use std::fmt::Write as _;

/// Per-node execution annotations for rendering.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeAnnotation {
    /// Plan state, if a plan exists.
    pub state: Option<NodeState>,
    /// Whether the node was materialized this iteration.
    pub materialized: bool,
}

fn stage_color(stage: Stage) -> &'static str {
    match stage {
        Stage::DataPreProcessing => "#9467bd", // purple
        Stage::MachineLearning => "#ff7f0e",   // orange
        Stage::Evaluation => "#2ca02c",        // green
    }
}

/// Renders the workflow as Graphviz DOT, optionally annotated with plan
/// states (pruned nodes gray, loads/materializations marked).
pub fn to_dot(workflow: &Workflow, annotations: Option<&[NodeAnnotation]>) -> String {
    let mut dot = String::from("digraph helix {\n  rankdir=TB;\n  node [shape=box, style=filled, fontname=\"Helvetica\"];\n");
    for (i, node) in workflow.nodes().iter().enumerate() {
        let ann = annotations
            .and_then(|a| a.get(i))
            .copied()
            .unwrap_or_default();
        let pruned = ann.state == Some(NodeState::Prune);
        let color = if pruned {
            "#d3d3d3"
        } else {
            stage_color(node.kind.stage())
        };
        let mut label = node.name.clone();
        match ann.state {
            Some(NodeState::Load) => label.push_str("\\n[disk→]"),
            Some(NodeState::Compute) if ann.materialized => label.push_str("\\n[→disk]"),
            _ => {}
        }
        let _ = writeln!(
            dot,
            "  n{i} [label=\"{label}\", fillcolor=\"{color}\"{}];",
            if pruned {
                ", fontcolor=\"#777777\""
            } else {
                ""
            }
        );
    }
    for (i, node) in workflow.nodes().iter().enumerate() {
        for parent in &node.parents {
            let _ = writeln!(dot, "  n{} -> n{i};", parent.index());
        }
    }
    for output in workflow.outputs() {
        let _ = writeln!(dot, "  n{} [peripheries=2];", output.index());
    }
    dot.push_str("}\n");
    dot
}

/// Renders an executed plan as fixed-width text, one node per line in
/// topological order — the CLI stand-in for the demo's DAG pane.
pub fn ascii_plan(workflow: &Workflow, report: &IterationReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:<8} {:<22} {:>10} {:>12}  flags",
        "node", "stage", "state", "secs", "bytes"
    );
    let order = workflow.topo_order().unwrap_or_else(|_| {
        (0..workflow.len())
            .map(|i| crate::workflow::NodeId(i as u32))
            .collect()
    });
    for id in order {
        let node = workflow.node(id);
        let Some(nr) = report.nodes.get(id.index()) else {
            continue;
        };
        let stage = match node.kind.stage() {
            Stage::DataPreProcessing => "prep",
            Stage::MachineLearning => "ml",
            Stage::Evaluation => "eval",
        };
        let state = match nr.state {
            NodeState::Load => "load [disk→]",
            NodeState::Compute => "compute",
            NodeState::Prune => "prune (grayed out)",
        };
        let mut flags = String::new();
        if nr.materialized {
            flags.push_str("[→disk] ");
        }
        let _ = writeln!(
            out,
            "{:<24} {:<8} {:<22} {:>10.4} {:>12}  {}",
            node.name, stage, state, nr.duration_secs, nr.output_bytes, flags
        );
    }
    out
}

/// Renders a git-log-style version history (the Versions tab).
pub fn version_log(store: &crate::version::VersionStore) -> String {
    let mut out = String::new();
    let best_acc = store.best_by_metric("accuracy").map(|v| v.id);
    for v in store.all().iter().rev() {
        let mut badges = String::new();
        if let Some(session) = &v.session {
            badges.push_str(&format!(" [{session}]"));
        }
        if Some(v.id) == best_acc {
            badges.push_str(" (best accuracy)");
        }
        if Some(v.id) == store.latest().map(|l| l.id) {
            badges.push_str(" (latest)");
        }
        let metrics: Vec<String> = v
            .metrics
            .iter()
            .map(|(m, x)| format!("{m}={x:.4}"))
            .collect();
        let _ = writeln!(
            out,
            "version {}{badges}\n  runtime: {:.3}s  {}\n  changes: {}\n",
            v.id,
            v.total_secs,
            metrics.join("  "),
            v.change_summary
        );
    }
    out
}

/// Renders a version diff with git-style +/−/~ markers (the comparison
/// view of Fig. 3).
pub fn diff_text(diff: &VersionDiff) -> String {
    if diff.is_empty() {
        return "no structural changes\n".to_string();
    }
    let mut out = String::new();
    for name in &diff.added {
        let _ = writeln!(out, "+ {name}");
    }
    for name in &diff.removed {
        let _ = writeln!(out, "- {name}");
    }
    for (name, old, new) in &diff.changed {
        let _ = writeln!(out, "~ {name}\n  - {old}\n  + {new}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{ExtractorKind, LearnerSpec};
    use crate::report::NodeReport;
    use crate::signature::ChangeKind;
    use crate::version::VersionStore;

    fn workflow() -> Workflow {
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
        let preds = w.learner("preds", &income, LearnerSpec::default()).unwrap();
        w.output(&preds);
        w
    }

    fn full_report(w: &Workflow) -> IterationReport {
        IterationReport {
            iteration: 0,
            workflow_name: "t".into(),
            snapshot: std::sync::Arc::new(crate::version::DagSnapshot::capture(w)),
            session: Some("viz".into()),
            change_summary: "initial".into(),
            total_secs: 1.0,
            optimizer_secs: 0.0,
            materialize_secs: 0.0,
            nodes: w
                .nodes()
                .iter()
                .enumerate()
                .map(|(i, n)| NodeReport {
                    name: n.name.clone(),
                    stage: n.kind.stage(),
                    state: if i == 0 {
                        NodeState::Load
                    } else {
                        NodeState::Compute
                    },
                    change: ChangeKind::Unchanged,
                    duration_secs: 0.1,
                    output_bytes: 123,
                    materialized: i == 1,
                    chunks_loaded: 0,
                    decision_source: crate::memo::DecisionSource::Estimate,
                })
                .collect(),
            metrics: vec![("accuracy".into(), 0.9)],
        }
    }

    #[test]
    fn dot_contains_nodes_edges_and_colors() {
        let w = workflow();
        let dot = to_dot(&w, None);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("preds__model"));
        assert!(dot.contains("->"));
        assert!(dot.contains("#ff7f0e"), "ML nodes colored orange");
        assert!(dot.contains("#9467bd"), "prep nodes colored purple");
        assert!(dot.contains("peripheries=2"), "outputs double-bordered");
    }

    #[test]
    fn dot_annotations_mark_states() {
        let w = workflow();
        let mut anns = vec![NodeAnnotation::default(); w.len()];
        anns[0].state = Some(NodeState::Load);
        anns[1].state = Some(NodeState::Compute);
        anns[1].materialized = true;
        anns[2].state = Some(NodeState::Prune);
        let dot = to_dot(&w, Some(&anns));
        assert!(dot.contains("[disk→]"));
        assert!(dot.contains("[→disk]"));
        assert!(dot.contains("#d3d3d3"), "pruned node grayed");
    }

    #[test]
    fn ascii_plan_lists_all_nodes() {
        let w = workflow();
        let text = ascii_plan(&w, &full_report(&w));
        for node in w.nodes() {
            assert!(text.contains(&node.name), "missing {}", node.name);
        }
        assert!(text.contains("load [disk→]"));
        assert!(text.contains("[→disk]"));
    }

    #[test]
    fn version_log_flags_best_and_latest() {
        let w = workflow();
        let mut vs = VersionStore::new();
        vs.record(&full_report(&w));
        let mut better = full_report(&w);
        better.metrics = vec![("accuracy".into(), 0.95)];
        better.change_summary = "improved".into();
        vs.record(&better);
        let log = version_log(&vs);
        assert!(log.contains("(best accuracy)"));
        assert!(log.contains("(latest)"));
        assert!(log.contains("initial"));
        assert!(log.contains("[viz]"), "session attribution in the log");
    }

    #[test]
    fn diff_text_formats_markers() {
        let diff = VersionDiff {
            added: vec!["ms".into()],
            removed: vec!["race".into()],
            changed: vec![("model".into(), "reg=0.1".into(), "reg=0.9".into())],
        };
        let text = diff_text(&diff);
        assert!(text.contains("+ ms"));
        assert!(text.contains("- race"));
        assert!(text.contains("~ model"));
        assert_eq!(
            diff_text(&VersionDiff::default()),
            "no structural changes\n"
        );
    }
}
