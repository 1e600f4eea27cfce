//! Tight-budget twins: the Fig. 2(a) IE script under a storage budget of a
//! quarter of what materializing everything takes. The online rule then
//! wants more than fits, so it displaces stale residents for better
//! candidates (`materialize::Displacement`). Results must not move: every
//! iteration's metrics equal those of an engine that never stores and
//! recomputes everything, the store never exceeds its budget, and the
//! evaluation-only (PPR) edits load `predictions` instead of recomputing
//! the NLP chain above it.

use helix::core::{
    Engine, EngineConfig, IterationReport, MaterializationPolicyKind, NodeState,
    RecomputationPolicy, Session, Workflow,
};
use helix::workloads::ie::{ie_iterations, ie_workflow, IeParams};
use helix::workloads::iterations::IterationStage;
use helix::workloads::news::{generate_news, NewsDataSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Share of the materialize-everything footprint the engine may store.
const BUDGET_SHARE: f64 = 0.25;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-budget-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates a 60-document corpus and returns the script's workflows:
/// the initial version, then one per edit, with each edit's stage.
fn script(dir: &Path) -> Vec<(Option<IterationStage>, Workflow)> {
    generate_news(
        dir,
        &NewsDataSpec {
            docs: 60,
            ..Default::default()
        },
    )
    .unwrap();
    let mut params = IeParams::initial(dir);
    let mut workflows = vec![(None, ie_workflow(&params).unwrap())];
    for spec in ie_iterations() {
        (spec.apply)(&mut params);
        workflows.push((Some(spec.stage), ie_workflow(&params).unwrap()));
    }
    workflows
}

/// A quarter of the bytes the initial version stores when everything is
/// materialized.
fn tight_budget(dir: &Path, initial: &Workflow) -> u64 {
    let mut config = EngineConfig::helix(dir.join("footprint"));
    config.materialization = MaterializationPolicyKind::All;
    let engine = Engine::new(config).unwrap();
    engine.run(initial).unwrap();
    let footprint = engine.store().used_bytes();
    assert!(footprint > 0);
    (footprint as f64 * BUDGET_SHARE) as u64
}

/// Metrics of the unoptimized twin: recompute everything, store nothing.
fn twin_metrics(
    dir: &Path,
    workflows: &[(Option<IterationStage>, Workflow)],
) -> Vec<Vec<(String, f64)>> {
    let mut config = EngineConfig::helix(dir.join("twin"));
    config.recomputation = RecomputationPolicy::ComputeAll;
    config.materialization = MaterializationPolicyKind::Never;
    let engine = Engine::new(config).unwrap();
    workflows
        .iter()
        .map(|(_, w)| engine.run(w).unwrap().metrics)
        .collect()
}

/// Asserts a PPR iteration loads `predictions` and computes nothing
/// upstream of it.
fn assert_loads_predictions(workflow: &Workflow, report: &IterationReport) {
    let predictions = workflow.by_name("predictions").unwrap();
    assert_eq!(
        report.nodes[predictions.index()].state,
        NodeState::Load,
        "iteration {}: `predictions` is not loaded",
        report.iteration
    );
    for ancestor in workflow.ancestors(predictions) {
        let node = &report.nodes[ancestor.index()];
        assert_ne!(
            node.state,
            NodeState::Compute,
            "iteration {}: `{}` above a loaded `predictions` recomputed",
            report.iteration,
            node.name
        );
    }
}

fn run_script_under_a_tight_budget(tag: &str, parallelism: Option<usize>) {
    let dir = tmpdir(tag);
    let workflows = script(&dir);
    let budget = tight_budget(&dir, &workflows[0].1);
    let expected = twin_metrics(&dir, &workflows);

    let mut config = EngineConfig::helix(dir.join("store")).with_budget(budget);
    if let Some(threads) = parallelism {
        config = config.with_parallelism(threads);
    }
    let engine = Engine::new(config).unwrap();
    let mut ppr_edits = 0;
    for (k, (stage, workflow)) in workflows.iter().enumerate() {
        let report = engine.run(workflow).unwrap();
        assert_eq!(report.metrics, expected[k], "iteration {k} metrics");
        let used = engine.store().used_bytes();
        assert!(used <= budget, "iteration {k}: {used} > budget {budget}");
        if *stage == Some(IterationStage::Evaluation) {
            assert_loads_predictions(workflow, &report);
            ppr_edits += 1;
        }
    }
    assert_eq!(ppr_edits, 2, "the script has two PPR edits");
    assert!(
        engine.store().displaced_stats().entries > 0,
        "the budget binds, so something was displaced"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tight_budget_script_matches_the_unoptimized_twin_sequentially() {
    run_script_under_a_tight_budget("seq", Some(1));
}

#[test]
fn tight_budget_script_matches_the_unoptimized_twin_in_parallel() {
    run_script_under_a_tight_budget("par", None);
}

#[test]
fn concurrent_sessions_share_a_tight_budget() {
    let dir = tmpdir("sessions");
    let workflows = script(&dir);
    let budget = tight_budget(&dir, &workflows[0].1);
    let expected = twin_metrics(&dir, &workflows);
    let engine =
        Arc::new(Engine::new(EngineConfig::helix(dir.join("store")).with_budget(budget)).unwrap());

    std::thread::scope(|scope| {
        for name in ["alice", "bob"] {
            let engine = Arc::clone(&engine);
            let (workflows, expected) = (&workflows, &expected);
            scope.spawn(move || {
                let mut session = Session::new(engine, name, workflows[0].1.clone());
                for (k, (_, workflow)) in workflows.iter().enumerate() {
                    session.replace_workflow(workflow.clone());
                    let report = session
                        .iterate()
                        .unwrap_or_else(|err| panic!("{name}, iteration {k}: {err}"));
                    assert_eq!(report.metrics, expected[k], "{name}, iteration {k}");
                }
            });
        }
    });
    let used = engine.store().used_bytes();
    assert!(
        used <= budget,
        "sessions overshot the budget: {used} > {budget}"
    );
    assert_eq!(engine.versions().len(), 2 * workflows.len());
    let _ = std::fs::remove_dir_all(&dir);
}
