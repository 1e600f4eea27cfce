//! The active-learning loop as a first-class workload: fetch the
//! predictions the model is least sure about, have an oracle label a
//! fresh batch, feed the labels back as a data delta, and retrain.
//!
//! This is the paper's label-driven iteration pattern made concrete over
//! the Census application. Each round exercises the whole incremental
//! stack end to end: [`helix_core::Session::uncertain_examples`] ranks
//! the test split by distance from the decision boundary,
//! [`helix_core::Session::append_data`] durably appends the oracle's
//! labels to the training CSV, and the retraining iteration recomputes
//! only the partitions downstream of the appended chunk — unchanged
//! partitions come back from the store (visible as
//! `IterationReport::chunks_reused`).

use crate::census;
use helix_core::{Result, SessionHandle};

/// Loop settings.
#[derive(Debug, Clone)]
pub struct ActiveLearningSpec {
    /// Label-and-retrain rounds to run.
    pub rounds: usize,
    /// Uncertain candidates fetched — and labels returned — per round.
    pub batch: usize,
    /// Oracle RNG seed (each round derives its own stream from it).
    pub seed: u64,
}

impl Default for ActiveLearningSpec {
    fn default() -> Self {
        ActiveLearningSpec {
            rounds: 3,
            batch: 32,
            seed: 11,
        }
    }
}

/// What one label-and-retrain round did.
#[derive(Debug, Clone)]
pub struct ActiveLearningRound {
    /// 0-based round number.
    pub round: usize,
    /// Uncertain candidates the ranking returned (≤ the requested batch).
    pub candidates: usize,
    /// Widest margin among the candidates (all ≤ 0.5 by construction).
    pub max_margin: f64,
    /// Labeled rows durably appended to the training split.
    pub appended: usize,
    /// Test accuracy after retraining, when the workflow evaluates it.
    pub accuracy: Option<f64>,
    /// Data-chunk partitions the retrain served from the store instead
    /// of recomputing — the incremental-data reuse signal.
    pub chunks_reused: usize,
    /// The same, per node, for the nodes that served any.
    pub chunks_by_node: Vec<(String, usize)>,
    /// Whole nodes the retrain loaded from the store.
    pub loaded: usize,
}

/// Runs the loop against an already-created session whose workflow reads
/// the CSV source named `source`. Iterates once first if the session has
/// never run (the ranking needs materialized predictions). Returns one
/// record per round.
pub fn run_active_learning(
    session: &SessionHandle,
    source: &str,
    spec: &ActiveLearningSpec,
) -> Result<Vec<ActiveLearningRound>> {
    if session.iteration() == 0 {
        session.iterate()?;
    }
    let mut rounds = Vec::with_capacity(spec.rounds);
    for round in 0..spec.rounds {
        let candidates = session.uncertain_examples(spec.batch)?;
        let labels = census::labeled_rows(spec.batch, spec.seed.wrapping_add(round as u64));
        let appended = session.append_data(source, &labels)?;
        let report = session.iterate()?;
        rounds.push(ActiveLearningRound {
            round,
            candidates: candidates.len(),
            max_margin: candidates.iter().map(|c| c.margin).fold(0.0, f64::max),
            appended,
            accuracy: report.metric("accuracy"),
            chunks_reused: report.chunks_reused(),
            chunks_by_node: report
                .nodes
                .iter()
                .filter(|n| n.chunks_loaded > 0)
                .map(|n| (n.name.clone(), n.chunks_loaded))
                .collect(),
            loaded: report.loaded(),
        });
    }
    Ok(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::{census_workflow, generate_census, CensusDataSpec, CensusParams};
    use helix_core::{Engine, EngineConfig, SessionManager};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-al-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn loop_labels_retrains_and_reuses_upstream() {
        let dir = tmpdir("loop");
        generate_census(
            &dir,
            &CensusDataSpec {
                train_rows: 600,
                test_rows: 150,
                ..Default::default()
            },
        )
        .unwrap();
        let workflow = census_workflow(&CensusParams::initial(&dir)).unwrap();
        let engine = Arc::new(Engine::new(EngineConfig::helix(dir.join("store"))).unwrap());
        let manager = SessionManager::new(engine);
        let session = manager.create("oracle", workflow).unwrap();

        let spec = ActiveLearningSpec {
            rounds: 2,
            batch: 16,
            seed: 3,
        };
        let rounds = run_active_learning(&session, "data", &spec).unwrap();
        assert_eq!(rounds.len(), 2);
        for r in &rounds {
            assert_eq!(r.appended, 16, "every oracle label lands");
            assert!(r.candidates > 0, "ranking returns candidates");
            assert!(r.max_margin <= 0.5 + 1e-12);
            assert!(r.accuracy.is_some(), "retrain evaluates");
            assert!(
                r.chunks_reused > 0,
                "a data delta must serve unchanged partitions from the store"
            );
        }
        // 3 iterations total: the warm-up plus one per round.
        assert_eq!(session.iteration(), 3);
    }

    #[test]
    fn oracle_rows_are_deterministic_and_fully_labeled() {
        let a = census::labeled_rows(8, 42);
        let b = census::labeled_rows(8, 42);
        assert_eq!(a, b, "same seed, same labels");
        assert_ne!(a, census::labeled_rows(8, 43));
        for row in &a {
            assert!(!row.contains('?'), "the oracle answers every field");
            let label = row.rsplit(',').next().unwrap();
            assert!(label == "0" || label == "1");
        }
    }
}
