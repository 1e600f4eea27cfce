//! The active-learning loop over the Census application: rank the test
//! predictions the model is least sure about, have the ground-truth
//! oracle label a fresh batch, append the labels to the training split as
//! a durable data delta, and retrain — reusing every partition the delta
//! did not touch.
//!
//! Each retrain prints the partition-reuse count (`chunks_reused`) the
//! incremental-data subsystem extracted, and the chunks two nodes served
//! from the store: `ageBucket` (a Bucketizer, whose bin edges span every
//! row) and `income` (the feature assembly). Only the chunk the append
//! landed in recomputes, as long as the appended rows leave the bin edges
//! where they were; the rest of the pipeline's row space is served from
//! the intermediate store.
//!
//! ```text
//! cargo run --release --example active_learning
//! ```

use helix::core::session::SessionManager;
use helix::core::{Engine, EngineConfig};
use helix::workloads::active_learning::{run_active_learning, ActiveLearningSpec};
use helix::workloads::census::{census_workflow, generate_census, CensusDataSpec, CensusParams};
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join("helix-active-learning-example");
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CensusDataSpec {
        train_rows: 6_000,
        test_rows: 1_500,
        ..Default::default()
    };
    generate_census(&dir, &spec).expect("generate census data");
    println!(
        "generated {} train / {} test census rows\n",
        spec.train_rows, spec.test_rows
    );

    let engine = Arc::new(Engine::new(EngineConfig::helix(dir.join("store"))).expect("engine"));
    let manager = SessionManager::new(engine);
    let workflow = census_workflow(&CensusParams::initial(&dir)).expect("workflow");
    let session = manager.create("oracle", workflow).expect("session");

    let first = session.iterate().expect("initial training run");
    println!("warm-up: {}", first.summary());
    println!("warm-up accuracy = {:?}\n", first.metric("accuracy"));

    let loop_spec = ActiveLearningSpec {
        rounds: 4,
        batch: 64,
        seed: 11,
    };
    let rounds = run_active_learning(&session, "data", &loop_spec).expect("active-learning loop");
    println!("=== label-and-retrain rounds ===");
    for r in &rounds {
        println!(
            "round {}: {} candidates (widest margin {:.3}), appended {} labels, \
             accuracy {:?}, {} partitions reused, {} nodes loaded",
            r.round, r.candidates, r.max_margin, r.appended, r.accuracy, r.chunks_reused, r.loaded
        );
        let served = |node: &str| {
            r.chunks_by_node
                .iter()
                .find(|(name, _)| name == node)
                .map_or(0, |&(_, chunks)| chunks)
        };
        println!(
            "         chunks served: ageBucket {}, income {}",
            served("ageBucket"),
            served("income")
        );
    }

    let reused: usize = rounds.iter().map(|r| r.chunks_reused).sum();
    println!(
        "\n{} partitions served from the store across {} retrains — \
         the delta runs recomputed only what the appended labels touched",
        reused,
        rounds.len()
    );
}
