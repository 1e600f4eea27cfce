//! Kill the engine, reopen the directory, keep iterating: the durable
//! tier end to end in one self-contained demo.
//!
//! ```text
//! cargo run --release --example restart_resume
//! ```
//!
//! Phase 1 opens a durable engine, runs the census analyst loop for
//! two iterations, and drops everything — simulating a process exit with
//! work in the store. Phase 2 reopens the same directory, recovers the
//! session (template + replayed edit log), and runs a third iteration
//! that reuses the intermediates materialized before the "crash".

use helix::core::{Durability, Engine, EngineConfig, LearnerParam, SessionManager};
use helix::workloads::census::{census_workflow, generate_census, CensusDataSpec, CensusParams};
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join("helix-restart-resume-example");
    let _ = std::fs::remove_dir_all(&dir);
    generate_census(
        &dir,
        &CensusDataSpec {
            train_rows: 3_000,
            test_rows: 800,
            ..Default::default()
        },
    )
    .expect("generate data");
    let params = CensusParams::initial(&dir);
    let store = dir.join("store");
    let durable = EngineConfig::helix(&store).with_durability(Durability::wal());

    // -- phase 1: a durable engine does some work, then "crashes" -----------
    println!("phase 1: durable engine at {}", store.display());
    {
        let engine = Arc::new(Engine::new(durable.clone()).expect("engine"));
        let manager = SessionManager::new(Arc::clone(&engine));
        let session = manager
            .create_with_template("alice", census_workflow(&params).unwrap(), Some("census"))
            .expect("create session");
        let first = session.iterate().expect("iterate");
        println!(
            "  iteration 0: computed {}, total {:.3}s",
            first.computed(),
            first.total_secs
        );
        session
            .set_learner_param("predictions", LearnerParam::RegParam(0.01))
            .expect("edit");
        let second = session.iterate().expect("iterate");
        println!(
            "  iteration 1: loaded {}, computed {} ({})",
            second.loaded(),
            second.computed(),
            second.change_summary
        );
        println!(
            "  store holds {} entries; dropping the engine without ceremony…",
            engine.store().len()
        );
    } // everything dropped: the only survivor is the store directory

    // -- phase 2: reopen the directory, recover, resume ---------------------
    println!("phase 2: reopening the same directory");
    let engine = Arc::new(Engine::new(durable).expect("reopen"));
    let recovery = engine.recovery();
    println!(
        "  store recovery: {} entries indexed from {} files",
        recovery.store.recovered_entries, recovery.store.adopted_files
    );
    println!(
        "  engine meta: {} versions, {} cost observations",
        recovery.recovered_versions, recovery.recovered_cost_observations
    );
    let manager = SessionManager::new(Arc::clone(&engine));
    let recovered = manager
        .recover(|template| (template == "census").then(|| census_workflow(&params).unwrap()));
    println!("  recovered {recovered} session(s)");

    let session = manager.get("alice").expect("alice survived the restart");
    println!(
        "  alice resumes at iteration {} with {} versions of history",
        session.iteration(),
        session.versions().len()
    );
    session
        .set_learner_param("predictions", LearnerParam::Epochs(8))
        .expect("edit");
    let resumed = session.iterate().expect("iterate");
    println!(
        "  iteration {}: loaded {}, computed {} ({})",
        resumed.iteration,
        resumed.loaded(),
        resumed.computed(),
        resumed.change_summary
    );
    assert!(
        resumed.loaded() > 0,
        "the post-restart iteration must reuse pre-crash intermediates"
    );
    println!("restart was invisible to the analyst; demo OK");
}
