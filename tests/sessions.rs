//! Concurrent-session integration tests: N sessions over one
//! `Arc<Engine>`, exercising the shared-`&self` execution path end to
//! end — determinism vs a sequential reference, cross-session reuse of
//! cached intermediates, and the storage budget under concurrent
//! materialization pressure.

use helix::core::ops::{EvalSpec, MetricKind, OperatorKind};
use helix::core::session::{LearnerParam, SessionHandle, SessionManager};
use helix::core::{
    Durability, Engine, EngineConfig, HelixError, IterationReport, MaterializationPolicyKind,
    NodeState, RecomputationPolicy,
};
use helix::workloads::census::{census_workflow, generate_census, CensusDataSpec, CensusParams};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-sess-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic engine: materialize-`All` plus load-all-available
/// recomputation keep every decision timing-independent (the `Optimal`
/// policy consults wall-clock-calibrated cost estimates, which two
/// engines on a loaded runner can calibrate differently), so concurrent
/// and sequential runs are comparable field by field. The cost-driven
/// `Optimal` path under concurrency is covered by the e2e
/// parallel-vs-sequential tests.
fn all_engine(store_dir: &Path) -> Arc<Engine> {
    let mut config = EngineConfig::helix(store_dir);
    config.materialization = MaterializationPolicyKind::All;
    config.recomputation = RecomputationPolicy::LoadAllAvailable;
    Arc::new(Engine::new(config).unwrap())
}

/// The timing-independent slice of a report.
#[derive(Debug, PartialEq)]
struct ReportFacts {
    iteration: usize,
    loaded: usize,
    computed: usize,
    pruned: usize,
    metrics: Vec<(String, f64)>,
    materialized: Vec<String>,
    change_summary: String,
}

impl ReportFacts {
    fn of(report: &IterationReport) -> ReportFacts {
        ReportFacts {
            iteration: report.iteration,
            loaded: report.loaded(),
            computed: report.computed(),
            pruned: report.pruned(),
            metrics: report.metrics.clone(),
            materialized: report
                .nodes
                .iter()
                .filter(|n| n.materialized)
                .map(|n| n.name.clone())
                .collect(),
            change_summary: report.change_summary.clone(),
        }
    }
}

/// The scripted edits every analyst applies: an ML knob turn, then an
/// evaluation swap — both through the typed session handles.
fn drive(session: &SessionHandle) -> Vec<ReportFacts> {
    let mut facts = vec![ReportFacts::of(&session.iterate().unwrap())];
    session
        .set_learner_param("predictions", LearnerParam::RegParam(0.02))
        .unwrap();
    facts.push(ReportFacts::of(&session.iterate().unwrap()));
    session
        .replace_operator(
            "checked",
            OperatorKind::Evaluate(EvalSpec {
                metrics: vec![MetricKind::F1, MetricKind::Precision],
                split: helix::core::SPLIT_TEST.into(),
            }),
        )
        .unwrap();
    facts.push(ReportFacts::of(&session.iterate().unwrap()));
    facts
}

/// The acceptance criterion: ≥3 sessions driven concurrently produce
/// reports identical to the same edits applied sequentially on a fresh
/// engine.
#[test]
fn concurrent_sessions_match_sequential_reports() {
    let dir = tmpdir("deterministic");
    // Disjoint datasets per analyst (distinct *content* per seed ⇒
    // disjoint signature spaces — sources are signed by what the data is,
    // not where it lives), so the comparison is exact even though all
    // sessions share one store. Identical content would be legitimately
    // shared across sessions, making `materialized` timing-dependent.
    let mut workflows = Vec::new();
    for i in 0..3 {
        let data_dir = dir.join(format!("data{i}"));
        generate_census(
            &data_dir,
            &CensusDataSpec {
                train_rows: 2_000,
                test_rows: 500,
                seed: 7 + i as u64,
                ..Default::default()
            },
        )
        .unwrap();
        workflows.push(census_workflow(&CensusParams::initial(&data_dir)).unwrap());
    }

    // Concurrent: three threads, one shared engine, no outer locking.
    let concurrent = SessionManager::new(all_engine(&dir.join("store-concurrent")));
    let con_facts: Vec<Vec<ReportFacts>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workflows
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let session = concurrent.create(&format!("s{i}"), w.clone()).unwrap();
                scope.spawn(move || drive(&session))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Sequential reference: fresh engine, same sessions one at a time.
    let sequential = SessionManager::new(all_engine(&dir.join("store-sequential")));
    for (i, w) in workflows.iter().enumerate() {
        let session = sequential.create(&format!("s{i}"), w.clone()).unwrap();
        let seq_facts = drive(&session);
        assert_eq!(
            con_facts[i], seq_facts,
            "session s{i}: concurrent run diverged from the sequential reference"
        );
        con_facts[i].iter().for_each(|f| {
            assert!(
                !f.metrics.is_empty(),
                "s{i} iteration {} lost metrics",
                f.iteration
            )
        });
    }
    assert_eq!(concurrent.engine().versions().len(), 9);
    assert_eq!(sequential.engine().versions().len(), 9);
}

/// Two sessions running simultaneously reuse each other's cached
/// intermediates: after Alice's warm-up materializes the shared
/// pre-processing chain, both her edited rerun and Bob's cold first run
/// load from the store — concurrently — and their reports count the hits.
#[test]
fn simultaneous_sessions_reuse_each_others_intermediates() {
    let dir = tmpdir("cross-reuse");
    generate_census(
        &dir,
        &CensusDataSpec {
            train_rows: 600,
            test_rows: 150,
            ..Default::default()
        },
    )
    .unwrap();
    let params = CensusParams::initial(&dir);
    let manager = SessionManager::new(all_engine(&dir.join("store")));
    let alice = manager
        .create("alice", census_workflow(&params).unwrap())
        .unwrap();
    let bob = manager
        .create("bob", census_workflow(&params).unwrap())
        .unwrap();

    let warmup = alice.iterate().unwrap();
    assert_eq!(warmup.loaded(), 0, "cold start computes everything");

    alice
        .set_learner_param("predictions", LearnerParam::RegParam(0.05))
        .unwrap();
    let (alice_report, bob_report) = std::thread::scope(|scope| {
        let a = scope.spawn(|| alice.iterate().unwrap());
        let b = scope.spawn(|| bob.iterate().unwrap());
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(
        alice_report.loaded() > 0,
        "Alice's ML-only edit must reload pre-processing"
    );
    assert!(
        bob_report.loaded() > 0,
        "Bob's first iteration must hit Alice's materializations"
    );
    assert_eq!(
        warmup.metrics, bob_report.metrics,
        "reused intermediates must not change results"
    );
    assert!(manager.engine().store().used_bytes() <= manager.engine().store().budget_bytes());
}

/// Concurrent sessions hammering materialization against a tiny budget
/// never jointly overshoot it: the store's reservation ledger holds under
/// cross-session races.
#[test]
fn concurrent_sessions_never_overshoot_store_budget() {
    let dir = tmpdir("budget");
    let mut workflows = Vec::new();
    for i in 0..3 {
        let data_dir = dir.join(format!("data{i}"));
        generate_census(
            &data_dir,
            &CensusDataSpec {
                train_rows: 300,
                test_rows: 80,
                ..Default::default()
            },
        )
        .unwrap();
        workflows.push(census_workflow(&CensusParams::initial(&data_dir)).unwrap());
    }
    // A budget far below three workflows' worth of intermediates, with
    // materialize-`All` pressure from every session.
    let mut config = EngineConfig::helix(dir.join("store")).with_budget(24 * 1024);
    config.materialization = MaterializationPolicyKind::All;
    let engine = Arc::new(Engine::new(config).unwrap());
    let manager = SessionManager::new(Arc::clone(&engine));

    std::thread::scope(|scope| {
        for (i, w) in workflows.iter().enumerate() {
            let session = manager.create(&format!("s{i}"), w.clone()).unwrap();
            scope.spawn(move || {
                for _ in 0..2 {
                    let report = session.iterate().unwrap();
                    assert!(!report.metrics.is_empty());
                }
            });
        }
    });
    let used = engine.store().used_bytes();
    let budget = engine.store().budget_bytes();
    assert!(
        used <= budget,
        "sessions jointly overshot the budget: {used} > {budget}"
    );
    assert_eq!(engine.versions().len(), 6);
}

/// Recursive directory copy (a store directory holds `wal/`, `meta/` and
/// `sessions/` beside its `.hlx` files).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// A durable, timing-independent engine (see [`all_engine`]).
fn durable_engine(store_dir: &Path) -> Arc<Engine> {
    let mut config = EngineConfig::helix(store_dir);
    config.materialization = MaterializationPolicyKind::All;
    config.recomputation = RecomputationPolicy::LoadAllAvailable;
    config.durability = Durability::wal();
    Arc::new(Engine::new(config).unwrap())
}

/// Per node: name, state, output bytes, materialized, chunks loaded —
/// plus the metrics. Everything a report says that is not a timing.
type NodeFacts = (
    Vec<(String, NodeState, u64, bool, usize)>,
    Vec<(String, f64)>,
);

fn node_facts(report: &IterationReport) -> NodeFacts {
    let nodes = report
        .nodes
        .iter()
        .map(|n| {
            (
                n.name.clone(),
                n.state,
                n.output_bytes,
                n.materialized,
                n.chunks_loaded,
            )
        })
        .collect();
    (nodes, report.metrics.clone())
}

/// The serving loop's three two-valued dials — the learner's `reg_param`
/// (L/I), the metric set (PPR) and whether `income` reads `ms` (DPR) —
/// in a Gray-code order that visits all eight states and returns to the
/// first.
const DIAL_CYCLE: [usize; 8] = [0, 1, 0, 2, 0, 1, 0, 2];

/// Turns dial `dial` of `state` and applies the matching edit.
fn turn_dial(session: &SessionHandle, state: &mut [bool; 3], dial: usize) {
    state[dial] = !state[dial];
    match dial {
        0 => session
            .set_learner_param(
                "predictions",
                LearnerParam::RegParam(if state[0] { 0.01 } else { 0.1 }),
            )
            .unwrap(),
        1 => {
            let mut metrics = vec![MetricKind::Accuracy];
            if state[1] {
                metrics.push(MetricKind::F1);
            }
            session
                .replace_operator(
                    "checked",
                    OperatorKind::Evaluate(EvalSpec {
                        metrics,
                        split: helix::core::SPLIT_TEST.into(),
                    }),
                )
                .unwrap()
        }
        _ => {
            let mut parents = vec![
                "rows",
                "edu",
                "occ",
                "ageBucket",
                "hoursBucket",
                "sex",
                "clBucket",
            ];
            if state[2] {
                parents.push("ms");
            }
            parents.push("target");
            session.rewire("income", &parents).unwrap()
        }
    }
}

/// Loads answered from the store's decoded cache report exactly what
/// disk reads report. A durable session turns the serving loop's dials
/// through all eight states twice; on the second lap, where repeated
/// loads come from memory, every report equals that of a fresh engine
/// opened on a copy of the store, whose cache starts empty. A cached
/// load leaves the I/O model alone, and a file corrupted after its
/// output was cached is caught by the first disk read after a reopen.
#[test]
fn cached_loads_report_like_a_fresh_engine_reading_disk() {
    let dir = tmpdir("decoded-twin");
    let data = dir.join("data");
    generate_census(
        &data,
        &CensusDataSpec {
            train_rows: 2_000,
            test_rows: 500,
            seed: 11,
            ..Default::default()
        },
    )
    .unwrap();
    let base = || census_workflow(&CensusParams::initial(&data)).unwrap();
    let store = dir.join("store");
    let engine = durable_engine(&store);
    let manager = SessionManager::new(Arc::clone(&engine));
    let session = manager.create("alice", base()).unwrap();
    let first = session.iterate().unwrap();
    let mut state = [false; 3];
    for &dial in &DIAL_CYCLE {
        turn_dial(&session, &mut state, dial);
        session.iterate().unwrap();
    }

    for (step, &dial) in DIAL_CYCLE.iter().enumerate() {
        turn_dial(&session, &mut state, dial);
        let copy = dir.join(format!("twin-{step}"));
        copy_dir(&store, &copy);
        let twin = SessionManager::new(durable_engine(&copy))
            .create("twin", base())
            .unwrap();
        let mut twin_state = [false; 3];
        for dial in (0..3).filter(|&d| state[d]) {
            turn_dial(&twin, &mut twin_state, dial);
        }
        let twin = twin.iterate().unwrap();
        let live = session.iterate().unwrap();
        assert_eq!(node_facts(&live), node_facts(&twin), "lap 2, step {step}");
    }
    assert!(
        engine.store().decoded_stats().hits > 0,
        "the second lap loads from memory"
    );

    // Back at the first state, whose outputs have now been decoded
    // twice: an unedited iterate is all cached loads.
    assert_eq!(state, [false; 3]);
    let calibrated = engine.cost_model().load_estimate_secs(1 << 20);
    let hits = engine.store().decoded_stats().hits;
    let cached = session.iterate().unwrap();
    assert_eq!(cached.computed(), 0);
    assert_eq!(
        engine.store().decoded_stats().hits - hits,
        cached.loaded() as u64
    );
    assert_eq!(
        engine.cost_model().load_estimate_secs(1 << 20),
        calibrated,
        "a cached load does not calibrate the I/O model"
    );
    assert_eq!(cached.metrics, first.metrics);

    // Corrupt the cached `predictions` file: memory still answers.
    let w = base();
    let at = w
        .nodes()
        .iter()
        .position(|n| n.name == "predictions")
        .unwrap();
    let predictions = engine.compile_only(&w).unwrap().signatures[at];
    let path = store.join(format!("{}.hlx", predictions.hex()));
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(session.iterate().unwrap().metrics, first.metrics);

    // After a reopen the first disk read finds the damage: that run
    // fails naming the node, and the next one recomputes it.
    drop((session, manager, engine));
    let session = SessionManager::new(durable_engine(&store))
        .create("bob", base())
        .unwrap();
    let err = session
        .iterate()
        .expect_err("the corrupt load must fail the run, not answer");
    assert!(
        matches!(&err, HelixError::Store(msg) if msg.contains(&predictions.hex())),
        "got {err}"
    );
    assert!(!path.exists(), "the corrupt file was evicted");
    let recovered = session.iterate().unwrap();
    let node = recovered
        .nodes
        .iter()
        .find(|n| n.name == "predictions")
        .unwrap();
    assert_eq!(node.state, NodeState::Compute);
    assert_eq!(recovered.metrics, first.metrics);
}
