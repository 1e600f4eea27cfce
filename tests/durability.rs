//! Crash-recovery acceptance for the durable tier: a durable engine
//! killed and reopened must resume every session's lineage with the
//! same results a never-restarted engine produces.
//!
//! Four layers of abuse, plus a store directory from the previous file
//! format (version 2) that must still serve:
//!
//! * **Twin comparison** — a restarted durable engine driven through the
//!   analyst loop, checked field-by-field against an identically
//!   configured engine that never restarted (both deterministic:
//!   materialize-`All` + load-all-available).
//! * **SIGKILL mid-flight** — a child process iterating two sessions is
//!   killed without warning; the parent reopens the store and asserts
//!   every acknowledged iteration survived and the ledger matches disk.
//! * **Log-tail fuzz** — the last record of the engine meta log and of a
//!   session's log is truncated at every byte boundary; every prefix must
//!   open cleanly (torn tail = truncate and warn, never refuse to start),
//!   and a count-based soak checks that a durable no-op iterate appends
//!   constant bytes.
//! * **Flipped payload bytes** — a stored row group or node output with
//!   one bit changed is caught by its checksum: a run recomputes it or
//!   fails with a store error, and never answers wrong.

use helix::core::ops::ExtractorKind;
use helix::core::session::LearnerParam;
use helix::core::version::WorkflowVersion;
use helix::core::{
    Durability, Engine, EngineConfig, IterationReport, MaterializationPolicyKind,
    RecomputationPolicy, SessionManager, Workflow, WorkflowEdit,
};
use helix::dataflow::DataType;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-durab-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The census-mini workflow (same shape as the server e2e suite): big
/// enough that load-vs-compute decisions are stable, small enough that a
/// kill-loop iteration is fast.
fn workflow(dir: &Path) -> helix::core::Result<Workflow> {
    let train = dir.join("train.csv");
    let test = dir.join("test.csv");
    if !train.exists() {
        std::fs::write(&train, "BS,30,1\nMS,40,0\n".repeat(2_000)).unwrap();
        std::fs::write(&test, "BS,35,1\nMS,45,0\n".repeat(400)).unwrap();
    }
    let mut w = Workflow::new("census-mini");
    let data = w.csv_source("data", &train, Some(&test))?;
    let rows = w.csv_scanner(
        "rows",
        &data,
        &[
            ("edu", DataType::Str),
            ("age", DataType::Int),
            ("target", DataType::Int),
        ],
    )?;
    let edu = w.field_extractor("edu_f", &rows, "edu", ExtractorKind::Categorical)?;
    let age = w.field_extractor("age_f", &rows, "age", ExtractorKind::Numeric)?;
    let target = w.field_extractor("target_f", &rows, "target", ExtractorKind::Numeric)?;
    let income = w.assemble("income", &rows, &[&edu, &age], &target)?;
    let preds = w.learner("predictions", &income, Default::default())?;
    let checked = w.evaluate("checked", &preds, Default::default())?;
    w.output(&preds);
    w.output(&checked);
    Ok(w)
}

/// A deterministic durable engine: every materialization and load
/// decision is timing-independent, so a restarted engine and its
/// never-restarted twin are comparable field by field.
fn durable_engine(store_dir: &Path) -> Arc<Engine> {
    let mut config = EngineConfig::helix(store_dir);
    config.materialization = MaterializationPolicyKind::All;
    config.recomputation = RecomputationPolicy::LoadAllAvailable;
    config.durability = Durability::wal();
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
            change_summary: report.change_summary.clone(),
        }
    }
}

/// Recursive directory copy (for fuzzing log prefixes on a scratch copy).
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

/// Sum of `.hlx` payload bytes on disk under the store directory — the
/// ground truth the recovered ledger must agree with.
fn disk_hlx_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "hlx") {
                total += entry.metadata().unwrap().len();
            }
        }
    }
    total
}

/// Twin comparison: the analyst loop with a kill-and-reopen between
/// iterations 1 and 2 must be indistinguishable (same reuse counters,
/// same metrics, same history) from the loop on an engine that never
/// restarted.
#[test]
fn restarted_engine_matches_never_restarted_twin() {
    let dir = tmpdir("twin");
    workflow(&dir).unwrap(); // writes the shared CSVs

    // -- control: never restarted -------------------------------------------
    let control = SessionManager::new(durable_engine(&dir.join("store-control")));
    let control_session = control
        .create_with_template("alice", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    let mut control_facts = vec![ReportFacts::of(&control_session.iterate().unwrap())];
    control_session
        .set_learner_param("predictions", LearnerParam::RegParam(0.9))
        .unwrap();
    control_facts.push(ReportFacts::of(&control_session.iterate().unwrap()));
    control_session
        .set_learner_param("predictions", LearnerParam::Epochs(6))
        .unwrap();
    control_facts.push(ReportFacts::of(&control_session.iterate().unwrap()));

    // -- twin: same loop, torn down and reopened mid-way --------------------
    let store = dir.join("store-twin");
    let manager = SessionManager::new(durable_engine(&store));
    let session = manager
        .create_with_template("alice", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    let mut twin_facts = vec![ReportFacts::of(&session.iterate().unwrap())];
    session
        .set_learner_param("predictions", LearnerParam::RegParam(0.9))
        .unwrap();
    twin_facts.push(ReportFacts::of(&session.iterate().unwrap()));
    drop(session);
    drop(manager);

    let manager = SessionManager::new(durable_engine(&store));
    let recovered =
        manager.recover(|template| (template == "census-mini").then(|| workflow(&dir).unwrap()));
    assert_eq!(recovered, 1, "alice must come back");
    let session = manager.get("alice").unwrap();
    session
        .set_learner_param("predictions", LearnerParam::Epochs(6))
        .unwrap();
    twin_facts.push(ReportFacts::of(&session.iterate().unwrap()));

    assert_eq!(
        twin_facts, control_facts,
        "the restart must be invisible in the reports"
    );
    assert!(
        twin_facts[2].loaded > 0,
        "the post-restart iteration must reuse recovered intermediates"
    );

    // History: same length, same summaries, same diff across the restart
    // boundary.
    let control_versions = control_session.versions();
    let twin_versions = session.versions();
    assert_eq!(twin_versions.len(), control_versions.len());
    for (t, c) in twin_versions.all().iter().zip(control_versions.all()) {
        assert_eq!(t.change_summary, c.change_summary);
        assert_eq!(t.metrics, c.metrics);
    }
    let twin_diff = twin_versions.diff(1, 2).unwrap();
    let control_diff = control_versions.diff(1, 2).unwrap();
    assert_eq!(twin_diff.changed, control_diff.changed);

    // Ledger agrees with both the twin store and the disk ground truth.
    let twin_store = manager.engine().store();
    assert_eq!(
        twin_store.used_bytes(),
        control.engine().store().used_bytes()
    );
    assert_eq!(twin_store.used_bytes(), disk_hlx_bytes(&store));
}

/// Environment variable naming the scratch directory for the kill test's
/// child process; set only by the parent below.
const CHILD_ENV: &str = "HELIX_DURABILITY_CHILD_DIR";

/// The victim process: iterates two durable sessions round-robin
/// forever, appending one line to `progress.txt` after each acknowledged
/// iteration. Runs only when spawned by the parent test (the env var
/// carries the directory); `#[ignore]` keeps it out of normal runs.
#[test]
#[ignore]
fn durability_child_worker() {
    let Ok(dir) = std::env::var(CHILD_ENV) else {
        return; // invoked manually; nothing to do
    };
    let dir = PathBuf::from(dir);
    let manager = SessionManager::new(durable_engine(&dir.join("store")));
    let alice = manager
        .create_with_template("alice", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    let bob = manager
        .create_with_template("bob", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    let progress = dir.join("progress.txt");
    let mut log = String::new();
    for i in 0.. {
        let session = if i % 2 == 0 { &alice } else { &bob };
        let flip = if (i / 2) % 2 == 0 { 0.9 } else { 0.1 };
        session
            .set_learner_param("predictions", LearnerParam::RegParam(flip))
            .unwrap();
        let report = session.iterate().unwrap();
        log.push_str(&format!(
            "{} {} {}\n",
            session.name(),
            report.iteration,
            report.loaded()
        ));
        // Atomic replace so the parent never reads a torn line.
        let tmp = dir.join("progress.tmp");
        std::fs::write(&tmp, &log).unwrap();
        std::fs::rename(&tmp, &progress).unwrap();
    }
}

/// SIGKILL mid-iteration: the parent spawns the child above, waits until
/// it has acknowledged several iterations, kills it without warning, and
/// reopens the store — every acknowledged iteration must be there, the
/// ledger must match disk, and both sessions must keep iterating.
#[test]
fn sigkill_mid_iteration_loses_no_acknowledged_work() {
    let dir = tmpdir("kill");
    workflow(&dir).unwrap(); // writes the shared CSVs up front

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args([
            "--ignored",
            "--exact",
            "durability_child_worker",
            "--nocapture",
        ])
        .env(CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait for ≥5 acknowledged iterations (each session ≥2), then kill.
    let progress = dir.join("progress.txt");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let acknowledged = loop {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child exited early with {status}");
        }
        let lines: Vec<String> = std::fs::read_to_string(&progress)
            .map(|t| t.lines().map(String::from).collect())
            .unwrap_or_default();
        if lines.len() >= 5 {
            break lines;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child made no progress: {} iterations",
            lines.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    child.kill().unwrap();
    child.wait().unwrap();

    // Count the iterations each session acknowledged before the kill.
    let acked = |name: &str| acknowledged.iter().filter(|l| l.starts_with(name)).count();
    let (alice_acked, bob_acked) = (acked("alice"), acked("bob"));
    assert!(alice_acked >= 2 && bob_acked >= 2);
    let warm_loaded: usize = acknowledged
        .last()
        .unwrap()
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();

    // Reopen and recover. The kill may have landed mid-iteration; that
    // trailing partial iteration is allowed to vanish, acknowledged ones
    // are not.
    let store = dir.join("store");
    let manager = SessionManager::new(durable_engine(&store));
    let recovered =
        manager.recover(|template| (template == "census-mini").then(|| workflow(&dir).unwrap()));
    assert_eq!(recovered, 2, "both sessions must come back");
    assert!(manager.engine().recovery().store.recovered_entries > 0);

    let alice = manager.get("alice").unwrap();
    let bob = manager.get("bob").unwrap();
    assert!(
        alice.iteration() >= alice_acked,
        "alice acknowledged {alice_acked} iterations but recovered {}",
        alice.iteration()
    );
    assert!(
        bob.iteration() >= bob_acked,
        "bob acknowledged {bob_acked} iterations but recovered {}",
        bob.iteration()
    );
    assert_eq!(alice.versions().len(), alice.iteration());
    assert_eq!(bob.versions().len(), bob.iteration());

    // The recovered ledger is exactly what is on disk.
    assert_eq!(
        manager.engine().store().used_bytes(),
        disk_hlx_bytes(&store)
    );

    // And the store is warm: a post-crash iteration reuses at least as
    // much as the last acknowledged pre-crash one did.
    alice
        .set_learner_param("predictions", LearnerParam::Epochs(7))
        .unwrap();
    let resumed = alice.iterate().unwrap();
    assert!(
        resumed.loaded() >= warm_loaded.min(1),
        "post-crash iteration must reuse recovered intermediates"
    );
    assert!(!resumed.metrics.is_empty());
}

/// Environment variable naming the scratch directory for the delta-ingest
/// kill test's child process; set only by the parent below.
const INGEST_CHILD_ENV: &str = "HELIX_INGEST_CHILD_DIR";

/// One oracle batch of census-mini rows for ingest round `i`.
fn ingest_batch(i: usize) -> Vec<String> {
    (0..5)
        .map(|j| {
            let edu = if (i + j).is_multiple_of(3) {
                "PhD"
            } else {
                "HS"
            };
            format!("{edu},{},{}", 22 + (i * 5 + j) % 40, (i + j) % 2)
        })
        .collect()
}

/// The ingest victim: appends one labeled batch per round as a durable
/// data delta, acknowledges it (the `append_data` fsync is the
/// acknowledgement point), then retrains — forever, until killed.
/// `#[ignore]` keeps it out of normal runs.
#[test]
#[ignore]
fn ingest_child_worker() {
    let Ok(dir) = std::env::var(INGEST_CHILD_ENV) else {
        return; // invoked manually; nothing to do
    };
    let dir = PathBuf::from(dir);
    let manager = SessionManager::new(durable_engine(&dir.join("store")));
    let session = manager
        .create_with_template("alice", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    session.iterate().unwrap();
    let progress = dir.join("ingest-progress.txt");
    let mut log = String::new();
    let mut total = 0usize;
    for i in 0.. {
        let batch = ingest_batch(i);
        total += session.append_data("data", &batch).unwrap();
        // Acknowledge the durable append *before* retraining: these rows
        // must survive a kill landing anywhere after this line.
        log.push_str(&format!("{i} {total}\n"));
        let tmp = dir.join("ingest-progress.tmp");
        std::fs::write(&tmp, &log).unwrap();
        std::fs::rename(&tmp, &progress).unwrap();
        session.iterate().unwrap();
    }
}

/// SIGKILL mid-delta-ingest: the child above appends labeled batches in a
/// tight loop, so the kill can land anywhere in the ingest path — sidecar
/// staged, CSV half-appended, retrain in flight. Reopening must (a) lose
/// no acknowledged delta, (b) heal any half-applied one, and (c) produce
/// an incremental rerun byte-identical to a from-scratch twin on the
/// healed data, still reusing pre-crash partitions.
#[test]
fn sigkill_mid_delta_ingest_loses_no_acknowledged_delta() {
    let dir = tmpdir("ingest-kill");
    workflow(&dir).unwrap(); // writes the shared CSVs up front
    let base_rows = std::fs::read_to_string(dir.join("train.csv"))
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count();

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["--ignored", "--exact", "ingest_child_worker", "--nocapture"])
        .env(INGEST_CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait for ≥3 acknowledged deltas, then kill without warning.
    let progress = dir.join("ingest-progress.txt");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let acknowledged = loop {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child exited early with {status}");
        }
        let lines: Vec<String> = std::fs::read_to_string(&progress)
            .map(|t| t.lines().map(String::from).collect())
            .unwrap_or_default();
        if lines.len() >= 3 {
            break lines;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child made no progress: {} deltas",
            lines.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    child.kill().unwrap();
    child.wait().unwrap();

    let acked_rows: usize = acknowledged
        .last()
        .unwrap()
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(acked_rows >= 15, "≥3 batches of 5 rows each");

    // Reopen and recover the session; its AppendData edits replay as
    // no-ops because the CSV itself is the durable record.
    let manager = SessionManager::new(durable_engine(&dir.join("store")));
    let recovered =
        manager.recover(|template| (template == "census-mini").then(|| workflow(&dir).unwrap()));
    assert_eq!(recovered, 1, "alice must come back");
    let alice = manager.get("alice").unwrap();

    // One more delta post-crash. append_data heals any half-applied
    // sidecar before appending, so the file afterwards holds: base rows +
    // every acknowledged row [+ at most one staged-but-unacknowledged
    // batch] + this batch. Nothing acknowledged may be missing.
    let post_batch = ingest_batch(10_000);
    alice.append_data("data", &post_batch).unwrap();
    let healed = std::fs::read_to_string(dir.join("train.csv")).unwrap();
    let healed_rows = healed.lines().filter(|l| !l.trim().is_empty()).count();
    let floor = base_rows + acked_rows + post_batch.len();
    assert!(
        healed_rows >= floor && healed_rows <= floor + 5,
        "healed file has {healed_rows} rows; acknowledged floor is {floor} \
         (+ at most one in-flight batch of 5)"
    );

    // The incremental rerun over the recovered store must match a
    // from-scratch twin handed the healed file verbatim — same metrics,
    // same plan shape — while still reusing pre-crash partitions.
    let inc_report = alice.iterate().unwrap();
    assert!(
        inc_report.chunks_reused() > 0,
        "the post-crash delta run must serve pre-crash partitions from the store"
    );

    let twin_dir = dir.join("twin-data");
    std::fs::create_dir_all(&twin_dir).unwrap();
    std::fs::write(twin_dir.join("train.csv"), &healed).unwrap();
    std::fs::copy(dir.join("test.csv"), twin_dir.join("test.csv")).unwrap();
    let twin_manager = SessionManager::new(durable_engine(&dir.join("twin-store")));
    let twin = twin_manager
        .create("twin", workflow(&twin_dir).unwrap())
        .unwrap();
    let twin_report = twin.iterate().unwrap();

    assert_eq!(
        inc_report.metrics, twin_report.metrics,
        "incremental rerun must be byte-identical to the from-scratch twin"
    );
    let shape = |r: &IterationReport| {
        r.nodes
            .iter()
            .map(|n| (n.name.clone(), format!("{:?}", n.state)))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        shape(&inc_report),
        shape(&twin_report),
        "both runs see a data delta: every node recomputes in each"
    );
}

/// Environment variable naming the scratch directory for the memo kill
/// test's child process; set only by the parent below.
const MEMO_CHILD_ENV: &str = "HELIX_MEMO_CHILD_DIR";

/// The memo victim: runs the census workflow in a loop on a durable
/// engine, alternating the regularization knob, appending one line to
/// `memo-progress.txt` after each acknowledged run. `#[ignore]` keeps it
/// out of normal runs.
#[test]
#[ignore]
fn memo_durability_child_worker() {
    let Ok(dir) = std::env::var(MEMO_CHILD_ENV) else {
        return; // invoked manually; nothing to do
    };
    let dir = PathBuf::from(dir);
    let engine = durable_engine(&dir.join("store"));
    let progress = dir.join("memo-progress.txt");
    let mut log = String::new();
    for i in 0.. {
        // Run 0 computes everything (compute observations); later runs
        // reload materializations (load observations and reuse hits).
        engine.run(&workflow(&dir).unwrap()).unwrap();
        log.push_str(&format!(
            "{i} {}\n",
            engine.optimizer_stats().observations_recorded
        ));
        let tmp = dir.join("memo-progress.tmp");
        std::fs::write(&tmp, &log).unwrap();
        std::fs::rename(&tmp, &progress).unwrap();
    }
}

/// SIGKILL with an accumulated memo: the parent kills the child without
/// warning, reopens the store with an always-replan factor, and asserts
/// the recovered memo is non-empty and feeds the very first post-restart
/// plan (observed decision sources, replan counter advancing).
#[test]
fn sigkill_preserves_memo_and_feeds_first_post_restart_plan() {
    let dir = tmpdir("memo-kill");
    workflow(&dir).unwrap(); // writes the shared CSVs up front

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args([
            "--ignored",
            "--exact",
            "memo_durability_child_worker",
            "--nocapture",
        ])
        .env(MEMO_CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();

    // Wait for ≥3 acknowledged runs, then kill mid-flight.
    let progress = dir.join("memo-progress.txt");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let acknowledged = loop {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("child exited early with {status}");
        }
        let lines: Vec<String> = std::fs::read_to_string(&progress)
            .map(|t| t.lines().map(String::from).collect())
            .unwrap_or_default();
        if lines.len() >= 3 {
            break lines;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "child made no progress: {} runs",
            lines.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    };
    child.kill().unwrap();
    child.wait().unwrap();

    let acked_observations: u64 = acknowledged
        .last()
        .unwrap()
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(acked_observations > 0, "child must have fed the memo");

    // Reopen with factor 1.0: if the memo survived, the very first plan
    // must go through the adaptive path.
    let mut config = EngineConfig::helix(dir.join("store")).with_replan_factor(1.0);
    config.materialization = MaterializationPolicyKind::All;
    config.recomputation = RecomputationPolicy::LoadAllAvailable;
    config.durability = Durability::wal();
    let engine = Engine::new(config).unwrap();
    assert!(
        engine.recovery().recovered_memo_entries > 0,
        "the memo must survive the kill"
    );
    let stats = engine.optimizer_stats();
    assert!(stats.memo_entries > 0);
    assert!(
        stats.observations_recorded > 0,
        "recovered observation counter must be non-zero"
    );

    let replans_before = stats.replans_triggered;
    let report = engine.run(&workflow(&dir).unwrap()).unwrap();
    assert_eq!(
        engine.optimizer_stats().replans_triggered,
        replans_before + 1,
        "the recovered memo must trigger the first post-restart re-plan"
    );
    assert!(
        report
            .nodes
            .iter()
            .any(|n| n.decision_source == helix::core::DecisionSource::Observed),
        "post-restart plan must be driven by recovered observations"
    );
    assert!(!report.metrics.is_empty());
}

/// Where the last record of a JSON-lines log starts: after the
/// second-to-last newline.
fn last_record_start(log: &[u8]) -> usize {
    let body = &log[..log.len() - 1]; // drop the trailing newline
    body.iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0)
}

/// Meta- and session-log tail fuzz: the last record of `engine.log`, and
/// then of a session's log, is truncated at every byte, as a torn append
/// would leave it. Every prefix opens and recovers; the recovered
/// histories hold exactly the records whose JSON is complete (a torn one
/// is dropped and counted); and the next iterate answers like a
/// never-restarted twin's.
#[test]
fn torn_meta_and_session_log_tails_open_cleanly_at_every_truncation_point() {
    let dir = tmpdir("log-fuzz");
    workflow(&dir).unwrap();
    let config = |store: &Path| {
        let mut config = EngineConfig::helix(store);
        config.materialization = MaterializationPolicyKind::All;
        config.recomputation = RecomputationPolicy::LoadAllAvailable;
        config.durability = Durability::wal();
        config.store_shards = 1;
        config
    };
    let rebuild = |template: &str| (template == "census-mini").then(|| workflow(&dir).unwrap());
    let open = |store: &Path| {
        let manager = SessionManager::new(Arc::new(Engine::new(config(store)).unwrap()));
        assert_eq!(manager.recover(rebuild), 1, "alice must come back");
        manager
    };
    // Engine history, alice's history and her pending edits.
    type History = (Vec<String>, Vec<String>, Vec<WorkflowEdit>);
    let history = |manager: &SessionManager| -> History {
        let encode = |v: &WorkflowVersion| v.to_json().to_string();
        let alice = manager.get("alice").unwrap();
        (
            manager
                .engine()
                .versions()
                .all()
                .iter()
                .map(encode)
                .collect(),
            alice.versions().all().iter().map(encode).collect(),
            alice.with(|s| s.pending_edits().to_vec()),
        )
    };
    let next_iterate = |manager: &SessionManager| {
        let alice = manager.get("alice").unwrap();
        alice
            .set_learner_param("predictions", LearnerParam::RegParam(0.9))
            .unwrap();
        alice.iterate().unwrap().metrics
    };

    // Knob turn + iterate until both logs hold records: a log that has
    // just outgrown its snapshot is compacted empty.
    let live_store = dir.join("live");
    let live = SessionManager::new(Arc::new(Engine::new(config(&live_store)).unwrap()));
    let alice = live
        .create_with_template("alice", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    let meta = live_store.join("meta");
    let logs = ["engine.log", "sessions/alice.log"];
    let mut last_edit = None;
    for round in 1.. {
        assert!(round < 20, "the two logs never both held records");
        let edit = LearnerParam::Epochs(round);
        alice.set_learner_param("predictions", edit).unwrap();
        last_edit = alice.with(|s| s.pending_edits().last().cloned());
        alice.iterate().unwrap();
        if logs
            .iter()
            .all(|log| std::fs::metadata(meta.join(log)).unwrap().len() > 0)
        {
            break;
        }
    }
    let pristine = dir.join("pristine-meta");
    copy_dir(&meta, &pristine);
    let full = history(&live);
    let twin = next_iterate(&live);

    for (phase, log) in logs.iter().enumerate() {
        let bytes = std::fs::read(pristine.join(log)).unwrap();
        let start = last_record_start(&bytes);
        let mut iterated = Vec::new();
        for cut in start..=bytes.len() {
            let store = dir.join(format!("cut-{phase}-{cut}"));
            copy_dir(&pristine, &store.join("meta"));
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(store.join("meta").join(log))
                .unwrap();
            file.set_len(cut as u64).unwrap();
            drop(file);

            let manager = open(&store);
            // The record counts once its closing brace is on disk.
            let complete = cut + 1 >= bytes.len();
            let mut want = full.clone();
            if !complete && phase == 0 {
                want.0.pop();
            } else if !complete {
                want.1.pop();
                want.2.extend(last_edit.clone());
            }
            assert!(history(&manager) == want, "cut at byte {cut} of {log}");
            let dropped = if phase == 0 {
                manager.engine().recovery().meta_records_dropped
            } else {
                manager.session_records_dropped()
            };
            let torn = cut > start && !complete;
            assert_eq!(dropped, usize::from(torn), "cut at byte {cut} of {log}");
            if !iterated.contains(&complete) {
                iterated.push(complete);
                assert_eq!(next_iterate(&manager), twin, "cut at byte {cut} of {log}");
            }
            drop(manager);
            std::fs::remove_dir_all(&store).unwrap();
        }
    }
}

/// Index of the node called `name`.
fn node_index(w: &Workflow, name: &str) -> usize {
    w.nodes().iter().position(|n| n.name == name).unwrap()
}

/// XORs one byte of the stored row group keyed `key` (a byte of its
/// values, not of the header) and returns the file it lives in.
fn flip_group_byte(store: &Path, key: u64) -> PathBuf {
    use helix::dataflow::codec;
    for entry in std::fs::read_dir(store).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "hlx") {
            continue;
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let Ok(header) = codec::read_header(&bytes[1..]) else {
            continue;
        };
        if let Some(k) = header.groups.iter().position(|g| g.key == key) {
            let range = header.group_range(k, bytes.len() as u64 - 1).unwrap();
            bytes[1 + range.start as usize + 9] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            return path;
        }
    }
    panic!("no stored row group is keyed {key:016x}");
}

/// A flipped payload byte in a stored row group is caught by its
/// checksum: the next data delta recomputes that chunk instead of loading
/// it, and its metrics equal both a from-scratch twin's and an
/// uncorrupted incremental twin's — no run answers wrong.
#[test]
fn flipped_chunk_byte_is_recomputed_by_the_next_delta_run() {
    let dir = tmpdir("flip-chunk");
    let delta: String = (0..7).map(|i| format!("PhD,{},1\n", 50 + i)).collect();
    let incremental = |tag: &str, corrupt: bool| {
        let data = dir.join(format!("{tag}-data"));
        std::fs::create_dir_all(&data).unwrap();
        let store = dir.join(format!("{tag}-store"));
        let engine = durable_engine(&store);
        let w = workflow(&data).unwrap();
        engine.run(&w).unwrap();
        if corrupt {
            // The first chunk of `rows`: unchanged by the append below,
            // so the delta run would load it.
            let plan = engine.compile_only(&w).unwrap();
            let chunks = plan.chunks[node_index(&w, "rows")].as_ref().unwrap();
            flip_group_byte(&store, chunks.psigs[0].0);
        }
        let mut train = std::fs::OpenOptions::new()
            .append(true)
            .open(data.join("train.csv"))
            .unwrap();
        std::io::Write::write_all(&mut train, delta.as_bytes()).unwrap();
        let report = engine
            .run(&w)
            .expect("a corrupt chunk recomputes, it does not fail the run");
        (
            report,
            std::fs::read_to_string(data.join("train.csv")).unwrap(),
        )
    };
    let (clean, clean_data) = incremental("clean", false);
    let (flipped, flipped_data) = incremental("flipped", true);
    assert_eq!(clean_data, flipped_data);

    let twin_data = dir.join("twin-data");
    std::fs::create_dir_all(&twin_data).unwrap();
    std::fs::write(twin_data.join("train.csv"), &flipped_data).unwrap();
    std::fs::copy(
        dir.join("clean-data").join("test.csv"),
        twin_data.join("test.csv"),
    )
    .unwrap();
    let twin = durable_engine(&dir.join("twin-store"))
        .run(&workflow(&twin_data).unwrap())
        .unwrap();

    assert_eq!(flipped.metrics, twin.metrics);
    assert_eq!(clean.metrics, twin.metrics);
    assert!(clean.chunks_reused() > 0, "the delta run reuses chunks");
    assert!(
        flipped.chunks_reused() < clean.chunks_reused(),
        "the corrupt chunk was computed, not loaded ({} vs {})",
        flipped.chunks_reused(),
        clean.chunks_reused()
    );
}

/// A flipped payload byte in a node the next plan loads whole fails that
/// run with a store error naming the node's signature; the run after it
/// recomputes the node and answers like a never-corrupted engine.
#[test]
fn flipped_byte_in_a_loaded_node_fails_one_run_then_recomputes() {
    let dir = tmpdir("flip-whole");
    workflow(&dir).unwrap();
    let store = dir.join("store");
    let engine = durable_engine(&store);
    let w = workflow(&dir).unwrap();
    let income = engine.compile_only(&w).unwrap().signatures[node_index(&w, "income")];
    let manager = SessionManager::new(Arc::clone(&engine));
    let session = manager.create("alice", w).unwrap();
    session.iterate().unwrap();
    let path = store.join(format!("{}.hlx", income.hex()));
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    // A learner edit: the plan loads `income` and retrains.
    session
        .set_learner_param("predictions", LearnerParam::RegParam(0.9))
        .unwrap();
    let err = session
        .iterate()
        .expect_err("the corrupt load must fail the run, not answer");
    assert!(
        matches!(&err, helix::core::HelixError::Store(msg) if msg.contains(&income.hex())),
        "got {err}"
    );
    assert!(!path.exists(), "the corrupt file was evicted");
    let recovered = session.iterate().unwrap();
    let income_state = recovered.nodes.iter().find(|n| n.name == "income").unwrap();
    assert_eq!(income_state.state, helix::core::NodeState::Compute);

    let control = SessionManager::new(durable_engine(&dir.join("control-store")));
    let twin = control.create("bob", workflow(&dir).unwrap()).unwrap();
    twin.iterate().unwrap();
    twin.set_learner_param("predictions", LearnerParam::RegParam(0.9))
        .unwrap();
    assert_eq!(recovered.metrics, twin.iterate().unwrap().metrics);
}

/// A store directory as the version-2 writer left it — whole node
/// outputs plus one file per data-chunk partition signature — opens,
/// serves the whole outputs as loads, and serves its chunk files to the
/// next data delta; both runs answer like a fresh engine.
/// A flipped byte in a stored model fails the model's checksum: the run
/// that loads it fails with a store error naming the model, the file is
/// dropped, and the run after it retrains and answers like a
/// from-scratch twin.
#[test]
fn flipped_byte_in_a_stored_model_is_dropped_and_recomputed() {
    let dir = tmpdir("flip-model");
    workflow(&dir).unwrap();
    let store = dir.join("store");
    let engine = durable_engine(&store);
    let w = workflow(&dir).unwrap();
    let plan = engine.compile_only(&w).unwrap();
    let model = plan.signatures[node_index(&w, "predictions__model")];
    let predictions = plan.signatures[node_index(&w, "predictions")];
    let manager = SessionManager::new(Arc::clone(&engine));
    let session = manager.create("alice", w).unwrap();
    session.iterate().unwrap();
    let path = store.join(format!("{}.hlx", model.hex()));
    let mut bytes = std::fs::read(&path).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    // With its predictions gone, the next plan applies the stored model.
    assert!(engine.store().evict(predictions).unwrap());
    let err = session
        .iterate()
        .expect_err("the corrupt model must fail the run, not answer");
    assert!(
        matches!(&err, helix::core::HelixError::Store(msg) if msg.contains(&model.hex())),
        "got {err}"
    );
    assert!(!path.exists(), "the corrupt model was dropped");
    let recovered = session.iterate().unwrap();
    let state = |name: &str| {
        recovered
            .nodes
            .iter()
            .find(|n| n.name == name)
            .unwrap()
            .state
    };
    assert_eq!(state("predictions__model"), helix::core::NodeState::Compute);

    let control = SessionManager::new(durable_engine(&dir.join("control-store")));
    let twin = control.create("bob", workflow(&dir).unwrap()).unwrap();
    assert_eq!(recovered.metrics, twin.iterate().unwrap().metrics);
}

#[test]
fn a_version_2_store_serves_whole_loads_and_chunk_hits() {
    let dir = tmpdir("v2-store");
    let data = dir.join("data");
    std::fs::create_dir_all(&data).unwrap();
    // The data the fixture was written from (see tests/fixtures/README.md).
    std::fs::write(data.join("train.csv"), "BS,30,1\nMS,40,0\n".repeat(300)).unwrap();
    std::fs::write(data.join("test.csv"), "BS,35,1\nMS,45,0\n".repeat(50)).unwrap();
    let store = dir.join("store");
    copy_dir(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_store"),
        &store,
    );
    let fresh = |tag: &str| durable_engine(&dir.join(format!("fresh-{tag}")));

    let engine = durable_engine(&store);
    assert!(engine.recovery().store.adopted_files > 10);
    let w = workflow(&data).unwrap();
    let loaded = engine.run(&w).unwrap();
    assert!(
        loaded.loaded() > 0,
        "whole outputs load from version-2 files"
    );
    assert_eq!(loaded.computed(), 0);
    assert_eq!(loaded.metrics, fresh("base").run(&w).unwrap().metrics);

    let mut train = std::fs::OpenOptions::new()
        .append(true)
        .open(data.join("train.csv"))
        .unwrap();
    std::io::Write::write_all(&mut train, b"PhD,61,1\nHS,19,0\n").unwrap();
    let delta = engine.run(&w).unwrap();
    assert!(
        delta.chunks_reused() > 0,
        "unchanged chunks load from version-2 chunk files"
    );
    assert_eq!(delta.metrics, fresh("delta").run(&w).unwrap().metrics);
}

/// Count-based soak of the durable tier's logs: 500 no-op iterates of one
/// durable session. Each iterate appends the same bytes to the engine
/// meta log and the session log (within ±5 % of the first, floats print
/// at varying lengths), and each snapshot is rewritten only as its log
/// outgrows it — at most ⌈log₂ 500⌉ + 1 times. Reads file sizes only, no
/// timings. `#[ignore]`d: CI's durable-tier job runs it in release mode.
#[test]
#[ignore]
fn durable_noop_log_stays_flat() {
    const ITERATES: usize = 500;
    let dir = tmpdir("soak");
    let store = dir.join("store");
    let manager = SessionManager::new(durable_engine(&store));
    let session = manager
        .create_with_template("alice", workflow(&dir).unwrap(), Some("census-mini"))
        .unwrap();
    session.iterate().unwrap();

    // The engine meta and the session record: (snapshot, log) each.
    let meta = store.join("meta");
    let docs = [meta.join("engine"), meta.join("sessions").join("alice")];
    let size =
        |doc: &Path, ext: &str| std::fs::metadata(doc.with_extension(ext)).map_or(0, |m| m.len());
    let mut logs = docs.clone().map(|doc| size(&doc, "log"));
    let mut snapshots = docs.clone().map(|doc| size(&doc, "json"));
    let mut rewrites = [0usize; 2];
    let mut appended = Vec::new();
    for _ in 0..ITERATES {
        session.iterate().unwrap();
        let mut bytes = 0;
        let mut compacted = false;
        for (i, doc) in docs.iter().enumerate() {
            let (log, snapshot) = (size(doc, "log"), size(doc, "json"));
            if snapshot != snapshots[i] {
                rewrites[i] += 1;
                compacted = true;
            }
            bytes += log.saturating_sub(logs[i]);
            (logs[i], snapshots[i]) = (log, snapshot);
        }
        if !compacted {
            appended.push(bytes);
        }
    }

    assert!(appended.len() > ITERATES / 2);
    let first = appended[0] as f64;
    for (i, &bytes) in appended.iter().enumerate() {
        assert!(
            (bytes as f64 - first).abs() <= 0.05 * first,
            "iterate {i} appended {bytes} bytes, the first {first}"
        );
    }
    let bound = (ITERATES as f64).log2().ceil() as usize + 1;
    for (doc, n) in docs.iter().zip(rewrites) {
        assert!(
            n <= bound,
            "{} was rewritten {n} times (bound {bound})",
            doc.display()
        );
    }
    eprintln!("appended {first} bytes per iterate; rewrites {rewrites:?}");
}
