//! The incremental-data headline guarantee, pinned by a proptest twin:
//! for any random sequence of appended-label deltas, an engine that
//! ingests them incrementally (rerunning after each append with full
//! lineage history and partition reuse) produces **byte-identical**
//! results to a from-scratch engine handed the concatenated data —
//! metrics, per-node plan states, and every stored output file.
//!
//! Each case exercises the full matrix the guarantee covers:
//! parallelism {1, default} × durability {volatile, wal}.
//!
//! Both twins run `MaterializationPolicyKind::All` +
//! `RecomputationPolicy::LoadAllAvailable`, the cost-independent
//! configuration: plan decisions depend only on signatures, never on
//! timings, so the comparison cannot flake on a loaded runner.

use helix::core::{
    Durability, Engine, EngineConfig, MaterializationPolicyKind, RecomputationPolicy, Session,
};
use helix::workloads::census::{
    self, census_workflow, generate_census, CensusDataSpec, CensusParams,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static CASE: AtomicUsize = AtomicUsize::new(0);

/// Small chunks so a ~200-row base spans several partitions and a delta
/// touches only the last one. Set identically by every test closure, so
/// the process-global env write cannot race to different values.
const CHUNK_ROWS: &str = "64";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-incr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(store: &Path, parallelism: usize, durability: Durability) -> EngineConfig {
    let mut config = EngineConfig::helix(store).with_durability(durability);
    if parallelism > 0 {
        config = config.with_parallelism(parallelism);
    }
    config.materialization = MaterializationPolicyKind::All;
    config.recomputation = RecomputationPolicy::LoadAllAvailable;
    config
}

/// Every stored output under `dir`, keyed by file name (signature hex).
fn stored_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension() == Some(std::ffi::OsStr::new("hlx")) {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                out.insert(name, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

/// (name, state) per node — the plan shape, excluding timings and the
/// change kind (an incremental run reports `TransitivelyAffected` where a
/// fresh lineage reports `Added`; both are correct for their history).
fn plan_shape(report: &helix::core::IterationReport) -> Vec<(String, String)> {
    report
        .nodes
        .iter()
        .map(|n| (n.name.clone(), format!("{:?}", n.state)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn incremental_deltas_match_from_scratch_twin(
        batches in proptest::collection::vec(1usize..40, 1..4),
        oracle_seed in 0u64..1_000,
    ) {
        std::env::set_var("HELIX_DATA_CHUNK_ROWS", CHUNK_ROWS);
        let case = CASE.fetch_add(1, Ordering::Relaxed);

        for (parallelism, par_tag) in [(1, "p1"), (0, "pd")] {
            for (durability, dur_tag) in [
                (Durability::Volatile, "vol"),
                (Durability::wal(), "wal"),
            ] {
                let work = tmpdir(&format!("twin-{case}-{par_tag}-{dur_tag}"));

                // Incremental twin: base data, then one append + rerun
                // per delta, against one long-lived engine and lineage.
                let inc_data = work.join("inc-data");
                generate_census(
                    &inc_data,
                    &CensusDataSpec { train_rows: 200, test_rows: 60, ..Default::default() },
                )
                .unwrap();
                let inc_engine = Arc::new(
                    Engine::new(config(&work.join("inc-store"), parallelism, durability))
                        .unwrap(),
                );
                let workflow = census_workflow(&CensusParams::initial(&inc_data)).unwrap();
                let mut inc = Session::new(Arc::clone(&inc_engine), "incremental", workflow);
                inc.iterate().unwrap();

                let base = std::fs::read_to_string(inc_data.join("train.csv")).unwrap();
                let mut expected = base;
                let mut chunks_reused_total = 0usize;

                for (step, &batch) in batches.iter().enumerate() {
                    let labels = census::labeled_rows(
                        batch,
                        oracle_seed.wrapping_add(step as u64),
                    );
                    let appended = inc.append_data("data", &labels).unwrap();
                    prop_assert_eq!(appended, batch);
                    for line in &labels {
                        expected.push_str(line);
                        expected.push('\n');
                    }
                    // The append must behave exactly like concatenation.
                    prop_assert_eq!(
                        &std::fs::read_to_string(inc_data.join("train.csv")).unwrap(),
                        &expected
                    );
                    let inc_report = inc.iterate().unwrap();
                    chunks_reused_total += inc_report.chunks_reused();

                    // From-scratch twin: fresh store, fresh lineage, the
                    // concatenated data verbatim.
                    let fresh_data = work.join(format!("fresh-data-{step}"));
                    std::fs::create_dir_all(&fresh_data).unwrap();
                    std::fs::write(fresh_data.join("train.csv"), &expected).unwrap();
                    std::fs::copy(
                        inc_data.join("test.csv"),
                        fresh_data.join("test.csv"),
                    )
                    .unwrap();
                    let fresh_store = work.join(format!("fresh-store-{step}"));
                    let fresh_engine = Arc::new(
                        Engine::new(config(&fresh_store, parallelism, durability))
                            .unwrap(),
                    );
                    let fresh_workflow =
                        census_workflow(&CensusParams::initial(&fresh_data)).unwrap();
                    let mut fresh =
                        Session::new(Arc::clone(&fresh_engine), "from-scratch", fresh_workflow);
                    let fresh_report = fresh.iterate().unwrap();

                    // Metrics byte-identical (exact f64 equality).
                    prop_assert_eq!(
                        &inc_report.metrics, &fresh_report.metrics,
                        "step {} [{} {}]: metrics diverged", step, par_tag, dur_tag
                    );
                    // Same plan shape, node for node.
                    prop_assert_eq!(
                        plan_shape(&inc_report),
                        plan_shape(&fresh_report),
                        "step {} [{} {}]: plan shape diverged", step, par_tag, dur_tag
                    );
                    // Every output the fresh twin stored exists
                    // byte-identical in the incremental store: identical
                    // signatures AND identical encoded bytes.
                    let fresh_files = stored_files(&fresh_store);
                    let inc_files = stored_files(&work.join("inc-store"));
                    prop_assert!(!fresh_files.is_empty(), "fresh twin stored nothing");
                    for (name, bytes) in &fresh_files {
                        let twin = inc_files.get(name);
                        prop_assert!(
                            twin.is_some(),
                            "step {step}: fresh entry {name} missing from incremental store"
                        );
                        prop_assert!(
                            twin.unwrap() == bytes,
                            "step {step}: stored bytes of {name} diverged"
                        );
                    }
                }

                // The deltas only ever touch the tail chunk, so the
                // incremental runs must have reused earlier partitions.
                prop_assert!(
                    chunks_reused_total > 0,
                    "[{} {}] no partition reuse across {} deltas",
                    par_tag, dur_tag, batches.len()
                );
                let _ = std::fs::remove_dir_all(&work);
            }
        }
    }
}

/// Deterministic companion: a reopened durable engine resumes partition
/// reuse across a restart — the delta run after reopen still serves
/// unchanged chunks written before the "crash".
#[test]
fn durable_reopen_resumes_partition_reuse() {
    std::env::set_var("HELIX_DATA_CHUNK_ROWS", CHUNK_ROWS);
    let work = tmpdir("reopen");
    let data = work.join("data");
    generate_census(
        &data,
        &CensusDataSpec {
            train_rows: 200,
            test_rows: 60,
            ..Default::default()
        },
    )
    .unwrap();
    let store = work.join("store");
    {
        let engine = Arc::new(Engine::new(config(&store, 0, Durability::wal())).unwrap());
        let workflow = census_workflow(&CensusParams::initial(&data)).unwrap();
        let mut session = Session::new(engine, "before", workflow);
        session.iterate().unwrap();
    } // dropped without orderly shutdown

    let engine = Arc::new(Engine::new(config(&store, 0, Durability::wal())).unwrap());
    let workflow = census_workflow(&CensusParams::initial(&data)).unwrap();
    let mut session = Session::new(engine, "after", workflow);
    session
        .append_data("data", &census::labeled_rows(8, 99))
        .unwrap();
    let report = session.iterate().unwrap();
    assert!(
        report.chunks_reused() > 0,
        "reopened store must serve pre-restart partitions, got {}",
        report.chunks_reused()
    );
    let _ = std::fs::remove_dir_all(&work);
}

/// Partitioning × chunk reuse: with the source past the split point
/// (≥ 2 × `partition_rows`), the parallel executor both fans a node out
/// across workers *and* serves its unchanged data chunks from the store.
/// The delta run must reuse partitions, and leave a store identical file
/// for file to the sequential run's and to a from-scratch twin's.
#[test]
fn partitioned_nodes_reuse_chunks_after_a_delta() {
    std::env::set_var("HELIX_DATA_CHUNK_ROWS", CHUNK_ROWS);
    let work = tmpdir("split");
    // 600 + 160 source rows in 64-row chunks against a 48-row threshold:
    // every row-aligned node is ≥ 2 × 48 rows wide, so it splits.
    let spec = CensusDataSpec {
        train_rows: 600,
        test_rows: 160,
        ..Default::default()
    };
    let split_config = |store: &Path, parallelism: usize| {
        config(store, parallelism, Durability::Volatile).with_partition_rows(48)
    };
    let delta = census::labeled_rows(24, 7);

    let incremental = |tag: &str, parallelism: usize| {
        let data = work.join(format!("{tag}-data"));
        generate_census(&data, &spec).unwrap();
        let store = work.join(format!("{tag}-store"));
        let engine = Arc::new(Engine::new(split_config(&store, parallelism)).unwrap());
        let workflow = census_workflow(&CensusParams::initial(&data)).unwrap();
        let mut session = Session::new(engine, tag, workflow);
        session.iterate().unwrap();
        session.append_data("data", &delta).unwrap();
        let report = session.iterate().unwrap();
        (report, stored_files(&store), data)
    };
    let (par_report, par_files, par_data) = incremental("par", 2);
    let (seq_report, seq_files, _) = incremental("seq", 1);

    assert!(
        par_report.chunks_reused() > 0,
        "partitioned nodes must still serve unchanged chunks from the store"
    );
    assert_eq!(par_report.chunks_reused(), seq_report.chunks_reused());
    assert_eq!(par_report.metrics, seq_report.metrics);
    assert_eq!(plan_shape(&par_report), plan_shape(&seq_report));
    assert!(
        par_files == seq_files,
        "parallelism 2 and 1 must leave identical stores"
    );

    // From-scratch twin on the grown data, also at parallelism 2.
    let fresh_store = work.join("fresh-store");
    let engine = Arc::new(Engine::new(split_config(&fresh_store, 2)).unwrap());
    let workflow = census_workflow(&CensusParams::initial(&par_data)).unwrap();
    let fresh_report = Session::new(engine, "fresh", workflow).iterate().unwrap();
    assert_eq!(par_report.metrics, fresh_report.metrics);
    let fresh_files = stored_files(&fresh_store);
    assert!(!fresh_files.is_empty(), "fresh twin stored nothing");
    for (name, bytes) in &fresh_files {
        assert!(
            par_files.get(name) == Some(bytes),
            "fresh entry {name} missing from or different in the incremental store"
        );
    }
    let _ = std::fs::remove_dir_all(&work);
}

/// Never silently wrong: the compiler caches source manifests by file
/// stamp, so a source rewritten in place at the same byte length with its
/// mtime put back must still be re-hashed. The data is aged past the racy
/// window first, so the session's manifests are cached before the
/// rewrite; the next iterate must then answer exactly like a fresh engine
/// reading the new file.
#[cfg(unix)]
#[test]
fn same_length_rewrite_with_restored_mtime_matches_a_fresh_engine() {
    std::env::set_var("HELIX_DATA_CHUNK_ROWS", CHUNK_ROWS);
    let work = tmpdir("restamp");
    let data = work.join("data");
    generate_census(
        &data,
        &CensusDataSpec {
            train_rows: 200,
            test_rows: 60,
            ..Default::default()
        },
    )
    .unwrap();
    std::thread::sleep(helix::core::data::RACY_WINDOW + std::time::Duration::from_millis(100));

    let session = |store: &str, name: &str| {
        let engine =
            Arc::new(Engine::new(config(&work.join(store), 0, Durability::Volatile)).unwrap());
        Session::new(
            engine,
            name,
            census_workflow(&CensusParams::initial(&data)).unwrap(),
        )
    };
    let mut analyst = session("store", "analyst");
    let before = analyst.iterate().unwrap();
    analyst.iterate().unwrap();

    // Flip every label: different rows, the same bytes per row.
    let train = data.join("train.csv");
    let mtime = std::fs::metadata(&train).unwrap().modified().unwrap();
    let text = std::fs::read_to_string(&train).unwrap();
    let flipped: String = text
        .lines()
        .map(|line| {
            let (fields, label) = line.rsplit_once(',').unwrap();
            format!("{fields},{}\n", if label == "1" { "0" } else { "1" })
        })
        .collect();
    assert_eq!(flipped.len(), text.len());
    std::fs::write(&train, &flipped).unwrap();
    std::fs::File::options()
        .write(true)
        .open(&train)
        .unwrap()
        .set_modified(mtime)
        .unwrap();

    let after = analyst.iterate().unwrap();
    let fresh = session("fresh-store", "fresh").iterate().unwrap();
    assert_eq!(after.metrics, fresh.metrics);
    assert_ne!(after.metrics, before.metrics, "the rewrite must matter");
    let _ = std::fs::remove_dir_all(&work);
}

/// First byte of a manifest file: a superseded node version whose row
/// groups are read through their keys in newer files (`helix_core::store`).
const MANIFEST_TAG: u8 = 4;

/// The `.hlx` files under `dir` that are manifests, with their headers.
fn manifests(dir: &Path) -> BTreeMap<String, helix::dataflow::codec::Header> {
    stored_files(dir)
        .into_iter()
        .filter(|(_, bytes)| bytes.first() == Some(&MANIFEST_TAG))
        .map(|(name, bytes)| {
            let header = helix::dataflow::codec::read_header(&bytes[1..]).unwrap();
            (name, header)
        })
        .collect()
}

/// The census workflow over `data` with the `edu × occ` interaction wired
/// in: an edit that makes `income` reassemble from the stored `rows` and
/// extractors.
fn with_interaction(data: &Path) -> helix::core::Workflow {
    census_workflow(&CensusParams {
        include_interaction: true,
        ..CensusParams::initial(data)
    })
    .unwrap()
}

/// A durable engine on fresh census data after three appended label
/// batches, one iterate each. Returns the engine, the data directory and
/// `train.csv` as it was after the first append.
fn after_appends(work: &Path, tag: &str) -> (Arc<Engine>, PathBuf, String) {
    let data = work.join(format!("{tag}-data"));
    generate_census(
        &data,
        &CensusDataSpec {
            train_rows: 200,
            test_rows: 60,
            ..Default::default()
        },
    )
    .unwrap();
    let store = work.join(format!("{tag}-store"));
    let engine = Arc::new(Engine::new(config(&store, 0, Durability::wal())).unwrap());
    let workflow = census_workflow(&CensusParams::initial(&data)).unwrap();
    let mut session = Session::new(Arc::clone(&engine), tag, workflow);
    session.iterate().unwrap();
    let mut first = String::new();
    for step in 0..3u64 {
        session
            .append_data("data", &census::labeled_rows(20, 40 + step))
            .unwrap();
        session.iterate().unwrap();
        if step == 0 {
            first = std::fs::read_to_string(data.join("train.csv")).unwrap();
        }
    }
    (engine, data, first)
}

/// A fresh engine's answer to `workflow` over `train` (and `data`'s test
/// split).
fn from_scratch(work: &Path, tag: &str, data: &Path, train: &str) -> helix::core::IterationReport {
    let fresh = work.join(format!("{tag}-fresh-data"));
    std::fs::create_dir_all(&fresh).unwrap();
    std::fs::write(fresh.join("train.csv"), train).unwrap();
    std::fs::copy(data.join("test.csv"), fresh.join("test.csv")).unwrap();
    let store = work.join(format!("{tag}-fresh-store"));
    let engine = Arc::new(Engine::new(config(&store, 0, Durability::wal())).unwrap());
    Session::new(engine, "fresh", with_interaction(&fresh))
        .iterate()
        .unwrap()
}

/// The external keys of `node`'s stored file under `workflow`'s plan,
/// which must be a manifest.
fn external_keys(engine: &Engine, workflow: &helix::core::Workflow, node: &str) -> Vec<u64> {
    let plan = engine.compile_only(workflow).unwrap();
    let index = workflow
        .nodes()
        .iter()
        .position(|n| n.name == node)
        .unwrap();
    let name = format!("{}.hlx", plan.signatures[index].hex());
    let header = manifests(engine.store().dir())
        .remove(&name)
        .unwrap_or_else(|| panic!("`{node}` ({name}) is stored as a manifest"));
    header
        .groups
        .iter()
        .filter(|g| g.is_external())
        .map(|g| g.key)
        .collect()
}

fn state(report: &helix::core::IterationReport, node: &str) -> helix::core::NodeState {
    report.nodes.iter().find(|n| n.name == node).unwrap().state
}

/// Manifests across a restart: after three appends every superseded
/// version of a chunk-aligned node is a manifest over the newest file's
/// row groups. Rolling the data back to the first append and rewiring the
/// assembly loads those versions through their manifests; a reopened
/// engine answers exactly like the never-restarted one and like a fresh
/// engine on the rolled-back data.
#[test]
fn restarted_manifests_match_a_never_restarted_engine() {
    std::env::set_var("HELIX_DATA_CHUNK_ROWS", CHUNK_ROWS);
    let work = tmpdir("manifest-restart");
    let run = |tag: &str, restart: bool| {
        let (mut engine, data, first) = after_appends(&work, tag);
        assert!(
            !manifests(engine.store().dir()).is_empty(),
            "superseded versions are manifests"
        );
        if restart {
            let store = engine.store().dir().to_path_buf();
            drop(engine);
            engine = Arc::new(Engine::new(config(&store, 0, Durability::wal())).unwrap());
        }
        std::fs::write(data.join("train.csv"), &first).unwrap();
        let report = Session::new(engine, tag, with_interaction(&data))
            .iterate()
            .unwrap();
        (report, data, first)
    };
    let (restarted, data, first) = run("restarted", true);
    let (never, ..) = run("never", false);
    assert_eq!(state(&restarted, "rows"), helix::core::NodeState::Load);
    assert_eq!(restarted.metrics, never.metrics);
    assert_eq!(plan_shape(&restarted), plan_shape(&never));
    assert_eq!(
        restarted.metrics,
        from_scratch(&work, "restart", &data, &first).metrics
    );
    let _ = std::fs::remove_dir_all(&work);
}

/// Evicting a row-group key that a manifest reads makes the manifest a
/// missing entry: the next iterate recomputes the node instead of loading
/// it, and answers like a fresh engine.
#[test]
fn evicting_a_key_a_manifest_references_recomputes_the_node() {
    std::env::set_var("HELIX_DATA_CHUNK_ROWS", CHUNK_ROWS);
    let work = tmpdir("manifest-evict");
    let (engine, data, first) = after_appends(&work, "evict");
    std::fs::write(data.join("train.csv"), &first).unwrap();
    let workflow = with_interaction(&data);
    let key = external_keys(&engine, &workflow, "rows")[0];
    assert!(engine
        .store()
        .evict(helix::core::signature::Signature(key))
        .unwrap());

    let report = Session::new(engine, "evict", workflow).iterate().unwrap();
    assert_eq!(state(&report, "rows"), helix::core::NodeState::Compute);
    assert_eq!(
        report.metrics,
        from_scratch(&work, "evict", &data, &first).metrics
    );
    let _ = std::fs::remove_dir_all(&work);
}

/// A flipped byte in a row group that a manifest reads is caught by the
/// group's checksum on the next disk read (here after a reopen, which
/// starts with an empty decoded cache): the load through the manifest
/// fails that run with a store error, the corrupt file is dropped, and the
/// next run recomputes and answers like a fresh engine.
#[test]
fn a_flipped_byte_in_a_group_a_manifest_reads_is_dropped_and_recomputed() {
    std::env::set_var("HELIX_DATA_CHUNK_ROWS", CHUNK_ROWS);
    let work = tmpdir("manifest-flip");
    let (engine, data, first) = after_appends(&work, "flip");
    std::fs::write(data.join("train.csv"), &first).unwrap();
    let workflow = with_interaction(&data);
    let key = external_keys(&engine, &workflow, "rows")[0];
    // The file that holds the group's bytes: the newest `rows` version.
    let (holder, mut bytes) = stored_files(engine.store().dir())
        .into_iter()
        .find(|(_, bytes)| {
            helix::dataflow::codec::read_header(&bytes[1..])
                .is_ok_and(|h| h.groups.iter().any(|g| g.key == key && !g.is_external()))
        })
        .expect("a file holds the group");
    let header = helix::dataflow::codec::read_header(&bytes[1..]).unwrap();
    let k = header.groups.iter().position(|g| g.key == key).unwrap();
    let range = header.group_range(k, bytes.len() as u64 - 1).unwrap();
    bytes[1 + range.start as usize + 9] ^= 0x01;
    let store = engine.store().dir().to_path_buf();
    let path = store.join(&holder);
    std::fs::write(&path, &bytes).unwrap();
    drop(engine);

    let engine = Arc::new(Engine::new(config(&store, 0, Durability::wal())).unwrap());
    let mut session = Session::new(engine, "flip", workflow);
    let err = session
        .iterate()
        .expect_err("a corrupt group must fail the load, not answer");
    assert!(
        matches!(err, helix::core::HelixError::Store(_)),
        "got {err}"
    );
    assert!(!path.exists(), "the corrupt file was dropped");
    let recovered = session.iterate().unwrap();
    assert_eq!(state(&recovered, "rows"), helix::core::NodeState::Compute);
    assert_eq!(
        recovered.metrics,
        from_scratch(&work, "flip", &data, &first).metrics
    );
    let _ = std::fs::remove_dir_all(&work);
}

/// `chunks_loaded` of node `name` in `report`.
fn chunks_loaded(report: &helix::core::IterationReport, name: &str) -> usize {
    report
        .nodes
        .iter()
        .find(|n| n.name == name)
        .unwrap()
        .chunks_loaded
}

/// The Bucketizers and the assembly below them: chunked nodes whose keys
/// carry the bin edges of the whole input.
const EDGE_NODES: [&str; 4] = ["ageBucket", "hoursBucket", "clBucket", "income"];

/// Bin edges span every row, so an append reuses the chunks below a
/// Bucketizer exactly while the edges stay put. The twin appends twice:
/// copies of base rows (inside every edge), then a row whose age, hours
/// and capital loss all lie past the top edges. The first reuses every
/// unchanged chunk of the Bucketizers and of `income`; the second misses
/// them all. Both answer like a from-scratch engine: metrics, plan shape
/// and every stored file.
#[test]
fn bucketizer_chunks_follow_the_bin_edges() {
    std::env::set_var("HELIX_DATA_CHUNK_ROWS", CHUNK_ROWS);
    for parallelism in [1, 2] {
        for (durability, dur_tag) in [(Durability::Volatile, "vol"), (Durability::wal(), "wal")] {
            let work = tmpdir(&format!("edges-p{parallelism}-{dur_tag}"));
            let data = work.join("inc-data");
            generate_census(
                &data,
                &CensusDataSpec {
                    train_rows: 200,
                    test_rows: 60,
                    ..Default::default()
                },
            )
            .unwrap();
            let store = work.join("inc-store");
            let engine = Arc::new(Engine::new(config(&store, parallelism, durability)).unwrap());
            let workflow = census_workflow(&CensusParams::initial(&data)).unwrap();
            let mut inc = Session::new(engine, "incremental", workflow);
            inc.iterate().unwrap();

            let base = std::fs::read_to_string(data.join("train.csv")).unwrap();
            let inside: Vec<String> = base.lines().take(3).map(str::to_string).collect();
            // age, education, occupation, marital status, race, sex,
            // capital loss, hours per week, target.
            let past = "120,Masters,Sales,Divorced,White,Male,9999,99,1".to_string();
            for (step, (lines, reuse)) in [(inside, true), (vec![past], false)]
                .into_iter()
                .enumerate()
            {
                inc.append_data("data", &lines).unwrap();
                let report = inc.iterate().unwrap();
                for name in EDGE_NODES {
                    let loaded = chunks_loaded(&report, name);
                    assert_eq!(
                        loaded > 0,
                        reuse,
                        "step {step} [p{parallelism} {dur_tag}]: `{name}` loaded {loaded} chunks"
                    );
                }

                let fresh_data = work.join(format!("fresh-data-{step}"));
                std::fs::create_dir_all(&fresh_data).unwrap();
                for split in ["train.csv", "test.csv"] {
                    std::fs::copy(data.join(split), fresh_data.join(split)).unwrap();
                }
                let fresh_store = work.join(format!("fresh-store-{step}"));
                let fresh_engine =
                    Arc::new(Engine::new(config(&fresh_store, parallelism, durability)).unwrap());
                let fresh_workflow = census_workflow(&CensusParams::initial(&fresh_data)).unwrap();
                let fresh = Session::new(fresh_engine, "from-scratch", fresh_workflow)
                    .iterate()
                    .unwrap();
                assert_eq!(report.metrics, fresh.metrics, "step {step}: metrics");
                assert_eq!(plan_shape(&report), plan_shape(&fresh), "step {step}");
                let inc_files = stored_files(&store);
                let fresh_files = stored_files(&fresh_store);
                assert!(!fresh_files.is_empty(), "fresh twin stored nothing");
                for (name, bytes) in &fresh_files {
                    assert!(
                        inc_files.get(name) == Some(bytes),
                        "step {step}: fresh entry {name} missing from or different in the \
                         incremental store"
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&work);
        }
    }
}

/// A Bucketizer loaded whole brings no bin edges, so the chunked nodes
/// below it cannot tell their keys: they compute without chunk keys
/// rather than under keys that ignore the edges. Here `income` without
/// the interaction computes twice over a loaded `ageBucket`, once before
/// and once after an append that moves the top edges. Keys without the
/// edges would serve the second run chunks bucketed against the old
/// edges; instead it answers like a fresh engine.
#[test]
fn chunks_below_a_loaded_bucketizer_are_never_served() {
    std::env::set_var("HELIX_DATA_CHUNK_ROWS", CHUNK_ROWS);
    let work = tmpdir("loaded-bucketizer");
    let data = work.join("data");
    generate_census(
        &data,
        &CensusDataSpec {
            train_rows: 200,
            test_rows: 60,
            ..Default::default()
        },
    )
    .unwrap();
    let engine =
        Arc::new(Engine::new(config(&work.join("store"), 0, Durability::Volatile)).unwrap());
    let plain = census_workflow(&CensusParams::initial(&data)).unwrap();
    let income_over_loaded_buckets = |session: &mut Session| {
        session.replace_workflow(plain.clone());
        let report = session.iterate().unwrap();
        assert_eq!(state(&report, "ageBucket"), helix::core::NodeState::Load);
        assert_eq!(state(&report, "income"), helix::core::NodeState::Compute);
        assert_eq!(chunks_loaded(&report, "income"), 0);
        session.replace_workflow(with_interaction(&data));
        report
    };
    let mut session = Session::new(engine, "analyst", with_interaction(&data));
    session.iterate().unwrap();
    income_over_loaded_buckets(&mut session);
    let past = "120,Masters,Sales,Divorced,White,Male,9999,99,1".to_string();
    session.append_data("data", &[past]).unwrap();
    session.iterate().unwrap();
    let report = income_over_loaded_buckets(&mut session);

    let fresh_engine =
        Arc::new(Engine::new(config(&work.join("fresh"), 0, Durability::Volatile)).unwrap());
    let fresh = Session::new(fresh_engine, "fresh", plain)
        .iterate()
        .unwrap();
    assert_eq!(report.metrics, fresh.metrics);
    let _ = std::fs::remove_dir_all(&work);
}
