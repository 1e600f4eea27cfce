//! End-to-end acceptance: the full analyst loop — create session →
//! typed edit → run → report → version history — driven entirely over a
//! real TCP socket, at parallelism 1 and at the default, with the wire
//! report checked field-by-field against an in-process [`SessionHandle`]
//! running the identical workload on an identically configured engine.
//!
//! Determinism note: both engines use `MaterializationPolicyKind::All`,
//! the one policy whose store/load decisions are timing-independent, so
//! per-node states must match exactly between the two (the same setup
//! the core engine's sequential-vs-parallel parity test relies on).

use helix::core::ops::ExtractorKind;
use helix::core::session::LearnerParam;
use helix::core::{
    Durability, Engine, EngineConfig, MaterializationPolicyKind, SessionManager, Workflow,
};
use helix::dataflow::DataType;
use helix::server::client::{self, Client};
use helix::server::json::Json;
use helix::server::routes::{Api, WorkflowRegistry};
use helix::server::server::{Server, ServerConfig};
use helix::server::wire;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-e2e-srv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The census-mini workflow both sides run. Row counts match the core
/// session tests: large enough that load-vs-compute decisions are stable.
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

/// An engine whose decisions are timing-independent (see module docs).
fn config(store: PathBuf, parallelism: Option<usize>) -> EngineConfig {
    let mut config = EngineConfig::helix(store);
    config.materialization = MaterializationPolicyKind::All;
    if let Some(threads) = parallelism {
        config.parallelism = threads;
    }
    config
}

/// Drives the analyst loop over the wire and in-process at the given
/// parallelism, asserting the wire report matches the in-process one.
fn socket_loop_matches_in_process(parallelism: Option<usize>, tag: &str) {
    let dir = tmpdir(tag);

    // -- server side: its own engine + store --------------------------------
    let manager = Arc::new(SessionManager::new(Arc::new(
        Engine::new(config(dir.join("store-wire"), parallelism)).unwrap(),
    )));
    let mut registry = WorkflowRegistry::new();
    {
        let dir = dir.clone();
        registry.register("census-mini", move || workflow(&dir));
    }
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        Api::new(Arc::clone(&manager), registry),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    // -- in-process twin: identical config, separate store ------------------
    let twin_manager = SessionManager::new(Arc::new(
        Engine::new(config(dir.join("store-twin"), parallelism)).unwrap(),
    ));
    let twin = twin_manager
        .create("alice", workflow(&dir).unwrap())
        .unwrap();

    // create session over the wire
    let created = client::post(
        addr,
        "/sessions",
        r#"{"name":"alice","workflow":"census-mini"}"#,
    )
    .unwrap()
    .expect_ok();
    assert_eq!(created.get("name").unwrap().as_str(), Some("alice"));
    assert_eq!(created.get("iterations").unwrap().as_u64(), Some(0));

    // iteration 0 on both sides
    let wire0 = client::post(addr, "/sessions/alice/iterate", "")
        .unwrap()
        .expect_ok();
    let twin0 = twin.iterate().unwrap();
    assert_reports_match(&wire0, &twin0);

    // the typed edit, wire and in-process
    client::post(
        addr,
        "/sessions/alice/edits",
        r#"{"kind":"set_learner_param","learner":"predictions","param":"reg_param","value":0.9}"#,
    )
    .unwrap()
    .expect_ok();
    twin.set_learner_param("predictions", LearnerParam::RegParam(0.9))
        .unwrap();

    // iteration 1 on both sides
    let wire1 = client::post(addr, "/sessions/alice/iterate", "")
        .unwrap()
        .expect_ok();
    let twin1 = twin.iterate().unwrap();
    assert_reports_match(&wire1, &twin1);
    assert_eq!(
        wire1.get("change_summary").unwrap().as_str(),
        Some("set predictions reg_param=0.9")
    );
    assert!(
        wire1.get("loaded").unwrap().as_u64().unwrap() > 0,
        "the ML-only edit must reuse pre-processing over the wire too"
    );

    // version history over the wire matches the in-process session's
    let wire_versions = client::get(addr, "/sessions/alice/versions")
        .unwrap()
        .expect_ok();
    let wire_versions = wire_versions
        .get("versions")
        .unwrap()
        .as_array()
        .unwrap()
        .to_vec();
    let twin_versions = twin.versions();
    assert_eq!(wire_versions.len(), twin_versions.len());
    for (wire_v, twin_v) in wire_versions.iter().zip(twin_versions.all()) {
        assert_eq!(wire_v.get("id").unwrap().as_u64(), Some(twin_v.id as u64));
        assert_eq!(
            wire_v.get("change_summary").unwrap().as_str(),
            Some(twin_v.change_summary.as_str())
        );
    }

    // lineage detail: the v1 DAG snapshot names every node, and the
    // v0→v1 diff pins the retrained model node
    let detail = client::get(addr, "/sessions/alice/versions/1")
        .unwrap()
        .expect_ok();
    let dag_nodes = detail
        .get("dag")
        .unwrap()
        .get("nodes")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(dag_nodes.len(), twin1.nodes.len());
    let diff = client::get(addr, "/sessions/alice/diff?from=0&to=1")
        .unwrap()
        .expect_ok();
    let changed = diff.get("changed").unwrap().as_array().unwrap();
    assert!(
        changed
            .iter()
            .any(|c| c.get("name").unwrap().as_str() == Some("predictions__model")),
        "diff must name the retrained model node: {diff}"
    );

    // the engine behind the server recorded both runs globally
    assert_eq!(manager.engine().versions().len(), 2);

    server.shutdown();
}

/// Field-by-field comparison of a wire report against an in-process
/// [`helix::core::IterationReport`] — everything except wall-clock
/// timings, which legitimately differ.
fn assert_reports_match(wire_report: &Json, report: &helix::core::IterationReport) {
    assert_eq!(
        wire_report.get("iteration").unwrap().as_u64(),
        Some(report.iteration as u64)
    );
    assert_eq!(
        wire_report.get("workflow").unwrap().as_str(),
        Some(report.workflow_name.as_str())
    );
    assert_eq!(wire_report.get("session").unwrap().as_str(), Some("alice"));
    assert_eq!(
        wire_report.get("change_summary").unwrap().as_str(),
        Some(report.change_summary.as_str())
    );
    for (counter, value) in [
        ("loaded", report.loaded()),
        ("computed", report.computed()),
        ("pruned", report.pruned()),
    ] {
        assert_eq!(
            wire_report.get(counter).unwrap().as_u64(),
            Some(value as u64),
            "{counter} mismatch"
        );
    }
    let wire_metrics = wire_report.get("metrics").unwrap().as_object().unwrap();
    assert_eq!(wire_metrics.len(), report.metrics.len());
    for ((wire_name, wire_value), (name, value)) in wire_metrics.iter().zip(&report.metrics) {
        assert_eq!(wire_name, name);
        assert_eq!(wire_value.as_f64(), Some(*value), "metric {name}");
    }
    let wire_nodes = wire_report.get("nodes").unwrap().as_array().unwrap();
    assert_eq!(wire_nodes.len(), report.nodes.len());
    for (wire_node, node) in wire_nodes.iter().zip(&report.nodes) {
        assert_eq!(
            wire_node.get("name").unwrap().as_str(),
            Some(node.name.as_str())
        );
        assert_eq!(
            wire_node.get("state").unwrap().as_str(),
            Some(wire::node_state_str(node.state)),
            "state mismatch on {}",
            node.name
        );
        assert_eq!(
            wire_node.get("change").unwrap().as_str(),
            Some(wire::change_kind_str(node.change)),
            "change mismatch on {}",
            node.name
        );
        assert_eq!(
            wire_node.get("materialized").unwrap().as_bool(),
            Some(node.materialized),
            "materialized mismatch on {}",
            node.name
        );
    }
}

#[test]
fn socket_loop_matches_in_process_sequential() {
    socket_loop_matches_in_process(Some(1), "seq");
}

#[test]
fn socket_loop_matches_in_process_default_parallelism() {
    socket_loop_matches_in_process(None, "par");
}

/// The keep-alive analyst loop: one persistent connection drives
/// create→edit→iterate→history end to end, while a `Connection: close`
/// client interleaves one-shot requests — and the keep-alive connection
/// is provably reused (exactly one TCP connect for the whole loop).
fn keepalive_session_loop(parallelism: Option<usize>, tag: &str) {
    let dir = tmpdir(tag);
    let manager = Arc::new(SessionManager::new(Arc::new(
        Engine::new(config(dir.join("store"), parallelism)).unwrap(),
    )));
    let mut registry = WorkflowRegistry::new();
    {
        let dir = dir.clone();
        registry.register("census-mini", move || workflow(&dir));
    }
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        Api::new(Arc::clone(&manager), registry),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    let mut analyst = Client::new(addr);
    let created = analyst
        .post("/sessions", r#"{"name":"alice","workflow":"census-mini"}"#)
        .unwrap()
        .expect_ok();
    assert_eq!(created.get("name").unwrap().as_str(), Some("alice"));
    let first = analyst
        .post("/sessions/alice/iterate", "")
        .unwrap()
        .expect_ok();
    assert_eq!(first.get("iteration").unwrap().as_u64(), Some(0));

    // A one-shot Connection: close client interleaves mid-loop.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);

    analyst
        .post(
            "/sessions/alice/edits",
            r#"{"kind":"set_learner_param","learner":"predictions","param":"reg_param","value":0.9}"#,
        )
        .unwrap()
        .expect_ok();
    let second = analyst
        .post("/sessions/alice/iterate", "")
        .unwrap()
        .expect_ok();
    assert_eq!(second.get("iteration").unwrap().as_u64(), Some(1));
    assert!(
        second.get("loaded").unwrap().as_u64().unwrap() > 0,
        "the ML-only edit must reuse pre-processing over a kept-alive connection"
    );
    let history = analyst.get("/sessions/alice/versions").unwrap().expect_ok();
    assert_eq!(
        history.get("versions").unwrap().as_array().unwrap().len(),
        2
    );
    assert_eq!(
        analyst.connects(),
        1,
        "the whole analyst loop must ride one TCP connection"
    );
    server.shutdown();
}

#[test]
fn keepalive_session_loop_sequential() {
    keepalive_session_loop(Some(1), "ka-seq");
}

#[test]
fn keepalive_session_loop_default_parallelism() {
    keepalive_session_loop(None, "ka-par");
}

/// Wire framing, asserted against raw bytes: responses carry an exact
/// `Content-Length`, a kept-alive connection serves a second request,
/// and a `Connection: close` response is final (EOF, no reuse).
#[test]
fn response_framing_and_close_semantics_on_raw_sockets() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = tmpdir("framing");
    let manager = Arc::new(SessionManager::new(Arc::new(
        Engine::new(EngineConfig::helix(dir.join("store"))).unwrap(),
    )));
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        Api::new(manager, WorkflowRegistry::new()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream);

    // Reads one response off the connection, asserting exact framing;
    // returns (status line, Connection header value, body).
    let read_response = |reader: &mut BufReader<std::net::TcpStream>| {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut content_length: Option<usize> = None;
        let mut connection = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                match name.to_ascii_lowercase().as_str() {
                    "content-length" => content_length = Some(value.trim().parse().unwrap()),
                    "connection" => connection = value.trim().to_string(),
                    _ => {}
                }
            }
        }
        let len = content_length.expect("every response must declare Content-Length");
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).unwrap();
        let body = String::from_utf8(body).unwrap();
        assert_eq!(body.len(), len, "Content-Length must be exact");
        Json::parse(&body).expect("body must be complete, valid JSON");
        (status.trim_end().to_string(), connection, body)
    };

    // Request 1: keep-alive by default under HTTP/1.1.
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let (status, connection, _) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200"));
    assert_eq!(connection, "keep-alive");

    // Request 2 on the same connection proves reuse.
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let (status, connection, _) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200"));
    assert_eq!(connection, "keep-alive");

    // Request 3 asks to close: the response says so, and the connection
    // is not reusable afterwards — the next read sees clean EOF.
    reader
        .get_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, connection, _) = read_response(&mut reader);
    assert!(status.starts_with("HTTP/1.1 200"));
    assert_eq!(connection, "close");
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).unwrap();
    assert_eq!(n, 0, "no reuse after Connection: close, got {rest:?}");

    server.shutdown();
}

/// The durable serving loop end to end: a durable server runs the
/// analyst loop, checkpoints via `POST /admin/snapshot`, and shuts down;
/// a second server over the same store directory recovers the session,
/// reports it in the versioned `GET /stats`, and resumes iterating with
/// warm-store reuse.
#[test]
fn durable_server_recovers_sessions_over_the_wire() {
    let dir = tmpdir("durable");
    let durable_config = |dir: &Path| {
        let mut c = config(dir.join("store"), Some(1));
        c.durability = Durability::wal();
        c
    };
    let registry_for = |dir: &Path| {
        let mut registry = WorkflowRegistry::new();
        let dir = dir.to_path_buf();
        registry.register("census-mini", move || workflow(&dir));
        registry
    };

    // -- first server: create, iterate twice, checkpoint, shut down ---------
    let manager = Arc::new(SessionManager::new(Arc::new(
        Engine::new(durable_config(&dir)).unwrap(),
    )));
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        Api::new(Arc::clone(&manager), registry_for(&dir)),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    client::post(
        addr,
        "/sessions",
        r#"{"name":"alice","workflow":"census-mini"}"#,
    )
    .unwrap()
    .expect_ok();
    client::post(addr, "/sessions/alice/iterate", "")
        .unwrap()
        .expect_ok();
    client::post(
        addr,
        "/sessions/alice/edits",
        r#"{"kind":"set_learner_param","learner":"predictions","param":"reg_param","value":0.9}"#,
    )
    .unwrap()
    .expect_ok();
    client::post(addr, "/sessions/alice/iterate", "")
        .unwrap()
        .expect_ok();

    // Stats v5 on a fresh durable server: nothing recovered, no store
    // log to report, and the optimizer memo populated by the two
    // iterations.
    let stats = client::get(addr, "/stats").unwrap().expect_ok();
    assert_eq!(stats.get("v").unwrap().as_u64(), Some(5));
    assert_eq!(stats.get("recovered_sessions").unwrap().as_u64(), Some(0));
    assert!(stats.get("wal_bytes").is_none() && stats.get("last_snapshot").is_none());
    assert!(stats.get("pinned").is_none() && stats.get("last_offline_pass").is_none());
    assert!(
        stats
            .get("observations_recorded")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0,
        "iterations must feed the optimizer memo: {stats}"
    );
    assert!(stats.get("memo_entries").unwrap().as_u64().unwrap() > 0);

    // Materialization has one policy, the online rule: there is no
    // offline-optimize route.
    assert_eq!(
        client::post(addr, "/admin/optimize", "").unwrap().status,
        404
    );

    // Forced checkpoint compacts the meta and session logs into their
    // snapshots.
    let snap = client::post(addr, "/admin/snapshot", "")
        .unwrap()
        .expect_ok();
    assert_eq!(snap.get("snapshotted").unwrap().as_bool(), Some(true));
    assert_eq!(
        client::get(addr, "/admin/snapshot").unwrap().status,
        405,
        "GET on the snapshot route must be method-not-allowed"
    );

    server.shutdown();
    drop(manager);

    // -- second server over the same store: recover, inspect, resume --------
    let manager = Arc::new(SessionManager::new(Arc::new(
        Engine::new(durable_config(&dir)).unwrap(),
    )));
    let api = Api::new(Arc::clone(&manager), registry_for(&dir));
    assert_eq!(api.recover_sessions(), 1, "alice must come back");
    let mut server = Server::bind(("127.0.0.1", 0), api, ServerConfig::default()).unwrap();
    let addr = server.addr();

    let stats = client::get(addr, "/stats").unwrap().expect_ok();
    assert_eq!(stats.get("v").unwrap().as_u64(), Some(5));
    assert_eq!(stats.get("recovered_sessions").unwrap().as_u64(), Some(1));
    assert!(stats.get("recovered_entries").unwrap().as_u64().unwrap() > 0);
    assert!(
        stats.get("memo_entries").unwrap().as_u64().unwrap() > 0,
        "the optimizer memo must survive the restart: {stats}"
    );

    let info = client::get(addr, "/sessions/alice").unwrap().expect_ok();
    assert_eq!(info.get("iterations").unwrap().as_u64(), Some(2));
    let history = client::get(addr, "/sessions/alice/versions")
        .unwrap()
        .expect_ok();
    assert_eq!(
        history.get("versions").unwrap().as_array().unwrap().len(),
        2,
        "both pre-restart versions must survive"
    );

    // The recovered session keeps iterating against the recovered store.
    let resumed = client::post(addr, "/sessions/alice/iterate", "")
        .unwrap()
        .expect_ok();
    assert_eq!(resumed.get("iteration").unwrap().as_u64(), Some(2));
    assert!(
        resumed.get("loaded").unwrap().as_u64().unwrap() > 0,
        "the post-restart iteration must reuse recovered intermediates"
    );

    server.shutdown();
}

/// `POST /admin/snapshot` on a volatile engine is the caller's mistake:
/// 400 with a hint, not a silent no-op.
#[test]
fn admin_snapshot_on_volatile_engine_is_rejected() {
    let dir = tmpdir("volatile-snap");
    // Pin Volatile explicitly: EngineConfig::helix reads HELIX_DURABILITY,
    // and this test must reject the snapshot even when the suite runs
    // under HELIX_DURABILITY=wal (the CI durability job does exactly that).
    let mut config = EngineConfig::helix(dir.join("store"));
    config.durability = Durability::Volatile;
    let manager = Arc::new(SessionManager::new(Arc::new(Engine::new(config).unwrap())));
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        Api::new(manager, WorkflowRegistry::new()),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    let resp = client::post(addr, "/admin/snapshot", "").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp
        .body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("volatile"));

    // Volatile stats still answer with the v5 schema, counters zeroed.
    let stats = client::get(addr, "/stats").unwrap().expect_ok();
    assert_eq!(stats.get("v").unwrap().as_u64(), Some(5));
    assert_eq!(stats.get("recovered_sessions").unwrap().as_u64(), Some(0));

    server.shutdown();
}

/// The active-learning loop end to end over the wire: create → iterate →
/// fetch the most-uncertain test examples → post oracle labels as a data
/// delta → retrain. The retrain must reuse unchanged partitions from the
/// store (`chunks_reused > 0`) while the label join — the assemble node
/// that merges features with the (now longer) label column — recomputes.
#[test]
fn active_learning_loop_over_the_wire() {
    let dir = tmpdir("active");
    let manager = Arc::new(SessionManager::new(Arc::new(
        Engine::new(config(dir.join("store"), None)).unwrap(),
    )));
    let mut registry = WorkflowRegistry::new();
    {
        let dir = dir.clone();
        registry.register("census-mini", move || workflow(&dir));
    }
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        Api::new(Arc::clone(&manager), registry),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    client::post(
        addr,
        "/sessions",
        r#"{"name":"alice","workflow":"census-mini"}"#,
    )
    .unwrap()
    .expect_ok();

    // Ranking before any run is the caller's mistake: the session has no
    // materialized predictions yet.
    assert_eq!(
        client::get(addr, "/sessions/alice/uncertain")
            .unwrap()
            .status,
        400,
        "uncertain before the first iteration must 400"
    );

    client::post(addr, "/sessions/alice/iterate", "")
        .unwrap()
        .expect_ok();

    // Fetch the K most-uncertain test examples; margins come back sorted.
    let uncertain = client::get(addr, "/sessions/alice/uncertain?k=5")
        .unwrap()
        .expect_ok();
    assert_eq!(uncertain.get("k").unwrap().as_u64(), Some(5));
    let examples = uncertain.get("examples").unwrap().as_array().unwrap();
    assert!(!examples.is_empty() && examples.len() <= 5);
    let mut last_margin = -1.0_f64;
    for ex in examples {
        for field in ["index", "label", "score", "pred", "margin"] {
            assert!(ex.get(field).is_some(), "example missing {field}: {ex}");
        }
        let margin = ex.get("margin").unwrap().as_f64().unwrap();
        assert!(
            margin >= last_margin && margin <= 0.5 + 1e-12,
            "margins must be ascending and ≤ 0.5: {uncertain}"
        );
        last_margin = margin;
    }

    // The oracle answers: labels return as a typed data delta.
    let labeled = client::post(
        addr,
        "/sessions/alice/data",
        r#"{"source":"data","rows":["PhD,52,1","HS,19,0","PhD,48,1"]}"#,
    )
    .unwrap()
    .expect_ok();
    assert_eq!(labeled.get("appended").unwrap().as_u64(), Some(3));
    assert_eq!(labeled.get("source").unwrap().as_str(), Some("data"));

    // Retrain: unchanged partitions load, the label join recomputes.
    let retrain = client::post(addr, "/sessions/alice/iterate", "")
        .unwrap()
        .expect_ok();
    assert!(
        retrain.get("chunks_reused").unwrap().as_u64().unwrap() > 0,
        "the delta retrain must serve unchanged partitions: {retrain}"
    );
    let nodes = retrain.get("nodes").unwrap().as_array().unwrap();
    let income = nodes
        .iter()
        .find(|n| n.get("name").unwrap().as_str() == Some("income"))
        .expect("report must include the assemble node");
    assert_eq!(
        income.get("state").unwrap().as_str(),
        Some("compute"),
        "the label join must recompute after a data delta: {retrain}"
    );
    assert!(
        retrain.get("metrics").unwrap().get("accuracy").is_some(),
        "the retrain must re-evaluate"
    );

    // The delta is a first-class edit: it shows up in version history.
    let history = client::get(addr, "/sessions/alice/versions")
        .unwrap()
        .expect_ok();
    let versions = history.get("versions").unwrap().as_array().unwrap();
    assert_eq!(versions.len(), 2);
    assert_eq!(
        versions[1].get("change_summary").unwrap().as_str(),
        Some("append 3 rows to data")
    );

    // Error paths for both new endpoints.
    assert_eq!(
        client::post(addr, "/sessions/alice/data", r#"{"source":"data"}"#)
            .unwrap()
            .status,
        400,
        "data without rows must 400"
    );
    assert_eq!(
        client::post(
            addr,
            "/sessions/alice/data",
            r#"{"source":"rows","rows":["x,1,0"]}"#
        )
        .unwrap()
        .status,
        400,
        "appending to a non-source node must 400"
    );
    assert_eq!(
        client::get(addr, "/sessions/alice/uncertain?k=abc")
            .unwrap()
            .status,
        400,
        "non-numeric k must 400"
    );
    assert_eq!(
        client::get(addr, "/sessions/nobody/uncertain")
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::get(addr, "/sessions/alice/data").unwrap().status,
        405,
        "GET on the data route must be method-not-allowed"
    );

    server.shutdown();
}

/// Several remote analysts in flight at once: concurrent socket sessions
/// share one engine, reuse each other's intermediates, and the history
/// sees every run.
#[test]
fn concurrent_remote_sessions_share_the_store() {
    let dir = tmpdir("burst");
    let manager = Arc::new(SessionManager::new(Arc::new(
        Engine::new(EngineConfig::helix(dir.join("store"))).unwrap(),
    )));
    let mut registry = WorkflowRegistry::new();
    {
        let dir = dir.clone();
        registry.register("census-mini", move || workflow(&dir));
    }
    let mut server = Server::bind(
        ("127.0.0.1", 0),
        Api::new(Arc::clone(&manager), registry),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    let analysts = ["alice", "bob", "carol"];
    std::thread::scope(|scope| {
        for name in analysts {
            scope.spawn(move || {
                client::post(
                    addr,
                    "/sessions",
                    &format!(r#"{{"name":"{name}","workflow":"census-mini"}}"#),
                )
                .unwrap()
                .expect_ok();
                let report = client::post(addr, &format!("/sessions/{name}/iterate"), "")
                    .unwrap()
                    .expect_ok();
                assert!(report.get("metrics").unwrap().get("accuracy").is_some());
            });
        }
    });

    // One more analyst after the burst: warm store, first run mostly loads.
    client::post(
        addr,
        "/sessions",
        r#"{"name":"dave","workflow":"census-mini"}"#,
    )
    .unwrap()
    .expect_ok();
    let warm = client::post(addr, "/sessions/dave/iterate", "")
        .unwrap()
        .expect_ok();
    assert!(
        warm.get("loaded").unwrap().as_u64().unwrap() > 0,
        "a late remote analyst must reuse the burst's materializations"
    );

    let sessions = client::get(addr, "/sessions").unwrap().expect_ok();
    assert_eq!(
        sessions.get("sessions").unwrap().as_array().unwrap().len(),
        4
    );
    let global = client::get(addr, "/versions").unwrap().expect_ok();
    assert_eq!(global.get("versions").unwrap().as_array().unwrap().len(), 4);

    server.shutdown();
}
