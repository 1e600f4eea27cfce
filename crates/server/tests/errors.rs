//! Error-mapping coverage over real sockets: every documented failure
//! mode returns its documented status code, and the engine stays
//! serviceable afterwards (the next valid request succeeds).

use helix_core::ops::ExtractorKind;
use helix_core::{EngineConfig, SessionManager, Workflow};
use helix_dataflow::DataType;
use helix_server::client;
use helix_server::routes::{Api, WorkflowRegistry};
use helix_server::server::{Server, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helix-srverr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiny two-feature workflow; `with_bucket` controls whether the
/// `age_bucket` node exists (so replacing a workflow can make a
/// previously valid edit target vanish).
fn mini_workflow(dir: &Path, with_bucket: bool) -> helix_core::Result<Workflow> {
    let train = dir.join("train.csv");
    let test = dir.join("test.csv");
    if !train.exists() {
        std::fs::write(&train, "BS,30,1\nMS,40,0\n".repeat(300)).unwrap();
        std::fs::write(&test, "BS,35,1\nMS,45,0\n".repeat(60)).unwrap();
    }
    let mut w = Workflow::new("mini");
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
    let feature = if with_bucket {
        w.bucketizer("age_bucket", &age, 4)?
    } else {
        age
    };
    let income = w.assemble("income", &rows, &[&edu, &feature], &target)?;
    let preds = w.learner("predictions", &income, Default::default())?;
    let checked = w.evaluate("checked", &preds, Default::default())?;
    w.output(&checked);
    Ok(w)
}

fn serve(tag: &str) -> ServerHandle {
    let dir = tmpdir(tag);
    let manager =
        Arc::new(SessionManager::with_config(EngineConfig::helix(dir.join("store"))).unwrap());
    let mut registry = WorkflowRegistry::new();
    {
        let dir = dir.clone();
        registry.register("mini", move || mini_workflow(&dir, true));
    }
    {
        let dir = dir.clone();
        registry.register("mini-no-bucket", move || mini_workflow(&dir, false));
    }
    Server::bind(
        ("127.0.0.1", 0),
        Api::new(manager, registry),
        ServerConfig {
            workers: 2,
            max_body_bytes: 4096,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn malformed_json_returns_400_and_server_stays_up() {
    let mut server = serve("badjson");
    let addr = server.addr();

    let resp = client::post(addr, "/sessions", "{not json").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.get("error").is_some());

    let resp = client::post(addr, "/sessions", r#"{"name":"a","workflow":7}"#).unwrap();
    assert_eq!(resp.status, 400, "non-string workflow field");

    // The server is still serviceable: a valid create succeeds.
    let resp = client::post(addr, "/sessions", r#"{"name":"a","workflow":"mini"}"#).unwrap();
    assert_eq!(resp.status, 201);
    server.shutdown();
}

#[test]
fn unknown_session_and_route_return_404() {
    let mut server = serve("unknown");
    let addr = server.addr();

    for (method, path) in [
        ("POST", "/sessions/ghost/iterate"),
        ("POST", "/sessions/ghost/edits"),
        ("GET", "/sessions/ghost/versions"),
        ("GET", "/sessions/ghost"),
        ("DELETE", "/sessions/ghost"),
    ] {
        let body = if path.ends_with("edits") {
            r#"{"kind":"add_output","node":"income"}"#
        } else {
            ""
        };
        let resp = client::request(addr, method, path, body).unwrap();
        assert_eq!(resp.status, 404, "{method} {path}");
    }

    assert_eq!(client::get(addr, "/no/such/route").unwrap().status, 404);
    // Unknown template on create is also a 404.
    let resp = client::post(addr, "/sessions", r#"{"name":"a","workflow":"nope"}"#).unwrap();
    assert_eq!(resp.status, 404);
    server.shutdown();
}

#[test]
fn edit_after_replace_workflow_maps_to_400_and_session_survives() {
    let mut server = serve("replace");
    let addr = server.addr();

    client::post(addr, "/sessions", r#"{"name":"a","workflow":"mini"}"#)
        .unwrap()
        .expect_ok();
    client::post(addr, "/sessions/a/iterate", "")
        .unwrap()
        .expect_ok();

    // Swap to the bucket-less variant; the old rewire target is gone.
    client::put(
        addr,
        "/sessions/a/workflow",
        r#"{"workflow":"mini-no-bucket"}"#,
    )
    .unwrap()
    .expect_ok();
    let resp = client::post(
        addr,
        "/sessions/a/edits",
        r#"{"kind":"rewire","node":"income","parents":["rows","edu_f","age_bucket","target_f"]}"#,
    )
    .unwrap();
    assert_eq!(
        resp.status, 400,
        "edit addressing a node the replacement lost"
    );
    let msg = resp
        .body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(msg.contains("age_bucket"), "error names the node: {msg}");

    // The failed edit left the session serviceable: the next iteration
    // runs the replaced workflow.
    let report = client::post(addr, "/sessions/a/iterate", "")
        .unwrap()
        .expect_ok();
    assert_eq!(report.get("iteration").unwrap().as_u64(), Some(1));
    assert!(report.get("metrics").unwrap().get("accuracy").is_some());
    server.shutdown();
}

#[test]
fn oversized_body_returns_413_without_wedging_the_worker() {
    let mut server = serve("oversize");
    let addr = server.addr();

    let huge = format!(
        r#"{{"name":"a","workflow":"mini","padding":"{}"}}"#,
        "x".repeat(8 * 1024)
    );
    let resp = client::post(addr, "/sessions", &huge).unwrap();
    assert_eq!(resp.status, 413);
    assert!(resp
        .body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("limit"));

    // Same connection pool keeps serving.
    let resp = client::post(addr, "/sessions", r#"{"name":"a","workflow":"mini"}"#).unwrap();
    assert_eq!(resp.status, 201);
    server.shutdown();
}

/// A body far past the cap is drained, not left unread: the server
/// answers 413 and reads the declared body before closing, so the close
/// never resets the connection under the client's read of the answer.
#[test]
fn a_body_sixteen_times_the_cap_gets_its_413_every_time() {
    let mut server = serve("oversize-64k");
    let addr = server.addr();

    let huge = format!(
        r#"{{"name":"a","workflow":"mini","padding":"{}"}}"#,
        "x".repeat(64 * 1024)
    );
    for attempt in 0..20 {
        let resp = client::post(addr, "/sessions", &huge)
            .unwrap_or_else(|err| panic!("attempt {attempt}: {err:?}"));
        assert_eq!(resp.status, 413, "attempt {attempt}");
    }
    let resp = client::post(addr, "/sessions", r#"{"name":"a","workflow":"mini"}"#).unwrap();
    assert_eq!(resp.status, 201);
    server.shutdown();
}

#[test]
fn duplicate_session_is_409_and_wrong_method_is_405() {
    let mut server = serve("conflict");
    let addr = server.addr();

    client::post(addr, "/sessions", r#"{"name":"a","workflow":"mini"}"#)
        .unwrap()
        .expect_ok();
    let resp = client::post(addr, "/sessions", r#"{"name":"a","workflow":"mini"}"#).unwrap();
    assert_eq!(resp.status, 409);

    let resp = client::request(addr, "DELETE", "/healthz", "").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client::get(addr, "/sessions/a/iterate").unwrap();
    assert_eq!(resp.status, 405, "iterate is POST-only");
    server.shutdown();
}

#[test]
fn bad_version_and_diff_parameters() {
    let mut server = serve("versions");
    let addr = server.addr();
    client::post(addr, "/sessions", r#"{"name":"a","workflow":"mini"}"#)
        .unwrap()
        .expect_ok();
    client::post(addr, "/sessions/a/iterate", "")
        .unwrap()
        .expect_ok();

    assert_eq!(
        client::get(addr, "/sessions/a/versions/7").unwrap().status,
        404
    );
    assert_eq!(
        client::get(addr, "/sessions/a/versions/x").unwrap().status,
        400
    );
    assert_eq!(client::get(addr, "/sessions/a/diff").unwrap().status, 400);
    assert_eq!(
        client::get(addr, "/sessions/a/diff?from=0&to=9")
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client::get(addr, "/sessions/a/diff?from=0&to=0")
            .unwrap()
            .status,
        200
    );
    server.shutdown();
}
