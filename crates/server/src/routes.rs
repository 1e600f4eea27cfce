//! Request routing: maps parsed HTTP requests onto [`SessionManager`]
//! operations and renders JSON responses.
//!
//! This layer is transport-free — it consumes an already-parsed
//! [`Request`] and produces a [`Response`] — so every endpoint and error
//! mapping is unit-testable without sockets. The error contract (also in
//! `docs/API.md`):
//!
//! | condition                                   | status |
//! |---------------------------------------------|--------|
//! | malformed JSON / unknown edit kind / bad ref| 400    |
//! | unknown session, route, version, template   | 404    |
//! | wrong method on a known route               | 405    |
//! | session name already registered             | 409    |
//! | request body over the configured cap        | 413    |
//! | workflow fails to compile or execute        | 500    |

use crate::http::{ParseError, Request, Response};
use crate::json::Json;
use crate::server::ServerStats;
use crate::wire;
use helix_core::{HelixError, SessionHandle, SessionManager, Workflow};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds workflows by name for `POST /sessions`. Arbitrary DAGs cannot
/// cross the wire (operators hold closures), so the deployment registers
/// the programs its analysts iterate on — the paper's model, where the
/// DSL program lives with the system and the human turns its knobs.
#[derive(Default)]
pub struct WorkflowRegistry {
    builders: BTreeMap<String, Box<dyn Fn() -> helix_core::Result<Workflow> + Send + Sync>>,
}

impl std::fmt::Debug for WorkflowRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowRegistry")
            .field("templates", &self.names())
            .finish()
    }
}

impl WorkflowRegistry {
    /// An empty registry.
    pub fn new() -> WorkflowRegistry {
        WorkflowRegistry::default()
    }

    /// Registers (or replaces) a named workflow template.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        build: impl Fn() -> helix_core::Result<Workflow> + Send + Sync + 'static,
    ) {
        self.builders.insert(name.into(), Box::new(build));
    }

    /// Builds a fresh workflow from a template.
    pub fn build(&self, name: &str) -> Option<helix_core::Result<Workflow>> {
        self.builders.get(name).map(|b| b())
    }

    /// Registered template names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.builders.keys().cloned().collect()
    }
}

/// The HTTP API over one engine: a session manager plus the workflow
/// registry. [`Api::handle`] is pure request→response; the server module
/// wires it to sockets.
#[derive(Debug)]
pub struct Api {
    manager: Arc<SessionManager>,
    registry: WorkflowRegistry,
    server_stats: Option<Arc<ServerStats>>,
}

/// Maps an engine error to the documented status code: bad references
/// and invalid edits are the caller's fault (400), everything that
/// failed while executing a valid request is the server's (500).
pub fn status_for(err: &HelixError) -> u16 {
    match err {
        HelixError::Workflow(_) | HelixError::Compile(_) => 400,
        HelixError::Exec(_)
        | HelixError::Store(_)
        | HelixError::Dataflow(_)
        | HelixError::Ml(_)
        | HelixError::Io(_) => 500,
    }
}

fn error_body(status: u16, message: impl Into<String>) -> Response {
    let body = Json::obj([
        ("error", Json::str(message.into())),
        ("status", Json::Num(status as f64)),
    ]);
    Response::json(status, body.to_string())
}

fn engine_error(err: HelixError) -> Response {
    error_body(status_for(&err), err.to_string())
}

fn ok(body: Json) -> Response {
    Response::json(200, body.to_string())
}

impl Api {
    /// An API over `manager`, creating sessions from `registry`.
    pub fn new(manager: Arc<SessionManager>, registry: WorkflowRegistry) -> Api {
        Api {
            manager,
            registry,
            server_stats: None,
        }
    }

    /// The underlying session manager.
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Wires in the serving counters so `GET /stats` can report them.
    /// Called by `Server::bind`; an API without stats (unit tests, the
    /// in-process path) answers `/stats` with zeros.
    pub fn attach_server_stats(&mut self, stats: Arc<ServerStats>) {
        self.server_stats = Some(stats);
    }

    /// Recovers durable sessions from the engine's store directory,
    /// rebuilding each one's template workflow from this API's registry.
    /// Call once after construction, before serving; returns the number
    /// of sessions brought back (always 0 on a volatile engine).
    pub fn recover_sessions(&self) -> usize {
        self.manager
            .recover(|template| self.registry.build(template).and_then(Result::ok))
    }

    /// Renders the response for one request-parse failure.
    pub fn parse_failure(err: &ParseError) -> Response {
        match err {
            ParseError::BodyTooLarge { .. } => error_body(413, err.to_string()),
            ParseError::TimedOut { .. } => error_body(408, err.to_string()),
            _ => error_body(400, err.to_string()),
        }
    }

    /// Routes one request. Never panics; anything unroutable becomes a
    /// JSON error response.
    pub fn handle(&self, req: &Request) -> Response {
        let segments = req.segments();
        let segments: Vec<&str> = segments.iter().map(String::as_str).collect();
        match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => ok(Json::obj([("status", Json::str("ok"))])),
            ("GET", ["workflows"]) => ok(Json::obj([(
                "workflows",
                Json::Arr(self.registry.names().iter().map(Json::str).collect()),
            )])),
            ("GET", ["stats"]) => self.stats(),
            ("GET", ["sessions"]) => self.list_sessions(),
            ("POST", ["sessions"]) => self.create_session(&req.body),
            ("GET", ["sessions", name]) => self.with_session(name, |s| Ok(self.session_info(s))),
            ("DELETE", ["sessions", name]) => self.close_session(name),
            ("POST", ["sessions", name, "edits"]) => self.apply_edit(name, &req.body),
            ("POST", ["sessions", name, "iterate"]) => self.iterate(name),
            ("POST", ["sessions", name, "data"]) => self.append_data(name, &req.body),
            ("GET", ["sessions", name, "uncertain"]) => self.uncertain(name, req),
            ("PUT", ["sessions", name, "workflow"]) => self.replace_workflow(name, &req.body),
            ("GET", ["sessions", name, "versions"]) => self.versions(name),
            ("GET", ["sessions", name, "versions", id]) => self.version_detail(name, id),
            ("GET", ["sessions", name, "diff"]) => self.diff(name, req),
            ("GET", ["versions"]) => self.global_versions(),
            ("POST", ["admin", "snapshot"]) => self.admin_snapshot(),
            (_, ["admin", "snapshot"])
            | (_, ["healthz" | "workflows" | "versions" | "sessions" | "stats"])
            | (_, ["sessions", _])
            | (
                _,
                ["sessions", _, "edits" | "iterate" | "workflow" | "versions" | "diff" | "data" | "uncertain"],
            )
            | (_, ["sessions", _, "versions", _]) => error_body(
                405,
                format!("method {} not allowed on {}", req.method, req.path),
            ),
            _ => error_body(404, format!("no route for {}", req.path)),
        }
    }

    fn with_session(
        &self,
        name: &str,
        f: impl FnOnce(&SessionHandle) -> Result<Response, HelixError>,
    ) -> Response {
        match self.manager.get(name) {
            Some(session) => f(&session).unwrap_or_else(engine_error),
            None => error_body(404, format!("unknown session `{name}`")),
        }
    }

    fn session_info(&self, session: &SessionHandle) -> Response {
        let (iterations, pending, nodes) = session.with(|s| {
            (
                s.iteration(),
                s.pending_edits().len(),
                s.workflow()
                    .nodes()
                    .iter()
                    .map(|n| n.name.clone())
                    .collect::<Vec<_>>(),
            )
        });
        ok(Json::obj([
            ("name", Json::str(session.name())),
            ("iterations", Json::Num(iterations as f64)),
            ("pending_edits", Json::Num(pending as f64)),
            ("nodes", Json::Arr(nodes.iter().map(Json::str).collect())),
        ]))
    }

    fn list_sessions(&self) -> Response {
        let sessions = self
            .manager
            .names()
            .into_iter()
            .map(|name| {
                let iterations = self.manager.get(&name).map(|s| s.iteration()).unwrap_or(0);
                Json::obj([
                    ("name", Json::str(name)),
                    ("iterations", Json::Num(iterations as f64)),
                ])
            })
            .collect();
        ok(Json::obj([("sessions", Json::Arr(sessions))]))
    }

    /// Resolves the request's `workflow` field to a freshly built
    /// workflow, returning the template name alongside it so callers can
    /// record the session's provenance for durable recovery.
    fn build_workflow(&self, body: &Json) -> Result<(String, Workflow), Response> {
        let Some(template) = body.get("workflow").and_then(Json::as_str) else {
            return Err(error_body(400, "missing or non-string field `workflow`"));
        };
        match self.registry.build(template) {
            None => Err(error_body(
                404,
                format!(
                    "unknown workflow template `{template}` (registered: {})",
                    self.registry.names().join(", ")
                ),
            )),
            Some(Err(err)) => Err(engine_error(err)),
            Some(Ok(workflow)) => Ok((template.to_string(), workflow)),
        }
    }

    fn create_session(&self, body: &str) -> Response {
        let body = match Json::parse(body) {
            Ok(v) => v,
            Err(err) => return error_body(400, err.to_string()),
        };
        let Some(name) = body.get("name").and_then(Json::as_str) else {
            return error_body(400, "missing or non-string field `name`");
        };
        let (template, workflow) = match self.build_workflow(&body) {
            Ok(built) => built,
            Err(resp) => return resp,
        };
        match self
            .manager
            .create_with_template(name, workflow, Some(&template))
        {
            Ok(session) => {
                let mut resp = self.session_info(&session);
                resp.status = 201;
                resp
            }
            // The manager's only create-time failure is a taken name.
            Err(err) => error_body(409, err.to_string()),
        }
    }

    fn close_session(&self, name: &str) -> Response {
        match self.manager.remove(name) {
            Some(session) => ok(Json::obj([
                ("closed", Json::str(name)),
                ("iterations", Json::Num(session.iteration() as f64)),
            ])),
            None => error_body(404, format!("unknown session `{name}`")),
        }
    }

    fn apply_edit(&self, name: &str, body: &str) -> Response {
        let body = match Json::parse(body) {
            Ok(v) => v,
            Err(err) => return error_body(400, err.to_string()),
        };
        let edit = match wire::parse_edit(&body) {
            Ok(edit) => edit,
            Err(err) => return error_body(400, err.to_string()),
        };
        self.with_session(name, |session| {
            match edit {
                wire::EditRequest::SetLearnerParam { learner, param } => {
                    session.set_learner_param(&learner, param)?
                }
                wire::EditRequest::ReplaceOperator { node, kind } => {
                    session.replace_operator(&node, kind)?
                }
                wire::EditRequest::Rewire { node, parents } => {
                    let refs: Vec<&str> = parents.iter().map(String::as_str).collect();
                    session.rewire(&node, &refs)?
                }
                wire::EditRequest::AddOutput { node } => session.add_output(&node)?,
            }
            let pending = session.with(|s| {
                s.pending_edits()
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
            });
            Ok(ok(Json::obj([
                ("session", Json::str(name)),
                (
                    "pending_edits",
                    Json::Arr(pending.iter().map(Json::str).collect()),
                ),
            ])))
        })
    }

    fn iterate(&self, name: &str) -> Response {
        self.with_session(name, |session| {
            let report = session.iterate()?;
            Ok(ok(wire::report_json(&report)))
        })
    }

    /// `POST /sessions/{name}/data`: durably appends labeled rows to a
    /// CSV source's training split (the active-learning label return).
    /// Body: `{"source": "<node>", "rows": ["<csv line>", ...]}`.
    fn append_data(&self, name: &str, body: &str) -> Response {
        let body = match Json::parse(body) {
            Ok(v) => v,
            Err(err) => return error_body(400, err.to_string()),
        };
        let Some(source) = body.get("source").and_then(Json::as_str) else {
            return error_body(400, "missing or non-string field `source`");
        };
        let Some(items) = body.get("rows").and_then(Json::as_array) else {
            return error_body(400, "missing or non-array field `rows`");
        };
        let mut rows = Vec::with_capacity(items.len());
        for item in items {
            match item.as_str() {
                Some(line) => rows.push(line.to_string()),
                None => return error_body(400, "field `rows` must contain only strings"),
            }
        }
        if rows.is_empty() {
            return error_body(400, "field `rows` must not be empty");
        }
        self.with_session(name, |session| {
            let appended = session.append_data(source, &rows)?;
            Ok(ok(Json::obj([
                ("session", Json::str(name)),
                ("source", Json::str(source)),
                ("appended", Json::Num(appended as f64)),
            ])))
        })
    }

    /// `GET /sessions/{name}/uncertain?k=N`: the `k` test-split
    /// predictions closest to the decision boundary from the session's
    /// last iteration — what an active-learning oracle labels next.
    fn uncertain(&self, name: &str, req: &Request) -> Response {
        let k = match req.query_param("k") {
            Some(raw) => match raw.parse::<usize>() {
                Ok(k) => k,
                Err(_) => return error_body(400, "query parameter `k` is not a number"),
            },
            None => 10,
        };
        self.with_session(name, |session| {
            let examples = session.uncertain_examples(k)?;
            Ok(ok(Json::obj([
                ("session", Json::str(name)),
                ("k", Json::Num(k as f64)),
                (
                    "examples",
                    Json::Arr(examples.iter().map(wire::uncertain_json).collect()),
                ),
            ])))
        })
    }

    fn replace_workflow(&self, name: &str, body: &str) -> Response {
        let body = match Json::parse(body) {
            Ok(v) => v,
            Err(err) => return error_body(400, err.to_string()),
        };
        let (template, workflow) = match self.build_workflow(&body) {
            Ok(built) => built,
            Err(resp) => return resp,
        };
        self.with_session(name, |session| {
            // The replacement is itself a registry template, so the
            // durable record stays exactly recoverable (template + empty
            // edit log) instead of degrading to template-reset mode.
            session.replace_workflow_from_template(workflow, &template);
            Ok(ok(Json::obj([
                ("session", Json::str(name)),
                ("workflow_replaced", Json::Bool(true)),
            ])))
        })
    }

    fn versions(&self, name: &str) -> Response {
        self.with_session(name, |session| {
            let versions = session.versions();
            Ok(ok(Json::obj([(
                "versions",
                Json::Arr(versions.all().iter().map(|v| v.summary_json()).collect()),
            )])))
        })
    }

    fn version_detail(&self, name: &str, id: &str) -> Response {
        let Ok(id) = id.parse::<usize>() else {
            return error_body(400, format!("version id `{id}` is not a number"));
        };
        self.with_session(name, |session| {
            let versions = session.versions();
            Ok(match versions.get(id) {
                Some(version) => ok(version.to_json()),
                None => error_body(404, format!("session `{name}` has no version {id}")),
            })
        })
    }

    fn diff(&self, name: &str, req: &Request) -> Response {
        let parse = |key: &str| -> Result<usize, Response> {
            req.query_param(key)
                .ok_or_else(|| error_body(400, format!("missing query parameter `{key}`")))?
                .parse()
                .map_err(|_| error_body(400, format!("query parameter `{key}` is not a number")))
        };
        let (from, to) = match (parse("from"), parse("to")) {
            (Ok(from), Ok(to)) => (from, to),
            (Err(resp), _) | (_, Err(resp)) => return resp,
        };
        self.with_session(name, |session| {
            let versions = session.versions();
            Ok(match versions.diff(from, to) {
                Some(diff) => ok(wire::diff_json(&diff)),
                None => error_body(
                    404,
                    format!("session `{name}` has no versions {from} and {to}"),
                ),
            })
        })
    }

    /// `GET /stats` (schema `"v": 5`): serving counters, the live
    /// session count, the durability counters — sessions and store
    /// entries recovered at startup, and meta and session log records
    /// recovery dropped (all zero on a volatile engine) —
    /// the optimizer counters: memo size, observations recorded and
    /// adaptive re-plans triggered — the store's decoded-read cache:
    /// outputs held, their estimated bytes, and loads answered from it —
    /// and the outputs displacement evicted, with their bytes.
    /// An API never attached to a socket server reports zeroed serving
    /// counters.
    fn stats(&self) -> Response {
        let snap = self
            .server_stats
            .as_deref()
            .map(ServerStats::snapshot)
            .unwrap_or_else(|| ServerStats::default().snapshot());
        let engine = self.manager.engine();
        let recovery = engine.recovery();
        let optimizer = engine.optimizer_stats();
        let decoded = engine.store().decoded_stats();
        let displaced = engine.store().displaced_stats();
        ok(Json::obj([
            ("v", Json::Num(5.0)),
            ("connections", Json::Num(snap.connections as f64)),
            ("requests", Json::Num(snap.requests as f64)),
            ("shed", Json::Num(snap.shed as f64)),
            ("shed_dropped", Json::Num(snap.shed_dropped as f64)),
            ("sessions_evicted", Json::Num(snap.sessions_evicted as f64)),
            ("sessions", Json::Num(self.manager.len() as f64)),
            (
                "recovered_sessions",
                Json::Num(self.manager.recovered_sessions() as f64),
            ),
            (
                "recovered_entries",
                Json::Num(recovery.store.recovered_entries as f64),
            ),
            (
                "meta_records_dropped",
                Json::Num(recovery.meta_records_dropped as f64),
            ),
            (
                "session_records_dropped",
                Json::Num(self.manager.session_records_dropped() as f64),
            ),
            ("memo_entries", Json::Num(optimizer.memo_entries as f64)),
            (
                "observations_recorded",
                Json::Num(optimizer.observations_recorded as f64),
            ),
            (
                "replans_triggered",
                Json::Num(optimizer.replans_triggered as f64),
            ),
            ("decoded_entries", Json::Num(decoded.entries as f64)),
            ("decoded_bytes", Json::Num(decoded.bytes as f64)),
            ("decoded_hits", Json::Num(decoded.hits as f64)),
            ("displaced_entries", Json::Num(displaced.entries as f64)),
            ("displaced_bytes", Json::Num(displaced.bytes as f64)),
        ]))
    }

    /// `POST /admin/snapshot`: forces a durability checkpoint — compacts
    /// the engine meta log and every live session's log into their
    /// snapshots. 400 on a volatile engine,
    /// where there is nothing to checkpoint.
    fn admin_snapshot(&self) -> Response {
        let engine = self.manager.engine();
        if !engine.store().durability().is_durable() {
            return error_body(
                400,
                "store is volatile; nothing to snapshot (set HELIX_DURABILITY=wal)",
            );
        }
        if let Err(err) = engine.snapshot_now() {
            return engine_error(err);
        }
        self.manager.persist_all();
        ok(Json::obj([("snapshotted", Json::Bool(true))]))
    }

    fn global_versions(&self) -> Response {
        let versions = self.manager.engine().versions();
        ok(Json::obj([(
            "versions",
            Json::Arr(versions.all().iter().map(|v| v.summary_json()).collect()),
        )]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_mapping_matches_docs() {
        assert_eq!(status_for(&HelixError::Workflow("x".into())), 400);
        assert_eq!(status_for(&HelixError::Compile("x".into())), 400);
        assert_eq!(status_for(&HelixError::Exec("x".into())), 500);
        assert_eq!(status_for(&HelixError::Store("x".into())), 500);
        assert_eq!(status_for(&HelixError::Io(std::io::Error::other("x"))), 500);
    }

    #[test]
    fn parse_failures_map_to_400_and_413() {
        let too_large = ParseError::BodyTooLarge {
            declared: 10,
            limit: 5,
        };
        assert_eq!(Api::parse_failure(&too_large).status, 413);
        let malformed = ParseError::Malformed("nope".into());
        assert_eq!(Api::parse_failure(&malformed).status, 400);
        let stalled = ParseError::TimedOut { mid_request: true };
        assert_eq!(Api::parse_failure(&stalled).status, 408);
    }

    /// Every `METHOD /path` row of docs/API.md's endpoint table reaches a
    /// handler: a removed route cannot stay documented.
    #[test]
    fn documented_routes_exist() {
        use helix_core::EngineConfig;

        let dir = std::env::temp_dir().join(format!("helix-routes-docs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manager = Arc::new(SessionManager::with_config(EngineConfig::helix(&dir)).unwrap());
        let api = Api::new(manager, WorkflowRegistry::new());
        let routes: Vec<(&str, &str)> = include_str!("../../../docs/API.md")
            .lines()
            .filter_map(|line| line.strip_prefix("| `")?.split('`').next()?.split_once(' '))
            .filter(|(method, path)| {
                method.bytes().all(|b| b.is_ascii_uppercase()) && path.starts_with('/')
            })
            .collect();
        assert!(routes.contains(&("GET", "/healthz")), "no endpoint table");
        for (method, path) in routes {
            let path = path.split('?').next().unwrap();
            let path = path
                .replace("{name}", "no-such-session")
                .replace("{id}", "0");
            let response = api.handle(&Request {
                method: method.into(),
                path: path.clone(),
                query: Vec::new(),
                body: String::new(),
                close: false,
            });
            assert!(
                !(response.status == 404 && response.body.contains("no route for")),
                "documented route {method} {path} is not routed: {}",
                response.body
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_report_the_decoded_read_cache() {
        use helix_core::signature::Signature;
        use helix_core::{EngineConfig, NodeOutput};
        use helix_dataflow::{DataCollection, DataType, Row, Schema, Value};

        let dir = std::env::temp_dir().join(format!("helix-routes-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manager = Arc::new(SessionManager::with_config(EngineConfig::helix(&dir)).unwrap());
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rows = (0..64).map(|i| Row(vec![Value::Int(i)])).collect();
        let output = NodeOutput::Data(DataCollection::new(schema, rows).unwrap());
        let store = manager.engine().store().clone();
        store.put(Signature(1), &output).unwrap();
        // The second read admits the output, the third is a hit.
        for _ in 0..3 {
            store.get(Signature(1)).unwrap();
        }

        let api = Api::new(manager, WorkflowRegistry::new());
        let response = api.handle(&Request {
            method: "GET".into(),
            path: "/stats".into(),
            query: Vec::new(),
            body: String::new(),
            close: false,
        });
        let stats = Json::parse(&response.body).unwrap();
        let field = |key: &str| stats.get(key).and_then(Json::as_u64);
        assert_eq!(field("v"), Some(5));
        assert_eq!(field("decoded_entries"), Some(1));
        assert_eq!(
            field("decoded_bytes"),
            Some(output.estimated_bytes() as u64)
        );
        assert_eq!(field("decoded_hits"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_report_displaced_residents() {
        use helix_core::signature::Signature;
        use helix_core::{EngineConfig, NodeOutput};
        use helix_dataflow::{DataCollection, DataType, Row, Schema, Value};

        let dir =
            std::env::temp_dir().join(format!("helix-routes-displaced-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rows = (0..64).map(|i| Row(vec![Value::Int(i)])).collect();
        let output = NodeOutput::Data(DataCollection::new(schema, rows).unwrap());
        let size = output.encode().len() as u64;
        // Room for one output: the second put must displace the first.
        let config = EngineConfig::helix(&dir).with_budget(size + size / 2);
        let manager = Arc::new(SessionManager::with_config(config).unwrap());
        let store = manager.engine().store().clone();
        store.put(Signature(1), &output).unwrap();
        assert!(store.put(Signature(2), &output).is_err());
        store
            .put_grouped(Signature(2), &output, &[], &[Signature(1)])
            .unwrap();

        let api = Api::new(manager, WorkflowRegistry::new());
        let response = api.handle(&Request {
            method: "GET".into(),
            path: "/stats".into(),
            query: Vec::new(),
            body: String::new(),
            close: false,
        });
        let stats = Json::parse(&response.body).unwrap();
        let field = |key: &str| stats.get(key).and_then(Json::as_u64);
        assert_eq!(field("v"), Some(5));
        assert_eq!(field("displaced_entries"), Some(1));
        assert_eq!(field("displaced_bytes"), Some(size));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_report_dropped_log_records() {
        use helix_core::{Durability, EngineConfig, Workflow};
        use std::io::Write;

        let dir = std::env::temp_dir().join(format!("helix-routes-dropped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || EngineConfig::helix(&dir).with_durability(Durability::wal());
        {
            let manager = SessionManager::with_config(config()).unwrap();
            let docs = dir.join("docs.txt");
            std::fs::write(&docs, "one\ntwo\n").unwrap();
            let mut w = Workflow::new("w");
            let source = w.text_source("docs", docs, 0.0).unwrap();
            w.output(&source);
            // The first record compacts into a fresh snapshot; the second
            // stays in the log.
            manager.engine().run(&w).unwrap();
            manager.engine().run(&w).unwrap();
            let a = manager
                .create_with_template("a", Workflow::new("w"), Some("t"))
                .unwrap();
            a.edit("note", |_| Ok(())).unwrap();
        }
        // A torn append at the end of each log.
        for log in ["engine.log", "sessions/a.log"] {
            let path = dir.join("meta").join(log);
            let mut file = std::fs::OpenOptions::new().append(true).open(path).unwrap();
            file.write_all(br#"{"seq":99,"op":"#).unwrap();
        }

        let manager = Arc::new(SessionManager::with_config(config()).unwrap());
        assert_eq!(manager.recover(|_| Some(Workflow::new("w"))), 1);
        let api = Api::new(manager, WorkflowRegistry::new());
        let response = api.handle(&Request {
            method: "GET".into(),
            path: "/stats".into(),
            query: Vec::new(),
            body: String::new(),
            close: false,
        });
        let stats = Json::parse(&response.body).unwrap();
        let field = |key: &str| stats.get(key).and_then(Json::as_u64);
        assert_eq!(field("meta_records_dropped"), Some(1));
        assert_eq!(field("session_records_dropped"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
