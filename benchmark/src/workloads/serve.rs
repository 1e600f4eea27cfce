//! `serve_edit_loop`: the analyst's edit→report loop over the wire. An
//! in-process server with two workers; two keep-alive clients, each its
//! own session from the `census` template, in a closed loop (each waits
//! for its reply): `POST edits` then `POST iterate`, cycling through a
//! learner-knob flip (L/I), a metrics swap (PPR) and an extractor rewire
//! (DPR), and every tenth cycle `GET versions` and `GET /sessions/{name}`.
//!
//! Every edit toggles between two values, so after the first few cycles
//! each iterate is all loads: engine work is tiny and `http`, `routes`,
//! `wire`, `json` and the session locks are what is left. NLP, durability
//! and partitioning are bypassed.

use super::{Ctx, EditKind, Pass, Res, Seen, Workload};
use crate::check::{same_metrics, Tally};
use crate::ledger::{IterSummary, Metrics};
use crate::probes;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;
use helix_core::{
    Durability, Engine, EvalSpec, LearnerParam, MetricKind, OperatorKind, SessionHandle,
    SessionManager,
};
use helix_json::Json;
use helix_server::client::Client;
use helix_server::http::{self, Request};
use helix_server::{wire, Api, Server, ServerHandle, WorkflowRegistry};
use helix_workloads::census::{self, CensusDataSpec, CensusParams};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const TEMPLATE: &str = "census";
/// Cycle `c` makes edit `CYCLE[c % 3]`.
const CYCLE: [EditKind; 3] = [EditKind::Li, EditKind::Ppr, EditKind::Dpr];
/// Every this many cycles the client also reads its history and status.
const HISTORY_EVERY: usize = 10;

/// The three two-valued dials the loop turns; eight states in all.
#[derive(Debug, Clone, Copy, Default)]
struct Dials {
    low_reg: bool,
    wide_metrics: bool,
    with_ms: bool,
}

impl Dials {
    fn from_index(index: usize) -> Dials {
        Dials {
            low_reg: index & 1 != 0,
            wide_metrics: index & 2 != 0,
            with_ms: index & 4 != 0,
        }
    }

    fn index(self) -> usize {
        usize::from(self.low_reg)
            | usize::from(self.wide_metrics) << 1
            | usize::from(self.with_ms) << 2
    }

    fn turn(&mut self, kind: EditKind) {
        match kind {
            EditKind::Li => self.low_reg = !self.low_reg,
            EditKind::Ppr => self.wide_metrics = !self.wide_metrics,
            EditKind::Dpr => self.with_ms = !self.with_ms,
        }
    }

    fn reg_param(self) -> f64 {
        if self.low_reg {
            0.01
        } else {
            0.1
        }
    }

    fn metrics(self) -> Vec<MetricKind> {
        if self.wide_metrics {
            vec![MetricKind::Accuracy, MetricKind::F1]
        } else {
            vec![MetricKind::Accuracy]
        }
    }

    /// Parents of the `income` assemble node, in `census_workflow`'s
    /// wiring order.
    fn income_parents(self) -> Vec<&'static str> {
        let mut parents = vec![
            "rows",
            "edu",
            "occ",
            "ageBucket",
            "hoursBucket",
            "sex",
            "clBucket",
        ];
        if self.with_ms {
            parents.push("ms");
        }
        parents.push("target");
        parents
    }

    /// The workflow this state amounts to, built the ordinary way — what
    /// the reference twin runs.
    fn params(self, data: &Path) -> CensusParams {
        CensusParams {
            reg_param: self.reg_param(),
            metrics: self.metrics(),
            include_marital_status: self.with_ms,
            ..CensusParams::initial(data)
        }
    }

    /// The wire body of the edit that brings a session to this state.
    fn edit_body(self, kind: EditKind) -> String {
        match kind {
            EditKind::Li => format!(
                r#"{{"kind":"set_learner_param","learner":"predictions","param":"reg_param","value":{}}}"#,
                self.reg_param()
            ),
            EditKind::Ppr => format!(
                r#"{{"kind":"replace_operator","node":"checked","operator":{{"kind":"evaluate","metrics":[{}],"split":"test"}}}}"#,
                self.metrics()
                    .iter()
                    .map(|m| format!("\"{}\"", m.name()))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            EditKind::Dpr => format!(
                r#"{{"kind":"rewire","node":"income","parents":[{}]}}"#,
                self.income_parents()
                    .iter()
                    .map(|p| format!("\"{p}\""))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        }
    }

    /// The same edit through the typed session API.
    fn edit_session(self, kind: EditKind, session: &SessionHandle) -> helix_core::Result<()> {
        match kind {
            EditKind::Li => {
                session.set_learner_param("predictions", LearnerParam::RegParam(self.reg_param()))
            }
            EditKind::Ppr => session.replace_operator(
                "checked",
                OperatorKind::Evaluate(EvalSpec {
                    metrics: self.metrics(),
                    split: helix_core::SPLIT_TEST.into(),
                }),
            ),
            EditKind::Dpr => session.rewire("income", &self.income_parents()),
        }
    }
}

/// The workload: generated data plus the reference answer per dial state.
pub struct ServeLoop {
    dir: PathBuf,
    cycles: usize,
    probe_calls: usize,
    store_replay_entries: usize,
    expected: Vec<Vec<(String, f64)>>,
}

/// One client: its connection, its session's expected state, and what it
/// has seen. Lives on its own thread during the closed loop.
struct Analyst<'a> {
    client: Client,
    session: String,
    dials: Dials,
    iteration: usize,
    expected: &'a [Vec<(String, f64)>],
    tally: Tally,
    tracer: Tracer,
    iters: Vec<IterSummary>,
    edits: Vec<(EditKind, f64)>,
}

impl<'a> Analyst<'a> {
    fn new(
        addr: SocketAddr,
        session: &str,
        expected: &'a [Vec<(String, f64)>],
        tracer: Tracer,
    ) -> Analyst<'a> {
        Analyst {
            client: Client::new(addr),
            session: session.to_string(),
            dials: Dials::default(),
            iteration: 0,
            expected,
            tally: Tally::default(),
            tracer,
            iters: Vec::new(),
            edits: Vec::new(),
        }
    }

    /// One request; any transport error or non-2xx status is a failure.
    fn send(&mut self, span: &'static str, method: &str, path: &str, body: &str) -> Option<Json> {
        let id = self.tracer.enter(span);
        let reply = self.client.request(method, path, body);
        self.tracer.exit(id);
        let ok = reply.as_ref().is_ok_and(|r| (200..300).contains(&r.status));
        self.tally
            .op(ok, || format!("{method} {path} answered {reply:?}"));
        reply.ok().filter(|_| ok).map(|r| r.body)
    }

    fn create(&mut self) {
        let body = format!(r#"{{"name":"{}","workflow":"{TEMPLATE}"}}"#, self.session);
        self.send("http.create", "POST", "/sessions", &body);
    }

    /// `POST iterate`, checked: the reply carries the iteration counter
    /// this client expects and the reference metrics of its dial state.
    fn iterate(&mut self) {
        let path = format!("/sessions/{}/iterate", self.session);
        let Some(body) = self.send("http.iterate", "POST", &path, "") else {
            return;
        };
        let summary = IterSummary::from_wire(&body);
        let want = self.expected.get(self.dials.index());
        let ok = summary.as_ref().is_some_and(|s| {
            s.iteration == self.iteration && want.is_none_or(|w| same_metrics(&s.metrics, w))
        });
        self.tally.op(ok, || {
            format!(
                "{path}: expected iteration {} with {want:?}, got {body}",
                self.iteration
            )
        });
        self.iteration += 1;
        self.iters.extend(summary);
    }

    fn cycle(&mut self, cycle: usize) {
        let kind = CYCLE[cycle % CYCLE.len()];
        self.tracer.set_iteration(cycle + 1);
        let span = self.tracer.enter("cycle");
        let issued = Instant::now();
        self.dials.turn(kind);
        let path = format!("/sessions/{}/edits", self.session);
        self.send("http.edit", "POST", &path, &self.dials.edit_body(kind));
        self.iterate();
        self.edits
            .push((kind, issued.elapsed().as_secs_f64() * 1e3));
        if cycle % HISTORY_EVERY == HISTORY_EVERY - 1 {
            let path = format!("/sessions/{}/versions", self.session);
            let versions = self.send("http.versions", "GET", &path, "");
            let listed = versions
                .as_ref()
                .and_then(|v| v.get("versions"))
                .and_then(Json::as_array)
                .map(<[Json]>::len);
            let path = format!("/sessions/{}", self.session);
            let info = self.send("http.session_info", "GET", &path, "");
            let counted = info
                .as_ref()
                .and_then(|i| i.get("iterations"))
                .and_then(Json::as_u64);
            let want = self.iteration;
            self.tally
                .op(listed == Some(want) && counted == Some(want as u64), || {
                    format!(
                        "history after {want} iterations: {listed:?} listed, {counted:?} counted"
                    )
                });
        }
        self.tracer.exit(span);
    }
}

impl ServeLoop {
    fn data(&self) -> PathBuf {
        self.dir.join("data")
    }

    fn manager(&self, store_dir: &Path) -> Res<Arc<SessionManager>> {
        let _ = std::fs::remove_dir_all(store_dir);
        let engine = Engine::new(spec::engine_config(
            store_dir,
            Durability::Volatile,
            spec::ROOMY_BUDGET,
            spec::PARALLELISM,
        ))?;
        Ok(Arc::new(SessionManager::new(Arc::new(engine))))
    }

    fn api(&self, manager: Arc<SessionManager>) -> Api {
        let mut registry = WorkflowRegistry::new();
        let params = CensusParams::initial(&self.data());
        registry.register(TEMPLATE, move || census::census_workflow(&params));
        Api::new(manager, registry)
    }

    fn launch(&self, store_dir: &Path) -> Res<(ServerHandle, Arc<SessionManager>)> {
        let manager = self.manager(store_dir)?;
        let server = Server::bind(
            ("127.0.0.1", 0),
            self.api(Arc::clone(&manager)),
            spec::server_config(),
        )?;
        Ok((server, manager))
    }

    /// One closed-loop pass of `cycles` cycles per client on a fresh
    /// server and store.
    fn closed_loop(
        &self,
        tag: &str,
        cycles: usize,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Res<Pass> {
        let store_dir = self.dir.join(format!("store-{tag}"));
        let (mut server, manager) = self.launch(&store_dir)?;
        let ops_before = tally.attempted;
        let mut pass = Pass::default();
        let mut analysts: Vec<Analyst> = ["a0", "a1"]
            .iter()
            .map(|name| Analyst::new(server.addr(), name, &self.expected, tracer.fork(cycles * 6)))
            .collect();

        let pass_span = tracer.enter("pass");
        let started = Instant::now();
        // Iteration 0 on the empty store is the first client's alone, so
        // `cold_iter_s` does not depend on how two cold runs interleave.
        analysts[0].create();
        let cold = Instant::now();
        analysts[0].iterate();
        pass.cold_s = cold.elapsed().as_secs_f64();
        analysts[1].create();
        analysts[1].iterate();
        std::thread::scope(|scope| {
            for analyst in &mut analysts {
                scope.spawn(move || (0..cycles).for_each(|c| analyst.cycle(c)));
            }
        });
        pass.cumulative_s = started.elapsed().as_secs_f64();

        let mut slopes = Vec::new();
        let mut connects = 0;
        let history = analysts[0].iteration;
        for analyst in analysts {
            let latencies: Vec<f64> = analyst.edits.iter().map(|(_, ms)| *ms).collect();
            slopes.extend(stats::slope(&latencies));
            connects += analyst.client.connects();
            tally.merge(analyst.tally);
            tracer.absorb(analyst.tracer);
            pass.iters.extend(analyst.iters);
            pass.edits.extend(analyst.edits);
        }
        tracer.exit(pass_span);

        let served = server.stats();
        let shed = served.shed + served.shed_dropped;
        tally.op(shed == 0, || format!("server shed {shed} connections"));
        pass.ops = tally.attempted - ops_before;
        pass.layer = probes::store_state(
            manager.engine(),
            probes::file_bytes(&[
                &self.data().join("train.csv"),
                &self.data().join("test.csv"),
            ]),
        );
        pass.layer.extend([
            ("server.shed_total", shed as f64),
            ("server.connects", connects as f64),
            (
                "persist.iter_slope_x",
                stats::median(&slopes).unwrap_or(0.0),
            ),
            ("version.history_len", history as f64),
        ]);
        server.shutdown();
        drop(manager);
        let _ = std::fs::remove_dir_all(store_dir);
        Ok(pass)
    }

    /// The same edit cycle without sockets, twice over one engine: through
    /// `Api::handle` (routes, JSON in and out) and through the typed
    /// session API. Returns the direct session and its median cycle in µs.
    fn in_process(
        &self,
        manager: &Arc<SessionManager>,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Res<(SessionHandle, f64, String)> {
        let api = self.api(Arc::clone(manager));
        let handle = |tally: &mut Tally, method: &str, path: String, body: String| {
            let reply = api.handle(&Request {
                method: method.into(),
                path,
                query: Vec::new(),
                body,
                close: false,
            });
            tally.op((200..300).contains(&reply.status), || {
                format!("in-process request answered {reply:?}")
            });
            reply.body
        };
        let create = format!(r#"{{"name":"routes","workflow":"{TEMPLATE}"}}"#);
        handle(tally, "POST", "/sessions".into(), create);
        let mut iterate_body = handle(
            tally,
            "POST",
            "/sessions/routes/iterate".into(),
            String::new(),
        );
        let mut dials = Dials::default();
        for cycle in 0..self.cycles {
            let kind = CYCLE[cycle % CYCLE.len()];
            dials.turn(kind);
            handle(
                tally,
                "POST",
                "/sessions/routes/edits".into(),
                dials.edit_body(kind),
            );
            let span = tracer.enter("routes.handle_iterate");
            iterate_body = handle(
                tally,
                "POST",
                "/sessions/routes/iterate".into(),
                String::new(),
            );
            tracer.exit(span);
        }

        let workflow = census::census_workflow(&CensusParams::initial(&self.data()))?;
        let direct = manager.create("direct", workflow)?;
        direct.iterate()?;
        let mut dials = Dials::default();
        let mut cycle_us = Vec::with_capacity(self.cycles);
        for cycle in 0..self.cycles {
            let kind = CYCLE[cycle % CYCLE.len()];
            dials.turn(kind);
            let issued = Instant::now();
            dials.edit_session(kind, &direct)?;
            let report = direct.iterate();
            cycle_us.push(issued.elapsed().as_secs_f64() * 1e6);
            let want = self.expected.get(dials.index());
            tally.op(
                report
                    .as_ref()
                    .is_ok_and(|r| want.is_none_or(|w| same_metrics(&r.metrics, w))),
                || format!("in-process cycle {cycle}: {report:?}"),
            );
        }
        let median_us = stats::median(&cycle_us).ok_or("no in-process cycles ran")?;
        Ok((direct, median_us, iterate_body))
    }
}

impl Workload for ServeLoop {
    fn setup(ctx: &Ctx, attempt: usize) -> Res<Self> {
        let dir = ctx.work.join(format!("setup-{attempt}"));
        let (train_rows, test_rows) = ctx.sizes.serve_rows;
        census::generate_census(
            &dir.join("data"),
            &CensusDataSpec {
                train_rows,
                test_rows,
                seed: ctx.seed,
                missing_rate: 0.01,
            },
        )?;
        let workload = ServeLoop {
            dir,
            cycles: ctx.sizes.serve_cycles,
            probe_calls: ctx.sizes.probe_calls,
            store_replay_entries: ctx.sizes.store_replay_entries,
            expected: Vec::new(),
        };
        workload.closed_loop(
            "warmup",
            ctx.sizes.serve_warmup_cycles,
            &mut Tracer::off(),
            &mut Tally::default(),
        )?;
        Ok(workload)
    }

    fn prepare_checks(&mut self, tally: &mut Tally) -> Res<()> {
        let store_dir = self.dir.join("store-twin");
        let _ = std::fs::remove_dir_all(&store_dir);
        let twin = Engine::new(spec::twin_config(&store_dir))?;
        for index in 0..8 {
            let params = Dials::from_index(index).params(&self.data());
            let report = twin.run(&census::census_workflow(&params)?);
            tally.op(report.is_ok(), || format!("twin state {index}: {report:?}"));
            self.expected.push(report?.metrics);
        }
        drop(twin);
        let _ = std::fs::remove_dir_all(store_dir);
        Ok(())
    }

    fn pass(&self, rep: usize, tracer: &mut Tracer, tally: &mut Tally) -> Res<Pass> {
        self.closed_loop(&format!("pass-{rep}"), self.cycles, tracer, tally)
    }

    fn probes(&self, seen: Seen, tracer: &mut Tracer, tally: &mut Tally) -> Res<Metrics> {
        // The keep-alive round-trip floor: a request that does no work.
        let store_dir = self.dir.join("store-probe");
        let (mut server, manager) = self.launch(&store_dir)?;
        let mut client = Client::new(server.addr());
        for _ in 0..self.probe_calls {
            let reply = tracer.scope("server.healthz", || client.get("/healthz"));
            tally.op(reply.as_ref().is_ok_and(|r| r.status == 200), || {
                format!("healthz answered {reply:?}")
            });
        }
        let host = server.addr();
        drop(client);
        server.shutdown();

        let (direct, direct_cycle_us, iterate_body) = self.in_process(&manager, tracer, tally)?;

        // The pieces of one request, on the bytes the loop really sends.
        let edit = Dials::default().edit_body(EditKind::Dpr);
        let raw = format!(
            "POST /sessions/a0/edits HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{edit}",
            edit.len()
        );
        let max_body = spec::server_config().max_body_bytes;
        let report = direct.iterate()?;
        for _ in 0..self.probe_calls {
            let parsed = tracer.scope("http.parse", || {
                http::read_request(raw.as_bytes(), max_body)
            });
            tally.op(parsed.is_ok(), || format!("http parse: {parsed:?}"));
            let parsed = tracer.scope("json.parse", || Json::parse(&iterate_body));
            tally.op(parsed.is_ok(), || format!("json parse: {parsed:?}"));
            black_box(tracer.scope("wire.report_json", || {
                wire::report_json(&report).to_string()
            }));
        }

        let workflow = direct.with(|s| s.workflow().clone());
        probes::compile_path(tracer, &workflow, || direct.with(|s| s.compile_preview()))?;
        for _ in 0..20 {
            let report = tracer.scope("session.noop_iterate", || direct.iterate());
            tally.op(report.is_ok(), || format!("no-op iterate: {report:?}"));
        }
        probes::store_replay(
            tracer,
            manager.engine(),
            &self.dir.join("store-scratch"),
            self.store_replay_entries,
        )?;
        drop(direct);
        drop(manager);
        let _ = std::fs::remove_dir_all(store_dir);

        let initial = census::census_workflow(&CensusParams::initial(&self.data()))?;
        probes::scheduler_cold(
            tracer,
            tally,
            &initial,
            &self.dir.join("store-cold"),
            Durability::Volatile,
            spec::ROOMY_BUDGET,
        )?;
        Ok(vec![(
            "server.wire_overhead_us",
            seen.edit_p50_ms * 1e3 - direct_cycle_us,
        )])
    }
}
