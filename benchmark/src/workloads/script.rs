//! The two Fig. 2 workloads: a scripted series of human edits replayed
//! through `Engine::run`, one fresh store per pass.
//!
//! * `census_script` — Fig. 2(b). Cheap rows and a wide extractor
//!   fan-out under a budget where everything fits: cold and DPR edits are
//!   `exec`/`ml`, L/I edits are the learner tail, PPR edits are pure fixed
//!   overhead (compile + store reads + record). The store is read-mostly.
//! * `ie_script_tight` — Fig. 2(a). Expensive NLP rows partitioned across
//!   workers and large intermediates under a budget of a quarter of the
//!   materialize-everything footprint: `scheduler`/`pool`/`nlp` and the
//!   `materialize` decision do the work and the working set exceeds the
//!   store — the complement of `census_script`.

use super::{Ctx, EditKind, Pass, Res, Seen, Workload};
use crate::check::{same_metrics, Tally};
use crate::ledger::{self, IterSummary, Metrics};
use crate::probes;
use crate::spec;
use crate::trace::Tracer;
use helix_baselines::SystemKind;
use helix_core::materialize::MaterializationPolicyKind;
use helix_core::{Durability, Engine, EngineConfig, Workflow};
use helix_workloads::census::{self, CensusDataSpec, CensusParams};
use helix_workloads::ie::{self, IeParams};
use helix_workloads::news::{self, NewsDataSpec};
use helix_workloads::IterationSpec;
use std::path::PathBuf;
use std::time::Instant;

/// A scripted-iteration workload over parameter struct `P`.
pub struct Script<P> {
    dir: PathBuf,
    initial: P,
    build: fn(&P) -> helix_core::Result<Workflow>,
    edits: Vec<IterationSpec<P>>,
    budget: u64,
    input_bytes: u64,
    /// Metric values per iteration from the reference twin.
    expected: Vec<Vec<(String, f64)>>,
}

impl<P: Clone> Script<P> {
    fn helix_config(&self, tag: &str, parallelism: usize) -> EngineConfig {
        spec::engine_config(
            &self.dir.join(format!("store-{tag}")),
            Durability::Volatile,
            self.budget,
            parallelism,
        )
    }

    /// Replays the script on a fresh engine under `config`. Every report
    /// is checked against the reference twin once that exists. With
    /// `probe`, the compile path is taken apart before each run.
    fn replay(
        &self,
        config: EngineConfig,
        tracer: &mut Tracer,
        tally: &mut Tally,
        probe: bool,
    ) -> Res<(Pass, Engine, Workflow)> {
        let _ = std::fs::remove_dir_all(&config.store_dir);
        let engine = Engine::new(config)?;
        let mut params = self.initial.clone();
        let mut pass = Pass::default();
        let ops_before = tally.attempted;
        let mut last = None;
        let pass_span = tracer.enter("pass");
        let started = Instant::now();
        for i in 0..=self.edits.len() {
            tracer.set_iteration(i);
            let iteration_span = tracer.enter("iteration");
            let issued = Instant::now();
            let build_span = tracer.enter("workflow.build");
            if i > 0 {
                (self.edits[i - 1].apply)(&mut params);
            }
            let workflow = (self.build)(&params)?;
            tracer.exit(build_span);
            if probe {
                probes::compile_path(tracer, &workflow, || engine.compile_only(&workflow))?;
            }
            let run_span = tracer.enter("engine.run");
            let report = engine.run(&workflow);
            tracer.exit(run_span);
            let latency = issued.elapsed();
            let report = match report {
                Ok(report) => report,
                Err(err) => {
                    tally.op(false, || format!("iteration {i} failed: {err}"));
                    return Err(err.into());
                }
            };
            tracer.count("nodes.loaded", report.loaded() as f64);
            tracer.count("nodes.computed", report.computed() as f64);
            tracer.count("nodes.pruned", report.pruned() as f64);
            tracer.exit(iteration_span);
            let answer_ok = self
                .expected
                .get(i)
                .is_none_or(|want| same_metrics(&report.metrics, want));
            tally.op(answer_ok && report.iteration == i, || {
                format!(
                    "iteration {i} (engine says {}): got {:?}, twin has {:?}",
                    report.iteration,
                    report.metrics,
                    self.expected.get(i)
                )
            });
            if i == 0 {
                pass.cold_s = latency.as_secs_f64();
            } else {
                let kind = EditKind::from(self.edits[i - 1].stage);
                pass.edits.push((kind, latency.as_secs_f64() * 1e3));
            }
            pass.iters.push(IterSummary::from_report(&report));
            last = Some(workflow);
        }
        pass.cumulative_s = started.elapsed().as_secs_f64();
        tracer.exit(pass_span);
        pass.ops = tally.attempted - ops_before;
        pass.layer = probes::store_state(&engine, self.input_bytes);
        Ok((pass, engine, last.expect("a script has an initial version")))
    }

    fn measured_pass(&self, tag: &str, tracer: &mut Tracer, tally: &mut Tally) -> Res<Pass> {
        let config = self.helix_config(tag, spec::PARALLELISM);
        let (pass, engine, _) = self.replay(config, tracer, tally, false)?;
        probes::discard(engine);
        Ok(pass)
    }
}

/// What differs between the two scripts: the data they generate, the
/// workflow they build and the budget they run under.
pub trait ScriptParams: Clone + Sized {
    /// Generates the inputs under `dir/data` and describes the script.
    fn script(ctx: &Ctx, dir: PathBuf) -> Res<Script<Self>>;
}

impl<P: ScriptParams> Workload for Script<P> {
    fn setup(ctx: &Ctx, attempt: usize) -> Res<Self> {
        let script = P::script(ctx, ctx.work.join(format!("setup-{attempt}")))?;
        script.measured_pass("warmup", &mut Tracer::off(), &mut Tally::default())?;
        Ok(script)
    }

    fn prepare_checks(&mut self, tally: &mut Tally) -> Res<()> {
        let config = spec::twin_config(&self.dir.join("store-twin"));
        let (pass, engine, _) = self.replay(config, &mut Tracer::off(), tally, false)?;
        probes::discard(engine);
        self.expected = pass.iters.into_iter().map(|i| i.metrics).collect();
        Ok(())
    }

    fn pass(&self, rep: usize, tracer: &mut Tracer, tally: &mut Tally) -> Res<Pass> {
        self.measured_pass(&format!("pass-{rep}"), tracer, tally)
    }

    fn probes(&self, seen: Seen, tracer: &mut Tracer, tally: &mut Tally) -> Res<Metrics> {
        let mut out = Metrics::new();

        // One more pass with the compile path taken apart per version;
        // its engine, warm and full, feeds the store and no-op probes.
        let config = self.helix_config("probe", spec::PARALLELISM);
        let (_, engine, last) = self.replay(config, tracer, tally, true)?;
        for _ in 0..20 {
            let report = tracer.scope("session.noop_iterate", || engine.run(&last));
            tally.op(report.is_ok(), || format!("no-op iterate: {report:?}"));
        }
        probes::store_replay(tracer, &engine, &self.dir.join("store-scratch"), usize::MAX)?;
        probes::discard(engine);

        let initial = (self.build)(&self.initial)?;
        probes::scheduler_cold(
            tracer,
            tally,
            &initial,
            &self.dir.join("store-cold"),
            Durability::Volatile,
            self.budget,
        )?;

        // The residue `total_secs` leaves unexplained, at one thread so
        // node durations do not overlap.
        let (single, engine, _) = self.replay(
            self.helix_config("single", 1),
            &mut Tracer::off(),
            tally,
            false,
        )?;
        probes::discard(engine);
        out.push((
            "engine.unattributed_share",
            ledger::unattributed_share(&single.iters),
        ));

        // Fig. 2 context: the same script under the baselines' policies.
        let mut baseline = |system: SystemKind, tag: &str| -> Res<f64> {
            let config = spec::baseline_config(system, &self.dir.join(tag), self.budget);
            let (pass, engine, _) = self.replay(config, &mut Tracer::off(), tally, false)?;
            probes::discard(engine);
            Ok(pass.cumulative_s)
        };
        let rerun_all = baseline(SystemKind::KeystoneSim, "store-rerun-all")?;
        let unopt = baseline(SystemKind::HelixUnopt, "store-unopt")?;
        let materialize_all = baseline(SystemKind::DeepDiveSim, "store-materialize-all")?;
        let shape_ok = seen.cumulative_s <= unopt && seen.cumulative_s <= rerun_all;
        out.extend([
            ("baselines.rerun_all_cumulative_s", rerun_all),
            ("baselines.unopt_cumulative_s", unopt),
            ("baselines.materialize_all_cumulative_s", materialize_all),
            (
                "baselines.speedup_x",
                ledger::ratio(rerun_all, seen.cumulative_s),
            ),
            ("baselines.fig2_shape_ok", f64::from(u8::from(shape_ok))),
        ]);
        Ok(out)
    }
}

/// `census_script`.
pub type CensusScript = Script<CensusParams>;
/// `ie_script_tight`.
pub type IeScript = Script<IeParams>;

impl ScriptParams for CensusParams {
    fn script(ctx: &Ctx, dir: PathBuf) -> Res<CensusScript> {
        let (train_rows, test_rows) = ctx.sizes.census_rows;
        let (train, test) = census::generate_census(
            &dir.join("data"),
            &CensusDataSpec {
                train_rows,
                test_rows,
                seed: ctx.seed,
                missing_rate: 0.01,
            },
        )?;
        Ok(Script {
            initial: CensusParams::initial(&dir.join("data")),
            build: census::census_workflow,
            edits: census::census_iterations(),
            budget: spec::ROOMY_BUDGET,
            input_bytes: probes::file_bytes(&[&train, &test]),
            expected: Vec::new(),
            dir,
        })
    }
}

impl ScriptParams for IeParams {
    fn script(ctx: &Ctx, dir: PathBuf) -> Res<IeScript> {
        let data = news::generate_news(
            &dir.join("data"),
            &NewsDataSpec {
                docs: ctx.sizes.ie_docs,
                sentences_per_doc: (3, 7),
                seed: ctx.seed,
            },
        )?;
        let mut script = Script {
            initial: IeParams::initial(&dir.join("data")),
            build: ie::ie_workflow,
            edits: ie::ie_iterations(),
            budget: spec::ROOMY_BUDGET,
            input_bytes: probes::file_bytes(&[&data.corpus_path, &data.gold_path]),
            expected: Vec::new(),
            dir,
        };
        // The budget is a fixed share of what storing every intermediate
        // of the initial version takes — measured, not guessed, so it
        // binds the same way at every size and seed.
        let everything = EngineConfig {
            materialization: MaterializationPolicyKind::All,
            ..script.helix_config("footprint", spec::PARALLELISM)
        };
        let _ = std::fs::remove_dir_all(&everything.store_dir);
        let engine = Engine::new(everything)?;
        engine.run(&(script.build)(&script.initial)?)?;
        let footprint = engine.store().used_bytes();
        probes::discard(engine);
        script.budget = (footprint as f64 * spec::TIGHT_BUDGET_SHARE) as u64;
        Ok(script)
    }
}
