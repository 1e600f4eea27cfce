//! `active_learning_wal`: one long durable session. After the initial
//! iterate, every round ranks the uncertain predictions, appends the
//! oracle's 32 labels to the training CSV (fsynced) and retrains; now and
//! then the analyst also turns a learner knob or swaps the metrics.
//!
//! This is the write side of the store: every put goes through the WAL
//! with an fsync, data chunks are signed and planned per round, the meta
//! checkpoint and the session record are rewritten after every iteration,
//! and the version history only grows. Compile and HTTP barely matter. A
//! store or persist change that helps reads but costs writes shows here.

use super::{Ctx, EditKind, Pass, Res, Seen, Workload};
use crate::check::{same_metrics, Tally};
use crate::ledger::{IterSummary, Metrics};
use crate::probes;
use crate::spec::{self, AL_BATCH};
use crate::stats;
use crate::trace::Tracer;
use helix_core::{
    Durability, Engine, EvalSpec, IterationReport, LearnerParam, MetricKind, OperatorKind,
    SessionHandle, SessionManager,
};
use helix_workloads::census::{self, CensusDataSpec, CensusParams};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Name of the CSV source node of the census workflow.
const SOURCE: &str = "data";
/// Of every ten rounds, the one after which the analyst flips the
/// regularization, and the one after which they swap the metrics.
const LI_ROUND: usize = 4;
const PPR_ROUND: usize = 9;

/// The workload: pristine generated data plus the oracle's answers.
pub struct ActiveLearning {
    dir: PathBuf,
    rounds: usize,
    train_rows: usize,
    /// One batch of labeled rows per round, generated from the seed.
    oracle: Vec<Vec<String>>,
    store_replay_entries: usize,
}

/// A finished session, still open.
struct Live {
    dir: PathBuf,
    engine: Arc<Engine>,
    manager: SessionManager,
    session: SessionHandle,
    last_metrics: Vec<(String, f64)>,
}

impl ActiveLearning {
    /// Copies the pristine data into `dir` (appends mutate the CSV) and
    /// runs one session of `rounds` rounds on a fresh durable store there.
    fn session(
        &self,
        dir: &Path,
        rounds: usize,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Res<(Pass, Live)> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        for file in ["train.csv", "test.csv"] {
            std::fs::copy(self.dir.join("data").join(file), dir.join(file))?;
        }
        let config = spec::engine_config(
            &dir.join("store"),
            Durability::wal(),
            spec::ROOMY_BUDGET,
            spec::PARALLELISM,
        );
        let engine = Arc::new(Engine::new(config)?);
        let manager = SessionManager::new(Arc::clone(&engine));
        let workflow = census::census_workflow(&CensusParams::initial(dir))?;
        let session = manager.create("analyst", workflow)?;

        let mut pass = Pass::default();
        let ops_before = tally.attempted;
        let mut expect_iteration = 0;
        let mut low_reg = false;
        let mut wide_metrics = false;
        let mut last_metrics = Vec::new();
        // Appends the iterate's outcome to the pass and the tally.
        let mut record = |pass: &mut Pass,
                          tally: &mut Tally,
                          what: &str,
                          report: helix_core::Result<IterationReport>|
         -> Res<()> {
            let report = match report {
                Ok(report) => report,
                Err(err) => {
                    tally.op(false, || format!("{what} failed: {err}"));
                    return Err(err.into());
                }
            };
            tally.op(
                report.iteration == expect_iteration && !report.metrics.is_empty(),
                || format!("{what}: iteration {} without metrics", report.iteration),
            );
            expect_iteration += 1;
            last_metrics = report.metrics.clone();
            pass.iters.push(IterSummary::from_report(&report));
            Ok(())
        };

        let pass_span = tracer.enter("pass");
        let started = Instant::now();
        let run_span = tracer.enter("session.iterate");
        let report = session.iterate();
        tracer.exit(run_span);
        pass.cold_s = started.elapsed().as_secs_f64();
        record(&mut pass, tally, "initial iterate", report)?;

        for round in 0..rounds {
            tracer.set_iteration(round + 1);
            let round_span = tracer.enter("round");
            let rank_span = tracer.enter("session.uncertain");
            let candidates = session.uncertain_examples(AL_BATCH);
            tracer.exit(rank_span);
            tally.op(
                candidates.as_ref().is_ok_and(|c| c.len() == AL_BATCH),
                || format!("round {round}: ranking returned {candidates:?}"),
            );

            let issued = Instant::now();
            let append_span = tracer.enter("data.append");
            let appended = session.append_data(SOURCE, &self.oracle[round]);
            tracer.exit(append_span);
            tally.op(appended.as_ref().is_ok_and(|n| *n == AL_BATCH), || {
                format!("round {round}: append returned {appended:?}")
            });
            let run_span = tracer.enter("session.iterate");
            let report = session.iterate();
            tracer.exit(run_span);
            pass.edits
                .push((EditKind::Dpr, issued.elapsed().as_secs_f64() * 1e3));
            if let Ok(report) = &report {
                tracer.count("chunks.reused", report.chunks_reused() as f64);
            }
            tracer.exit(round_span);
            record(&mut pass, tally, "retrain", report)?;

            let tweak = match round % 10 {
                LI_ROUND => Some(EditKind::Li),
                PPR_ROUND => Some(EditKind::Ppr),
                _ => None,
            };
            if let Some(kind) = tweak {
                let tweak_span = tracer.enter("tweak");
                let issued = Instant::now();
                let edited = if kind == EditKind::Li {
                    low_reg = !low_reg;
                    let reg = if low_reg { 0.01 } else { 0.1 };
                    session.set_learner_param("predictions", LearnerParam::RegParam(reg))
                } else {
                    wide_metrics = !wide_metrics;
                    let mut metrics = vec![MetricKind::Accuracy];
                    if wide_metrics {
                        metrics.push(MetricKind::F1);
                    }
                    session.replace_operator(
                        "checked",
                        OperatorKind::Evaluate(EvalSpec {
                            metrics,
                            split: helix_core::SPLIT_TEST.into(),
                        }),
                    )
                };
                edited?;
                let run_span = tracer.enter("session.iterate");
                let report = session.iterate();
                tracer.exit(run_span);
                pass.edits
                    .push((kind, issued.elapsed().as_secs_f64() * 1e3));
                tracer.exit(tweak_span);
                record(&mut pass, tally, "tweak", report)?;
            }
        }
        pass.cumulative_s = started.elapsed().as_secs_f64();
        tracer.exit(pass_span);
        pass.ops = tally.attempted - ops_before;

        let retrains: Vec<f64> = pass
            .edits
            .iter()
            .filter(|(kind, _)| *kind == EditKind::Dpr)
            .map(|(_, ms)| *ms)
            .collect();
        let input_bytes = probes::file_bytes(&[&dir.join("train.csv"), &dir.join("test.csv")]);
        pass.layer = probes::store_state(&engine, input_bytes);
        pass.layer.extend([
            (
                "persist.iter_slope_x",
                stats::slope(&retrains).unwrap_or(0.0),
            ),
            ("version.history_len", session.iteration() as f64),
        ]);
        Ok((
            pass,
            Live {
                dir: dir.to_path_buf(),
                engine,
                manager,
                session,
                last_metrics,
            },
        ))
    }

    /// The post-session checks, then tear-down: the CSV holds every
    /// appended row, a from-scratch twin on the grown data agrees with
    /// the incremental session, and the durable directory reopens with
    /// nothing dropped. Returns what the persist probes measured.
    fn finish(
        &self,
        live: Live,
        rounds: usize,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> Res<Metrics> {
        let Live {
            dir,
            engine,
            manager,
            session,
            last_metrics,
        } = live;
        let want_rows = self.train_rows + rounds * AL_BATCH;
        let have_rows = std::fs::read_to_string(dir.join("train.csv"))?
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        tally.op(have_rows == want_rows, || {
            format!("train.csv holds {have_rows} rows, expected {want_rows}")
        });

        let workflow = session.with(|s| s.workflow().clone());
        let twin = Engine::new(spec::twin_config(&dir.join("twin-store")))?;
        let scratch = twin.run(&workflow);
        tally.op(
            scratch
                .as_ref()
                .is_ok_and(|r| same_metrics(&r.metrics, &last_metrics)),
            || format!("from-scratch twin: {scratch:?} vs incremental {last_metrics:?}"),
        );
        drop(twin);

        let iterations = session.iteration();
        drop(session);
        drop(manager);
        let engine = Arc::try_unwrap(engine)
            .map_err(|_| "the session manager still shares the engine after it was dropped")?;
        let persist = probes::persist_cycle(tracer, tally, engine, iterations)?;
        let _ = std::fs::remove_dir_all(dir);
        Ok(persist)
    }
}

impl Workload for ActiveLearning {
    fn setup(ctx: &Ctx, attempt: usize) -> Res<Self> {
        let dir = ctx.work.join(format!("setup-{attempt}"));
        let (train_rows, test_rows) = ctx.sizes.al_rows;
        census::generate_census(
            &dir.join("data"),
            &CensusDataSpec {
                train_rows,
                test_rows,
                seed: ctx.seed,
                missing_rate: 0.01,
            },
        )?;
        let rounds = ctx.sizes.al_rounds;
        let workload = ActiveLearning {
            rounds,
            train_rows,
            // The oracle stream: one sub-seed per round, off the run seed.
            oracle: (0..rounds)
                .map(|round| {
                    let seed = ctx
                        .seed
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(round as u64);
                    census::labeled_rows(AL_BATCH, seed)
                })
                .collect(),
            store_replay_entries: ctx.sizes.store_replay_entries,
            dir,
        };
        // The throwaway session, elsewhere: same code path, fewer rounds.
        let warmup = ctx.sizes.al_warmup_rounds.min(rounds);
        let mut tally = Tally::default();
        let (_, live) = workload.session(
            &workload.dir.join("warmup"),
            warmup,
            &mut Tracer::off(),
            &mut tally,
        )?;
        workload.finish(live, warmup, &mut Tracer::off(), &mut tally)?;
        Ok(workload)
    }

    fn pass(&self, rep: usize, tracer: &mut Tracer, tally: &mut Tally) -> Res<Pass> {
        let dir = self.dir.join(format!("pass-{rep}"));
        let (mut pass, live) = self.session(&dir, self.rounds, tracer, tally)?;
        pass.layer
            .extend(self.finish(live, self.rounds, tracer, tally)?);
        Ok(pass)
    }

    fn probes(&self, _seen: Seen, tracer: &mut Tracer, tally: &mut Tally) -> Res<Metrics> {
        let dir = self.dir.join("probe");
        let (_, live) = self.session(&dir, self.rounds, &mut Tracer::off(), tally)?;
        let workflow = live.session.with(|s| s.workflow().clone());
        probes::compile_path(tracer, &workflow, || {
            live.session.with(|s| s.compile_preview())
        })?;
        for _ in 0..20 {
            let report = tracer.scope("session.noop_iterate", || live.session.iterate());
            tally.op(report.is_ok(), || format!("no-op iterate: {report:?}"));
        }
        probes::store_replay(
            tracer,
            &live.engine,
            &self.dir.join("store-scratch"),
            self.store_replay_entries,
        )?;
        self.finish(live, self.rounds, &mut Tracer::off(), tally)?;

        let initial = census::census_workflow(&CensusParams::initial(&self.dir.join("data")))?;
        probes::scheduler_cold(
            tracer,
            tally,
            &initial,
            &self.dir.join("store-cold"),
            Durability::wal(),
            spec::ROOMY_BUDGET,
        )?;
        Ok(Metrics::new())
    }
}
