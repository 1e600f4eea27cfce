//! The four workloads and what they share: the shape of one measured
//! pass and the interface the run loop drives.
//!
//! Each workload exists to stress layers the others bypass — see
//! `benchmark/README.md` for the table. A *pass* is a fixed amount of
//! work (one script, one session, one closed loop) on fresh stores; a run
//! repeats passes until `--seconds` is used up and reports medians.

pub mod active_learning;
pub mod script;
pub mod serve;

use crate::check::Tally;
use crate::ledger::{IterSummary, Metrics};
use crate::spec::Sizes;
use crate::trace::Tracer;
use helix_workloads::IterationStage;
use std::path::PathBuf;

/// The benchmark's error type: set-up and harness failures abort the
/// run; wrong answers are counted in the [`Tally`] instead.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// The paper's three edit colours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// Data-pre-processing edit (purple): a feature, a wiring, new data.
    Dpr,
    /// Learning/inference edit (orange): a learner knob.
    Li,
    /// Post-processing edit (green): the evaluation metrics.
    Ppr,
}

impl From<IterationStage> for EditKind {
    fn from(stage: IterationStage) -> EditKind {
        match stage {
            IterationStage::DataPreProcessing => EditKind::Dpr,
            IterationStage::MachineLearning => EditKind::Li,
            IterationStage::Evaluation => EditKind::Ppr,
        }
    }
}

/// Where and how big: shared by every set-up.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Scratch directory of this process, inside the checkout.
    pub work: PathBuf,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Input sizes and repetition floors.
    pub sizes: Sizes,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds from the first request to the last report.
    pub cumulative_s: f64,
    /// Wall seconds of iteration 0 on the empty store.
    pub cold_s: f64,
    /// Edit→report latency in ms of every non-initial iteration, in the
    /// order issued.
    pub edits: Vec<(EditKind, f64)>,
    /// Operations issued between the first request and the last report
    /// (iterates, appends, ranking calls, requests).
    pub ops: u64,
    /// One summary per iteration report, for the ledger.
    pub iters: Vec<IterSummary>,
    /// Per-layer figures read off the live system at the end of the pass
    /// (store size, history length, slopes).
    pub layer: Metrics,
}

/// What the measured passes of this run showed, for probes that report a
/// ratio against it.
#[derive(Debug, Clone, Copy)]
pub struct Seen {
    /// Median `cumulative_s`.
    pub cumulative_s: f64,
    /// Median edit latency.
    pub edit_p50_ms: f64,
}

/// One workload, as the run loop sees it.
pub trait Workload: Sized {
    /// Generates the inputs from the seed into a fresh directory, opens
    /// what the passes need and makes the discarded warm-up pass. Timed
    /// as `setup_s`; called several times per run.
    fn setup(ctx: &Ctx, attempt: usize) -> Res<Self>;

    /// Computes the reference answers the passes are checked against
    /// (the unoptimized, single-thread twin). Not part of `setup_s`.
    /// Nothing to do for a workload whose reference is computed per pass.
    fn prepare_checks(&mut self, _tally: &mut Tally) -> Res<()> {
        Ok(())
    }

    /// One measured pass on fresh stores, checked against the reference.
    fn pass(&self, rep: usize, tracer: &mut Tracer, tally: &mut Tally) -> Res<Pass>;

    /// The layer probes of the traced run: calls into each layer's public
    /// functions, wrapped in spans, on the state a pass leaves behind.
    fn probes(&self, seen: Seen, tracer: &mut Tracer, tally: &mut Tally) -> Res<Metrics>;
}
