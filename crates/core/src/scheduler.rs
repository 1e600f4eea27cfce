//! Plan execution: one node-execution body under two thin drivers.
//!
//! # One body
//!
//! Every compute node's output is produced the same way, whatever runs
//! it: the node is turned into an ordered list of *pieces*
//! (`plan_pieces`), each piece is either loaded from the store by its
//! partition signature or computed with [`crate::exec::execute_slice`]
//! over its row range (`run_piece`), and the piece outputs are
//! concatenated in index order (`assemble`). A whole node is the
//! one-piece case; operator partitioning (wide inputs split across
//! workers) and data-chunk reuse (unchanged partitions served from the
//! store after a data delta, see [`crate::slicing::chunk_plan`]) are the
//! same list built from different evidence, so they compose: a wide node
//! with some stored chunks loads the hits and splits the misses. Because
//! slice execution is row-wise and partition signatures are
//! content-derived, every piece list concatenates to the byte-identical
//! whole-node output. The one input outside a piece's rows, a
//! Bucketizer's bin edges, is computed once per node before its pieces
//! (`plan_node`); every piece shares it, and its salt goes into the chunk
//! keys of the Bucketizer and of every chunked node below it.
//!
//! # Two drivers
//!
//! * `parallelism = 1` runs the plan-order loop (`execute_sequential`):
//!   one node at a time, its pieces inline, merged before the next
//!   starts.
//! * `parallelism > 1` runs the barrier-free ready queue
//!   (`execute_ready_queue`). Each non-pruned node carries an atomic
//!   count of unsatisfied parents; a node becomes ready the instant its
//!   last parent finishes. Workers pull ready tasks from a per-worker
//!   local deque (LIFO, for locality along just-unlocked dependency
//!   chains), falling back to a shared injector seeded with the initially
//!   ready nodes and then to stealing from other workers' deques (FIFO,
//!   so thieves take the oldest — widest-fanout — work). A multi-piece
//!   node fans pieces 1.. out through the injector and runs piece 0
//!   itself. When the injector holds more than one entry, workers pop the
//!   one with the largest *downstream critical-path estimate*
//!   ([`crate::recompute::critical_path_priority_us`]) instead of pure
//!   FIFO: starting the longest chain first keeps its dependents flowing
//!   while shallow work fills the remaining slots. The thread count is
//!   capped at [`crate::EngineConfig::parallelism`].
//!
//! The sequential loop is kept on purpose, as the *reference
//! implementation*: `tests/scheduler_equivalence.rs`,
//! `tests/incremental.rs` and the benchmark's correctness twin all
//! compare the ready queue against `parallelism = 1`, and routing `1`
//! through the ready queue would make them compare one driver with
//! itself. This is ROADMAP's fallback for the executor collapse — "keep
//! exactly two". Neither driver runs level by level.
//!
//! # Determinism
//!
//! Parallel execution must be observationally identical to sequential
//! execution — the paper's reuse correctness argument ("a materialized
//! result must equal its recomputation") extends to the scheduler. Raw
//! node execution (compute or load) is free of side effects, so ready
//! nodes may run in any interleaving; everything stateful — cost-model
//! observations, the online materialization decision (which consults the
//! evolving storage budget), and metric harvesting — happens in the
//! `merge` callback, which the calling thread invokes **strictly in plan
//! order** while workers keep executing: a cursor walks `plan.order` and
//! stalls at the first node whose raw result is not yet available. The
//! merged outcome stream is therefore identical at any thread count,
//! including 1.
//!
//! # Failure determinism
//!
//! A failed run surfaces the error of the **plan-order-earliest failing
//! node**, at every thread count. When a node fails, the executor stops
//! scheduling nodes that come after it in plan order but keeps executing
//! everything before it (any earlier node could still fail and take over
//! as the reported error; plan order is topological, so all its
//! dependencies precede it too). Merges therefore commit for exactly the
//! nodes preceding the failing node in plan order — the same prefix, with
//! the same side effects (materializations, cost observations), that the
//! sequential loop commits before erroring at that same node. Within a
//! node, the first error by piece index wins: it holds the globally first
//! failing row, the error a whole-node run reports.

use crate::compiler::CompiledPlan;
use crate::exec::BinEdges;
use crate::ops::{NodeOutput, OperatorKind};
use crate::pool::{Job, WorkerPool};
use crate::recompute::NodeState;
use crate::signature::Signature;
use crate::slicing::NodeChunks;
use crate::store::IntermediateStore;
use crate::workflow::{Node, NodeId, Workflow};
use crate::{HelixError, Result};
use helix_dataflow::codec::GroupSpec;
use helix_dataflow::fx::FxHasher;
use std::any::Any;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// How many worker threads the engine should use by default: the
/// `HELIX_PARALLELISM` environment variable when set to a positive
/// integer (the CI equivalence matrix forces `1` and `2` this way),
/// otherwise the machine's available parallelism.
pub fn default_parallelism() -> usize {
    crate::config_env::parallelism()
}

/// Default rows-per-partition threshold for operator-level data
/// parallelism ([`crate::EngineConfig::with_partition_rows`] overrides
/// it): measured on the scaled benchmark workloads as the smallest slice
/// for which the split/merge overhead stays well under the per-slice
/// compute time (see `docs/PERFORMANCE.md`). A row range splits only when
/// it holds at least twice this many rows, so every partition has at
/// least the threshold's worth of work.
pub const DEFAULT_PARTITION_ROWS: usize = 4096;

/// Hard cap on compute partitions per row range: beyond the machine's
/// useful fan-out, more slices only add merge overhead.
const MAX_PARTITIONS: usize = 32;

/// Tuning knobs for [`execute_plan_opts`].
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Worker-slot budget, counting the calling thread (which merges
    /// *and* helps execute). `1` runs the classic sequential loop.
    pub parallelism: usize,
    /// Rows-per-partition threshold for data-parallel operators (see
    /// [`DEFAULT_PARTITION_ROWS`]).
    pub partition_rows: usize,
    /// Per-node partition thresholds by [`NodeId::index`], overriding
    /// `partition_rows` where present. The engine derives these from the
    /// optimizer memo's observed per-row costs
    /// ([`partition_rows_for_observed`]); `None` uses the scalar
    /// threshold for every node. Purely a performance hint — partition
    /// boundaries never change results.
    pub node_partition_rows: Option<Arc<Vec<usize>>>,
    /// Worker pool to draw helper threads from. `None` falls back to a
    /// process-global pool — the engine passes its own so sessions share
    /// one warmed set of threads.
    pub pool: Option<Arc<WorkerPool>>,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts {
            parallelism: default_parallelism(),
            partition_rows: DEFAULT_PARTITION_ROWS,
            node_partition_rows: None,
            pool: None,
        }
    }
}

/// Target wall-clock seconds per partition when sizing from observed
/// per-row cost: small enough that a partitioned node spreads across
/// workers, large enough that split/merge overhead stays negligible.
const TARGET_PARTITION_SECS: f64 = 0.005;

/// Derives a rows-per-partition threshold from a memo-observed per-row
/// compute cost: enough rows that one partition takes about
/// `TARGET_PARTITION_SECS` (5 ms), clamped to a sane range. Falls back
/// to `fallback` when the observation is degenerate.
pub fn partition_rows_for_observed(per_row_secs: f64, fallback: usize) -> usize {
    if !per_row_secs.is_finite() || per_row_secs <= 0.0 {
        return fallback.max(1);
    }
    let rows = (TARGET_PARTITION_SECS / per_row_secs).round();
    // Clamp: never slice finer than 64 rows (overhead) and never demand
    // more than ~1M rows per slice (that disables partitioning outright
    // for any realistic input, which is the right call for ultra-cheap
    // per-row operators).
    (rows as usize).clamp(64, 1 << 20)
}

/// Process-global worker pool for standalone [`execute_plan`] callers
/// (the engine owns its own). Never dropped — its threads park idle for
/// the life of the process.
fn global_pool() -> &'static Arc<WorkerPool> {
    static POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(WorkerPool::new()))
}

/// The raw, side-effect-free result of running one node.
#[derive(Debug)]
pub struct ExecutedNode {
    /// Seconds spent computing or loading this node: for a compute node,
    /// the *sum* of its piece times (the work done, not the wall time).
    pub secs: f64,
    /// `Some(bytes_read)` when the node was loaded from the store,
    /// `None` when it was computed.
    pub loaded_bytes: Option<u64>,
    /// Whether a load was answered from the store's decoded cache, so no
    /// file was read (`loaded_bytes` is what the disk read would have
    /// returned).
    pub cached: bool,
    /// Number of pieces served from the store while *computing* this node
    /// (data-chunk partitions, see [`crate::slicing::chunk_plan`]); `0`
    /// for whole-node loads and chunk-free computes.
    pub chunks_loaded: usize,
    /// The row groups of a computed chunked output: one per data chunk,
    /// over the chunk's *output* rows, under the key this execution gave
    /// the chunk (its partition signature, salted below a Bucketizer).
    /// These are the keys the node's pieces were probed under, and the
    /// ones the engine writes. Empty for loads, for chunk-free nodes, and
    /// when a chunk key cannot be derived (a Bucketizer above the node was
    /// loaded whole, so its edges are unknown).
    pub groups: Vec<GroupSpec>,
}

/// Everything [`execute_plan`] hands back to the engine.
#[derive(Debug)]
pub struct ExecutionResult {
    /// Node outputs by [`NodeId::index`] (`None` for pruned nodes). A
    /// loaded output may be shared with the store's decoded cache.
    pub outputs: Vec<Option<Arc<NodeOutput>>>,
}

/// Raw per-node result held until the merge cursor reaches it.
struct RawResult {
    output: Arc<NodeOutput>,
    executed: ExecutedNode,
    /// The salt this node's chunk keys carry, which its chunked children
    /// fold into theirs: `0` with no Bucketizer above, `None` when
    /// unknown (see [`NodePlan`]).
    salt: Option<u64>,
}

/// Executes a compiled plan, invoking `merge` once per non-pruned node in
/// plan order with the node's raw result.
///
/// The merge callback owns every stateful step (cost observation,
/// materialization, metric harvesting); see the module docs for why that
/// split makes parallel execution deterministic. `parallelism = 1` runs
/// the classic sequential loop: each node executes and merges before the
/// next starts. Higher counts use the ready-queue executor, with `merge`
/// still running on the calling thread.
///
/// # Errors
/// Propagates node execution failures (deterministically the
/// plan-order-earliest failing node's error) and merge failures.
pub fn execute_plan<M>(
    workflow: &Workflow,
    plan: &CompiledPlan,
    store: &IntermediateStore,
    parallelism: usize,
    merge: M,
) -> Result<ExecutionResult>
where
    M: FnMut(NodeId, &ExecutedNode, &NodeOutput) -> Result<()>,
{
    let opts = ExecOpts {
        parallelism,
        ..ExecOpts::default()
    };
    execute_plan_opts(workflow, plan, store, &opts, merge)
}

/// [`execute_plan`] with explicit [`ExecOpts`]: partition threshold and
/// worker pool included. The engine calls this with its persistent pool;
/// `parallelism <= 1` runs the sequential loop (no threshold splitting —
/// one thread gains nothing from slicing a row range).
///
/// # Errors
/// Same contract as [`execute_plan`].
pub fn execute_plan_opts<M>(
    workflow: &Workflow,
    plan: &CompiledPlan,
    store: &IntermediateStore,
    opts: &ExecOpts,
    mut merge: M,
) -> Result<ExecutionResult>
where
    M: FnMut(NodeId, &ExecutedNode, &NodeOutput) -> Result<()>,
{
    if opts.parallelism <= 1 {
        execute_sequential(workflow, plan, store, merge)
    } else {
        execute_ready_queue(workflow, plan, store, opts, &mut merge)
    }
}

// ---------------------------------------------------------------------------
// The node-execution body both drivers share
// ---------------------------------------------------------------------------

/// One unit of work toward a compute node's output: the row range
/// `[start, end)` of the node's sliceable input (see
/// [`crate::exec::partitionable_rows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Piece {
    start: usize,
    end: usize,
    /// `Some` when the range is a data chunk whose partition signature
    /// was in the store at probe time: [`run_piece`] loads it, and
    /// computes the range only if the entry has been evicted since.
    psig: Option<Signature>,
}

/// A compute node's ordered piece list: the piece outputs, concatenated
/// in index order, are the node's output.
struct PiecePlan {
    pieces: Vec<Piece>,
    /// Whether the operator honours row ranges. An unsliceable operator
    /// (a source reads files, not ranges; a learner aggregates) always
    /// computes whole, so its list is either one compute piece or — on a
    /// full hit set — all loads.
    sliceable: bool,
}

/// One piece's outcome.
struct PieceOutput {
    output: NodeOutput,
    secs: f64,
    /// Served from the store rather than computed.
    loaded: bool,
}

/// Builds a ready compute node's piece list, once, from the evidence at
/// hand: the node's chunk structure ([`CompiledPlan::chunks`]), a store
/// probe (`stored`), and — when helpers exist to share the work —
/// `split_rows`, the node's rows-per-partition threshold.
///
/// Chunks whose partition signature is stored become load pieces; each
/// maximal run of misses becomes one row range, which
/// [`push_compute_pieces`] may split further. No chunk entries, or no
/// hits, degenerates to the plain threshold split of the whole input; no
/// helpers and no hits degenerates to one whole-node piece. The list
/// depends only on row counts, thresholds and store contents — never on
/// how many workers happen to be idle — and every list concatenates to
/// the same bytes anyway, so results are reproducible at any setting.
fn plan_pieces(
    kind: &OperatorKind,
    parents: &[&NodeOutput],
    chunks: Option<&NodeChunks>,
    stored: impl Fn(Signature) -> bool,
    split_rows: Option<usize>,
) -> PiecePlan {
    let rows = crate::exec::partitionable_rows(kind, parents);
    let sliceable = rows.is_some();
    let total = rows.unwrap_or(0);
    let mut pieces = Vec::new();
    let chunks = chunks.filter(|c| covers(c, rows));
    let hits: Vec<bool> = chunks.map_or_else(Vec::new, |c| {
        c.psigs.iter().map(|&sig| stored(sig)).collect()
    });
    let hit_count = hits.iter().filter(|&&hit| hit).count();
    // An unsliceable operator cannot compute a lone row range, so only a
    // full hit set is of any use to it.
    let reuse = hit_count > 0 && (sliceable || hit_count == hits.len());
    let Some(chunks) = chunks.filter(|_| reuse) else {
        push_compute_pieces(&mut pieces, 0, total, split_rows);
        return PiecePlan { pieces, sliceable };
    };
    let mut miss_from: Option<usize> = None;
    for (k, &(start, end)) in chunks.ranges.iter().enumerate() {
        if hits[k] {
            if let Some(from) = miss_from.take() {
                push_compute_pieces(&mut pieces, from, start, split_rows);
            }
            pieces.push(Piece {
                start,
                end,
                psig: Some(chunks.psigs[k]),
            });
        } else {
            miss_from.get_or_insert(start);
        }
    }
    if let Some(from) = miss_from {
        push_compute_pieces(&mut pieces, from, total, split_rows);
    }
    PiecePlan { pieces, sliceable }
}

/// Whether chunk ranges cover a sliceable input of `rows` rows exactly.
/// Ranges that do not (the data file grew between compile and execute)
/// would silently drop rows; such a node computes from its actual input
/// instead. An unsliceable operator reads no input range, so any ranges
/// do.
fn covers(chunks: &NodeChunks, rows: Option<usize>) -> bool {
    chunks
        .ranges
        .last()
        .is_some_and(|&(_, end)| rows.is_none_or(|total| end == total))
}

/// A compute node's execution, planned once when it becomes ready: its
/// pieces, and the whole-input state and chunk keys every piece shares.
struct NodePlan {
    pieces: PiecePlan,
    /// A Bucketizer's bin edges, computed once over the whole input
    /// ([`crate::exec::bin_edges`]); `None` otherwise, or when computing
    /// them failed (every piece then fails with that same error).
    edges: Option<BinEdges>,
    /// The node's chunk ranges under this execution's keys: the
    /// partition signatures of [`crate::slicing::chunk_plan`] with the
    /// node's salt folded in. `None` for a chunk-free node, and when the
    /// salt is unknown.
    chunks: Option<NodeChunks>,
    /// This node's salt (see [`RawResult::salt`]).
    salt: Option<u64>,
}

/// Plans compute node `node` over its `parents`' outputs. Its salt folds
/// its chunked parents' salts (`parent_salts`, in wiring order) and, for
/// a Bucketizer, the salt of its own bin edges; with none of either it is
/// `0`, and the node's keys are its compile-time partition signatures
/// unchanged. An unknown parent salt leaves the node without chunk keys:
/// it computes whole and writes no row groups.
fn plan_node(
    node: &Node,
    parents: &[&NodeOutput],
    parent_salts: &[Option<u64>],
    chunks: Option<&NodeChunks>,
    stored: impl Fn(Signature) -> bool,
    split_rows: Option<usize>,
) -> NodePlan {
    let edges = crate::exec::bin_edges(&node.kind, &node.name, parents)
        .ok()
        .flatten();
    let salt = chunks.map_or(Some(0), |_| {
        let mut hasher = FxHasher::default();
        let mut any = false;
        for salt in parent_salts {
            let salt = (*salt)?;
            any |= salt != 0;
            hasher.write_u64(salt);
        }
        if matches!(node.kind, OperatorKind::Bucketizer { .. }) {
            hasher.write_u64(edges?.salt());
            any = true;
        }
        Some(if any { hasher.finish().max(1) } else { 0 })
    });
    let rows = crate::exec::partitionable_rows(&node.kind, parents);
    let chunks = chunks
        .zip(salt)
        .filter(|(c, _)| covers(c, rows))
        .map(|(c, salt)| NodeChunks {
            ranges: c.ranges.clone(),
            psigs: c.psigs.iter().map(|&psig| salted(psig, salt)).collect(),
        });
    let pieces = plan_pieces(&node.kind, parents, chunks.as_ref(), stored, split_rows);
    NodePlan {
        pieces,
        edges,
        chunks,
        salt,
    }
}

/// A partition signature under `salt`: itself for `0`.
fn salted(psig: Signature, salt: u64) -> Signature {
    if salt == 0 {
        return psig;
    }
    let mut hasher = FxHasher::default();
    hasher.write_u64(psig.0);
    hasher.write_u64(salt);
    Signature(hasher.finish())
}

impl NodePlan {
    /// Completes a computed node's raw result: the salt its children
    /// read, and the row groups the engine writes — one per chunk, over
    /// the output rows that chunk's input rows became. No groups when the
    /// chunks do not tile the output.
    fn finish(
        &self,
        kind: &OperatorKind,
        parents: &[&NodeOutput],
        mut raw: RawResult,
    ) -> RawResult {
        raw.salt = self.salt;
        let (Some(chunks), Ok(data)) = (&self.chunks, raw.output.as_data()) else {
            return raw;
        };
        let mut groups = Vec::with_capacity(chunks.ranges.len());
        let mut at = 0;
        for (&(start, end), key) in chunks.ranges.iter().zip(&chunks.psigs) {
            let Ok(rows) = crate::exec::output_rows(kind, parents, start, end) else {
                return raw;
            };
            groups.push(GroupSpec {
                start: at,
                end: at + rows,
                key: key.0,
            });
            at += rows;
        }
        if at == data.len() {
            raw.executed.groups = groups;
        }
        raw
    }
}

/// Appends compute pieces covering `[start, end)`: one piece, or — when
/// `split_rows` is set and the range holds at least twice that many rows
/// — deterministic, even slices of at least the threshold each, capped at
/// [`MAX_PARTITIONS`].
fn push_compute_pieces(
    pieces: &mut Vec<Piece>,
    start: usize,
    end: usize,
    split_rows: Option<usize>,
) {
    let rows = end - start;
    let count = match split_rows {
        Some(threshold) if rows >= threshold.saturating_mul(2) => {
            rows.div_ceil(threshold).min(MAX_PARTITIONS)
        }
        _ => 1,
    };
    let (base, extra) = (rows / count, rows % count);
    let mut at = start;
    for k in 0..count {
        let len = base + usize::from(k < extra);
        pieces.push(Piece {
            start: at,
            end: at + len,
            psig: None,
        });
        at += len;
    }
    debug_assert_eq!(at, end, "pieces must cover the range exactly");
}

/// Runs `f`, converting a panic into [`HelixError::Exec`] *here* — not at
/// thread joins — so a UDF panic produces the same error whether the node
/// ran inline or on any worker, whole or in pieces.
fn catch_node_panic<T>(name: &str, f: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(HelixError::Exec(format!(
            "node `{name}` panicked: {}",
            panic_message(&*payload)
        )))
    })
}

/// Renders a panic payload as a message: the `&str` or `String` a
/// `panic!` carries, or a placeholder for any other payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string payload>".to_string()
    }
}

/// Produces one piece of a compute node's output — the only place the
/// scheduler runs an operator. A load piece whose entry was evicted (or
/// turned unreadable) between probe and read falls back to computing its
/// range: partition signatures are content-derived, so both routes yield
/// the same bytes.
fn run_piece(
    node: &Node,
    parents: &[&NodeOutput],
    store: &IntermediateStore,
    piece: Piece,
    edges: Option<BinEdges>,
) -> Result<PieceOutput> {
    let started = Instant::now();
    let (output, loaded) = catch_node_panic(&node.name, || {
        // A cached row group is shared with the cache; unwrapping it
        // clones segment pointers, not rows.
        if let Some((output, _, _)) = piece.psig.and_then(|sig| store.get(sig).ok()) {
            return Ok((Arc::unwrap_or_clone(output), true));
        }
        let (kind, name) = (&node.kind, &node.name);
        let output =
            crate::exec::execute_slice(kind, name, parents, edges, piece.start, piece.end)?;
        Ok((output, false))
    })?;
    Ok(PieceOutput {
        output,
        secs: started.elapsed().as_secs_f64(),
        loaded,
    })
}

/// Assembles piece outcomes, **in index order**, into the node's raw
/// result. The first error by piece index wins; `secs` is the sum of the
/// piece times; `chunks_loaded` counts the pieces served from the store.
fn assemble(
    sliceable: bool,
    outcomes: impl Iterator<Item = Result<PieceOutput>>,
) -> Result<RawResult> {
    let raw = |output, secs, chunks_loaded| RawResult {
        output: Arc::new(output),
        executed: ExecutedNode {
            secs,
            loaded_bytes: None,
            cached: false,
            chunks_loaded,
            groups: Vec::new(),
        },
        salt: Some(0),
    };
    let mut outputs = Vec::new();
    let mut secs = 0.0;
    let mut loaded = 0usize;
    for outcome in outcomes {
        let piece = outcome?;
        secs += piece.secs;
        if piece.loaded {
            loaded += 1;
        } else if !sliceable {
            // An unsliceable operator ignores the row range, so a computed
            // piece — the whole-node case, or a load that found its entry
            // evicted — already *is* the node's output.
            return Ok(raw(piece.output, secs, 0));
        }
        outputs.push(piece.output);
    }
    // A one-piece node (every model-producing operator is one) is its
    // piece's output as is; only data slices concatenate.
    let output = if outputs.len() == 1 {
        outputs.remove(0)
    } else {
        crate::exec::concat_slices(outputs)?
    };
    Ok(raw(output, secs, loaded))
}

/// Executes a `Load` node: reads its whole output back from the store.
/// `salted` says whether a Bucketizer sits above it in the chunk region:
/// the read brings no bin edges, so its salt is then unknown.
fn load_node(
    store: &IntermediateStore,
    node: &Node,
    sig: Signature,
    salted: bool,
) -> Result<RawResult> {
    let read = catch_node_panic(&node.name, || store.read(sig))?;
    Ok(RawResult {
        output: read.output,
        executed: ExecutedNode {
            secs: read.secs,
            loaded_bytes: Some(read.bytes),
            cached: read.cached,
            chunks_loaded: 0,
            groups: Vec::new(),
        },
        salt: (!salted).then_some(0),
    })
}

/// Collects the already-available outputs of `id`'s parents, in
/// declaration order (the order `exec::execute_slice` expects).
fn parent_outputs<'a>(
    workflow: &Workflow,
    id: NodeId,
    output_of: impl Fn(NodeId) -> Option<&'a NodeOutput>,
) -> Result<Vec<&'a NodeOutput>> {
    let node = workflow.node(id);
    node.parents
        .iter()
        .map(|&parent| {
            output_of(parent).ok_or_else(|| {
                HelixError::Exec(format!(
                    "parent `{}` of `{}` unavailable (plan bug)",
                    workflow.node(parent).name,
                    node.name
                ))
            })
        })
        .collect()
}

fn node_chunks(plan: &CompiledPlan, i: usize) -> Option<&NodeChunks> {
    plan.chunks.get(i).and_then(|c| c.as_ref())
}

/// Per node, whether a Bucketizer sits at or above it inside the chunk
/// region: the nodes whose chunk keys carry a salt that only an
/// execution of that Bucketizer can tell.
fn salted_nodes(workflow: &Workflow, plan: &CompiledPlan) -> Vec<bool> {
    let mut salted = vec![false; workflow.len()];
    for &id in &plan.order {
        let node = workflow.node(id);
        salted[id.index()] = node_chunks(plan, id.index()).is_some()
            && (matches!(node.kind, OperatorKind::Bucketizer { .. })
                || node.parents.iter().any(|p| salted[p.index()]));
    }
    salted
}

// ---------------------------------------------------------------------------
// Sequential driver (the reference)
// ---------------------------------------------------------------------------

/// The sequential path: execute and merge one node at a time in plan
/// order, a node's pieces inline — exactly the engine's historical
/// iteration loop, and the reference the ready queue is tested against.
fn execute_sequential<M>(
    workflow: &Workflow,
    plan: &CompiledPlan,
    store: &IntermediateStore,
    mut merge: M,
) -> Result<ExecutionResult>
where
    M: FnMut(NodeId, &ExecutedNode, &NodeOutput) -> Result<()>,
{
    let n = workflow.len();
    let salted = salted_nodes(workflow, plan);
    let mut outputs: Vec<Option<Arc<NodeOutput>>> = (0..n).map(|_| None).collect();
    let mut salts: Vec<Option<u64>> = vec![Some(0); n];
    for &id in &plan.order {
        let i = id.index();
        let node = workflow.node(id);
        let raw = match plan.states[i] {
            NodeState::Prune => continue,
            NodeState::Load => load_node(store, node, plan.signatures[i], salted[i])?,
            NodeState::Compute => {
                let parents = parent_outputs(workflow, id, |p| outputs[p.index()].as_deref())?;
                let parent_salts: Vec<_> = node.parents.iter().map(|p| salts[p.index()]).collect();
                let stored = |sig| store.lookup(sig).is_some();
                let chunks = node_chunks(plan, i);
                let planned = plan_node(node, &parents, &parent_salts, chunks, stored, None);
                let outcomes = planned
                    .pieces
                    .pieces
                    .iter()
                    .map(|&piece| run_piece(node, &parents, store, piece, planned.edges));
                let raw = assemble(planned.pieces.sliceable, outcomes)?;
                planned.finish(&node.kind, &parents, raw)
            }
        };
        merge(id, &raw.executed, &raw.output)?;
        salts[i] = raw.salt;
        outputs[i] = Some(raw.output);
    }
    Ok(ExecutionResult { outputs })
}

// ---------------------------------------------------------------------------
// Ready-queue driver
// ---------------------------------------------------------------------------

/// Injector plus the sleep coordination for idle workers. Pushes to any
/// queue bump `notify` under this lock, so a worker that scanned every
/// queue empty while holding it cannot miss the wakeup.
struct InjectorState {
    /// Globally visible ready tasks (seeded with the dependency-free
    /// nodes; multi-piece nodes fan pieces 1.. out here). With one
    /// entry it behaves as a FIFO; with more, workers pop the entry with
    /// the largest downstream critical-path estimate
    /// ([`crate::recompute::critical_path_priority_us`]), plan order
    /// breaking ties — starting the longest chain first shrinks the
    /// makespan on wide plans without touching merge semantics (the
    /// plan-order merge cursor is ordering-oblivious).
    ready: VecDeque<Task>,
}

/// One schedulable unit: a node that just became ready, or one piece of
/// a node whose piece list is already published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    /// Load node `i`, or build its piece list and run piece 0.
    Node(usize),
    /// Run piece `piece` of node `node`.
    Piece { node: usize, piece: usize },
}

impl Task {
    fn node(self) -> usize {
        match self {
            Task::Node(i) => i,
            Task::Piece { node, .. } => node,
        }
    }

    fn piece(self) -> usize {
        match self {
            Task::Node(_) => 0,
            Task::Piece { piece, .. } => piece,
        }
    }
}

/// Fan-out bookkeeping for one compute node: created when the node's
/// `Task::Node` runs, completed by whichever worker finishes the last
/// piece.
struct PieceState {
    plan: NodePlan,
    /// Per-piece outcome, `take`n by the assembling worker.
    outs: Vec<Mutex<Option<Result<PieceOutput>>>>,
    /// Pieces still running; the decrement-to-zero worker assembles.
    remaining: AtomicUsize,
}

/// Shared state of one ready-queue execution. The executor *owns* clones
/// of the workflow, plan, and store handle so pool workers (plain
/// `'static` jobs, unlike the scoped threads of earlier versions) can
/// hold it via `Arc`; the calling thread drives the merge cursor
/// concurrently.
struct ReadyExecutor {
    workflow: Workflow,
    plan: CompiledPlan,
    store: IntermediateStore,
    /// Rows-per-partition threshold ([`ExecOpts::partition_rows`]).
    partition_rows: usize,
    /// Per-node threshold overrides ([`ExecOpts::node_partition_rows`]).
    node_partition_rows: Option<Arc<Vec<usize>>>,
    /// Nodes whose salt a whole-node load cannot tell (`salted_nodes`).
    salted: Vec<bool>,
    /// Plan position by node index (`usize::MAX` for pruned nodes).
    pos: Vec<usize>,
    /// Downstream critical-path estimate per node (µs) — the injector's
    /// pop priority.
    prio: Vec<u64>,
    /// Non-pruned compute children to notify per node (one entry per
    /// parent edge, mirroring the initial `deps` counts).
    children: Vec<Vec<usize>>,
    /// Unsatisfied-parent counts; a node enqueues when its count hits 0.
    deps: Vec<AtomicUsize>,
    /// Write-once raw results, readable by children (for parent outputs)
    /// and by the merge cursor.
    results: Vec<OnceLock<RawResult>>,
    /// Write-once piece fan-out state per compute node.
    pieces: Vec<OnceLock<PieceState>>,
    /// Plan position of the earliest failure observed so far
    /// (`usize::MAX` when none): workers skip nodes past it.
    min_fail: AtomicUsize,
    /// The earliest failure's `(plan position, error)` — authoritative
    /// where `min_fail` is the advisory fast path.
    failure: Mutex<Option<(usize, HelixError)>>,
    /// Set by the merge loop once the outcome is decided; workers exit.
    shutdown: AtomicBool,
    injector: Mutex<InjectorState>,
    /// Workers sleep here when every queue is empty.
    work_cv: Condvar,
    /// Per-worker local deques: owners push/pop the back, thieves steal
    /// from the front.
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// The plan position the merge cursor is stalled on (`usize::MAX`
    /// while draining): workers skip the merger wakeup for completions
    /// that cannot advance the cursor.
    waiting_pos: AtomicUsize,
    /// Completed-node generation counter; the merge loop sleeps on it.
    progress: Mutex<u64>,
    progress_cv: Condvar,
}

impl ReadyExecutor {
    fn new(
        workflow: &Workflow,
        plan: &CompiledPlan,
        store: &IntermediateStore,
        workers: usize,
        partition_rows: usize,
        node_partition_rows: Option<Arc<Vec<usize>>>,
    ) -> Self {
        let n = workflow.len();
        let mut pos = vec![usize::MAX; n];
        for (k, id) in plan.order.iter().enumerate() {
            pos[id.index()] = k;
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut dep_counts = vec![0usize; n];
        for &id in &plan.order {
            let i = id.index();
            if plan.states[i] != NodeState::Compute {
                continue;
            }
            for parent in &workflow.node(id).parents {
                let p = parent.index();
                if plan.states[p] != NodeState::Prune {
                    children[p].push(i);
                    dep_counts[i] += 1;
                }
            }
        }
        let mut ready = VecDeque::new();
        for &id in &plan.order {
            let i = id.index();
            if plan.states[i] != NodeState::Prune && dep_counts[i] == 0 {
                ready.push_back(Task::Node(i));
            }
        }
        let prio = crate::recompute::critical_path_priority_us(workflow, &plan.states, &plan.costs);
        ReadyExecutor {
            workflow: workflow.clone(),
            plan: plan.clone(),
            store: store.clone(),
            partition_rows,
            node_partition_rows,
            salted: salted_nodes(workflow, plan),
            pos,
            prio,
            children,
            deps: dep_counts.into_iter().map(AtomicUsize::new).collect(),
            results: (0..n).map(|_| OnceLock::new()).collect(),
            pieces: (0..n).map(|_| OnceLock::new()).collect(),
            min_fail: AtomicUsize::new(usize::MAX),
            failure: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            injector: Mutex::new(InjectorState { ready }),
            work_cv: Condvar::new(),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            waiting_pos: AtomicUsize::new(usize::MAX),
            progress: Mutex::new(0),
            progress_cv: Condvar::new(),
        }
    }

    /// Pops the injector entry with the highest downstream
    /// critical-path priority (plan order breaks ties, then lower piece
    /// index; a single entry pops straight off the front). The injector
    /// is short-lived and small — seeded ready tasks drain into local
    /// deques immediately — so a linear scan beats maintaining a heap.
    fn pop_injector(&self, injector: &mut InjectorState) -> Option<Task> {
        if injector.ready.len() <= 1 {
            return injector.ready.pop_front();
        }
        let key = |t: Task| {
            let i = t.node();
            (
                self.prio[i],
                std::cmp::Reverse(self.pos[i]),
                std::cmp::Reverse(t.piece()),
            )
        };
        let mut best = 0usize;
        for k in 1..injector.ready.len() {
            if key(injector.ready[k]) > key(injector.ready[best]) {
                best = k;
            }
        }
        injector.ready.remove(best)
    }

    /// Pops the next ready node for worker `me`: own deque (LIFO), then
    /// the injector (highest critical-path priority first), then stealing
    /// (FIFO); sleeps when everything is empty. Returns `None` on
    /// shutdown.
    fn next_task(&self, me: usize) -> Option<Task> {
        if self.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if let Some(t) = lock(&self.locals[me]).pop_back() {
            return Some(t);
        }
        let mut injector = lock(&self.injector);
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            if let Some(t) = self.pop_injector(&mut injector) {
                return Some(t);
            }
            if let Some(t) = self.steal(me) {
                return Some(t);
            }
            // Pushes notify under the injector lock, which we hold since
            // the scans above — no wakeup can slip past into the wait.
            injector = self
                .work_cv
                .wait(injector)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn steal(&self, me: usize) -> Option<Task> {
        for (w, victim) in self.locals.iter().enumerate() {
            if w == me {
                continue;
            }
            if let Some(t) = lock(victim).pop_front() {
                return Some(t);
            }
        }
        None
    }

    /// Executes one task on worker `me`. Returns a follow-on task for the
    /// worker to continue into directly (chains never touch the queues).
    fn run_task(&self, me: usize, task: Task) -> Option<Task> {
        if self.shutdown.load(Ordering::Acquire) {
            // A merge error ended the run; stop chaining continuations.
            return None;
        }
        if self.pos[task.node()] > self.min_fail.load(Ordering::Acquire) {
            // Past the earliest failure in plan order: the sequential loop
            // would never have reached this node, so drop the task
            // unexecuted. A dropped piece leaves its node's `remaining`
            // above zero, so the node simply never completes — the merge
            // cursor stops first.
            return None;
        }
        match task {
            Task::Node(i) => self.run_node_task(me, i),
            Task::Piece { node, piece } => self.run_piece_task(me, node, piece),
        }
    }

    fn parent_outputs(&self, id: NodeId) -> Result<Vec<&NodeOutput>> {
        parent_outputs(&self.workflow, id, |p| {
            self.results[p.index()].get().map(|raw| &*raw.output)
        })
    }

    /// Effective rows-per-partition threshold for node `i`: the memo-
    /// derived per-node override when present, otherwise the scalar knob.
    fn threshold_for(&self, i: usize) -> usize {
        self.node_partition_rows
            .as_ref()
            .and_then(|rows| rows.get(i).copied())
            .unwrap_or(self.partition_rows)
            .max(1)
    }

    /// Starts ready node `i` on worker `me`. A `Load` node is read back
    /// and completed on the spot. A compute node gets its piece list
    /// built and published; pieces 1.. fan out through the injector for
    /// idle workers to grab while this worker runs piece 0 itself.
    fn run_node_task(&self, me: usize, i: usize) -> Option<Task> {
        let id = NodeId(i as u32);
        let node = self.workflow.node(id);
        if self.plan.states[i] == NodeState::Load {
            let loaded = load_node(&self.store, node, self.plan.signatures[i], self.salted[i]);
            return self.complete(me, i, loaded);
        }
        let plan = match self.parent_outputs(id) {
            Ok(parents) => {
                let parent_salts: Vec<_> = node
                    .parents
                    .iter()
                    .map(|p| self.results[p.index()].get().and_then(|raw| raw.salt))
                    .collect();
                plan_node(
                    node,
                    &parents,
                    &parent_salts,
                    node_chunks(&self.plan, i),
                    |sig| self.store.lookup(sig).is_some(),
                    Some(self.threshold_for(i)),
                )
            }
            Err(err) => return self.complete(me, i, Err(err)),
        };
        let count = plan.pieces.pieces.len();
        let state = PieceState {
            plan,
            outs: (0..count).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(count),
        };
        let set = self.pieces[i].set(state);
        debug_assert!(set.is_ok(), "node started twice");
        if count > 1 {
            // Publish the sibling pieces before running our own, so idle
            // workers overlap with piece 0. Notify under the injector
            // lock (see `next_task` for why that cannot miss a sleeper).
            let mut injector = lock(&self.injector);
            for piece in 1..count {
                injector.ready.push_back(Task::Piece { node: i, piece });
            }
            for _ in 1..count {
                self.work_cv.notify_one();
            }
        }
        self.run_piece_task(me, i, 0)
    }

    /// Runs one piece of a started node; the worker that finishes the
    /// last piece assembles the outputs and completes the node.
    fn run_piece_task(&self, me: usize, i: usize, piece: usize) -> Option<Task> {
        let state = self.pieces[i]
            .get()
            .expect("pieces are enqueued only after the piece state is set");
        let id = NodeId(i as u32);
        let node = self.workflow.node(id);
        let planned = &state.plan;
        let outcome = self.parent_outputs(id).and_then(|parents| {
            run_piece(
                node,
                &parents,
                &self.store,
                planned.pieces.pieces[piece],
                planned.edges,
            )
        });
        *lock(&state.outs[piece]) = Some(outcome);
        if state.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        let outcomes = state.outs.iter().map(|cell| {
            lock(cell).take().unwrap_or_else(|| {
                debug_assert!(false, "piece finished without recording an outcome");
                Err(HelixError::Exec(format!(
                    "node `{}`: piece outcome missing (scheduler bug)",
                    node.name
                )))
            })
        });
        let raw = assemble(planned.pieces.sliceable, outcomes)
            .and_then(|raw| Ok(planned.finish(&node.kind, &self.parent_outputs(id)?, raw)));
        self.complete(me, i, raw)
    }

    /// Completes node `i` with its raw result or its error — recording
    /// the result and readying children, or recording the failure — and
    /// wakes the merge cursor when the completion can advance it.
    fn complete(&self, me: usize, i: usize, outcome: Result<RawResult>) -> Option<Task> {
        let continuation = match outcome {
            Ok(raw) => self.finish_ok(me, i, raw),
            Err(err) => {
                self.record_failure(self.pos[i], err);
                None
            }
        };
        self.wake_merger(i);
        continuation
    }

    /// Publishes node `i`'s result and readies its children: the first
    /// becomes the worker's continuation, the rest go to its local deque.
    fn finish_ok(&self, me: usize, i: usize, raw: RawResult) -> Option<Task> {
        let set = self.results[i].set(raw);
        debug_assert!(set.is_ok(), "node executed twice");
        let mut next = None;
        let mut pushed = 0usize;
        {
            let mut local = lock(&self.locals[me]);
            for &child in &self.children[i] {
                if self.deps[child].fetch_sub(1, Ordering::AcqRel) == 1 {
                    if next.is_none() {
                        // Run the first readied child ourselves.
                        next = Some(Task::Node(child));
                    } else {
                        local.push_back(Task::Node(child));
                        pushed += 1;
                    }
                }
            }
        }
        if pushed > 0 {
            // Notify under the injector lock: a worker that scanned every
            // queue empty holds it until its wait, so the wakeup cannot
            // slip past (see `next_task`). One wakeup per item avoids a
            // thundering herd.
            let _guard = lock(&self.injector);
            for _ in 0..pushed {
                self.work_cv.notify_one();
            }
        }
        next
    }

    /// Wakes the merge cursor if node `i`'s completion can unblock it —
    /// i.e. it is at (or, for failures, before) the published stall
    /// position. The merger re-checks after publishing, so a stale read
    /// here at worst delays it one timed-wait tick.
    fn wake_merger(&self, i: usize) {
        if self.pos[i] <= self.waiting_pos.load(Ordering::SeqCst) {
            let mut progress = lock(&self.progress);
            *progress += 1;
            self.progress_cv.notify_one();
        }
    }

    fn worker(&self, me: usize) {
        while let Some(mut t) = self.next_task(me) {
            while let Some(next) = self.run_task(me, t) {
                t = next;
            }
        }
    }

    /// Records a failure if it is the plan-order-earliest seen so far.
    /// Execution continues for earlier nodes only (see module docs).
    fn record_failure(&self, pos: usize, err: HelixError) {
        let mut failure = lock(&self.failure);
        if failure.as_ref().is_none_or(|(p, _)| pos < *p) {
            *failure = Some((pos, err));
        }
        self.min_fail.fetch_min(pos, Ordering::AcqRel);
    }

    /// Pops a ready node for the helping merge thread (its own deque,
    /// the injector, then a steal) without ever sleeping.
    fn try_pop(&self, me: usize) -> Option<Task> {
        if let Some(t) = lock(&self.locals[me]).pop_back() {
            return Some(t);
        }
        if let Some(t) = self.pop_injector(&mut lock(&self.injector)) {
            return Some(t);
        }
        self.steal(me)
    }

    /// Drives the plan-order merge cursor on the calling thread while
    /// workers execute; whenever the cursor is stalled the caller *helps*
    /// by executing ready nodes itself (slot `me`), so merging costs no
    /// dedicated thread. Returns when every node has merged, when the
    /// cursor reaches a node that failed (all earlier nodes having
    /// merged, making that failure final), or when `merge` itself errors.
    fn merge_and_help<M>(&self, me: usize, merge: &mut M) -> Result<()>
    where
        M: FnMut(NodeId, &ExecutedNode, &NodeOutput) -> Result<()>,
    {
        let mut cursor = 0usize;
        let mut seen = 0u64;
        // A continuation readied by the caller's last helped task; merging
        // still takes priority over running it.
        let mut pending: Option<Task> = None;
        loop {
            self.waiting_pos.store(usize::MAX, Ordering::SeqCst);
            while cursor < self.plan.order.len() {
                let id = self.plan.order[cursor];
                let i = id.index();
                if self.plan.states[i] == NodeState::Prune {
                    cursor += 1;
                    continue;
                }
                match self.results[i].get() {
                    Some(raw) => {
                        merge(id, &raw.executed, &raw.output)?;
                        cursor += 1;
                    }
                    None => break,
                }
            }
            if cursor >= self.plan.order.len() {
                return Ok(());
            }
            {
                let mut failure = lock(&self.failure);
                if let Some((pos, _)) = failure.as_ref() {
                    // The cursor merged everything before `pos`, so no
                    // plan-order-earlier failure can still happen: this
                    // error is final and deterministic.
                    if *pos == cursor {
                        let (_, err) = failure.take().expect("failure checked above");
                        return Err(err);
                    }
                }
            }
            // Stalled: execute a ready task instead of sleeping.
            if let Some(t) = pending.take().or_else(|| self.try_pop(me)) {
                pending = self.run_task(me, t);
                continue;
            }
            // Nothing to help with. Publish the stall position, then
            // re-check it: a worker that completed this node just before
            // the publish skipped the wakeup, so the decision to sleep
            // must come after.
            self.waiting_pos.store(cursor, Ordering::SeqCst);
            if self.results[self.plan.order[cursor].index()]
                .get()
                .is_some()
                || lock(&self.failure)
                    .as_ref()
                    .is_some_and(|(pos, _)| *pos == cursor)
            {
                continue;
            }
            let progress = lock(&self.progress);
            if *progress == seen {
                // Timed wait as a belt-and-braces backstop: a missed
                // wakeup costs one tick, never a hang.
                let (progress, _timeout) = self
                    .progress_cv
                    .wait_timeout(progress, std::time::Duration::from_millis(2))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                seen = *progress;
            } else {
                seen = *progress;
            }
        }
    }
}

// UDF panics are converted to errors inside [`run_node`], so the
// crate-wide poison-ignoring `lock` is safe here too: a panicking worker
// must not wedge its siblings.
use crate::lock;

/// Helpers bump this counter as their very last act (after dropping
/// their executor handle); the caller waits for it to reach the number
/// of helpers it actually started before reclaiming the executor.
#[derive(Default)]
struct DoneSignal {
    count: Mutex<usize>,
    cv: Condvar,
}

impl DoneSignal {
    fn signal(&self) {
        *lock(&self.count) += 1;
        self.cv.notify_all();
    }

    fn wait_for(&self, target: usize) {
        let mut count = lock(&self.count);
        while *count < target {
            count = self
                .cv
                .wait(count)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The barrier-free executor: persistent-pool workers race through the
/// dependency DAG while the calling thread merges in plan order.
fn execute_ready_queue<M>(
    workflow: &Workflow,
    plan: &CompiledPlan,
    store: &IntermediateStore,
    opts: &ExecOpts,
    merge: &mut M,
) -> Result<ExecutionResult>
where
    M: FnMut(NodeId, &ExecutedNode, &NodeOutput) -> Result<()>,
{
    let n = workflow.len();
    let executable = plan
        .states
        .iter()
        .filter(|&&s| s != NodeState::Prune)
        .count();
    if executable == 0 {
        return Ok(ExecutionResult {
            outputs: (0..n).map(|_| None).collect(),
        });
    }
    // The calling thread is a full participant (it merges *and* helps
    // execute), so it takes one of the `parallelism` slots. Unlike
    // earlier versions, `executable` does not cap the slot count: a plan
    // of few wide nodes still fans out via partitions.
    let slots = opts
        .parallelism
        .clamp(2, executable.saturating_mul(MAX_PARTITIONS).max(2));
    let exec = Arc::new(ReadyExecutor::new(
        workflow,
        plan,
        store,
        slots,
        opts.partition_rows,
        opts.node_partition_rows.clone(),
    ));

    /// Signals shutdown on drop, so a panic unwinding out of the merge
    /// callback (or anywhere in the merge loop) still wakes sleeping
    /// workers — otherwise they would keep waiting on a run that no
    /// thread is merging, pinning their pool threads forever.
    struct ShutdownOnDrop<'a>(&'a ReadyExecutor);
    impl Drop for ShutdownOnDrop<'_> {
        fn drop(&mut self) {
            self.0.shutdown.store(true, Ordering::Release);
            let _guard = lock(&self.0.injector);
            self.0.work_cv.notify_all();
        }
    }

    let pool = opts
        .pool
        .clone()
        .unwrap_or_else(|| Arc::clone(global_pool()));
    let done = Arc::new(DoneSignal::default());
    let mut started = 0usize;
    for w in 0..slots - 1 {
        let exec = Arc::clone(&exec);
        let done = Arc::clone(&done);
        let job: Job = Box::new(move || {
            exec.worker(w);
            // Drop our executor handle *before* signalling, so the
            // caller's `Arc::try_unwrap` succeeds once the count is in.
            drop(exec);
            done.signal();
        });
        if pool.try_spawn(job) {
            started += 1;
        } else {
            // Pool saturated: run with fewer helpers rather than queue
            // behind other runs — the caller executes either way.
            break;
        }
    }

    let stop = ShutdownOnDrop(&exec);
    let outcome = exec.merge_and_help(slots - 1, merge);
    drop(stop);
    done.wait_for(started);
    let mut exec = exec;
    let exec = loop {
        match Arc::try_unwrap(exec) {
            Ok(exec) => break exec,
            Err(shared) => {
                // A helper has bumped the counter but its `drop(exec)`
                // write is still propagating; spin briefly.
                exec = shared;
                std::thread::yield_now();
            }
        }
    };
    outcome?;

    let outputs = exec
        .results
        .into_iter()
        .map(|cell| cell.into_inner().map(|raw| raw.output))
        .collect();
    Ok(ExecutionResult { outputs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use crate::cost::CostModel;
    use crate::ops::{OperatorKind, Udf};
    use crate::recompute::RecomputationPolicy;
    use crate::workflow::NodeRef;
    use helix_dataflow::{DataCollection, DataType, Row, Schema, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn tmp_store(tag: &str) -> IntermediateStore {
        let dir =
            std::env::temp_dir().join(format!("helix-scheduler-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::store::StoreOptions::new(dir)
            .budget_bytes(1 << 24)
            .open()
            .unwrap()
    }

    fn int_rows(values: &[i64]) -> DataCollection {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rows = values.iter().map(|&v| Row(vec![Value::Int(v)])).collect();
        DataCollection::from_rows_unchecked(schema, rows)
    }

    /// A deterministic UDF: sums all parent cells and appends `salt`.
    fn sum_udf(salt: i64) -> Udf {
        Udf::new(format!("sum:{salt}"), move |inputs| {
            let mut total = salt;
            for dc in inputs {
                for row in dc.rows() {
                    total += row.get(0).as_int().unwrap_or(0);
                }
            }
            Ok(int_rows(&[total]))
        })
    }

    /// Random-ish DAG: node i gets edges from the given pairs.
    fn dag(n: usize, edges: &[(usize, usize)], outputs: &[usize]) -> Workflow {
        let mut w = Workflow::new("sched-test");
        let mut refs: Vec<NodeRef> = Vec::new();
        for i in 0..n {
            let parents: Vec<&NodeRef> = edges
                .iter()
                .filter(|&&(_, dst)| dst == i)
                .map(|&(src, _)| &refs[src])
                .collect();
            let r = w
                .add(
                    format!("n{i}"),
                    OperatorKind::UserDefined(sum_udf(i as i64 + 1)),
                    &parents,
                )
                .unwrap();
            refs.push(r);
        }
        for &o in outputs {
            w.output(&refs[o]);
        }
        w
    }

    fn run(w: &Workflow, parallelism: usize) -> (ExecutionResult, Vec<NodeId>) {
        let store = tmp_store(&format!("run-{parallelism}-{}", w.len()));
        let cm = CostModel::new();
        let plan = compile(w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut merged = Vec::new();
        let result = execute_plan(w, &plan, &store, parallelism, |id, _, _| {
            merged.push(id);
            Ok(())
        })
        .unwrap();
        (result, merged)
    }

    #[test]
    fn parallel_outputs_match_sequential() {
        let w = dag(
            6,
            &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (4, 5)],
            &[5],
        );
        let (seq, seq_merged) = run(&w, 1);
        let (par, par_merged) = run(&w, 4);
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq_merged, par_merged, "merge order must be plan order");
    }

    #[test]
    fn thread_counts_agree_on_outputs_and_merge_order() {
        let w = dag(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (2, 4),
                (3, 5),
                (4, 5),
                (0, 6),
            ],
            &[5, 6],
        );
        let store = tmp_store("threads");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut reference: Option<(ExecutionResult, Vec<NodeId>)> = None;
        for threads in [1, 2, 4] {
            let mut merged = Vec::new();
            let result = execute_plan(&w, &plan, &store, threads, |id, _, _| {
                merged.push(id);
                Ok(())
            })
            .unwrap();
            match &reference {
                None => reference = Some((result, merged)),
                Some((first, order)) => {
                    assert_eq!(first.outputs, result.outputs, "{threads} threads: outputs");
                    assert_eq!(order, &merged, "{threads} threads: merge order");
                }
            }
        }
    }

    #[test]
    fn merge_order_is_plan_order_even_when_levels_interleave() {
        // 0 -> 1 (output), 0 -> 2 -> 3 (output), with node 2 materialized
        // so it plans as a dependency-free Load. Plan order is [0, 1, 2, 3]
        // but node 2 is ready immediately and node 3 right after it — both
        // can finish before node 1, yet 2 and 3 must still merge in plan
        // position, after 1.
        let w = dag(4, &[(0, 1), (0, 2), (2, 3)], &[1, 3]);
        let store = tmp_store("interleave");
        let mut cm = CostModel::new();
        for node in w.nodes() {
            cm.observe_compute(&node.name, 1.0);
        }
        let sigs = crate::signature::compute_signatures(&w).unwrap();
        // Node 2's recorded output: salt 3 + parent 0's output (salt 1).
        store
            .put(sigs[2], &NodeOutput::Data(int_rows(&[4])))
            .unwrap();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        assert_eq!(plan.order, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(plan.states[2], NodeState::Load);
        let mut merged = Vec::new();
        let result = execute_plan(&w, &plan, &store, 4, |id, _, _| {
            merged.push(id);
            Ok(())
        })
        .unwrap();
        assert_eq!(merged, plan.order, "merge must follow plan order");
        // Node 3 = salt 4 + loaded parent value 4.
        assert_eq!(
            result.outputs[3].as_deref(),
            Some(&NodeOutput::Data(int_rows(&[8])))
        );
    }

    #[test]
    fn worker_errors_surface_deterministically() {
        let mut w = Workflow::new("err");
        let root = w
            .add("root", OperatorKind::UserDefined(sum_udf(0)), &[])
            .unwrap();
        // Two failing siblings: the plan-order-earlier one must win
        // regardless of which thread finishes first.
        for tag in ["fail_a", "fail_b"] {
            let udf = Udf::new(
                format!("boom:{tag}"),
                move |_inputs: &[&DataCollection]| -> crate::Result<DataCollection> {
                    Err(HelixError::Exec(format!("{tag} failed")))
                },
            );
            let r = w
                .add(tag, OperatorKind::UserDefined(udf), &[&root])
                .unwrap();
            w.output(&r);
        }
        let store = tmp_store("err");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut merged_by_mode: Vec<Vec<NodeId>> = Vec::new();
        for parallelism in [1, 4] {
            let mut merged = Vec::new();
            let err = execute_plan(&w, &plan, &store, parallelism, |id, _, _| {
                merged.push(id);
                Ok(())
            })
            .expect_err("failing UDF must propagate");
            assert!(
                err.to_string().contains("fail_a failed"),
                "expected fail_a first at parallelism {parallelism}, got: {err}"
            );
            merged_by_mode.push(merged);
        }
        // Both modes commit the same plan-order prefix before erroring:
        // the successful root, nothing at or after the failing node.
        assert_eq!(merged_by_mode[0], merged_by_mode[1]);
        assert_eq!(merged_by_mode[0], vec![NodeId(0)]);
    }

    #[test]
    fn failure_commits_sequential_prefix_and_records_timings() {
        // root -> ok (pos 1) -> tail (pos 3), root -> boom (pos 2).
        // Plan order is [root, ok, boom, tail]: the sequential loop runs
        // root and ok, fails at boom, and never reaches tail. The ready
        // queue may have tail in flight, but it must commit exactly the
        // same merge prefix — with real timings for the completed nodes —
        // and surface boom's error, at every thread count.
        let mut w = Workflow::new("fail-prefix");
        let root = w
            .add("root", OperatorKind::UserDefined(sum_udf(0)), &[])
            .unwrap();
        let ok = w
            .add("ok", OperatorKind::UserDefined(sum_udf(10)), &[&root])
            .unwrap();
        let boom = Udf::new(
            "boom",
            move |_inputs: &[&DataCollection]| -> crate::Result<DataCollection> {
                Err(HelixError::Exec("boom failed".into()))
            },
        );
        let boom = w
            .add("boom", OperatorKind::UserDefined(boom), &[&root])
            .unwrap();
        let tail = w
            .add("tail", OperatorKind::UserDefined(sum_udf(20)), &[&ok])
            .unwrap();
        w.output(&boom);
        w.output(&tail);
        let store = tmp_store("fail-prefix");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut merged_by_mode: Vec<Vec<(NodeId, f64)>> = Vec::new();
        for parallelism in [1, 2, 8] {
            let mut merged = Vec::new();
            let err = execute_plan(&w, &plan, &store, parallelism, |id, executed, _| {
                merged.push((id, executed.secs));
                Ok(())
            })
            .expect_err("boom must propagate");
            assert!(
                err.to_string().contains("boom failed"),
                "parallelism {parallelism}: {err}"
            );
            assert!(
                merged.iter().all(|&(_, secs)| secs >= 0.0),
                "completed nodes carry timings"
            );
            merged_by_mode.push(merged);
        }
        for merged in &merged_by_mode {
            let ids: Vec<NodeId> = merged.iter().map(|&(id, _)| id).collect();
            assert_eq!(
                ids,
                vec![NodeId(0), NodeId(1)],
                "exactly the sequential pre-failure prefix merges"
            );
        }
    }

    #[test]
    fn worker_panic_becomes_error() {
        let mut w = Workflow::new("panic");
        let root = w
            .add("root", OperatorKind::UserDefined(sum_udf(0)), &[])
            .unwrap();
        // Enough panicking siblings that execution actually fans out.
        for i in 0..4 {
            let udf = Udf::new(
                format!("panic:{i}"),
                move |_inputs: &[&DataCollection]| -> crate::Result<DataCollection> {
                    panic!("kaboom {i}")
                },
            );
            let r = w
                .add(format!("p{i}"), OperatorKind::UserDefined(udf), &[&root])
                .unwrap();
            w.output(&r);
        }
        let store = tmp_store("panic");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let err = execute_plan(&w, &plan, &store, 4, |_, _, _| Ok(()))
            .expect_err("panicking UDF must become an error");
        assert!(err.to_string().contains("kaboom"), "got: {err}");
    }

    #[test]
    fn singleton_and_sequential_panics_become_errors_too() {
        // A panicking node with no independent siblings (like every
        // learner/evaluate node) must yield the same Err at every thread
        // count — not unwind at parallelism 1 and Err at 4.
        let mut w = Workflow::new("panic-singleton");
        let root = w
            .add("root", OperatorKind::UserDefined(sum_udf(0)), &[])
            .unwrap();
        let udf = Udf::new(
            "panic:solo",
            move |_inputs: &[&DataCollection]| -> crate::Result<DataCollection> {
                panic!("solo kaboom")
            },
        );
        let r = w
            .add("solo", OperatorKind::UserDefined(udf), &[&root])
            .unwrap();
        w.output(&r);
        let store = tmp_store("panic-solo");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        for parallelism in [1, 4] {
            let err = execute_plan(&w, &plan, &store, parallelism, |_, _, _| Ok(()))
                .expect_err("panic must become an error at any thread count");
            assert!(
                err.to_string().contains("solo kaboom"),
                "parallelism {parallelism}: {err}"
            );
        }
    }

    #[test]
    fn parallelism_cap_limits_concurrency() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        LIVE.store(0, Ordering::SeqCst);
        PEAK.store(0, Ordering::SeqCst);
        let mut w = Workflow::new("cap");
        for i in 0..8 {
            let udf = Udf::new(format!("slow:{i}"), move |_inputs: &[&DataCollection]| {
                let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(live, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
                LIVE.fetch_sub(1, Ordering::SeqCst);
                Ok(int_rows(&[i]))
            });
            let r = w
                .add(format!("s{i}"), OperatorKind::UserDefined(udf), &[])
                .unwrap();
            w.output(&r);
        }
        let store = tmp_store("cap");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        execute_plan(&w, &plan, &store, 2, |_, _, _| Ok(())).unwrap();
        let peak = PEAK.load(Ordering::SeqCst);
        assert!(peak <= 2, "parallelism 2 must cap live workers, saw {peak}");
        assert!(peak >= 2, "8 ready nodes should actually use both workers");
    }

    #[test]
    fn dependent_starts_without_waiting_for_slow_sibling() {
        // chain: a -> b -> c, plus a slow independent node s. A barrier
        // between dependency levels would hold b behind the whole of level
        // 0 = {a, s}, for a makespan of sleep(s) + sleep(b) + sleep(c). The
        // ready queue starts b the moment a finishes, overlapping the
        // chain with s.
        let slow_ms = 60u64;
        let step_ms = 15u64;
        let mut w = Workflow::new("no-barrier");
        let slow = Udf::new("slow", move |_inputs: &[&DataCollection]| {
            std::thread::sleep(std::time::Duration::from_millis(slow_ms));
            Ok(int_rows(&[0]))
        });
        let s = w.add("s", OperatorKind::UserDefined(slow), &[]).unwrap();
        let quick = |tag: i64| {
            Udf::new(
                format!("quick:{tag}"),
                move |_inputs: &[&DataCollection]| {
                    std::thread::sleep(std::time::Duration::from_millis(step_ms));
                    Ok(int_rows(&[tag]))
                },
            )
        };
        let a = w
            .add("a", OperatorKind::UserDefined(quick(1)), &[])
            .unwrap();
        let b = w
            .add("b", OperatorKind::UserDefined(quick(2)), &[&a])
            .unwrap();
        let c = w
            .add("c", OperatorKind::UserDefined(quick(3)), &[&b])
            .unwrap();
        w.output(&s);
        w.output(&c);
        let store = tmp_store("no-barrier");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let started = Instant::now();
        execute_plan(&w, &plan, &store, 2, |_, _, _| Ok(())).unwrap();
        let elapsed = started.elapsed();
        // A level barrier needs ≥ slow + 2 * step; the ready queue
        // overlaps the chain with the slow node. Allow generous
        // scheduling slack.
        let barrier_floor = std::time::Duration::from_millis(slow_ms + 2 * step_ms);
        assert!(
            elapsed < barrier_floor,
            "ready queue should overlap the chain with the slow sibling: \
             took {elapsed:?}, level-barrier floor is {barrier_floor:?}"
        );
    }

    #[test]
    fn loads_are_ready_immediately() {
        // Materialize a mid-chain node, then recompile: the load has no
        // dependencies, executes immediately, and downstream computes
        // stack above it.
        let w = dag(3, &[(0, 1), (1, 2)], &[2]);
        let store = tmp_store("load");
        let mut cm = CostModel::new();
        for node in w.nodes() {
            cm.observe_compute(&node.name, 1.0);
        }
        let sigs = crate::signature::compute_signatures(&w).unwrap();
        store
            .put(sigs[1], &NodeOutput::Data(int_rows(&[42])))
            .unwrap();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        assert_eq!(plan.states[1], NodeState::Load);
        assert_eq!(
            plan.states[0],
            NodeState::Prune,
            "the load shadows its parent"
        );
        let result = execute_plan(&w, &plan, &store, 4, |_, _, _| Ok(())).unwrap();
        assert_eq!(
            result.outputs[1].as_deref(),
            Some(&NodeOutput::Data(int_rows(&[42])))
        );
        assert!(
            result.outputs[2].is_some(),
            "the compute above the load ran"
        );
    }

    #[test]
    #[should_panic(expected = "merge kaboom")]
    fn merge_panic_unwinds_instead_of_hanging() {
        // A panic in the merge callback must shut the workers down (the
        // ShutdownOnDrop guard) and unwind out of the scoped join — not
        // leave sleeping workers blocking the join forever.
        let w = dag(6, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)], &[4, 5, 3]);
        let store = tmp_store("mergepanic");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let _ = execute_plan(&w, &plan, &store, 4, |_, _, _| panic!("merge kaboom"));
    }

    #[test]
    fn merge_failure_propagates() {
        let w = dag(2, &[(0, 1)], &[1]);
        let store = tmp_store("mergefail");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let err = execute_plan(&w, &plan, &store, 4, |_, _, _| {
            Err(HelixError::Exec("merge refused".into()))
        })
        .expect_err("merge error must propagate");
        assert!(err.to_string().contains("merge refused"));
    }

    #[test]
    fn wide_fanout_is_faster_with_threads() {
        // Smoke-level perf sanity (the real comparison lives in
        // benches/scheduler.rs): 6 independent 15 ms nodes at 6 threads
        // should beat 1 thread comfortably.
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 4 {
            return;
        }
        let build = || {
            let mut w = Workflow::new("fan");
            for i in 0..6 {
                let udf = Udf::new(
                    format!("sleep:{i}"),
                    move |_inputs: &[&DataCollection]| {
                        std::thread::sleep(std::time::Duration::from_millis(15));
                        Ok(int_rows(&[i]))
                    },
                );
                let r = w
                    .add(format!("f{i}"), OperatorKind::UserDefined(udf), &[])
                    .unwrap();
                w.output(&r);
            }
            w
        };
        let w = build();
        let store = tmp_store("fan");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let t1 = Instant::now();
        execute_plan(&w, &plan, &store, 1, |_, _, _| Ok(())).unwrap();
        let sequential = t1.elapsed();
        let t2 = Instant::now();
        execute_plan(&w, &plan, &store, 6, |_, _, _| Ok(())).unwrap();
        let parallel = t2.elapsed();
        assert!(
            parallel < sequential,
            "6-wide fan-out at 6 threads ({parallel:?}) should beat 1 thread ({sequential:?})"
        );
    }

    #[test]
    fn injector_pops_longest_critical_path_first() {
        // Three shallow singletons (ids 0-2) ahead of a 3-deep chain
        // (ids 3-5) in plan order. All four roots are ready at t=0 with
        // identical per-node cost estimates, so the chain head's
        // downstream tail makes it the highest-priority injector entry:
        // the first pop must take the chain head, not the
        // plan-order-first singleton a FIFO pop would pick. Pop order is
        // asserted directly on the executor (single-threaded, so it is
        // deterministic — a log written from racing workers would not
        // be); the plan is then executed for the completeness check.
        let started: Arc<std::sync::Mutex<Vec<String>>> =
            Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut w = Workflow::new("prio");
        let tracked = |name: &str, log: &Arc<std::sync::Mutex<Vec<String>>>| {
            let log = Arc::clone(log);
            let name = name.to_string();
            Udf::new(format!("track:{name}"), move |_: &[&DataCollection]| {
                log.lock().unwrap().push(name.clone());
                std::thread::sleep(std::time::Duration::from_millis(10));
                Ok(int_rows(&[1]))
            })
        };
        for i in 0..3 {
            let name = format!("s{i}");
            let udf = tracked(&name, &started);
            let r = w.add(&name, OperatorKind::UserDefined(udf), &[]).unwrap();
            w.output(&r);
        }
        let a = w
            .add("a", OperatorKind::UserDefined(tracked("a", &started)), &[])
            .unwrap();
        let b = w
            .add(
                "b",
                OperatorKind::UserDefined(tracked("b", &started)),
                &[&a],
            )
            .unwrap();
        let c = w
            .add(
                "c",
                OperatorKind::UserDefined(tracked("c", &started)),
                &[&b],
            )
            .unwrap();
        w.output(&c);
        let store = tmp_store("prio");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();

        let exec = ReadyExecutor::new(&w, &plan, &store, 2, usize::MAX, None);
        let mut injector = lock(&exec.injector);
        let popped: Vec<String> = std::iter::from_fn(|| exec.pop_injector(&mut injector))
            .map(|t| w.nodes()[t.node()].name.clone())
            .collect();
        drop(injector);
        assert_eq!(
            popped,
            ["a", "s0", "s1", "s2"],
            "chain head pops first (deepest downstream tail), singletons follow in plan order"
        );

        execute_plan(&w, &plan, &store, 2, |_, _, _| Ok(())).unwrap();
        let log = started.lock().unwrap();
        assert_eq!(log.len(), 6, "every node executed");
    }

    /// Source UDF producing `0..n` ints, and a RowUdf doubling each row —
    /// the partitionable stage the tests below split.
    fn rows_workflow(n: i64) -> Workflow {
        let mut w = Workflow::new("partition");
        let src = Udf::new(format!("iota:{n}"), move |_: &[&DataCollection]| {
            Ok(int_rows(&(0..n).collect::<Vec<_>>()))
        });
        let src = w.add("src", OperatorKind::UserDefined(src), &[]).unwrap();
        let double = Udf::new("double:v1", |inputs: &[&DataCollection]| {
            let rows = inputs[0]
                .rows()
                .iter()
                .map(|r| r.get(0).as_int().unwrap_or(0) * 2)
                .collect::<Vec<_>>();
            Ok(int_rows(&rows))
        });
        let d = w.row_udf("double", &[&src], double).unwrap();
        w.output(&d);
        w
    }

    fn run_opts(w: &Workflow, opts: &ExecOpts, tag: &str) -> (ExecutionResult, Vec<NodeId>) {
        let store = tmp_store(tag);
        let cm = CostModel::new();
        let plan = compile(w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut merged = Vec::new();
        let result = execute_plan_opts(w, &plan, &store, opts, |id, _, _| {
            merged.push(id);
            Ok(())
        })
        .unwrap();
        (result, merged)
    }

    #[test]
    fn partitioned_node_matches_sequential_output() {
        let w = rows_workflow(200);
        let (seq, seq_merged) = run_opts(
            &w,
            &ExecOpts {
                parallelism: 1,
                partition_rows: 8,
                ..ExecOpts::default()
            },
            "part-seq",
        );
        for (parallelism, partition_rows) in [(2, 8), (4, 8), (4, 1), (4, usize::MAX)] {
            let (par, par_merged) = run_opts(
                &w,
                &ExecOpts {
                    parallelism,
                    partition_rows,
                    ..ExecOpts::default()
                },
                &format!("part-{parallelism}-{partition_rows}"),
            );
            assert_eq!(
                seq.outputs, par.outputs,
                "parallelism {parallelism}, partition_rows {partition_rows}"
            );
            assert_eq!(seq_merged, par_merged, "merge order must be plan order");
        }
    }

    #[test]
    fn partition_failure_matches_sequential_error() {
        // The UDF rejects the first row it sees whose value is in the bad
        // set, scanning its slice in order — exactly what a whole-input
        // run does. The sequential loop reports value 10 (the globally
        // first bad row); every partitioned run must report the same,
        // even though the slice holding value 150 may fail first in wall
        // time.
        let mut w = Workflow::new("part-fail");
        let src = Udf::new("iota:200", move |_: &[&DataCollection]| {
            Ok(int_rows(&(0..200).collect::<Vec<_>>()))
        });
        let src = w.add("src", OperatorKind::UserDefined(src), &[]).unwrap();
        let picky = Udf::new("picky:v1", |inputs: &[&DataCollection]| {
            for r in inputs[0].rows() {
                let v = r.get(0).as_int().unwrap_or(0);
                if v == 10 || v == 150 {
                    return Err(HelixError::Exec(format!("bad row {v}")));
                }
            }
            Ok(inputs[0].clone())
        });
        let p = w.row_udf("picky", &[&src], picky).unwrap();
        w.output(&p);
        let store = tmp_store("part-fail");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let mut messages = Vec::new();
        for (parallelism, partition_rows) in [(1, 8), (4, 8), (4, 1)] {
            let opts = ExecOpts {
                parallelism,
                partition_rows,
                ..ExecOpts::default()
            };
            let err = execute_plan_opts(&w, &plan, &store, &opts, |_, _, _| Ok(()))
                .expect_err("picky must fail");
            messages.push(err.to_string());
        }
        for msg in &messages {
            assert!(
                msg.contains("bad row 10"),
                "expected the globally first bad row, got: {msg}"
            );
        }
    }

    #[test]
    fn partitioned_panic_becomes_error() {
        let mut w = Workflow::new("part-panic");
        let src = Udf::new("iota:100", move |_: &[&DataCollection]| {
            Ok(int_rows(&(0..100).collect::<Vec<_>>()))
        });
        let src = w.add("src", OperatorKind::UserDefined(src), &[]).unwrap();
        let bomb = Udf::new("bomb:v1", |inputs: &[&DataCollection]| {
            if inputs[0].rows().iter().any(|r| r.get(0) == &Value::Int(42)) {
                panic!("slice kaboom");
            }
            Ok(inputs[0].clone())
        });
        let b = w.row_udf("bomb", &[&src], bomb).unwrap();
        w.output(&b);
        let store = tmp_store("part-panic");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        let opts = ExecOpts {
            parallelism: 4,
            partition_rows: 8,
            ..ExecOpts::default()
        };
        let err = execute_plan_opts(&w, &plan, &store, &opts, |_, _, _| Ok(()))
            .expect_err("panicking slice must surface as an error");
        let msg = err.to_string();
        assert!(
            msg.contains("node `bomb` panicked") && msg.contains("slice kaboom"),
            "got: {msg}"
        );
    }

    /// `rows` rows in `chunk`-row data chunks with synthetic partition
    /// signatures (`base + k`), as [`crate::slicing::chunk_plan`] would
    /// derive them from a source manifest.
    fn chunked(rows: usize, chunk: usize, base: u64) -> NodeChunks {
        let ranges: Vec<(usize, usize)> = (0..rows)
            .step_by(chunk)
            .map(|start| (start, (start + chunk).min(rows)))
            .collect();
        let psigs = (0..ranges.len() as u64)
            .map(|k| Signature(base + k))
            .collect();
        NodeChunks { ranges, psigs }
    }

    /// Stores rows `[start, end)` of `whole` under chunk `k`'s signature.
    fn store_chunk(store: &IntermediateStore, chunks: &NodeChunks, k: usize, whole: &[i64]) {
        let (start, end) = chunks.ranges[k];
        let part = NodeOutput::Data(int_rows(&whole[start..end]));
        store.put(chunks.psigs[k], &part).unwrap();
    }

    fn piece(start: usize, end: usize, psig: Option<u64>) -> Piece {
        Piece {
            start,
            end,
            psig: psig.map(Signature),
        }
    }

    #[test]
    fn piece_list_interleaves_loads_with_split_miss_runs() {
        let w = rows_workflow(100);
        let kind = &w.nodes()[1].kind;
        let input = NodeOutput::Data(int_rows(&(0..100).collect::<Vec<_>>()));
        let chunks = chunked(100, 10, 500);
        // Chunks 0, 3, 5, 6 are stored; 1-2, 4 and 7-9 are miss runs.
        let stored = |sig: Signature| [500, 503, 505, 506].contains(&sig.0);
        let inline = plan_pieces(kind, &[&input], Some(&chunks), stored, None);
        assert!(inline.sliceable);
        assert_eq!(
            inline.pieces,
            vec![
                piece(0, 10, Some(500)),
                piece(10, 30, None),
                piece(30, 40, Some(503)),
                piece(40, 50, None),
                piece(50, 60, Some(505)),
                piece(60, 70, Some(506)),
                piece(70, 100, None),
            ],
            "without helpers each maximal miss run is one range"
        );
        // With helpers, a run of at least twice the threshold splits.
        let fanned = plan_pieces(kind, &[&input], Some(&chunks), stored, Some(10));
        assert_eq!(
            fanned.pieces,
            vec![
                piece(0, 10, Some(500)),
                piece(10, 20, None),
                piece(20, 30, None),
                piece(30, 40, Some(503)),
                piece(40, 50, None),
                piece(50, 60, Some(505)),
                piece(60, 70, Some(506)),
                piece(70, 80, None),
                piece(80, 90, None),
                piece(90, 100, None),
            ]
        );
        // No hits, or no chunk entries: today's plain threshold split.
        let split = vec![
            piece(0, 34, None),
            piece(34, 67, None),
            piece(67, 100, None),
        ];
        let cold = plan_pieces(kind, &[&input], Some(&chunks), |_| false, Some(40));
        assert_eq!(cold.pieces, split);
        let bare = plan_pieces(kind, &[&input], None, |_| true, Some(40));
        assert_eq!(bare.pieces, split);
        // Chunk ranges that do not cover the input are not trusted.
        let short = chunked(90, 10, 500);
        let stale = plan_pieces(kind, &[&input], Some(&short), |_| true, None);
        assert_eq!(stale.pieces, vec![piece(0, 100, None)]);
    }

    #[test]
    fn chunk_hits_and_partitioning_compose_to_the_whole_node_output() {
        let w = rows_workflow(200);
        let doubled: Vec<i64> = (0..200).map(|v| v * 2).collect();
        let chunks = chunked(200, 25, 9_000);
        for hits in [vec![0, 1, 4, 7], vec![2], vec![0, 1, 2, 3, 4, 5, 6, 7]] {
            for (parallelism, partition_rows) in [(1, 8), (2, 8), (4, 8), (4, 1), (4, usize::MAX)] {
                let store = tmp_store(&format!("compose-{}-{parallelism}", hits.len()));
                let cm = CostModel::new();
                let mut plan =
                    compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
                plan.chunks[1] = Some(chunks.clone());
                for &k in &hits {
                    store_chunk(&store, &chunks, k, &doubled);
                }
                let opts = ExecOpts {
                    parallelism,
                    partition_rows,
                    ..ExecOpts::default()
                };
                let mut loaded = Vec::new();
                let result = execute_plan_opts(&w, &plan, &store, &opts, |_, executed, _| {
                    loaded.push(executed.chunks_loaded);
                    Ok(())
                })
                .unwrap();
                assert_eq!(
                    result.outputs[1].as_deref(),
                    Some(&NodeOutput::Data(int_rows(&doubled))),
                    "hits {hits:?}, parallelism {parallelism}, partition_rows {partition_rows}"
                );
                assert_eq!(
                    loaded,
                    vec![0, hits.len()],
                    "every stored chunk is served from the store, split or not"
                );
            }
        }
    }

    #[test]
    fn evicted_chunk_recomputes_its_range() {
        let w = rows_workflow(60);
        let node = &w.nodes()[1];
        let doubled: Vec<i64> = (0..60).map(|v| v * 2).collect();
        let input = NodeOutput::Data(int_rows(&(0..60).collect::<Vec<_>>()));
        let chunks = chunked(60, 20, 7_000);
        let store = tmp_store("evicted");
        store_chunk(&store, &chunks, 0, &doubled);
        store_chunk(&store, &chunks, 2, &doubled);
        let planned = plan_pieces(
            &node.kind,
            &[&input],
            Some(&chunks),
            |sig| store.lookup(sig).is_some(),
            None,
        );
        assert_eq!(
            planned.pieces,
            vec![
                piece(0, 20, Some(7_000)),
                piece(20, 40, None),
                piece(40, 60, Some(7_002)),
            ]
        );
        // Chunk 2 disappears between the probe and the read.
        assert!(store.evict(chunks.psigs[2]).unwrap());
        let outcomes = planned
            .pieces
            .iter()
            .map(|&p| run_piece(node, &[&input], &store, p, None));
        let raw = assemble(planned.sliceable, outcomes).unwrap();
        assert_eq!(raw.output, NodeOutput::Data(int_rows(&doubled)));
        assert_eq!(raw.executed.chunks_loaded, 1, "only chunk 0 was served");
    }

    #[test]
    fn source_reuses_chunks_only_on_a_full_hit_set() {
        // `src` is unsliceable (a classic UDF standing in for a file
        // source): it cannot compute a row range, so a partial hit set is
        // useless and it computes whole.
        let w = rows_workflow(60);
        let node = &w.nodes()[0];
        let iota: Vec<i64> = (0..60).collect();
        let chunks = chunked(60, 20, 3_000);
        let store = tmp_store("source-hits");
        let stored = |sig: Signature| store.lookup(sig).is_some();
        store_chunk(&store, &chunks, 0, &iota);
        store_chunk(&store, &chunks, 1, &iota);
        let partial = plan_pieces(&node.kind, &[], Some(&chunks), stored, Some(8));
        assert!(!partial.sliceable);
        assert_eq!(partial.pieces, vec![piece(0, 0, None)], "computes whole");

        store_chunk(&store, &chunks, 2, &iota);
        let full = plan_pieces(&node.kind, &[], Some(&chunks), stored, Some(8));
        assert_eq!(
            full.pieces,
            vec![
                piece(0, 20, Some(3_000)),
                piece(20, 40, Some(3_001)),
                piece(40, 60, Some(3_002)),
            ]
        );
        let run = |pieces: &[Piece]| {
            let outcomes = pieces
                .iter()
                .map(|&p| run_piece(node, &[], &store, p, None));
            assemble(false, outcomes).unwrap()
        };
        let raw = run(&full.pieces);
        assert_eq!(raw.output, NodeOutput::Data(int_rows(&iota)));
        assert_eq!(raw.executed.chunks_loaded, 3);

        // An entry evicted after the probe: the fallback compute of an
        // unsliceable operator is the whole output, not one range of it.
        assert!(store.evict(chunks.psigs[1]).unwrap());
        let raw = run(&full.pieces);
        assert_eq!(raw.output, NodeOutput::Data(int_rows(&iota)));
        assert_eq!(raw.executed.chunks_loaded, 0);
    }

    #[test]
    fn explicit_pool_is_reused_across_runs() {
        let pool = Arc::new(crate::pool::WorkerPool::with_max_threads(2));
        let w = rows_workflow(200);
        let opts = ExecOpts {
            parallelism: 3,
            partition_rows: 8,
            node_partition_rows: None,
            pool: Some(Arc::clone(&pool)),
        };
        let (first, _) = run_opts(&w, &opts, "pool-reuse-a");
        let (second, _) = run_opts(&w, &opts, "pool-reuse-b");
        assert_eq!(first.outputs, second.outputs);
        assert!(
            pool.threads() <= 2,
            "runs must reuse the capped pool, spawned {}",
            pool.threads()
        );
    }

    #[test]
    fn shared_udf_state_is_threadsafe() {
        // UDFs capturing shared state must see a consistent picture.
        let counter = Arc::new(AtomicUsize::new(0));
        let mut w = Workflow::new("shared");
        for i in 0..8 {
            let counter = Arc::clone(&counter);
            let udf = Udf::new(
                format!("count:{i}"),
                move |_inputs: &[&DataCollection]| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    Ok(int_rows(&[i]))
                },
            );
            let r = w
                .add(format!("c{i}"), OperatorKind::UserDefined(udf), &[])
                .unwrap();
            w.output(&r);
        }
        let store = tmp_store("shared");
        let cm = CostModel::new();
        let plan = compile(&w, &store, &cm, RecomputationPolicy::Optimal, None).unwrap();
        execute_plan(&w, &plan, &store, 4, |_, _, _| Ok(())).unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }
}
