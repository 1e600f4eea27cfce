//! The execution engine: runs compiled plans and drives the online
//! materialization optimizer across iterations.
//!
//! # Shared-`&self` execution
//!
//! [`Engine::run`] and [`Engine::run_in`] take `&self`: all cross-run
//! state (the cost model, the global version history, the default
//! [`Lineage`]) lives behind locks, and everything a single run mutates —
//! cost observations, per-node reports, the metric harvest — accumulates
//! in a private per-run context that is merged into the shared state once
//! the run completes. N runs can therefore proceed concurrently over one
//! engine (and its sharded store): cross-run reuse falls out of signature
//! identity, and the store's atomic budget ledger keeps concurrent
//! materializations from jointly overshooting the storage budget. The
//! [`crate::session`] module builds the multi-user API on top of this.
//!
//! Each run holds its plan's `Load` signatures in an engine-level
//! *in-flight set* from compile until it has loaded them (or ends). A
//! displacement (see [`crate::materialize::Displacement`]) and the offline
//! pass never evict a key in it, so a compiled plan never finds its loads
//! gone.

use crate::compiler::CompiledPlan;
use crate::cost::{CostEvent, CostModel};
use crate::materialize::{Displacement, MaterializationContext, MaterializationPolicyKind};
use crate::memo::{MemoTable, Observation, OfflineOutcome, Recording};
use crate::ops::{NodeOutput, OperatorKind};
use crate::persist::{
    arr_field, f64_field, field, hex_u64, str_arr, str_field, string_list, u64_hex, Doc,
    EngineMeta, Journal,
};
use crate::recompute::{NodeState, RecomputationPolicy};
use crate::report::{IterationReport, NodeReport};
use crate::scheduler;
use crate::signature::{snapshot, ChangeKind, Signature};
use crate::store::{Durability, IntermediateStore, RecoveryInfo, StoreOptions};
use crate::version::{VersionStore, WorkflowVersion};
use crate::workflow::Workflow;
use crate::{HelixError, Result};
use helix_dataflow::codec::GroupSpec;
use helix_dataflow::fx::{FxHashMap, FxHashSet};
use helix_json::Json;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Default [`EngineConfig::replan_factor`]: re-plan only on a 4×
/// divergence between observed and estimated cost — large enough that
/// ordinary timing noise never churns plans, small enough that a badly
/// mis-estimated operator is corrected after one sighting.
pub const DEFAULT_REPLAN_FACTOR: f64 = 4.0;

/// Engine configuration: optimization toggles and the storage budget.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Directory for the intermediate store.
    pub store_dir: PathBuf,
    /// Storage budget in bytes (paper §2.3's "maximum storage constraint").
    pub storage_budget_bytes: u64,
    /// Recomputation policy (Helix uses [`RecomputationPolicy::Optimal`]).
    pub recomputation: RecomputationPolicy,
    /// Materialization policy (Helix uses
    /// [`MaterializationPolicyKind::HelixOnline`]).
    pub materialization: MaterializationPolicyKind,
    /// Whether the program slicer prunes operators that do not feed
    /// outputs (off only in the "unoptimized Helix" demo configuration).
    pub enable_slicing: bool,
    /// Worker threads for the ready-queue executor. `1` reproduces the
    /// classic sequential iteration loop; the default is the machine's
    /// available parallelism (overridable via `HELIX_PARALLELISM`).
    /// Results and reports are identical at every setting — see
    /// [`crate::scheduler`].
    pub parallelism: usize,
    /// Shards the intermediate store's entry maps are split across so the
    /// executor's concurrent store traffic does not serialize on one
    /// lock. The default is [`crate::store::DEFAULT_STORE_SHARDS`]; `1`
    /// reproduces the historical single-lock store. Purely a concurrency
    /// knob — contents and budget semantics are identical at every
    /// setting.
    pub store_shards: usize,
    /// Rows-per-partition threshold for the scheduler's operator-level
    /// data parallelism: a partitionable node splits into row slices once
    /// its input holds at least twice this many rows. The default is
    /// [`crate::scheduler::DEFAULT_PARTITION_ROWS`]. Purely a
    /// performance knob — outputs, reports, and errors are identical at
    /// every setting; see `docs/PERFORMANCE.md` for tuning guidance.
    pub partition_rows: usize,
    /// Durability tier for the store and the engine's cross-run state
    /// (cost model, version history, session records). The default comes
    /// from `HELIX_DURABILITY` (falling back to
    /// [`Durability::Volatile`]); under a WAL tier a reopened engine
    /// resumes every session's lineage — see `docs/ARCHITECTURE.md`,
    /// "Durability".
    pub durability: Durability,
    /// Divergence factor for the adaptive re-plan: when a node's
    /// memo-observed compute cost differs from its estimate by at least
    /// this ratio (either direction), the engine re-runs the
    /// recomputation optimizer with observed costs before executing.
    /// Clamped to ≥ 1; exactly `1.0` re-plans whenever any observed
    /// history exists, `f64::INFINITY` disables re-planning. The default
    /// is [`DEFAULT_REPLAN_FACTOR`]. Purely a
    /// plan-shaping knob — execution results are byte-identical at every
    /// setting; only load/compute/store choices move.
    pub replan_factor: f64,
}

impl EngineConfig {
    /// Full Helix configuration rooted at `store_dir` with a 1 GiB budget.
    /// Two fields default from the environment (see [`crate::config_env`]):
    /// `parallelism` (`HELIX_PARALLELISM`) and `durability`
    /// (`HELIX_DURABILITY`); everything else is a constant the `with_*`
    /// builders override.
    pub fn helix(store_dir: impl Into<PathBuf>) -> Self {
        EngineConfig {
            store_dir: store_dir.into(),
            storage_budget_bytes: 1 << 30,
            recomputation: RecomputationPolicy::Optimal,
            materialization: MaterializationPolicyKind::HelixOnline,
            enable_slicing: true,
            parallelism: scheduler::default_parallelism(),
            store_shards: crate::store::DEFAULT_STORE_SHARDS,
            partition_rows: scheduler::DEFAULT_PARTITION_ROWS,
            durability: crate::config_env::durability(),
            replan_factor: DEFAULT_REPLAN_FACTOR,
        }
    }

    /// Sets the storage budget.
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.storage_budget_bytes = bytes;
        self
    }

    /// Sets the scheduler thread count (clamped to ≥ 1).
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.parallelism = threads.max(1);
        self
    }

    /// Sets the store shard count (clamped to ≥ 1).
    pub fn with_store_shards(mut self, shards: usize) -> Self {
        self.store_shards = shards.max(1);
        self
    }

    /// Sets the partition threshold (clamped to ≥ 1).
    pub fn with_partition_rows(mut self, rows: usize) -> Self {
        self.partition_rows = rows.max(1);
        self
    }

    /// Sets the durability tier.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Sets the adaptive re-plan divergence factor (clamped to ≥ 1;
    /// `f64::INFINITY` disables re-planning, `1.0` re-plans whenever
    /// observed history exists).
    pub fn with_replan_factor(mut self, factor: f64) -> Self {
        self.replan_factor = if factor.is_nan() {
            f64::INFINITY
        } else {
            factor.max(1.0)
        };
        self
    }
}

/// Per-caller version bookkeeping: the signature snapshot of the last
/// executed workflow version and a 0-based iteration counter.
///
/// A lineage is what makes an iteration sequence *a sequence*: the
/// change tracker diffs each new workflow against `previous` to decide
/// what must recompute. Every [`crate::session::Session`] owns one, so
/// concurrent sessions never see each other's edits as "changes"; the
/// engine keeps a default lineage for callers using [`Engine::run`]
/// directly.
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    previous: Option<FxHashMap<String, (u64, Signature)>>,
    iteration: usize,
}

impl Lineage {
    /// A fresh lineage: no previous version, iteration 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many iterations have executed under this lineage.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Whether at least one iteration has executed.
    pub fn has_history(&self) -> bool {
        self.previous.is_some()
    }

    /// Signatures referenced by the previous iteration, in no particular
    /// order — the set a store retention sweep must keep live for this
    /// lineage's next change-tracker comparison.
    pub fn signatures(&self) -> Vec<Signature> {
        self.previous
            .iter()
            .flat_map(|prev| prev.values().map(|&(_, sig)| sig))
            .collect()
    }

    /// The previous iteration's signature snapshot (node name → local and
    /// Merkle signature).
    pub(crate) fn previous_map(&self) -> Option<&FxHashMap<String, (u64, Signature)>> {
        self.previous.as_ref()
    }

    /// The persisted lineage. Local and Merkle signatures are hex strings
    /// (full `u64`s do not fit a JSON number), nodes sorted by name for
    /// stable files; `previous` is `null` before the first iteration.
    pub(crate) fn to_json(&self) -> Json {
        let previous = self.previous.as_ref().map_or(Json::Null, |map| {
            let mut entries: Vec<_> = map.iter().collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            let entry = |(node, &(local, sig)): (&String, &(u64, Signature))| {
                Json::obj([
                    ("node", Json::str(node)),
                    ("local", Json::str(u64_hex(local))),
                    ("sig", Json::str(u64_hex(sig.0))),
                ])
            };
            Json::Arr(entries.into_iter().map(entry).collect())
        });
        Json::obj([
            ("iteration", Json::Num(self.iteration as f64)),
            ("previous", previous),
        ])
    }

    /// Inverse of [`Lineage::to_json`].
    pub(crate) fn from_json(json: &Json) -> std::result::Result<Lineage, String> {
        let previous = match field(json, "previous")? {
            Json::Null => None,
            _ => Some(
                arr_field(json, "previous")?
                    .iter()
                    .map(|entry| {
                        let local = hex_u64(&str_field(entry, "local")?)?;
                        let sig = Signature(hex_u64(&str_field(entry, "sig")?)?);
                        Ok((str_field(entry, "node")?, (local, sig)))
                    })
                    .collect::<std::result::Result<_, String>>()?,
            ),
        };
        Ok(Lineage {
            previous,
            iteration: f64_field(json, "iteration")? as usize,
        })
    }

    /// This lineage as a change to `base`, for the session log:
    /// [`Lineage::to_json`] of its iteration and of the nodes whose
    /// signatures `base` lacks or holds differently, plus the nodes of
    /// `base` it no longer has (`gone`). A no-op iterate changes none.
    pub(crate) fn delta_json(&self, base: &Lineage) -> Json {
        let old = base.previous.as_ref();
        let new = self.previous.clone().unwrap_or_default();
        let gone: Vec<String> = old
            .into_iter()
            .flat_map(|o| o.keys())
            .filter(|node| !new.contains_key(*node))
            .cloned()
            .collect();
        let changed = Lineage {
            previous: Some(
                new.into_iter()
                    .filter(|(node, v)| old.and_then(|o| o.get(node)) != Some(v))
                    .collect(),
            ),
            iteration: self.iteration,
        };
        let mut json = changed.to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs.push(("gone".to_string(), str_arr(&gone)));
        }
        json
    }

    /// Applies a [`Lineage::delta_json`] change.
    pub(crate) fn apply_delta(&mut self, json: &Json) -> std::result::Result<(), String> {
        let delta = Lineage::from_json(json)?;
        let gone = string_list(json, "gone")?;
        let previous = self.previous.get_or_insert_with(FxHashMap::default);
        for node in &gone {
            previous.remove(node);
        }
        previous.extend(delta.previous.unwrap_or_default());
        self.iteration = delta.iteration;
        Ok(())
    }
}

/// What [`Engine::new`] recovered from a durable store directory: what
/// the store's open indexed and dropped, plus the engine-level state reloaded
/// from the meta snapshot and its log. All zeros for volatile engines and
/// fresh directories.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineRecovery {
    /// What the store's open indexed and dropped.
    pub store: RecoveryInfo,
    /// Versions reloaded into the global history.
    pub recovered_versions: usize,
    /// Cost-model compute observations reloaded.
    pub recovered_cost_observations: usize,
    /// Optimizer-memo signatures reloaded (their history feeds the first
    /// post-restart plan).
    pub recovered_memo_entries: usize,
    /// Whether an engine meta file existed but could not be parsed — the
    /// engine warned and started with fresh cost/version state (the
    /// store's entries still recovered independently).
    pub meta_corrupted: bool,
    /// Meta-log records not replayed: replay stops, with a warning, at
    /// the first record that does not parse (a torn tail), and drops it
    /// and every record after it.
    pub meta_records_dropped: usize,
}

/// Per-run options for [`Engine::run_in`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Session name attributed to the resulting report and version entry
    /// (the multi-tenant history's "who ran this").
    pub session: Option<String>,
    /// Change summary recorded for this version. `None` derives one from
    /// the signature diff; sessions pass their typed edit log here so the
    /// recorded history says what the user *did*, not just what changed.
    pub summary: Option<String>,
}

/// Everything one run mutates, private to that run. The cost model is a
/// snapshot of the shared model taken at run start: within the run it
/// evolves exactly as the historical `&mut self` engine's did (so
/// materialization decisions are unchanged), and the buffered events are
/// replayed into the shared model under its lock afterwards.
struct RunContext {
    cost: CostModel,
    /// Cost-model observations buffered during the run and replayed into
    /// the shared model afterwards.
    events: Vec<CostEvent>,
    /// Memo recordings buffered during the run and merged into the
    /// shared memo afterwards, one per executed node.
    memo_events: Vec<Recording>,
    node_reports: Vec<NodeReport>,
    materialize_secs: f64,
    metrics: Vec<(String, f64)>,
    /// Writes skipped after an I/O error (see [`Engine::writes_skipped`]).
    writes_skipped: u64,
    /// The row-group keys of every node computed so far: the chunks this
    /// run probed and wrote, which a displacement leaves alone.
    chunk_keys: FxHashSet<u64>,
}

impl RunContext {
    fn observe_compute(&mut self, name: &str, secs: f64) {
        self.cost.observe_compute(name, secs);
        self.events.push(CostEvent::Compute {
            name: name.to_string(),
            secs,
        });
    }

    fn observe_io(&mut self, bytes: u64, secs: f64) {
        self.cost.observe_io(bytes, secs);
        self.events.push(CostEvent::Io { bytes, secs });
    }

    fn observe_encode(&mut self, estimated: u64, actual: u64) {
        self.cost.observe_encode(estimated, actual);
        self.events.push(CostEvent::Encode { estimated, actual });
    }

    /// Stores node `i`'s output under `sig`, displacing `displace` as far
    /// as needed, and records the write. Returns whether it was stored: a
    /// store refusal is a skip, not an error. It means either a budget
    /// race between estimate and actual encoded size, or another
    /// session's in-flight put of this same signature; the online policy
    /// would skip with perfect information, and the concurrent twin's
    /// materialization serves future loads just as well. A failed write
    /// (a full disk, an I/O error) is warned about and counted, and
    /// skipped too: materialization is an optimization, so the output is
    /// recomputed when next needed, and the run goes on.
    fn materialize(
        &mut self,
        store: &IntermediateStore,
        i: usize,
        sig: Signature,
        output: &NodeOutput,
        groups: &[GroupSpec],
        displace: &[Signature],
    ) -> bool {
        match store.put_grouped(sig, output, groups, displace) {
            Ok((bytes, secs)) => {
                self.observe_io(bytes, secs);
                self.observe_encode(self.node_reports[i].output_bytes, bytes);
                self.materialize_secs += secs;
                self.node_reports[i].materialized = true;
                true
            }
            Err(HelixError::Store(_)) => false,
            Err(err) => {
                self.skip_write(i, &err);
                false
            }
        }
    }

    /// Warns about and counts a write of node `i`'s output that failed
    /// with `err`.
    fn skip_write(&mut self, i: usize, err: &HelixError) {
        let node = &self.node_reports[i].name;
        eprintln!("helix-engine: skipped the write of `{node}`: {err}");
        self.writes_skipped += 1;
    }

    /// This run's compute seconds and parents per executed signature: the
    /// prices [`Displacement`] uses for signatures the memo never saw.
    fn fresh_timings(&self) -> FxHashMap<u64, (f64, Vec<Signature>)> {
        self.memo_events
            .iter()
            .filter(|(.., observation)| !observation.loaded)
            .map(|(sig, _, parents, observation)| (sig.0, (observation.exec_secs, parents.clone())))
            .collect()
    }
}

/// Signatures held in the engine's in-flight set, each with the number of
/// runs holding it.
type InflightLoads = Mutex<FxHashMap<u64, usize>>;

/// A run's planned `Load` signatures, held in the in-flight set until
/// loaded or dropped (module docs).
struct LoadGuard<'a> {
    inflight: &'a InflightLoads,
    sigs: Vec<u64>,
}

impl LoadGuard<'_> {
    /// Whether every held key is still stored.
    fn all_stored(&self, store: &IntermediateStore) -> bool {
        self.sigs
            .iter()
            .all(|&sig| store.lookup(Signature(sig)).is_some())
    }

    /// Lets go of `sig` early, once this run has loaded it.
    fn release(&mut self, sig: Signature) {
        if let Some(at) = self.sigs.iter().position(|&s| s == sig.0) {
            self.sigs.swap_remove(at);
            unhold(&mut lock(self.inflight), sig.0);
        }
    }
}

impl Drop for LoadGuard<'_> {
    fn drop(&mut self) {
        let mut held = lock(self.inflight);
        for &sig in &self.sigs {
            unhold(&mut held, sig);
        }
    }
}

fn unhold(held: &mut FxHashMap<u64, usize>, sig: u64) {
    if let Some(count) = held.get_mut(&sig) {
        *count -= 1;
        if *count == 0 {
            held.remove(&sig);
        }
    }
}

use crate::lock;

/// The Helix engine: owns the store, cost model, and version history.
/// Every run method takes `&self`, so one engine (usually behind an
/// `Arc`) serves many concurrent sessions — see the module docs.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    store: IntermediateStore,
    /// Persistent worker pool the scheduler draws helper threads from:
    /// created once with the engine and reused across iterations and
    /// concurrent sessions, so per-run thread construction never lands on
    /// the iteration's critical path. Dropped (and its threads joined)
    /// with the engine.
    pool: std::sync::Arc<crate::pool::WorkerPool>,
    cost_model: Mutex<CostModel>,
    versions: Mutex<VersionStore>,
    /// Version bookkeeping for direct [`Engine::run`] callers. Locked
    /// only briefly to read or publish; [`Engine::run`] serializes on
    /// [`Engine::default_run_gate`] instead, so previews never wait out
    /// a full run.
    default_lineage: Mutex<Lineage>,
    /// Serializes [`Engine::run`] calls (they share one lineage).
    default_run_gate: Mutex<()>,
    /// What this engine recovered at open (all zeros when volatile).
    recovery: EngineRecovery,
    /// The engine meta journal (durable engines only). Its lock is the
    /// merge gate: a run merges its cost and memo events and records its
    /// version under it, then appends the run's record, so log order is
    /// merge order however many sessions run. Lock order: taken before
    /// the cost model, memo, version and pin locks, never after.
    meta: Option<Mutex<Journal>>,
    /// The optimizer memo: per-signature runtime history consulted by
    /// the adaptive re-plan, materialization biasing, partition sizing,
    /// and the offline Optimal pass. Persisted with the engine meta.
    memo: Mutex<MemoTable>,
    /// Signatures pinned by the last offline Optimal pass: they
    /// materialize whenever they fit, regardless of the online rule.
    pinned: Mutex<FxHashSet<u64>>,
    /// Lifetime count of adaptive re-plans (surfaced in `GET /stats`).
    replans_triggered: AtomicU64,
    /// Unix timestamp of the last offline pass (0 = never ran).
    last_offline_unix: AtomicU64,
    /// Lifetime count of store writes skipped after an I/O error.
    writes_skipped: AtomicU64,
    /// Keys some running plan loads (module docs). Lock order: taken
    /// before the memo and the store's locks, never after.
    inflight_loads: InflightLoads,
}

impl Engine {
    /// Opens an engine (and its store) under the configured directory.
    ///
    /// Under a durable [`EngineConfig::durability`] tier this is the
    /// recovery path: the store indexes its files, and the engine reloads
    /// its cost model, memo and global version history from the snapshot
    /// `<store_dir>/meta/engine.json`, then replays `meta/engine.log` on
    /// top. A corrupt snapshot is warned about and ignored (fresh state
    /// plus what the log still holds), a torn log tail is dropped with a
    /// warning — open never refuses to start; see [`Engine::recovery`]
    /// for what was reloaded.
    pub fn new(config: EngineConfig) -> Result<Engine> {
        let store = StoreOptions::new(&config.store_dir)
            .budget_bytes(config.storage_budget_bytes)
            .shards(config.store_shards)
            .durability(config.durability)
            .open()?;
        let mut recovery = EngineRecovery {
            store: store.recovery(),
            ..EngineRecovery::default()
        };
        let mut meta = EngineMeta::default();
        let mut journal = None;
        if config.durability.is_durable() {
            crate::store::sweep_tmp(&crate::persist::meta_dir(&config.store_dir));
            crate::store::sweep_tmp(&crate::persist::sessions_dir(&config.store_dir));
            let path = crate::persist::engine_meta_path(&config.store_dir);
            match crate::persist::load_engine_meta(&path) {
                Ok(loaded) => meta = loaded.unwrap_or_default(),
                Err(err) => {
                    eprintln!("helix: warning: ignoring corrupt engine meta: {err}");
                    recovery.meta_corrupted = true;
                }
            }
            let (opened, dropped) =
                Journal::recover(&path, meta.seq, &mut meta, recovery.meta_corrupted)?;
            recovery.meta_records_dropped = dropped;
            journal = Some(Mutex::new(opened));
            recovery.recovered_cost_observations = meta.cost.observed_nodes();
            recovery.recovered_versions = meta.versions.len();
            recovery.recovered_memo_entries = meta.memo.len();
        }
        Ok(Engine {
            config,
            store,
            pool: std::sync::Arc::new(crate::pool::WorkerPool::new()),
            cost_model: Mutex::new(meta.cost),
            versions: Mutex::new(VersionStore::from_versions(meta.versions)),
            default_lineage: Mutex::new(Lineage::new()),
            default_run_gate: Mutex::new(()),
            recovery,
            meta: journal,
            memo: Mutex::new(meta.memo),
            pinned: Mutex::new(meta.pinned.iter().map(|s| s.0).collect()),
            replans_triggered: AtomicU64::new(meta.replans_triggered),
            last_offline_unix: AtomicU64::new(meta.last_offline_unix),
            writes_skipped: AtomicU64::new(0),
            inflight_loads: Mutex::new(FxHashMap::default()),
        })
    }

    /// How many store writes — node outputs and best-effort chunk-only
    /// files alike — this engine skipped because the write failed (a full
    /// disk, an I/O error). The run went on; those outputs and chunks are
    /// recomputed when next needed instead of loaded.
    pub fn writes_skipped(&self) -> u64 {
        self.writes_skipped.load(Ordering::Relaxed)
    }

    /// What this engine recovered when it opened: store counters plus
    /// reloaded version/cost state. All zeros for volatile engines.
    pub fn recovery(&self) -> EngineRecovery {
        self.recovery
    }

    /// Forces a durability checkpoint now: compacts the engine meta log
    /// into `meta/engine.json`. A no-op for volatile engines. (Runs append
    /// to the meta log after every merge and compact it when it outgrows
    /// its snapshot; this entry point exists for the server's
    /// `POST /admin/snapshot` and orderly shutdowns.)
    pub fn snapshot_now(&self) -> Result<()> {
        if let Some(journal) = &self.meta {
            let mut journal = lock(journal);
            journal.compact(self.meta_state().to_json())?;
        }
        Ok(())
    }

    /// The durable engine state, cloned out for a snapshot.
    fn meta_state(&self) -> EngineMeta {
        EngineMeta {
            cost: lock(&self.cost_model).clone(),
            versions: lock(&self.versions).all().to_vec(),
            memo: lock(&self.memo).clone(),
            pinned: lock(&self.pinned).iter().map(|&s| Signature(s)).collect(),
            replans_triggered: self.replans_triggered.load(Ordering::Relaxed),
            last_offline_unix: self.last_offline_unix.load(Ordering::Relaxed),
            seq: 0,
        }
    }

    /// Appends `record` with the engine's counters to the meta log, under
    /// the merge gate `journal`, and compacts when the log has outgrown
    /// its snapshot — or when the append failed, so the snapshot carries
    /// the state instead. Failures warn rather than error: persistence
    /// must never fail a run that already committed its results.
    fn log_meta(&self, journal: &mut Journal, record: Vec<(&'static str, Json)>) {
        let counters = [
            ("replans", self.replans_triggered.load(Ordering::Relaxed)),
            ("offline", self.last_offline_unix.load(Ordering::Relaxed)),
        ];
        let record = record
            .into_iter()
            .chain(counters.map(|(key, n)| (key, Json::Num(n as f64))));
        let compact = journal.append(Json::obj(record)).unwrap_or_else(|err| {
            eprintln!("helix: warning: failed to log engine meta: {err}");
            true
        });
        if compact {
            if let Err(err) = journal.compact(self.meta_state().to_json()) {
                eprintln!("helix: warning: failed to persist engine meta: {err}");
            }
        }
    }

    /// The global version history across all sessions and direct runs
    /// (Versions/Metrics tabs). Returns a point-in-time snapshot, so the
    /// caller can walk history while other sessions keep running — no
    /// lock is held after this returns. For a quick read (a length check,
    /// the latest entry) prefer [`Engine::with_versions`], which skips
    /// the O(history) clone.
    pub fn versions(&self) -> VersionStore {
        lock(&self.versions).clone()
    }

    /// Runs `f` against the live global version history without cloning
    /// it. The history lock is held for the duration of `f`, so keep it
    /// short and never call back into the engine from inside.
    pub fn with_versions<R>(&self, f: impl FnOnce(&VersionStore) -> R) -> R {
        f(&lock(&self.versions))
    }

    /// The intermediate store.
    pub fn store(&self) -> &IntermediateStore {
        &self.store
    }

    /// The live cost model. Returns a point-in-time snapshot — no lock
    /// is held after this returns.
    pub fn cost_model(&self) -> CostModel {
        lock(&self.cost_model).clone()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Compiles a workflow without executing it, against the engine's
    /// default lineage (used by the DAG visualization pane to preview the
    /// optimized plan).
    pub fn compile_only(&self, workflow: &Workflow) -> Result<CompiledPlan> {
        // Clone the lineage out rather than compiling under the lock: a
        // preview only needs a consistent read.
        let lineage = lock(&self.default_lineage).clone();
        self.compile_in(workflow, &lineage)
    }

    /// Compiles a workflow against an explicit lineage without executing
    /// it (sessions preview their own plans this way).
    pub fn compile_in(&self, workflow: &Workflow, lineage: &Lineage) -> Result<CompiledPlan> {
        self.compile_against(workflow, lineage, &self.cost_model())
    }

    /// Compiles against a cost-model snapshot, so no engine lock is held
    /// while the compiler hashes sources and plans.
    fn compile_against(
        &self,
        workflow: &Workflow,
        lineage: &Lineage,
        cost_model: &CostModel,
    ) -> Result<CompiledPlan> {
        crate::compiler::compile_with_slicing(
            workflow,
            &self.store,
            cost_model,
            self.config.recomputation,
            lineage.previous.as_ref(),
            self.config.enable_slicing,
        )
    }

    /// Compiles `workflow` against `cost`, then applies the adaptive
    /// re-plan: when per-signature observed history diverges from the
    /// name-keyed estimates the plan was compiled with, the observed costs
    /// go in and the recomputation optimizer runs again. Returns the plan
    /// and the memo snapshot it was planned from, which the run's merge
    /// callback reuses, so a concurrent run's recordings never shift this
    /// run's decisions mid-flight. Every memo read in a run is keyed by a
    /// plan signature, so the snapshot copies only those entries.
    fn plan_run(
        &self,
        workflow: &Workflow,
        lineage: &Lineage,
        cost: &CostModel,
    ) -> Result<(CompiledPlan, MemoTable)> {
        let mut plan = self.compile_against(workflow, lineage, cost)?;
        let memo_snapshot = lock(&self.memo).subset(&plan.signatures);
        if crate::compiler::adapt_plan_with_memo(
            workflow,
            &mut plan,
            &memo_snapshot,
            self.config.recomputation,
            self.config.replan_factor,
        )? {
            self.replans_triggered.fetch_add(1, Ordering::Relaxed);
        }
        Ok((plan, memo_snapshot))
    }

    /// Holds `plan`'s `Load` signatures in the in-flight set until the
    /// guard drops.
    fn hold_loads(&self, plan: &CompiledPlan) -> LoadGuard<'_> {
        let sigs: Vec<u64> = plan
            .states
            .iter()
            .zip(&plan.signatures)
            .filter(|(state, _)| **state == NodeState::Load)
            .map(|(_, sig)| sig.0)
            .collect();
        self.hold(sigs)
    }

    fn hold(&self, sigs: Vec<u64>) -> LoadGuard<'_> {
        let mut held = lock(&self.inflight_loads);
        for &sig in &sigs {
            *held.entry(sig).or_insert(0) += 1;
        }
        LoadGuard {
            inflight: &self.inflight_loads,
            sigs,
        }
    }

    /// Runs one iteration against the engine's default lineage: compile →
    /// execute → materialize → record.
    ///
    /// Only `&self` is required, but calls through this entry point
    /// serialize on the default lineage — concurrent callers should each
    /// drive their own [`crate::session::Session`] (or [`Engine::run_in`]
    /// with their own [`Lineage`]) instead.
    pub fn run(&self, workflow: &Workflow) -> Result<IterationReport> {
        // Serialize runs on a dedicated gate and hold the lineage data
        // lock only to read and publish, so `compile_only` previews can
        // read the lineage while a run executes. A failed run publishes
        // nothing, matching `run_in`'s advance-only-on-success contract.
        let _gate = lock(&self.default_run_gate);
        let mut lineage = lock(&self.default_lineage).clone();
        let report = self.run_in(workflow, &mut lineage, RunOptions::default())?;
        *lock(&self.default_lineage) = lineage;
        Ok(report)
    }

    /// Runs one iteration under an explicit [`Lineage`]: compile against
    /// `lineage.previous`, execute, materialize, record into the global
    /// version history, and advance the lineage.
    ///
    /// This is the concurrent entry point: distinct lineages never
    /// contend (beyond brief cost-model/version-history lock windows and
    /// the sharded store itself), so N sessions iterate in parallel over
    /// one engine.
    pub fn run_in(
        &self,
        workflow: &Workflow,
        lineage: &mut Lineage,
        options: RunOptions,
    ) -> Result<IterationReport> {
        Ok(self.run_keeping(workflow, lineage, options, None)?.0)
    }

    /// [`Engine::run_in`], also handing back the output of node `keep`
    /// when the run executed or loaded it (`None` when it was pruned), so
    /// a caller can read it whether or not the store kept it.
    pub(crate) fn run_keeping(
        &self,
        workflow: &Workflow,
        lineage: &mut Lineage,
        options: RunOptions,
        keep: Option<crate::workflow::NodeId>,
    ) -> Result<(IterationReport, Option<std::sync::Arc<NodeOutput>>)> {
        let total_started = Instant::now();
        let opt_started = Instant::now();
        // One cost-model snapshot serves the whole run: the plan is
        // compiled against it, and the merge callback below prices and
        // calibrates against it.
        let cost = self.cost_model();
        let (mut plan, mut memo_snapshot) = self.plan_run(workflow, lineage, &cost)?;
        // Hold the plan's loads until this run has loaded them. A key that
        // went between compile and the hold would fail its load, so plan
        // once more.
        let mut loads = self.hold_loads(&plan);
        if !loads.all_stored(&self.store) {
            drop(loads);
            (plan, memo_snapshot) = self.plan_run(workflow, lineage, &cost)?;
            loads = self.hold_loads(&plan);
        }
        let pinned_snapshot: FxHashSet<u64> = lock(&self.pinned).clone();
        let optimizer_secs = opt_started.elapsed().as_secs_f64();

        let node_reports: Vec<NodeReport> = workflow
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| NodeReport {
                name: node.name.clone(),
                stage: node.kind.stage(),
                state: plan.states[i],
                change: plan
                    .change
                    .as_ref()
                    .map(|c| c.kinds[i])
                    .unwrap_or(ChangeKind::Added),
                duration_secs: 0.0,
                output_bytes: 0,
                materialized: false,
                chunks_loaded: 0,
                decision_source: plan.sources[i],
            })
            .collect();
        let mut ctx = RunContext {
            cost,
            events: Vec::new(),
            memo_events: Vec::new(),
            node_reports,
            materialize_secs: 0.0,
            metrics: Vec::new(),
            writes_skipped: 0,
            chunk_keys: FxHashSet::default(),
        };

        // Raw node execution happens inside the scheduler (possibly on
        // many threads); everything stateful — cost observation, the
        // online materialization decision (paper §2.3: immediately upon
        // operator completion), metric harvesting — happens here, in the
        // merge callback the scheduler invokes strictly in plan order, so
        // the outcome stream is identical at any thread count. All of it
        // lands in the per-run context; shared engine state is only
        // touched after execution completes.
        let store = &self.store;
        let config = &self.config;
        let inflight_loads = &self.inflight_loads;
        let shared_memo = &self.memo;
        // Partition sizing seeded from the memo: a node with observed
        // per-row cost gets a threshold derived from it; everything else
        // falls back to the configured knob. Purely a performance hint —
        // partition boundaries never change results.
        let node_partition_rows = if memo_snapshot.is_empty() {
            None
        } else {
            Some(std::sync::Arc::new(
                plan.signatures
                    .iter()
                    .map(|sig| {
                        memo_snapshot
                            .get(*sig)
                            .and_then(|e| e.observed_per_row_secs())
                            .map(|per_row| {
                                scheduler::partition_rows_for_observed(
                                    per_row,
                                    config.partition_rows,
                                )
                            })
                            .unwrap_or(config.partition_rows)
                    })
                    .collect::<Vec<usize>>(),
            ))
        };
        let exec_opts = scheduler::ExecOpts {
            parallelism: config.parallelism,
            partition_rows: config.partition_rows,
            node_partition_rows,
            pool: Some(std::sync::Arc::clone(&self.pool)),
        };
        let result = scheduler::execute_plan_opts(
            workflow,
            &plan,
            store,
            &exec_opts,
            |id, executed, output| {
                let i = id.index();
                let node = workflow.node(id);
                let rows = output.as_data().map(|d| d.len() as u64).unwrap_or(0);
                let parent_sigs: Vec<Signature> = node
                    .parents
                    .iter()
                    .map(|p| plan.signatures[p.index()])
                    .collect();
                if let Some(bytes) = executed.loaded_bytes {
                    // Loaded: this run no longer needs the key held.
                    loads.release(plan.signatures[i]);
                    // A load answered from the store's decoded cache read
                    // no file, so it says nothing about disk I/O: the
                    // model stays calibrated by disk reads only.
                    if !executed.cached {
                        ctx.observe_io(bytes, executed.secs);
                    }
                    ctx.node_reports[i].duration_secs = executed.secs;
                    ctx.node_reports[i].output_bytes = bytes;
                    ctx.memo_events.push((
                        plan.signatures[i],
                        node.name.clone(),
                        parent_sigs,
                        Observation {
                            exec_secs: executed.secs,
                            output_bytes: bytes,
                            loaded: true,
                            rows,
                            run: 0,
                        },
                    ));
                } else {
                    ctx.observe_compute(&node.name, executed.secs);
                    let est_bytes = output.estimated_bytes() as u64;
                    ctx.node_reports[i].duration_secs = executed.secs;
                    ctx.node_reports[i].output_bytes = est_bytes;
                    ctx.node_reports[i].chunks_loaded = executed.chunks_loaded;
                    ctx.memo_events.push((
                        plan.signatures[i],
                        node.name.clone(),
                        parent_sigs,
                        Observation {
                            exec_secs: executed.secs,
                            output_bytes: est_bytes,
                            loaded: false,
                            rows,
                            run: 0,
                        },
                    ));

                    let size = ctx.cost.expected_encoded_bytes(est_bytes);
                    let decision = MaterializationContext {
                        load_cost_secs: ctx.cost.load_estimate_secs(size),
                        compute_cost_secs: executed.secs,
                        ancestors_compute_secs: ancestors_compute_estimate(&ctx.cost, workflow, id),
                        size_bytes: size,
                        remaining_budget_bytes: store.remaining_bytes(),
                        expected_reuse: memo_snapshot
                            .get(plan.signatures[i])
                            .map(|e| e.expected_reuse())
                            .unwrap_or(1.0),
                        pinned: pinned_snapshot.contains(&plan.signatures[i].0),
                    };
                    // A chunked output is written as one row group per
                    // data chunk, under the key its pieces were probed
                    // with, so the next data delta can serve unchanged
                    // partitions out of this same file.
                    let groups = &executed.groups;
                    ctx.chunk_keys.extend(groups.iter().map(|g| g.key));
                    let sig = plan.signatures[i];
                    let mut materialized = false;
                    if config.materialization.decide(&decision) && store.lookup(sig).is_none() {
                        materialized = ctx.materialize(store, i, sig, output, groups, &[]);
                    } else if config.materialization.displaces(&decision)
                        && store.lookup(sig).is_none()
                    {
                        // The rule wants it but it does not fit: trade
                        // less dense residents for it. The in-flight set
                        // stays locked until the put is done, so no run
                        // starts to hold a key this put evicts.
                        let inflight = lock(inflight_loads);
                        let mut protected = pinned_snapshot.clone();
                        protected.extend(inflight.keys().copied());
                        protected.extend(ctx.chunk_keys.iter().copied());
                        let residents = store.residents();
                        let fresh = ctx.fresh_timings();
                        let victims = Displacement {
                            candidate: sig,
                            candidate_bytes: size,
                            needed_bytes: size.saturating_sub(decision.remaining_budget_bytes),
                            plan: &plan.signatures,
                            protected: &protected,
                            residents: &residents,
                            memo: &lock(shared_memo),
                            cost: &ctx.cost,
                            fresh: &fresh,
                        }
                        .victims();
                        if !victims.is_empty() {
                            materialized = ctx.materialize(store, i, sig, output, groups, &victims);
                        }
                        drop(inflight);
                    }

                    // A node the policy did not store still keeps its
                    // missing chunks, in one chunk-only file, so a data
                    // delta reuses them. Off under `Never` (a store the
                    // policy keeps empty must stay empty). Best-effort
                    // within the same budget ledger: `put_chunks` reserves
                    // before writing and refuses rather than evicts, so it
                    // can never push the store over budget or displace a
                    // materialization, and an I/O failure is warned about
                    // and counted, never failed — a chunk that is not
                    // stored is simply recomputed next delta. Chunk writes
                    // don't calibrate the cost model, which tracks
                    // whole-output materialization.
                    if !materialized
                        && !matches!(
                            config.materialization,
                            crate::materialize::MaterializationPolicyKind::Never
                        )
                    {
                        let missing: Vec<GroupSpec> = groups
                            .iter()
                            .filter(|g| store.lookup(Signature(g.key)).is_none())
                            .copied()
                            .collect();
                        if !missing.is_empty() {
                            match store.put_chunks(output.as_data()?, &missing) {
                                Ok((_, secs)) => ctx.materialize_secs += secs,
                                Err(HelixError::Store(_)) => {}
                                Err(err) => ctx.skip_write(i, &err),
                            }
                        }
                    }
                }
                // Evaluation results carry this iteration's metrics
                // whether computed fresh or reused from the store.
                if matches!(workflow.node(id).kind, OperatorKind::Evaluate(_)) {
                    ctx.metrics.extend(crate::exec::metric_values(output)?);
                }
                Ok(())
            },
        );

        // Under the merge gate (durable engines only), the run's record
        // is encoded before the merges below drain its events.
        let mut journal = self.meta.as_ref().map(lock);
        let logged = journal.is_some().then(|| {
            let cost: Vec<Json> = ctx.events.iter().map(CostEvent::to_json).collect();
            let memo = ctx.memo_events.iter().map(crate::memo::recording_to_json);
            (Json::Arr(cost), Json::Arr(memo.collect()))
        });
        // Replay buffered cost observations into the shared model even on
        // failure: the plan-order merge commits side effects (including
        // materializations) for every node preceding the failure, and the
        // historical direct-mutation engine kept their calibration too. A
        // failed run must not leave the cost model blind to work that ran.
        {
            let mut shared = lock(&self.cost_model);
            for event in ctx.events.drain(..) {
                shared.observe(&event);
            }
        }
        // Memo recordings merge on the same terms as cost events: every
        // node that executed before a failure still observed real costs,
        // and the next plan should know about them.
        {
            let mut memo = lock(&self.memo);
            // One logical run per iteration: observations recorded below
            // carry this run's stamp, which is what lets old timings decay
            // (`memo::DEFAULT_MEMO_DECAY_RUNS`).
            memo.begin_run();
            for (sig, name, parents, observation) in ctx.memo_events.drain(..) {
                memo.record(sig, &name, &parents, observation);
            }
        }
        self.writes_skipped
            .fetch_add(ctx.writes_skipped, Ordering::Relaxed);

        // Version history and lineage advance only on success; the cost
        // observations were already merged above. Replaying events
        // (instead of writing back the snapshot wholesale) keeps
        // concurrent runs from erasing each other's calibration.
        let recorded = result.map(|mut result| {
            let kept = keep.and_then(|id| result.outputs[id.index()].take());
            let change_summary = options.summary.unwrap_or_else(|| {
                plan.change
                    .as_ref()
                    .map(|c| c.summary(workflow))
                    .unwrap_or_else(|| "initial version".to_string())
            });
            let report = IterationReport {
                iteration: lineage.iteration,
                workflow_name: workflow.name().to_string(),
                session: options.session,
                change_summary,
                total_secs: total_started.elapsed().as_secs_f64(),
                optimizer_secs,
                materialize_secs: ctx.materialize_secs,
                nodes: ctx.node_reports,
                metrics: ctx.metrics,
                snapshot: std::sync::Arc::new(crate::version::DagSnapshot::capture(workflow)),
            };
            let mut versions = lock(&self.versions);
            let id = versions.record(&report);
            let version = logged.as_ref().and_then(|_| versions.get(id));
            (report, kept, version.map(WorkflowVersion::to_json))
        });
        // The run's delta goes to the meta log. Best-effort by design —
        // see `log_meta`.
        if let (Some(journal), Some((cost, memo))) = (journal.as_deref_mut(), logged) {
            let version = recorded.as_ref().ok().and_then(|(.., v)| v.clone());
            let record = vec![
                ("op", Json::str("run")),
                ("cost", cost),
                ("memo", memo),
                ("version", version.unwrap_or(Json::Null)),
            ];
            self.log_meta(journal, record);
        }
        drop(journal);
        let (report, kept, _) = recorded?;
        lineage.previous = Some(snapshot(workflow, &plan.signatures));
        lineage.iteration += 1;
        Ok((report, kept))
    }

    /// Fetches a computed output from the store by signature (used by
    /// examples to inspect results).
    pub fn fetch(&self, sig: Signature) -> Result<std::sync::Arc<NodeOutput>> {
        Ok(self.store.get(sig)?.0)
    }

    /// A point-in-time snapshot of the optimizer memo.
    pub fn memo(&self) -> MemoTable {
        lock(&self.memo).clone()
    }

    /// Optimizer counters surfaced in `GET /stats`.
    pub fn optimizer_stats(&self) -> OptimizerStats {
        let memo = lock(&self.memo);
        OptimizerStats {
            memo_entries: memo.len(),
            observations_recorded: memo.observations_recorded(),
            replans_triggered: self.replans_triggered.load(Ordering::Relaxed),
            pinned: lock(&self.pinned).len(),
            last_offline_unix: self.last_offline_unix.load(Ordering::Relaxed),
        }
    }

    /// The paper's offline Optimal-materialization pass (the
    /// `POST /admin/optimize` entry point), intended to run between
    /// session bursts.
    ///
    /// Solves materialization over the accumulated memo history via the
    /// Project-Selection/min-cut machinery ([`crate::memo::solve_offline`]
    /// — the chosen set's total cost never exceeds the online rule's on
    /// the same history), pins the chosen signatures so the online policy
    /// materializes them whenever they fit, evicts stored entries the
    /// history says are not worth their bytes (except those an in-flight
    /// run plans to load), and checkpoints the result with the engine
    /// meta.
    pub fn optimize_offline(&self) -> Result<OfflineOutcome> {
        let memo = lock(&self.memo).clone();
        let cost = lock(&self.cost_model).clone();
        let outcome = crate::memo::solve_offline(&memo, &cost, self.config.storage_budget_bytes);
        let chosen: FxHashSet<u64> = outcome.chosen.iter().map(|s| s.0).collect();
        *lock(&self.pinned) = chosen.clone();
        // Reclaim bytes from stored entries the pass rejected, except
        // those a running plan loads: a planned load that finds its key
        // gone fails the run, it does not recompute.
        let inflight = lock(&self.inflight_loads);
        for (sig, _) in memo.entries() {
            if !chosen.contains(&sig.0)
                && !inflight.contains_key(&sig.0)
                && self.store.lookup(sig).is_some()
            {
                let _ = self.store.evict(sig);
            }
        }
        drop(inflight);
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        self.last_offline_unix.store(now, Ordering::Relaxed);
        if let Some(journal) = &self.meta {
            let pinned: Vec<Signature> = chosen.iter().map(|&s| Signature(s)).collect();
            let record = vec![
                ("op", Json::str("pins")),
                ("pinned", crate::persist::sig_arr(&pinned)),
            ];
            self.log_meta(&mut lock(journal), record);
        }
        Ok(outcome)
    }
}

/// Optimizer counters for `GET /stats` and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Signatures with recorded history.
    pub memo_entries: usize,
    /// Lifetime observations recorded.
    pub observations_recorded: u64,
    /// Lifetime adaptive re-plans.
    pub replans_triggered: u64,
    /// Signatures pinned by the last offline pass.
    pub pinned: usize,
    /// Unix timestamp of the last offline pass (0 = never ran).
    pub last_offline_unix: u64,
}

/// Sum of compute-cost estimates over all ancestors of `id` — the
/// `Σ_{j ∈ A(i)} c_j` term of the materialization heuristic. A free
/// function (rather than a method) so the engine's merge callback can use
/// it while the run context is borrowed mutably.
fn ancestors_compute_estimate(
    cost_model: &CostModel,
    workflow: &Workflow,
    id: crate::workflow::NodeId,
) -> f64 {
    workflow
        .ancestors(id)
        .iter()
        .filter_map(|a| cost_model.compute_estimate_secs(&workflow.node(*a).name))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{EvalSpec, ExtractorKind, LearnerSpec, MetricKind};
    use helix_dataflow::DataType;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helix-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Writes a small separable dataset and returns the workflow.
    fn census_workflow(dir: &std::path::Path, reg: f64) -> Workflow {
        let train = dir.join("train.csv");
        let test = dir.join("test.csv");
        if !train.exists() {
            // Large enough that recomputing the pre-processing chain
            // costs clearly more than loading its materialized output;
            // at ~100 rows the two are within scheduler noise of each
            // other and plan assertions get flaky.
            std::fs::write(&train, "BS,30,1\nMS,40,0\n".repeat(2_000)).unwrap();
            std::fs::write(&test, "BS,35,1\nMS,45,0\n".repeat(400)).unwrap();
        }
        let mut w = Workflow::new("census-mini");
        let data = w.csv_source("data", &train, Some(&test)).unwrap();
        let rows = w
            .csv_scanner(
                "rows",
                &data,
                &[
                    ("edu", DataType::Str),
                    ("age", DataType::Int),
                    ("target", DataType::Int),
                ],
            )
            .unwrap();
        let edu = w
            .field_extractor("edu_f", &rows, "edu", ExtractorKind::Categorical)
            .unwrap();
        let age = w
            .field_extractor("age_f", &rows, "age", ExtractorKind::Numeric)
            .unwrap();
        let bucket = w.bucketizer("age_bucket", &age, 4).unwrap();
        let target = w
            .field_extractor("target_f", &rows, "target", ExtractorKind::Numeric)
            .unwrap();
        let income = w
            .assemble("income", &rows, &[&edu, &bucket], &target)
            .unwrap();
        let preds = w
            .learner(
                "predictions",
                &income,
                LearnerSpec {
                    reg_param: reg,
                    ..Default::default()
                },
            )
            .unwrap();
        let checked = w
            .evaluate(
                "checked",
                &preds,
                EvalSpec {
                    metrics: vec![MetricKind::Accuracy, MetricKind::F1],
                    split: crate::SPLIT_TEST.into(),
                },
            )
            .unwrap();
        w.output(&preds);
        w.output(&checked);
        w
    }

    #[test]
    fn first_run_computes_and_reports_metrics() {
        let dir = tmpdir("first");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(EngineConfig::helix(dir.join("store"))).unwrap();
        let w = census_workflow(&dir, 0.1);
        let report = engine.run(&w).unwrap();
        assert_eq!(report.loaded(), 0);
        assert!(report.computed() > 0);
        assert_eq!(report.metric("accuracy"), Some(1.0), "separable data");
        assert_eq!(engine.versions().len(), 1);
        assert_eq!(report.change_summary, "initial version");
    }

    #[test]
    fn an_unlabelled_chunk_is_an_empty_group_that_round_trips() {
        let dir = tmpdir("empty-group");
        std::fs::create_dir_all(&dir).unwrap();
        let train = dir.join("train.csv");
        // The first data chunk holds no label at all.
        let chunk_rows = crate::config_env::data_chunk_rows();
        let mut text = "3,?\n".repeat(chunk_rows);
        text.push_str(&"4,1\n5,0\n".repeat(20));
        std::fs::write(&train, text).unwrap();
        let mut w = Workflow::new("unlabelled");
        let data = w.csv_source("data", &train, None::<&str>).unwrap();
        let rows = w
            .csv_scanner("rows", &data, &[("x", DataType::Int), ("y", DataType::Int)])
            .unwrap();
        let x = w
            .field_extractor("x", &rows, "x", ExtractorKind::Numeric)
            .unwrap();
        let y = w
            .field_extractor("y", &rows, "y", ExtractorKind::Numeric)
            .unwrap();
        let income = w.assemble("income", &rows, &[&x], &y).unwrap();
        w.output(&income);
        let engine_at = |store: &str| {
            let mut config = EngineConfig::helix(dir.join(store));
            config.materialization = MaterializationPolicyKind::All;
            Engine::new(config).unwrap()
        };
        let engine = engine_at("store");
        engine.run(&w).unwrap();

        // `income` is stored as row groups over its output rows: none for
        // the unlabelled chunk, 40 for the other.
        let at = w.by_name("income").unwrap().index();
        let sig = engine.compile_only(&w).unwrap().signatures[at];
        let bytes = std::fs::read(engine.store().dir().join(format!("{}.hlx", sig.hex()))).unwrap();
        let header = helix_dataflow::codec::read_header(&bytes[1..]).unwrap();
        let rows_per_group: Vec<u64> = header.groups.iter().map(|g| g.rows).collect();
        assert_eq!(rows_per_group, vec![0, 40]);
        let (empty, ..) = engine.store().get(Signature(header.groups[0].key)).unwrap();
        let empty = empty.as_data().unwrap();
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.schema(), &crate::exec::assembled_schema());

        // An append reloads the empty group and answers like a fresh run.
        crate::data::append_lines(&train, &["6,1".into()]).unwrap();
        let report = engine.run(&w).unwrap();
        let income_report = report.nodes.iter().find(|n| n.name == "income").unwrap();
        assert_eq!(income_report.chunks_loaded, 1, "the empty group is served");
        let sig = engine.compile_only(&w).unwrap().signatures[at];
        let fresh = engine_at("fresh-store");
        fresh.run(&w).unwrap();
        assert_eq!(engine.fetch(sig).unwrap(), *fresh.fetch(sig).unwrap());
        assert_eq!(engine.fetch(sig).unwrap().as_data().unwrap().len(), 41);
    }

    #[test]
    fn a_failed_chunk_write_is_skipped_and_counted() {
        // A budget under the in-memory size estimate of every chunked
        // node: the policy declines them all, so each one's chunks go to
        // a best-effort chunk-only write — and every such write hits a
        // full disk.
        let dir = tmpdir("chunk-write-fails");
        std::fs::create_dir_all(&dir).unwrap();
        let w = census_workflow(&dir, 0.1);
        let engine =
            Engine::new(EngineConfig::helix(dir.join("store")).with_budget(150 * 1024)).unwrap();
        engine.store().fail_writes();
        let report = engine
            .run(&w)
            .expect("a failed best-effort chunk write must not fail the run");
        assert!(engine.writes_skipped() > 0, "skipped writes are counted");
        assert_eq!(report.metric("accuracy"), Some(1.0));
        assert!(report
            .nodes
            .iter()
            .all(|n| n.name != "rows" || !n.materialized));
    }

    #[test]
    fn a_failed_node_write_is_skipped_and_counted() {
        // A roomy budget: the policy wants nodes stored whole, and every
        // write hits a full disk. Materialization is an optimization, so
        // the run still succeeds and reports what a healthy engine does.
        let dir = tmpdir("node-write-fails");
        std::fs::create_dir_all(&dir).unwrap();
        let w = census_workflow(&dir, 0.1);
        let config = |store: &str| EngineConfig::helix(dir.join(store)).with_budget(1 << 30);
        let healthy = Engine::new(config("healthy")).unwrap().run(&w).unwrap();
        assert!(healthy.nodes.iter().any(|n| n.materialized));
        let engine = Engine::new(config("store")).unwrap();
        engine.store().fail_writes();
        let report = engine
            .run(&w)
            .expect("a failed node write must not fail the run");
        assert!(engine.writes_skipped() > 0, "skipped writes are counted");
        assert!(report.nodes.iter().all(|n| !n.materialized));
        assert_eq!(report.metrics, healthy.metrics);
        assert_eq!(engine.store().used_bytes(), 0);
    }

    #[test]
    fn unchanged_rerun_reuses_everything_materialized() {
        let dir = tmpdir("rerun");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(EngineConfig::helix(dir.join("store"))).unwrap();
        let w = census_workflow(&dir, 0.1);
        let first = engine.run(&w).unwrap();
        let second = engine.run(&w).unwrap();
        // Identical metrics and strictly more reuse.
        assert_eq!(first.metric("accuracy"), second.metric("accuracy"));
        assert!(second.loaded() > 0, "second run should load something");
        assert!(second.computed() < first.computed());
        let versions = engine.versions();
        let change = &versions.get(1).unwrap().change_summary;
        assert_eq!(change, "no changes");
    }

    #[test]
    fn ml_change_skips_preprocessing() {
        let dir = tmpdir("mlchange");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(EngineConfig::helix(dir.join("store"))).unwrap();
        let w1 = census_workflow(&dir, 0.1);
        engine.run(&w1).unwrap();
        let w2 = census_workflow(&dir, 0.9);
        let report = engine.run(&w2).unwrap();
        // The income node (pre-processing output) should be loaded, not
        // recomputed, while the model retrains.
        let income = report.nodes.iter().find(|n| n.name == "income").unwrap();
        let model = report
            .nodes
            .iter()
            .find(|n| n.name == "predictions__model")
            .unwrap();
        assert_eq!(income.state, NodeState::Load);
        assert_eq!(model.state, NodeState::Compute);
        assert_eq!(model.change, ChangeKind::LocallyChanged);
    }

    #[test]
    fn optimized_results_match_unoptimized() {
        let dir = tmpdir("equiv");
        std::fs::create_dir_all(&dir).unwrap();
        let helix = Engine::new(EngineConfig::helix(dir.join("s1"))).unwrap();
        let unopt = Engine::new(EngineConfig {
            recomputation: RecomputationPolicy::ComputeAll,
            materialization: MaterializationPolicyKind::Never,
            ..EngineConfig::helix(dir.join("s2"))
        })
        .unwrap();
        for reg in [0.1, 0.9, 0.1] {
            let w = census_workflow(&dir, reg);
            let a = helix.run(&w).unwrap();
            let b = unopt.run(&w).unwrap();
            assert_eq!(
                a.metrics, b.metrics,
                "reuse must not change results (reg={reg})"
            );
        }
    }

    #[test]
    fn never_materialize_never_loads() {
        let dir = tmpdir("never");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(EngineConfig {
            materialization: MaterializationPolicyKind::Never,
            ..EngineConfig::helix(dir.join("store"))
        })
        .unwrap();
        let w = census_workflow(&dir, 0.1);
        engine.run(&w).unwrap();
        let second = engine.run(&w).unwrap();
        assert_eq!(second.loaded(), 0);
        assert_eq!(engine.store().len(), 0);
    }

    #[test]
    fn zero_budget_disables_materialization() {
        let dir = tmpdir("zerobudget");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(EngineConfig::helix(dir.join("store")).with_budget(0)).unwrap();
        let w = census_workflow(&dir, 0.1);
        let report = engine.run(&w).unwrap();
        assert!(report.nodes.iter().all(|n| !n.materialized));
        assert_eq!(engine.store().used_bytes(), 0);
    }

    #[test]
    fn parallel_and_sequential_iterations_report_identically() {
        let dir = tmpdir("parity");
        std::fs::create_dir_all(&dir).unwrap();
        // Materialize-`All` keeps every decision timing-independent, so
        // the strict set assertions below cannot flake on a loaded
        // runner; the online policy's semantic equivalence (metrics,
        // reuse) is covered at workload scale in tests/end_to_end.rs.
        let config = |suffix: &str, threads: usize| {
            let mut config = EngineConfig::helix(dir.join(suffix)).with_parallelism(threads);
            config.materialization = MaterializationPolicyKind::All;
            config
        };
        let seq = Engine::new(config("s-seq", 1)).unwrap();
        let par = Engine::new(config("s-par", 4)).unwrap();
        for reg in [0.1, 0.9, 0.1] {
            let w = census_workflow(&dir, reg);
            let a = seq.run(&w).unwrap();
            let b = par.run(&w).unwrap();
            assert_eq!(a.loaded(), b.loaded(), "reg={reg}");
            assert_eq!(a.computed(), b.computed(), "reg={reg}");
            assert_eq!(a.pruned(), b.pruned(), "reg={reg}");
            assert_eq!(a.metrics, b.metrics, "reg={reg}");
            let mat_a: Vec<&str> = a
                .nodes
                .iter()
                .filter(|n| n.materialized)
                .map(|n| n.name.as_str())
                .collect();
            let mat_b: Vec<&str> = b
                .nodes
                .iter()
                .filter(|n| n.materialized)
                .map(|n| n.name.as_str())
                .collect();
            assert_eq!(mat_a, mat_b, "materialization set must match, reg={reg}");
        }
    }

    #[test]
    fn parallelism_knob_clamps_to_one() {
        let config = EngineConfig::helix("unused").with_parallelism(0);
        assert_eq!(config.parallelism, 1);
    }

    #[test]
    fn compile_only_previews_plan_without_running() {
        let dir = tmpdir("preview");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(EngineConfig::helix(dir.join("store"))).unwrap();
        let w = census_workflow(&dir, 0.1);
        engine.run(&w).unwrap();
        let plan = engine.compile_only(&w).unwrap();
        assert!(plan.load_count() > 0, "preview sees materializations");
        assert_eq!(
            engine.versions().len(),
            1,
            "compile_only must not record versions"
        );
    }

    #[test]
    fn independent_lineages_track_their_own_history() {
        let dir = tmpdir("lineages");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(EngineConfig::helix(dir.join("store"))).unwrap();
        let mut alice = Lineage::new();
        let mut bob = Lineage::new();
        let w = census_workflow(&dir, 0.1);

        let a1 = engine
            .run_in(&w, &mut alice, RunOptions::default())
            .unwrap();
        assert_eq!(a1.iteration, 0);
        assert_eq!(a1.change_summary, "initial version");

        // Bob's first run of the same workflow is *his* initial version —
        // a fresh lineage, not a rerun — but it still reuses Alice's
        // materializations through signature identity.
        let b1 = engine.run_in(&w, &mut bob, RunOptions::default()).unwrap();
        assert_eq!(b1.iteration, 0);
        assert_eq!(b1.change_summary, "initial version");
        assert!(b1.loaded() > 0, "cross-lineage reuse via the shared store");

        let a2 = engine
            .run_in(&w, &mut alice, RunOptions::default())
            .unwrap();
        assert_eq!(a2.iteration, 1);
        assert_eq!(a2.change_summary, "no changes");
        assert_eq!(alice.iteration(), 2);
        assert_eq!(bob.iteration(), 1);
        assert_eq!(engine.versions().len(), 3, "global history sees all runs");
    }

    #[test]
    fn run_options_attribute_session_and_summary() {
        let dir = tmpdir("attrib");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(EngineConfig::helix(dir.join("store"))).unwrap();
        let mut lineage = Lineage::new();
        let w = census_workflow(&dir, 0.1);
        let report = engine
            .run_in(
                &w,
                &mut lineage,
                RunOptions {
                    session: Some("alice".into()),
                    summary: Some("tweak reg".into()),
                },
            )
            .unwrap();
        assert_eq!(report.session.as_deref(), Some("alice"));
        assert_eq!(report.change_summary, "tweak reg");
        let versions = engine.versions();
        let v = versions.latest().unwrap();
        assert_eq!(v.session.as_deref(), Some("alice"));
        assert_eq!(v.change_summary, "tweak reg");
    }

    #[test]
    fn partitioned_runs_match_unpartitioned_results() {
        // A threshold of 1 row forces every partitionable node (the
        // scan, the extractors, the assemble, the model application) to
        // split into the 32-slice maximum; reports and metrics must be
        // indistinguishable from the sequential engine's.
        let dir = tmpdir("partrows");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = Engine::new(
            EngineConfig::helix(dir.join("s-base"))
                .with_parallelism(1)
                .with_partition_rows(1),
        )
        .unwrap();
        let split = Engine::new(
            EngineConfig::helix(dir.join("s-split"))
                .with_parallelism(4)
                .with_partition_rows(1),
        )
        .unwrap();
        for reg in [0.1, 0.9] {
            let w = census_workflow(&dir, reg);
            let a = baseline.run(&w).unwrap();
            let b = split.run(&w).unwrap();
            assert_eq!(a.metrics, b.metrics, "reg={reg}");
            assert_eq!(a.computed(), b.computed(), "reg={reg}");
            assert_eq!(a.pruned(), b.pruned(), "reg={reg}");
        }
    }

    #[test]
    fn failed_run_keeps_prefix_cost_calibration() {
        use crate::ops::{OperatorKind, Udf};
        use helix_dataflow::{DataCollection, DataType, Row, Schema, Value};
        let dir = tmpdir("failcal");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(EngineConfig::helix(dir.join("store"))).unwrap();
        let mut w = Workflow::new("fail-cal");
        let ok = Udf::new("ok:v1", |_: &[&DataCollection]| {
            let schema = Schema::of(&[("x", DataType::Int)]);
            Ok(DataCollection::from_rows_unchecked(
                schema,
                vec![Row(vec![Value::Int(1)])],
            ))
        });
        let root = w.add("root", OperatorKind::UserDefined(ok), &[]).unwrap();
        let boom = Udf::new("boom:v1", |_: &[&DataCollection]| {
            Err(HelixError::Exec("boom".into()))
        });
        let tail = w
            .add("boom", OperatorKind::UserDefined(boom), &[&root])
            .unwrap();
        w.output(&tail);
        engine.run(&w).expect_err("boom must fail the run");
        // The merge committed `root` before the failure, so its compute
        // observation must survive into the shared cost model (the store
        // side effects of the prefix do too — see the failure contract in
        // `crate::scheduler`).
        assert!(
            engine.cost_model().compute_estimate_secs("root").is_some(),
            "completed prefix must calibrate the cost model on failure"
        );
        assert!(engine.cost_model().compute_estimate_secs("boom").is_none());
        assert_eq!(engine.versions().len(), 0, "failed runs record no version");
    }

    #[test]
    fn durable_engine_reloads_cost_versions_and_store() {
        let dir = tmpdir("durable-reload");
        std::fs::create_dir_all(&dir).unwrap();
        let config = || EngineConfig::helix(dir.join("store")).with_durability(Durability::wal());
        {
            let engine = Engine::new(config()).unwrap();
            assert_eq!(engine.recovery(), EngineRecovery::default());
            engine.run(&census_workflow(&dir, 0.1)).unwrap();
            assert!(engine.cost_model().observed_nodes() > 0);
            assert!(!engine.store().is_empty());
        } // dropped without any orderly shutdown — the store's files and
          // the meta log are all that survives

        let engine = Engine::new(config()).unwrap();
        let recovery = engine.recovery();
        assert_eq!(recovery.recovered_versions, 1);
        assert!(recovery.recovered_cost_observations > 0);
        assert!(recovery.store.recovered_entries > 0);
        assert!(!recovery.meta_corrupted);
        assert_eq!(engine.versions().len(), 1, "global history reloaded");
        assert_eq!(
            engine.versions().get(0).unwrap().change_summary,
            "initial version"
        );

        // The reopened store serves the same signatures: a fresh lineage
        // rerun loads instead of recomputing.
        let report = engine.run(&census_workflow(&dir, 0.1)).unwrap();
        assert!(report.loaded() > 0, "materializations survive restart");
        assert_eq!(engine.versions().len(), 2, "history appends, not resets");
    }

    #[test]
    fn corrupt_engine_meta_warns_and_starts_fresh() {
        let dir = tmpdir("durable-corrupt-meta");
        std::fs::create_dir_all(&dir).unwrap();
        let config = || EngineConfig::helix(dir.join("store")).with_durability(Durability::wal());
        {
            let engine = Engine::new(config()).unwrap();
            engine.run(&census_workflow(&dir, 0.1)).unwrap();
        }
        let meta = crate::persist::engine_meta_path(&dir.join("store"));
        std::fs::write(&meta, "{\"v\":1,\"cost\":garbage").unwrap();

        let engine = Engine::new(config()).unwrap();
        let recovery = engine.recovery();
        assert!(recovery.meta_corrupted, "corrupt meta flagged, not fatal");
        assert_eq!(recovery.recovered_versions, 0);
        assert_eq!(engine.versions().len(), 0, "version state starts fresh");
        assert!(
            recovery.store.recovered_entries > 0,
            "store entries recover independently of the meta file"
        );
        // The next run heals the meta file.
        engine.run(&census_workflow(&dir, 0.1)).unwrap();
        let reopened = Engine::new(config()).unwrap();
        assert_eq!(reopened.recovery().recovered_versions, 1);
    }

    #[test]
    fn snapshot_now_checkpoints_meta_for_durable_engines() {
        let dir = tmpdir("durable-snapshot-now");
        std::fs::create_dir_all(&dir).unwrap();
        // Pin Volatile explicitly: EngineConfig::helix reads HELIX_DURABILITY,
        // and this assertion must hold when the suite runs under
        // HELIX_DURABILITY=wal (the CI durability job does exactly that).
        let volatile = Engine::new(
            EngineConfig::helix(dir.join("s-vol")).with_durability(Durability::Volatile),
        )
        .unwrap();
        volatile.snapshot_now().unwrap();
        assert!(
            !crate::persist::engine_meta_path(&dir.join("s-vol")).exists(),
            "volatile snapshot_now is a no-op"
        );

        let durable =
            Engine::new(EngineConfig::helix(dir.join("s-wal")).with_durability(Durability::wal()))
                .unwrap();
        durable.snapshot_now().unwrap();
        assert!(crate::persist::engine_meta_path(&dir.join("s-wal")).exists());
    }

    #[test]
    fn concurrent_runs_share_one_engine() {
        let dir = tmpdir("concurrent");
        std::fs::create_dir_all(&dir).unwrap();
        let engine =
            std::sync::Arc::new(Engine::new(EngineConfig::helix(dir.join("store"))).unwrap());
        let w = census_workflow(&dir, 0.1);
        let reports: Vec<IterationReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let engine = std::sync::Arc::clone(&engine);
                    let w = &w;
                    scope.spawn(move || {
                        let mut lineage = Lineage::new();
                        engine
                            .run_in(w, &mut lineage, RunOptions::default())
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for report in &reports {
            assert_eq!(report.metric("accuracy"), Some(1.0));
        }
        assert_eq!(engine.versions().len(), 3);
        assert!(
            engine.store().used_bytes() <= engine.store().budget_bytes(),
            "concurrent runs must respect the budget"
        );
    }

    #[test]
    fn adaptive_replan_flips_decision_sources_to_observed() {
        let dir = tmpdir("replan");
        std::fs::create_dir_all(&dir).unwrap();
        // Factor 1.0 re-plans whenever memo history exists, so the second
        // run must go through the adaptive path deterministically.
        let engine =
            Engine::new(EngineConfig::helix(dir.join("store")).with_replan_factor(1.0)).unwrap();
        let w = census_workflow(&dir, 0.1);

        let first = engine.run(&w).unwrap();
        assert_eq!(engine.optimizer_stats().replans_triggered, 0);
        assert!(first
            .nodes
            .iter()
            .all(|n| n.decision_source == crate::memo::DecisionSource::Estimate));
        assert!(engine.optimizer_stats().observations_recorded > 0);

        let second = engine.run(&w).unwrap();
        assert_eq!(engine.optimizer_stats().replans_triggered, 1);
        assert!(
            second
                .nodes
                .iter()
                .any(|n| n.decision_source == crate::memo::DecisionSource::Observed),
            "memo-backed nodes must report observed costs after a re-plan"
        );
        // Re-planning only changes load/compute/store choices; results
        // are the same.
        assert_eq!(first.metrics, second.metrics);
    }

    #[test]
    fn disabled_replan_never_triggers() {
        let dir = tmpdir("replan-off");
        std::fs::create_dir_all(&dir).unwrap();
        let engine =
            Engine::new(EngineConfig::helix(dir.join("store")).with_replan_factor(f64::INFINITY))
                .unwrap();
        let w = census_workflow(&dir, 0.1);
        engine.run(&w).unwrap();
        let second = engine.run(&w).unwrap();
        assert_eq!(engine.optimizer_stats().replans_triggered, 0);
        assert!(second
            .nodes
            .iter()
            .all(|n| n.decision_source == crate::memo::DecisionSource::Estimate));
    }

    #[test]
    fn durable_engine_reloads_memo_and_pins() {
        let dir = tmpdir("durable-memo");
        std::fs::create_dir_all(&dir).unwrap();
        let config = || {
            EngineConfig::helix(dir.join("store"))
                .with_durability(Durability::wal())
                .with_replan_factor(1.0)
        };
        let (entries, observations, pinned) = {
            let engine = Engine::new(config()).unwrap();
            engine.run(&census_workflow(&dir, 0.1)).unwrap();
            engine.run(&census_workflow(&dir, 0.1)).unwrap();
            let outcome = engine.optimize_offline().unwrap();
            assert!(
                outcome.chosen_cost_secs <= outcome.online_cost_secs,
                "offline Optimal must never lose to the online rule"
            );
            let stats = engine.optimizer_stats();
            assert!(stats.memo_entries > 0);
            assert!(stats.last_offline_unix > 0);
            (
                stats.memo_entries,
                stats.observations_recorded,
                stats.pinned,
            )
        };

        let engine = Engine::new(config()).unwrap();
        let recovery = engine.recovery();
        assert_eq!(
            recovery.recovered_memo_entries, entries,
            "the memo must survive the restart in full"
        );
        let stats = engine.optimizer_stats();
        assert_eq!(stats.memo_entries, entries);
        assert_eq!(stats.observations_recorded, observations);
        assert_eq!(stats.pinned, pinned);
        assert!(stats.last_offline_unix > 0, "offline timestamp recovered");

        // The recovered memo feeds the very first post-restart plan: with
        // factor 1.0 the adaptive path must fire immediately. The replan
        // counter itself is durable, so it resumes from the pre-restart
        // value rather than resetting.
        let replans_before = stats.replans_triggered;
        assert!(replans_before > 0, "pre-restart replan count recovered");
        let report = engine.run(&census_workflow(&dir, 0.1)).unwrap();
        assert_eq!(
            engine.optimizer_stats().replans_triggered,
            replans_before + 1
        );
        assert!(report
            .nodes
            .iter()
            .any(|n| n.decision_source == crate::memo::DecisionSource::Observed));
    }

    #[test]
    fn optimize_offline_on_empty_history_chooses_nothing() {
        let dir = tmpdir("offline-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(EngineConfig::helix(dir.join("store"))).unwrap();
        let outcome = engine.optimize_offline().unwrap();
        assert!(outcome.chosen.is_empty());
        assert_eq!(outcome.candidates, 0);
        assert!(engine.optimizer_stats().last_offline_unix > 0);
    }

    #[test]
    fn the_offline_pass_keeps_keys_an_inflight_run_loads() {
        let dir = tmpdir("offline-inflight");
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new(EngineConfig::helix(dir.join("store"))).unwrap();
        let schema = helix_dataflow::Schema::of(&[("x", DataType::Int)]);
        let rows = (0..256)
            .map(|i| helix_dataflow::Row(vec![helix_dataflow::Value::Int(i)]))
            .collect();
        let output = NodeOutput::Data(helix_dataflow::DataCollection::new(schema, rows).unwrap());
        // History says the key recomputes far faster than it loads, so
        // the pass rejects it.
        let sig = Signature(42);
        engine.store().put(sig, &output).unwrap();
        lock(&engine.memo).record(
            sig,
            "cheap",
            &[],
            Observation {
                exec_secs: 1e-9,
                output_bytes: 1 << 20,
                loaded: false,
                rows: 256,
                run: 0,
            },
        );

        let held = engine.hold(vec![sig.0]);
        let outcome = engine.optimize_offline().unwrap();
        assert!(!outcome.chosen.contains(&sig));
        assert!(
            engine.store().lookup(sig).is_some(),
            "a key a running plan loads survives the pass"
        );
        drop(held);
        assert!(lock(&engine.inflight_loads).is_empty());
        engine.optimize_offline().unwrap();
        assert!(
            engine.store().lookup(sig).is_none(),
            "released, the rejected key goes"
        );
    }
}
