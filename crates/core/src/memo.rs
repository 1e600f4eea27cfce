//! The optimizer memo: persistent per-signature runtime history and the
//! offline Optimal-materialization pass built on top of it.
//!
//! Helix's online decisions (paper §2.3) run on *estimates* — name-keyed
//! EMAs in [`crate::cost`] plus a disk model. The memo is the layer that
//! makes those decisions data-driven across runs **and** process
//! restarts: every executed node records an [`Observation`] under its
//! Merkle [`Signature`] (exec time, output bytes, load-vs-compute
//! outcome, row count), and the engine consults the memo to
//!
//! * override compute-cost estimates with observed per-signature history
//!   when they diverge (the adaptive re-plan, see
//!   [`crate::compiler::adapt_plan_with_memo`]),
//! * bias the online materialization rule by observed reuse frequency
//!   ([`MemoEntry::expected_reuse`]), and
//! * derive per-node partition thresholds from observed per-row cost
//!   ([`MemoEntry::observed_per_row_secs`]).
//!
//! [`solve_offline`] is the paper's offline Optimal-materialization
//! formulation solved over the accumulated history: the memo's signature
//! DAG is fed through the same Project-Selection/min-cut reduction the
//! recomputation optimizer uses (`helix-mincut`), candidate
//! materialization sets are costed exactly, and the best set — never
//! worse than the online rule's — is returned for the engine to pin.
//! The memo itself persists through the durable tier beside the engine
//! meta (see `crate::persist`), so a restarted engine plans from history,
//! not from zero.

use crate::cost::{secs_to_us, CostModel};
use crate::materialize::{offline_optimal, OfflineCandidate};
use crate::persist::{
    arr_field, bool_field, f64_field, field, hex_u64, sig_arr, sig_list, str_field, u64_hex,
};
use crate::signature::Signature;
use helix_dataflow::fx::{FxHashMap, FxHashSet};
use helix_json::Json;
use helix_mincut::{Project, ProjectSelection};
use std::collections::VecDeque;

/// Observations kept per signature: a small sliding window so the memo
/// tracks *recent* behaviour (data grows, machines change) without
/// unbounded growth.
pub const MEMO_WINDOW: usize = 8;

/// Bounds on [`MemoEntry::expected_reuse`]: even a signature seen dozens
/// of times must not make the materialization rule unconditional, and a
/// single sighting must not disable it below the paper's baseline.
const MIN_EXPECTED_REUSE: f64 = 0.5;
const MAX_EXPECTED_REUSE: f64 = 4.0;

/// Where a node's planning cost came from in the executed plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecisionSource {
    /// The name-keyed EMA estimate (or the cold-start default).
    #[default]
    Estimate,
    /// A memo-backed per-signature runtime observation (the adaptive
    /// re-plan replaced the estimate).
    Observed,
}

impl std::fmt::Display for DecisionSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecisionSource::Estimate => write!(f, "estimate"),
            DecisionSource::Observed => write!(f, "observed"),
        }
    }
}

/// One recorded execution of a signature.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Wall-clock seconds the node took (compute or load).
    pub exec_secs: f64,
    /// Output size in bytes (encoded size for loads, estimated in-memory
    /// size for computes; 0 when unknown).
    pub output_bytes: u64,
    /// Whether the node was served from the store.
    pub loaded: bool,
    /// Rows in the node's data output (0 for models and unknown shapes).
    pub rows: u64,
    /// Logical run counter at record time (see [`MemoTable::begin_run`]);
    /// the age signal behind observation decay.
    pub run: u64,
}

impl Observation {
    /// The persisted observation.
    pub(crate) fn to_json(self) -> Json {
        Json::obj([
            ("secs", Json::Num(self.exec_secs)),
            ("bytes", Json::Num(self.output_bytes as f64)),
            ("loaded", Json::Bool(self.loaded)),
            ("rows", Json::Num(self.rows as f64)),
            ("run", Json::Num(self.run as f64)),
        ])
    }

    /// Inverse of [`Observation::to_json`].
    pub(crate) fn from_json(json: &Json) -> Result<Observation, String> {
        Ok(Observation {
            exec_secs: f64_field(json, "secs")?,
            output_bytes: f64_field(json, "bytes")? as u64,
            loaded: bool_field(json, "loaded")?,
            rows: f64_field(json, "rows")? as u64,
            // Absent in memos persisted before decay existed: treat as
            // run 0, i.e. maximally stale.
            run: json.get("run").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

/// One execution as a run buffers it for [`MemoTable::record`]:
/// signature, node name, parent signatures and the observation.
pub(crate) type Recording = (Signature, String, Vec<Signature>, Observation);

/// The engine meta log's form of a [`Recording`].
pub(crate) fn recording_to_json((sig, name, parents, observation): &Recording) -> Json {
    Json::obj([
        ("sig", Json::str(u64_hex(sig.0))),
        ("name", Json::str(name)),
        ("parents", sig_arr(parents)),
        ("obs", observation.to_json()),
    ])
}

/// Inverse of [`recording_to_json`].
pub(crate) fn recording_from_json(json: &Json) -> Result<Recording, String> {
    Ok((
        Signature(hex_u64(&str_field(json, "sig")?)?),
        str_field(json, "name")?,
        sig_list(json, "parents")?,
        Observation::from_json(field(json, "obs")?)?,
    ))
}

/// Logical runs after which a memo observation counts as stale (see
/// [`MemoTable::observed_compute_secs`]): long enough that a typical
/// iteration session never decays, short enough that stale timings from a
/// long-gone machine state stop dominating plans within one working day
/// of runs.
pub const DEFAULT_MEMO_DECAY_RUNS: u64 = 32;

/// Weight applied to observations older than the decay horizon
/// ([`DEFAULT_MEMO_DECAY_RUNS`]): stale samples still vote — a signature not
/// seen recently has nothing newer — but four fresh samples outweigh the
/// entire stale tail.
const STALE_OBSERVATION_WEIGHT: f64 = 0.25;

/// Accumulated runtime history for one signature.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemoEntry {
    /// Node name at last sighting (names are advisory — the signature is
    /// the identity; kept for reports and the offline pass).
    pub name: String,
    /// Signatures of the node's parents at last sighting — the edges of
    /// the memo's own DAG, which the offline pass plans over.
    pub parents: Vec<Signature>,
    /// Sliding window of the last [`MEMO_WINDOW`] executions.
    pub observations: VecDeque<Observation>,
    /// Lifetime count of executions served by a load (reuse events).
    pub reuse_hits: u64,
    /// Lifetime count of executions (loads + computes).
    pub runs: u64,
}

impl MemoEntry {
    /// Mean observed compute seconds over the window, if any execution
    /// actually computed (loads carry no compute signal), with recency
    /// weighting: a sample whose logical run is at least `decay_runs` behind
    /// `current_run` contributes with weight
    /// `STALE_OBSERVATION_WEIGHT` (0.25) instead of 1. This is the fix for the
    /// "memo observations never decay" problem: after the data grows or
    /// the machine changes, fresh timings take over the aggregate within
    /// a couple of runs instead of being averaged down by the whole
    /// window.
    pub fn observed_compute_secs_decayed(&self, current_run: u64, decay_runs: u64) -> Option<f64> {
        let mut weighted = 0.0;
        let mut total = 0.0;
        for o in self.observations.iter().filter(|o| !o.loaded) {
            let weight = if current_run.saturating_sub(o.run) >= decay_runs.max(1) {
                STALE_OBSERVATION_WEIGHT
            } else {
                1.0
            };
            weighted += weight * o.exec_secs;
            total += weight;
        }
        (total > 0.0).then(|| weighted / total)
    }

    /// Most recent non-zero output size, if known.
    pub fn observed_bytes(&self) -> Option<u64> {
        self.observations
            .iter()
            .rev()
            .map(|o| o.output_bytes)
            .find(|&b| b > 0)
    }

    /// Mean observed per-row compute cost, when the node computed over a
    /// known row count — the signal partition sizing is derived from.
    pub fn observed_per_row_secs(&self) -> Option<f64> {
        let samples: Vec<f64> = self
            .observations
            .iter()
            .filter(|o| !o.loaded && o.rows > 0)
            .map(|o| o.exec_secs / o.rows as f64)
            .collect();
        if samples.is_empty() {
            return None;
        }
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }

    /// Expected number of *future* accesses of this signature, estimated
    /// from its lifetime access count and clamped to keep one noisy
    /// signature from dominating the materialization rule. `1.0` — the
    /// paper's single-future-load assumption — when nothing is known.
    pub fn expected_reuse(&self) -> f64 {
        if self.runs == 0 {
            return 1.0;
        }
        (self.runs as f64).clamp(MIN_EXPECTED_REUSE, MAX_EXPECTED_REUSE)
    }
}

/// The persistent memo table: per-signature runtime history plus the
/// lifetime observation counter surfaced in `GET /stats`.
#[derive(Debug, Clone, Default)]
pub struct MemoTable {
    entries: FxHashMap<u64, MemoEntry>,
    observations_recorded: u64,
    current_run: u64,
}

impl MemoTable {
    /// An empty memo.
    pub fn new() -> MemoTable {
        MemoTable::default()
    }

    /// Number of signatures with history.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo holds no history at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime count of observations recorded (not capped by the
    /// per-entry window).
    pub fn observations_recorded(&self) -> u64 {
        self.observations_recorded
    }

    /// History for one signature.
    pub fn get(&self, sig: Signature) -> Option<&MemoEntry> {
        self.entries.get(&sig.0)
    }

    /// A copy holding only the history of `sigs`, with the same counters,
    /// so lookups of those signatures (decay included) answer exactly as
    /// on the whole table. A run plans from this instead of a full clone.
    pub fn subset(&self, sigs: &[Signature]) -> MemoTable {
        MemoTable {
            entries: sigs
                .iter()
                .filter_map(|sig| Some((sig.0, self.entries.get(&sig.0)?.clone())))
                .collect(),
            observations_recorded: self.observations_recorded,
            current_run: self.current_run,
        }
    }

    /// The logical run counter: how many engine runs have merged their
    /// observations into this memo.
    pub fn current_run(&self) -> u64 {
        self.current_run
    }

    /// Advances the logical run counter. The engine calls this once per
    /// iteration before merging that run's observations, so every
    /// observation carries the run it was measured in and
    /// [`MemoTable::observed_compute_secs`] can age it out.
    pub fn begin_run(&mut self) {
        self.current_run += 1;
    }

    /// Decay-aware observed compute seconds for a signature: recent
    /// window samples at full weight, samples older than
    /// [`DEFAULT_MEMO_DECAY_RUNS`] logical runs down-weighted (see
    /// [`MemoEntry::observed_compute_secs_decayed`]).
    pub fn observed_compute_secs(&self, sig: Signature) -> Option<f64> {
        self.get(sig)?
            .observed_compute_secs_decayed(self.current_run, DEFAULT_MEMO_DECAY_RUNS)
    }

    /// Records one execution of `sig`, evicting the oldest window slot
    /// when full.
    pub fn record(
        &mut self,
        sig: Signature,
        name: &str,
        parents: &[Signature],
        observation: Observation,
    ) {
        let entry = self.entries.entry(sig.0).or_default();
        entry.name = name.to_string();
        entry.parents = parents.to_vec();
        if entry.observations.len() >= MEMO_WINDOW {
            entry.observations.pop_front();
        }
        entry.observations.push_back(Observation {
            run: self.current_run,
            ..observation
        });
        entry.runs += 1;
        if observation.loaded {
            entry.reuse_hits += 1;
        }
        self.observations_recorded += 1;
    }

    /// Every `(signature, entry)` pair, in unspecified order (persistence
    /// sorts by signature for stable files).
    pub fn entries(&self) -> impl Iterator<Item = (Signature, &MemoEntry)> {
        self.entries.iter().map(|(&sig, e)| (Signature(sig), e))
    }

    /// The persisted memo, entries sorted by signature for stable files.
    /// Signatures are hex strings: they do not fit a JSON number exactly.
    pub(crate) fn to_json(&self) -> Json {
        let mut entries: Vec<(Signature, &MemoEntry)> = self.entries().collect();
        entries.sort_by_key(|(sig, _)| sig.0);
        let entry = |(sig, entry): (Signature, &MemoEntry)| {
            Json::obj([
                ("sig", Json::str(u64_hex(sig.0))),
                ("name", Json::str(&entry.name)),
                ("parents", sig_arr(&entry.parents)),
                ("reuse_hits", Json::Num(entry.reuse_hits as f64)),
                ("runs", Json::Num(entry.runs as f64)),
                (
                    "obs",
                    Json::Arr(entry.observations.iter().map(|o| o.to_json()).collect()),
                ),
            ])
        };
        Json::obj([
            (
                "observations_recorded",
                Json::Num(self.observations_recorded as f64),
            ),
            ("current_run", Json::Num(self.current_run as f64)),
            (
                "entries",
                Json::Arr(entries.into_iter().map(entry).collect()),
            ),
        ])
    }

    /// Inverse of [`MemoTable::to_json`].
    pub(crate) fn from_json(json: &Json) -> Result<MemoTable, String> {
        let mut entries = FxHashMap::default();
        for entry in arr_field(json, "entries")? {
            let sig = hex_u64(&str_field(entry, "sig")?)?;
            let observations = arr_field(entry, "obs")?
                .iter()
                .map(Observation::from_json)
                .collect::<Result<_, String>>()?;
            entries.insert(
                sig,
                MemoEntry {
                    name: str_field(entry, "name")?,
                    parents: sig_list(entry, "parents")?,
                    observations,
                    reuse_hits: f64_field(entry, "reuse_hits")? as u64,
                    runs: f64_field(entry, "runs")? as u64,
                },
            );
        }
        Ok(MemoTable {
            entries,
            observations_recorded: f64_field(json, "observations_recorded")? as u64,
            current_run: json.get("current_run").and_then(Json::as_u64).unwrap_or(0),
        })
    }
}

/// What the offline Optimal pass decided over the accumulated history.
#[derive(Debug, Clone, Default)]
pub struct OfflineOutcome {
    /// The chosen materialization set (signatures to pin).
    pub chosen: Vec<Signature>,
    /// Expected next-access cost of the chosen set over the memo DAG
    /// (execution via min-cut plus one write per chosen entry), seconds.
    pub chosen_cost_secs: f64,
    /// The same cost measure for the set the paper's *online* rule would
    /// have materialized — by construction `chosen_cost_secs` never
    /// exceeds this.
    pub online_cost_secs: f64,
    /// Signatures that were eligible (have compute and size history).
    pub candidates: usize,
}

/// Internal per-candidate costing extracted from a memo entry.
struct Costed {
    sig: Signature,
    compute_secs: f64,
    load_secs: f64,
    size_bytes: u64,
    ancestors_compute_secs: f64,
    expected_reuse: f64,
    parents: Vec<usize>,
    is_sink: bool,
}

/// The paper's offline Optimal-materialization pass over the memo's
/// signature DAG.
///
/// Candidate sets — the exact knapsack over expected benefits
/// ([`offline_optimal`]), a simulation of the online rule, materialize-
/// everything-that-fits, and the empty set — are each costed exactly by
/// running the Project-Selection/min-cut reduction over the memo DAG
/// with loads available for exactly that set (plus one write per
/// member), and the cheapest wins. Including the online rule's own set
/// among the candidates guarantees the returned plan's total cost never
/// exceeds the online heuristic's on the same history.
pub fn solve_offline(memo: &MemoTable, cost: &CostModel, budget_bytes: u64) -> OfflineOutcome {
    // Stable order: sort by signature so the pass is deterministic.
    let mut sigs: Vec<Signature> = memo.entries().map(|(sig, _)| sig).collect();
    sigs.sort_unstable_by_key(|s| s.0);
    let index: FxHashMap<u64, usize> = sigs.iter().enumerate().map(|(i, s)| (s.0, i)).collect();

    // Build the memo DAG (edges restricted to signatures the memo knows)
    // and per-node costs from observed history, falling back to the cost
    // model where the window holds no compute sample.
    let mut has_child = vec![false; sigs.len()];
    let mut nodes: Vec<Costed> = sigs
        .iter()
        .map(|&sig| {
            let entry = memo.get(sig).expect("signature from iteration");
            let size_bytes = entry.observed_bytes().unwrap_or(0);
            let parents: Vec<usize> = entry
                .parents
                .iter()
                .filter_map(|p| index.get(&p.0).copied())
                .collect();
            Costed {
                sig,
                compute_secs: history_compute_secs(memo, cost, sig, entry),
                load_secs: cost.load_estimate_secs(size_bytes),
                size_bytes,
                ancestors_compute_secs: 0.0,
                expected_reuse: entry.expected_reuse(),
                parents,
                is_sink: true,
            }
        })
        .collect();
    for node in &nodes {
        for &p in &node.parents {
            has_child[p] = true;
        }
    }
    for (node, sink) in nodes.iter_mut().zip(&has_child) {
        node.is_sink = !sink;
    }
    let compute: Vec<f64> = nodes.iter().map(|n| n.compute_secs).collect();
    let parents: Vec<&[usize]> = nodes.iter().map(|n| n.parents.as_slice()).collect();
    let ancestors = ancestor_sums(&compute, &parents);
    for (node, sum) in nodes.iter_mut().zip(ancestors) {
        node.ancestors_compute_secs = sum;
    }

    // Eligible candidates: a known size that fits the budget at all.
    let candidate_ids: Vec<usize> = (0..nodes.len())
        .filter(|&i| nodes[i].size_bytes > 0 && nodes[i].size_bytes <= budget_bytes)
        .collect();

    // Knapsack set: expected benefit = expected future accesses × (saved
    // recompute − load), weight = observed size. The exact solver takes
    // at most 64 items; keep the highest-benefit ones when over.
    let mut ranked = candidate_ids.clone();
    ranked.sort_by(|&a, &b| {
        let benefit = |i: usize| {
            let n = &nodes[i];
            n.expected_reuse * (n.compute_secs + n.ancestors_compute_secs - n.load_secs)
        };
        benefit(b)
            .partial_cmp(&benefit(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    ranked.truncate(64);
    let knapsack_items: Vec<OfflineCandidate> = ranked
        .iter()
        .map(|&i| {
            let n = &nodes[i];
            OfflineCandidate {
                benefit_secs: n.expected_reuse
                    * (n.compute_secs + n.ancestors_compute_secs - n.load_secs),
                size_bytes: n.size_bytes,
            }
        })
        .collect();
    let knapsack_set: Vec<usize> = offline_optimal(&knapsack_items, budget_bytes)
        .into_iter()
        .map(|k| ranked[k])
        .collect();

    // The online rule's set, simulated over the same history: materialize
    // when `2·l < c + Σ ancestors` and the running total fits the budget,
    // in deterministic (signature) order.
    let mut online_set = Vec::new();
    let mut online_used = 0u64;
    for &i in &candidate_ids {
        let n = &nodes[i];
        if 2.0 * n.load_secs < n.compute_secs + n.ancestors_compute_secs
            && online_used + n.size_bytes <= budget_bytes
        {
            online_set.push(i);
            online_used += n.size_bytes;
        }
    }

    // Everything that fits, greedily by benefit density.
    let mut all_fits = Vec::new();
    let mut fits_used = 0u64;
    for &i in &ranked {
        if fits_used + nodes[i].size_bytes <= budget_bytes {
            all_fits.push(i);
            fits_used += nodes[i].size_bytes;
        }
    }

    let online_cost = evaluate_set(&nodes, &online_set);
    let empty_set = Vec::new();
    let mut best_set: &[usize] = &online_set;
    let mut best_cost = online_cost;
    for set in [&knapsack_set, &all_fits, &empty_set] {
        let c = evaluate_set(&nodes, set);
        if c < best_cost {
            best_cost = c;
            best_set = set;
        }
    }

    OfflineOutcome {
        chosen: best_set.iter().map(|&i| nodes[i].sig).collect(),
        chosen_cost_secs: best_cost,
        online_cost_secs: online_cost,
        candidates: candidate_ids.len(),
    }
}

/// A signature's compute seconds as history prices it: the decayed
/// observed mean, else the cost model's name estimate, else
/// the compiler's default for a never-observed operator (a signature
/// only ever loaded).
fn history_compute_secs(
    memo: &MemoTable,
    cost: &CostModel,
    sig: Signature,
    entry: &MemoEntry,
) -> f64 {
    memo.observed_compute_secs(sig)
        .or_else(|| cost.compute_estimate_secs(&entry.name))
        .unwrap_or(crate::compiler::DEFAULT_COMPUTE_SECS)
}

/// The ancestor term `Σ_{j ∈ A(i)} c_j` of every node of a DAG given as
/// per-node compute seconds and parent indices: each node sums its
/// parents' compute plus their own ancestor terms, so an ancestor
/// reached along two paths counts twice. [`solve_offline`] ranks by it,
/// and [`chain_secs`] prices displacement with it.
fn ancestor_sums(compute: &[f64], parents: &[&[usize]]) -> Vec<f64> {
    let mut sums = vec![0.0; compute.len()];
    for i in topo_order(parents) {
        sums[i] = parents[i].iter().map(|&p| compute[p] + sums[p]).sum();
    }
    sums
}

/// Recompute-chain seconds `c_i + Σ_{j ∈ A(i)} c_j` of each of `sigs`:
/// what recomputing it through its ancestors would cost. Priced from
/// history over the memo's own parent edges, with the ancestor sum
/// [`solve_offline`] ranks by (an ancestor on two paths counts twice); a
/// signature the memo has never seen is priced from `fresh`, a run's own
/// compute seconds and parents, and one neither knows costs nothing.
pub fn chain_secs(
    memo: &MemoTable,
    cost: &CostModel,
    fresh: &FxHashMap<u64, (f64, Vec<Signature>)>,
    sigs: &[Signature],
) -> Vec<f64> {
    let mut index: FxHashMap<u64, usize> = FxHashMap::default();
    let mut compute = Vec::new();
    let mut edges: Vec<&[Signature]> = Vec::new();
    let mut stack = sigs.to_vec();
    while let Some(sig) = stack.pop() {
        if index.contains_key(&sig.0) {
            continue;
        }
        index.insert(sig.0, compute.len());
        let (secs, parents): (f64, &[Signature]) = match (memo.get(sig), fresh.get(&sig.0)) {
            (Some(entry), _) => (history_compute_secs(memo, cost, sig, entry), &entry.parents),
            (None, Some((secs, parents))) => (*secs, parents),
            (None, None) => (0.0, &[]),
        };
        compute.push(secs);
        edges.push(parents);
        stack.extend_from_slice(parents);
    }
    let parents: Vec<Vec<usize>> = edges
        .iter()
        .map(|ps| ps.iter().map(|p| index[&p.0]).collect())
        .collect();
    let parents: Vec<&[usize]> = parents.iter().map(Vec::as_slice).collect();
    let ancestors = ancestor_sums(&compute, &parents);
    sigs.iter()
        .map(|sig| {
            let i = index[&sig.0];
            compute[i] + ancestors[i]
        })
        .collect()
}

/// Topological order of a DAG given as parent indices (parents before
/// children). Cycles cannot occur in the memo — signatures hash the
/// ancestry — but a defensive visit guard keeps a corrupt memo from
/// hanging the pass.
fn topo_order(parents: &[&[usize]]) -> Vec<usize> {
    let mut order = Vec::with_capacity(parents.len());
    let mut state = vec![0u8; parents.len()]; // 0 unvisited, 1 open, 2 done
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..parents.len() {
        if state[root] != 0 {
            continue;
        }
        stack.push((root, 0));
        state[root] = 1;
        while let Some(&mut (i, ref mut next)) = stack.last_mut() {
            if *next < parents[i].len() {
                let p = parents[i][*next];
                *next += 1;
                if state[p] == 0 {
                    state[p] = 1;
                    stack.push((p, 0));
                }
            } else {
                state[i] = 2;
                order.push(i);
                stack.pop();
            }
        }
    }
    order
}

/// Exact expected next-access cost of a materialization set `set` over
/// the memo DAG: the min-cut optimal execution cost with loads available
/// for exactly `set`, plus one write per member (the symmetric write
/// model the online rule's `2·l` term assumes).
fn evaluate_set(nodes: &[Costed], set: &[usize]) -> f64 {
    let available: FxHashSet<usize> = set.iter().copied().collect();
    let mut psp = ProjectSelection::new();
    const INF_US: i64 = crate::recompute::LOAD_INFEASIBLE_US as i64;
    // Same reduction as the recomputation optimizer: a_i (make available,
    // profit −l) and b_i (compute, profit l − c, requires a_i and the
    // parents' a). Sinks of the memo DAG are the mandatory outputs.
    for (i, n) in nodes.iter().enumerate() {
        let l = if available.contains(&i) {
            (secs_to_us(n.load_secs) as i64).min(INF_US - 1)
        } else {
            INF_US
        };
        let c = secs_to_us(n.compute_secs) as i64;
        let a = if n.is_sink {
            Project::mandatory(-l)
        } else {
            Project::new(-l)
        };
        psp.add_project(a);
        psp.add_project(Project::new(l - c));
    }
    for (i, n) in nodes.iter().enumerate() {
        psp.require(2 * i + 1, 2 * i);
        for &p in &n.parents {
            psp.require(2 * i + 1, 2 * p);
        }
    }
    let solution = psp.solve();
    let mut exec_us = 0u64;
    for (i, n) in nodes.iter().enumerate() {
        if solution.selected[2 * i + 1] {
            exec_us += secs_to_us(n.compute_secs);
        } else if solution.selected[2 * i] {
            exec_us += secs_to_us(n.load_secs);
        }
    }
    let write_secs: f64 = set.iter().map(|&i| nodes[i].load_secs).sum();
    exec_us as f64 / 1e6 + write_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(secs: f64, bytes: u64, loaded: bool, rows: u64) -> Observation {
        Observation {
            exec_secs: secs,
            output_bytes: bytes,
            loaded,
            rows,
            run: 0,
        }
    }

    #[test]
    fn record_keeps_a_sliding_window() {
        let mut memo = MemoTable::new();
        for i in 0..(MEMO_WINDOW + 3) {
            memo.record(Signature(1), "n", &[], obs(i as f64, 10, false, 5));
        }
        let entry = memo.get(Signature(1)).unwrap();
        assert_eq!(entry.observations.len(), MEMO_WINDOW);
        assert_eq!(entry.runs, (MEMO_WINDOW + 3) as u64);
        assert_eq!(memo.observations_recorded(), (MEMO_WINDOW + 3) as u64);
        // Oldest slots evicted: the first surviving sample is run 3.
        assert_eq!(entry.observations.front().unwrap().exec_secs, 3.0);
    }

    #[test]
    fn observed_stats_split_loads_from_computes() {
        let mut memo = MemoTable::new();
        memo.record(Signature(7), "n", &[], obs(2.0, 100, false, 10));
        memo.record(Signature(7), "n", &[], obs(4.0, 120, false, 10));
        memo.record(Signature(7), "n", &[], obs(0.1, 50, true, 0));
        assert_eq!(memo.observed_compute_secs(Signature(7)), Some(3.0));
        let e = memo.get(Signature(7)).unwrap();
        assert_eq!(e.observed_bytes(), Some(50));
        assert!((e.observed_per_row_secs().unwrap() - 0.3).abs() < 1e-12);
        assert_eq!(e.reuse_hits, 1);
        assert_eq!(e.runs, 3);
    }

    #[test]
    fn expected_reuse_clamps_and_defaults() {
        let entry = MemoEntry::default();
        assert_eq!(entry.expected_reuse(), 1.0);
        let mut memo = MemoTable::new();
        for _ in 0..20 {
            memo.record(Signature(1), "n", &[], obs(1.0, 1, true, 0));
        }
        assert_eq!(memo.get(Signature(1)).unwrap().expected_reuse(), 4.0);
        memo.record(Signature(2), "m", &[], obs(1.0, 1, false, 0));
        assert_eq!(memo.get(Signature(2)).unwrap().expected_reuse(), 1.0);
    }

    #[test]
    fn json_roundtrips() {
        let mut memo = MemoTable::new();
        memo.record(Signature(1), "a", &[Signature(2)], obs(1.0, 10, false, 3));
        memo.record(Signature(2), "b", &[], obs(0.5, 20, false, 3));
        let back = MemoTable::from_json(&memo.to_json()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.observations_recorded(), 2);
        assert_eq!(back.current_run(), memo.current_run());
        assert_eq!(back.get(Signature(1)), memo.get(Signature(1)));
    }

    #[test]
    fn stale_observations_decay() {
        let mut memo = MemoTable::new();
        // Two slow samples in run 1.
        memo.begin_run();
        memo.record(Signature(1), "n", &[], obs(10.0, 1, false, 0));
        memo.record(Signature(1), "n", &[], obs(10.0, 1, false, 0));
        // Far later, two fast samples.
        for _ in 0..50 {
            memo.begin_run();
        }
        memo.record(Signature(1), "n", &[], obs(1.0, 1, false, 0));
        memo.record(Signature(1), "n", &[], obs(1.0, 1, false, 0));

        // An unweighted mean would sit at 5.5; the decayed aggregate must
        // land much closer to the fresh 1 s samples.
        let decayed = memo.observed_compute_secs(Signature(1)).unwrap();
        assert!((decayed - 2.8).abs() < 1e-9, "got {decayed}");
        // Entries observed only recently are unaffected by decay.
        memo.record(Signature(2), "m", &[], obs(3.0, 1, false, 0));
        assert_eq!(memo.observed_compute_secs(Signature(2)), Some(3.0));
    }

    /// A chain a → b → c where c is expensive through its ancestors and
    /// small on disk: the offline pass must materialize it and beat (or
    /// match) the online rule.
    fn chain_memo() -> MemoTable {
        let mut memo = MemoTable::new();
        let (a, b, c) = (Signature(10), Signature(11), Signature(12));
        for _ in 0..3 {
            memo.record(a, "a", &[], obs(1.0, 4096, false, 0));
            memo.record(b, "b", &[a], obs(1.0, 4096, false, 0));
            memo.record(c, "c", &[b], obs(1.0, 4096, false, 0));
        }
        memo
    }

    #[test]
    fn offline_never_beats_nothing_but_never_loses_to_online() {
        let memo = chain_memo();
        let cost = CostModel::new();
        let outcome = solve_offline(&memo, &cost, 1 << 20);
        assert_eq!(outcome.candidates, 3);
        assert!(
            outcome.chosen_cost_secs <= outcome.online_cost_secs,
            "offline {} must be ≤ online {}",
            outcome.chosen_cost_secs,
            outcome.online_cost_secs
        );
        // Loading the 4 KiB tail is far cheaper than 3 s of recompute.
        assert!(
            outcome.chosen.contains(&Signature(12)),
            "the chain tail is the obvious pin: {:?}",
            outcome.chosen
        );
    }

    #[test]
    fn chain_secs_sums_ancestors_and_prices_unseen_signatures_fresh() {
        let memo = chain_memo();
        let fresh = [(99, (2.0, vec![Signature(12)]))].into_iter().collect();
        let sigs = [Signature(12), Signature(99), Signature(7)];
        let chains = chain_secs(&memo, &CostModel::new(), &fresh, &sigs);
        assert_eq!(chains, vec![3.0, 5.0, 0.0]);
    }

    #[test]
    fn offline_respects_a_zero_budget() {
        let memo = chain_memo();
        let outcome = solve_offline(&memo, &CostModel::new(), 0);
        assert!(outcome.chosen.is_empty());
        assert_eq!(outcome.chosen_cost_secs, outcome.online_cost_secs);
    }

    #[test]
    fn offline_on_empty_memo_is_empty() {
        let outcome = solve_offline(&MemoTable::new(), &CostModel::new(), 1 << 20);
        assert!(outcome.chosen.is_empty());
        assert_eq!(outcome.candidates, 0);
    }

    #[test]
    fn decision_source_renders_for_the_wire() {
        assert_eq!(DecisionSource::Estimate.to_string(), "estimate");
        assert_eq!(DecisionSource::Observed.to_string(), "observed");
    }
}
