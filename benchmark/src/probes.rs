//! Layer probes shared by the workloads: each calls one layer's public
//! functions inside a span named `<layer>.<operation>`, on the state a
//! pass leaves behind. [`span_metrics`] turns the spans into the
//! per-layer metrics; probes only return what needs a ratio.

use crate::check::Tally;
use crate::ledger::{ratio, Metrics};
use crate::spec;
use crate::trace::Tracer;
use crate::workloads::Res;
use helix_core::compiler::CompiledPlan;
use helix_core::recompute::RecomputationPolicy;
use helix_core::{Durability, Engine, EngineConfig, StoreOptions, Workflow};
use std::hint::black_box;
use std::path::Path;

/// Per-layer metrics that are the median duration of one span name,
/// scaled from microseconds: `(metric, span, divisor)`.
const SPAN_MEDIANS: [(&str, &str, f64); 17] = [
    ("compiler.compile_us", "compiler.compile", 1.0),
    ("signature.compute_us", "signature.compute", 1.0),
    ("slicing.slice_us", "slicing.slice", 1.0),
    ("recompute.plan_us", "recompute.plan", 1.0),
    ("slicing.chunk_plan_us", "slicing.chunk_plan", 1.0),
    ("data.manifest_ms", "data.manifest", 1e3),
    ("data.append_ms", "data.append", 1e3),
    ("session.uncertain_ms", "session.uncertain", 1e3),
    ("session.noop_iterate_us", "session.noop_iterate", 1.0),
    ("persist.snapshot_ms", "persist.snapshot", 1e3),
    ("persist.reopen_ms", "persist.reopen", 1e3),
    ("scheduler.cold_1thr_s", "scheduler.cold_1thr", 1e6),
    ("scheduler.cold_2thr_s", "scheduler.cold_2thr", 1e6),
    ("http.parse_us", "http.parse", 1.0),
    ("routes.handle_iterate_us", "routes.handle_iterate", 1.0),
    ("wire.report_json_us", "wire.report_json", 1.0),
    ("json.parse_us", "json.parse", 1.0),
];

/// Per-layer metrics that are the sum of one count name.
const COUNT_SUMS: [&str; 3] = [
    "compiler.load_count",
    "compiler.compute_count",
    "compiler.prune_count",
];

/// The per-layer metrics read straight off the trace.
pub fn span_metrics(tracer: &Tracer) -> Metrics {
    let mut out: Metrics = SPAN_MEDIANS
        .iter()
        .map(|(metric, span, div)| (*metric, tracer.median_us(span) / div))
        .collect();
    out.extend(
        COUNT_SUMS
            .iter()
            .map(|name| (*name, tracer.count_sum(name))),
    );
    out.push(("server.healthz_us", tracer.median_us("server.healthz")));
    out.push((
        "scheduler.speedup_x",
        ratio(
            tracer.median_us("scheduler.cold_1thr"),
            tracer.median_us("scheduler.cold_2thr"),
        ),
    ));
    out.extend(store_throughput(tracer));
    out
}

fn store_throughput(tracer: &Tracer) -> Metrics {
    let puts = tracer.durations_us("store.put");
    let entries = puts.len() as f64;
    let put_us: f64 = puts.iter().sum();
    let get_us: f64 = tracer.durations_us("store.get").iter().sum();
    let bytes = tracer.count_sum("store.replayed_bytes");
    vec![
        ("store.put_us_per_entry", ratio(put_us, entries)),
        ("store.get_us_per_entry", ratio(get_us, entries)),
        // bytes per microsecond is MB/s.
        ("store.put_mb_per_s", ratio(bytes, put_us)),
        ("store.get_mb_per_s", ratio(bytes, get_us)),
    ]
}

/// The compile path taken apart: the whole `compile` the engine would
/// run for `workflow` now, then the public pieces it is made of, each in
/// its own span, with the plan's load/compute/prune counts.
pub fn compile_path(
    tracer: &mut Tracer,
    workflow: &Workflow,
    compile: impl FnOnce() -> helix_core::Result<CompiledPlan>,
) -> Res<()> {
    let plan = tracer.scope("compiler.compile", compile)?;
    tracer.count("compiler.load_count", plan.load_count() as f64);
    tracer.count("compiler.compute_count", plan.compute_count() as f64);
    tracer.count("compiler.prune_count", plan.prune_count() as f64);
    black_box(tracer.scope("signature.compute", || {
        helix_core::signature::compute_signatures(workflow)
    })?);
    black_box(tracer.scope("slicing.slice", || helix_core::slicing::slice(workflow))?);
    let manifests = tracer.scope("data.manifest", || {
        helix_core::data::workflow_manifests(workflow, spec::DATA_CHUNK_ROWS)
    });
    black_box(tracer.scope("slicing.chunk_plan", || {
        helix_core::slicing::chunk_plan(workflow, &manifests)
    })?);
    black_box(tracer.scope("recompute.plan", || {
        helix_core::recompute::plan_states(
            workflow,
            &plan.active,
            &plan.costs,
            RecomputationPolicy::Optimal,
        )
    })?);
    Ok(())
}

/// Reads every stored output back (`store.get`) and writes it into a
/// scratch store opened with the workload's durability (`store.put`), so
/// the codec, the file writes and the WAL fsync are timed on the entries
/// the workload really produced.
pub fn store_replay(
    tracer: &mut Tracer,
    engine: &Engine,
    scratch_dir: &Path,
    max_entries: usize,
) -> Res<()> {
    let _ = std::fs::remove_dir_all(scratch_dir);
    let scratch = StoreOptions::new(scratch_dir)
        .budget_bytes(u64::MAX)
        .shards(engine.config().store_shards)
        .durability(engine.config().durability)
        .open()?;
    let mut signatures = engine.store().signatures();
    signatures.sort_by_key(|s| s.0);
    signatures.truncate(max_entries);
    for sig in signatures {
        let output = tracer.scope("store.get", || engine.fetch(sig))?;
        let (bytes, _) = tracer.scope("store.put", || scratch.put(sig, &output))?;
        tracer.count("store.replayed_bytes", bytes as f64);
    }
    drop(scratch);
    let _ = std::fs::remove_dir_all(scratch_dir);
    Ok(())
}

/// What the store holds at the end of a pass, against its budget and the
/// bytes of input the workload read.
pub fn store_state(engine: &Engine, input_bytes: u64) -> Metrics {
    let store = engine.store();
    let used = store.used_bytes() as f64;
    vec![
        ("store.entries", store.len() as f64),
        ("store.used_bytes", used),
        ("store.wal_bytes", store.wal_bytes() as f64),
        (
            "store.bytes_per_input_byte",
            ratio(used, input_bytes as f64),
        ),
        (
            "materialize.budget_used_share",
            ratio(used, store.budget_bytes() as f64),
        ),
    ]
}

/// Iteration 0 of `workflow` on fresh stores at one and at two threads,
/// alternating, so the scheduler's share of a cold run shows as a ratio.
pub fn scheduler_cold(
    tracer: &mut Tracer,
    tally: &mut Tally,
    workflow: &Workflow,
    dir: &Path,
    durability: Durability,
    budget: u64,
) -> Res<()> {
    for _ in 0..2 {
        for (threads, span) in [(1, "scheduler.cold_1thr"), (2, "scheduler.cold_2thr")] {
            let _ = std::fs::remove_dir_all(dir);
            let engine = Engine::new(spec::engine_config(dir, durability, budget, threads))?;
            let report = tracer.scope(span, || engine.run(workflow));
            tally.op(report.is_ok(), || format!("{span}: {report:?}"));
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Checkpoints a durable engine (`persist.snapshot`), measures the meta
/// file, then closes and reopens the directory (`persist.reopen`) and
/// checks that recovery dropped nothing. Volatile engines skip it all.
pub fn persist_cycle(
    tracer: &mut Tracer,
    tally: &mut Tally,
    engine: Engine,
    expect_versions: usize,
) -> Res<Metrics> {
    let config: EngineConfig = engine.config().clone();
    if !config.durability.is_durable() {
        return Ok(Vec::new());
    }
    tracer.scope("persist.snapshot", || engine.snapshot_now())?;
    let meta = config.store_dir.join("meta").join("engine.json");
    let meta_bytes = std::fs::metadata(&meta).map(|m| m.len()).unwrap_or(0);
    drop(engine);
    let reopened = tracer.scope("persist.reopen", || Engine::new(config))?;
    let recovery = reopened.recovery();
    tally.op(
        !recovery.meta_corrupted
            && recovery.store.dropped_entries == 0
            && recovery.store.torn_records == 0
            && recovery.recovered_versions == expect_versions,
        || format!("reopen expected {expect_versions} versions and no drops, got {recovery:?}"),
    );
    Ok(vec![("persist.meta_bytes", meta_bytes as f64)])
}

/// Closes `engine` and removes its store directory.
pub fn discard(engine: Engine) {
    let store_dir = engine.config().store_dir.clone();
    drop(engine);
    let _ = std::fs::remove_dir_all(store_dir);
}

/// Total bytes of the files at `paths` (the inputs a workload reads).
pub fn file_bytes(paths: &[&Path]) -> u64 {
    paths
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}
