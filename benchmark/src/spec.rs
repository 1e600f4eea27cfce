//! What the benchmark fixes so that two runs differ only in the code under
//! test: metric names and units, workload sizes, seeds, and every engine
//! and server setting, spelled out field by field.

use helix_core::materialize::MaterializationPolicyKind;
use helix_core::recompute::RecomputationPolicy;
use helix_core::{Durability, EngineConfig};
use helix_server::ServerConfig;
use std::path::Path;
use std::time::Duration;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1812;
/// Seed no one tunes against: a change that claims a gain must also show
/// it here (choosing-metrics §6.3).
pub const HELD_OUT_SEED: u64 = 5762;

/// Workload names, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = [
    "census_script",
    "ie_script_tight",
    "active_learning_wal",
    "serve_edit_loop",
];

/// End-to-end metrics `(name, unit)`: printed by every workload with
/// tracing off. `BENCHMARK.json` stores their bounds.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("cumulative_s", "s"),
    ("edit_p50_ms", "ms"),
    ("edit_p90_ms", "ms"),
    ("edit_dpr_ms", "ms"),
    ("edit_li_ms", "ms"),
    ("edit_ppr_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: printed by every workload on the
/// traced run; 0 where the workload bypasses the layer.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("engine.cold_iter_s", "s"),
    ("engine.optimizer_s", "s"),
    ("engine.exec_busy_s", "s"),
    ("engine.load_busy_s", "s"),
    ("engine.materialize_s", "s"),
    ("engine.unattributed_share", "share"),
    ("exec.dpr_busy_s", "s"),
    ("exec.li_busy_s", "s"),
    ("exec.ppr_busy_s", "s"),
    ("exec.top_node_share", "share"),
    ("ml.train_busy_s", "s"),
    ("nlp.udf_busy_s", "s"),
    ("compiler.compile_us", "us"),
    ("signature.compute_us", "us"),
    ("slicing.slice_us", "us"),
    ("recompute.plan_us", "us"),
    ("compiler.load_count", "count"),
    ("compiler.compute_count", "count"),
    ("compiler.prune_count", "count"),
    ("scheduler.cold_1thr_s", "s"),
    ("scheduler.cold_2thr_s", "s"),
    ("scheduler.speedup_x", "x"),
    ("store.put_us_per_entry", "us"),
    ("store.get_us_per_entry", "us"),
    ("store.put_mb_per_s", "MB/s"),
    ("store.get_mb_per_s", "MB/s"),
    ("store.entries", "count"),
    ("store.used_bytes", "bytes"),
    ("store.wal_bytes", "bytes"),
    ("store.bytes_per_input_byte", "x"),
    ("store.hit_share", "share"),
    ("store.chunks_reused", "count"),
    ("materialize.stored_share", "share"),
    ("materialize.write_s", "s"),
    ("materialize.budget_used_share", "share"),
    ("data.append_ms", "ms"),
    ("data.manifest_ms", "ms"),
    ("slicing.chunk_plan_us", "us"),
    ("session.uncertain_ms", "ms"),
    ("persist.snapshot_ms", "ms"),
    ("persist.reopen_ms", "ms"),
    ("persist.meta_bytes", "bytes"),
    ("persist.iter_slope_x", "x"),
    ("version.history_len", "count"),
    ("session.noop_iterate_us", "us"),
    ("http.parse_us", "us"),
    ("routes.handle_iterate_us", "us"),
    ("wire.report_json_us", "us"),
    ("json.parse_us", "us"),
    ("server.healthz_us", "us"),
    ("server.wire_overhead_us", "us"),
    ("server.edit_p99_ms", "ms"),
    ("server.shed_total", "count"),
    ("server.connects", "count"),
    ("baselines.rerun_all_cumulative_s", "s"),
    ("baselines.unopt_cumulative_s", "s"),
    ("baselines.materialize_all_cumulative_s", "s"),
    ("baselines.speedup_x", "x"),
    ("baselines.fig2_shape_ok", "bool"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

/// Input sizes and repetition floors for one run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `census_script` train / test rows.
    pub census_rows: (usize, usize),
    /// `ie_script_tight` documents.
    pub ie_docs: usize,
    /// `active_learning_wal` initial train / test rows.
    pub al_rows: (usize, usize),
    /// Label-and-retrain rounds per `active_learning_wal` session.
    pub al_rounds: usize,
    /// Rounds of the throwaway warm-up session.
    pub al_warmup_rounds: usize,
    /// `serve_edit_loop` train / test rows.
    pub serve_rows: (usize, usize),
    /// Edit→iterate cycles per client per `serve_edit_loop` pass.
    pub serve_cycles: usize,
    /// Cycles per client of the discarded warm-up pass.
    pub serve_warmup_cycles: usize,
    /// Measured passes a run makes at least, whatever `--seconds` says.
    pub min_passes: usize,
    /// Edit latencies a run collects at least, so p90 has ten samples
    /// beyond it (see `stats::supports_percentile`).
    pub min_edit_samples: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Calls per micro-probe (HTTP parse, JSON parse, healthz, …).
    pub probe_calls: usize,
    /// Entries at most replayed through the scratch store.
    pub store_replay_entries: usize,
}

/// Labels the oracle returns per active-learning round.
pub const AL_BATCH: usize = 32;

/// Full sizes fit the driver's cap (92 runs in 3420 s) on two cores;
/// smoke sizes walk the same code paths and checks in a few seconds.
pub fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes {
            census_rows: (1_500, 400),
            ie_docs: 90,
            al_rows: (1_500, 400),
            al_rounds: 12,
            al_warmup_rounds: 2,
            serve_rows: (800, 200),
            serve_cycles: 30,
            serve_warmup_cycles: 6,
            min_passes: 1,
            min_edit_samples: 0,
            setups: 1,
            probe_calls: 50,
            store_replay_entries: 64,
        }
    } else {
        Sizes {
            census_rows: (30_000, 8_000),
            ie_docs: 450,
            al_rows: (8_000, 2_000),
            al_rounds: 40,
            al_warmup_rounds: 10,
            serve_rows: (8_000, 2_000),
            serve_cycles: 300,
            serve_warmup_cycles: 30,
            min_passes: 3,
            min_edit_samples: 100,
            setups: 3,
            probe_calls: 2_000,
            store_replay_entries: 512,
        }
    }
}

/// Worker threads of every measured engine: the runner has two cores.
pub const PARALLELISM: usize = 2;
/// Budget under which everything fits (`census_script`,
/// `active_learning_wal`, `serve_edit_loop`).
pub const ROOMY_BUDGET: u64 = 1 << 30;
/// Share of the materialize-everything footprint `ie_script_tight` may use.
pub const TIGHT_BUDGET_SHARE: f64 = 0.25;
/// Rows per data chunk: the engine's default, which it reads from the
/// environment; the run refuses to start when the environment overrides it.
pub const DATA_CHUNK_ROWS: usize = helix_core::data::DEFAULT_DATA_CHUNK_ROWS;

/// The full-Helix engine configuration with every field explicit —
/// `EngineConfig::helix` would read five of them from `HELIX_*`.
pub fn engine_config(
    store_dir: &Path,
    durability: Durability,
    budget: u64,
    parallelism: usize,
) -> EngineConfig {
    EngineConfig {
        store_dir: store_dir.to_path_buf(),
        storage_budget_bytes: budget,
        recomputation: RecomputationPolicy::Optimal,
        materialization: MaterializationPolicyKind::HelixOnline,
        enable_slicing: true,
        parallelism,
        store_shards: helix_core::store::DEFAULT_STORE_SHARDS,
        partition_rows: helix_core::scheduler::DEFAULT_PARTITION_ROWS,
        durability,
        replan_factor: 4.0,
    }
}

/// The reference twin every Helix answer is compared with: unoptimized
/// Helix (recompute everything, store nothing, no slicing) on one thread.
pub fn twin_config(store_dir: &Path) -> EngineConfig {
    EngineConfig {
        recomputation: RecomputationPolicy::ComputeAll,
        materialization: MaterializationPolicyKind::Never,
        enable_slicing: false,
        ..engine_config(store_dir, Durability::Volatile, ROOMY_BUDGET, 1)
    }
}

/// A baseline system's policies on the measured engine's settings.
pub fn baseline_config(
    system: helix_baselines::SystemKind,
    store_dir: &Path,
    budget: u64,
) -> EngineConfig {
    let policies = system.engine_config(store_dir);
    EngineConfig {
        recomputation: policies.recomputation,
        materialization: policies.materialization,
        enable_slicing: policies.enable_slicing,
        ..engine_config(store_dir, Durability::Volatile, budget, PARALLELISM)
    }
}

/// Server settings for `serve_edit_loop`, every field explicit: two
/// workers, one per keep-alive client.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        max_body_bytes: 1 << 20,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        max_requests_per_connection: 256,
        queue_depth: 16,
        shed_queue_depth: 32,
        session_ttl: None,
    }
}

/// Names of the `HELIX_*` variables set in this process's environment.
pub fn helix_env_overrides() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("HELIX_"))
        .collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use helix_json::Json;

    /// `BENCHMARK.json` and the program must agree on every name and unit.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let pairs = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end"), own(&END_TO_END));
        assert_eq!(pairs("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn twin_and_baselines_keep_the_explicit_settings() {
        let dir = Path::new("unused");
        let twin = twin_config(dir);
        assert_eq!(twin.parallelism, 1);
        assert!(!twin.enable_slicing);
        let keystone = baseline_config(helix_baselines::SystemKind::KeystoneSim, dir, 77);
        assert_eq!(keystone.materialization, MaterializationPolicyKind::Never);
        assert_eq!(keystone.storage_budget_bytes, 77);
        assert_eq!(keystone.parallelism, PARALLELISM);
    }
}
