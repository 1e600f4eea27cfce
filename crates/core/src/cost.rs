//! The cost model: per-operator compute costs and a disk I/O model.
//!
//! Helix's optimizers need `c_i` (compute cost) and `l_i` (load cost) per
//! node. Both come from "runtime statistics from the current and prior
//! executions" (paper §2.3): compute costs are exponential moving averages
//! of observed wall times keyed by node *name* (so a re-parameterized
//! operator inherits its old estimate — the best prior available), and
//! load costs follow a latency + size/bandwidth disk model recalibrated
//! from every real store read/write.

use crate::persist::{f64_field, field};
use crate::version::{metrics_from_json, metrics_to_json};
use helix_dataflow::fx::FxHashMap;
use helix_json::Json;

/// Smoothing factor for cost EMAs: new observations dominate (workloads
/// shift as users edit workflows) while damping scheduler noise.
const EMA_ALPHA: f64 = 0.6;

/// Default disk throughput before any observation (NVMe-class; the first
/// real store read/write recalibrates it immediately).
const DEFAULT_BYTES_PER_SEC: f64 = 2.0 * 1024.0 * 1024.0 * 1024.0;
/// Default fixed per-file I/O latency. Must stay well under typical
/// operator compute times even on small inputs, or the optimizer would
/// conclude that nothing is ever worth materializing at test scale.
const DEFAULT_IO_LATENCY_SEC: f64 = 0.000_02;

/// Transfers smaller than this are latency-dominated: they calibrate the
/// latency term of the I/O model, never the bandwidth term.
const MIN_BANDWIDTH_CALIBRATION_BYTES: u64 = 64 * 1024;

/// Outputs estimated smaller than this do not calibrate the encode ratio:
/// a store file's header and checksums (about 70 bytes for one row group)
/// would dominate it.
const MIN_ENCODE_CALIBRATION_BYTES: u64 = 512;

/// Smoothing factor for the latency EMA. Much smaller than [`EMA_ALPHA`]:
/// I/O latency is a property of the machine, not of the workload, so one
/// contended write must not be able to swing load estimates for the next
/// several planning decisions.
const LATENCY_EMA_ALPHA: f64 = 0.2;

/// Cap on a single latency sample fed to the EMA: lets genuinely slow
/// storage converge upward over many observations while bounding how hard
/// one scheduler hiccup can push.
const MAX_LATENCY_SAMPLE_SEC: f64 = 0.01;

/// One cost-model observation, as a run buffers it and the engine meta
/// log records it; [`CostModel::observe`] applies it.
#[derive(Debug)]
pub(crate) enum CostEvent {
    /// [`CostModel::observe_compute`].
    Compute { name: String, secs: f64 },
    /// [`CostModel::observe_io`].
    Io { bytes: u64, secs: f64 },
    /// [`CostModel::observe_encode`].
    Encode { estimated: u64, actual: u64 },
}

impl CostEvent {
    /// The logged event: `["compute", name, secs]`, `["io", bytes, secs]`
    /// or `["encode", estimated, actual]`.
    pub(crate) fn to_json(&self) -> Json {
        Json::Arr(match self {
            CostEvent::Compute { name, secs } => {
                vec![Json::str("compute"), Json::str(name), Json::Num(*secs)]
            }
            CostEvent::Io { bytes, secs } => {
                vec![Json::str("io"), Json::Num(*bytes as f64), Json::Num(*secs)]
            }
            CostEvent::Encode { estimated, actual } => vec![
                Json::str("encode"),
                Json::Num(*estimated as f64),
                Json::Num(*actual as f64),
            ],
        })
    }

    /// Inverse of [`CostEvent::to_json`].
    pub(crate) fn from_json(json: &Json) -> Result<CostEvent, String> {
        let bad = || format!("bad cost event {json}");
        let items = json.as_array().ok_or_else(bad)?;
        let num = |i: usize| items.get(i).and_then(Json::as_f64).ok_or_else(bad);
        let int = |i: usize| items.get(i).and_then(Json::as_u64).ok_or_else(bad);
        match items.first().and_then(Json::as_str) {
            Some("compute") => Ok(CostEvent::Compute {
                name: items.get(1).and_then(Json::as_str).ok_or_else(bad)?.into(),
                secs: num(2)?,
            }),
            Some("io") => Ok(CostEvent::Io {
                bytes: int(1)?,
                secs: num(2)?,
            }),
            Some("encode") => Ok(CostEvent::Encode {
                estimated: int(1)?,
                actual: int(2)?,
            }),
            _ => Err(bad()),
        }
    }
}

/// Mutable cost statistics carried across iterations.
#[derive(Debug, Clone)]
pub struct CostModel {
    compute_secs: FxHashMap<String, f64>,
    bytes_per_sec: f64,
    io_latency_sec: f64,
    /// EMA of (encoded bytes / estimated in-memory bytes): the dictionary
    /// codec typically shrinks feature-heavy collections 5–20×, and load
    /// estimates must reflect on-disk, not in-memory, size.
    encode_ratio: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            compute_secs: FxHashMap::default(),
            bytes_per_sec: DEFAULT_BYTES_PER_SEC,
            io_latency_sec: DEFAULT_IO_LATENCY_SEC,
            encode_ratio: 1.0,
        }
    }
}

impl CostModel {
    /// Fresh model with default disk parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an observed compute duration for a node name.
    pub fn observe_compute(&mut self, name: &str, secs: f64) {
        let entry = self.compute_secs.entry(name.to_string());
        match entry {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let old = *e.get();
                e.insert(EMA_ALPHA * secs + (1.0 - EMA_ALPHA) * old);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(secs);
            }
        }
    }

    /// Records an observed I/O transfer (`bytes` in `secs` seconds).
    ///
    /// Transfers below `MIN_BANDWIDTH_CALIBRATION_BYTES` (64 KiB) are
    /// latency-dominated and carry no bandwidth signal — treating a
    /// 200-byte metadata write as a "bytes/secs" sample would collapse the
    /// bandwidth estimate by orders of magnitude, which in turn inflates
    /// every load estimate until the optimizer stops trusting the store.
    /// Small transfers recalibrate the fixed-latency term instead; large
    /// ones recalibrate bandwidth.
    pub fn observe_io(&mut self, bytes: u64, secs: f64) {
        if bytes < MIN_BANDWIDTH_CALIBRATION_BYTES {
            let transfer = bytes as f64 / self.bytes_per_sec;
            let observed_latency = secs - transfer;
            if observed_latency.is_finite() && observed_latency >= 0.0 {
                let sample = observed_latency.min(MAX_LATENCY_SAMPLE_SEC);
                self.io_latency_sec =
                    LATENCY_EMA_ALPHA * sample + (1.0 - LATENCY_EMA_ALPHA) * self.io_latency_sec;
            }
            return;
        }
        // A transfer finishing within the current latency estimate carries
        // no bandwidth signal either (clamping its effective time would
        // fabricate an absurdly high sample); only slower-than-latency
        // transfers recalibrate bandwidth.
        if secs <= self.io_latency_sec {
            return;
        }
        let observed = bytes as f64 / (secs - self.io_latency_sec);
        if observed.is_finite() && observed > 1024.0 {
            self.bytes_per_sec = EMA_ALPHA * observed + (1.0 - EMA_ALPHA) * self.bytes_per_sec;
        }
    }

    /// Records an observed encode ratio (on-disk bytes over the in-memory
    /// estimate the engine had before encoding). Outputs estimated under
    /// `MIN_ENCODE_CALIBRATION_BYTES` are ignored: their file is mostly
    /// fixed framing, which says nothing about how large outputs encode.
    pub fn observe_encode(&mut self, estimated_bytes: u64, actual_bytes: u64) {
        if estimated_bytes < MIN_ENCODE_CALIBRATION_BYTES {
            return;
        }
        let ratio = actual_bytes as f64 / estimated_bytes as f64;
        if ratio.is_finite() && ratio > 0.0 {
            self.encode_ratio = EMA_ALPHA * ratio + (1.0 - EMA_ALPHA) * self.encode_ratio;
        }
    }

    /// Applies one buffered or logged observation.
    pub(crate) fn observe(&mut self, event: &CostEvent) {
        match event {
            CostEvent::Compute { name, secs } => self.observe_compute(name, *secs),
            CostEvent::Io { bytes, secs } => self.observe_io(*bytes, *secs),
            CostEvent::Encode { estimated, actual } => self.observe_encode(*estimated, *actual),
        }
    }

    /// Corrects an in-memory size estimate to expected on-disk bytes.
    pub fn expected_encoded_bytes(&self, estimated_bytes: u64) -> u64 {
        (estimated_bytes as f64 * self.encode_ratio).round() as u64
    }

    /// Estimated compute cost for a node name, if previously observed.
    pub fn compute_estimate_secs(&self, name: &str) -> Option<f64> {
        self.compute_secs.get(name).copied()
    }

    /// Estimated cost to load `bytes` from the store.
    pub fn load_estimate_secs(&self, bytes: u64) -> f64 {
        self.io_latency_sec + bytes as f64 / self.bytes_per_sec
    }

    /// Number of node names with compute observations.
    pub fn observed_nodes(&self) -> usize {
        self.compute_secs.len()
    }

    /// The persisted model: disk parameters plus every per-name compute
    /// EMA (sorted by name for stable files), so cost history
    /// accumulates across restarts.
    pub(crate) fn to_json(&self) -> Json {
        let mut observations: Vec<(String, f64)> = self
            .compute_secs
            .iter()
            .map(|(name, &secs)| (name.clone(), secs))
            .collect();
        observations.sort_by(|a, b| a.0.cmp(&b.0));
        Json::obj([
            ("bytes_per_sec", Json::Num(self.bytes_per_sec)),
            ("io_latency_sec", Json::Num(self.io_latency_sec)),
            ("encode_ratio", Json::Num(self.encode_ratio)),
            ("compute_secs", metrics_to_json(&observations)),
        ])
    }

    /// Inverse of [`CostModel::to_json`]. Non-finite or non-positive disk
    /// parameters fall back to the defaults, and non-finite or negative
    /// compute estimates are dropped, so a corrupt state file cannot
    /// wedge the optimizer.
    pub(crate) fn from_json(json: &Json) -> Result<CostModel, String> {
        let observations = metrics_from_json(field(json, "compute_secs")?)?;
        let bytes_per_sec = f64_field(json, "bytes_per_sec")?;
        let io_latency_sec = f64_field(json, "io_latency_sec")?;
        let encode_ratio = f64_field(json, "encode_ratio")?;
        let mut model = CostModel::new();
        if bytes_per_sec.is_finite() && bytes_per_sec > 0.0 {
            model.bytes_per_sec = bytes_per_sec;
        }
        if io_latency_sec.is_finite() && io_latency_sec >= 0.0 {
            model.io_latency_sec = io_latency_sec;
        }
        if encode_ratio.is_finite() && encode_ratio > 0.0 {
            model.encode_ratio = encode_ratio;
        }
        for (name, secs) in observations {
            if secs.is_finite() && secs >= 0.0 {
                model.compute_secs.insert(name, secs);
            }
        }
        Ok(model)
    }
}

/// Converts seconds to the microsecond integers used by the PSP reduction.
/// Clamps to at least 1µs so that zero-cost nodes still order correctly.
pub fn secs_to_us(secs: f64) -> u64 {
    let us = (secs * 1e6).round();
    if us < 1.0 {
        1
    } else if us > crate::recompute::LOAD_INFEASIBLE_US as f64 / 2.0 {
        crate::recompute::LOAD_INFEASIBLE_US / 2
    } else {
        us as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_taken_verbatim() {
        let mut cm = CostModel::new();
        cm.observe_compute("scan", 2.0);
        assert_eq!(cm.compute_estimate_secs("scan"), Some(2.0));
        assert_eq!(cm.compute_estimate_secs("other"), None);
    }

    #[test]
    fn ema_tracks_recent_observations() {
        let mut cm = CostModel::new();
        cm.observe_compute("scan", 1.0);
        cm.observe_compute("scan", 3.0);
        let est = cm.compute_estimate_secs("scan").unwrap();
        assert!(est > 1.0 && est < 3.0);
        assert!((est - 2.2).abs() < 1e-9, "0.6*3 + 0.4*1 = 2.2, got {est}");
    }

    #[test]
    fn load_estimate_scales_with_size() {
        let cm = CostModel::new();
        let small = cm.load_estimate_secs(1024);
        let big = cm.load_estimate_secs(1024 * 1024 * 1024);
        assert!(big > small * 10.0);
        assert!(small >= DEFAULT_IO_LATENCY_SEC);
    }

    #[test]
    fn io_observation_moves_bandwidth() {
        let mut cm = CostModel::new();
        let before = cm.bytes_per_sec;
        // 16 GiB in one second: much faster than the default.
        cm.observe_io(1 << 34, 1.0);
        assert!(cm.bytes_per_sec > before);
    }

    #[test]
    fn small_transfers_calibrate_latency_not_bandwidth() {
        let mut cm = CostModel::new();
        let bandwidth = cm.bytes_per_sec;
        // 200 bytes in 1 ms: pure latency, no bandwidth information.
        cm.observe_io(200, 0.001);
        assert_eq!(cm.bytes_per_sec, bandwidth, "bandwidth must not collapse");
        let latency = cm.load_estimate_secs(0);
        assert!(
            latency > DEFAULT_IO_LATENCY_SEC && latency < 0.01,
            "latency should calibrate toward the observation, got {latency}"
        );
    }

    #[test]
    fn faster_than_latency_transfers_carry_no_bandwidth_signal() {
        let mut cm = CostModel::new();
        // Converge the latency estimate toward 5 ms (slow storage).
        for _ in 0..20 {
            cm.observe_io(200, 0.005);
        }
        let bandwidth = cm.bytes_per_sec;
        // A 64 KiB read served from page cache "faster than latency" must
        // not explode the bandwidth EMA via a clamped divisor.
        cm.observe_io(64 * 1024, 1e-5);
        assert_eq!(cm.bytes_per_sec, bandwidth);
    }

    #[test]
    fn absurd_io_observations_rejected() {
        let mut cm = CostModel::new();
        let before = cm.bytes_per_sec;
        cm.observe_io(0, 10.0);
        assert_eq!(cm.bytes_per_sec, before);
    }

    #[test]
    fn secs_to_us_clamps() {
        assert_eq!(secs_to_us(0.0), 1);
        assert_eq!(secs_to_us(1.0), 1_000_000);
        assert!(secs_to_us(1e12) <= crate::recompute::LOAD_INFEASIBLE_US / 2);
    }
}

#[cfg(test)]
mod encode_ratio_tests {
    use super::*;

    #[test]
    fn encode_ratio_calibrates_toward_observations() {
        let mut cm = CostModel::new();
        assert_eq!(cm.expected_encoded_bytes(1000), 1000);
        cm.observe_encode(1000, 100);
        let corrected = cm.expected_encoded_bytes(1000);
        assert!(
            corrected < 600,
            "ratio should shrink estimates, got {corrected}"
        );
        cm.observe_encode(0, 50); // ignored
        cm.observe_encode(1000, u64::MAX); // absurd but finite; still EMA-bounded
        assert!(cm.expected_encoded_bytes(1) >= 1, "ratio stays positive");
    }
}
