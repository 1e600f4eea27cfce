//! CI benchmark-regression gate.
//!
//! Compares a freshly produced `HELIX_BENCH_JSON` results file (see the
//! criterion shim) against a committed baseline and fails when any
//! benchmark's best-of-samples wall time regressed past the threshold
//! (default 1.25 = +25%). `--compare A<=B` additionally asserts a
//! within-run ordering that holds regardless of runner speed — e.g. a
//! delta rerun never losing to a full recompute.
//!
//! ```text
//! bench_guard --baseline bench_results/BENCH_incremental_baseline.json \
//!             --current  bench_results/BENCH_incremental.json \
//!             [--threshold 1.25] \
//!             [--compare "incremental/incremental_delta<=incremental/full_recompute"]...
//! ```
//!
//! Refreshing baselines after an intentional perf change: capture a run
//! (`HELIX_BENCH_FAST=1 HELIX_BENCH_JSON=<current path> cargo bench …`),
//! then regenerate the committed baseline from it instead of hand-editing
//! JSON:
//!
//! ```text
//! bench_guard --write-baselines \
//!             --current  bench_results/BENCH_scheduler.json \
//!             --baseline bench_results/BENCH_scheduler_baseline.json
//! ```
//!
//! The write mode validates that the captured file parses, prints the
//! per-benchmark delta against the old baseline (when one exists), and
//! only then overwrites it; commit the result.

use helix_server::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Parses the criterion shim's one `{"benchmarks": [...]}` document (the
/// format of every committed baseline) with the JSON parser shared with
/// the HTTP front end (`helix_server::json`). Returns `id → min_ns`.
fn parse_results(text: &str) -> Result<BTreeMap<String, u128>, String> {
    let doc = Json::parse(text).map_err(|e| format!("not a JSON document: {e}"))?;
    let entries = doc
        .get("benchmarks")
        .and_then(Json::as_array)
        .ok_or("no `benchmarks` array")?;
    let mut out = BTreeMap::new();
    for entry in entries {
        insert_entry(entry, &mut out)?;
    }
    if out.is_empty() {
        return Err("no benchmark entries found".into());
    }
    Ok(out)
}

fn insert_entry(entry: &Json, out: &mut BTreeMap<String, u128>) -> Result<(), String> {
    let Some(id) = entry.get("id").and_then(Json::as_str) else {
        return Ok(()); // not a benchmark record
    };
    let min_ns = entry
        .get("min_ns")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("benchmark `{id}` is missing min_ns"))?;
    out.insert(id.to_string(), min_ns as u128);
    Ok(())
}

fn load(path: &str) -> Result<BTreeMap<String, u128>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_results(&text).map_err(|e| format!("{path}: {e}"))
}

struct Args {
    baseline: Option<String>,
    current: String,
    threshold: f64,
    compares: Vec<(String, String)>,
    write_baselines: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut current = None;
    let mut threshold: Option<f64> = None;
    let mut compares = Vec::new();
    let mut write_baselines = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--current" => current = Some(value("--current")?),
            "--threshold" => {
                threshold = Some(
                    value("--threshold")?
                        .parse()
                        .map_err(|e| format!("bad --threshold: {e}"))?,
                )
            }
            "--compare" => {
                let spec = value("--compare")?;
                let (a, b) = spec
                    .split_once("<=")
                    .ok_or_else(|| format!("--compare expects `A<=B`, got `{spec}`"))?;
                compares.push((a.trim().to_string(), b.trim().to_string()));
            }
            "--write-baselines" => write_baselines = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if write_baselines {
        if baseline.is_none() {
            return Err("--write-baselines requires --baseline (the file to regenerate)".into());
        }
        if !compares.is_empty() {
            return Err("--write-baselines does not take --compare".into());
        }
        if threshold.is_some() {
            return Err(
                "--write-baselines does not take --threshold (regeneration is ungated)".into(),
            );
        }
    }
    Ok(Args {
        baseline,
        current: current.ok_or("--current is required")?,
        threshold: threshold.unwrap_or(1.25),
        compares,
        write_baselines,
    })
}

/// Regenerates `baseline_path` from the captured results at
/// `current_path`: validates the capture parses, reports per-benchmark
/// deltas against the old baseline when one exists, then overwrites the
/// file verbatim (the shim's JSON is already the baseline format).
/// Returns the human-readable summary on success.
fn write_baseline(current_path: &str, baseline_path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(current_path)
        .map_err(|e| format!("cannot read {current_path}: {e}"))?;
    let current = parse_results(&text).map_err(|e| format!("{current_path}: {e}"))?;
    let mut summary = String::new();
    let old = match std::fs::read_to_string(baseline_path) {
        Ok(old_text) => match parse_results(&old_text) {
            Ok(map) => Some(map),
            Err(e) => {
                summary.push_str(&format!(
                    "warning: existing baseline {baseline_path} is unparseable ({e}); \
                     treating all entries as new\n"
                ));
                None
            }
        },
        Err(_) => None,
    };
    for (id, &cur_ns) in &current {
        let line = match old.as_ref().and_then(|map| map.get(id)) {
            Some(&old_ns) => {
                let ratio = cur_ns as f64 / old_ns.max(1) as f64;
                format!("{id}: {old_ns} ns -> {cur_ns} ns ({ratio:.2}x)")
            }
            None => format!("{id}: {cur_ns} ns (new)"),
        };
        summary.push_str(&line);
        summary.push('\n');
    }
    if let Some(old) = &old {
        for id in old.keys() {
            if !current.contains_key(id) {
                summary.push_str(&format!("{id}: dropped (not in capture)\n"));
            }
        }
    }
    std::fs::write(baseline_path, &text)
        .map_err(|e| format!("cannot write {baseline_path}: {e}"))?;
    summary.push_str(&format!(
        "wrote {} entries to {baseline_path}\n",
        current.len()
    ));
    Ok(summary)
}

/// The gate CI runs: every baseline row must be in `current` and within
/// `threshold` of its baseline time, and every `A<=B` in `compares` must
/// have `A` within `threshold` of `B` in the same run. Prints a verdict per
/// baseline row and a line per passing ordering; returns the failures
/// (empty = pass).
fn gate(
    current: &BTreeMap<String, u128>,
    baseline: Option<&BTreeMap<String, u128>>,
    threshold: f64,
    compares: &[(String, String)],
) -> Vec<String> {
    let mut failures = Vec::new();
    for (id, &base_ns) in baseline.into_iter().flatten() {
        let Some(&cur_ns) = current.get(id) else {
            failures.push(format!(
                "`{id}` is in the baseline but missing from the run — \
                 renamed benchmarks need a refreshed baseline"
            ));
            continue;
        };
        let ratio = cur_ns as f64 / base_ns.max(1) as f64;
        let verdict = if ratio > threshold {
            failures.push(format!(
                "`{id}` regressed: {cur_ns} ns vs baseline {base_ns} ns \
                 ({ratio:.2}x > {threshold:.2}x allowed)"
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        println!("{verdict:>9}  {id}: {cur_ns} ns (baseline {base_ns} ns, {ratio:.2}x)");
    }
    for (a, b) in compares {
        let (Some(&a_ns), Some(&b_ns)) = (current.get(a), current.get(b)) else {
            failures.push(format!(
                "--compare `{a}<={b}`: one of the ids is missing from the run"
            ));
            continue;
        };
        if a_ns as f64 > b_ns as f64 * threshold {
            failures.push(format!(
                "`{a}` ({a_ns} ns) exceeds `{b}` ({b_ns} ns) by more than {threshold:.2}x"
            ));
        } else {
            println!("       ok  {a} ({a_ns} ns) <= {b} ({b_ns} ns) within {threshold:.2}x");
        }
    }
    failures
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("bench_guard: {err}");
            return ExitCode::FAILURE;
        }
    };
    if args.write_baselines {
        let baseline = args.baseline.as_deref().expect("checked in parse_args");
        return match write_baseline(&args.current, baseline) {
            Ok(summary) => {
                print!("{summary}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("bench_guard: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let current = match load(&args.current) {
        Ok(map) => map,
        Err(err) => {
            eprintln!("bench_guard: {err}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match args.baseline.as_deref().map(load).transpose() {
        Ok(baseline) => baseline,
        Err(err) => {
            eprintln!("bench_guard: {err}");
            return ExitCode::FAILURE;
        }
    };
    let failures = gate(&current, baseline.as_ref(), args.threshold, &args.compares);
    if failures.is_empty() {
        println!("bench_guard: all checks passed");
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("bench_guard: {failure}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"benchmarks": [
  {"id": "scheduler_executor/news/ready", "min_ns": 100, "median_ns": 120, "mean_ns": 130, "samples": 5},
  {"id": "scheduler_executor/news/wave", "min_ns": 150, "median_ns": 170, "mean_ns": 180, "samples": 5}
]}
"#;

    #[test]
    fn parses_shim_output() {
        let map = parse_results(SAMPLE).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map["scheduler_executor/news/ready"], 100);
        assert_eq!(map["scheduler_executor/news/wave"], 150);
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse_results("{\"benchmarks\": []}\n").is_err());
    }

    #[test]
    fn write_baselines_copies_capture_and_reports_deltas() {
        let dir = std::env::temp_dir().join(format!("helix-guard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let current = dir.join("current.json");
        let baseline = dir.join("baseline.json");
        let old = r#"{"benchmarks": [
  {"id": "scheduler_executor/news/ready", "min_ns": 80, "median_ns": 90, "mean_ns": 95, "samples": 5},
  {"id": "gone/bench", "min_ns": 10, "median_ns": 11, "mean_ns": 12, "samples": 5}
]}
"#;
        std::fs::write(&current, SAMPLE).unwrap();
        std::fs::write(&baseline, old).unwrap();
        let summary =
            write_baseline(current.to_str().unwrap(), baseline.to_str().unwrap()).unwrap();
        assert!(summary.contains("80 ns -> 100 ns (1.25x)"), "{summary}");
        assert!(summary.contains("scheduler_executor/news/wave: 150 ns (new)"));
        assert!(summary.contains("gone/bench: dropped"));
        // The baseline now *is* the capture, byte for byte, and reparses.
        assert_eq!(std::fs::read_to_string(&baseline).unwrap(), SAMPLE);
        assert_eq!(
            parse_results(&std::fs::read_to_string(&baseline).unwrap()).unwrap()
                ["scheduler_executor/news/ready"],
            100
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_baselines_rejects_unparseable_capture() {
        let dir = std::env::temp_dir().join(format!("helix-guard-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let current = dir.join("current.json");
        let baseline = dir.join("baseline.json");
        std::fs::write(&current, "{\"benchmarks\": []}\n").unwrap();
        std::fs::write(&baseline, SAMPLE).unwrap();
        assert!(write_baseline(current.to_str().unwrap(), baseline.to_str().unwrap()).is_err());
        // A bad capture must never clobber the committed baseline.
        assert_eq!(std::fs::read_to_string(&baseline).unwrap(), SAMPLE);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unescapes_ids() {
        let text = r#"{"benchmarks": [
  {"id": "odd\"name\\x", "min_ns": 7, "median_ns": 8, "mean_ns": 9, "samples": 1}
]}"#;
        let map = parse_results(text).unwrap();
        assert_eq!(map[r#"odd"name\x"#], 7);
    }

    fn compare(a: &str, b: &str) -> Vec<(String, String)> {
        vec![(a.to_string(), b.to_string())]
    }

    #[test]
    fn gate_fails_a_baseline_row_missing_from_the_run() {
        let current = parse_results(SAMPLE).unwrap();
        let mut baseline = current.clone();
        baseline.insert("gone/bench".into(), 10);
        let failures = gate(&current, Some(&baseline), 1.25, &[]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("`gone/bench` is in the baseline but missing"));
        assert!(gate(&current, Some(&current), 1.25, &[]).is_empty());
    }

    #[test]
    fn gate_fails_a_row_regressed_past_its_baseline() {
        // ready ran 100 ns against a 75 ns baseline: 1.33x.
        let current = parse_results(SAMPLE).unwrap();
        let mut baseline = current.clone();
        baseline.insert("scheduler_executor/news/ready".into(), 75);
        let failures = gate(&current, Some(&baseline), 1.25, &[]);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("`scheduler_executor/news/ready` regressed"));
        assert!(gate(&current, Some(&baseline), 1.5, &[]).is_empty());
    }

    #[test]
    fn gate_fails_a_compare_naming_an_id_the_run_lacks() {
        // What a CI step still naming a deleted row hits, on either side.
        let current = parse_results(SAMPLE).unwrap();
        let ready = "scheduler_executor/news/ready";
        for stale in [compare(ready, "gone/bench"), compare("gone/bench", ready)] {
            let failures = gate(&current, None, 1.25, &stale);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains("missing from the run"));
        }
    }

    #[test]
    fn gate_fails_an_ordering_inverted_beyond_the_threshold() {
        // wave (150 ns) is 1.5x ready (100 ns): past 1.25, not past 2.0.
        let current = parse_results(SAMPLE).unwrap();
        let inverted = compare(
            "scheduler_executor/news/wave",
            "scheduler_executor/news/ready",
        );
        let failures = gate(&current, None, 1.25, &inverted);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("by more than 1.25x"));
        assert!(gate(&current, None, 2.0, &inverted).is_empty());
    }

    #[test]
    fn gate_passes_an_ordering_inside_the_threshold() {
        let current = parse_results(SAMPLE).unwrap();
        let ordered = compare(
            "scheduler_executor/news/ready",
            "scheduler_executor/news/wave",
        );
        assert!(gate(&current, None, 1.0, &ordered).is_empty());
        // At a cache gate's 0.5, 100 ns would have to be <= 75 ns.
        assert_eq!(gate(&current, None, 0.5, &ordered).len(), 1);
    }
}
