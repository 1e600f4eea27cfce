//! The whole suite from one command: every workload in a process of its
//! own (so one workload's heap, page cache and peak RSS never leak into
//! the next), an optional traced second pass, a table of every metric by
//! name and unit, `out/result.json`, and `--aa`: two sets of runs of the
//! same build, compared against the bounds `BENCHMARK.json` stores.

use crate::ledger::ratio;
use crate::spec;
use crate::stats;
use crate::workloads::Res;
use crate::Opts;
use helix_json::Json;
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs per workload per set under `--aa`, alternating between the sets:
/// on a shared runner one run drifts by more than most differences worth
/// seeing, so the sets are compared by their medians.
const AA_RUNS: usize = 3;

fn benchmark_json(bench_dir: &Path) -> Res<Json> {
    let path = bench_dir.join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(Json::parse(&text)?)
}

/// `run_seconds` from `BENCHMARK.json`: how long one run measures.
pub fn run_seconds(bench_dir: &Path) -> Res<f64> {
    benchmark_json(bench_dir)?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".into())
}

/// One child's result: the JSON object it printed last.
struct Report {
    workload: &'static str,
    traced: bool,
    result: Json,
}

impl Report {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn count(&self, key: &str) -> f64 {
        self.result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }
}

/// Runs one workload in a child process and parses its last line.
fn child(opts: &Opts, workload: &'static str, traced: bool) -> Res<Report> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .arg("--bench-dir")
        .arg(&opts.bench_dir)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(seconds) = opts.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if opts.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload} (trace {traced}) exited with {} without a result: {e}",
            output.status
        )
    })?;
    Ok(Report {
        workload,
        traced,
        result,
    })
}

/// Median of `metric` over the runs of `workload` in `set`.
fn set_median(set: &[Report], workload: &str, traced: bool, metric: &str) -> Option<f64> {
    let values: Vec<f64> = set
        .iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metric(metric))
        .collect();
    stats::median(&values)
}

fn print_table(set: &[Report]) {
    for (title, list, traced) in [
        ("end-to-end (tracing off)", &spec::END_TO_END[..], false),
        ("per-layer (traced pass)", &spec::PER_LAYER[..], true),
    ] {
        if !set.iter().any(|r| r.traced == traced) {
            continue;
        }
        println!("\n== {title} ==");
        print!("{:<40} {:<6}", "metric", "unit");
        for workload in spec::WORKLOADS {
            print!(" {workload:>20}");
        }
        println!();
        for (metric, unit) in list {
            print!("{metric:<40} {unit:<6}");
            for workload in spec::WORKLOADS {
                match set_median(set, workload, traced, metric) {
                    Some(value) => print!(" {value:>20.6}"),
                    None => print!(" {:>20}", "-"),
                }
            }
            println!();
        }
        print!("{:<40} {:<6}", "failed_share", "share");
        for workload in spec::WORKLOADS {
            let sum = |key: &str| -> f64 {
                set.iter()
                    .filter(|r| r.workload == workload && r.traced == traced)
                    .map(|r| r.count(key))
                    .sum()
            };
            print!(" {:>20.6}", ratio(sum("failed"), sum("attempted")));
        }
        println!();
    }
}

/// Per metric × workload: both sets' medians, their ratio (oriented so
/// that > 1 is worse) and the stored bound. `false` when a pair is
/// outside it.
fn compare(first: &[Report], second: &[Report], doc: &Json) -> bool {
    let mut within = true;
    println!("\n== A/A: same build, medians of {AA_RUNS} alternating runs per set ==");
    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "worse_x", "bound"
    );
    let declared = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    for workload in spec::WORKLOADS {
        for entry in declared {
            let text = |key: &str| entry.get(key).and_then(Json::as_str).unwrap_or_default();
            let name = text("name");
            let bound = entry.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(x), Some(y)) = (
                set_median(first, workload, false, name),
                set_median(second, workload, false, name),
            ) else {
                continue;
            };
            let worse = if text("better") == "higher" {
                ratio(x, y)
            } else {
                ratio(y, x)
            };
            let outside = worse > 1.0 + bound;
            within &= !outside;
            println!(
                "{workload:<22} {name:<16} {x:>14.4} {y:>14.4} {worse:>8.3} {bound:>7.2}{}",
                if outside { "  OUTSIDE" } else { "" }
            );
        }
    }
    within
}

fn stamp(opts: &Opts) -> Json {
    let sizes = spec::sizes(opts.smoke);
    let pair = |(a, b): (usize, usize)| Json::Arr(vec![Json::Num(a as f64), Json::Num(b as f64)]);
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("parallelism", Json::Num(spec::PARALLELISM as f64)),
        (
            "durability",
            Json::obj([
                ("census_script", Json::str("volatile")),
                ("ie_script_tight", Json::str("volatile")),
                ("active_learning_wal", Json::str("wal+fsync")),
                ("serve_edit_loop", Json::str("volatile")),
            ]),
        ),
        ("git_rev", Json::str(&opts.git_rev)),
        ("rustc", Json::str(&opts.rustc)),
        ("seed", Json::Num(opts.seed as f64)),
        ("held_out_seed", Json::Num(spec::HELD_OUT_SEED as f64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("census_rows", pair(sizes.census_rows)),
        ("ie_docs", Json::Num(sizes.ie_docs as f64)),
        ("active_learning_rows", pair(sizes.al_rows)),
        ("active_learning_rounds", Json::Num(sizes.al_rounds as f64)),
        ("serve_rows", pair(sizes.serve_rows)),
        (
            "serve_cycles_per_client",
            Json::Num(sizes.serve_cycles as f64),
        ),
    ])
}

fn set_json(set: &[Report]) -> Json {
    Json::Arr(
        set.iter()
            .map(|r| {
                Json::obj([
                    ("workload", Json::str(r.workload)),
                    ("traced", Json::Bool(r.traced)),
                    ("result", r.result.clone()),
                ])
            })
            .collect(),
    )
}

/// Runs the suite — one set, or with `--aa` two sets of [`AA_RUNS`] runs
/// per workload; `Ok(false)` when any workload answered wrongly or an A/A
/// pair of medians fell outside its bound.
pub fn run(opts: &Opts) -> Res<bool> {
    let doc = benchmark_json(&opts.bench_dir)?;
    let mut sets: Vec<Vec<Report>> = vec![Vec::new()];
    let mut rounds = 1;
    if opts.aa {
        sets.push(Vec::new());
        rounds = AA_RUNS;
    }
    for workload in spec::WORKLOADS {
        for _ in 0..rounds {
            for set in &mut sets {
                set.push(child(opts, workload, false)?);
            }
        }
        if opts.trace {
            sets[0].push(child(opts, workload, true)?);
        }
    }
    let mut ok = sets.iter().flatten().all(Report::correct);
    for set in &sets {
        print_table(set);
    }
    if let [first, second] = &sets[..] {
        ok &= compare(first, second, &doc);
    }
    let out = opts.bench_dir.join("out");
    std::fs::create_dir_all(&out)?;
    let result = Json::obj([
        ("stamp", stamp(opts)),
        (
            "sets",
            Json::Arr(sets.iter().map(|s| set_json(s)).collect()),
        ),
    ]);
    std::fs::write(out.join("result.json"), format!("{result}\n"))?;
    println!("\nwrote {}", out.join("result.json").display());
    Ok(ok)
}
