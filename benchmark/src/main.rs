//! `helix-benchmark`: the one benchmark of the Helix reproduction.
//!
//! With `--workload`, runs that workload in this process and prints every
//! metric by name and unit, then one JSON object as the last line: the
//! end-to-end metrics (`--trace 0`, tracing off) or the per-layer metrics
//! (`--trace 1`, spans recorded around each layer's public functions).
//! Without `--workload`, runs the whole suite, each workload in a process
//! of its own — see `suite`. `benchmark/run.sh` builds and starts it.

mod check;
mod ledger;
mod probes;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use check::Tally;
use helix_json::Json;
use ledger::Metrics;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workloads::active_learning::ActiveLearning;
use workloads::script::{CensusScript, IeScript};
use workloads::serve::ServeLoop;
use workloads::{Ctx, EditKind, Pass, Res, Seen, Workload};

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] \
[--trace [0|1]] [--smoke] [--aa]";

/// Command-line options, shared by the single-workload and suite modes.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The `benchmark/` directory; outputs and scratch go under `out/`.
    pub bench_dir: PathBuf,
    /// Run only this workload, in this process.
    pub workload: Option<String>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds one run measures; `BENCHMARK.json`'s `run_seconds` when
    /// absent.
    pub seconds: Option<f64>,
    /// Record spans and print the per-layer metrics.
    pub trace: bool,
    /// Tiny sizes: the same code paths and checks in a few seconds.
    pub smoke: bool,
    /// Run the suite twice on this build and compare.
    pub aa: bool,
    /// `rustc -V`, stamped into `result.json`.
    pub rustc: String,
    /// Git revision, stamped into `result.json`.
    pub git_rev: String,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        bench_dir: PathBuf::from("benchmark"),
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        aa: false,
        rustc: "unknown".into(),
        git_rev: "unknown".into(),
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--bench-dir" => opts.bench_dir = value("a directory")?.into(),
            "--workload" => opts.workload = Some(value("a workload name")?),
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                opts.seconds = Some(seconds);
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                opts.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => opts.smoke = true,
            "--aa" => opts.aa = true,
            "--rustc" => opts.rustc = value("a version string")?,
            "--git-rev" => opts.git_rev = value("a revision")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &opts.workload {
        if !spec::WORKLOADS.contains(&name.as_str()) {
            return Err(format!(
                "unknown workload `{name}` (one of {})",
                spec::WORKLOADS.join(", ")
            ));
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("helix-benchmark: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // `EngineConfig::helix`, `StoreOptions::new` and the compiler read
    // `HELIX_*` silently; a stray variable would change what is measured.
    let overrides = spec::helix_env_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "helix-benchmark: refusing to run with {} set: the engine reads HELIX_* knobs \
             from the environment and the benchmark fixes every one of them",
            overrides.join(", ")
        );
        std::process::exit(2);
    }
    let outcome = match opts.workload.clone() {
        Some(name) => single(&opts, &name),
        None => suite::run(&opts),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(err) => {
            eprintln!("helix-benchmark: {err}");
            std::process::exit(1);
        }
    }
}

/// Runs one workload in this process; `Ok(false)` when an answer was wrong.
fn single(opts: &Opts, name: &str) -> Res<bool> {
    let seconds = match opts.seconds {
        Some(seconds) => seconds,
        None if opts.smoke => 1.0,
        None => suite::run_seconds(&opts.bench_dir)?,
    };
    let work = opts
        .bench_dir
        .join("out")
        .join("work")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work)?;
    let ctx = Ctx {
        work: work.clone(),
        seed: opts.seed,
        sizes: spec::sizes(opts.smoke),
    };
    let result = match name {
        "census_script" => run::<CensusScript>(opts, name, &ctx, seconds),
        "ie_script_tight" => run::<IeScript>(opts, name, &ctx, seconds),
        "active_learning_wal" => run::<ActiveLearning>(opts, name, &ctx, seconds),
        _ => run::<ServeLoop>(opts, name, &ctx, seconds),
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run<W: Workload>(opts: &Opts, name: &str, ctx: &Ctx, seconds: f64) -> Res<bool> {
    let mut tally = Tally::default();
    let mut setup_secs = Vec::new();
    let mut workload = None;
    for attempt in 0..ctx.sizes.setups {
        let started = Instant::now();
        workload = Some(W::setup(ctx, attempt)?);
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.ok_or("no set-up ran")?;
    workload.prepare_checks(&mut tally)?;

    let (list, values): (&[(&str, &str)], Metrics) = if opts.trace {
        let trace_file = opts
            .bench_dir
            .join("out")
            .join(format!("trace-{name}.jsonl"));
        let values = traced(&workload, ctx, seconds, &mut tally, &trace_file)?;
        (&spec::PER_LAYER, values)
    } else {
        let mut values = measured(&workload, ctx, seconds, &mut tally)?;
        let setup_s = stats::median(&setup_secs).ok_or("no set-up ran")?;
        values.insert(0, ("setup_s", setup_s));
        (&spec::END_TO_END, values)
    };

    let mut metrics = Vec::with_capacity(list.len());
    for (metric, unit) in list {
        let value = values
            .iter()
            .find(|(n, _)| n == metric)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric `{metric}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{metric}` is {value}").into());
        }
        println!("{name:<20} {metric:<40} {value:>18.6} {unit}");
        metrics.push((
            metric.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
        ));
    }
    if let Some((stray, _)) = values
        .iter()
        .find(|(n, _)| !list.iter().any(|(m, _)| m == n))
    {
        return Err(format!("metric `{stray}` is not declared in spec").into());
    }
    println!(
        "{name:<20} {:<40} {:>18.6} share ({} of {})",
        "failed_share",
        tally.failed_share(),
        tally.failed,
        tally.attempted
    );
    for note in tally.notes() {
        eprintln!("helix-benchmark: {name}: FAILED: {note}");
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(tally.attempted.max(1) as f64)),
            ("failed", Json::Num(tally.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    Ok(correct)
}

/// The end-to-end run: tracing off, passes repeated until `seconds` have
/// gone by (and the sample floors are met), medians reported.
fn measured<W: Workload>(workload: &W, ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Res<Metrics> {
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    loop {
        passes.push(workload.pass(passes.len(), &mut Tracer::off(), tally)?);
        let edits: usize = passes.iter().map(|p| p.edits.len()).sum();
        if passes.len() >= ctx.sizes.min_passes
            && edits >= ctx.sizes.min_edit_samples
            && started.elapsed().as_secs_f64() >= seconds
        {
            break;
        }
    }
    let refs: Vec<&Pass> = passes.iter().collect();
    let of = |f: fn(&Pass) -> f64| refs.iter().map(|p| f(p)).collect::<Vec<f64>>();
    let median = |what: &str, values: &[f64]| {
        stats::median(values).ok_or_else(|| format!("no samples for {what}"))
    };
    let edits = pooled_edits(&refs, None);
    let sorted = stats::sorted(&edits);
    if !stats::supports_percentile(edits.len(), 0.9) {
        eprintln!(
            "helix-benchmark: note: {} edit samples cannot support p90 (ten samples beyond it)",
            edits.len()
        );
    }
    let wall: f64 = of(|p| p.cumulative_s).iter().sum();
    let ops: u64 = passes.iter().map(|p| p.ops).sum();
    println!(
        "# {} passes, {} edit samples, highest supported percentile {:?}; cumulative_s per pass: {:.3?}",
        passes.len(),
        edits.len(),
        stats::highest_supported_percentile(edits.len()),
        of(|p| p.cumulative_s)
    );
    Ok(vec![
        (
            "cumulative_s",
            median("cumulative_s", &of(|p| p.cumulative_s))?,
        ),
        (
            "edit_p50_ms",
            stats::percentile(&sorted, 0.5).ok_or("no edit samples")?,
        ),
        (
            "edit_p90_ms",
            stats::percentile(&sorted, 0.9).ok_or("no edit samples")?,
        ),
        (
            "edit_dpr_ms",
            median("edit_dpr_ms", &pooled_edits(&refs, Some(EditKind::Dpr)))?,
        ),
        (
            "edit_li_ms",
            median("edit_li_ms", &pooled_edits(&refs, Some(EditKind::Li)))?,
        ),
        (
            "edit_ppr_ms",
            median("edit_ppr_ms", &pooled_edits(&refs, Some(EditKind::Ppr)))?,
        ),
        ("requests_per_s", ops as f64 / wall),
        ("peak_rss_mb", peak_rss_mb()?),
    ])
}

/// The per-layer run: untraced and traced passes alternate for half of
/// `seconds` (their difference is the tracing overhead), then the layer
/// probes run on the state a pass leaves behind.
fn traced<W: Workload>(
    workload: &W,
    ctx: &Ctx,
    seconds: f64,
    tally: &mut Tally,
    trace_file: &std::path::Path,
) -> Res<Metrics> {
    let mut tracer = Tracer::on(1 << 17);
    let mut plain: Vec<Pass> = Vec::new();
    let mut spanned: Vec<Pass> = Vec::new();
    let started = Instant::now();
    for round in 0.. {
        // Alternate which side goes first, so drift favours neither.
        for traced_now in [round % 2 == 1, round % 2 == 0] {
            let rep = plain.len() + spanned.len();
            if traced_now {
                spanned.push(workload.pass(rep, &mut tracer, tally)?);
            } else {
                plain.push(workload.pass(rep, &mut Tracer::off(), tally)?);
            }
        }
        if plain.len() >= ctx.sizes.min_passes.min(2)
            && started.elapsed().as_secs_f64() >= seconds / 2.0
        {
            break;
        }
    }
    let median_of = |passes: &[&Pass], f: fn(&Pass) -> f64| {
        stats::median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>()).ok_or("no passes ran")
    };
    let cumulative =
        |passes: &[Pass]| median_of(&passes.iter().collect::<Vec<_>>(), |p| p.cumulative_s);
    let all: Vec<&Pass> = plain.iter().chain(&spanned).collect();
    let edits = pooled_edits(&all, None);
    let seen = Seen {
        cumulative_s: cumulative(&plain)?,
        edit_p50_ms: stats::median(&edits).ok_or("no edit samples")?,
    };

    let mut values: Metrics = spec::PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    let mut set = |found: Metrics| {
        for (name, value) in found {
            match values.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 = value,
                None => values.push((name, value)),
            }
        }
    };
    let ledgers: Vec<Metrics> = spanned
        .iter()
        .map(|p| {
            let mut m = ledger::pass_ledger(&p.iters);
            m.extend(p.layer.iter().copied());
            m
        })
        .collect();
    set(ledger::median_by_name(&ledgers));
    set(workload.probes(seen, &mut tracer, tally)?);
    set(probes::span_metrics(&tracer));
    let sorted = stats::sorted(&edits);
    if stats::supports_percentile(sorted.len(), 0.99) {
        set(vec![(
            "server.edit_p99_ms",
            stats::percentile(&sorted, 0.99).ok_or("no edit samples")?,
        )]);
    }
    set(vec![
        // Iteration 0 is a short burst on freshly spawned threads and
        // fresh memory: the run-to-run quartile spread of its median
        // reached 25 % on the shared runner, too much for a bounded
        // end-to-end metric, so it is reported here, unbounded.
        ("engine.cold_iter_s", median_of(&all, |p| p.cold_s)?),
        (
            "trace.overhead_share",
            cumulative(&spanned)? / seen.cumulative_s - 1.0,
        ),
        ("trace.spans", tracer.span_count() as f64),
    ]);

    tracer.write_jsonl(trace_file)?;
    println!("# spans written to {}", trace_file.display());
    println!(
        "# {:<28} {:>8} {:>12} {:>12}",
        "span", "n", "total_s", "self_s"
    );
    for (name, n, total_s, self_s) in tracer.summary() {
        println!("# {name:<28} {n:>8} {total_s:>12.6} {self_s:>12.6}");
    }
    Ok(values)
}

/// Edit latencies of `passes` in ms, all kinds or one.
fn pooled_edits(passes: &[&Pass], kind: Option<EditKind>) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| &p.edits)
        .filter(|(k, _)| kind.is_none_or(|want| want == *k))
        .map(|(_, ms)| *ms)
        .collect()
}

/// `VmHWM` of this process: the most resident memory it ever held.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
