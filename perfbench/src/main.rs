//! Host-time benchmark of the simulator: how long the figure sweeps and a
//! paper-scale point take to run, and how that time splits across the
//! layers. Simulated results are the correctness check, not the metrics.
//!
//! ```text
//! pa-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! pa-perfbench --print-reference
//! ```
//!
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` for the metrics.

mod calib;
mod rows;
mod sweep;

use pa_campaign::{Cache, PointResult, PointSpec};
use pa_workloads::AggregateSpec;
use serde::value::{get, Value};
use serde::Serialize;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sweep::{
    median, run_pass, setup_time, timed_at_threads, Counters, Keep, Pass, Tracer, Workload,
};

const USAGE: &str = "usage: pa-perfbench --workload sweep_vanilla|sweep_cosched|paper_point \
                     --seed N --seconds S --trace 0|1 | --print-reference";

/// The seed the figure binaries default to; `reference.json` holds the
/// expected scalars for it.
const REFERENCE_SEED: u64 = 42;
const REFERENCE: &str = include_str!("../reference.json");

/// Zero-horizon runs per point behind `setup_s` (the median is kept).
const SETUP_REPS: usize = 15;

/// Scratch caches, result records and Chrome traces go here, relative to
/// the working directory (the repository root).
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    PrintReference,
}

fn parse_args() -> Result<Command, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--print-reference" {
            return Ok(Command::PrintReference);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// What one run reports.
#[derive(Default)]
struct Report {
    attempted: u64,
    /// (pass, point) pairs that failed; a failed pass lists all points.
    failed: BTreeSet<(usize, usize)>,
    errors: Vec<String>,
    metrics: Vec<(&'static str, Option<f64>, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn fail(&mut self, pass: usize, point: usize, why: String) {
        self.failed.insert((pass, point));
        self.errors.push(why);
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, Some(value), unit));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::PrintReference) => {
            println!("{}", reference_now().to_json_string_pretty());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("pa-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("pa-perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let host = host_fingerprint(&args);
    eprintln!("host: {}", host.to_json_string());
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for e in &report.errors {
        eprintln!("error: {e}");
    }
    for n in &report.notes {
        eprintln!("note: {n}");
    }
    let mut metrics = Vec::new();
    for &(name, value, unit) in &report.metrics {
        match value {
            Some(v) => println!(
                "{:<34} {v:>16.6} {unit}",
                format!("{}.{name}", args.workload.name())
            ),
            None => println!(
                "{:<34} {:>16} {unit}",
                format!("{}.{name}", args.workload.name()),
                "skipped"
            ),
        }
        metrics.push((
            name.to_string(),
            Value::Map(vec![
                ("value".into(), value.map_or(Value::Null, Value::Float)),
                ("unit".into(), unit.to_value()),
            ]),
        ));
    }
    let failed = report.failed.len() as u64;
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), report.attempted.max(1).to_value()),
        ("failed".into(), failed.to_value()),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    let record = Value::Map(vec![
        ("host".into(), host),
        ("errors".into(), report.errors.to_value()),
        ("notes".into(), report.notes.to_value()),
        ("result".into(), result.clone()),
    ]);
    let path = Path::new(OUT_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.to_json_string_pretty() + "\n") {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("{}", result.to_json_string());
    ExitCode::SUCCESS
}

/// Host facts every result is stamped with.
fn host_fingerprint(args: &Args) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Value::Map(vec![
        ("nproc".into(), (nproc() as u64).to_value()),
        ("cpu_model".into(), cpu.to_value()),
        ("rustc".into(), rustc.to_value()),
        ("engine_threads".into(), 1u64.to_value()),
        ("campaign_jobs".into(), 1u64.to_value()),
        ("workload".into(), args.workload.name().to_value()),
        ("seed".into(), args.seed.to_value()),
        ("seconds".into(), args.seconds.to_value()),
        ("trace".into(), args.trace.to_value()),
    ])
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Summed set-up time of every point (median of [`SETUP_REPS`] each), as
/// measured and at the reference speed; reference-loop slices run before
/// each point.
fn total_setup(specs: &[PointSpec<AggregateSpec>], tracer: Option<&Tracer>) -> (f64, f64) {
    let start = Instant::now();
    let (mut setup_s, mut slice_s) = (0.0, 0.0);
    for spec in specs {
        slice_s += calib::slices(calib::SLICES_PER_POINT);
        setup_s += setup_time(spec, SETUP_REPS);
    }
    if let Some(t) = tracer {
        t.span(0, "core.setup", start);
    }
    let slices = specs.len() * calib::SLICES_PER_POINT;
    (setup_s, calib::at_reference(setup_s, slice_s, slices))
}

/// End-to-end run, tracing off: set-up, then whole passes for the time
/// budget. `wall_s` is the median pass and `setup_s` the set-up, both at
/// the reference speed.
fn untraced(args: &Args) -> Report {
    let cfg = args.workload.config(args.seed);
    let specs = cfg.points();
    let dir = Path::new(OUT_DIR).join(format!("cache-{}", args.workload.name()));
    let mut rep = Report::default();
    let (setup_raw_s, setup_s) = total_setup(&specs, None);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = None;
    loop {
        let index = passes.len();
        rep.attempted += specs.len() as u64;
        match run_pass(&cfg, &specs, &dir, None, None) {
            Ok(p) => {
                passes.push(p);
                // Later passes only add allocator fragmentation, whose
                // amount depends on how many passes fit the budget.
                if index == 0 {
                    peak_rss = peak_rss_mb();
                }
            }
            Err(e) => {
                for i in 0..specs.len() {
                    rep.failed.insert((index, i));
                }
                rep.errors.push(format!("pass {index}: {e}"));
                break;
            }
        }
        let last = Duration::from_secs_f64(passes[index].wall_s + passes[index].slice_s);
        if start.elapsed() + last > budget {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    check_passes(&mut rep, args, &specs, &passes);
    if passes.is_empty() {
        return rep;
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut at_ref: Vec<f64> = passes.iter().map(Pass::wall_at_reference).collect();
    rep.notes.push(format!("pass wall s: {walls:.3?}"));
    rep.notes
        .push(format!("pass wall s at reference speed: {at_ref:.3?}"));
    rep.notes.push(format!("setup s: {setup_raw_s:.4}"));
    rep.metric("wall_s", median(&mut at_ref), "s");
    rep.metric("setup_s", setup_s, "s");
    if let Some(rss) = peak_rss {
        rep.metric("peak_rss_mb", rss, "MB");
    }
    rep
}

/// Every pass must repeat the first one's scalars exactly, and for the
/// reference seed the first pass must match `reference.json`.
fn check_passes(
    rep: &mut Report,
    args: &Args,
    specs: &[PointSpec<AggregateSpec>],
    passes: &[Pass],
) {
    let Some(first) = passes.first() else { return };
    for (p, pass) in passes.iter().enumerate().skip(1) {
        for i in 0..specs.len() {
            if pass.counters[i] != first.counters[i] || pass.results[i] != first.results[i] {
                rep.fail(
                    p,
                    i,
                    format!("pass {p} point {i}: scalars differ from pass 0"),
                );
            }
        }
        if pass.scale_json != first.scale_json {
            rep.fail(p, 0, format!("pass {p}: figure data differ from pass 0"));
        }
    }
    if args.seed != REFERENCE_SEED {
        return;
    }
    match check_reference(args.workload, first) {
        Ok(bad) => {
            for (i, why) in bad {
                rep.fail(0, i, why);
            }
        }
        Err(e) => rep.fail(0, 0, format!("reference: {e}")),
    }
}

/// The scalars `reference.json` records for one point.
fn reference_point(spec: &PointSpec<AggregateSpec>, c: &Counters) -> Value {
    Value::Map(vec![
        ("nodes".into(), spec.nodes.to_value()),
        ("seed".into(), spec.seed.to_value()),
        ("events".into(), c.events.to_value()),
        ("windows".into(), c.windows.to_value()),
        ("messages".into(), c.messages.to_value()),
        ("mean_allreduce_us".into(), c.mean_allreduce_us.to_value()),
    ])
}

/// Compare a pass at the reference seed against `reference.json`;
/// returns the points that differ.
fn check_reference(w: Workload, pass: &Pass) -> Result<Vec<(usize, String)>, String> {
    let doc = serde_json::parse(REFERENCE).map_err(|e| e.0)?;
    let entry = doc
        .as_map()
        .and_then(|m| get(m, w.name()))
        .and_then(Value::as_map)
        .ok_or_else(|| format!("no entry for {}", w.name()))?;
    let points = get(entry, "points")
        .and_then(Value::as_seq)
        .ok_or("entry has no points")?;
    let specs = w.config(REFERENCE_SEED).points();
    if points.len() != specs.len() {
        return Err(format!(
            "{} points recorded, {} run",
            points.len(),
            specs.len()
        ));
    }
    let mut bad = Vec::new();
    for (i, (want, spec)) in points.iter().zip(&specs).enumerate() {
        let got = reference_point(spec, &pass.counters[i]);
        if &got != want {
            bad.push((
                i,
                format!(
                    "point {i}: got {} want {}",
                    got.to_json_string(),
                    want.to_json_string()
                ),
            ));
        }
    }
    let want_scale = get(entry, "scale_points").and_then(Value::as_str);
    if want_scale != Some(pass.scale_json.as_str()) {
        bad.push((0, format!("figure data: got {}", pass.scale_json)));
    }
    Ok(bad)
}

/// `reference.json` as this build computes it: one pass of every
/// workload at the reference seed.
fn reference_now() -> Value {
    let dir = Path::new(OUT_DIR).join("cache-reference");
    let entries = Workload::ALL
        .iter()
        .map(|&w| {
            let cfg = w.config(REFERENCE_SEED);
            let specs = cfg.points();
            let pass = run_pass(&cfg, &specs, &dir, None, None)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            let points = specs
                .iter()
                .zip(&pass.counters)
                .map(|(s, c)| reference_point(s, c))
                .collect();
            (
                w.name().to_string(),
                Value::Map(vec![
                    ("points".into(), Value::Seq(points)),
                    ("scale_points".into(), pass.scale_json.to_value()),
                ]),
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    Value::Map(entries)
}

/// Traced run: alternating untraced and traced passes (the difference is
/// the tracing overhead), then the layer rows and the 2-thread rerun.
/// Reports the per-layer metrics.
fn traced(args: &Args) -> Report {
    let tracer = Tracer::new();
    let root = Instant::now();
    let cfg = args.workload.config(args.seed);
    let specs = cfg.points();
    let largest = specs.len() - 1;
    let dir = Path::new(OUT_DIR).join(format!("cache-{}", args.workload.name()));
    let mut rep = Report::default();
    let (setup_s, _) = total_setup(&specs, Some(&tracer));

    // Passes take at most ~60 % of the budget; the rows take the rest.
    let budget = Duration::from_secs_f64(args.seconds * 0.6);
    let start = Instant::now();
    let kept = Mutex::new(None);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let index = plain.len() + traced.len();
        rep.attempted += 2 * specs.len() as u64;
        let pair = run_pass(&cfg, &specs, &dir, None, None).and_then(|p| {
            let keep = Keep {
                index: largest,
                slot: &kept,
            };
            Ok((p, run_pass(&cfg, &specs, &dir, Some(&tracer), Some(keep))?))
        });
        match pair {
            Ok((p, t)) => {
                let pair_s = Duration::from_secs_f64(p.wall_s + p.slice_s + t.wall_s + t.slice_s);
                plain.push(p);
                traced.push(t);
                if start.elapsed() + pair_s > budget {
                    break;
                }
            }
            Err(e) => {
                for i in 0..specs.len() {
                    rep.failed.insert((index, i));
                    rep.failed.insert((index + 1, i));
                }
                rep.errors.push(format!("pass pair {index}: {e}"));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Traced and untraced passes must agree exactly, pass for pass.
    let all: Vec<Pass> = plain
        .into_iter()
        .zip(traced)
        .flat_map(|(p, t)| [p, t])
        .collect();
    check_passes(&mut rep, args, &specs, &all);
    let (Some(tp), Some(out)) = (all.last(), kept.into_inner().expect("keep lock poisoned")) else {
        return rep;
    };
    let pc = &tp.counters[largest];

    // Engine counters, summed over the pass's points.
    let sum = |f: fn(&Counters) -> u64| tp.counters.iter().map(f).sum::<u64>() as f64;
    let events = sum(|c| c.events);
    let windows = sum(|c| c.windows);
    let shard_windows: f64 = specs
        .iter()
        .zip(&tp.counters)
        .map(|(s, c)| f64::from(s.nodes) * c.windows as f64)
        .sum();
    let run_s: f64 = tp.times.iter().map(|t| t.run_s).sum();
    let busy_s: f64 = tp.times.iter().map(|t| t.shard_busy_s).sum();
    let fold_s: f64 = tp.times.iter().map(|t| t.fold_s).sum();
    let metrics_s: f64 = tp.times.iter().map(|t| t.metrics_s).sum();
    let window_overhead_s = run_s - setup_s - busy_s;
    rep.metric("cluster.events", events, "count");
    rep.metric("cluster.windows", windows, "count");
    rep.metric(
        "cluster.widened_windows",
        sum(|c| c.widened_windows),
        "count",
    );
    rep.metric(
        "cluster.events_per_window",
        events / windows.max(1.0),
        "count",
    );
    rep.metric(
        "cluster.events_per_shard_window",
        events / shard_windows.max(1.0),
        "count",
    );
    rep.metric("cluster.messages", sum(|c| c.messages), "count");
    rep.metric("cluster.fifo_clamps", sum(|c| c.fifo_clamps), "count");
    rep.metric("cluster.events_per_host_s", events / run_s, "1/s");
    rep.metric("cluster.shard_busy_s", busy_s, "s");
    rep.metric("cluster.window_overhead_s", window_overhead_s, "s");
    rep.metric(
        "cluster.window_overhead_share",
        window_overhead_s / tp.wall_s,
        "ratio",
    );

    // 2-engine-thread rerun of the largest point.
    let spec = &specs[largest];
    if nproc() < 2 {
        rep.metrics.push(("cluster.speedup_2t", None, "x"));
        rep.notes
            .push("cluster.speedup_2t skipped: nproc < 2".into());
    } else {
        let t0 = Instant::now();
        let (t1, c1) = timed_at_threads(spec, 1);
        let (t2, c2) = timed_at_threads(spec, 2);
        tracer.span(0, "cluster.speedup_2t", t0);
        rep.attempted += 2;
        if c1 != *pc || c2 != *pc {
            rep.fail(
                usize::MAX,
                largest,
                "2-thread rerun scalars differ from the serial pass".into(),
            );
        }
        rep.metric("cluster.speedup_2t", t1 / t2, "x");
        rep.notes
            .push(format!("speedup_2t: serial {t1:.3} s, 2 threads {t2:.3} s"));
    }

    rep.metric("kernel.dispatches", sum(|c| c.dispatches), "count");
    rep.metric("kernel.ctx_switches", sum(|c| c.ctx_switches), "count");
    rep.metric("kernel.preemptions", sum(|c| c.preemptions), "count");
    rep.metric("kernel.ticks", sum(|c| c.ticks), "count");
    rep.metric("kernel.callouts", sum(|c| c.callouts), "count");
    rep.metric("kernel.ipis", sum(|c| c.ipis), "count");
    let t0 = Instant::now();
    match rows::kernel_ns_per_event(spec, pc) {
        Ok(ns) => rep.metric("kernel.ns_per_event", ns, "ns"),
        Err(e) => {
            rep.metrics.push(("kernel.ns_per_event", None, "ns"));
            rep.fail(usize::MAX, largest, format!("kernel row: {e}"));
        }
    }
    tracer.span(0, "kernel.audit_row", t0);

    rep.metric("simkit.scheduled", sum(|c| c.scheduled), "count");
    rep.metric("simkit.cancelled", sum(|c| c.cancelled), "count");
    rep.metric("simkit.max_pending", pc.max_pending as f64, "count");
    let t0 = Instant::now();
    rep.metric(
        "simkit.ns_per_op",
        rows::simkit_ns_per_op(spec.nodes, pc, args.seed),
        "ns",
    );
    tracer.span(0, "simkit.queue_row", t0);

    let collectives = sum(|c| c.collectives);
    rep.metric("mpi.collectives", collectives, "count");
    rep.metric(
        "mpi.messages_per_collective",
        sum(|c| c.messages) / collectives.max(1.0),
        "count",
    );
    let mean_us = tp.counters.iter().map(|c| c.mean_allreduce_us).sum::<f64>() / specs.len() as f64;
    rep.metric("mpi.mean_allreduce_us", mean_us, "us");

    // Campaign layer: points, and the cache driven on its own.
    let (store_s, lookup_s) = cache_row(args, &specs, &tp.results, &tracer, &mut rep);
    rep.metric("campaign.points", specs.len() as f64, "count");
    rep.metric("campaign.point_s", run_s + fold_s - metrics_s, "s");
    rep.metric("campaign.cache_store_s", store_s, "s");
    rep.metric("campaign.cache_lookup_s", lookup_s, "s");
    rep.metric(
        "campaign.executor_overhead_s",
        tp.wall_s - run_s - fold_s,
        "s",
    );

    rep.metric("core.experiment_run_s", run_s, "s");
    rep.metric("core.observe_fold_s", fold_s, "s");
    let t0 = Instant::now();
    std::hint::black_box(pa_core::blame_of(&out, args.workload.name()));
    rep.metric("blame.analyze_s", t0.elapsed().as_secs_f64(), "s");
    tracer.span(0, "blame.analyze", t0);
    drop(out);

    // Tracing overhead: traced minus untraced pass wall time, net of the
    // `metrics_of` fold only the traced pass performs.
    let mut plain_walls: Vec<f64> = all.iter().step_by(2).map(|p| p.wall_s).collect();
    let mut traced_walls: Vec<f64> = all
        .iter()
        .skip(1)
        .step_by(2)
        .map(|p| p.wall_s - p.times.iter().map(|t| t.metrics_s).sum::<f64>())
        .collect();
    rep.metric(
        "trace.overhead_s",
        median(&mut traced_walls) - median(&mut plain_walls),
        "s",
    );
    rep.notes.push(format!("{} pass pairs", all.len() / 2));

    tracer.span(0, args.workload.name(), root);
    let path = Path::new(OUT_DIR).join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = std::fs::write(&path, tracer.to_chrome_trace()) {
        rep.notes
            .push(format!("cannot write {}: {e}", path.display()));
    } else {
        rep.notes
            .push(format!("host-time spans in {}", path.display()));
    }
    rep
}

/// Store every point's result in a fresh cache, then look each up; the
/// lookup must return what was stored. Returns (store s, lookup s).
fn cache_row(
    args: &Args,
    specs: &[PointSpec<AggregateSpec>],
    results: &[PointResult],
    tracer: &Tracer,
    rep: &mut Report,
) -> (f64, f64) {
    let dir = Path::new(OUT_DIR).join(format!("cache-row-{}", args.workload.name()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = match Cache::at(&dir) {
        Ok(c) => c,
        Err(e) => {
            rep.fail(usize::MAX, 0, format!("cache row: {e}"));
            return (0.0, 0.0);
        }
    };
    let keys: Vec<String> = specs.iter().map(|s| s.content_key()).collect();
    let t0 = Instant::now();
    for ((key, spec), result) in keys.iter().zip(specs).zip(results) {
        if let Err(e) = cache.store(key, spec, result) {
            rep.fail(usize::MAX, 0, format!("cache store: {e}"));
        }
    }
    let store_s = t0.elapsed().as_secs_f64();
    tracer.span(0, "campaign.cache_store", t0);
    let t0 = Instant::now();
    let found: Vec<Option<PointResult>> = keys.iter().map(|k| cache.lookup(k)).collect();
    let lookup_s = t0.elapsed().as_secs_f64();
    tracer.span(0, "campaign.cache_lookup", t0);
    for (i, (got, want)) in found.iter().zip(results).enumerate() {
        if got.as_ref() != Some(want) {
            rep.fail(
                usize::MAX,
                i,
                format!("cache lookup of point {i} returned other data"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    (store_s, lookup_s)
}
