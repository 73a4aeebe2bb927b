//! The wbsn benchmark: runs one named sweep grid of the paper's
//! evaluation through `wbsn_bench::run_sweep` and reports end-to-end
//! metrics (`--trace 0`) or per-layer metrics from an outside-in replay
//! of every cell (`--trace 1`). See README.md for the workloads, the
//! metrics and what each per-layer number can move.
//!
//! Usage: `wbsn-perfbench --workload <table1|busywait|fig7> [--seed N]
//! [--seconds S] [--trace 0|1] [--duration SIM_S] [--trace-out PATH]
//! [--trace-check BIN] [--fault wrong-period]`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! non-zero when any output check fails.

mod grid;
mod replay;
mod spans;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use wbsn_bench::sweep::CellOutcome;
use wbsn_bench::{run_sweep, SweepCell, SweepOptions, SweepReport};
use wbsn_kernels::ClassifierParams;

use grid::Workload;
use replay::{cell_label, cross_variant_disagreements, replay, Depth, LoopClass, Replay};
use spans::Spans;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Timed sweeps per untraced run, at least; more while time remains.
const MIN_SWEEPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    duration_s: Option<f64>,
    wrong_period: bool,
    trace_out: PathBuf,
    trace_check: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Table1,
        seed: 0xEC60,
        seconds: 10.0,
        trace: false,
        duration_s: None,
        wrong_period: false,
        trace_out: PathBuf::from("perfbench-trace.json"),
        trace_check: None,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(bad("unknown workload"))?);
            }
            "--seed" => {
                args.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|_| bad("expected an integer"))?;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--duration" => {
                let d: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if d <= 0.0 || d > 60.0 || d.is_nan() {
                    return Err(bad("expected 0 < seconds <= 60"));
                }
                args.duration_s = Some(d);
            }
            "--fault" if value == "wrong-period" => args.wrong_period = true,
            "--trace-out" => args.trace_out = PathBuf::from(value),
            "--trace-check" => args.trace_check = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag} {value}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs the workload's phases back to back; returns the merged report
/// and the wall seconds of all phases.
fn run_grid(
    phases: &[Vec<SweepCell>],
    params: &ClassifierParams,
    options: &SweepOptions,
) -> (SweepReport, f64) {
    let start = Instant::now();
    let mut merged: Option<SweepReport> = None;
    for cells in phases {
        let report = run_sweep(cells.clone(), params, options);
        match merged.as_mut() {
            Some(m) => m.merge(report),
            None => merged = Some(report),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    (merged.expect("every workload has a phase"), wall)
}

/// The output checks of a run.
struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    replays: Vec<Result<Replay, String>>,
}

/// Whether two executions of the same cell gave the same measurement.
fn same_result(a: &CellOutcome, b: &CellOutcome) -> bool {
    match (&a.result, &b.result) {
        (Ok(x), Ok(y)) => {
            x.clock_hz.to_bits() == y.clock_hz.to_bits()
                && x.power_uw().to_bits() == y.power_uw().to_bits()
                && x.stats == y.stats
        }
        _ => false,
    }
}

/// Replays every cell of the first sweep and checks the run against it.
/// `repeats[s][i]` says whether cell `i` of the `s`-th later sweep gave
/// the first sweep's measurement. A cell counts as failed in every sweep
/// where its flow errored, its replay failed a check, or its measurement
/// differs from the first sweep's.
fn verify(
    first: &SweepReport,
    repeats: &[Vec<bool>],
    params: &ClassifierParams,
    depth: Depth,
    wrong_period: bool,
    mut spans: Option<&mut Spans>,
) -> Verdict {
    let cells = &first.outcomes;
    let mut problems: Vec<Option<String>> = vec![None; cells.len()];
    let mut replays = Vec::with_capacity(cells.len());
    for (i, outcome) in cells.iter().enumerate() {
        let label = cell_label(outcome);
        if let Ok(m) = &outcome.result {
            eprintln!(
                "#   {label}: {:.4} MHz, {:.2} uW, {:.3} s",
                m.clock_hz / 1e6,
                m.power_uw(),
                outcome.wall_s
            );
        }
        let skew = u64::from(wrong_period && i == 0);
        let start = Instant::now();
        let r = replay(outcome, params, depth, skew, spans.as_deref_mut());
        if let Some(spans) = spans.as_deref_mut() {
            let mut args = vec![("cell_wall_s", outcome.wall_s.to_string())];
            if let Ok(r) = &r {
                args.push(("cycles", r.stats.cycles.to_string()));
            }
            spans.record(&label, "cell", start, Instant::now(), args);
        }
        problems[i] = match &r {
            Err(e) => Some(e.clone()),
            Ok(r) if !r.problems.is_empty() => Some(r.problems.join("; ")),
            Ok(_) => None,
        };
        replays.push(r);
    }
    for (i, problem) in cross_variant_disagreements(cells, &replays) {
        problems[i].get_or_insert(problem);
    }

    let mut verdict = Verdict {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        replays,
    };
    let first_ok = vec![true; cells.len()];
    for (s, same) in std::iter::once(&first_ok).chain(repeats).enumerate() {
        for (i, outcome) in cells.iter().enumerate() {
            verdict.attempted += 1;
            let problem = match &problems[i] {
                Some(p) => p.clone(),
                None if !same[i] => "measurement differs from the first sweep's".to_string(),
                None => continue,
            };
            verdict.failed += 1;
            verdict
                .problems
                .push(format!("sweep {s}, {}: {problem}", cell_label(outcome)));
        }
    }
    verdict
}

type Metrics = Vec<(String, f64, &'static str)>;

fn push(metrics: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    let value = if value.is_finite() { value + 0.0 } else { 0.0 };
    metrics.push((name.into(), value, unit));
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    report: &SweepReport,
    sweep_wall: f64,
    replay_wall: f64,
    replays: &[Result<Replay, String>],
) -> Metrics {
    let mut m = Metrics::new();
    let walls: Vec<f64> = report.outcomes.iter().map(|o| o.wall_s).collect();
    let cell_sum: f64 = walls.iter().sum();
    push(&mut m, "sweep.cell_wall_sum_s", cell_sum, "s");
    push(
        &mut m,
        "sweep.parallel_efficiency",
        ratio(cell_sum, report.workers as f64 * sweep_wall),
        "ratio",
    );
    let ok: Vec<&Replay> = replays.iter().filter_map(|r| r.as_ref().ok()).collect();
    let final_window: f64 = ok
        .iter()
        .map(|r| r.times.final_window().as_secs_f64())
        .sum();
    push(&mut m, "experiment.cell_wall_p50_s", median(&walls), "s");
    let max = walls.iter().copied().fold(0.0, f64::max);
    push(&mut m, "experiment.cell_wall_max_s", max, "s");
    push(&mut m, "experiment.final_window_s", final_window, "s");
    push(
        &mut m,
        "experiment.search_overhead_s",
        cell_sum - final_window,
        "s",
    );
    push(
        &mut m,
        "experiment.useful_ratio",
        ratio(final_window, cell_sum),
        "ratio",
    );

    let lookups = report.cache_hits + report.cache_misses;
    push(&mut m, "cache.lookups", lookups as f64, "count");
    push(&mut m, "cache.misses", report.cache_misses as f64, "count");
    push(
        &mut m,
        "cache.hit_ratio",
        ratio(report.cache_hits as f64, lookups as f64),
        "ratio",
    );

    let per_call = |f: fn(&Replay) -> f64| median(&ok.iter().map(|r| f(r)).collect::<Vec<_>>());
    push(
        &mut m,
        "kernels.build_ms",
        per_call(|r| r.times.build.as_secs_f64() * 1e3),
        "ms",
    );
    push(
        &mut m,
        "dsp.synth_ms",
        per_call(|r| r.times.synth.as_secs_f64() * 1e3),
        "ms",
    );
    push(
        &mut m,
        "sim.setup_ms",
        per_call(|r| r.times.setup.as_secs_f64() * 1e3),
        "ms",
    );
    push(
        &mut m,
        "power.model_us",
        per_call(|r| r.times.power.as_secs_f64() * 1e6),
        "us",
    );

    for class in LoopClass::ALL {
        let of_class = || ok.iter().filter(|r| r.class == class);
        let run_s: f64 = of_class().map(|r| r.times.run_off.as_secs_f64()).sum();
        let counting_s: f64 = of_class().map(|r| r.times.run_counting.as_secs_f64()).sum();
        let cycles: u64 = of_class().map(|r| r.stats.cycles).sum();
        let instrs: u64 = of_class().map(|r| r.instructions()).sum();
        let key = class.key();
        push(&mut m, format!("sim.{key}.run_s"), run_s, "s");
        push(
            &mut m,
            format!("sim.{key}.mcycles_per_s"),
            ratio(cycles as f64 / 1e6, run_s),
            "Mcycles/s",
        );
        push(
            &mut m,
            format!("sim.{key}.minstr_per_s"),
            ratio(instrs as f64 / 1e6, run_s),
            "Minstr/s",
        );
        push(&mut m, format!("sim.{key}.cycles"), cycles as f64, "count");
        push(
            &mut m,
            format!("obs.{key}.counting_overhead"),
            ratio(counting_s - run_s, run_s),
            "ratio",
        );
    }

    let measured = report
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok());
    let (mut clock_mhz, mut power_uw, mut cycles) = (0.0, 0.0, 0u64);
    for x in measured {
        clock_mhz += x.clock_hz / 1e6;
        power_uw += x.power_uw();
        cycles += x.stats.cycles;
    }
    push(&mut m, "model.clock_mhz_sum", clock_mhz, "MHz");
    push(&mut m, "model.power_uw_sum", power_uw, "uW");
    push(&mut m, "model.final_cycles_sum", cycles as f64, "count");
    push(
        &mut m,
        "trace.overhead_ratio",
        ratio(replay_wall, sweep_wall),
        "ratio",
    );
    m
}

/// Writes the span file and runs `wbsn-trace-check` on it.
fn write_and_check_trace(spans: &Spans, args: &Args) -> Result<(), String> {
    if let Some(dir) = args.trace_out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&args.trace_out, spans.to_json())
        .map_err(|e| format!("write {}: {e}", args.trace_out.display()))?;
    let checker = args
        .trace_check
        .as_ref()
        .ok_or("a traced run needs --trace-check <wbsn-trace-check binary>")?;
    let out = Command::new(checker)
        .arg(&args.trace_out)
        .output()
        .map_err(|e| format!("run {}: {e}", checker.display()))?;
    eprint!("{}", String::from_utf8_lossy(&out.stdout));
    if out.status.success() {
        Ok(())
    } else {
        Err(format!(
            "wbsn-trace-check rejected {}: {}",
            args.trace_out.display(),
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

fn print_result(verdict: &Verdict, extra_problems: &[String], metrics: &Metrics) -> ExitCode {
    for p in verdict.problems.iter().chain(extra_problems) {
        eprintln!("CHECK FAILED: {p}");
    }
    let correct = verdict.failed == 0 && extra_problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wbsn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let duration_s = args.duration_s.unwrap_or(workload.duration_s());

    // Set-up: everything before the grid is submitted. The first pass
    // counts from process start; the repetitions redo the same work.
    let params = ClassifierParams::default_trained();
    let phases = workload.phases(args.seed, duration_s);
    let mut setup = vec![process_start.elapsed().as_secs_f64()];
    for _ in 1..SETUP_REPS {
        let start = Instant::now();
        std::hint::black_box((
            ClassifierParams::default_trained(),
            workload.phases(args.seed, duration_s),
        ));
        setup.push(start.elapsed().as_secs_f64());
    }
    let options = SweepOptions {
        workers: Some(workload.workers()),
    };
    eprintln!(
        "# {}: seed {:#x}, {duration_s} s simulated per cell, {} workers, trace {}",
        workload.name(),
        args.seed,
        workload.workers(),
        u8::from(args.trace)
    );

    if !args.trace {
        // Later sweeps are compared with the first as they finish and then
        // dropped, so peak memory does not grow with the sweep count.
        let start = Instant::now();
        let (first, wall) = run_grid(&phases, &params, &options);
        eprintln!("# sweep 0: {wall:.3} s");
        // Peak memory of set-up plus one grid, whatever the sweep count.
        let rss = peak_rss_mb();
        let mut walls = vec![wall];
        let mut repeats: Vec<Vec<bool>> = Vec::new();
        while walls.len() < MIN_SWEEPS || start.elapsed().as_secs_f64() < args.seconds {
            let (report, wall) = run_grid(&phases, &params, &options);
            eprintln!("# sweep {}: {wall:.3} s", walls.len());
            repeats.push(
                report
                    .outcomes
                    .iter()
                    .zip(&first.outcomes)
                    .map(|(a, b)| same_result(a, b))
                    .collect(),
            );
            walls.push(wall);
        }
        let verdict = verify(
            &first,
            &repeats,
            &params,
            Depth::Check,
            args.wrong_period,
            None,
        );
        let attempted = verdict.attempted.max(1) as f64;
        let mut metrics = Metrics::new();
        push(&mut metrics, "sweep_wall_s", median(&walls), "s");
        push(&mut metrics, "setup_s", median(&setup), "s");
        push(&mut metrics, "peak_rss_mb", rss.unwrap_or(0.0), "MB");
        push(
            &mut metrics,
            "pass_ratio",
            (attempted - verdict.failed as f64) / attempted,
            "ratio",
        );
        let extra: Vec<String> = match rss {
            Some(_) => Vec::new(),
            None => vec!["peak RSS unavailable (no /proc/self/status)".to_string()],
        };
        return print_result(&verdict, &extra, &metrics);
    }

    let mut spans = Spans::new(process_start);
    let sweep_start = Instant::now();
    let (report, sweep_wall) = run_grid(&phases, &params, &options);
    spans.record(
        &format!("sweep {}", workload.name()),
        "run",
        sweep_start,
        Instant::now(),
        vec![("workers", report.workers.to_string())],
    );
    eprintln!("# sweep: {sweep_wall:.3} s");
    let replay_start = Instant::now();
    let verdict = verify(
        &report,
        &[],
        &params,
        Depth::Profile,
        args.wrong_period,
        Some(&mut spans),
    );
    let replay_end = Instant::now();
    spans.record(
        &format!("replay {}", workload.name()),
        "run",
        replay_start,
        replay_end,
        vec![("seed", args.seed.to_string())],
    );
    let replay_wall = (replay_end - replay_start).as_secs_f64();
    let metrics = layer_metrics(&report, sweep_wall, replay_wall, &verdict.replays);
    let extra: Vec<String> = write_and_check_trace(&spans, &args)
        .err()
        .into_iter()
        .collect();
    print_result(&verdict, &extra, &metrics)
}
