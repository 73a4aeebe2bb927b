//! The sweep driver: runs a grid of measurement cells through the
//! parallel sweep engine and prints its table.
//!
//! Usage: `cargo run --release -p wbsn-bench --bin sweep -- [options]`
//!
//! Options:
//! * `--grid table1|fig6|fig7|ablations|sensitivity` — one table of the
//!   evaluation, printed to stdout exactly as the committed
//!   `results_<name>.txt`. Without it the driver runs the perf grid
//!   behind `BENCH_sweep.json`, shaped by the next three options.
//! * `--benchmarks mf,mmd,rpclass` — perf-grid rows (default: all).
//! * `--variants sc,mc,busy` — perf-grid columns (default: all).
//! * `--no-fix-cells` — drop the scheduled/forwarding variants of the
//!   hardware-sync cells (the default grid includes them so the record
//!   diffs the load-use stall bucket before and after each fix).
//! * `--duration <s>` — observation window in simulated seconds, finite
//!   and > 0 (default: the grid's paper window; 60 s for the perf grid).
//! * `--workers <n>` — worker threads, ≥ 1 (default: host parallelism).
//! * `--json <path>` — write the sweep record there (default: none).
//!
//! A bad option exits 2 before any cell runs. A failed cell exits 1;
//! a named grid then prints one `FAILED:` line per failed cell instead
//! of its table.

mod grids;

use grids::Grid;
use wbsn_bench::{
    run_sweep, BenchmarkId, ExperimentConfig, RunVariant, SweepCell, SweepOptions, SweepReport,
};
use wbsn_kernels::ClassifierParams;

fn parse_benchmark(name: &str) -> BenchmarkId {
    match name {
        "mf" => BenchmarkId::Mf,
        "mmd" => BenchmarkId::Mmd,
        "rpclass" => BenchmarkId::RpClass,
        other => die(&format!("unknown benchmark {other:?} (mf, mmd, rpclass)")),
    }
}

fn parse_variant(name: &str) -> RunVariant {
    match name {
        "sc" => RunVariant::SingleCore,
        "mc" => RunVariant::MultiCoreSync,
        "busy" => RunVariant::MultiCoreBusyWait,
        other => die(&format!("unknown variant {other:?} (sc, mc, busy)")),
    }
}

fn parse_grid(name: &str) -> Grid {
    Grid::ALL
        .into_iter()
        .find(|g| g.name() == name)
        .unwrap_or_else(|| {
            let names: Vec<&str> = Grid::ALL.iter().map(|g| g.name()).collect();
            die(&format!("unknown grid {name:?} ({})", names.join(", ")))
        })
}

fn die(message: &str) -> ! {
    eprintln!("sweep: {message}");
    std::process::exit(2);
}

/// The perf grid: every (benchmark × variant) pair, plus a scheduled and
/// a forwarding copy of each hardware-sync cell when `fix_cells` is set.
fn perf_cells(
    benchmarks: &[BenchmarkId],
    variants: &[RunVariant],
    fix_cells: bool,
    config: &ExperimentConfig,
) -> Vec<SweepCell> {
    let mut cells: Vec<SweepCell> = benchmarks
        .iter()
        .flat_map(|&benchmark| {
            variants
                .iter()
                .map(move |&variant| SweepCell::new(benchmark, variant, config.clone()))
        })
        .collect();
    if fix_cells {
        // Scheduled and forwarding variants of every hardware-sync cell:
        // the record pairs each with its baseline and diffs the load-use
        // stall bucket and the power integral.
        let baselines: Vec<SweepCell> = cells
            .iter()
            .filter(|c| c.variant == RunVariant::MultiCoreSync)
            .cloned()
            .collect();
        for base in baselines {
            let mut scheduled = base.clone();
            scheduled.config.schedule = true;
            cells.push(scheduled);
            let mut forwarded = base.clone();
            forwarded.config.forwarding = true;
            cells.push(forwarded);
        }
    }
    cells
}

/// The perf grid's table: one row per cell, failed cells included.
fn print_perf_table(report: &SweepReport) {
    println!(
        "{:<10} {:<14} {:>10} {:>8} {:>12} {:>14}",
        "benchmark", "config", "f (MHz)", "V", "power (uW)", "cycles"
    );
    for outcome in &report.outcomes {
        let (benchmark, variant) = (outcome.cell.benchmark, outcome.cell.variant);
        let mut label = variant.label().to_string();
        if outcome.cell.config.schedule {
            label.push_str(" +sched");
        }
        if outcome.cell.config.forwarding {
            label.push_str(" +fwd");
        }
        match &outcome.result {
            Ok(m) => println!(
                "{:<10} {:<14} {:>10.2} {:>8.1} {:>12.2} {:>14}",
                benchmark.name(),
                label,
                m.clock_hz / 1e6,
                m.voltage,
                m.power_uw(),
                m.stats.cycles
            ),
            Err(e) => println!("{:<10} {:<14} FAILED: {e}", benchmark.name(), label),
        }
    }
}

fn main() {
    let mut grid: Option<Grid> = None;
    let mut benchmarks: Option<Vec<BenchmarkId>> = None;
    let mut variants: Option<Vec<RunVariant>> = None;
    let mut fix_cells = true;
    let mut duration_s: Option<f64> = None;
    let mut options = SweepOptions::default();
    let mut json_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--grid" => grid = Some(parse_grid(&value("--grid"))),
            "--benchmarks" => {
                benchmarks = Some(
                    value("--benchmarks")
                        .split(',')
                        .map(parse_benchmark)
                        .collect(),
                );
            }
            "--variants" => {
                variants = Some(value("--variants").split(',').map(parse_variant).collect());
            }
            "--no-fix-cells" => fix_cells = false,
            "--duration" => {
                let seconds = value("--duration").parse::<f64>().ok();
                duration_s = Some(
                    seconds
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| die("--duration needs a finite number of seconds > 0")),
                );
            }
            "--workers" => {
                let count = value("--workers").parse::<usize>().ok();
                options.workers = Some(
                    count
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| die("--workers needs a count ≥ 1")),
                );
            }
            "--json" => json_path = Some(value("--json")),
            other => die(&format!("unknown option {other:?}")),
        }
    }
    if grid.is_some() && (benchmarks.is_some() || variants.is_some() || !fix_cells) {
        die("--benchmarks, --variants and --no-fix-cells shape the perf grid; --grid takes none");
    }

    let config = ExperimentConfig {
        duration_s: duration_s.unwrap_or(grid.map_or(60.0, Grid::default_duration_s)),
        ..ExperimentConfig::default()
    };
    let params = ClassifierParams::default_trained();
    let report = match grid {
        Some(grid) => {
            let report = grid.run(&config, &params, &options);
            match grid.render(&config, &report) {
                Ok(table) => print!("{table}"),
                Err(failed) => failed.iter().for_each(|f| println!("FAILED: {f}")),
            }
            report
        }
        None => {
            let benchmarks = benchmarks.unwrap_or_else(|| BenchmarkId::ALL.to_vec());
            let variants = variants.unwrap_or_else(|| {
                vec![
                    RunVariant::SingleCore,
                    RunVariant::MultiCoreSync,
                    RunVariant::MultiCoreBusyWait,
                ]
            });
            let cells = perf_cells(&benchmarks, &variants, fix_cells, &config);
            eprintln!(
                "# sweep driver — {} cells ({} benchmarks x {} variants{}), {} s simulated, {} workers",
                cells.len(),
                benchmarks.len(),
                variants.len(),
                if fix_cells { " + fix cells" } else { "" },
                config.duration_s,
                options.resolve_workers()
            );
            let report = run_sweep(cells, &params, &options);
            print_perf_table(&report);
            report
        }
    };

    let mut summary = format!(
        "# sweep: {} cells, {} workers, {:.1}s wall, {:.1} Msim-cycles/s",
        report.outcomes.len(),
        report.workers,
        report.wall_s,
        report.stepped_cycles() as f64 / report.wall_s.max(1e-9) / 1e6
    );
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("sweep: writing {path}: {e}");
            std::process::exit(1);
        }
        summary.push_str(&format!(" -> {path}"));
    }
    eprintln!("{summary}");
    if report.outcomes.iter().any(|o| o.result.is_err()) {
        std::process::exit(1);
    }
}
