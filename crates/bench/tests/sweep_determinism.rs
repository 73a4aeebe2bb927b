//! Determinism of the parallel sweep engine: the worker count is a
//! throughput knob, never a results knob.
//!
//! One grid is swept serially (1 worker) and with 2 and 4 workers; the
//! sweep records must be byte-identical once the wall-clock keys (the
//! only non-deterministic content, all marked with `wall`) are
//! stripped, and the outcome order must equal the submission order in
//! every case. Every record also counts the simulator work behind each
//! cell: at least one run, and at least the measurement window's cycles.

use wbsn_bench::{run_sweep, BenchmarkId, ExperimentConfig, RunVariant, SweepCell, SweepOptions};
use wbsn_kernels::ClassifierParams;

fn grid() -> Vec<SweepCell> {
    let config = ExperimentConfig {
        duration_s: 1.2,
        calibration_s: 1.0,
        ..ExperimentConfig::default()
    };
    vec![
        SweepCell::new(BenchmarkId::Mf, RunVariant::SingleCore, config.clone()),
        SweepCell::new(BenchmarkId::Mf, RunVariant::MultiCoreSync, config.clone()),
        SweepCell::new(BenchmarkId::Mmd, RunVariant::SingleCore, config.clone()),
        SweepCell::new(BenchmarkId::Mmd, RunVariant::MultiCoreSync, config.clone()),
        // Searches without calibration, through a probe that stops at
        // its first overrun.
        SweepCell::new(BenchmarkId::Mf, RunVariant::MultiCoreBusyWait, config),
    ]
}

/// The deterministic view of a sweep record: every line whose key
/// carries a wall-clock marker dropped.
fn stable_view(json: &str) -> String {
    json.lines()
        .filter(|line| !line.contains("wall"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn worker_count_never_changes_results_or_order() {
    let params = ClassifierParams::default_trained();
    let cells = grid();
    let expected_order: Vec<(BenchmarkId, RunVariant)> =
        cells.iter().map(|c| (c.benchmark, c.variant)).collect();

    let mut views: Vec<String> = Vec::new();
    for workers in [1, 2, 4] {
        let report = run_sweep(
            cells.clone(),
            &params,
            &SweepOptions {
                workers: Some(workers),
            },
        );
        // Outcomes land in submission order whatever the worker count.
        let order: Vec<(BenchmarkId, RunVariant)> = report
            .outcomes
            .iter()
            .map(|o| (o.cell.benchmark, o.cell.variant))
            .collect();
        assert_eq!(order, expected_order, "{workers} workers reordered cells");
        for outcome in &report.outcomes {
            let label = format!(
                "{workers} workers: {} {}",
                outcome.cell.benchmark.name(),
                outcome.cell.variant.label()
            );
            let m = match &outcome.result {
                Ok(m) => m,
                Err(e) => panic!("{label} failed: {e}"),
            };
            assert!(m.sim_runs >= 1, "{label}: {} runs", m.sim_runs);
            assert!(
                m.stepped_cycles >= m.stats.cycles,
                "{label}: stepped {} < window {}",
                m.stepped_cycles,
                m.stats.cycles
            );
        }
        views.push(stable_view(&report.to_json()));
    }

    assert_eq!(
        views[0], views[1],
        "serial and 2-worker records diverge beyond wall-clock keys"
    );
    assert_eq!(
        views[0], views[2],
        "serial and 4-worker records diverge beyond wall-clock keys"
    );
    // The stable view still carries the actual measurements.
    assert!(views[0].contains("\"power_uw\""));
    assert!(views[0].contains("\"simulated_cycles\""));
    assert!(views[0].contains("\"stepped_cycles\""));
    assert!(views[0].contains("\"sim_runs\""));
}

#[test]
fn sweep_record_strips_to_a_stable_view() {
    // The markers the stable view relies on: every non-deterministic key
    // carries `wall`, and deterministic keys never do.
    let params = ClassifierParams::default_trained();
    let report = run_sweep(
        vec![grid().remove(0)],
        &params,
        &SweepOptions { workers: Some(1) },
    );
    let json = report.to_json();
    assert!(json.contains("\"wall_s\""));
    assert!(json.contains("\"simulated_cycles_per_wall_s\""));
    let stable = stable_view(&json);
    assert!(!stable.contains("wall"));
    assert!(stable.contains("\"clock_hz\""));
}
