//! The benchmark's workloads: named sweep grids of the paper's
//! evaluation, each submitted to `wbsn_bench::run_sweep` in one or more
//! phases.

use wbsn_bench::{BenchmarkId, ExperimentConfig, RunVariant, SweepCell};

/// Fig. 7's pathological-beat fractions (the `fig7` binary's grid).
pub const FIG7_FRACTIONS: [f64; 7] = [0.0, 0.10, 0.20, 0.25, 0.33, 0.50, 1.00];

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I: {3L-MF, 3L-MMD, RP-CLASS} × {SC, MC hardware sync}.
    Table1,
    /// Fig. 6's middle bars: every benchmark × MC without synchronization.
    Busywait,
    /// Fig. 7: RP-CLASS × {SC, MC} over the pathological fractions.
    Fig7,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Table1, Workload::Busywait, Workload::Fig7];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in the record.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Busywait => "busywait",
            Workload::Fig7 => "fig7",
        }
    }

    /// Simulated seconds per cell. All three sit at or below the 6 s
    /// calibration slice, so `measure_cached` reuses its last passing
    /// search run as the measurement instead of running the window again.
    pub fn duration_s(self) -> f64 {
        match self {
            Workload::Table1 => 2.0,
            Workload::Busywait => 0.5,
            Workload::Fig7 => 2.0,
        }
    }

    /// Sweep worker threads.
    pub fn workers(self) -> usize {
        match self {
            Workload::Table1 | Workload::Busywait => 1,
            Workload::Fig7 => 2,
        }
    }

    /// The grid, as the phases submitted to `run_sweep` one after the
    /// other. Fig. 7 runs its SC baseline before its MC points, like the
    /// `fig7` binary, so the phase barrier is part of its wall time.
    pub fn phases(self, seed: u64, duration_s: f64) -> Vec<Vec<SweepCell>> {
        let config = |fraction: f64| ExperimentConfig {
            duration_s,
            pathological_fraction: fraction,
            seed,
            ..ExperimentConfig::default()
        };
        let row = |variants: &[RunVariant]| -> Vec<SweepCell> {
            BenchmarkId::ALL
                .into_iter()
                .flat_map(|b| variants.iter().map(move |&v| (b, v)))
                .map(|(b, v)| SweepCell::new(b, v, config(0.2)))
                .collect()
        };
        match self {
            Workload::Table1 => vec![row(&[RunVariant::SingleCore, RunVariant::MultiCoreSync])],
            Workload::Busywait => vec![row(&[RunVariant::MultiCoreBusyWait])],
            Workload::Fig7 => [RunVariant::SingleCore, RunVariant::MultiCoreSync]
                .into_iter()
                .map(|v| {
                    FIG7_FRACTIONS
                        .into_iter()
                        .map(|f| SweepCell::new(BenchmarkId::RpClass, v, config(f)))
                        .collect()
                })
                .collect(),
        }
    }
}
