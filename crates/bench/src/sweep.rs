//! The parallel experiment sweep engine.
//!
//! Every table of the evaluation is a grid of independent measurement
//! cells — `(benchmark, variant, config)` triples fed to
//! [`measure_cached`] (or [`measure_at_clock_cached`] for
//! clock-pinned ablations). This module runs such grids:
//!
//! * cells are sharded across a fixed-size worker pool (the vendored
//!   [`threadpool`] shim), one OS thread per worker;
//! * every cell routes its builds through one shared
//!   [`BuildCache`], so repeated images are linked once per sweep;
//! * results land in their input slot: the report's order equals the
//!   grid's order regardless of worker count or completion order, and
//!   the measurements themselves are byte-identical to serial runs (the
//!   simulator is deterministic and cells share no mutable state);
//! * a machine-readable perf record ([`SweepReport::to_json`]) captures
//!   the grid, per-cell results and throughput for cross-run
//!   comparison. Wall-clock fields are the only non-deterministic
//!   content and every such key carries a `wall_` / `_per_wall_s`
//!   marker so differential tooling can strip them.
//!
//! Worker count resolution: explicit [`SweepOptions::workers`], else the
//! host's available parallelism.

use std::sync::{mpsc, Arc};
use std::time::Instant;

use threadpool::ThreadPool;
use wbsn_kernels::ClassifierParams;
use wbsn_sim::obs::json;

use crate::cache::BuildCache;
use crate::experiment::{
    measure_at_clock_cached, measure_cached, BenchmarkId, ExperimentConfig, MeasureError,
    Measurement, RunVariant,
};

/// One cell of a sweep grid.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The benchmark to measure.
    pub benchmark: BenchmarkId,
    /// The platform/synchronization configuration.
    pub variant: RunVariant,
    /// The experiment knobs for this cell.
    pub config: ExperimentConfig,
    /// Pin the run to this clock instead of searching for the minimum
    /// (the [`measure_at_clock_cached`] ablations).
    pub pinned_clock_hz: Option<f64>,
}

impl SweepCell {
    /// A minimum-clock-search cell.
    pub fn new(benchmark: BenchmarkId, variant: RunVariant, config: ExperimentConfig) -> SweepCell {
        SweepCell {
            benchmark,
            variant,
            config,
            pinned_clock_hz: None,
        }
    }

    /// A cell pinned to a given clock (the no-VFS ablations).
    pub fn pinned(
        benchmark: BenchmarkId,
        variant: RunVariant,
        config: ExperimentConfig,
        clock_hz: f64,
    ) -> SweepCell {
        SweepCell {
            benchmark,
            variant,
            config,
            pinned_clock_hz: Some(clock_hz),
        }
    }
}

/// One finished cell: the input, its result and its wall time.
#[derive(Debug)]
pub struct CellOutcome {
    /// The cell as submitted.
    pub cell: SweepCell,
    /// The measurement, or the error string of the failed flow
    /// (stringified so outcomes stay `Send` + cheap to clone around).
    pub result: Result<Measurement, String>,
    /// Wall-clock seconds this cell took (non-deterministic).
    pub wall_s: f64,
}

/// Sweep-wide knobs.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` means the host's available parallelism.
    pub workers: Option<usize>,
}

impl SweepOptions {
    /// The effective worker count (≥ 1).
    pub fn resolve_workers(&self) -> usize {
        self.workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1)
    }
}

/// The result of one sweep: outcomes in grid order plus run metadata.
#[derive(Debug)]
pub struct SweepReport {
    /// Finished cells, in the exact order they were submitted.
    pub outcomes: Vec<CellOutcome>,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole sweep (non-deterministic).
    pub wall_s: f64,
    /// Build-cache lookups served without building.
    pub cache_hits: u64,
    /// Build-cache lookups that built an image.
    pub cache_misses: u64,
}

impl SweepReport {
    /// Total cycles of the successful cells' measurement windows.
    pub fn simulated_cycles(&self) -> u64 {
        self.measurements().map(|m| m.stats.cycles).sum()
    }

    /// Total cycles the successful cells simulated, calibration and
    /// search runs included.
    pub fn stepped_cycles(&self) -> u64 {
        self.measurements().map(|m| m.stepped_cycles).sum()
    }

    fn measurements(&self) -> impl Iterator<Item = &Measurement> {
        self.outcomes.iter().filter_map(|o| o.result.as_ref().ok())
    }

    /// Merges another report into this one (grids run in phases — e.g.
    /// clock-pinned cells that need a baseline's result — append their
    /// outcomes and accumulate the counters).
    pub fn merge(&mut self, other: SweepReport) {
        self.outcomes.extend(other.outcomes);
        self.wall_s += other.wall_s;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.workers = self.workers.max(other.workers);
    }

    /// Pairs every baseline cell (no scheduling, no forwarding) with the
    /// fixed cells that differ from it only in those two knobs, for the
    /// record's `hazard_fixes` block: each entry diffs the load-use
    /// stall bucket and the power integral before/after the fix.
    fn hazard_fixes(&self) -> Vec<(&CellOutcome, &CellOutcome, &'static str)> {
        let mut fixes = Vec::new();
        for base in &self.outcomes {
            let c = &base.cell;
            if c.config.schedule || c.config.forwarding || base.result.is_err() {
                continue;
            }
            for fixed in &self.outcomes {
                let f = &fixed.cell;
                let same_cell = f.benchmark == c.benchmark
                    && f.variant == c.variant
                    && f.pinned_clock_hz == c.pinned_clock_hz
                    && f.config.seed == c.config.seed
                    && f.config.duration_s == c.config.duration_s
                    && f.config.pathological_fraction == c.config.pathological_fraction;
                if !same_cell || fixed.result.is_err() {
                    continue;
                }
                let label = match (f.config.schedule, f.config.forwarding) {
                    (true, false) => "schedule",
                    (false, true) => "forwarding",
                    (true, true) => "schedule+forwarding",
                    (false, false) => continue,
                };
                fixes.push((base, fixed, label));
            }
        }
        fixes
    }

    /// Renders the machine-readable sweep record (`BENCH_sweep.json`).
    ///
    /// One key per line; every non-deterministic key contains `wall_` or
    /// `_per_wall_s`, so `grep -v wall` yields a byte-stable view of the
    /// record for differential comparison across runs and worker counts
    /// (`workers` is deliberately excluded for the same reason).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"wbsn-bench-sweep/4\",\n");
        out.push_str(&format!("  \"grid_cells\": {},\n", self.outcomes.len()));
        out.push_str(&format!("  \"wall_s\": {},\n", json::float(self.wall_s)));
        let cycles = self.simulated_cycles();
        out.push_str(&format!("  \"simulated_cycles\": {cycles},\n"));
        out.push_str(&format!(
            "  \"stepped_cycles\": {},\n",
            self.stepped_cycles()
        ));
        out.push_str(&format!(
            "  \"simulated_cycles_per_wall_s\": {},\n",
            json::float(cycles as f64 / self.wall_s.max(1e-9))
        ));
        out.push_str(&format!("  \"build_cache_hits\": {},\n", self.cache_hits));
        out.push_str(&format!(
            "  \"build_cache_misses\": {},\n",
            self.cache_misses
        ));
        out.push_str("  \"cells\": [\n");
        for (i, outcome) in self.outcomes.iter().enumerate() {
            let cell = &outcome.cell;
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"benchmark\": \"{}\",\n",
                cell.benchmark.name()
            ));
            out.push_str(&format!(
                "      \"variant\": \"{}\",\n",
                cell.variant.label()
            ));
            out.push_str(&format!(
                "      \"duration_s\": {},\n",
                json::float(cell.config.duration_s)
            ));
            out.push_str(&format!(
                "      \"pathological_fraction\": {},\n",
                json::float(cell.config.pathological_fraction)
            ));
            out.push_str(&format!("      \"seed\": {},\n", cell.config.seed));
            out.push_str(&format!("      \"schedule\": {},\n", cell.config.schedule));
            out.push_str(&format!(
                "      \"forwarding\": {},\n",
                cell.config.forwarding
            ));
            out.push_str(&format!(
                "      \"pinned_clock_hz\": {},\n",
                match cell.pinned_clock_hz {
                    Some(hz) => json::float(hz),
                    None => "null".to_string(),
                }
            ));
            out.push_str(&format!(
                "      \"wall_s\": {},\n",
                json::float(outcome.wall_s)
            ));
            match &outcome.result {
                Ok(m) => {
                    out.push_str("      \"ok\": true,\n");
                    out.push_str(&format!(
                        "      \"clock_hz\": {},\n",
                        json::float(m.clock_hz)
                    ));
                    out.push_str(&format!("      \"voltage\": {},\n", json::float(m.voltage)));
                    out.push_str(&format!(
                        "      \"power_uw\": {},\n",
                        json::float(m.power_uw())
                    ));
                    out.push_str(&format!(
                        "      \"im_broadcast_percent\": {},\n",
                        json::float(m.im_broadcast_percent)
                    ));
                    out.push_str(&format!(
                        "      \"dm_broadcast_percent\": {},\n",
                        json::float(m.dm_broadcast_percent)
                    ));
                    out.push_str(&format!("      \"active_cores\": {},\n", m.active_cores));
                    out.push_str(&format!("      \"cycles\": {},\n", m.stats.cycles));
                    out.push_str(&format!("      \"sim_runs\": {},\n", m.sim_runs));
                    out.push_str(&format!(
                        "      \"stepped_cycles\": {},\n",
                        m.stepped_cycles
                    ));
                    match &m.obs {
                        Some(s) => {
                            out.push_str("      \"obs\": {\n");
                            out.push_str(&format!("        \"sleep_count\": {},\n", s.sleep_count));
                            out.push_str(&format!(
                                "        \"sleep_p50_cycles\": {},\n",
                                s.sleep_p50_cycles
                            ));
                            out.push_str(&format!(
                                "        \"sleep_p99_cycles\": {},\n",
                                s.sleep_p99_cycles
                            ));
                            out.push_str(&format!(
                                "        \"sync_gap_p50_cycles\": {},\n",
                                s.sync_gap_p50_cycles
                            ));
                            out.push_str(&format!(
                                "        \"sync_gap_p99_cycles\": {},\n",
                                s.sync_gap_p99_cycles
                            ));
                            out.push_str(&format!(
                                "        \"stall_im_cycles\": {},\n",
                                s.stall_im_cycles
                            ));
                            out.push_str(&format!(
                                "        \"stall_dm_cycles\": {},\n",
                                s.stall_dm_cycles
                            ));
                            out.push_str(&format!(
                                "        \"stall_hazard_cycles\": {},\n",
                                s.stall_hazard_cycles
                            ));
                            out.push_str(&format!(
                                "        \"stall_run_p99_cycles\": {}\n",
                                s.stall_run_p99_cycles
                            ));
                            out.push_str("      }\n");
                        }
                        None => out.push_str("      \"obs\": null\n"),
                    }
                }
                Err(e) => {
                    out.push_str("      \"ok\": false,\n");
                    out.push_str(&format!("      \"error\": \"{}\"\n", json::escape(e)));
                }
            }
            out.push_str(if i + 1 < self.outcomes.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        // Before/after view of the load-use stall bucket: one entry per
        // (baseline cell, fix) pair present in the grid.
        let fixes = self.hazard_fixes();
        out.push_str("  \"hazard_fixes\": [\n");
        for (i, (base, fixed, label)) in fixes.iter().enumerate() {
            let (b, f) = match (&base.result, &fixed.result) {
                (Ok(b), Ok(f)) => (b, f),
                _ => unreachable!("hazard_fixes only pairs successful cells"),
            };
            let before = b.obs.map(|s| s.stall_hazard_cycles).unwrap_or(0);
            let after = f.obs.map(|s| s.stall_hazard_cycles).unwrap_or(0);
            let cut = if before > 0 {
                100.0 * (before.saturating_sub(after)) as f64 / before as f64
            } else {
                0.0
            };
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"benchmark\": \"{}\",\n",
                base.cell.benchmark.name()
            ));
            out.push_str(&format!(
                "      \"variant\": \"{}\",\n",
                base.cell.variant.label()
            ));
            out.push_str(&format!("      \"fix\": \"{label}\",\n"));
            out.push_str(&format!(
                "      \"stall_hazard_cycles_before\": {before},\n"
            ));
            out.push_str(&format!("      \"stall_hazard_cycles_after\": {after},\n"));
            out.push_str(&format!(
                "      \"stall_hazard_cut_percent\": {},\n",
                json::float(cut)
            ));
            out.push_str(&format!(
                "      \"power_uw_before\": {},\n",
                json::float(b.power_uw())
            ));
            out.push_str(&format!(
                "      \"power_uw_after\": {},\n",
                json::float(f.power_uw())
            ));
            out.push_str(&format!(
                "      \"clock_hz_before\": {},\n",
                json::float(b.clock_hz)
            ));
            out.push_str(&format!(
                "      \"clock_hz_after\": {}\n",
                json::float(f.clock_hz)
            ));
            out.push_str(if i + 1 < fixes.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs one measurement cell (the worker body).
fn run_cell(cell: &SweepCell, params: &ClassifierParams, cache: &BuildCache) -> CellOutcome {
    let start = Instant::now();
    let result = match cell.pinned_clock_hz {
        Some(clock_hz) => measure_at_clock_cached(
            cell.benchmark,
            cell.variant,
            &cell.config,
            params,
            clock_hz,
            cache,
        ),
        None => measure_cached(cell.benchmark, cell.variant, &cell.config, params, cache),
    };
    CellOutcome {
        cell: cell.clone(),
        result: result.map_err(|e: MeasureError| e.to_string()),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs a grid of cells across the worker pool.
///
/// Results are slotted by submission index: `report.outcomes[i]` always
/// belongs to `cells[i]`, whatever the worker count. With one worker the
/// execution order is exactly the grid order, so serial and parallel
/// sweeps are comparable cell by cell.
pub fn run_sweep(
    cells: Vec<SweepCell>,
    params: &ClassifierParams,
    options: &SweepOptions,
) -> SweepReport {
    let workers = options.resolve_workers();
    let start = Instant::now();
    let cache = Arc::new(BuildCache::new());
    let params = Arc::new(params.clone());
    let count = cells.len();

    let mut slots: Vec<Option<CellOutcome>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    if workers == 1 || count <= 1 {
        // In-line serial path: same code path the workers run, without
        // thread-spawn overhead (and the baseline the determinism tests
        // compare against).
        for (i, cell) in cells.iter().enumerate() {
            slots[i] = Some(run_cell(cell, &params, &cache));
        }
    } else {
        let pool = ThreadPool::new(workers.min(count));
        let (tx, rx) = mpsc::channel::<(usize, CellOutcome)>();
        for (i, cell) in cells.iter().cloned().enumerate() {
            let tx = tx.clone();
            let params = Arc::clone(&params);
            let cache = Arc::clone(&cache);
            pool.execute(move || {
                let outcome = run_cell(&cell, &params, &cache);
                // The main thread keeps the receiver for the whole
                // collection loop, so this send cannot fail.
                let _ = tx.send((i, outcome));
            });
        }
        drop(tx);
        for (i, outcome) in rx {
            slots[i] = Some(outcome);
        }
        pool.join();
        assert_eq!(pool.panic_count(), 0, "sweep worker panicked");
    }

    SweepReport {
        outcomes: slots
            .into_iter()
            .map(|s| s.expect("every cell reports exactly once"))
            .collect(),
        workers,
        wall_s: start.elapsed().as_secs_f64(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid_produces_a_valid_record() {
        let report = run_sweep(
            Vec::new(),
            &ClassifierParams::default_trained(),
            &SweepOptions { workers: Some(1) },
        );
        assert!(report.outcomes.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"wbsn-bench-sweep/4\""));
        assert!(json.contains("\"grid_cells\": 0"));
        assert!(json.contains("\"hazard_fixes\": [\n  ]"));
        assert!(json.ends_with("]\n}\n"));
    }
}
