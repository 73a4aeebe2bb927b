//! The evaluation harness: reproduces every table and figure of the
//! paper's evaluation section.
//!
//! * [`experiment`] — the per-configuration measurement flow (calibrate →
//!   select V/f → measure power over a long simulated window).
//! * [`cache`] — the shared build cache: one linked image per distinct
//!   `(benchmark, architecture, BuildOptions)` key.
//! * [`sweep`] — the parallel sweep engine: grids of measurement cells
//!   sharded across a worker pool with deterministic, grid-ordered
//!   results and a machine-readable sweep record.
//! * The `sweep` binary drives it. `sweep --grid <name>` prints one
//!   table of the evaluation: `table1` (Table I: SC vs MC execution
//!   details), `fig6` (Fig. 6: power decomposition for SC, MC busy wait
//!   and MC with the proposed synchronization), `fig7` (Fig. 7: RP-CLASS
//!   power vs pathological-beat fraction), and `ablations` and
//!   `sensitivity` (the DESIGN.md studies). Without `--grid` it runs
//!   the perf grid behind `BENCH_sweep.json`.

pub mod cache;
pub mod experiment;
pub mod sweep;

pub use cache::BuildCache;
pub use experiment::{measure, BenchmarkId, ExperimentConfig, Measurement, RunVariant};
pub use sweep::{run_sweep, SweepCell, SweepOptions, SweepReport};
