//! The measurement flow behind every reproduced table and figure.
//!
//! For one `(benchmark, variant)` pair the flow mirrors the paper's
//! §V-A optimization ("the system clock frequency is reduced to the
//! minimum in order to exploit the benefits of VFS"):
//!
//! 1. **Calibrate** — run a short slice of the workload (at most
//!    `calibration_s` seconds of ECG) at a generous reference clock with
//!    the obs sink off and record the *average* active cycles per sample
//!    of the busiest core. That average plus a 10% guard band, clamped to
//!    the 1 MHz platform floor, seeds the search. Busy-wait cores spin
//!    between samples, so their active cycles say nothing about the
//!    requirement: busy-wait searches start at the 1 MHz floor and run no
//!    calibration at all.
//! 2. **Search** — re-run the calibration slice with the sampling period
//!    implied by the candidate clock, climbing in ×1.15 steps (at most 24)
//!    until a run shows no ADC overruns (the paper's real-time condition).
//!    A probe ends at the first ADC period that shows an overrun: its
//!    verdict is known there and the rest of the run would be discarded.
//! 3. **Measure** — run the full observation window at that clock, pick
//!    the lowest voltage whose interconnect-dependent `f_max` covers it,
//!    and integrate the run into the Fig. 6 power decomposition. A run
//!    with residual overruns bumps the clock by ×1.15 and tries again, up
//!    to 6 attempts; the first five end at their first overrun like the
//!    probes, the last runs its whole window so a failure reports the
//!    window's real overrun count. When the window fits inside the
//!    calibration slice, the passing search run *is* the measurement run
//!    and is reused.
//!
//! Every measurement records how many simulator runs it took and how
//! many cycles they simulated ([`Measurement::sim_runs`],
//! [`Measurement::stepped_cycles`]).

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use wbsn_dsp::ecg::{synthesize, EcgConfig, EcgRecording};
use wbsn_kernels::{
    build_mf, build_mmd, build_rpclass, Arch, BuildError, BuildOptions, BuiltApp, ClassifierParams,
    SyncApproach,
};
use wbsn_power::{Activity, Interconnect, OperatingPoint, PowerBreakdown, PowerModel, VfsTable};
use wbsn_sim::{ObsConfig, ObsSummary, Platform, SimError, SimStats};

use crate::cache::BuildCache;

/// Which benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkId {
    /// Three-lead morphological filtering.
    Mf,
    /// Three-lead filtering + delineation.
    Mmd,
    /// Heartbeat classification with triggered delineation.
    RpClass,
}

impl BenchmarkId {
    /// All benchmarks, in Table I order.
    pub const ALL: [BenchmarkId; 3] = [BenchmarkId::Mf, BenchmarkId::Mmd, BenchmarkId::RpClass];

    /// The paper's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::Mf => "3L-MF",
            BenchmarkId::Mmd => "3L-MMD",
            BenchmarkId::RpClass => "RP-CLASS",
        }
    }
}

/// Which platform/synchronization configuration to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunVariant {
    /// Single-core baseline.
    SingleCore,
    /// Multi-core with the proposed HW/SW synchronization.
    MultiCoreSync,
    /// Multi-core with active waiting (Fig. 6's "no synch").
    MultiCoreBusyWait,
}

impl RunVariant {
    fn arch(self) -> Arch {
        match self {
            RunVariant::SingleCore => Arch::SingleCore,
            _ => Arch::MultiCore,
        }
    }

    fn approach(self) -> SyncApproach {
        match self {
            RunVariant::MultiCoreBusyWait => SyncApproach::BusyWait,
            _ => SyncApproach::Hardware,
        }
    }

    fn interconnect(self) -> Interconnect {
        match self {
            RunVariant::SingleCore => Interconnect::Decoder,
            _ => Interconnect::Crossbar,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            RunVariant::SingleCore => "SC",
            RunVariant::MultiCoreSync => "MC",
            RunVariant::MultiCoreBusyWait => "MC (no synch)",
        }
    }
}

/// Experiment-wide knobs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Observation window in simulated seconds (the paper uses 60 s).
    pub duration_s: f64,
    /// ECG sampling rate in Hz.
    pub fs: u32,
    /// Fraction of pathological beats (RP-CLASS input).
    pub pathological_fraction: f64,
    /// Calibration slice length in seconds.
    pub calibration_s: f64,
    /// Disable crossbar broadcasting (ablation).
    pub disable_broadcast: bool,
    /// Disable the lock-step branch-recovery barrier (ablation).
    pub disable_lockstep: bool,
    /// Use the preloaded auto-reload barrier extension instead of the
    /// paper's SINC/SDEC protocol.
    pub preloaded_barrier: bool,
    /// Run the load-latency-aware scheduler over every kernel (the
    /// software fix for the load-use stall bucket).
    pub schedule: bool,
    /// Model a memory→execute bypass in the pipeline (the hardware fix
    /// for the load-use stall bucket).
    pub forwarding: bool,
    /// Input seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            duration_s: 60.0,
            // The paper's CSE inputs are multi-lead recordings sampled at
            // 500 Hz.
            fs: 500,
            pathological_fraction: 0.2,
            calibration_s: 6.0,
            disable_broadcast: false,
            disable_lockstep: false,
            preloaded_barrier: false,
            schedule: false,
            forwarding: false,
            seed: 0xEC60,
        }
    }
}

/// Everything measured for one `(benchmark, variant)` configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The benchmark.
    pub benchmark: BenchmarkId,
    /// The configuration.
    pub variant: RunVariant,
    /// Cores participating.
    pub active_cores: usize,
    /// Instruction banks holding code.
    pub active_im_banks: usize,
    /// Data banks that stay powered.
    pub active_dm_banks: usize,
    /// Fetch requests served by broadcast, percent.
    pub im_broadcast_percent: f64,
    /// Data reads served by broadcast, percent.
    pub dm_broadcast_percent: f64,
    /// Chosen clock in Hz.
    pub clock_hz: f64,
    /// Chosen supply voltage.
    pub voltage: f64,
    /// Static code overhead of the synchronization ISE, percent.
    pub code_overhead_percent: f64,
    /// Run-time share of synchronization instructions, percent.
    pub runtime_overhead_percent: f64,
    /// The Fig. 6 power decomposition.
    pub breakdown: PowerBreakdown,
    /// Raw statistics of the measurement run.
    pub stats: SimStats,
    /// Latency/stall digest of the measurement run (sleep and sync-gap
    /// percentiles, per-cause stall totals).
    pub obs: Option<ObsSummary>,
    /// The powered-instance counts used by the power model.
    pub activity: Activity,
    /// The selected operating point.
    pub op: OperatingPoint,
    /// The platform configuration of the measurement run.
    pub platform_config: wbsn_sim::PlatformConfig,
    /// Simulator runs behind this measurement: the calibration slice, the
    /// search probes and the measurement attempts (a probe reused as the
    /// measurement counts once).
    pub sim_runs: u64,
    /// Cycles those runs simulated; a run stopped at its first ADC
    /// overrun counts up to where it stopped.
    pub stepped_cycles: u64,
}

impl Measurement {
    /// Total average power in µW.
    pub fn power_uw(&self) -> f64 {
        self.breakdown.total_uw()
    }

    /// Re-integrates this run's statistics under a different energy
    /// characterization — the sensitivity-analysis hook: the simulation
    /// is reused, only the per-event energies change.
    pub fn power_with(&self, model: &PowerModel) -> PowerBreakdown {
        model.average_power(
            &self.stats,
            &self.platform_config,
            self.activity,
            self.op,
            self.clock_hz,
        )
    }
}

/// Errors of the measurement flow.
#[derive(Debug)]
pub enum MeasureError {
    /// The application failed to build.
    Build(BuildError),
    /// The simulator faulted.
    Sim(SimError),
    /// No operating point satisfies the required clock.
    Infeasible {
        /// The clock that could not be met.
        required_hz: f64,
    },
    /// Real-time violations persisted after retries.
    Overruns {
        /// Overruns over the whole observation window of the last
        /// attempt (that attempt always runs to the end of its window).
        overruns: u64,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Build(e) => write!(f, "build failed: {e}"),
            MeasureError::Sim(e) => write!(f, "simulation failed: {e}"),
            MeasureError::Infeasible { required_hz } => {
                write!(f, "no operating point reaches {required_hz:.0} Hz")
            }
            MeasureError::Overruns { overruns } => {
                write!(f, "{overruns} ADC overruns at the selected clock")
            }
        }
    }
}

impl Error for MeasureError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MeasureError::Build(e) => Some(e),
            MeasureError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for MeasureError {
    fn from(e: BuildError) -> Self {
        MeasureError::Build(e)
    }
}

impl From<SimError> for MeasureError {
    fn from(e: SimError) -> Self {
        MeasureError::Sim(e)
    }
}

/// The image-build options of `variant` under `config` with the ADC
/// sampling every `period` cycles.
fn build_options(variant: RunVariant, config: &ExperimentConfig, period: u64) -> BuildOptions {
    BuildOptions {
        approach: variant.approach(),
        broadcast: !config.disable_broadcast,
        lockstep: !config.disable_lockstep,
        barrier: if config.preloaded_barrier {
            wbsn_kernels::app::BarrierStyle::Preloaded
        } else {
            wbsn_kernels::app::BarrierStyle::SincSdec
        },
        schedule: config.schedule,
        adc_period_cycles: period,
    }
}

fn recording(config: &ExperimentConfig, seconds: f64) -> EcgRecording {
    synthesize(&EcgConfig {
        fs: config.fs,
        duration_s: seconds,
        pathological_fraction: config.pathological_fraction,
        seed: config.seed,
        ..EcgConfig::healthy_60s()
    })
}

/// Builds one benchmark for one architecture — the single entry point
/// the [`BuildCache`](crate::cache::BuildCache) deduplicates.
pub(crate) fn build_app(
    benchmark: BenchmarkId,
    arch: Arch,
    options: &BuildOptions,
    params: &ClassifierParams,
) -> Result<BuiltApp, BuildError> {
    match benchmark {
        BenchmarkId::Mf => build_mf(arch, options),
        BenchmarkId::Mmd => build_mmd(arch, options),
        BenchmarkId::RpClass => build_rpclass(arch, options, params),
    }
}

/// How much of a window a run simulates, and with which sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// The calibration slice: only its core statistics are read, so the
    /// obs sink stays off.
    Calibration,
    /// A search probe or a measurement attempt whose failure is
    /// discarded: it ends at the first ADC period that shows an overrun,
    /// and otherwise completes the window like [`Run::Full`].
    Probe,
    /// The whole window with the counting sink, overruns or not.
    Full,
}

/// What a measurement simulated: runs and the cycles they stepped.
#[derive(Debug, Default)]
struct Tally {
    runs: u64,
    cycles: u64,
}

fn run_window(
    app: &BuiltApp,
    leads: Vec<Vec<i16>>,
    period: u64,
    forwarding: bool,
    run: Run,
    tally: &mut Tally,
) -> Result<Platform, SimError> {
    let samples = leads[0].len() as u64;
    let start = app.config.adc.start_cycle;
    let total = start + samples * period;
    let mut platform = app.platform(leads)?;
    // Forwarding is a platform property, not a build property: setting
    // it here keeps the build-cache keys clean (the image is identical
    // with and without the bypass).
    platform.set_forwarding(forwarding);
    // The counting sink is cheap enough to leave on for every cell; its
    // histograms become the per-cell latency digest of the sweep record.
    // Obs hooks are write-only, so leaving it off changes no statistic.
    if run != Run::Calibration {
        platform.enable_obs(ObsConfig::counting_only());
    }
    tally.runs += 1;
    if run == Run::Probe {
        // Stepping to each ADC tick in turn is the same simulation as one
        // `run(total)`: `run` resumes exactly where the last call stopped.
        for k in 0..samples {
            platform.run(start + k * period)?;
            if platform.adc_overruns() > 0 {
                tally.cycles += platform.stats().cycles;
                return Ok(platform);
            }
        }
    }
    platform.run(total)?;
    platform.idle_until(total);
    platform.finish_obs();
    tally.cycles += platform.stats().cycles;
    Ok(platform)
}

/// The latency/stall digest of a run's counting sink.
fn obs_summary(platform: &Platform) -> Option<ObsSummary> {
    platform
        .obs()
        .recorder()
        .and_then(|r| r.counting())
        .map(|c| c.summary())
}

/// Prices a finished, overrun-free measurement window run at
/// `clock_hz` on operating point `op`.
fn measurement(
    benchmark: BenchmarkId,
    variant: RunVariant,
    app: &BuiltApp,
    platform: &Platform,
    op: OperatingPoint,
    clock_hz: f64,
    tally: &Tally,
) -> Measurement {
    let stats = platform.stats().clone();
    let activity = Activity::derive(&stats, &app.config, app.active_im_banks());
    let breakdown =
        PowerModel::default().average_power(&stats, &app.config, activity, op, clock_hz);
    Measurement {
        benchmark,
        variant,
        active_cores: app.active_cores,
        active_im_banks: app.active_im_banks(),
        active_dm_banks: activity.dm_banks_powered,
        im_broadcast_percent: stats.im.broadcast_percent(),
        dm_broadcast_percent: stats.dm.broadcast_percent(),
        clock_hz,
        voltage: op.voltage,
        code_overhead_percent: app.code_overhead_percent(),
        runtime_overhead_percent: stats.runtime_overhead_percent(),
        breakdown,
        stats,
        obs: obs_summary(platform),
        activity,
        op,
        platform_config: app.config.clone(),
        sim_runs: tally.runs,
        stepped_cycles: tally.cycles,
    }
}

/// Measures one `(benchmark, variant)` configuration.
///
/// # Errors
///
/// Returns a [`MeasureError`] when the application cannot be built, the
/// simulator faults, or no operating point meets the real-time
/// requirement.
pub fn measure(
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &ExperimentConfig,
    params: &ClassifierParams,
) -> Result<Measurement, MeasureError> {
    measure_cached(benchmark, variant, config, params, &BuildCache::new())
}

/// Guard band on the calibrated clock that seeds the search.
const GUARD: f64 = 0.10;

/// [`measure`] with a shared [`BuildCache`]: sweep grids route every
/// cell through one cache so repeated `(benchmark, arch, options)`
/// builds are linked once (see the cache module docs for why this can
/// never change a measurement).
///
/// # Errors
///
/// Same conditions as [`measure`].
pub fn measure_cached(
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &ExperimentConfig,
    params: &ClassifierParams,
    cache: &BuildCache,
) -> Result<Measurement, MeasureError> {
    let vfs = VfsTable::ninety_nm_low_leakage();
    let interconnect = variant.interconnect();
    let build = |period: u64| {
        let options = build_options(variant, config, period);
        cache.get_or_build(benchmark, variant.arch(), &options, params)
    };

    // 1. Seed the search with the average per-sample demand (measured at
    // a generous reference clock where real time trivially holds).
    // Busy-wait cores spin between samples, so their active cycles say
    // nothing about the clock requirement; those searches start from the
    // platform's clock floor without a calibration run.
    let calib = recording(config, config.calibration_s.min(config.duration_s));
    let mut tally = Tally::default();
    let mut required_hz = if variant.approach() == SyncApproach::BusyWait {
        vfs.min_clock_hz
    } else {
        let calib_period = 20_000u64;
        let app = build(calib_period)?;
        let platform = run_window(
            &app,
            calib.leads.clone(),
            calib_period,
            config.forwarding,
            Run::Calibration,
            &mut tally,
        )?;
        let stats = platform.stats();
        let samples = stats.adc_samples.max(1) as f64;
        let avg_window = stats
            .cores
            .iter()
            .map(|c| c.active_cycles as f64 / samples)
            .fold(0.0f64, f64::max);
        vfs.clamp_clock(avg_window * config.fs as f64 * (1.0 + GUARD))
    };

    // 2. Feasibility search: the minimum clock is the lowest at which a
    // calibration slice shows no ADC overruns — the paper's "meeting
    // real-time constraints" condition (work may pipeline across
    // sampling periods thanks to the data registers and buffering, so
    // worst-window heuristics alone are too conservative).
    let mut feasible_run: Option<(u64, Arc<BuiltApp>, Platform)> = None;
    for _ in 0..24 {
        let period = (required_hz / config.fs as f64).round() as u64;
        let app = build(period)?;
        let platform = run_window(
            &app,
            calib.leads.clone(),
            period,
            config.forwarding,
            Run::Probe,
            &mut tally,
        )?;
        if platform.adc_overruns() == 0 {
            feasible_run = Some((period, app, platform));
            break;
        }
        required_hz *= 1.15;
    }

    // 3. Measurement runs; bump the clock on residual overruns (the
    // calibration slice may have missed the worst window).
    let full = recording(config, config.duration_s);
    // When the observation window fits inside the calibration slice the
    // recordings are identical, so the successful feasibility run IS the
    // measurement run (the simulator is deterministic): reuse it instead
    // of stepping the same window twice.
    let mut cached = match feasible_run {
        Some(run) if calib.leads == full.leads => Some(run),
        _ => None,
    };
    const ATTEMPTS: usize = 6;
    let mut overruns = 0;
    for attempt in 0..ATTEMPTS {
        let op: OperatingPoint = vfs
            .min_point_for(required_hz, interconnect)
            .ok_or(MeasureError::Infeasible { required_hz })?;
        let period = (required_hz / config.fs as f64).round() as u64;
        let (app, platform) = match cached.take() {
            Some((p, app, platform)) if p == period => (app, platform),
            _ => {
                // Only the last attempt's overrun count is ever reported,
                // so only that attempt runs on past its first overrun.
                let run = if attempt + 1 == ATTEMPTS {
                    Run::Full
                } else {
                    Run::Probe
                };
                let app = build(period)?;
                let platform = run_window(
                    &app,
                    full.leads.clone(),
                    period,
                    config.forwarding,
                    run,
                    &mut tally,
                )?;
                (app, platform)
            }
        };
        overruns = platform.adc_overruns();
        if overruns > 0 {
            required_hz *= 1.15;
            continue;
        }
        return Ok(measurement(
            benchmark,
            variant,
            &app,
            &platform,
            op,
            required_hz,
            &tally,
        ));
    }
    Err(MeasureError::Overruns { overruns })
}

/// Measures a configuration pinned to a given clock instead of searching
/// for the minimum (the `--no-vfs` ablation: same workload, baseline
/// operating point), building through the shared [`BuildCache`] like
/// [`measure_cached`].
///
/// # Errors
///
/// Same conditions as [`measure`].
pub fn measure_at_clock_cached(
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &ExperimentConfig,
    params: &ClassifierParams,
    clock_hz: f64,
    cache: &BuildCache,
) -> Result<Measurement, MeasureError> {
    let vfs = VfsTable::ninety_nm_low_leakage();
    let op =
        vfs.min_point_for(clock_hz, variant.interconnect())
            .ok_or(MeasureError::Infeasible {
                required_hz: clock_hz,
            })?;
    let period = (clock_hz / config.fs as f64).round() as u64;
    let options = build_options(variant, config, period);
    let app = cache.get_or_build(benchmark, variant.arch(), &options, params)?;
    let full = recording(config, config.duration_s);
    let mut tally = Tally::default();
    let platform = run_window(
        &app,
        full.leads,
        period,
        config.forwarding,
        Run::Full,
        &mut tally,
    )?;
    if platform.adc_overruns() > 0 {
        return Err(MeasureError::Overruns {
            overruns: platform.adc_overruns(),
        });
    }
    Ok(measurement(
        benchmark, variant, &app, &platform, op, clock_hz, &tally,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            duration_s: 3.0,
            calibration_s: 2.0,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn mf_sc_vs_mc_shows_the_paper_shape() {
        let params = ClassifierParams::default_trained();
        let config = quick_config();
        let sc = measure(BenchmarkId::Mf, RunVariant::SingleCore, &config, &params).unwrap();
        let mc = measure(BenchmarkId::Mf, RunVariant::MultiCoreSync, &config, &params).unwrap();
        // VFS: the multi-core platform runs slower and at lower voltage.
        assert!(mc.clock_hz < sc.clock_hz);
        assert!(mc.voltage < sc.voltage);
        // And saves power overall.
        assert!(
            mc.power_uw() < sc.power_uw(),
            "MC {:.1} µW vs SC {:.1} µW",
            mc.power_uw(),
            sc.power_uw()
        );
        // Broadcasting only exists on the multi-core platform.
        assert_eq!(sc.im_broadcast_percent, 0.0);
        assert!(mc.im_broadcast_percent > 10.0);
        // Table I structure: SC powers fewer DM banks.
        assert_eq!(mc.active_dm_banks, 16);
        assert!(sc.active_dm_banks < 16);
        // Overheads are small.
        assert!(mc.code_overhead_percent < 10.0);
        assert!(mc.runtime_overhead_percent < 10.0);
        // The counting sink rode along: the multi-core run observed
        // real sleeps and its percentiles are ordered.
        let obs = mc.obs.expect("measurement carries the latency digest");
        assert!(obs.sleep_count > 0, "{obs:?}");
        assert!(obs.sleep_p99_cycles >= obs.sleep_p50_cycles, "{obs:?}");
        assert!(
            obs.sync_gap_p99_cycles >= obs.sync_gap_p50_cycles,
            "{obs:?}"
        );
    }

    /// The image of `(benchmark, variant)` at ADC period `period` and the
    /// leads of a `duration_s` window under the default configuration.
    fn window(
        benchmark: BenchmarkId,
        variant: RunVariant,
        duration_s: f64,
        period: u64,
    ) -> (BuiltApp, Vec<Vec<i16>>) {
        let config = ExperimentConfig {
            duration_s,
            ..ExperimentConfig::default()
        };
        let options = build_options(variant, &config, period);
        let params = ClassifierParams::default_trained();
        let app = build_app(benchmark, variant.arch(), &options, &params).unwrap();
        (app, recording(&config, duration_s).leads)
    }

    #[test]
    fn failing_probe_stops_at_its_first_overrun() {
        let period = 2000;
        let (app, leads) = window(BenchmarkId::Mmd, RunVariant::MultiCoreBusyWait, 0.5, period);
        let total = app.config.adc.start_cycle + leads[0].len() as u64 * period;
        let full = run_window(
            &app,
            leads.clone(),
            period,
            false,
            Run::Full,
            &mut Tally::default(),
        )
        .unwrap();
        assert_eq!(full.stats().cycles, total);
        assert_eq!(full.adc_overruns(), 96);

        let mut tally = Tally::default();
        let probe = run_window(&app, leads, period, false, Run::Probe, &mut tally).unwrap();
        assert!(probe.adc_overruns() >= 1);
        // The first overrun lands about 23 000 cycles into the 501 000.
        let stopped = probe.stats().cycles;
        assert!(stopped < total / 10, "stopped at {stopped} of {total}");
        assert_eq!((tally.runs, tally.cycles), (1, stopped));
    }

    #[test]
    fn passing_probe_is_the_unchunked_run() {
        for (benchmark, variant, period) in [
            // SC 3L-MF's minimum period on the 5 s sweep grid.
            (BenchmarkId::Mf, RunVariant::SingleCore, 4613),
            (BenchmarkId::Mmd, RunVariant::MultiCoreSync, 2000),
        ] {
            let (app, leads) = window(benchmark, variant, 0.5, period);
            let mut tally = Tally::default();
            let full =
                run_window(&app, leads.clone(), period, false, Run::Full, &mut tally).unwrap();
            let probe = run_window(&app, leads, period, false, Run::Probe, &mut tally).unwrap();
            let label = format!("{} {}", benchmark.name(), variant.label());
            assert_eq!(probe.adc_overruns(), 0, "{label}");
            assert_eq!(probe.stats(), full.stats(), "{label}");
            assert!(obs_summary(&probe).is_some(), "{label}");
            assert_eq!(obs_summary(&probe), obs_summary(&full), "{label}");
            assert_eq!(tally.cycles, 2 * full.stats().cycles, "{label}");
        }
    }

    #[test]
    fn busy_wait_search_builds_no_calibration_image() {
        let params = ClassifierParams::default_trained();
        let config = ExperimentConfig {
            duration_s: 0.5,
            ..ExperimentConfig::default()
        };
        let variant = RunVariant::MultiCoreBusyWait;
        let cache = BuildCache::new();
        let m = measure_cached(BenchmarkId::Mf, variant, &config, &params, &cache).unwrap();
        // Period 2000 fails, period 2300 passes and is reused as the
        // measurement: two runs, two images, none at the calibration
        // period.
        assert_eq!(m.sim_runs, 2);
        assert_eq!(cache.misses(), 2);
        for period in [2000, 2300] {
            let options = build_options(variant, &config, period);
            cache
                .get_or_build(BenchmarkId::Mf, variant.arch(), &options, &params)
                .unwrap();
        }
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert!(m.stepped_cycles > m.stats.cycles);
    }
}
