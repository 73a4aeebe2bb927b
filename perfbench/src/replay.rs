//! Outside-in replay of one sweep cell's reported window.
//!
//! `measure_cached` keeps no timings of its own, so the benchmark
//! re-runs the one window each cell reports through the layers' public
//! calls and times every step: synthesize the recording, build the image
//! through a fresh `BuildCache` (a miss), instantiate the platform, run
//! it with obs off and again with the counting sink, finish the sink and
//! price the run with the power model.
//!
//! The replay also checks the cell: the window must reproduce the cell's
//! `SimStats` and power bit for bit, with no ADC overruns, and lead 0's
//! progress counter must equal the samples delivered. Cycles counted
//! here belong to exactly the run that was timed, which is why the
//! benchmark's simulator rates come from replays and never from
//! `SweepReport::simulated_cycles` (that counts only each cell's last
//! window, not the calibration and search runs that took the time).

use std::time::{Duration, Instant};

use wbsn_bench::sweep::CellOutcome;
use wbsn_bench::{BuildCache, RunVariant};
use wbsn_dsp::ecg::{synthesize, EcgConfig};
use wbsn_kernels::{layout, Arch, BuildOptions, ClassifierParams, SyncApproach};
use wbsn_power::{Activity, Interconnect, PowerModel, VfsTable};
use wbsn_sim::{ObsConfig, SimStats};

use crate::spans::Spans;

/// Which simulator loop a window exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopClass {
    /// The single-core baseline.
    Sc,
    /// Multi-core with hardware synchronization (sleep-heavy).
    McHw,
    /// Multi-core busy-waiting (spin-heavy).
    McBusy,
}

impl LoopClass {
    /// Every class, in record order.
    pub const ALL: [LoopClass; 3] = [LoopClass::Sc, LoopClass::McHw, LoopClass::McBusy];

    /// The class of a sweep variant.
    pub fn of(variant: RunVariant) -> LoopClass {
        match variant {
            RunVariant::SingleCore => LoopClass::Sc,
            RunVariant::MultiCoreSync => LoopClass::McHw,
            RunVariant::MultiCoreBusyWait => LoopClass::McBusy,
        }
    }

    /// The class's metric-name component.
    pub fn key(self) -> &'static str {
        match self {
            LoopClass::Sc => "sc",
            LoopClass::McHw => "mc_hw",
            LoopClass::McBusy => "mc_busy",
        }
    }
}

/// How much of the replay to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// One obs-off run: enough for the output checks.
    Check,
    /// Obs-off and counting runs, each step timed.
    Profile,
}

/// Per-step host times of one replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    /// ECG synthesis of the full window.
    pub synth: Duration,
    /// A fresh `BuildCache::get_or_build` miss.
    pub build: Duration,
    /// `BuiltApp::platform` (the obs-off instance).
    pub setup: Duration,
    /// `run` + `idle_until` with obs off.
    pub run_off: Duration,
    /// The counting run's `BuiltApp::platform` + `enable_obs`.
    pub setup_counting: Duration,
    /// `run` + `idle_until` with the counting sink.
    pub run_counting: Duration,
    /// `finish_obs` of the counting run.
    pub obs: Duration,
    /// `Activity::derive` + `PowerModel::average_power`.
    pub power: Duration,
}

impl StepTimes {
    /// The replayed cost of the window the cell reports: the sweep's
    /// `run_window` builds a platform, enables counting, runs and
    /// finishes the sink.
    pub fn final_window(&self) -> Duration {
        self.setup_counting + self.run_counting + self.obs
    }
}

/// The outcome of replaying one cell.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Loop class of the cell.
    pub class: LoopClass,
    /// Statistics of the obs-off run.
    pub stats: SimStats,
    /// The DSP chain's shared counters `(EVENT_COUNT, BEAT_COUNT,
    /// PATH_COUNT)` at the end of the window.
    pub counters: (u16, u16, u16),
    /// Per-step host times.
    pub times: StepTimes,
    /// Failed output checks (empty when the cell is correct).
    pub problems: Vec<String>,
}

impl Replay {
    /// Instructions retired across all cores.
    pub fn instructions(&self) -> u64 {
        self.stats.cores.iter().map(|c| c.instructions).sum()
    }
}

// The three mappings below mirror `RunVariant`'s, which are private to
// wbsn-bench; the replay must build and price exactly what the cell did.
fn arch(variant: RunVariant) -> Arch {
    match variant {
        RunVariant::SingleCore => Arch::SingleCore,
        _ => Arch::MultiCore,
    }
}

fn interconnect(variant: RunVariant) -> Interconnect {
    match variant {
        RunVariant::SingleCore => Interconnect::Decoder,
        _ => Interconnect::Crossbar,
    }
}

fn approach(variant: RunVariant) -> SyncApproach {
    match variant {
        RunVariant::MultiCoreBusyWait => SyncApproach::BusyWait,
        _ => SyncApproach::Hardware,
    }
}

/// Times `f`, recording it as a span when `spans` is given.
fn step<T>(
    spans: &mut Option<&mut Spans>,
    name: &str,
    total: &mut Duration,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    *total += end - start;
    if let Some(spans) = spans.as_deref_mut() {
        spans.record(name, "step", start, end, Vec::new());
    }
    value
}

/// The cell label used in spans and problem reports.
pub fn cell_label(outcome: &CellOutcome) -> String {
    let cell = &outcome.cell;
    format!(
        "{} {} p={}",
        cell.benchmark.name(),
        cell.variant.label(),
        cell.config.pathological_fraction
    )
}

/// Replays `outcome`'s reported window. `period_skew` is added to the
/// sampling period the cell's clock implies (non-zero only in the
/// self-test, which checks that a wrong period fails the cell).
///
/// Returns an error string for a cell that has no window to replay (its
/// sweep flow failed) or whose replay faulted.
pub fn replay(
    outcome: &CellOutcome,
    params: &ClassifierParams,
    depth: Depth,
    period_skew: u64,
    mut spans: Option<&mut Spans>,
) -> Result<Replay, String> {
    let cell = &outcome.cell;
    let m = outcome.result.as_ref().map_err(|e| e.clone())?;
    let config = &cell.config;
    let mut times = StepTimes::default();

    let recording = step(&mut spans, "synth", &mut times.synth, || {
        synthesize(&EcgConfig {
            fs: config.fs,
            duration_s: config.duration_s,
            pathological_fraction: config.pathological_fraction,
            seed: config.seed,
            ..EcgConfig::healthy_60s()
        })
    });
    let period = (m.clock_hz / config.fs as f64).round() as u64 + period_skew;
    let options = BuildOptions {
        approach: approach(cell.variant),
        adc_period_cycles: period,
        ..BuildOptions::default()
    };
    let app = step(&mut spans, "build", &mut times.build, || {
        BuildCache::new().get_or_build(cell.benchmark, arch(cell.variant), &options, params)
    })
    .map_err(|e| format!("build failed: {e}"))?;
    let samples = recording.leads[0].len() as u64;
    let total = app.config.adc.start_cycle + samples * period;

    let mut platform = step(&mut spans, "setup", &mut times.setup, || {
        app.platform(recording.leads.clone())
    })
    .map_err(|e| format!("platform setup failed: {e}"))?;
    platform.set_forwarding(config.forwarding);
    step(&mut spans, "run", &mut times.run_off, || {
        platform.run(total).map(|_| platform.idle_until(total))
    })
    .map_err(|e| format!("simulation failed: {e}"))?;

    let mut problems = Vec::new();
    if depth == Depth::Profile {
        let mut counting = step(
            &mut spans,
            "setup_counting",
            &mut times.setup_counting,
            || {
                app.platform(recording.leads.clone()).map(|mut p| {
                    p.set_forwarding(config.forwarding);
                    p.enable_obs(ObsConfig::counting_only());
                    p
                })
            },
        )
        .map_err(|e| format!("platform setup failed: {e}"))?;
        step(&mut spans, "run_counting", &mut times.run_counting, || {
            counting.run(total).map(|_| counting.idle_until(total))
        })
        .map_err(|e| format!("simulation failed: {e}"))?;
        step(&mut spans, "obs", &mut times.obs, || counting.finish_obs());
        if counting.stats() != platform.stats() {
            problems.push("counting obs changed the window's statistics".to_string());
        }
    }

    let stats = platform.stats().clone();
    let power_uw = step(&mut spans, "power", &mut times.power, || {
        let vfs = VfsTable::ninety_nm_low_leakage();
        let op = vfs.min_point_for(m.clock_hz, interconnect(cell.variant))?;
        let activity = Activity::derive(&stats, &app.config, app.active_im_banks());
        let breakdown =
            PowerModel::default().average_power(&stats, &app.config, activity, op, m.clock_hz);
        Some(breakdown.total_uw())
    });

    if stats.cycles != m.stats.cycles {
        problems.push(format!(
            "replayed {} cycles, cell reported {}",
            stats.cycles, m.stats.cycles
        ));
    } else if stats != m.stats {
        problems.push("replayed statistics differ from the cell's".to_string());
    }
    match power_uw {
        Some(p) if p.to_bits() == m.power_uw().to_bits() => {}
        Some(p) => problems.push(format!(
            "replayed {p} uW, cell reported {} uW",
            m.power_uw()
        )),
        None => problems.push(format!("no operating point reaches {} Hz", m.clock_hz)),
    }
    if platform.adc_overruns() > 0 {
        problems.push(format!("{} ADC overruns", platform.adc_overruns()));
    }
    let peek = |addr: u32| {
        platform
            .peek_dm(addr)
            .map_err(|e| format!("reading {addr:#x} failed: {e}"))
    };
    let lead0 = peek(layout::LEAD_COUNT_BASE)?;
    if u64::from(lead0) != stats.adc_samples & 0xFFFF {
        problems.push(format!(
            "lead 0 produced {lead0} samples of {} delivered",
            stats.adc_samples
        ));
    }
    let counters = (
        peek(layout::EVENT_COUNT)?,
        peek(layout::BEAT_COUNT)?,
        peek(layout::PATH_COUNT)?,
    );
    Ok(Replay {
        class: LoopClass::of(cell.variant),
        stats,
        counters,
        times,
        problems,
    })
}

/// Cells whose single-core and multi-core windows disagree on the DSP
/// chain's counters: for every benchmark and input, the SC and the MC
/// hardware-sync cells must count the same beats and pathological beats,
/// and for 3L-MF and 3L-MMD the same fiducial events. RP-CLASS events are
/// not compared: its single-core program buffers leads 1/2 raw and
/// conditions them only per triggered burst, so its delineation sees a
/// different filter warm-up than the multi-core chain by design (the same
/// exclusion as `rp_class_signature` in `tests/differential_oracle.rs`).
/// Returns `(index, problem)` pairs.
pub fn cross_variant_disagreements(
    outcomes: &[CellOutcome],
    replays: &[Result<Replay, String>],
) -> Vec<(usize, String)> {
    let same_input = |a: &CellOutcome, b: &CellOutcome| {
        a.cell.benchmark == b.cell.benchmark
            && a.cell.config.seed == b.cell.config.seed
            && a.cell.config.duration_s == b.cell.config.duration_s
            && a.cell.config.pathological_fraction == b.cell.config.pathological_fraction
    };
    let mut out = Vec::new();
    for (i, sc) in outcomes.iter().enumerate() {
        if sc.cell.variant != RunVariant::SingleCore {
            continue;
        }
        for (j, mc) in outcomes.iter().enumerate() {
            if mc.cell.variant != RunVariant::MultiCoreSync || !same_input(sc, mc) {
                continue;
            }
            if let (Ok(a), Ok(b)) = (&replays[i], &replays[j]) {
                let events_differ = a.counters.0 != b.counters.0
                    && sc.cell.benchmark != wbsn_bench::BenchmarkId::RpClass;
                if events_differ || (a.counters.1, a.counters.2) != (b.counters.1, b.counters.2) {
                    let problem = format!(
                        "{}: SC counts (events, beats, pathological) {:?}, MC {:?}",
                        sc.cell.benchmark.name(),
                        a.counters,
                        b.counters
                    );
                    out.push((i, problem.clone()));
                    out.push((j, problem));
                }
            }
        }
    }
    out
}
