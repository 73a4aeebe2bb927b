//! Measures raw simulator throughput (simulated cycles per wall-clock
//! second) for the three loop classes of the sweeps — single-core,
//! sleep-heavy multi-core (hardware sync) and spin-heavy multi-core
//! (busy-wait) — each with observability off and with the sweep
//! engine's counting sink. The repo's interpreter-speed probe.
//!
//! Usage: `cargo run --release --example sim_throughput [seconds] [repetitions]`
//!
//! `seconds` of ECG are simulated per run (default 5); every row runs
//! `repetitions` times (default 3), interleaved with the other rows,
//! and the fastest run is reported.

use std::time::Instant;

use wbsn_dsp::ecg::{synthesize, EcgConfig};
use wbsn_kernels::{build_mf, build_mmd, Arch, BuildOptions, BuiltApp, SyncApproach};
use wbsn_sim::ObsConfig;

struct Row {
    name: &'static str,
    app: BuiltApp,
    counting: bool,
    cycles: u64,
    best_s: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seconds: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(5.0);
    let repetitions: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(3);
    let rec = synthesize(&EcgConfig {
        duration_s: seconds,
        ..EcgConfig::healthy_60s()
    });
    // Periods sit at each build's Table I clock (fs = 500 Hz).
    let options = |approach, adc_period_cycles| BuildOptions {
        approach,
        adc_period_cycles,
        ..BuildOptions::default()
    };
    let builds = [
        (
            "SC 3L-MF",
            build_mf(Arch::SingleCore, &options(SyncApproach::Hardware, 4600)),
        ),
        (
            "SC 3L-MMD",
            build_mmd(Arch::SingleCore, &options(SyncApproach::Hardware, 5400)),
        ),
        (
            "MC hw-sync 3L-MF",
            build_mf(Arch::MultiCore, &options(SyncApproach::Hardware, 2000)),
        ),
        (
            "MC busy-wait 3L-MMD",
            build_mmd(Arch::MultiCore, &options(SyncApproach::BusyWait, 2000)),
        ),
    ];
    let mut rows = Vec::new();
    for (name, app) in builds {
        let app = app.expect("benchmark builds");
        for counting in [false, true] {
            rows.push(Row {
                name,
                app: app.clone(),
                counting,
                cycles: 0,
                best_s: f64::INFINITY,
            });
        }
    }
    let samples = rec.leads[0].len() as u64;
    for _ in 0..repetitions {
        for row in &mut rows {
            let adc = &row.app.config.adc;
            let total = adc.start_cycle + samples * adc.period_cycles;
            let mut platform = row
                .app
                .platform(rec.leads.clone())
                .expect("platform builds");
            if row.counting {
                platform.enable_obs(ObsConfig::counting_only());
            }
            let start = Instant::now();
            platform.run(total).expect("runs clean");
            row.best_s = row.best_s.min(start.elapsed().as_secs_f64());
            row.cycles = platform.stats().cycles;
        }
    }
    for row in &rows {
        let obs = if row.counting { "counting" } else { "obs off" };
        println!(
            "{:<20} {obs:<8}  {} cycles  best of {repetitions}: {:.3} s  ->  {:.2} Mcycles/s",
            row.name,
            row.cycles,
            row.best_s,
            row.cycles as f64 / row.best_s / 1e6
        );
    }
}
