//! Differential oracles for the simulator's equivalence claims:
//!
//! * **SC vs MC** — the single-core baseline and the multi-core mapping
//!   of every benchmark run the *same* DSP algorithms, so their shared
//!   outputs (filtered rings, delineation events, beat labels and every
//!   progress counter) must be identical word for word, across input
//!   seeds and pathologies. This is what makes the paper's power
//!   comparison meaningful: both platforms do the same work. (RP-CLASS
//!   compares its classification outputs — see [`rp_class_signature`].)
//! * **fast vs slow decode** — the predecoded fast path must be
//!   architecturally invisible: statistics and the observability ring
//!   (retirements, stall runs, sync activity) equal to the legacy
//!   decode-per-cycle path (compiled in via the `slow-decode` feature)
//!   on every benchmark.
//! * **lone slot vs full platform** — the cycle body is compiled once
//!   for one slot and once for eight; a one-core platform runs the
//!   one-slot instantiation, the same image on a two-core platform whose
//!   second core is absent runs the eight-slot one. Both must agree
//!   cycle for cycle.
//! * **scheduled vs unscheduled** — the load-latency-aware scheduler
//!   reorders instructions but must never change what is computed:
//!   scheduled images produce byte-identical DSP outputs on every input
//!   seed, while spending fewer hazard-stall cycles.

use wbsn::dsp::ecg::{synthesize, EcgConfig, EcgRecording};
use wbsn::isa::{assemble_text, Linker, Section};
use wbsn::kernels::{
    build_mf, build_mmd, build_rpclass, layout, Arch, BuildOptions, BuiltApp, ClassifierParams,
    SyncApproach,
};
use wbsn::sim::obs::{Event, TimedEvent};
use wbsn::sim::{InterconnectKind, ObsConfig, Platform, PlatformConfig};

fn recording(seed: u64, fraction: f64) -> EcgRecording {
    synthesize(&EcgConfig {
        fs: 500,
        duration_s: 2.0,
        pathological_fraction: fraction,
        seed,
        ..EcgConfig::healthy_60s()
    })
}

fn options() -> BuildOptions {
    BuildOptions {
        approach: SyncApproach::Hardware,
        adc_period_cycles: 16_000,
        ..BuildOptions::default()
    }
}

fn scheduled_options() -> BuildOptions {
    BuildOptions {
        schedule: true,
        ..options()
    }
}

fn apps(arch: Arch) -> Vec<BuiltApp> {
    apps_with(arch, &options())
}

fn apps_with(arch: Arch, options: &BuildOptions) -> Vec<BuiltApp> {
    let params = ClassifierParams::default_trained();
    vec![
        build_mf(arch, options).expect("mf builds"),
        build_mmd(arch, options).expect("mmd builds"),
        build_rpclass(arch, options, &params).expect("rpclass builds"),
    ]
}

fn run(app: &BuiltApp, leads: Vec<Vec<i16>>) -> Platform {
    let samples = leads[0].len() as u64;
    let budget = app.config.adc.start_cycle + (samples + 8) * app.config.adc.period_cycles;
    let mut platform = app.platform(leads).expect("platform builds");
    platform.run(budget).expect("no faults");
    assert_eq!(platform.adc_overruns(), 0, "real time met");
    platform
}

/// Every shared word the DSP chain produces, in a fixed order: the
/// progress counters, each lead's filtered ring, the combined stream,
/// the fiducial events and the beat labels.
fn dsp_signature(platform: &Platform) -> Vec<(u32, u16)> {
    let mut words: Vec<u32> = Vec::new();
    words.extend((0..3).map(|l| layout::LEAD_COUNT_BASE + l));
    words.extend([
        layout::COMBINED_COUNT,
        layout::EVENT_COUNT,
        layout::BEAT_COUNT,
        layout::PATH_COUNT,
    ]);
    for lead in 0..3 {
        words.extend((0..layout::OUT_RING_LEN).map(|i| layout::out_ring(lead) + i));
    }
    words.extend((0..layout::COMBINED_RING_LEN).map(|i| layout::COMBINED_RING + i));
    words.extend((0..4 * layout::EVENT_RING_LEN).map(|i| layout::EVENT_RING + i));
    words.extend((0..layout::LABEL_RING_LEN).map(|i| layout::LABEL_RING + i));
    peek_all(platform, words)
}

/// The classification outputs of RP-CLASS: the continuously-conditioned
/// lead 0, the trigger words and the per-beat verdicts. The delineation
/// side (leads 1/2, combined stream, fiducial events) is deliberately
/// *not* part of this signature: the single-core program buffers leads
/// 1/2 raw and conditions them lazily per triggered burst, so its
/// delineation filters see different warm-up than the multi-core chain's
/// continuous conditioning — an intended divergence of the mapping, not
/// a bug (DESIGN.md's Fig. 5c discussion).
fn rp_class_signature(platform: &Platform) -> Vec<(u32, u16)> {
    let mut words: Vec<u32> = vec![
        layout::LEAD_COUNT_BASE,
        layout::TRIG_FLAG,
        layout::TRIG_SEQ,
        layout::BEAT_COUNT,
        layout::PATH_COUNT,
    ];
    words.extend((0..layout::OUT_RING_LEN).map(|i| layout::out_ring(0) + i));
    words.extend((0..layout::LABEL_RING_LEN).map(|i| layout::LABEL_RING + i));
    peek_all(platform, words)
}

fn peek_all(platform: &Platform, words: Vec<u32>) -> Vec<(u32, u16)> {
    words
        .into_iter()
        .map(|addr| (addr, platform.peek_dm(addr).expect("shared word readable")))
        .collect()
}

fn signature_for(app: &BuiltApp, platform: &Platform) -> Vec<(u32, u16)> {
    if app.name == "RP-CLASS" {
        rp_class_signature(platform)
    } else {
        dsp_signature(platform)
    }
}

#[test]
fn single_core_and_multi_core_produce_identical_dsp_outputs() {
    for (seed, fraction) in [(0xA11CE, 0.0), (0xB0B5EED, 0.3), (0xC0FFEE, 1.0)] {
        let rec = recording(seed, fraction);
        for (sc, mc) in apps(Arch::SingleCore).iter().zip(apps(Arch::MultiCore)) {
            let sc_sig = signature_for(sc, &run(sc, rec.leads.clone()));
            let mc_sig = signature_for(sc, &run(&mc, rec.leads.clone()));
            // Progress first: identical counters mean identical amounts
            // of work before any word-level comparison.
            for i in 0..5 {
                assert_eq!(
                    sc_sig[i], mc_sig[i],
                    "{} seed {seed:#x}: counter {i} diverged",
                    sc.name
                );
            }
            let diverging = sc_sig
                .iter()
                .zip(&mc_sig)
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a.0)
                .collect::<Vec<_>>();
            assert!(
                diverging.is_empty(),
                "{} seed {seed:#x} fraction {fraction}: SC and MC outputs diverge at {} shared words (first at {:#06x})",
                sc.name,
                diverging.len(),
                diverging[0]
            );
        }
    }
}

#[test]
fn scheduled_images_produce_identical_dsp_outputs() {
    for (seed, fraction) in [(0xA11CE, 0.0), (0xB0B5EED, 0.3), (0xC0FFEE, 1.0)] {
        let rec = recording(seed, fraction);
        for arch in [Arch::SingleCore, Arch::MultiCore] {
            for (plain, scheduled) in apps(arch).iter().zip(apps_with(arch, &scheduled_options())) {
                let base = run(plain, rec.leads.clone());
                let sched = run(&scheduled, rec.leads.clone());
                assert_eq!(
                    signature_for(plain, &base),
                    signature_for(plain, &sched),
                    "{} {arch:?} seed {seed:#x}: scheduling changed the DSP outputs",
                    plain.name
                );
                let before: u64 = base.stats().cores.iter().map(|c| c.stall_hazard).sum();
                let after: u64 = sched.stats().cores.iter().map(|c| c.stall_hazard).sum();
                assert!(
                    after <= before,
                    "{} {arch:?} seed {seed:#x}: scheduling added hazard stalls ({before} -> {after})",
                    plain.name
                );
            }
        }
    }
}

/// Runs one app with the given decode path; the observability ring
/// keeps the last 4096 events of every core, retirements included.
fn run_traced(app: &BuiltApp, leads: Vec<Vec<i16>>, slow: bool) -> Platform {
    let samples = leads[0].len() as u64;
    let budget = app.config.adc.start_cycle + (samples + 8) * app.config.adc.period_cycles;
    let mut platform = app.platform(leads).expect("platform builds");
    platform.set_slow_decode(slow);
    platform.enable_obs(ObsConfig {
        ring: 4096,
        ..ObsConfig::default()
    });
    platform.run(budget).expect("no faults");
    platform.finish_obs();
    platform
}

/// The recorder's ring, oldest first.
fn ring(platform: &Platform) -> Vec<TimedEvent> {
    platform
        .obs()
        .recorder()
        .expect("recorder attached")
        .events()
        .copied()
        .collect()
}

#[test]
fn predecoded_fast_path_matches_the_decode_per_cycle_oracle() {
    let rec = recording(0xDECADE, 0.25);
    for arch in [Arch::SingleCore, Arch::MultiCore] {
        for app in apps(arch) {
            let fast = run_traced(&app, rec.leads.clone(), false);
            let slow = run_traced(&app, rec.leads.clone(), true);
            assert_eq!(
                fast.stats(),
                slow.stats(),
                "{} {arch:?}: statistics diverge between decode paths",
                app.name
            );
            let fast_ring = ring(&fast);
            assert!(
                fast_ring
                    .iter()
                    .any(|t| matches!(t.event, Event::Retire { .. })),
                "{} {arch:?}: the ring holds retirements",
                app.name
            );
            assert_eq!(
                fast_ring,
                ring(&slow),
                "{} {arch:?}: retirement traces diverge between decode paths",
                app.name
            );
            assert_eq!(
                dsp_signature(&fast),
                dsp_signature(&slow),
                "{} {arch:?}: outputs diverge between decode paths",
                app.name
            );
        }
    }
}

/// Runs `image` with core 0 as the only present core on a crossbar
/// platform of `cores` cores, with the counting sink and a ring.
fn run_lone(
    image: &wbsn::isa::LinkedImage,
    base: &PlatformConfig,
    cores: usize,
    leads: &[Vec<i16>],
    budget: u64,
) -> Platform {
    let config = PlatformConfig {
        cores,
        interconnect: InterconnectKind::Crossbar,
        shared_words: 0x1000,
        ..base.clone()
    };
    let mut platform = Platform::new(config, image).expect("platform builds");
    platform.set_adc_streams(leads.to_vec());
    platform.enable_obs(ObsConfig {
        counting: true,
        ring: 4096,
        ..ObsConfig::default()
    });
    platform.run(budget).expect("no faults");
    platform.finish_obs();
    platform
}

/// A one-core platform steps through the one-slot instantiation of the
/// cycle body, which never arbitrates; adding an absent second core
/// routes the same image through the eight-slot instantiation. Everything
/// core 0 and the memories see must match.
#[test]
fn lone_slot_step_matches_the_general_step() {
    let scan = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/asm/scan.asm"
    ))
    .expect("scan demo readable");
    let mut linker = Linker::new();
    linker.add_section(Section::new(
        "scan",
        assemble_text(&scan).expect("scan assembles"),
    ));
    linker.set_entry(0, "scan");
    let scan_image = linker.link().expect("scan links");

    let rec = synthesize(&EcgConfig {
        fs: 500,
        duration_s: 1.0,
        seed: 0x10E,
        ..EcgConfig::healthy_60s()
    });
    let options = options();
    let mut cases = vec![(
        "scan",
        scan_image,
        PlatformConfig::single_core(),
        Vec::new(),
        100_000,
    )];
    for app in [
        build_mf(Arch::SingleCore, &options).expect("mf builds"),
        build_mmd(Arch::SingleCore, &options).expect("mmd builds"),
    ] {
        let samples = rec.leads[0].len() as u64;
        let budget = app.config.adc.start_cycle + (samples + 8) * app.config.adc.period_cycles;
        cases.push((app.name, app.image, app.config, rec.leads.clone(), budget));
    }
    for (name, image, base, leads, budget) in cases {
        let lone = run_lone(&image, &base, 1, &leads, budget);
        let general = run_lone(&image, &base, 2, &leads, budget);
        let (a, b) = (lone.stats(), general.stats());
        assert!(a.cores[0].instructions > 0, "{name}: core 0 ran");
        assert_eq!(a.cycles, b.cycles, "{name}: cycles");
        assert_eq!(a.cores[0], b.cores[0], "{name}: core 0 statistics");
        assert_eq!(a.im, b.im, "{name}: instruction-memory statistics");
        assert_eq!(a.dm, b.dm, "{name}: data-memory statistics");
        assert_eq!(
            (a.xbar_im, a.xbar_dm),
            (b.xbar_im, b.xbar_dm),
            "{name}: crossbar traversals"
        );
        let summary = |p: &Platform| {
            p.obs()
                .recorder()
                .and_then(|r| r.counting())
                .map(|c| c.summary())
        };
        assert_eq!(
            summary(&lone),
            summary(&general),
            "{name}: counting summary"
        );
        let lone_ring = ring(&lone);
        assert!(
            lone_ring
                .iter()
                .any(|t| matches!(t.event, Event::Retire { .. })),
            "{name}: the ring holds retirements"
        );
        assert_eq!(lone_ring, ring(&general), "{name}: ring events");
    }
}
