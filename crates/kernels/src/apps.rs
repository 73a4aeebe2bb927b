//! The three benchmark applications, assembled for both architectures.
//!
//! Each `build_*` function performs the paper's complete flow: partition
//! the application into a task graph, map it with
//! [`wbsn_core::Mapper`] (cores, instruction banks, synchronization
//! points), generate the phase programs with the insertion rules applied,
//! and link everything into a loadable image.

use wbsn_core::{Mapper, Phase, TaskGraph};
use wbsn_isa::{Linker, Section};

use crate::app::{
    benchmark_config, Arch, BarrierStyle, BuildError, BuildOptions, BuiltApp, SyncApproach,
};
use crate::emit::maybe_schedule;
use crate::layout::SYNC_POINTS;
use crate::phases::{
    build_classifier_phase, build_combiner_phase, build_delineator_phase, build_filter_phase,
    build_triggered_filter_phase, StreamMode, SyncWiring, WaitStyle,
};
use crate::single::{build_mf_single, build_mmd_single, build_rpclass_single};
use crate::train::ClassifierParams;

fn wait_style(arch: Arch, approach: SyncApproach) -> WaitStyle {
    match (arch, approach) {
        (Arch::SingleCore, _) => WaitStyle::Sleep,
        (Arch::MultiCore, SyncApproach::Hardware) => WaitStyle::Sleep,
        (Arch::MultiCore, SyncApproach::BusyWait) => WaitStyle::BusyWait,
    }
}

/// Builds the three-lead morphological filtering benchmark (3L-MF).
///
/// Multi-core mapping: three conditioning phases, one per lead, forming
/// a single lock-step group in one instruction bank (Fig. 5-a).
///
/// # Errors
///
/// Returns a [`BuildError`] on code-generation, mapping or link failure.
pub fn build_mf(arch: Arch, options: &BuildOptions) -> Result<BuiltApp, BuildError> {
    let config = benchmark_config(arch, options);
    let mut linker = Linker::new();
    let mut preloads = Vec::new();
    let (active_cores, plan) = match arch {
        Arch::SingleCore => {
            linker.add_section(Section::new(
                "mf",
                maybe_schedule(build_mf_single()?, options.schedule),
            ));
            linker.set_entry(0, "mf");
            (1, None)
        }
        Arch::MultiCore => {
            let mut graph = TaskGraph::new();
            let conds: Vec<_> = (0..3)
                .map(|l| graph.add_phase(Phase::acquire(format!("cond{l}"), l)))
                .collect::<Result<_, _>>()?;
            graph.add_lockstep_group(&conds)?;
            let plan = Mapper::new(config.cores, 8, SYNC_POINTS).map(&graph)?;

            let hw = options.approach == SyncApproach::Hardware;
            let lockstep = hw && options.lockstep;
            let preloaded = options.barrier == BarrierStyle::Preloaded;
            let wiring = SyncWiring {
                produce_point: None,
                lockstep_point: if lockstep {
                    plan.lockstep_point(conds[0])
                } else {
                    None
                },
                lockstep_preloaded: preloaded,
            };
            if lockstep && preloaded {
                let participants = conds.iter().map(|&c| plan.core_of(c)).collect();
                preloads.push((
                    plan.lockstep_point(conds[0]).expect("group has a point"),
                    conds.len() as u8,
                    participants,
                ));
            }
            let program = build_filter_phase(
                plan.core_of(conds[0]).index() as u16,
                0,
                wait_style(arch, options.approach),
                wiring,
            )?;
            let program = maybe_schedule(program, options.schedule);
            linker.add_section(Section::in_bank("cond", program, plan.bank_of(conds[0])));
            for &c in &conds {
                linker.set_entry(plan.core_of(c).index(), "cond");
            }
            (3, Some(plan))
        }
    };
    let image = linker.link()?;
    Ok(BuiltApp {
        name: "3L-MF",
        arch,
        approach: options.approach,
        image,
        config,
        active_cores,
        plan,
        preloads,
    })
}

/// Builds the three-lead filtering + delineation benchmark (3L-MMD).
///
/// Multi-core mapping: three conditioning phases (lock-step group,
/// shared bank) producing for a combining phase, which produces for the
/// delineation phase (Fig. 5-b) — five cores, both producer-consumer and
/// lock-step synchronization.
///
/// # Errors
///
/// Returns a [`BuildError`] on code-generation, mapping or link failure.
pub fn build_mmd(arch: Arch, options: &BuildOptions) -> Result<BuiltApp, BuildError> {
    let config = benchmark_config(arch, options);
    let mut linker = Linker::new();
    let mut preloads = Vec::new();
    let (active_cores, plan) = match arch {
        Arch::SingleCore => {
            linker.add_section(Section::new(
                "mmd",
                maybe_schedule(build_mmd_single()?, options.schedule),
            ));
            linker.set_entry(0, "mmd");
            (1, None)
        }
        Arch::MultiCore => {
            let mut graph = TaskGraph::new();
            let conds: Vec<_> = (0..3)
                .map(|l| graph.add_phase(Phase::acquire(format!("cond{l}"), l)))
                .collect::<Result<_, _>>()?;
            let comb = graph.add_phase(Phase::compute("combine"))?;
            let delin = graph.add_phase(Phase::compute("delineate"))?;
            for &c in &conds {
                graph.add_edge(c, comb)?;
            }
            graph.add_edge(comb, delin)?;
            graph.add_lockstep_group(&conds)?;
            let plan = Mapper::new(config.cores, 8, SYNC_POINTS).map(&graph)?;

            let hw = options.approach == SyncApproach::Hardware;
            let style = wait_style(arch, options.approach);
            let cpt1 = plan.consume_point(comb).expect("combiner has producers");
            let cpt2 = plan.consume_point(delin).expect("delineator has producers");
            let lockstep = hw && options.lockstep;
            let preloaded = options.barrier == BarrierStyle::Preloaded;
            if lockstep && preloaded {
                let participants = conds.iter().map(|&c| plan.core_of(c)).collect();
                preloads.push((
                    plan.lockstep_point(conds[0]).expect("group has a point"),
                    conds.len() as u8,
                    participants,
                ));
            }
            let filter = build_filter_phase(
                plan.core_of(conds[0]).index() as u16,
                0,
                style,
                SyncWiring {
                    produce_point: hw.then_some(cpt1),
                    lockstep_point: if lockstep {
                        plan.lockstep_point(conds[0])
                    } else {
                        None
                    },
                    lockstep_preloaded: preloaded,
                },
            )?;
            let combiner = build_combiner_phase(
                style,
                StreamMode::Contiguous,
                hw.then_some(cpt1),
                hw.then_some(cpt2),
            )?;
            let delineator =
                build_delineator_phase(style, StreamMode::Contiguous, hw.then_some(cpt2))?;
            let filter = maybe_schedule(filter, options.schedule);
            let combiner = maybe_schedule(combiner, options.schedule);
            let delineator = maybe_schedule(delineator, options.schedule);
            linker.add_section(Section::in_bank("cond", filter, plan.bank_of(conds[0])));
            linker.add_section(Section::in_bank("combine", combiner, plan.bank_of(comb)));
            linker.add_section(Section::in_bank(
                "delineate",
                delineator,
                plan.bank_of(delin),
            ));
            for &c in &conds {
                linker.set_entry(plan.core_of(c).index(), "cond");
            }
            linker.set_entry(plan.core_of(comb).index(), "combine");
            linker.set_entry(plan.core_of(delin).index(), "delineate");
            (5, Some(plan))
        }
    };
    let image = linker.link()?;
    Ok(BuiltApp {
        name: "3L-MMD",
        arch,
        approach: options.approach,
        image,
        config,
        active_cores,
        plan,
        preloads,
    })
}

/// Builds the heartbeat-classification benchmark (RP-CLASS).
///
/// Multi-core mapping (Fig. 5-c): lead 0 is conditioned continuously
/// and feeds the classification phase; a lock-step pair of buffered
/// conditioning phases (leads 1 and 2), the combiner and the delineator
/// form the four-core chain that is activated only for pathological
/// beats — six cores, non-uniform workload.
///
/// # Errors
///
/// Returns a [`BuildError`] on code-generation, mapping or link failure.
pub fn build_rpclass(
    arch: Arch,
    options: &BuildOptions,
    params: &ClassifierParams,
) -> Result<BuiltApp, BuildError> {
    let config = benchmark_config(arch, options);
    let mut linker = Linker::new();
    let mut preloads = Vec::new();
    for segment in params.data_segments() {
        linker.add_data(segment);
    }
    let (active_cores, plan) = match arch {
        Arch::SingleCore => {
            linker.add_section(Section::new(
                "rpclass",
                maybe_schedule(build_rpclass_single()?, options.schedule),
            ));
            linker.set_entry(0, "rpclass");
            (1, None)
        }
        Arch::MultiCore => {
            // Fig. 5-c: lead 0 is conditioned continuously and feeds the
            // classification phase; the four-core delineation chain (two
            // triggered conditioners, combiner, delineator) is activated
            // only for pathological beats.
            let mut graph = TaskGraph::new();
            let classify = graph.add_phase(Phase::compute("classify"))?;
            let cond0 = graph.add_phase(Phase::acquire("cond0", 0))?;
            let cond1 = graph.add_phase(Phase::acquire("cond1", 1))?;
            let cond2 = graph.add_phase(Phase::acquire("cond2", 2))?;
            let comb = graph.add_phase(Phase::compute("combine"))?;
            let delin = graph.add_phase(Phase::compute("delineate"))?;
            graph.add_edge(cond0, classify)?;
            graph.add_edge(cond0, comb)?;
            graph.add_edge(cond1, comb)?;
            graph.add_edge(cond2, comb)?;
            graph.add_edge(comb, delin)?;
            graph.add_lockstep_group(&[cond1, cond2])?;
            let plan = Mapper::new(config.cores, 8, SYNC_POINTS).map(&graph)?;

            let hw = options.approach == SyncApproach::Hardware;
            let style = wait_style(arch, options.approach);
            let cpt0 = plan
                .consume_point(classify)
                .expect("classifier has a producer");
            let cpt1 = plan.consume_point(comb).expect("combiner has producers");
            let cpt2 = plan.consume_point(delin).expect("delineator has producers");
            let classifier = build_classifier_phase(style, hw.then_some(cpt0))?;
            let cond0_prog = build_filter_phase(
                plan.core_of(cond0).index() as u16,
                0,
                style,
                SyncWiring {
                    produce_point: hw.then_some(cpt0),
                    lockstep_point: None,
                    lockstep_preloaded: false,
                },
            )?;
            let lockstep = hw && options.lockstep;
            let preloaded = options.barrier == BarrierStyle::Preloaded;
            if lockstep && preloaded {
                let participants = [cond1, cond2].iter().map(|&c| plan.core_of(c)).collect();
                preloads.push((
                    plan.lockstep_point(cond1).expect("group has a point"),
                    2,
                    participants,
                ));
            }
            let filter = build_triggered_filter_phase(
                plan.core_of(cond1).index() as u16,
                1,
                style,
                SyncWiring {
                    produce_point: hw.then_some(cpt1),
                    lockstep_point: if lockstep {
                        plan.lockstep_point(cond1)
                    } else {
                        None
                    },
                    lockstep_preloaded: preloaded,
                },
            )?;
            let combiner = build_combiner_phase(
                style,
                StreamMode::Burst,
                hw.then_some(cpt1),
                hw.then_some(cpt2),
            )?;
            let delineator = build_delineator_phase(style, StreamMode::Burst, hw.then_some(cpt2))?;
            let classifier = maybe_schedule(classifier, options.schedule);
            let cond0_prog = maybe_schedule(cond0_prog, options.schedule);
            let filter = maybe_schedule(filter, options.schedule);
            let combiner = maybe_schedule(combiner, options.schedule);
            let delineator = maybe_schedule(delineator, options.schedule);
            linker.add_section(Section::in_bank(
                "classify",
                classifier,
                plan.bank_of(classify),
            ));
            linker.add_section(Section::in_bank("cond0", cond0_prog, plan.bank_of(cond0)));
            linker.add_section(Section::in_bank("cond", filter, plan.bank_of(cond1)));
            linker.add_section(Section::in_bank("combine", combiner, plan.bank_of(comb)));
            linker.add_section(Section::in_bank(
                "delineate",
                delineator,
                plan.bank_of(delin),
            ));
            linker.set_entry(plan.core_of(classify).index(), "classify");
            linker.set_entry(plan.core_of(cond0).index(), "cond0");
            linker.set_entry(plan.core_of(cond1).index(), "cond");
            linker.set_entry(plan.core_of(cond2).index(), "cond");
            linker.set_entry(plan.core_of(comb).index(), "combine");
            linker.set_entry(plan.core_of(delin).index(), "delineate");
            (6, Some(plan))
        }
    };
    let image = linker.link()?;
    Ok(BuiltApp {
        name: "RP-CLASS",
        arch,
        approach: options.approach,
        image,
        config,
        active_cores,
        plan,
        preloads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::ClassifierParams;

    #[test]
    fn mf_builds_for_both_architectures() {
        let options = BuildOptions::default();
        let sc = build_mf(Arch::SingleCore, &options).unwrap();
        assert_eq!(sc.active_cores, 1);
        // The baseline's only ISE use is the single WFI-style SLEEP.
        assert!(sc.code_overhead_percent() < 1.0);
        let mc = build_mf(Arch::MultiCore, &options).unwrap();
        assert_eq!(mc.active_cores, 3);
        assert_eq!(mc.active_im_banks(), 1, "lock-step group shares a bank");
        assert!(mc.code_overhead_percent() > 0.0);
        assert!(mc.code_overhead_percent() < 10.0);
    }

    #[test]
    fn mmd_mapping_matches_fig5b() {
        let mc = build_mmd(Arch::MultiCore, &BuildOptions::default()).unwrap();
        assert_eq!(mc.active_cores, 5);
        assert_eq!(mc.active_im_banks(), 3);
        let plan = mc.plan.as_ref().unwrap();
        assert_eq!(plan.points_used(), 3); // CPT1, CPT2, lock-step
    }

    #[test]
    fn rpclass_mapping_matches_fig5c() {
        let params = ClassifierParams::default_trained();
        let mc = build_rpclass(Arch::MultiCore, &BuildOptions::default(), &params).unwrap();
        assert_eq!(mc.active_cores, 6);
        // classify / cond0 / lock-step pair / combine / delineate.
        assert_eq!(mc.active_im_banks(), 5);
    }

    #[test]
    fn busy_wait_builds_have_zero_sync_overhead() {
        let options = BuildOptions {
            approach: SyncApproach::BusyWait,
            ..BuildOptions::default()
        };
        let mc = build_mf(Arch::MultiCore, &options).unwrap();
        assert_eq!(mc.image.sync_words(), 0);
        let mmd = build_mmd(Arch::MultiCore, &options).unwrap();
        assert_eq!(mmd.image.sync_words(), 0);
    }

    /// The ADC period only configures the platform's ADC: a build at one
    /// period links the same image as a build at any other, so the period
    /// need not key a build cache.
    #[test]
    fn adc_period_does_not_reach_the_image() {
        let params = ClassifierParams::default_trained();
        for arch in [Arch::SingleCore, Arch::MultiCore] {
            for approach in [SyncApproach::Hardware, SyncApproach::BusyWait] {
                let build = |benchmark: usize, adc_period_cycles: u64| {
                    let options = BuildOptions {
                        approach,
                        adc_period_cycles,
                        ..BuildOptions::default()
                    };
                    match benchmark {
                        0 => build_mf(arch, &options),
                        1 => build_mmd(arch, &options),
                        _ => build_rpclass(arch, &options, &params),
                    }
                    .unwrap()
                };
                for benchmark in 0..3 {
                    let a = build(benchmark, 2000);
                    let b = build(benchmark, 6213);
                    let what = format!("{} {arch:?} {approach:?}", a.name);
                    assert!(a.image == b.image, "{what}: images differ");
                    assert_eq!(b.config.adc.period_cycles, 6213, "{what}");
                    let mut config = b.config.clone();
                    config.adc.period_cycles = a.config.adc.period_cycles;
                    config.adc.start_cycle = a.config.adc.start_cycle;
                    assert_eq!(config, a.config, "{what}");
                }
            }
        }
    }
}
