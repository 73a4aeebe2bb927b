//! Runtime watchdog: deadlock and stalled-progress detection with a
//! post-mortem dump.
//!
//! A synchronization bug on real hardware is silent: every core is
//! clock-gated, nothing retires, and the node just stops. The
//! platform's watchdog ([`crate::Platform::set_watchdog`]) turns that
//! silence into a diagnosis. Two conditions trip it:
//!
//! * **Deadlock** — every live core is clock-gated, no ADC event is
//!   pending, and at least one gated core is flagged in a
//!   synchronization point: it registered for a wake that no running
//!   core can ever deliver. (Gated cores with no registration are the
//!   workload's intentional final sleep and still exit
//!   [`crate::RunExit::Quiescent`].)
//! * **Stall** — the configured number of cycles elapsed without a
//!   single instruction retiring anywhere, while the platform is not in
//!   an accounted idle skip.
//!
//! Instead of hanging (or mis-reporting an exit), the run returns
//! [`crate::SimError::Watchdog`] carrying a [`PostMortem`]: per-core
//! architectural state and every synchronization-point word with its
//! armed bit. When an observability recorder
//! ([`crate::Platform::enable_obs`]) is attached, the dump also carries
//! the tail of its event ring — the last retirements interleaved with
//! the sync, power and stall events around them — and the per-(core,
//! phase) cycle attribution, so the report names the mapping phase each
//! core died in.

use std::fmt;

use wbsn_core::SyncPointValue;

/// What tripped the watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchdogTrip {
    /// All live cores are gated; the listed cores are flagged in
    /// synchronization points that can never fire.
    Deadlock {
        /// Cores waiting on a wake that cannot be delivered.
        waiting: Vec<usize>,
    },
    /// No instruction retired for the configured budget.
    Stall {
        /// The stall budget that was exceeded, in cycles.
        budget: u64,
    },
}

impl fmt::Display for WatchdogTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchdogTrip::Deadlock { waiting } => write!(
                f,
                "deadlock — cores {waiting:?} are clock-gated on synchronization \
                 points no running core can signal"
            ),
            WatchdogTrip::Stall { budget } => {
                write!(f, "stall — no instruction retired for {budget} cycles")
            }
        }
    }
}

/// Architectural state of one core at trip time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreDump {
    /// Core index.
    pub core: usize,
    /// Program counter.
    pub pc: u32,
    /// The core executed `HALT`.
    pub halted: bool,
    /// The core is clock-gated.
    pub gated: bool,
    /// The core had a linked entry point.
    pub present: bool,
}

/// One synchronization-point word at trip time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointDump {
    /// Point index.
    pub point: u16,
    /// The point's word (flags + counter).
    pub value: SyncPointValue,
    /// The synchronizer's armed bit for the point.
    pub armed: bool,
}

/// Cycles and instructions attributed to one `(core, phase)` pair at
/// trip time (from the observability profiler).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseAttribution {
    /// The core.
    pub core: usize,
    /// The mapping-phase (section) name.
    pub phase: String,
    /// Active cycles the core spent in the phase.
    pub active_cycles: u64,
    /// Instructions the core retired in the phase.
    pub instructions: u64,
}

/// Everything the watchdog captured when it tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostMortem {
    /// Cycle at which the trip was detected.
    pub cycle: u64,
    /// The tripping condition.
    pub trip: WatchdogTrip,
    /// Per-core architectural state.
    pub cores: Vec<CoreDump>,
    /// Every synchronization-point word.
    pub points: Vec<PointDump>,
    /// The tail of the observability event ring — retirements, stall
    /// runs and sync activity — rendered one line per event, oldest
    /// first (empty unless a recorder with an event ring was attached).
    pub obs_tail: Vec<String>,
    /// Per-(core, phase) cycle attribution (empty unless a recorder
    /// with the profiler was attached).
    pub phase_profile: Vec<PhaseAttribution>,
}

impl fmt::Display for PostMortem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} at cycle {}", self.trip, self.cycle)?;
        for c in &self.cores {
            if !c.present {
                continue;
            }
            let state = if c.halted {
                "halted"
            } else if c.gated {
                "gated"
            } else {
                "running"
            };
            writeln!(f, "  core {}: pc {:#06x} {}", c.core, c.pc, state)?;
        }
        for p in &self.points {
            writeln!(
                f,
                "  point {:>2}: flags {:#010b} counter {}{}",
                p.point,
                p.value.flags().bits(),
                p.value.counter(),
                if p.armed { " armed" } else { "" }
            )?;
        }
        if !self.obs_tail.is_empty() {
            writeln!(f, "  last events:")?;
            for line in &self.obs_tail {
                writeln!(f, "    {line}")?;
            }
        }
        if !self.phase_profile.is_empty() {
            writeln!(f, "  phase attribution:")?;
            for row in &self.phase_profile {
                writeln!(
                    f,
                    "    core {} in {}: {} active cycles, {} instructions",
                    row.core, row.phase, row.active_cycles, row.instructions
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_core::CoreSet;

    #[test]
    fn post_mortem_renders_cores_points_and_trace() {
        let pm = PostMortem {
            cycle: 42,
            trip: WatchdogTrip::Deadlock { waiting: vec![1] },
            cores: vec![
                CoreDump {
                    core: 0,
                    pc: 0x4,
                    halted: true,
                    gated: false,
                    present: true,
                },
                CoreDump {
                    core: 1,
                    pc: 0x10,
                    halted: false,
                    gated: true,
                    present: true,
                },
                CoreDump {
                    core: 2,
                    pc: 0,
                    halted: false,
                    gated: true,
                    present: false,
                },
            ],
            points: vec![PointDump {
                point: 0,
                value: SyncPointValue::with(CoreSet::first(2), 3),
                armed: true,
            }],
            obs_tail: vec!["[        40] core1 slept".to_string()],
            phase_profile: vec![PhaseAttribution {
                core: 1,
                phase: "delineate".to_string(),
                active_cycles: 30,
                instructions: 12,
            }],
        };
        let text = pm.to_string();
        assert!(text.contains("deadlock"));
        assert!(text.contains("cycle 42"));
        assert!(text.contains("core 1: pc 0x0010 gated"));
        assert!(text.contains("counter 3 armed"));
        assert!(!text.contains("core 2"), "absent cores are omitted");
        assert!(text.contains("last events:"));
        assert!(text.contains("core1 slept"));
        assert!(text.contains("core 1 in delineate: 30 active cycles, 12 instructions"));
    }

    #[test]
    fn stall_trip_renders_budget() {
        let trip = WatchdogTrip::Stall { budget: 500 };
        assert!(trip.to_string().contains("500 cycles"));
    }
}
