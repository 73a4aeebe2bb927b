//! Observability layer for the WBSN simulator.
//!
//! This crate defines a typed event stream over everything the paper's
//! platform does that is worth watching — synchronizer activity, clock
//! gating, bank power-up, ADC traffic, mapping-phase transitions and
//! stall runs — plus the sinks that consume it:
//!
//! * [`CountingSink`] — counters and log2 histograms (sleep latency,
//!   sync gaps, stall-run lengths), cheap enough for every sweep cell;
//! * [`PhaseProfiler`] — attributes every core-cycle to the mapping
//!   phase executing at retirement;
//! * [`TraceJsonSink`] — a Chrome/Perfetto `trace_event` timeline.
//!
//! A bounded ring of the most recent events ([`ObsConfig::ring`]) also
//! keeps every retired instruction, so one channel carries the
//! retirement trace and the sync-point activity around it.
//!
//! The simulator talks to the layer through [`Obs`], a handle that is a
//! `None` check when observability is disabled: every hook is
//! `#[inline]` and returns immediately, so the predecoded fast path pays
//! nothing measurable. Construct a recorder with [`ObsConfig`] and
//! [`Obs::enable`].

pub mod count;
pub mod event;
pub mod hist;
pub mod json;
pub mod perfetto;
pub mod profile;
pub mod sink;

use std::collections::VecDeque;
use std::fmt;

pub use count::{CountingSink, ObsSummary};
pub use event::{AdcEvent, Event, PhaseEvent, PowerEvent, StallCause, SyncEvent, TimedEvent};
pub use hist::Histogram;
pub use perfetto::TraceJsonSink;
pub use profile::{PhaseCounters, PhaseProfiler, PhaseRow, UNMAPPED_PHASE};
pub use sink::EventSink;

use wbsn_core::{SyncOutcome, MAX_CORES};
use wbsn_isa::{Instr, PhaseTable, SyncKind, NO_PHASE};

/// What to record.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Run the [`CountingSink`].
    pub counting: bool,
    /// Run the [`PhaseProfiler`].
    pub profile: bool,
    /// Run the [`TraceJsonSink`].
    pub trace: bool,
    /// Keep the most recent events, retirements included, in a ring of
    /// this capacity (0 disables the ring).
    pub ring: usize,
    /// Phase table for pc → phase attribution. Without it, profiling
    /// and phase slices collapse into the unmapped phase.
    pub phases: Option<PhaseTable>,
}

impl ObsConfig {
    /// Counters and histograms only — the sweep engine's configuration.
    pub fn counting_only() -> ObsConfig {
        ObsConfig {
            counting: true,
            ..ObsConfig::default()
        }
    }

    /// Everything on: counting, profiling, timeline export and a
    /// post-mortem ring.
    pub fn full(phases: Option<PhaseTable>) -> ObsConfig {
        ObsConfig {
            counting: true,
            profile: true,
            trace: true,
            ring: 256,
            phases,
        }
    }
}

/// The live recorder behind an enabled [`Obs`] handle.
pub struct ObsCore {
    cores: usize,
    phases: Option<PhaseTable>,
    track_phases: bool,
    cur_phase: [u16; MAX_CORES],
    stall_len: [u64; MAX_CORES],
    stall_cause: [StallCause; MAX_CORES],
    gate_start: [Option<(u64, u16)>; MAX_CORES],
    last_sync: [Option<u64>; MAX_CORES],
    im_banks_on: u32,
    dm_banks_on: u32,
    counting: Option<CountingSink>,
    profiler: Option<PhaseProfiler>,
    trace: Option<TraceJsonSink>,
    extra: Vec<Box<dyn EventSink + Send>>,
    ring: VecDeque<TimedEvent>,
    ring_capacity: usize,
    finished: bool,
}

impl fmt::Debug for ObsCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsCore")
            .field("cores", &self.cores)
            .field("counting", &self.counting.is_some())
            .field("profile", &self.profiler.is_some())
            .field("trace", &self.trace.is_some())
            .field("ring_capacity", &self.ring_capacity)
            .field("extra_sinks", &self.extra.len())
            .finish()
    }
}

impl ObsCore {
    /// A recorder for `cores` cores.
    pub fn new(cores: usize, config: ObsConfig) -> ObsCore {
        let cores = cores.min(MAX_CORES);
        let names: Vec<String> = config
            .phases
            .as_ref()
            .map(|t| t.names().to_vec())
            .unwrap_or_default();
        let profiler = config
            .profile
            .then(|| PhaseProfiler::new(cores, names.clone()));
        let trace = config.trace.then(|| TraceJsonSink::new(names));
        let track_phases = profiler.is_some() || trace.is_some() || config.ring > 0;
        ObsCore {
            cores,
            track_phases,
            cur_phase: [NO_PHASE; MAX_CORES],
            stall_len: [0; MAX_CORES],
            stall_cause: [StallCause::ImConflict; MAX_CORES],
            gate_start: [None; MAX_CORES],
            last_sync: [None; MAX_CORES],
            im_banks_on: 0,
            dm_banks_on: 0,
            counting: config.counting.then(CountingSink::new),
            profiler,
            trace,
            extra: Vec::new(),
            ring: VecDeque::with_capacity(config.ring.min(1 << 20)),
            ring_capacity: config.ring,
            phases: config.phases,
            finished: false,
        }
    }

    /// Attaches a caller-provided sink.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink + Send>) {
        self.extra.push(sink);
    }

    /// Appends to the ring, evicting the oldest event when it is full.
    #[inline]
    fn keep(&mut self, cycle: u64, event: Event) {
        if self.ring_capacity > 0 {
            if self.ring.len() == self.ring_capacity {
                self.ring.pop_front();
            }
            self.ring.push_back(TimedEvent { cycle, event });
        }
    }

    #[inline]
    fn emit(&mut self, cycle: u64, event: Event) {
        self.keep(cycle, event);
        if let Some(sink) = &mut self.counting {
            sink.on_event(cycle, &event);
        }
        if let Some(sink) = &mut self.trace {
            sink.on_event(cycle, &event);
        }
        for sink in &mut self.extra {
            sink.on_event(cycle, &event);
        }
    }

    /// Profiler slot for a phase index.
    #[inline]
    fn slot(&self, phase: u16) -> usize {
        if phase == NO_PHASE {
            self.phases.as_ref().map_or(0, |t| t.num_phases())
        } else {
            phase as usize
        }
    }

    /// One active (ungated) cycle on `core`, with the program counter
    /// it is about to execute.
    #[inline]
    pub fn active_cycle(&mut self, cycle: u64, core: usize, pc: u32) {
        if self.track_phases {
            let phase = self.phases.as_ref().map_or(NO_PHASE, |t| t.phase_at(pc));
            if phase != self.cur_phase[core] {
                let old = self.cur_phase[core];
                if old != NO_PHASE {
                    self.emit(
                        cycle,
                        Event::Phase(PhaseEvent::Exit {
                            core: core as u8,
                            phase: old,
                        }),
                    );
                }
                if phase != NO_PHASE {
                    self.emit(
                        cycle,
                        Event::Phase(PhaseEvent::Enter {
                            core: core as u8,
                            phase,
                        }),
                    );
                }
                self.cur_phase[core] = phase;
            }
        }
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.active(core, slot);
            }
        }
    }

    /// One stall cycle on `core`. Consecutive stalls with the same
    /// cause accumulate into a single run, emitted when the run ends.
    #[inline]
    pub fn stall(&mut self, cycle: u64, core: usize, cause: StallCause) {
        if self.stall_len[core] > 0 && self.stall_cause[core] != cause {
            self.flush_stall(core, cycle);
        }
        self.stall_cause[core] = cause;
        self.stall_len[core] += 1;
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.stall(core, slot, cause);
            }
        }
    }

    /// One bubble cycle on `core`.
    #[inline]
    pub fn bubble(&mut self, _cycle: u64, core: usize) {
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.bubble(core, slot);
            }
        }
    }

    /// `core` retired `instr` from `pc` this cycle; any open stall run
    /// has therefore ended. The retirement goes to the ring only: sinks
    /// never see it, so a ring-less recorder pays nothing extra.
    #[inline]
    pub fn retire(&mut self, cycle: u64, core: usize, pc: u32, instr: Instr) {
        if self.stall_len[core] > 0 {
            self.flush_stall(core, cycle);
        }
        self.keep(
            cycle,
            Event::Retire {
                core: core as u8,
                pc,
                instr,
            },
        );
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.retire(core, slot);
            }
        }
    }

    fn flush_stall(&mut self, core: usize, now: u64) {
        let len = std::mem::take(&mut self.stall_len[core]);
        if len > 0 {
            self.emit(
                now,
                Event::StallRun {
                    core: core as u8,
                    cause: self.stall_cause[core],
                    len,
                },
            );
        }
    }

    /// `core` retired a synchronization instruction on `point`.
    #[inline]
    pub fn sync_op(&mut self, cycle: u64, core: usize, kind: SyncKind, point: u16) {
        let since_last = self.last_sync[core].map(|last| cycle - last);
        self.last_sync[core] = Some(cycle);
        self.emit(
            cycle,
            Event::Sync(SyncEvent::OpRetired {
                core: core as u8,
                kind,
                point,
                since_last,
            }),
        );
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.sync_op(core, slot);
            }
        }
    }

    /// `core` issued a `SLEEP` this cycle.
    #[inline]
    pub fn sleep_op(&mut self, _cycle: u64, core: usize) {
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.sleep(core, slot);
            }
        }
    }

    /// The synchronizer committed a cycle; translate its outcome into
    /// events and gate bookkeeping.
    pub fn sync_outcome(&mut self, cycle: u64, outcome: &SyncOutcome) {
        for touch in &outcome.touched {
            if touch.requests > 1 {
                self.emit(
                    cycle,
                    Event::Sync(SyncEvent::PointMerged {
                        point: touch.point,
                        requests: touch.requests,
                    }),
                );
            }
            if touch.armed {
                self.emit(
                    cycle,
                    Event::Sync(SyncEvent::PointArmed { point: touch.point }),
                );
            }
            for core in touch.flagged.iter() {
                self.emit(
                    cycle,
                    Event::Sync(SyncEvent::CoreFlagged {
                        core: core.index() as u8,
                        point: touch.point,
                    }),
                );
            }
        }
        for (i, &point) in outcome.fired_points.iter().enumerate() {
            let woken = outcome.fired_wakes.get(i).map_or(0, |set| set.bits());
            self.emit(
                cycle,
                Event::Sync(SyncEvent::PointReleased { point, woken }),
            );
        }
        for core in outcome.fell_through.iter() {
            self.emit(
                cycle,
                Event::Sync(SyncEvent::SleepFellThrough {
                    core: core.index() as u8,
                }),
            );
        }
        for core in outcome.slept.iter() {
            let idx = core.index();
            self.emit(cycle, Event::Sync(SyncEvent::CoreSlept { core: idx as u8 }));
            self.emit(cycle, Event::Power(PowerEvent::Gate { core: idx as u8 }));
            if idx < MAX_CORES {
                self.gate_start[idx] = Some((cycle, self.cur_phase[idx]));
            }
        }
        for core in outcome.woken.iter() {
            let idx = core.index();
            let (slept_cycles, phase) = match self.gate_start.get_mut(idx).and_then(Option::take) {
                Some((start, phase)) => (cycle.saturating_sub(start), phase),
                None => (0, NO_PHASE),
            };
            self.emit(
                cycle,
                Event::Sync(SyncEvent::CoreWoken {
                    core: idx as u8,
                    slept_cycles,
                }),
            );
            self.emit(cycle, Event::Power(PowerEvent::Ungate { core: idx as u8 }));
            if self.profiler.is_some() {
                let slot = self.slot(phase);
                if let Some(p) = &mut self.profiler {
                    p.gated(idx, slot, slept_cycles);
                }
            }
        }
    }

    /// The ADC latched a sample and raised the interrupt sources in
    /// `mask`.
    pub fn adc_sample(&mut self, cycle: u64, mask: u16) {
        if mask == 0 {
            return;
        }
        self.emit(cycle, Event::Adc(AdcEvent::SampleReady { channels: mask }));
        for source in 0..16u8 {
            if mask & (1 << source) != 0 {
                self.emit(cycle, Event::Adc(AdcEvent::IrqForwarded { source }));
            }
        }
    }

    /// An instruction-memory bank served an access (first touch emits a
    /// power-up event).
    #[inline]
    pub fn im_access(&mut self, cycle: u64, bank: usize) {
        let bit = 1u32 << (bank as u32 & 31);
        if self.im_banks_on & bit == 0 {
            self.im_banks_on |= bit;
            self.emit(
                cycle,
                Event::Power(PowerEvent::ImBankOn { bank: bank as u8 }),
            );
        }
    }

    /// A data-memory bank served an access (first touch emits a
    /// power-up event).
    #[inline]
    pub fn dm_access(&mut self, cycle: u64, bank: usize) {
        let bit = 1u32 << (bank as u32 & 31);
        if self.dm_banks_on & bit == 0 {
            self.dm_banks_on |= bit;
            self.emit(
                cycle,
                Event::Power(PowerEvent::DmBankOn { bank: bank as u8 }),
            );
        }
    }

    /// Ends the recording: flushes open stall runs, attributes open
    /// gated intervals, and lets sinks close open slices. Idempotent.
    pub fn finish(&mut self, cycle: u64) {
        if self.finished {
            return;
        }
        self.finished = true;
        for core in 0..self.cores {
            self.flush_stall(core, cycle);
            if let Some((start, phase)) = self.gate_start[core].take() {
                let slept = cycle.saturating_sub(start);
                let slot = self.slot(phase);
                if let Some(p) = &mut self.profiler {
                    p.gated(core, slot, slept);
                }
            }
        }
        if let Some(sink) = &mut self.counting {
            sink.finish(cycle);
        }
        if let Some(sink) = &mut self.trace {
            sink.finish(cycle);
        }
        for sink in &mut self.extra {
            sink.finish(cycle);
        }
    }

    /// The counting sink, if enabled.
    pub fn counting(&self) -> Option<&CountingSink> {
        self.counting.as_ref()
    }

    /// The per-phase profiler, if enabled.
    pub fn profiler(&self) -> Option<&PhaseProfiler> {
        self.profiler.as_ref()
    }

    /// The timeline exporter, if enabled.
    pub fn trace_sink(&self) -> Option<&TraceJsonSink> {
        self.trace.as_ref()
    }

    /// Renders the timeline as `trace_event` JSON, if tracing was
    /// enabled.
    pub fn trace_json(&self) -> Option<String> {
        self.trace.as_ref().map(TraceJsonSink::to_json)
    }

    /// The phase table, if one was configured.
    pub fn phases(&self) -> Option<&PhaseTable> {
        self.phases.as_ref()
    }

    /// The retained event ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.ring.iter()
    }

    /// The last `n` ring events rendered as `[cycle] description`
    /// lines, oldest first.
    pub fn tail_rendered(&self, n: usize) -> Vec<String> {
        let skip = self.ring.len().saturating_sub(n);
        self.ring
            .iter()
            .skip(skip)
            .map(|t| t.render(self.phases.as_ref()))
            .collect()
    }
}

/// The simulator-facing handle: `Obs::default()` is off and every hook
/// is a `None` check away from returning.
#[derive(Debug, Default)]
pub struct Obs(Option<Box<ObsCore>>);

macro_rules! forward {
    ($(#[$doc:meta])* $name:ident ( $($arg:ident : $ty:ty),* )) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(&mut self, $($arg: $ty),*) {
            if let Some(core) = &mut self.0 {
                core.$name($($arg),*);
            }
        }
    };
}

impl Obs {
    /// A disabled handle.
    pub const fn off() -> Obs {
        Obs(None)
    }

    /// Enables recording for `cores` cores with `config`.
    pub fn enable(&mut self, cores: usize, config: ObsConfig) {
        self.0 = Some(Box::new(ObsCore::new(cores, config)));
    }

    /// True when a recorder is attached.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The recorder, if enabled.
    pub fn recorder(&self) -> Option<&ObsCore> {
        self.0.as_deref()
    }

    /// The recorder, mutable, if enabled.
    pub fn recorder_mut(&mut self) -> Option<&mut ObsCore> {
        self.0.as_deref_mut()
    }

    /// Attaches a caller-provided sink (no-op when disabled).
    pub fn add_sink(&mut self, sink: Box<dyn EventSink + Send>) {
        if let Some(core) = &mut self.0 {
            core.add_sink(sink);
        }
    }

    forward!(
        /// See [`ObsCore::active_cycle`].
        active_cycle(cycle: u64, core: usize, pc: u32)
    );
    forward!(
        /// See [`ObsCore::stall`].
        stall(cycle: u64, core: usize, cause: StallCause)
    );
    forward!(
        /// See [`ObsCore::bubble`].
        bubble(cycle: u64, core: usize)
    );
    forward!(
        /// See [`ObsCore::retire`].
        retire(cycle: u64, core: usize, pc: u32, instr: Instr)
    );
    forward!(
        /// See [`ObsCore::sync_op`].
        sync_op(cycle: u64, core: usize, kind: SyncKind, point: u16)
    );
    forward!(
        /// See [`ObsCore::sleep_op`].
        sleep_op(cycle: u64, core: usize)
    );
    forward!(
        /// See [`ObsCore::adc_sample`].
        adc_sample(cycle: u64, mask: u16)
    );
    forward!(
        /// See [`ObsCore::im_access`].
        im_access(cycle: u64, bank: usize)
    );
    forward!(
        /// See [`ObsCore::dm_access`].
        dm_access(cycle: u64, bank: usize)
    );
    forward!(
        /// See [`ObsCore::finish`].
        finish(cycle: u64)
    );

    /// Translates a committed synchronizer outcome into events.
    #[inline]
    pub fn sync_outcome(&mut self, cycle: u64, outcome: &SyncOutcome) {
        if let Some(core) = &mut self.0 {
            core.sync_outcome(cycle, outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_core::{CoreSet, PointTouch};

    fn outcome_release(point: u16, woken_core: usize) -> SyncOutcome {
        let set = CoreSet::from_bits(1 << woken_core);
        SyncOutcome {
            woken: set,
            slept: CoreSet::empty(),
            fell_through: CoreSet::empty(),
            fired_points: vec![point],
            fired_wakes: vec![set],
            touched: vec![PointTouch {
                point,
                flagged: CoreSet::empty(),
                requests: 2,
                armed: false,
            }],
            memory_writes: 1,
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let mut obs = Obs::off();
        assert!(!obs.enabled());
        obs.active_cycle(0, 0, 0);
        obs.stall(1, 0, StallCause::ImConflict);
        obs.retire(2, 0, 0x10, Instr::Nop);
        obs.finish(3);
        assert!(obs.recorder().is_none());
    }

    #[test]
    fn recorder_tracks_sleep_latency_through_outcomes() {
        let mut obs = Obs::off();
        obs.enable(2, ObsConfig::full(None));

        // Core 1 sleeps at cycle 10 and is woken at cycle 35.
        let slept = SyncOutcome {
            slept: CoreSet::from_bits(0b10),
            ..SyncOutcome::default()
        };
        obs.sleep_op(10, 1);
        obs.sync_outcome(10, &slept);
        obs.sync_outcome(35, &outcome_release(4, 1));
        obs.finish(40);

        let rec = obs.recorder().unwrap();
        let counting = rec.counting().unwrap();
        assert_eq!(counting.releases, 1);
        assert_eq!(counting.merges_saved, 1);
        assert_eq!(counting.sleep_cycles.count(), 1);
        assert_eq!(counting.sleep_cycles.max(), 25);

        // The ring retained the story in order.
        let kinds: Vec<_> = rec.events().map(|t| t.event).collect();
        assert!(kinds.contains(&Event::Sync(SyncEvent::CoreSlept { core: 1 })));
        assert!(kinds.contains(&Event::Sync(SyncEvent::CoreWoken {
            core: 1,
            slept_cycles: 25
        })));
        assert!(kinds.contains(&Event::Power(PowerEvent::Gate { core: 1 })));

        // The trace exporter saw the gate as a 25-cycle sleep slice.
        let json = rec.trace_json().unwrap();
        let doc = json::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let sleep = events
            .iter()
            .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("power"))
            .expect("sleep slice present");
        assert_eq!(sleep.get("dur").unwrap().as_num(), Some(25.0));
    }

    #[test]
    fn stall_runs_coalesce_and_flush_on_retire() {
        let mut obs = Obs::off();
        obs.enable(
            1,
            ObsConfig {
                counting: true,
                ring: 16,
                ..ObsConfig::default()
            },
        );
        obs.stall(5, 0, StallCause::DmConflict);
        obs.stall(6, 0, StallCause::DmConflict);
        obs.stall(7, 0, StallCause::LoadUseHazard);
        obs.retire(8, 0, 0x10, Instr::Nop);
        obs.finish(9);

        let rec = obs.recorder().unwrap();
        let runs: Vec<_> = rec
            .events()
            .filter_map(|t| match t.event {
                Event::StallRun { cause, len, .. } => Some((t.cycle, cause, len)),
                _ => None,
            })
            .collect();
        assert_eq!(
            runs,
            vec![
                (7, StallCause::DmConflict, 2),
                (8, StallCause::LoadUseHazard, 1)
            ]
        );
        let counting = rec.counting().unwrap();
        assert_eq!(counting.total_stall_cycles(), 3);
        assert_eq!(counting.stall_run_cycles.count(), 2);
    }

    fn ring_only(capacity: usize) -> Obs {
        let mut obs = Obs::off();
        obs.enable(
            2,
            ObsConfig {
                ring: capacity,
                ..ObsConfig::default()
            },
        );
        obs
    }

    fn retired_cycles(obs: &Obs) -> Vec<u64> {
        obs.recorder()
            .unwrap()
            .events()
            .filter(|t| matches!(t.event, Event::Retire { .. }))
            .map(|t| t.cycle)
            .collect()
    }

    #[test]
    fn ring_keeps_the_most_recent_retirements() {
        let mut obs = ring_only(3);
        for cycle in 0..5 {
            obs.retire(cycle, 0, 0x40 + cycle as u32, Instr::Nop);
        }
        assert_eq!(retired_cycles(&obs), vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_keeps_nothing() {
        let mut obs = ring_only(0);
        for cycle in 0..100 {
            obs.retire(cycle, 0, 0x40, Instr::Nop);
            obs.stall(cycle, 1, StallCause::DmConflict);
            obs.im_access(cycle, cycle as usize % 8);
        }
        obs.finish(100);
        let rec = obs.recorder().unwrap();
        assert_eq!(rec.events().count(), 0);
        assert!(rec.tail_rendered(16).is_empty());
    }

    #[test]
    fn stall_runs_interleave_with_retirements_in_the_ring() {
        let mut obs = ring_only(8);
        obs.retire(1, 0, 0x41, Instr::Nop);
        obs.stall(2, 0, StallCause::ImConflict);
        obs.stall(3, 0, StallCause::ImConflict);
        obs.retire(4, 0, 0x42, Instr::Halt);
        let lines = obs.recorder().unwrap().tail_rendered(8);
        assert_eq!(
            lines,
            vec![
                "[         1] core0 0x0041: nop",
                "[         4] core0 stalled 2 cycles (im-conflict)",
                "[         4] core0 0x0042: halt",
            ]
        );
        assert_eq!(retired_cycles(&obs), vec![1, 4]);
    }

    #[test]
    fn retirements_never_reach_sinks() {
        let mut obs = Obs::off();
        obs.enable(
            1,
            ObsConfig {
                counting: true,
                trace: true,
                ring: 4,
                ..ObsConfig::default()
            },
        );
        obs.retire(1, 0, 0x40, Instr::Nop);
        obs.retire(2, 0, 0x41, Instr::Nop);
        obs.finish(3);
        let rec = obs.recorder().unwrap();
        assert_eq!(rec.events().count(), 2);
        assert_eq!(rec.counting().unwrap().events, 0);
        assert!(rec.trace_sink().unwrap().is_empty());
    }

    #[test]
    fn unfinished_gate_attributes_to_profiler_on_finish() {
        let mut obs = Obs::off();
        obs.enable(
            1,
            ObsConfig {
                profile: true,
                ..ObsConfig::default()
            },
        );
        let slept = SyncOutcome {
            slept: CoreSet::from_bits(0b1),
            ..SyncOutcome::default()
        };
        obs.sync_outcome(100, &slept);
        obs.finish(160);
        let p = obs.recorder().unwrap().profiler().unwrap();
        let rows = p.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].phase, UNMAPPED_PHASE);
        assert_eq!(rows[0].counters.gated_cycles, 60);
    }

    #[test]
    fn bank_power_events_fire_once() {
        let mut obs = Obs::off();
        obs.enable(
            1,
            ObsConfig {
                ring: 8,
                ..ObsConfig::default()
            },
        );
        obs.im_access(1, 0);
        obs.im_access(2, 0);
        obs.im_access(3, 5);
        obs.dm_access(4, 2);
        obs.dm_access(5, 2);
        let events: Vec<_> = obs.recorder().unwrap().events().map(|t| t.event).collect();
        assert_eq!(
            events,
            vec![
                Event::Power(PowerEvent::ImBankOn { bank: 0 }),
                Event::Power(PowerEvent::ImBankOn { bank: 5 }),
                Event::Power(PowerEvent::DmBankOn { bank: 2 }),
            ]
        );
    }
}
