//! The platform: cores, memories, crossbars, ATU, synchronizer and ADC
//! wired together by a cycle-accurate event loop.

use wbsn_core::{CoreId, Synchronizer};
use wbsn_isa::{DecodedImage, DecodedInstr, Instr, LinkedImage, MemClass, IM_WORDS};

use crate::adc::Adc;
use crate::atu::{Atu, DmLocation, DmTarget};
use crate::config::{InterconnectKind, PlatformConfig, MAX_CORES};
use crate::cpu::{Core, MemIntent, Retire};
use crate::error::{Fault, FaultKind, SimError};
use crate::memory::{DataMemory, InstrMemory};
use crate::mmio::MmioReg;
use crate::obs::{Obs, ObsConfig, StallCause};
use crate::stats::SimStats;
use crate::watchdog::{CoreDump, PhaseAttribution, PointDump, PostMortem, WatchdogTrip};
use crate::xbar::{arbitrate_into, Grant, Request};

/// Why a [`Platform::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every core executed `HALT`.
    AllHalted,
    /// All remaining cores are clock-gated and no further event (ADC
    /// sample or synchronization) can ever wake them — the workload is
    /// finished.
    Quiescent,
    /// The cycle budget was exhausted first.
    CycleLimit,
    /// A core reached a breakpoint (the instruction at that address has
    /// not executed yet).
    Breakpoint {
        /// The stopped core.
        core: usize,
        /// The breakpoint address.
        pc: u32,
    },
    /// A watched data address was written.
    Watchpoint {
        /// The writing core.
        core: usize,
        /// The watched (core-visible) address.
        addr: u32,
    },
}

#[derive(Debug)]
struct Slot {
    core: Core,
    /// Fetched (predecoded) instruction waiting to execute (set while
    /// stalled on hazards or data-memory arbitration).
    held: Option<DecodedInstr>,
    /// The next cycle is a taken-branch fetch bubble.
    bubble: bool,
    /// The core participates in the workload (an entry point was linked).
    present: bool,
}

/// What a held instruction resolved to this cycle.
#[derive(Debug, Clone, Copy)]
enum Ready {
    NoMem,
    Load(u16),
    Store,
}

// Fillers for the unused tail of a `StackVec`; never read.
const NO_REQUEST: Request = Request {
    core: 0,
    bank: 0,
    addr: 0,
    write: false,
};
const NO_LOCATION: DmLocation = DmLocation { bank: 0, row: 0 };

/// A list of at most `N` entries kept on the stack: one cycle's
/// requests or retirements, at most one per slot.
struct StackVec<T, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy, const N: usize> StackVec<T, N> {
    fn new(fill: T) -> Self {
        StackVec {
            items: [fill; N],
            len: 0,
        }
    }

    fn push(&mut self, item: T) {
        self.items[self.len] = item;
        self.len += 1;
    }

    fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }
}

/// The simulated WBSN platform.
///
/// See the [crate-level example](crate) for the typical
/// assemble–link–run flow.
#[derive(Debug)]
pub struct Platform {
    config: PlatformConfig,
    atu: Atu,
    im: InstrMemory,
    decoded: DecodedImage,
    dm: DataMemory,
    slots: Vec<Slot>,
    /// Grant buffer of a contended crossbar cycle, reused so the hot
    /// loop performs no heap allocation once warmed up.
    grants: Vec<Grant>,
    /// Re-decode the binary word on every fetch instead of using the
    /// predecoded image — the differential oracle for the fast path.
    #[cfg(any(test, feature = "slow-decode"))]
    slow_decode: bool,
    synchronizer: Synchronizer,
    adc: Adc,
    stats: SimStats,
    /// Observability recorder; a disabled handle is a `None` check per
    /// hook.
    obs: Obs,
    breakpoints: Vec<u32>,
    watchpoints: Vec<u32>,
    watch_hit: Option<(usize, u32)>,
    /// Stall budget in cycles; `None` disables the watchdog.
    watchdog: Option<u64>,
    /// Last cycle at which progress (an instruction retirement or an
    /// accounted idle skip) was observed.
    last_progress_cycle: u64,
    /// Total retired instructions at the last progress observation.
    last_instr_total: u64,
    /// Number of present cores (fixed at construction).
    live_count: usize,
    /// Present cores that have executed `HALT` (halting is sticky).
    halted_count: usize,
    /// Running total of retired instructions across all cores, kept
    /// incrementally so the watchdog check is O(1) per cycle.
    instr_retired: u64,
    /// The platform may have just become fully idle: set when a core
    /// sleeps or halts, cleared when an idleness check fails. Lets the
    /// run loop skip the per-cycle idleness scan in the common case.
    idle_candidate: bool,
}

impl Platform {
    /// Builds a platform from a configuration and a linked image.
    ///
    /// Cores without a linked entry point are treated as absent (they
    /// never clock). Initial data-memory segments are loaded through
    /// core 0's address map.
    ///
    /// # Errors
    ///
    /// Returns configuration errors, faults for initial data falling into
    /// reserved regions, and synchronizer construction errors.
    pub fn new(config: PlatformConfig, image: &LinkedImage) -> Result<Platform, SimError> {
        config.validate()?;
        let flat = config.interconnect == InterconnectKind::Decoder;
        let atu = Atu::new(
            config.cores,
            config.shared_words,
            config.sync_base,
            config.sync_points,
            flat,
        );
        let im = InstrMemory::from_image(image.im_words());
        let decoded = DecodedImage::from_words(image.im_words());
        let mut dm = DataMemory::new();
        for (addr, word) in image.dm_init() {
            match atu.translate(0, addr) {
                Ok(DmTarget::Memory { location, .. }) => dm.write(location, word),
                _ => {
                    return Err(Fault {
                        core: 0,
                        pc: 0,
                        addr,
                        kind: FaultKind::DmOutOfRange,
                    }
                    .into())
                }
            }
        }
        let synchronizer = Synchronizer::new(config.cores, config.sync_points)?;
        let slots = (0..config.cores)
            .map(|id| {
                let entry = image.entry(id);
                let mut core = Core::new(id, entry.unwrap_or(0));
                let present = entry.is_some();
                if !present {
                    // Absent cores stay permanently off.
                    core.set_gated(true);
                }
                Slot {
                    core,
                    held: None,
                    bubble: false,
                    present,
                }
            })
            .collect();
        let adc = Adc::new(config.adc, Vec::new());
        let stats = SimStats::new(config.cores);
        let live_count = (0..config.cores)
            .filter(|&id| image.entry(id).is_some())
            .count();
        Ok(Platform {
            config,
            atu,
            im,
            decoded,
            dm,
            slots,
            grants: Vec::new(),
            #[cfg(any(test, feature = "slow-decode"))]
            slow_decode: false,
            synchronizer,
            adc,
            stats,
            obs: Obs::off(),
            breakpoints: Vec::new(),
            watchpoints: Vec::new(),
            watch_hit: None,
            watchdog: None,
            last_progress_cycle: 0,
            last_instr_total: 0,
            live_count,
            halted_count: 0,
            instr_retired: 0,
            // Checked (and cleared if false) on the first loop iteration.
            idle_candidate: true,
        })
    }

    /// Replaces the ADC sample streams (one per channel). Call before
    /// running.
    pub fn set_adc_streams(&mut self, streams: Vec<Vec<i16>>) {
        self.adc = Adc::new(self.config.adc, streams);
    }

    /// Preloads a synchronization point (a building directive).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown points.
    pub fn preload_sync_point(
        &mut self,
        point: u16,
        count: u8,
        auto_reload: bool,
    ) -> Result<(), SimError> {
        self.synchronizer
            .preload(point, count, auto_reload)
            .map_err(SimError::from)
    }

    /// Configures a preloaded auto-reload barrier on a synchronization
    /// point (a building directive; see
    /// [`Synchronizer::preload_barrier`]).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown points.
    pub fn preload_barrier(
        &mut self,
        point: u16,
        count: u8,
        participants: wbsn_core::CoreSet,
    ) -> Result<(), SimError> {
        self.synchronizer
            .preload_barrier(point, count, participants)
            .map_err(SimError::from)
    }

    /// Switches instruction fetch to the legacy decode-per-cycle path:
    /// every fetch re-decodes the 24-bit word from the instruction
    /// memory instead of using the image predecoded at load time.
    ///
    /// This is the differential oracle for the predecoded fast path —
    /// architectural state, statistics and traces must be identical
    /// either way. Only available in tests and under the `slow-decode`
    /// feature; production builds always use the fast path.
    #[cfg(any(test, feature = "slow-decode"))]
    pub fn set_slow_decode(&mut self, slow: bool) {
        self.slow_decode = slow;
    }

    /// Enables or disables the memory→execute forwarding path.
    ///
    /// With forwarding on, a consumer issued immediately after a load
    /// of one of its sources no longer pays the one-cycle load-use
    /// hazard stall. Defaults to off in both presets, matching the
    /// paper's pipeline.
    pub fn set_forwarding(&mut self, on: bool) {
        self.config.forwarding = on;
    }

    /// Attaches an observability recorder: from the next cycle on, the
    /// platform emits the typed event stream (synchronizer, power,
    /// phase, ADC, stall runs) into the sinks selected by `config`, and
    /// keeps the last `config.ring` events — retirements included — in
    /// the recorder's ring.
    ///
    /// Call [`Platform::finish_obs`] after the last cycle to flush open
    /// stall runs and gated intervals before reading results.
    pub fn enable_obs(&mut self, config: ObsConfig) {
        self.obs.enable(self.config.cores, config);
    }

    /// The observability handle (disabled unless
    /// [`Platform::enable_obs`] was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The observability handle, mutable (for attaching custom sinks).
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Ends the observation: flushes open stall runs, attributes open
    /// gated intervals, and lets sinks close open timeline slices.
    /// Idempotent; a no-op when observability is disabled.
    pub fn finish_obs(&mut self) {
        self.obs.finish(self.stats.cycles);
    }

    /// Adds an instruction breakpoint: [`Platform::run`] stops with
    /// [`RunExit::Breakpoint`] when any core is about to execute `pc`.
    pub fn add_breakpoint(&mut self, pc: u32) {
        if !self.breakpoints.contains(&pc) {
            self.breakpoints.push(pc);
        }
    }

    /// Adds a data watchpoint: [`Platform::run`] stops with
    /// [`RunExit::Watchpoint`] after any core writes the (core-visible)
    /// address.
    pub fn add_watchpoint(&mut self, addr: u32) {
        if !self.watchpoints.contains(&addr) {
            self.watchpoints.push(addr);
        }
    }

    /// Arms the runtime watchdog: [`Platform::run`] returns
    /// [`SimError::Watchdog`] with a [`PostMortem`] instead of exiting
    /// [`RunExit::Quiescent`] when gated cores wait on synchronization
    /// points that can never fire, and instead of spinning when no
    /// instruction retires for `stall_cycles` cycles.
    ///
    /// The watchdog is off by default so that workloads ending in an
    /// intentional final sleep keep their quiescent exit.
    pub fn set_watchdog(&mut self, stall_cycles: u64) {
        self.watchdog = Some(stall_cycles.max(1));
        self.last_progress_cycle = self.stats.cycles;
        self.last_instr_total = self.instr_retired;
    }

    /// Present, unhalted, gated cores that are flagged in at least one
    /// synchronization point — cores expecting a wake.
    fn sync_waiters(&self) -> Vec<usize> {
        let mut flagged = wbsn_core::CoreSet::empty();
        for point in 0..self.config.sync_points as u16 {
            if let Ok(value) = self.synchronizer.point_value(point) {
                flagged = flagged.union(value.flags());
            }
        }
        self.slots
            .iter()
            .enumerate()
            .filter(|(idx, slot)| {
                slot.present
                    && !slot.core.is_halted()
                    && slot.core.is_gated()
                    && CoreId::new(*idx).is_ok_and(|c| flagged.contains(c))
            })
            .map(|(idx, _)| idx)
            .collect()
    }

    /// Captures the platform state for a watchdog report.
    fn post_mortem(&self, trip: WatchdogTrip) -> PostMortem {
        let cores = self
            .slots
            .iter()
            .enumerate()
            .map(|(idx, slot)| CoreDump {
                core: idx,
                pc: slot.core.pc(),
                halted: slot.core.is_halted(),
                gated: slot.core.is_gated(),
                present: slot.present,
            })
            .collect();
        let points = (0..self.config.sync_points as u16)
            .map(|point| PointDump {
                point,
                value: self
                    .synchronizer
                    .point_value(point)
                    .expect("configured point"),
                armed: self
                    .synchronizer
                    .point_armed(point)
                    .expect("configured point"),
            })
            .collect();
        let (obs_tail, phase_profile) = self.obs_post_mortem();
        PostMortem {
            cycle: self.stats.cycles,
            trip,
            cores,
            points,
            obs_tail,
            phase_profile,
        }
    }

    /// The observability half of a post-mortem: the rendered tail of the
    /// event ring and the per-(core, phase) attribution, when a recorder
    /// with those sinks is attached.
    fn obs_post_mortem(&self) -> (Vec<String>, Vec<PhaseAttribution>) {
        let Some(recorder) = self.obs.recorder() else {
            return (Vec::new(), Vec::new());
        };
        let obs_tail = recorder.tail_rendered(16);
        let phase_profile = recorder
            .profiler()
            .map(|profiler| {
                profiler
                    .rows()
                    .into_iter()
                    .map(|row| PhaseAttribution {
                        core: row.core,
                        phase: row.phase,
                        active_cycles: row.counters.active_cycles,
                        instructions: row.counters.instructions,
                    })
                    .collect()
            })
            .unwrap_or_default();
        (obs_tail, phase_profile)
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The synchronizer (for inspection in tests and harnesses).
    pub fn synchronizer(&self) -> &Synchronizer {
        &self.synchronizer
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// A core's architectural state.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: usize) -> &Core {
        &self.slots[core].core
    }

    /// ADC overruns observed so far.
    pub fn adc_overruns(&self) -> u64 {
        self.adc.overruns()
    }

    /// Reads a data word through core 0's address map (test/harness
    /// convenience).
    ///
    /// # Errors
    ///
    /// Returns a fault for untranslatable addresses.
    pub fn peek_dm(&self, addr: u32) -> Result<u16, SimError> {
        self.peek_dm_for_core(0, addr)
    }

    /// Reads a data word through `core`'s address map.
    ///
    /// # Errors
    ///
    /// Returns a fault for untranslatable addresses.
    pub fn peek_dm_for_core(&self, core: usize, addr: u32) -> Result<u16, SimError> {
        match self.atu.translate(core, addr) {
            Ok(DmTarget::Memory { location, .. }) => Ok(self.dm.read(location)),
            Ok(DmTarget::SyncPoint(p)) => Ok(self
                .synchronizer
                .point_value(p)
                .map(|v| v.to_word())
                .map_err(SimError::from)?),
            Ok(DmTarget::Mmio(_)) => Ok(0),
            Err(kind) => Err(Fault {
                core,
                pc: self.slots[core].core.pc(),
                addr,
                kind,
            }
            .into()),
        }
    }

    /// Runs until every core halts, the platform becomes quiescent, or
    /// `max_cycles` elapse.
    ///
    /// When every live core is clock-gated, the loop fast-forwards to the
    /// next ADC event instead of stepping empty cycles, charging the
    /// skipped time to the gated counters — this is what makes minutes of
    /// simulated bio-signal time affordable.
    ///
    /// # Errors
    ///
    /// Returns the first fault or synchronization protocol violation.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunExit, SimError> {
        while self.stats.cycles < max_cycles {
            if self.halted_count == self.live_count {
                debug_assert!(self.all_halted());
                return Ok(RunExit::AllHalted);
            }
            if !self.breakpoints.is_empty() {
                for slot in &self.slots {
                    if slot.present
                        && !slot.core.is_halted()
                        && !slot.core.is_gated()
                        && slot.held.is_none()
                        && self.breakpoints.contains(&slot.core.pc())
                    {
                        return Ok(RunExit::Breakpoint {
                            core: slot.core.id(),
                            pc: slot.core.pc(),
                        });
                    }
                }
            }
            // Idleness can only begin on a cycle in which a core slept or
            // halted; `idle_candidate` tracks that so the scan is skipped
            // while cores are running.
            if self.idle_candidate && !self.all_idle() {
                self.idle_candidate = false;
            }
            if self.idle_candidate {
                match self.adc.next_tick() {
                    Some(tick) if tick < max_cycles => {
                        let now = self.stats.cycles;
                        if tick > now {
                            let skip = tick - now;
                            for slot in &mut self.slots {
                                if slot.present && !slot.core.is_halted() {
                                    self.stats.cores[slot.core.id()].gated_cycles += skip;
                                }
                            }
                            self.stats.cycles = tick;
                            // An accounted idle skip is progress, not a
                            // stall.
                            self.last_progress_cycle = self.stats.cycles;
                        }
                    }
                    _ => {
                        if self.watchdog.is_some() {
                            let waiting = self.sync_waiters();
                            if !waiting.is_empty() {
                                return Err(SimError::Watchdog(Box::new(
                                    self.post_mortem(WatchdogTrip::Deadlock { waiting }),
                                )));
                            }
                        }
                        return Ok(RunExit::Quiescent);
                    }
                }
            }
            self.step()?;
            if let Some((core, addr)) = self.watch_hit.take() {
                return Ok(RunExit::Watchpoint { core, addr });
            }
            if let Some(budget) = self.watchdog {
                let instr_total = self.instr_retired;
                if instr_total != self.last_instr_total {
                    self.last_instr_total = instr_total;
                    self.last_progress_cycle = self.stats.cycles;
                } else if self.stats.cycles - self.last_progress_cycle > budget {
                    return Err(SimError::Watchdog(Box::new(
                        self.post_mortem(WatchdogTrip::Stall { budget }),
                    )));
                }
            }
        }
        Ok(RunExit::CycleLimit)
    }

    fn all_halted(&self) -> bool {
        self.slots.iter().all(|s| !s.present || s.core.is_halted())
    }

    fn all_idle(&self) -> bool {
        self.slots.iter().all(|s| {
            !s.present || s.core.is_halted() || (s.core.is_gated() && s.held.is_none() && !s.bubble)
        })
    }

    /// Advances the platform clock to `target` with every live core
    /// clock-gated — used by harnesses to account a fixed wall-clock
    /// observation window after the workload quiesces (leakage and the
    /// clock trunk keep accruing).
    pub fn idle_until(&mut self, target: u64) {
        if target <= self.stats.cycles {
            return;
        }
        let skip = target - self.stats.cycles;
        for slot in &self.slots {
            if slot.present && !slot.core.is_halted() {
                self.stats.cores[slot.core.id()].gated_cycles += skip;
            }
        }
        self.stats.cycles = target;
    }

    /// Executes exactly one cycle.
    ///
    /// # Errors
    ///
    /// Returns the first fault or synchronization protocol violation.
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.slots.len() == 1 {
            self.step_slots::<1>()
        } else {
            self.step_slots::<MAX_CORES>()
        }
    }

    /// The cycle pipeline, instantiated once for the lone slot of the
    /// single-core baseline and once for the full platform. Per-cycle
    /// buffers hold at most `N` entries and live on the stack, so with
    /// `N = 1` they reduce to scalars. The crossbar arbitrates only when
    /// more than one request reaches it; a lone request always wins its
    /// bank and a decoder never arbitrates.
    ///
    /// Kept out of line: inlined into [`Platform::step`], the two
    /// instantiations made counting-obs single-core runs ~5% slower
    /// (`examples/sim_throughput`, pinned to one CPU).
    #[inline(never)]
    fn step_slots<const N: usize>(&mut self) -> Result<(), SimError> {
        debug_assert!(self.slots.len() <= N);
        let cycle = self.stats.cycles;
        let crossbar = self.config.interconnect == InterconnectKind::Crossbar;
        // 1. ADC sampling and interrupt forwarding.
        let irq_mask = self.adc.tick(cycle);
        if irq_mask != 0 {
            self.stats.adc_samples += 1;
            self.obs.adc_sample(cycle, irq_mask);
            for source in 0..16 {
                if irq_mask & (1 << source) != 0 {
                    self.synchronizer.raise_irq(source);
                }
            }
            // Close the real-time accounting window.
            for cs in &mut self.stats.cores {
                cs.max_window_active = cs.max_window_active.max(cs.window_active);
                cs.window_active = 0;
            }
            // Overruns only advance when a sample latches, so the
            // snapshot is refreshed here rather than every cycle.
            self.stats.adc_overruns = self.adc.overruns();
        }

        // 2. Cycle accounting and fetch requests.
        let mut fetch_reqs = StackVec::<Request, N>::new(NO_REQUEST);
        for (idx, slot) in self.slots.iter_mut().enumerate().take(N) {
            if !slot.present || slot.core.is_halted() {
                continue;
            }
            let cs = &mut self.stats.cores[idx];
            if slot.core.is_gated() {
                cs.gated_cycles += 1;
                continue;
            }
            cs.active_cycles += 1;
            cs.window_active += 1;
            self.obs.active_cycle(cycle, idx, slot.core.pc());
            if slot.bubble {
                slot.bubble = false;
                cs.bubbles += 1;
                self.obs.bubble(cycle, idx);
                continue;
            }
            if slot.held.is_some() {
                continue;
            }
            let pc = slot.core.pc();
            if pc as usize >= IM_WORDS {
                return Err(Fault {
                    core: idx,
                    pc,
                    addr: pc,
                    kind: FaultKind::ImOutOfRange,
                }
                .into());
            }
            fetch_reqs.push(Request {
                core: idx,
                bank: InstrMemory::bank_of(pc),
                addr: pc,
                write: false,
            });
        }

        // 3. Instruction-side arbitration. `N > 1` lets the one-slot
        // instantiation drop the branch at compile time.
        let contended = N > 1 && crossbar && fetch_reqs.len > 1;
        if contended {
            arbitrate_into(
                fetch_reqs.as_slice(),
                cycle as usize,
                self.config.broadcast,
                &mut self.grants,
            );
        }
        for (i, req) in fetch_reqs.as_slice().iter().enumerate() {
            let grant = if contended {
                self.grants[i]
            } else {
                Grant::Access
            };
            let (slot_idx, pc) = (req.core, req.addr);
            match grant {
                Grant::Access | Grant::Broadcast => {
                    if grant == Grant::Access {
                        self.stats.im.reads[req.bank] += 1;
                    } else {
                        self.stats.im.broadcasts += 1;
                    }
                    if crossbar {
                        self.stats.xbar_im += 1;
                    }
                    let decoded = self.fetch_decoded(pc);
                    let instr = decoded.ok_or(SimError::Fault(Fault {
                        core: slot_idx,
                        pc,
                        addr: pc,
                        kind: FaultKind::BadInstruction,
                    }))?;
                    debug_assert!(self.im.fetch(pc).is_some());
                    self.obs.im_access(cycle, req.bank);
                    self.slots[slot_idx].held = Some(instr);
                }
                Grant::Stall => {
                    self.stats.im.conflicts += 1;
                    self.stats.cores[slot_idx].stall_im += 1;
                    // The dead fetch cycle covers the load latency: the
                    // eventual consumer is no longer the immediately next
                    // issue slot, so a surviving hazard latch must not
                    // charge a phantom stall on top of the IM stall.
                    self.slots[slot_idx].core.clear_hazard();
                    self.obs.stall(cycle, slot_idx, StallCause::ImConflict);
                }
            }
        }

        // 4. Hazards and memory intents for every held instruction.
        let mut ready = StackVec::<(usize, Ready), N>::new((0, Ready::NoMem));
        let mut dm_reqs = StackVec::<Request, N>::new(NO_REQUEST);
        let mut dm_meta = StackVec::<(DmLocation, Option<u16>), N>::new((NO_LOCATION, None));
        for idx in 0..self.slots.len().min(N) {
            let slot = &mut self.slots[idx];
            if !slot.present || slot.core.is_halted() || slot.core.is_gated() || slot.bubble {
                continue;
            }
            let Some(decoded) = slot.held else { continue };
            if !self.config.forwarding && slot.core.has_load_use_hazard_mask(decoded.src_mask) {
                slot.core.clear_hazard();
                self.stats.cores[idx].stall_hazard += 1;
                self.obs.stall(cycle, idx, StallCause::LoadUseHazard);
                continue;
            }
            if decoded.mem == MemClass::None {
                ready.push((idx, Ready::NoMem));
                continue;
            }
            let intent = slot
                .core
                .mem_intent(&decoded.instr)
                .expect("memory class implies an intent");
            let (addr, store) = match intent {
                MemIntent::Load { addr } => (addr, None),
                MemIntent::Store { addr, value } => (addr, Some(value)),
            };
            let target = self.atu.translate(idx, addr).map_err(|kind| -> SimError {
                Fault {
                    core: idx,
                    pc: slot.core.pc(),
                    addr,
                    kind,
                }
                .into()
            })?;
            match target {
                DmTarget::Memory { location, .. } => {
                    dm_reqs.push(Request {
                        core: idx,
                        bank: location.bank,
                        addr,
                        write: store.is_some(),
                    });
                    dm_meta.push((location, store));
                }
                DmTarget::SyncPoint(point) => {
                    if store.is_some() {
                        return Err(Fault {
                            core: idx,
                            pc: slot.core.pc(),
                            addr,
                            kind: FaultKind::WriteToSyncRegion,
                        }
                        .into());
                    }
                    let word = self.synchronizer.point_value(point)?.to_word();
                    self.stats.sync_region_reads += 1;
                    ready.push((idx, Ready::Load(word)));
                }
                DmTarget::Mmio(mmio_addr) => {
                    let value = self.access_mmio(idx, mmio_addr, store)?;
                    match store {
                        Some(_) => ready.push((idx, Ready::Store)),
                        None => ready.push((idx, Ready::Load(value))),
                    }
                }
            }
        }

        // 5. Data-side arbitration and physical accesses.
        let contended = N > 1 && crossbar && dm_reqs.len > 1;
        if contended {
            arbitrate_into(
                dm_reqs.as_slice(),
                cycle as usize,
                self.config.broadcast,
                &mut self.grants,
            );
        }
        // Broadcast loads observe the winner's value; resolve accesses in
        // grant order: all reads of one address see the pre-write value
        // only if no write won — writes and reads of the same address
        // never both win in one cycle, so read-after-write hazards within
        // a cycle cannot occur.
        for (i, (req, &(location, store))) in dm_reqs
            .as_slice()
            .iter()
            .zip(dm_meta.as_slice())
            .enumerate()
        {
            let grant = if contended {
                self.grants[i]
            } else {
                Grant::Access
            };
            let slot_idx = req.core;
            match grant {
                Grant::Access => {
                    if crossbar {
                        self.stats.xbar_dm += 1;
                    }
                    self.obs.dm_access(cycle, location.bank);
                    match store {
                        Some(value) => {
                            self.stats.dm.writes[location.bank] += 1;
                            self.dm.write(location, value);
                            if !self.watchpoints.is_empty() && self.watchpoints.contains(&req.addr)
                            {
                                self.watch_hit = Some((slot_idx, req.addr));
                            }
                            ready.push((slot_idx, Ready::Store));
                        }
                        None => {
                            self.stats.dm.reads[location.bank] += 1;
                            ready.push((slot_idx, Ready::Load(self.dm.read(location))));
                        }
                    }
                }
                Grant::Broadcast => {
                    if crossbar {
                        self.stats.xbar_dm += 1;
                    }
                    self.stats.dm.broadcasts += 1;
                    self.obs.dm_access(cycle, location.bank);
                    ready.push((slot_idx, Ready::Load(self.dm.read(location))));
                }
                Grant::Stall => {
                    self.stats.dm.conflicts += 1;
                    self.stats.cores[slot_idx].stall_dm += 1;
                    self.obs.stall(cycle, slot_idx, StallCause::DmConflict);
                }
            }
        }

        // 6. Retirement.
        for &(slot_idx, r) in ready.as_slice() {
            let slot = &mut self.slots[slot_idx];
            let decoded = slot.held.take().expect("ready instructions were held");
            let instr = decoded.instr;
            let load_value = match r {
                Ready::Load(v) => Some(v),
                _ => None,
            };
            self.stats.cores[slot_idx].instructions += 1;
            self.instr_retired += 1;
            self.obs.retire(cycle, slot_idx, slot.core.pc(), instr);
            match instr {
                Instr::Sync { kind, point } => {
                    self.stats.cores[slot_idx].sync_ops += 1;
                    self.obs.sync_op(cycle, slot_idx, kind, point);
                }
                Instr::Sleep => {
                    self.stats.cores[slot_idx].sleeps += 1;
                    self.obs.sleep_op(cycle, slot_idx);
                }
                _ => {}
            }
            match slot.core.retire(instr, load_value) {
                Retire::Next => {}
                Retire::Halt => {
                    self.halted_count += 1;
                    self.idle_candidate = true;
                }
                Retire::Taken => slot.bubble = true,
                Retire::Sync { kind, point } => {
                    self.synchronizer
                        .submit_op(CoreId::new(slot_idx)?, kind, point)?;
                }
                Retire::Sleep => {
                    self.synchronizer.request_sleep(CoreId::new(slot_idx)?);
                }
            }
        }

        // 7. Synchronizer commit: gating and wake-up.
        let outcome = self.synchronizer.commit()?;
        self.obs.sync_outcome(cycle, &outcome);
        self.stats.sync_region_writes += outcome.memory_writes as u64;
        if !outcome.slept.is_empty() {
            self.idle_candidate = true;
        }
        for core in outcome.slept.iter() {
            self.slots[core.index()].core.set_gated(true);
        }
        for core in outcome.woken.iter() {
            let slot = &mut self.slots[core.index()];
            slot.core.set_gated(false);
            // Invariant guard: a load retired just before a sleep must
            // not charge the first post-wake instruction a hazard stall.
            slot.core.clear_hazard();
        }

        self.stats.cycles += 1;
        Ok(())
    }

    /// Resolves the instruction at `pc`: predecoded fast path by
    /// default, decode-per-cycle when the oracle path is selected.
    #[inline]
    fn fetch_decoded(&self, pc: u32) -> Option<DecodedInstr> {
        #[cfg(any(test, feature = "slow-decode"))]
        if self.slow_decode {
            return self
                .im
                .fetch(pc)
                .and_then(|w| Instr::decode(w).ok())
                .map(DecodedInstr::new);
        }
        self.decoded.get(pc).copied()
    }

    fn access_mmio(&mut self, core: usize, addr: u32, store: Option<u16>) -> Result<u16, SimError> {
        let pc = self.slots[core].core.pc();
        let fault = |kind: FaultKind| -> SimError {
            Fault {
                core,
                pc,
                addr,
                kind,
            }
            .into()
        };
        let reg = MmioReg::decode(addr).ok_or_else(|| fault(FaultKind::MmioUnmapped))?;
        match store {
            Some(value) => {
                self.stats.mmio_writes += 1;
                match reg {
                    MmioReg::Subscribe => {
                        self.synchronizer.subscribe(CoreId::new(core)?, value)?;
                        Ok(0)
                    }
                    _ => Err(fault(FaultKind::MmioReadOnly)),
                }
            }
            None => {
                self.stats.mmio_reads += 1;
                match reg {
                    MmioReg::AdcData(ch) => Ok(self.adc.read_data(ch)),
                    MmioReg::AdcSeq(ch) => Ok(self.adc.read_seq(ch)),
                    MmioReg::Subscription => Ok(self.synchronizer.subscription(CoreId::new(core)?)),
                    MmioReg::CoreId => Ok(core as u16),
                    MmioReg::Subscribe => Ok(0),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_isa::{assemble_text, Linker, Section};

    fn single_core_platform(asm: &str) -> Platform {
        let program = assemble_text(asm).expect("test program assembles");
        let mut linker = Linker::new();
        linker.add_section(Section::new("main", program));
        linker.set_entry(0, "main");
        let image = linker.link().expect("test program links");
        Platform::new(PlatformConfig::single_core(), &image).expect("platform builds")
    }

    #[test]
    fn arithmetic_program_produces_result() {
        let mut p = single_core_platform(
            "li r1, 6\n\
             li r2, 7\n\
             mul r3, r1, r2\n\
             sw r3, 0x100(r0)\n\
             halt\n",
        );
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        assert_eq!(p.peek_dm(0x100).unwrap(), 42);
        assert_eq!(p.stats().cores[0].instructions, 5);
    }

    #[test]
    fn loop_timing_counts_bubbles() {
        // 4 iterations of a 2-instruction loop with a taken branch each
        // time except the last.
        let mut p = single_core_platform(
            "li r1, 4\n\
             loop: addi r1, r1, -1\n\
             bne r1, r0, loop\n\
             halt\n",
        );
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[0];
        assert_eq!(cs.instructions, 1 + 4 * 2 + 1);
        assert_eq!(cs.bubbles, 3, "three taken branches");
    }

    #[test]
    fn load_use_hazard_costs_a_cycle() {
        let mut p = single_core_platform(
            "li r1, 0x40\n\
             sw r1, 0x40(r0)\n\
             lw r2, 0x40(r0)\n\
             add r3, r2, r2\n\
             halt\n",
        );
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[0];
        assert_eq!(cs.stall_hazard, 1);
        assert_eq!(p.core(0).reg(wbsn_isa::Reg::R3), 0x80);
    }

    #[test]
    fn forwarding_waives_the_load_use_stall() {
        // Same program as `load_use_hazard_costs_a_cycle`, but with the
        // memory→execute bypass on: the back-to-back load-use pair must
        // cost no hazard stall and still compute the right value.
        let mut p = single_core_platform(
            "li r1, 0x40\n\
             sw r1, 0x40(r0)\n\
             lw r2, 0x40(r0)\n\
             add r3, r2, r2\n\
             halt\n",
        );
        p.set_forwarding(true);
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[0];
        assert_eq!(cs.stall_hazard, 0);
        assert_eq!(p.core(0).reg(wbsn_isa::Reg::R3), 0x80);
    }

    #[test]
    fn im_conflict_between_load_and_consumer_charges_no_phantom_hazard() {
        // Core 1 shares IM bank 0 with core 0, which runs a long nop
        // sled and therefore fetches every cycle; the rotating arbiter
        // grants core 1 only one fetch in eight, so at least one
        // IM-conflict stall is guaranteed between core 1's `lw` and the
        // dependent `add`. That dead cycle already covers the load
        // latency, so a surviving hazard latch must not charge a stall
        // on top of the IM stall.
        let sled = "nop\n".repeat(120) + "halt\n";
        let hog = assemble_text(&sled).unwrap();
        let loaduse = assemble_text(
            "li r1, 0x2A\n\
             sw r1, 0x100(r0)\n\
             lw r2, 0x100(r0)\n\
             add r3, r2, r2\n\
             sw r3, 0x101(r0)\n\
             halt\n",
        )
        .unwrap();
        let mut linker = Linker::new();
        linker.add_section(Section::in_bank("hog", hog, 0));
        linker.add_section(Section::in_bank("loaduse", loaduse, 0));
        linker.set_entry(0, "hog");
        linker.set_entry(1, "loaduse");
        let image = linker.link().unwrap();
        let mut p = Platform::new(PlatformConfig::multi_core(), &image).unwrap();
        assert_eq!(p.run(10_000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[1];
        assert!(cs.stall_im > 0, "the bank conflict must have happened");
        assert_eq!(
            cs.stall_hazard, 0,
            "the IM-stall dead cycle covers the load latency"
        );
        assert_eq!(p.peek_dm(0x101).unwrap(), 0x54);
    }

    #[test]
    fn taken_branch_squash_clears_the_hazard_latch() {
        // A jump right after the load: the consumer of the loaded
        // register issues after the taken-branch bubble, so the latch
        // set by the `lw` must not charge it a phantom hazard stall.
        let mut p = single_core_platform(
            "li r1, 7\n\
             sw r1, 0x40(r0)\n\
             lw r2, 0x40(r0)\n\
             jmp target\n\
             nop\n\
             target: add r3, r2, r2\n\
             sw r3, 0x41(r0)\n\
             halt\n",
        );
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[0];
        assert_eq!(cs.stall_hazard, 0);
        assert_eq!(cs.bubbles, 1, "one taken jump");
        assert_eq!(p.peek_dm(0x41).unwrap(), 14);
    }

    #[test]
    fn wake_after_sleep_charges_no_phantom_hazard() {
        // Load, subscribe, sleep; the first instructions after the wake
        // consume the pre-sleep loaded register. Any latch surviving the
        // gated interval would charge a phantom stall here.
        let mut p = single_core_platform(
            "li r1, 9\n\
             sw r1, 0x40(r0)\n\
             li r1, 1\n\
             lui r2, 0x7F\n\
             ori r2, r2, 0x20\n\
             sw r1, 0(r2)\n\
             lw r4, 0x40(r0)\n\
             sleep\n\
             add r3, r4, r4\n\
             sw r3, 0x200(r0)\n\
             halt\n",
        );
        p.set_adc_streams(vec![vec![55]]);
        assert_eq!(p.run(100_000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[0];
        assert!(cs.gated_cycles > 0, "core slept until the sample");
        assert_eq!(cs.stall_hazard, 0);
        assert_eq!(p.peek_dm(0x200).unwrap(), 18);
    }

    #[test]
    fn decoder_platform_counts_memory_accesses() {
        let mut p = single_core_platform(
            "li r1, 1\n\
             sw r1, 0x50(r0)\n\
             lw r2, 0x50(r0)\n\
             halt\n",
        );
        p.run(100).unwrap();
        assert_eq!(p.stats().dm.accesses(), 2);
        assert_eq!(p.stats().xbar_dm, 0, "decoders are not crossbars");
        assert!(p.stats().im.accesses() >= 4);
    }

    #[test]
    fn quiescent_exit_when_no_work_remains() {
        // Subscribe to nothing and sleep forever: with no ADC streams the
        // platform is immediately quiescent after the sleep.
        let mut p = single_core_platform("sleep\nhalt\n");
        assert_eq!(p.run(10_000).unwrap(), RunExit::Quiescent);
        assert!(p.stats().cycles < 100);
    }

    #[test]
    fn cycle_limit_exit() {
        let mut p = single_core_platform("loop: jmp loop\n");
        assert_eq!(p.run(500).unwrap(), RunExit::CycleLimit);
        assert!(p.stats().cycles >= 500);
    }

    #[test]
    fn adc_wakeup_flow() {
        // Subscribe to channel 0, sleep, then read data on wake.
        let mut p = single_core_platform(
            "li r1, 1\n\
             lui r2, 0x7F\n\
             ori r2, r2, 0x20\n\
             sw r1, 0(r2)\n\
             sleep\n\
             lui r3, 0x7F\n\
             lw r4, 0(r3)\n\
             sw r4, 0x200(r0)\n\
             halt\n",
        );
        p.set_adc_streams(vec![vec![1234]]);
        assert_eq!(p.run(100_000).unwrap(), RunExit::AllHalted);
        assert_eq!(p.peek_dm(0x200).unwrap(), 1234);
        assert_eq!(p.stats().adc_samples, 1);
        let cs = &p.stats().cores[0];
        assert!(cs.gated_cycles > 0, "core slept until the sample");
    }

    #[test]
    fn fault_on_store_to_sync_region() {
        let mut p = single_core_platform("li r1, 5\nsw r1, 0x10(r0)\nhalt\n");
        let err = p.run(100).unwrap_err();
        assert!(matches!(
            err,
            SimError::Fault(Fault {
                kind: FaultKind::WriteToSyncRegion,
                ..
            })
        ));
    }

    #[test]
    fn fault_on_unmapped_mmio() {
        let mut p = single_core_platform(
            "lui r2, 0x7F\n\
             ori r2, r2, 0xFF\n\
             lw r1, 0(r2)\n\
             halt\n",
        );
        let err = p.run(100).unwrap_err();
        assert!(matches!(
            err,
            SimError::Fault(Fault {
                kind: FaultKind::MmioUnmapped,
                ..
            })
        ));
    }

    #[test]
    fn sync_point_region_is_readable() {
        let mut p = single_core_platform("lw r1, 0x10(r0)\nsw r1, 0x300(r0)\nhalt\n");
        p.preload_sync_point(0, 3, false).unwrap();
        p.run(100).unwrap();
        assert_eq!(p.peek_dm(0x300).unwrap(), 3);
        assert_eq!(p.stats().sync_region_reads, 1);
    }

    #[test]
    fn orphaned_snop_trips_the_deadlock_watchdog() {
        // The core registers on point 0 and sleeps, but nothing will
        // ever signal the point. Without the watchdog this reads as a
        // quiescent exit; with it, a deadlock post-mortem.
        let mut p = single_core_platform("snop 0\nsleep\nhalt\n");
        p.set_watchdog(10_000);
        p.enable_obs(ObsConfig {
            ring: 16,
            ..ObsConfig::default()
        });
        let err = p.run(1_000_000).unwrap_err();
        let SimError::Watchdog(pm) = err else {
            panic!("expected watchdog trip, got {err:?}");
        };
        assert_eq!(pm.trip, WatchdogTrip::Deadlock { waiting: vec![0] });
        assert!(pm.cores[0].gated);
        assert!(pm.points[0].value.flags().bits() & 1 != 0, "core 0 flagged");
        assert!(
            pm.obs_tail
                .iter()
                .any(|line| line.contains("core0 0x0001: sleep")),
            "retirement tail captured: {:?}",
            pm.obs_tail
        );
        assert!(pm.to_string().contains("deadlock"));
    }

    #[test]
    fn intentional_final_sleep_stays_quiescent_under_watchdog() {
        // No sync-point registration: the sleep is the workload's end.
        let mut p = single_core_platform("sleep\nhalt\n");
        p.set_watchdog(10_000);
        assert_eq!(p.run(1_000_000).unwrap(), RunExit::Quiescent);
    }

    #[test]
    fn watchdog_off_preserves_quiescent_exit() {
        let mut p = single_core_platform("snop 0\nsleep\nhalt\n");
        assert_eq!(p.run(1_000_000).unwrap(), RunExit::Quiescent);
    }

    #[test]
    fn watchdog_spares_gated_waits_that_do_resolve() {
        // Producer/consumer on one core pair: the consumer's wait is
        // signalled, so the watchdog must not trip.
        let producer = assemble_text("sinc 0\nsdec 0\nhalt\n").unwrap();
        let consumer = assemble_text("snop 0\nsleep\nhalt\n").unwrap();
        let mut linker = Linker::new();
        linker.add_section(Section::in_bank("producer", producer, 0));
        linker.add_section(Section::in_bank("consumer", consumer, 1));
        linker.set_entry(0, "producer");
        linker.set_entry(1, "consumer");
        let image = linker.link().unwrap();
        let mut p = Platform::new(PlatformConfig::multi_core(), &image).unwrap();
        p.set_watchdog(10_000);
        assert_eq!(p.run(100_000).unwrap(), RunExit::AllHalted);
    }

    #[test]
    fn absent_cores_never_clock() {
        let program = assemble_text("halt\n").unwrap();
        let mut linker = Linker::new();
        linker.add_section(Section::new("main", program));
        linker.set_entry(0, "main");
        let image = linker.link().unwrap();
        let mut p = Platform::new(PlatformConfig::multi_core(), &image).unwrap();
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        for idx in 1..8 {
            assert_eq!(p.stats().cores[idx].active_cycles, 0);
            assert_eq!(p.stats().cores[idx].instructions, 0);
        }
    }
}
