//! The counting/histogram sink and the compact summary the sweep engine
//! embeds per cell.

use crate::event::{Event, StallCause, SyncEvent};
use crate::hist::Histogram;
use crate::sink::EventSink;

/// Aggregates the event stream into counters and histograms.
///
/// This is the "always cheap" sink: it never allocates after
/// construction and does a handful of integer operations per event, so
/// the sweep engine can leave it on for every measured window.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Gated-interval lengths, one sample per observed wake.
    pub sleep_cycles: Histogram,
    /// Cycles between consecutive sync ops on the same core.
    pub sync_gap_cycles: Histogram,
    /// Lengths of consecutive-stall runs, all causes mixed.
    pub stall_run_cycles: Histogram,
    /// Total stall cycles per cause, indexed by [`StallCause::index`].
    pub stall_cycles: [u64; 3],
    /// Point releases observed.
    pub releases: u64,
    /// Physical writes avoided by same-cycle merging.
    pub merges_saved: u64,
    /// Sleeps that fell through on a pending wake.
    pub fallthroughs: u64,
    /// ADC samples latched.
    pub adc_samples: u64,
    /// Data-ready interrupts forwarded.
    pub irq_forwards: u64,
    /// Total events seen.
    pub events: u64,
}

impl CountingSink {
    /// An empty sink.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Total stall cycles across all causes.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stall_cycles.iter().sum()
    }

    /// The cause with the most stall cycles, with its total, if any
    /// stalls were observed.
    pub fn worst_stall_cause(&self) -> Option<(StallCause, u64)> {
        StallCause::ALL
            .into_iter()
            .map(|c| (c, self.stall_cycles[c.index()]))
            .max_by_key(|&(_, cycles)| cycles)
            .filter(|&(_, cycles)| cycles > 0)
    }

    /// Collapses the histograms into the per-cell summary.
    pub fn summary(&self) -> ObsSummary {
        ObsSummary {
            sleep_count: self.sleep_cycles.count(),
            sleep_p50_cycles: self.sleep_cycles.p50(),
            sleep_p99_cycles: self.sleep_cycles.p99(),
            sync_gap_p50_cycles: self.sync_gap_cycles.p50(),
            sync_gap_p99_cycles: self.sync_gap_cycles.p99(),
            stall_im_cycles: self.stall_cycles[StallCause::ImConflict.index()],
            stall_dm_cycles: self.stall_cycles[StallCause::DmConflict.index()],
            stall_hazard_cycles: self.stall_cycles[StallCause::LoadUseHazard.index()],
            stall_run_p99_cycles: self.stall_run_cycles.p99(),
        }
    }
}

impl EventSink for CountingSink {
    fn on_event(&mut self, _cycle: u64, event: &Event) {
        self.events += 1;
        match event {
            Event::Sync(e) => match e {
                SyncEvent::OpRetired {
                    since_last: Some(gap),
                    ..
                } => self.sync_gap_cycles.record(*gap),
                SyncEvent::OpRetired { .. } => {}
                SyncEvent::PointMerged { requests, .. } => {
                    self.merges_saved += u64::from(requests.saturating_sub(1));
                }
                SyncEvent::PointReleased { .. } => self.releases += 1,
                SyncEvent::CoreWoken { slept_cycles, .. } => {
                    self.sleep_cycles.record(*slept_cycles);
                }
                SyncEvent::SleepFellThrough { .. } => self.fallthroughs += 1,
                SyncEvent::PointArmed { .. }
                | SyncEvent::CoreFlagged { .. }
                | SyncEvent::CoreSlept { .. } => {}
            },
            Event::StallRun { cause, len, .. } => {
                self.stall_cycles[cause.index()] += len;
                self.stall_run_cycles.record(*len);
            }
            Event::Adc(e) => match e {
                crate::event::AdcEvent::SampleReady { .. } => self.adc_samples += 1,
                crate::event::AdcEvent::IrqForwarded { .. } => self.irq_forwards += 1,
            },
            Event::Power(_) | Event::Phase(_) | Event::Retire { .. } => {}
        }
    }
}

/// The latency/stall digest a sweep cell records
/// (`wbsn-bench-sweep/2`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsSummary {
    /// Observed wakes (samples behind the sleep percentiles).
    pub sleep_count: u64,
    /// Median gated-interval length, in cycles.
    pub sleep_p50_cycles: u64,
    /// 99th-percentile gated-interval length, in cycles.
    pub sleep_p99_cycles: u64,
    /// Median cycles between sync ops on a core.
    pub sync_gap_p50_cycles: u64,
    /// 99th-percentile cycles between sync ops on a core.
    pub sync_gap_p99_cycles: u64,
    /// Total cycles lost to instruction-memory conflicts.
    pub stall_im_cycles: u64,
    /// Total cycles lost to data-memory conflicts.
    pub stall_dm_cycles: u64,
    /// Total cycles lost to load-use hazards.
    pub stall_hazard_cycles: u64,
    /// 99th-percentile stall-run length, in cycles.
    pub stall_run_p99_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AdcEvent, PowerEvent};

    #[test]
    fn counting_sink_aggregates_the_stream() {
        let mut sink = CountingSink::new();
        sink.on_event(
            10,
            &Event::Sync(SyncEvent::OpRetired {
                core: 0,
                kind: wbsn_isa::SyncKind::Dec,
                point: 3,
                since_last: None,
            }),
        );
        sink.on_event(
            20,
            &Event::Sync(SyncEvent::OpRetired {
                core: 0,
                kind: wbsn_isa::SyncKind::Dec,
                point: 3,
                since_last: Some(10),
            }),
        );
        sink.on_event(
            20,
            &Event::Sync(SyncEvent::PointMerged {
                point: 3,
                requests: 3,
            }),
        );
        sink.on_event(
            20,
            &Event::Sync(SyncEvent::PointReleased {
                point: 3,
                woken: 0b10,
            }),
        );
        sink.on_event(
            25,
            &Event::Sync(SyncEvent::CoreWoken {
                core: 1,
                slept_cycles: 5,
            }),
        );
        sink.on_event(
            30,
            &Event::StallRun {
                core: 0,
                cause: StallCause::DmConflict,
                len: 4,
            },
        );
        sink.on_event(31, &Event::Adc(AdcEvent::SampleReady { channels: 0b11 }));
        sink.on_event(31, &Event::Adc(AdcEvent::IrqForwarded { source: 0 }));
        sink.on_event(40, &Event::Power(PowerEvent::Gate { core: 1 }));

        assert_eq!(sink.events, 9);
        assert_eq!(sink.releases, 1);
        assert_eq!(sink.merges_saved, 2);
        assert_eq!(sink.adc_samples, 1);
        assert_eq!(sink.irq_forwards, 1);
        assert_eq!(sink.sync_gap_cycles.count(), 1);
        assert_eq!(sink.total_stall_cycles(), 4);
        assert_eq!(sink.worst_stall_cause(), Some((StallCause::DmConflict, 4)));

        let summary = sink.summary();
        assert_eq!(summary.sleep_count, 1);
        assert_eq!(summary.sleep_p50_cycles, 5);
        assert_eq!(summary.stall_dm_cycles, 4);
        assert_eq!(summary.stall_im_cycles, 0);
        assert_eq!(summary.stall_run_p99_cycles, 4);
    }

    #[test]
    fn no_stalls_means_no_worst_cause() {
        assert_eq!(CountingSink::new().worst_stall_cause(), None);
    }
}
