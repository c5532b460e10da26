//! Overhead accounting over execution traces.
//!
//! The paper's profiling-overhead metric (§VI-B) is
//! `(T_scheduler_map − T_ideal_map) / T_ideal_map × 100`. The harness
//! computes that by running the same workload twice (scheduled vs. the best
//! manual mapping); this module additionally breaks a *single* scheduled run
//! down by trace tags: time spent in dynamic profiling (commands tagged
//! [`crate::PROFILING_TAG`]), bytes staged during profiling, and
//! kernel→device distributions.

use crate::scheduler::PROFILING_TAG;
use hwsim::trace::Trace;
use hwsim::{DeviceId, SimDuration};
use std::collections::BTreeMap;

/// Aggregated profiling-overhead breakdown of one scheduled run.
#[derive(Debug, Clone, Default)]
pub struct OverheadBreakdown {
    /// Device time consumed by profiling kernel runs.
    pub profiling_kernel_time: SimDuration,
    /// Device time consumed by profiling data staging.
    pub profiling_transfer_time: SimDuration,
    /// Bytes moved for profiling staging.
    pub profiling_transfer_bytes: u64,
    /// Number of profiling transfers.
    pub profiling_transfer_count: usize,
    /// Device time consumed by application (non-profiling) commands.
    pub application_time: SimDuration,
}

/// Compute the breakdown from a trace.
pub fn overhead_breakdown(trace: &Trace) -> OverheadBreakdown {
    let mut out = OverheadBreakdown::default();
    for r in &trace.records {
        let dur = r.stamp.duration();
        if r.has_tag(PROFILING_TAG) {
            match r.kind {
                hwsim::engine::CommandKind::Kernel { .. } => out.profiling_kernel_time += dur,
                hwsim::engine::CommandKind::Transfer { bytes, .. } => {
                    out.profiling_transfer_time += dur;
                    out.profiling_transfer_bytes += bytes;
                    out.profiling_transfer_count += 1;
                }
                hwsim::engine::CommandKind::Marker => {}
            }
        } else if r.tag_starts_with("device-profiling") {
            // Static device profiling (first run only); counted separately
            // from dynamic kernel profiling.
        } else {
            out.application_time += dur;
        }
    }
    out
}

/// Kernel→device distribution of *application* launches (dynamic-profiling
/// and device-profiling launches excluded), normalized to fractions — the
/// quantity of Figure 5.
pub fn kernel_distribution_fractions(trace: &Trace) -> BTreeMap<DeviceId, f64> {
    let counts = trace.kernel_distribution_where(|r| {
        !r.has_tag(PROFILING_TAG) && !r.tag_starts_with("device-profiling")
    });
    let total: usize = counts.values().sum();
    counts
        .into_iter()
        .map(|(d, c)| (d, if total > 0 { c as f64 / total as f64 } else { 0.0 }))
        .collect()
}

/// The paper's overhead metric: `(observed − ideal) / ideal × 100`.
pub fn overhead_pct(observed: SimDuration, ideal: SimDuration) -> f64 {
    hwsim::stats::overhead_pct(observed.as_secs_f64(), ideal.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::engine::{CommandKind, EventStamp};
    use hwsim::time::SimTime;
    use hwsim::topology::TransferKind;
    use hwsim::trace::TraceRecord;
    use std::sync::Arc;

    fn rec(kind: CommandKind, ms: u64, tag: Option<&str>, dev: usize) -> TraceRecord {
        let start = SimTime::ZERO;
        let end = start + SimDuration::from_millis(ms);
        TraceRecord {
            device: DeviceId(dev),
            queue: 0,
            kind,
            stamp: EventStamp { queued: start, submit: start, start, end },
            tag: tag.map(Arc::from),
        }
    }

    #[test]
    fn breakdown_separates_profiling_from_application() {
        let mut t = Trace::default();
        t.push(rec(CommandKind::Kernel { name: Arc::from("k") }, 10, Some(PROFILING_TAG), 0));
        t.push(rec(
            CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes: 1000 },
            5,
            Some(PROFILING_TAG),
            1,
        ));
        t.push(rec(CommandKind::Kernel { name: Arc::from("k") }, 40, None, 1));
        let b = overhead_breakdown(&t);
        assert_eq!(b.profiling_kernel_time, SimDuration::from_millis(10));
        assert_eq!(b.profiling_transfer_time, SimDuration::from_millis(5));
        assert_eq!(b.profiling_transfer_bytes, 1000);
        assert_eq!(b.profiling_transfer_count, 1);
        assert_eq!(b.application_time, SimDuration::from_millis(40));
    }

    #[test]
    fn distribution_excludes_profiling_launches() {
        let mut t = Trace::default();
        for _ in 0..3 {
            t.push(rec(CommandKind::Kernel { name: Arc::from("k") }, 1, Some(PROFILING_TAG), 0));
        }
        t.push(rec(CommandKind::Kernel { name: Arc::from("k") }, 1, None, 1));
        t.push(rec(CommandKind::Kernel { name: Arc::from("k") }, 1, None, 1));
        let d = kernel_distribution_fractions(&t);
        assert_eq!(d.get(&DeviceId(0)), None);
        assert_eq!(d.get(&DeviceId(1)), Some(&1.0));
    }

    #[test]
    fn overhead_pct_matches_paper_formula() {
        let ideal = SimDuration::from_millis(100);
        let observed = SimDuration::from_millis(145);
        assert!((overhead_pct(observed, ideal) - 45.0).abs() < 1e-9);
    }
}
