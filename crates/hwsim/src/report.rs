//! Schedule analysis over execution traces: per-device utilization and a
//! terminal Gantt chart, for inspecting what the scheduler actually did.

use crate::device::DeviceId;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceRecord};
use std::collections::BTreeMap;

/// Busy/idle accounting for one device over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceUtilization {
    /// The device.
    pub device: DeviceId,
    /// Total time the device executed commands.
    pub busy: SimDuration,
    /// Commands executed.
    pub commands: usize,
    /// First command start on this device.
    pub first_start: SimTime,
    /// Last command end on this device.
    pub last_end: SimTime,
}

impl DeviceUtilization {
    /// Busy fraction of the `[0, horizon]` window.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / horizon.as_secs_f64()
    }
}

/// Compute per-device utilization from a trace. Devices that executed
/// nothing are absent from the result.
pub fn utilization(trace: &Trace) -> BTreeMap<DeviceId, DeviceUtilization> {
    let mut out: BTreeMap<DeviceId, DeviceUtilization> = BTreeMap::new();
    for r in &trace.records {
        let u = out.entry(r.device).or_insert_with(|| DeviceUtilization {
            device: r.device,
            busy: SimDuration::ZERO,
            commands: 0,
            first_start: r.stamp.start,
            last_end: r.stamp.end,
        });
        u.busy += r.stamp.duration();
        u.commands += 1;
        u.first_start = u.first_start.min(r.stamp.start);
        u.last_end = u.last_end.max(r.stamp.end);
    }
    out
}

/// The end of the last command in the trace (the schedule's horizon).
pub fn horizon(trace: &Trace) -> SimTime {
    trace.records.iter().map(|r| r.stamp.end).max().unwrap_or(SimTime::ZERO)
}

/// Per-device accounting of the two execution engines: compute lane
/// (kernels, markers) vs. copy lane (DMA transfers), and how much of their
/// busy time actually overlapped in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneUtilization {
    /// The device.
    pub device: DeviceId,
    /// Total compute-engine busy time (merged intervals).
    pub compute_busy: SimDuration,
    /// Total copy-engine busy time (merged intervals).
    pub copy_busy: SimDuration,
    /// Time during which *both* engines were busy simultaneously.
    pub overlap: SimDuration,
}

impl LaneUtilization {
    /// Overlap as a fraction of the shorter lane's busy time — 1.0 means
    /// the smaller lane was entirely hidden behind the other, 0.0 means the
    /// lanes ran strictly serialized (or one lane was idle).
    pub fn overlap_fraction(&self) -> f64 {
        let min = self.compute_busy.min(self.copy_busy);
        if min == SimDuration::ZERO {
            return 0.0;
        }
        self.overlap.as_secs_f64() / min.as_secs_f64()
    }
}

/// Sort `(start, end)` nanosecond intervals and merge overlapping ones, in
/// place.
fn merge_intervals(v: &mut Vec<(u64, u64)>) {
    v.sort_unstable();
    v.dedup_by(|next, last| {
        let overlaps = next.0 <= last.1;
        if overlaps {
            last.1 = last.1.max(next.1);
        }
        overlaps
    });
}

/// Total intersection of two merged interval lists, in nanoseconds.
fn intersect_total(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// The interval buffers of [`LaneScratch::device`], kept by a caller that
/// measures lanes epoch after epoch so that doing so allocates nothing.
#[derive(Debug, Default)]
pub struct LaneScratch {
    compute: Vec<(u64, u64)>,
    copy: Vec<(u64, u64)>,
}

impl LaneScratch {
    /// [`LaneUtilization`] of `device` over a slice of trace records (e.g. a
    /// single epoch's flush window via
    /// [`Trace::records_since`](crate::trace::Trace::records_since)), or
    /// `None` when the device executed nothing in the slice.
    pub fn device(&mut self, trace: &[TraceRecord], device: DeviceId) -> Option<LaneUtilization> {
        use crate::engine::CommandKind;
        self.compute.clear();
        self.copy.clear();
        for r in trace.iter().filter(|r| r.device == device) {
            let iv = (r.stamp.start.as_nanos(), r.stamp.end.as_nanos());
            if iv.1 <= iv.0 {
                continue;
            }
            match r.kind {
                CommandKind::Transfer { .. } => self.copy.push(iv),
                CommandKind::Kernel { .. } | CommandKind::Marker => self.compute.push(iv),
            }
        }
        if self.compute.is_empty() && self.copy.is_empty() {
            return None;
        }
        merge_intervals(&mut self.compute);
        merge_intervals(&mut self.copy);
        let busy = |v: &[(u64, u64)]| SimDuration::from_nanos(v.iter().map(|(s, e)| e - s).sum());
        Some(LaneUtilization {
            device,
            compute_busy: busy(&self.compute),
            copy_busy: busy(&self.copy),
            overlap: SimDuration::from_nanos(intersect_total(&self.compute, &self.copy)),
        })
    }
}

/// [`LaneScratch::device`] for every device of a slice of trace records.
/// Devices that executed nothing in the slice are absent from the result.
pub fn lane_utilization_of(records: &[TraceRecord]) -> BTreeMap<DeviceId, LaneUtilization> {
    let devices: std::collections::BTreeSet<DeviceId> = records.iter().map(|r| r.device).collect();
    let mut lanes = LaneScratch::default();
    devices.into_iter().filter_map(|d| Some((d, lanes.device(records, d)?))).collect()
}

/// Compute [`LaneUtilization`] per device over a whole trace.
pub fn lane_utilization(trace: &Trace) -> BTreeMap<DeviceId, LaneUtilization> {
    lane_utilization_of(&trace.records)
}

/// Render an ASCII Gantt chart of the trace: one row per device, `width`
/// columns spanning `[0, horizon]`. Each cell shows `#` when the device was
/// busy for most of that slot, `+` when partially busy, `.` when idle.
pub fn ascii_gantt(trace: &Trace, width: usize) -> String {
    let width = width.max(10);
    let end = horizon(trace);
    if end == SimTime::ZERO {
        return String::from("(empty trace)\n");
    }
    let slot_ns = (end.as_nanos() as f64 / width as f64).max(1.0);
    let devices: Vec<DeviceId> = utilization(trace).into_keys().collect();
    let mut out = String::new();
    for dev in devices {
        // Busy nanoseconds per slot.
        let mut busy = vec![0.0f64; width];
        for r in trace.records.iter().filter(|r| r.device == dev) {
            let (s, e) = (r.stamp.start.as_nanos() as f64, r.stamp.end.as_nanos() as f64);
            let first = (s / slot_ns) as usize;
            let last = ((e / slot_ns) as usize).min(width - 1);
            for (slot, b) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = slot as f64 * slot_ns;
                let hi = lo + slot_ns;
                *b += (e.min(hi) - s.max(lo)).max(0.0);
            }
        }
        out.push_str(&format!("{dev:>4} |"));
        for b in busy {
            let frac = b / slot_ns;
            out.push(if frac > 0.5 {
                '#'
            } else if frac > 0.01 {
                '+'
            } else {
                '.'
            });
        }
        out.push_str("|\n");
    }
    out.push_str(&format!("      0 {:>width$}\n", format!("{end}"), width = width - 2));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CommandDesc, CommandKind, Engine};

    fn engine_with_work() -> Engine {
        let mut e = Engine::new(2);
        for i in 0..4 {
            e.submit(CommandDesc {
                device: DeviceId(i % 2),
                kind: CommandKind::Marker,
                duration: SimDuration::from_millis(10),
                waits: crate::waitlist::WaitList::new(),
                queue: 0,
            });
        }
        e.finish_all();
        e
    }

    #[test]
    fn utilization_accounts_busy_time_and_commands() {
        let e = engine_with_work();
        let u = utilization(e.trace());
        assert_eq!(u.len(), 2);
        for du in u.values() {
            assert_eq!(du.commands, 2);
            assert_eq!(du.busy, SimDuration::from_millis(20));
        }
        let h = horizon(e.trace());
        assert!(h >= SimTime::from_nanos(20_000_000));
        // Both devices ran 20ms of a ~20ms horizon: utilization ≈ 1.
        let frac = u[&DeviceId(0)].utilization(h);
        assert!(frac > 0.9 && frac <= 1.0, "{frac}");
    }

    #[test]
    fn gantt_renders_one_row_per_device() {
        let e = engine_with_work();
        let g = ascii_gantt(e.trace(), 40);
        let rows: Vec<&str> = g.lines().collect();
        assert_eq!(rows.len(), 3, "{g}");
        assert!(rows[0].contains('#'));
        assert!(rows[1].contains('#'));
    }

    #[test]
    fn empty_trace_is_handled() {
        let t = Trace::default();
        assert!(utilization(&t).is_empty());
        assert_eq!(horizon(&t), SimTime::ZERO);
        assert_eq!(ascii_gantt(&t, 40), "(empty trace)\n");
    }

    #[test]
    fn utilization_with_idle_gaps_counts_busy_time_only() {
        use crate::time::SimTime;
        use crate::trace::TraceRecord;
        use std::sync::Arc;
        // Two 10ms commands separated by an 80ms gap: busy = 20ms over a
        // 100ms span.
        let mut t = Trace::default();
        for start_ms in [0u64, 90] {
            let start = SimTime::ZERO + SimDuration::from_millis(start_ms);
            let end = start + SimDuration::from_millis(10);
            t.push(TraceRecord {
                device: DeviceId(0),
                queue: 0,
                kind: CommandKind::Kernel { name: Arc::from("k") },
                stamp: crate::engine::EventStamp { queued: start, submit: start, start, end },
                tag: None,
            });
        }
        let u = utilization(&t);
        let du = &u[&DeviceId(0)];
        assert_eq!(du.busy, SimDuration::from_millis(20));
        assert_eq!(du.commands, 2);
        assert_eq!(du.first_start, SimTime::ZERO);
        assert_eq!(du.last_end, SimTime::ZERO + SimDuration::from_millis(100));
        let h = horizon(&t);
        assert_eq!(h, SimTime::ZERO + SimDuration::from_millis(100));
        let frac = du.utilization(h);
        assert!((frac - 0.2).abs() < 1e-9, "{frac}");
        // The gap renders as idle cells between two busy runs.
        let g = ascii_gantt(&t, 50);
        let row = g.lines().next().unwrap();
        assert!(row.contains('#') && row.contains('.'), "{g}");
    }

    #[test]
    fn horizon_of_empty_trace_is_zero_and_utilization_is_zero() {
        let t = Trace::default();
        assert_eq!(horizon(&t), SimTime::ZERO);
        // A degenerate utilization query over a zero horizon must not
        // divide by zero.
        let du = DeviceUtilization {
            device: DeviceId(0),
            busy: SimDuration::ZERO,
            commands: 0,
            first_start: SimTime::ZERO,
            last_end: SimTime::ZERO,
        };
        assert_eq!(du.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn gantt_rendering_is_stable_across_widths() {
        let e = engine_with_work();
        for width in [1usize, 10, 40, 200] {
            let g = ascii_gantt(e.trace(), width);
            let rows: Vec<&str> = g.lines().collect();
            assert_eq!(rows.len(), 3, "width {width}: {g}");
            // Width clamps to ≥10 cells; every device row has exactly the
            // same cell count.
            let cells = |row: &str| row.chars().filter(|c| "#+.".contains(*c)).count();
            assert_eq!(cells(rows[0]), width.max(10), "width {width}");
            assert_eq!(cells(rows[0]), cells(rows[1]));
        }
        // Deterministic: same trace, same chart.
        assert_eq!(ascii_gantt(e.trace(), 40), ascii_gantt(e.trace(), 40));
    }

    #[test]
    fn lane_utilization_measures_transfer_compute_overlap() {
        use crate::topology::TransferKind;
        // A 10ms kernel and a 10ms transfer submitted back to back on one
        // device: the lanes overlap almost entirely (the transfer starts one
        // enqueue cost after the kernel).
        let mut e = Engine::new(1);
        e.submit(CommandDesc {
            device: DeviceId(0),
            kind: CommandKind::Kernel { name: std::sync::Arc::from("k") },
            duration: SimDuration::from_millis(10),
            waits: crate::waitlist::WaitList::new(),
            queue: 0,
        });
        e.submit(CommandDesc {
            device: DeviceId(0),
            kind: CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes: 1024 },
            duration: SimDuration::from_millis(10),
            waits: crate::waitlist::WaitList::new(),
            queue: 0,
        });
        e.finish_all();
        let lanes = lane_utilization(e.trace());
        let l = &lanes[&DeviceId(0)];
        assert_eq!(l.compute_busy, SimDuration::from_millis(10));
        assert_eq!(l.copy_busy, SimDuration::from_millis(10));
        assert!(l.overlap > SimDuration::from_millis(9), "{l:?}");
        assert!(l.overlap_fraction() > 0.9, "{}", l.overlap_fraction());
        // Engine lane accounting agrees with the trace-derived totals.
        let (cb, tb) = e.device_lane_busy(DeviceId(0));
        assert_eq!((cb, tb), (l.compute_busy, l.copy_busy));
    }

    #[test]
    fn lane_utilization_is_zero_when_lanes_serialize() {
        use crate::topology::TransferKind;
        // An explicit wait orders the transfer after the kernel: no overlap.
        let mut e = Engine::new(1);
        let k = e.submit(CommandDesc {
            device: DeviceId(0),
            kind: CommandKind::Kernel { name: std::sync::Arc::from("k") },
            duration: SimDuration::from_millis(10),
            waits: crate::waitlist::WaitList::new(),
            queue: 0,
        });
        e.submit(CommandDesc {
            device: DeviceId(0),
            kind: CommandKind::Transfer { kind: TransferKind::DeviceToHost, bytes: 64 },
            duration: SimDuration::from_millis(5),
            waits: crate::waitlist::WaitList::one(k),
            queue: 0,
        });
        let lanes = lane_utilization(e.trace());
        let l = &lanes[&DeviceId(0)];
        assert_eq!(l.overlap, SimDuration::ZERO);
        assert_eq!(l.overlap_fraction(), 0.0);
        // A device with only one active lane reports fraction 0, not NaN.
        assert!(lane_utilization(&Trace::default()).is_empty());
    }

    #[test]
    fn idle_device_shows_dots() {
        let mut e = Engine::new(2);
        // Device 0 busy early; device 1 busy late (after waiting).
        let a = e.submit(CommandDesc {
            device: DeviceId(0),
            kind: CommandKind::Marker,
            duration: SimDuration::from_millis(10),
            waits: crate::waitlist::WaitList::new(),
            queue: 0,
        });
        e.submit(CommandDesc {
            device: DeviceId(1),
            kind: CommandKind::Marker,
            duration: SimDuration::from_millis(10),
            waits: crate::waitlist::WaitList::one(a),
            queue: 0,
        });
        let g = ascii_gantt(e.trace(), 20);
        let rows: Vec<&str> = g.lines().collect();
        // Device 0's row starts busy and ends idle; device 1 the reverse.
        assert!(rows[0].trim_start().starts_with("D0 |#"));
        assert!(rows[0].contains('.'));
        assert!(rows[1].trim_start().starts_with("D1 |."));
    }
}
