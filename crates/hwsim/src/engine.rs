//! The discrete-event execution engine.
//!
//! Commands arrive from in-order command queues (via `clrt`). Because every
//! dependency of a command is already submitted when the command itself is
//! submitted (in-order queues + OpenCL event wait lists may only reference
//! existing events), the engine can *eagerly* timestamp each command at
//! submission:
//!
//! ```text
//! start = max(host_now, device_available, max(dep.end for dep in waits))
//! end   = start + duration
//! ```
//!
//! Each device has **two lanes**: a compute engine (kernels) and a copy
//! engine (DMA transfers), mirroring the paper-era hardware where transfers
//! and kernels overlap when nothing orders them. Commands serialize within
//! their lane; ordering *across* lanes comes only from event waits (which is
//! how in-order command queues keep their semantics). The host clock only
//! advances when the program *waits* (blocking reads, `clFinish`,
//! `clWaitForEvents`) — between synchronizations the host enqueues
//! asynchronously at a fixed small cost, exactly like a real runtime.

use crate::device::DeviceId;
use crate::fault::{CommandStatus, FailureRecord, FaultKind, FaultPlan, FaultState};
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceRecord};
use crate::waitlist::WaitList;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Index of an event in the engine's event table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub usize);

/// Timestamps recorded for one command, mirroring OpenCL's
/// `CL_PROFILING_COMMAND_{QUEUED,SUBMIT,START,END}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventStamp {
    /// When the host enqueued the command.
    pub queued: SimTime,
    /// When the runtime handed it to the device (same as `queued` here).
    pub submit: SimTime,
    /// When the device began executing it.
    pub start: SimTime,
    /// When execution completed.
    pub end: SimTime,
}

impl EventStamp {
    /// Device execution time of the command.
    #[inline]
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// What a command does (for tracing/accounting; the engine itself only needs
/// the duration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandKind {
    /// An NDRange kernel execution.
    Kernel {
        /// Kernel function name.
        name: Arc<str>,
    },
    /// A data movement command.
    Transfer {
        /// Direction of movement.
        kind: crate::topology::TransferKind,
        /// Payload size.
        bytes: u64,
    },
    /// A zero-duration marker (used for barriers/markers and user events).
    Marker,
}

/// A command submitted to the engine.
#[derive(Debug, Clone)]
pub struct CommandDesc {
    /// The device whose timeline the command occupies.
    pub device: DeviceId,
    /// What the command is (trace/accounting only).
    pub kind: CommandKind,
    /// Precomputed execution duration (from the cost model / topology).
    pub duration: SimDuration,
    /// Events that must complete before this command may start.
    pub waits: WaitList,
    /// Logical command-queue id, recorded in the trace.
    pub queue: usize,
}

/// One execution lane (compute or copy engine) of a device.
#[derive(Debug, Clone, Default)]
struct LaneState {
    /// The instant the lane becomes free.
    available: SimTime,
    /// Total busy time accumulated (for utilization reporting).
    busy: SimDuration,
}

/// Per-device execution state: a compute engine and a copy engine.
#[derive(Debug, Clone, Default)]
struct DeviceState {
    compute: LaneState,
    copy: LaneState,
}

impl DeviceState {
    fn lane_mut(&mut self, kind: &CommandKind) -> &mut LaneState {
        match kind {
            CommandKind::Transfer { .. } => &mut self.copy,
            CommandKind::Kernel { .. } | CommandKind::Marker => &mut self.compute,
        }
    }
}

/// The discrete-event engine: device timelines + host clock + event table.
#[derive(Debug)]
pub struct Engine {
    devices: Vec<DeviceState>,
    host_now: SimTime,
    /// Live (non-retired) event stamps; event `i` lives at
    /// `events[i - events_base]`. `events_base` only moves when retirement
    /// is enabled (see [`Engine::set_event_retirement`]).
    events: VecDeque<EventStamp>,
    events_base: usize,
    /// Pin refcounts (`EventId.0` → live handle count); pinned events are
    /// never retired so their stamps stay queryable.
    pins: HashMap<usize, u32>,
    retire_enabled: bool,
    retired: u64,
    trace: Trace,
    /// Free-form label attached to subsequently-submitted commands
    /// (e.g. "profiling", "iter:3"); drives overhead accounting.
    tag: Option<Arc<str>>,
    /// Host-side cost charged per enqueue (driver call overhead).
    enqueue_cost: SimDuration,
    /// Installed fault-injection state (plan + seeded coin stream), if any.
    fault: Option<FaultState>,
    /// Fault kind per failed event, keyed by raw event id. Sparse and never
    /// compacted: status queries stay valid after the stamp retires.
    statuses: HashMap<usize, FaultKind>,
    /// Failed commands in submission order (see [`FailureRecord`]).
    failures: Vec<FailureRecord>,
}

impl Engine {
    /// Create an engine for `device_count` devices, all idle at t=0.
    pub fn new(device_count: usize) -> Self {
        Engine {
            devices: vec![DeviceState::default(); device_count],
            host_now: SimTime::ZERO,
            events: VecDeque::with_capacity(1024),
            events_base: 0,
            pins: HashMap::new(),
            retire_enabled: false,
            retired: 0,
            trace: Trace::default(),
            tag: None,
            enqueue_cost: SimDuration::from_nanos(500),
            fault: None,
            statuses: HashMap::new(),
            failures: Vec::new(),
        }
    }

    /// Number of device timelines.
    #[inline]
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The current host (virtual) time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.host_now
    }

    /// Set the label attached to subsequent trace records (`None` clears it).
    pub fn set_tag(&mut self, tag: Option<&str>) {
        self.tag = tag.map(Arc::from);
    }

    /// Current trace tag, if any.
    pub fn tag(&self) -> Option<&str> {
        self.tag.as_deref()
    }

    /// Submit a command; returns its completion event. Timestamps are
    /// resolved immediately (see module docs).
    ///
    /// # Panics
    /// Panics if `desc.device` or any wait event is out of range — both
    /// indicate a runtime bug, not a user error.
    pub fn submit(&mut self, desc: CommandDesc) -> EventId {
        let dev =
            self.devices.get_mut(desc.device.index()).expect("CommandDesc.device out of range");
        let lane = dev.lane_mut(&desc.kind);
        // Host pays a small driver cost per enqueue.
        self.host_now += self.enqueue_cost;
        let queued = self.host_now;
        let mut ready = queued.max(lane.available);
        for w in desc.waits.as_slice() {
            if w.0 < self.events_base {
                // Retired ⇒ it ended at or before some earlier host_now, and
                // `queued >= host_now >= end`, so it cannot move `ready`.
                continue;
            }
            let stamp = self.events.get(w.0 - self.events_base).expect("wait event out of range");
            ready = ready.max(stamp.end);
        }
        let start = ready;
        // Fault injection (see [`crate::fault`]): degradation stretches the
        // duration, a seeded coin fails transfers, device loss truncates.
        let mut duration = desc.duration;
        let mut fault = None;
        if let Some(fs) = self.fault.as_mut() {
            let factor = fs.plan.degradation_at(desc.device, start);
            if factor > 1.0 {
                duration = SimDuration::from_secs_f64(duration.as_secs_f64() * factor);
            }
            // The coin is flipped for every transfer (before the loss check)
            // so the stream's position depends only on the transfer count.
            if matches!(desc.kind, CommandKind::Transfer { .. }) && fs.transfer_fails() {
                fault = Some(FaultKind::TransientTransfer);
            }
            if let Some(lost) = fs.plan.loss_at(desc.device) {
                if start >= lost {
                    // Dead device: the command fails instantly, no lane time.
                    duration = SimDuration::ZERO;
                    fault = Some(FaultKind::DeviceLost);
                } else if start + duration > lost {
                    // Straddles the loss: truncated at the instant of death.
                    duration = lost.saturating_since(start);
                    fault = Some(FaultKind::DeviceLost);
                }
            }
        }
        let end = start + duration;
        lane.available = end;
        lane.busy += duration;
        let stamp = EventStamp { queued, submit: queued, start, end };
        let id = EventId(self.events_base + self.events.len());
        self.events.push_back(stamp);
        if let Some(kind) = fault {
            self.statuses.insert(id.0, kind);
            self.failures.push(FailureRecord {
                event: id,
                device: desc.device,
                queue: desc.queue,
                kind,
                at: end,
            });
        }
        self.trace.push(TraceRecord {
            device: desc.device,
            queue: desc.queue,
            kind: desc.kind,
            stamp,
            tag: self.tag.clone(),
        });
        id
    }

    /// Create a marker event that completes at the current host time without
    /// occupying any device (used for user events and completed-state queries).
    pub fn marker_now(&mut self) -> EventId {
        let t = self.host_now;
        let id = EventId(self.events_base + self.events.len());
        self.events.push_back(EventStamp { queued: t, submit: t, start: t, end: t });
        id
    }

    /// The recorded timestamps of `ev`.
    ///
    /// # Panics
    /// Panics if the event has been retired (only possible in the opt-in
    /// retirement mode; live `Event` handles pin their stamps).
    #[inline]
    pub fn stamp(&self, ev: EventId) -> EventStamp {
        assert!(ev.0 >= self.events_base, "event {} has been retired", ev.0);
        self.events[ev.0 - self.events_base]
    }

    /// Block the host until `ev` completes (`clWaitForEvents`).
    pub fn wait(&mut self, ev: EventId) {
        if ev.0 < self.events_base {
            // Retired events completed at or before the current host time.
            return;
        }
        let end = self.events[ev.0 - self.events_base].end;
        self.host_now = self.host_now.max(end);
    }

    /// Block the host until every submitted command on `dev` completes
    /// (both lanes drain).
    pub fn finish_device(&mut self, dev: DeviceId) {
        let d = &self.devices[dev.index()];
        let avail = d.compute.available.max(d.copy.available);
        self.host_now = self.host_now.max(avail);
    }

    /// Block the host until *all* devices are idle.
    pub fn finish_all(&mut self) {
        for d in 0..self.devices.len() {
            self.finish_device(DeviceId(d));
        }
    }

    /// Advance the host clock by `d` (models host-side compute between
    /// enqueues).
    pub fn host_busy(&mut self, d: SimDuration) {
        self.host_now += d;
    }

    /// Total busy time accumulated by `dev` (compute + copy lanes).
    pub fn device_busy(&self, dev: DeviceId) -> SimDuration {
        let d = &self.devices[dev.index()];
        d.compute.busy + d.copy.busy
    }

    /// Busy time accumulated by `dev`'s two engines separately:
    /// `(compute_lane, copy_lane)`.
    pub fn device_lane_busy(&self, dev: DeviceId) -> (SimDuration, SimDuration) {
        let d = &self.devices[dev.index()];
        (d.compute.busy, d.copy.busy)
    }

    /// True once `ev` has completed in virtual time at the current host
    /// clock. Retired events are complete by the retirement rule.
    pub fn event_completed(&self, ev: EventId) -> bool {
        if ev.0 < self.events_base {
            return true;
        }
        match self.events.get(ev.0 - self.events_base) {
            Some(stamp) => stamp.end <= self.host_now,
            None => false,
        }
    }

    /// The instant `dev` becomes fully free (both lanes).
    pub fn device_available(&self, dev: DeviceId) -> SimTime {
        let d = &self.devices[dev.index()];
        d.compute.available.max(d.copy.available)
    }

    /// Read access to the accumulated trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Drain the accumulated trace, leaving it empty (used between
    /// experiment repetitions). Any configured record capacity is preserved.
    pub fn take_trace(&mut self) -> Trace {
        self.trace.take()
    }

    /// Mutable access to the trace (capacity configuration).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    // ---- event retirement (opt-in; bounded memory for long serving runs) --

    /// Enable/disable event retirement. When enabled, [`Engine::retire_completed`]
    /// compacts the front of the event table: an event may be retired once it
    /// has completed in virtual time (`end <= host_now`) and holds no pins.
    /// A retired id used in a wait list or `wait` call is a no-op — by the
    /// retire rule its `end` can no longer affect any timestamp — but
    /// querying its stamp panics.
    pub fn set_event_retirement(&mut self, enabled: bool) {
        self.retire_enabled = enabled;
    }

    /// Pin `ev` so it survives retirement (refcounted; one live `Event`
    /// handle = one pin).
    pub fn pin_event(&mut self, ev: EventId) {
        if ev.0 < self.events_base {
            return;
        }
        *self.pins.entry(ev.0).or_insert(0) += 1;
    }

    /// Drop one pin from `ev`, and opportunistically retire the table front.
    pub fn unpin_event(&mut self, ev: EventId) {
        if let Some(n) = self.pins.get_mut(&ev.0) {
            *n -= 1;
            if *n == 0 {
                self.pins.remove(&ev.0);
            }
        }
        if self.retire_enabled {
            self.retire_completed();
        }
    }

    /// Retire completed, unpinned events from the front of the table.
    /// No-op unless retirement is enabled. Returns how many were retired.
    pub fn retire_completed(&mut self) -> usize {
        if !self.retire_enabled {
            return 0;
        }
        let mut n = 0;
        while let Some(front) = self.events.front() {
            if front.end > self.host_now || self.pins.contains_key(&self.events_base) {
                break;
            }
            self.events.pop_front();
            self.events_base += 1;
            n += 1;
        }
        self.retired += n as u64;
        n
    }

    /// Number of live (non-retired) entries in the event table.
    pub fn live_events(&self) -> usize {
        self.events.len()
    }

    /// Total events retired so far.
    pub fn retired_events(&self) -> u64 {
        self.retired
    }

    // ---- fault injection (opt-in; see `crate::fault`) ---------------------

    /// Install a fault plan. Replaces any existing plan; the transfer coin
    /// stream restarts from the new plan's seed.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultState::new(plan));
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| &f.plan)
    }

    /// Terminal status of `ev`. Unlike [`Engine::stamp`] this stays valid
    /// after the event retires (failure marks are never compacted).
    pub fn event_status(&self, ev: EventId) -> CommandStatus {
        match self.statuses.get(&ev.0) {
            Some(&k) => CommandStatus::Failed(k),
            None => CommandStatus::Complete,
        }
    }

    /// True when `dev` has died at or before the current host time.
    pub fn device_lost(&self, dev: DeviceId) -> bool {
        self.device_lost_at(dev).is_some_and(|t| t <= self.host_now)
    }

    /// The virtual instant the plan loses `dev`, if it ever does.
    pub fn device_lost_at(&self, dev: DeviceId) -> Option<SimTime> {
        self.fault.as_ref().and_then(|f| f.plan.loss_at(dev))
    }

    /// The duration multiplier active on `dev` right now (1.0 = healthy).
    pub fn device_degradation(&self, dev: DeviceId) -> f64 {
        self.fault.as_ref().map_or(1.0, |f| f.plan.degradation_at(dev, self.host_now))
    }

    /// The failure log, in submission order. Incremental consumers remember
    /// the length they last saw and read the suffix.
    pub fn failures(&self) -> &[FailureRecord] {
        &self.failures
    }

    /// Total failed commands so far (monotonic).
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(name: &str) -> CommandKind {
        CommandKind::Kernel { name: Arc::from(name) }
    }

    fn cmd(dev: usize, ms: u64, waits: Vec<EventId>) -> CommandDesc {
        CommandDesc {
            device: DeviceId(dev),
            kind: kernel("k"),
            duration: SimDuration::from_millis(ms),
            waits: waits.into(),
            queue: 0,
        }
    }

    #[test]
    fn commands_on_one_device_serialize() {
        let mut e = Engine::new(2);
        let a = e.submit(cmd(0, 10, vec![]));
        let b = e.submit(cmd(0, 5, vec![]));
        assert_eq!(e.stamp(b).start, e.stamp(a).end);
        assert_eq!(e.stamp(b).duration(), SimDuration::from_millis(5));
    }

    #[test]
    fn transfer_and_kernel_lanes_overlap_on_one_device() {
        let mut e = Engine::new(1);
        let k = e.submit(cmd(0, 10, vec![]));
        let t = e.submit(CommandDesc {
            device: DeviceId(0),
            kind: CommandKind::Transfer {
                kind: crate::topology::TransferKind::HostToDevice,
                bytes: 1024,
            },
            duration: SimDuration::from_millis(10),
            waits: WaitList::new(),
            queue: 0,
        });
        // The copy engine does not wait for the compute engine.
        assert!(e.stamp(t).start < e.stamp(k).end);
        // But an explicit wait still orders across lanes.
        let t2 = e.submit(CommandDesc {
            device: DeviceId(0),
            kind: CommandKind::Transfer {
                kind: crate::topology::TransferKind::DeviceToHost,
                bytes: 1024,
            },
            duration: SimDuration::from_millis(1),
            waits: WaitList::one(k),
            queue: 0,
        });
        assert!(e.stamp(t2).start >= e.stamp(k).end);
    }

    #[test]
    fn commands_on_different_devices_overlap() {
        let mut e = Engine::new(2);
        let a = e.submit(cmd(0, 10, vec![]));
        let b = e.submit(cmd(1, 10, vec![]));
        // Both start at (almost) t=0; they run concurrently.
        assert!(e.stamp(b).start < e.stamp(a).end);
    }

    #[test]
    fn waits_delay_start() {
        let mut e = Engine::new(2);
        let a = e.submit(cmd(0, 10, vec![]));
        let b = e.submit(cmd(1, 5, vec![a]));
        assert_eq!(e.stamp(b).start, e.stamp(a).end);
    }

    #[test]
    fn host_wait_advances_clock() {
        let mut e = Engine::new(1);
        let a = e.submit(cmd(0, 10, vec![]));
        assert!(e.now() < e.stamp(a).end);
        e.wait(a);
        assert_eq!(e.now(), e.stamp(a).end);
        // Waiting again is idempotent.
        e.wait(a);
        assert_eq!(e.now(), e.stamp(a).end);
    }

    #[test]
    fn finish_all_reaches_max_device_time() {
        let mut e = Engine::new(3);
        e.submit(cmd(0, 10, vec![]));
        e.submit(cmd(1, 30, vec![]));
        e.submit(cmd(2, 20, vec![]));
        e.finish_all();
        assert!(e.now() >= SimTime::from_nanos(30_000_000));
    }

    #[test]
    fn commands_submitted_after_wait_start_later() {
        let mut e = Engine::new(2);
        let a = e.submit(cmd(0, 10, vec![]));
        e.wait(a);
        let b = e.submit(cmd(1, 1, vec![]));
        assert!(e.stamp(b).start >= e.stamp(a).end);
    }

    #[test]
    fn device_busy_accumulates() {
        let mut e = Engine::new(1);
        e.submit(cmd(0, 10, vec![]));
        e.submit(cmd(0, 5, vec![]));
        assert_eq!(e.device_busy(DeviceId(0)), SimDuration::from_millis(15));
    }

    #[test]
    fn trace_records_tags() {
        let mut e = Engine::new(1);
        e.set_tag(Some("profiling"));
        e.submit(cmd(0, 1, vec![]));
        e.set_tag(None);
        e.submit(cmd(0, 1, vec![]));
        let recs = &e.trace().records;
        assert_eq!(recs[0].tag.as_deref(), Some("profiling"));
        assert_eq!(recs[1].tag, None);
    }

    #[test]
    fn marker_completes_immediately() {
        let mut e = Engine::new(1);
        e.host_busy(SimDuration::from_millis(3));
        let m = e.marker_now();
        assert_eq!(e.stamp(m).end, e.now());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn submitting_to_unknown_device_panics() {
        let mut e = Engine::new(1);
        e.submit(cmd(5, 1, vec![]));
    }

    #[test]
    fn retirement_compacts_completed_events() {
        let mut e = Engine::new(1);
        e.set_event_retirement(true);
        let a = e.submit(cmd(0, 10, vec![]));
        let b = e.submit(cmd(0, 5, vec![a]));
        // Nothing has completed in virtual time yet.
        assert_eq!(e.retire_completed(), 0);
        e.wait(b);
        assert_eq!(e.retire_completed(), 2);
        assert_eq!(e.live_events(), 0);
        assert_eq!(e.retired_events(), 2);
        // Waiting on / depending on a retired event is a harmless no-op.
        let before = e.now();
        e.wait(a);
        assert_eq!(e.now(), before);
        let c = e.submit(cmd(0, 1, vec![a, b]));
        assert!(e.stamp(c).start >= before);
    }

    #[test]
    fn pinned_events_survive_retirement() {
        let mut e = Engine::new(1);
        e.set_event_retirement(true);
        let a = e.submit(cmd(0, 10, vec![]));
        let b = e.submit(cmd(0, 5, vec![]));
        e.pin_event(a);
        e.wait(b);
        // `a` is pinned, so nothing at or past it can retire.
        assert_eq!(e.retire_completed(), 0);
        assert_eq!(e.live_events(), 2);
        e.unpin_event(a); // also retires opportunistically
        assert_eq!(e.live_events(), 0);
    }

    #[test]
    fn retirement_is_noop_when_disabled() {
        let mut e = Engine::new(1);
        let a = e.submit(cmd(0, 1, vec![]));
        e.wait(a);
        assert_eq!(e.retire_completed(), 0);
        assert_eq!(e.live_events(), 1);
    }

    #[test]
    fn device_loss_truncates_and_then_fails_instantly() {
        let mut e = Engine::new(2);
        e.set_fault_plan(
            FaultPlan::new(1).lose_device(DeviceId(0), SimTime::from_nanos(15_000_000)),
        );
        // Straddles the loss instant: truncated, failed, lane time charged
        // only up to the death.
        let a = e.submit(cmd(0, 10, vec![]));
        let b = e.submit(cmd(0, 10, vec![]));
        assert!(e.event_status(a).is_ok());
        assert_eq!(e.event_status(b), CommandStatus::Failed(FaultKind::DeviceLost));
        assert_eq!(e.stamp(b).end, SimTime::from_nanos(15_000_000));
        assert!(e.device_busy(DeviceId(0)) < SimDuration::from_millis(20));
        // After the death every command on the device fails instantly.
        let c = e.submit(cmd(0, 10, vec![]));
        assert_eq!(e.event_status(c), CommandStatus::Failed(FaultKind::DeviceLost));
        assert_eq!(e.stamp(c).duration(), SimDuration::ZERO);
        // The other device is untouched.
        let d = e.submit(cmd(1, 10, vec![]));
        assert!(e.event_status(d).is_ok());
        // The failure log attributes both failures to device 0.
        assert_eq!(e.failure_count(), 2);
        assert!(e.failures().iter().all(|f| f.device == DeviceId(0)));
        // Loss queries flip once virtual time passes the instant.
        assert_eq!(e.device_lost_at(DeviceId(0)), Some(SimTime::from_nanos(15_000_000)));
        e.wait(b);
        assert!(e.device_lost(DeviceId(0)));
        assert!(!e.device_lost(DeviceId(1)));
    }

    #[test]
    fn transfer_failures_are_seed_deterministic_and_charge_time() {
        let run = |seed: u64| {
            let mut e = Engine::new(1);
            e.set_fault_plan(FaultPlan::new(seed).with_transfer_failure_rate(0.5));
            let mut failed = Vec::new();
            for i in 0..32 {
                let ev = e.submit(CommandDesc {
                    device: DeviceId(0),
                    kind: CommandKind::Transfer {
                        kind: crate::topology::TransferKind::HostToDevice,
                        bytes: 64,
                    },
                    duration: SimDuration::from_micros(10),
                    waits: WaitList::new(),
                    queue: 0,
                });
                if !e.event_status(ev).is_ok() {
                    failed.push(i);
                }
            }
            (failed, e.device_busy(DeviceId(0)))
        };
        let (f1, busy1) = run(42);
        let (f2, _) = run(42);
        assert_eq!(f1, f2, "same seed must fail the same transfers");
        assert!(!f1.is_empty() && f1.len() < 32, "rate 0.5 fails some but not all");
        // Failed transfers still occupy the copy engine for the full time.
        assert_eq!(busy1, SimDuration::from_micros(320));
        let (f3, _) = run(43);
        assert_ne!(f1, f3, "a different seed draws a different stream");
        // Kernels never consume the transfer coin stream.
        let mut e = Engine::new(1);
        e.set_fault_plan(FaultPlan::new(42).with_transfer_failure_rate(0.5));
        for _ in 0..8 {
            let ev = e.submit(cmd(0, 1, vec![]));
            assert!(e.event_status(ev).is_ok());
        }
    }

    #[test]
    fn degraded_device_runs_slower_from_its_start_instant() {
        let mut e = Engine::new(1);
        e.set_fault_plan(FaultPlan::new(1).degrade_device(
            DeviceId(0),
            2.0,
            SimTime::from_nanos(10_000_000),
        ));
        let a = e.submit(cmd(0, 5, vec![])); // starts near t=0: full speed
        assert_eq!(e.stamp(a).duration(), SimDuration::from_millis(5));
        e.host_busy(SimDuration::from_millis(20));
        let b = e.submit(cmd(0, 5, vec![])); // starts past t=10ms: half speed
        assert_eq!(e.stamp(b).duration(), SimDuration::from_millis(10));
        assert!(e.event_status(b).is_ok(), "degradation is not a failure");
        assert_eq!(e.device_degradation(DeviceId(0)), 2.0);
        assert_eq!(e.failure_count(), 0);
    }

    #[test]
    fn fault_statuses_survive_event_retirement() {
        let mut e = Engine::new(1);
        e.set_event_retirement(true);
        e.set_fault_plan(FaultPlan::new(1).lose_device(DeviceId(0), SimTime::ZERO));
        let a = e.submit(cmd(0, 10, vec![]));
        e.wait(a);
        assert!(e.retire_completed() >= 1);
        // The stamp is gone but the status is still queryable.
        assert_eq!(e.event_status(a), CommandStatus::Failed(FaultKind::DeviceLost));
    }

    #[test]
    fn no_fault_plan_changes_nothing() {
        let mut e = Engine::new(1);
        assert!(e.fault_plan().is_none());
        let a = e.submit(cmd(0, 10, vec![]));
        assert!(e.event_status(a).is_ok());
        assert!(!e.device_lost(DeviceId(0)));
        assert_eq!(e.device_degradation(DeviceId(0)), 1.0);
        assert_eq!(e.failure_count(), 0);
    }

    #[test]
    #[should_panic(expected = "has been retired")]
    fn stamp_of_retired_event_panics() {
        let mut e = Engine::new(1);
        e.set_event_retirement(true);
        let a = e.submit(cmd(0, 1, vec![]));
        e.wait(a);
        e.retire_completed();
        let _ = e.stamp(a);
    }
}
