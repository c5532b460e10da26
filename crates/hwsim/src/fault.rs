//! Deterministic fault injection for the discrete-event engine.
//!
//! A [`FaultPlan`] describes, ahead of time and from a fixed seed, every way
//! the simulated node may misbehave:
//!
//! * **Transient transfer failures** — each DMA transfer independently fails
//!   with a configured probability (a seeded coin flip, so runs reproduce
//!   bit-identically). The transfer still occupies its copy-engine slot for
//!   the full duration: retries pay real time, exactly as on hardware where
//!   the failure surfaces at completion.
//! * **Throughput degradation** — from a given virtual instant a device runs
//!   slower by a multiplicative factor (thermal throttling, a flaky PCIe
//!   link renegotiating lanes, a co-tenant stealing SMs).
//! * **Permanent device loss** — at a given virtual instant a device dies.
//!   Commands that would start after the loss fail immediately; a command
//!   straddling the instant is truncated and fails at the loss time.
//!
//! Faulted commands *complete with an error status* instead of succeeding or
//! panicking: the engine records a [`FaultKind`] per failed event (queryable
//! through [`crate::engine::Engine::event_status`]) and appends a
//! [`FailureRecord`] to a per-engine failure log that
//! upper layers use to attribute failures to queues and jobs.
//!
//! With no plan installed the engine behaves exactly as before — the fault
//! path costs one `Option` check per submit.

use crate::device::DeviceId;
use crate::engine::EventId;
use crate::time::SimTime;
use crate::xrand::XorShift;

/// Why a command failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A DMA transfer failed transiently; retrying the command may succeed.
    TransientTransfer,
    /// The target device is permanently lost; retrying on it cannot succeed.
    DeviceLost,
}

impl FaultKind {
    /// True when a retry of the same command may succeed.
    pub fn is_transient(self) -> bool {
        matches!(self, FaultKind::TransientTransfer)
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::TransientTransfer => write!(f, "transient_transfer"),
            FaultKind::DeviceLost => write!(f, "device_lost"),
        }
    }
}

/// Terminal status of a submitted command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandStatus {
    /// The command ran to completion (`CL_COMPLETE`).
    Complete,
    /// The command completed with an error.
    Failed(FaultKind),
}

impl CommandStatus {
    /// True when the command completed without error.
    pub fn is_ok(self) -> bool {
        matches!(self, CommandStatus::Complete)
    }
}

/// One failed command, in submission order — the engine's failure log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureRecord {
    /// The completion event of the failed command.
    pub event: EventId,
    /// Device the command was bound to.
    pub device: DeviceId,
    /// Logical command-queue id (the same id recorded in the trace).
    pub queue: usize,
    /// Why it failed.
    pub kind: FaultKind,
    /// Virtual instant the failure surfaced (the event's `end`).
    pub at: SimTime,
}

/// A device slowdown active from a given instant.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Degrade {
    device: DeviceId,
    /// Duration multiplier (`2.0` = half throughput). Clamped to ≥ 1.0.
    factor: f64,
    from: SimTime,
}

/// A seeded, deterministic description of every fault the engine will
/// inject. Built once, installed via
/// [`crate::engine::Engine::set_fault_plan`], then consulted on every submit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transfer_failure_rate: f64,
    degraded: Vec<Degrade>,
    losses: Vec<(DeviceId, SimTime)>,
}

impl FaultPlan {
    /// An empty plan (no faults) drawing its transfer coin flips from
    /// `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, transfer_failure_rate: 0.0, degraded: Vec::new(), losses: Vec::new() }
    }

    /// The seed the transfer coin flips derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fail each DMA transfer independently with probability `rate`
    /// (clamped to `[0, 1]`; NaN means 0).
    pub fn with_transfer_failure_rate(mut self, rate: f64) -> FaultPlan {
        self.transfer_failure_rate = if rate.is_nan() { 0.0 } else { rate.clamp(0.0, 1.0) };
        self
    }

    /// The configured per-transfer failure probability.
    pub fn transfer_failure_rate(&self) -> f64 {
        self.transfer_failure_rate
    }

    /// Permanently lose `device` at virtual instant `at`. The earliest
    /// instant wins if the same device is named twice.
    pub fn lose_device(mut self, device: DeviceId, at: SimTime) -> FaultPlan {
        match self.losses.iter_mut().find(|(d, _)| *d == device) {
            Some((_, t)) => *t = (*t).min(at),
            None => self.losses.push((device, at)),
        }
        self
    }

    /// Slow `device` down by `factor` (≥ 1.0; smaller values are clamped)
    /// starting at virtual instant `from`. The largest active factor wins if
    /// a device is degraded more than once.
    pub fn degrade_device(mut self, device: DeviceId, factor: f64, from: SimTime) -> FaultPlan {
        let factor = if factor.is_nan() { 1.0 } else { factor.max(1.0) };
        self.degraded.push(Degrade { device, factor, from });
        self
    }

    /// The instant `device` is scheduled to die, if any.
    pub fn loss_at(&self, device: DeviceId) -> Option<SimTime> {
        self.losses.iter().find(|(d, _)| *d == device).map(|&(_, t)| t)
    }

    /// The duration multiplier active on `device` at instant `t` (1.0 when
    /// healthy).
    pub fn degradation_at(&self, device: DeviceId, t: SimTime) -> f64 {
        self.degraded
            .iter()
            .filter(|g| g.device == device && g.from <= t)
            .map(|g| g.factor)
            .fold(1.0, f64::max)
    }

    /// True when the plan can never inject a fault.
    pub fn is_empty(&self) -> bool {
        self.transfer_failure_rate == 0.0 && self.degraded.is_empty() && self.losses.is_empty()
    }
}

/// Live fault state inside the engine: the plan plus the seeded coin-flip
/// stream for transfer failures.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) rng: XorShift,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        let rng = XorShift::new(plan.seed());
        FaultState { plan, rng }
    }

    /// Deterministic coin flip for one transfer.
    pub(crate) fn transfer_fails(&mut self) -> bool {
        let rate = self.plan.transfer_failure_rate();
        rate > 0.0 && self.rng.f64() < rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_clamps_and_merges() {
        let p = FaultPlan::new(7)
            .with_transfer_failure_rate(2.0)
            .degrade_device(DeviceId(0), 0.5, SimTime::ZERO)
            .lose_device(DeviceId(1), SimTime::from_nanos(100))
            .lose_device(DeviceId(1), SimTime::from_nanos(50));
        assert_eq!(p.transfer_failure_rate(), 1.0);
        // Degradation below 1.0 is clamped up (a degrade never speeds up).
        assert_eq!(p.degradation_at(DeviceId(0), SimTime::ZERO), 1.0);
        // Earliest loss instant wins.
        assert_eq!(p.loss_at(DeviceId(1)), Some(SimTime::from_nanos(50)));
        assert_eq!(p.loss_at(DeviceId(0)), None);
    }

    #[test]
    fn degradation_activates_at_its_start_instant() {
        let p = FaultPlan::new(1).degrade_device(DeviceId(2), 3.0, SimTime::from_nanos(10));
        assert_eq!(p.degradation_at(DeviceId(2), SimTime::from_nanos(9)), 1.0);
        assert_eq!(p.degradation_at(DeviceId(2), SimTime::from_nanos(10)), 3.0);
        // Overlapping degradations: the largest active factor wins.
        let p = p.degrade_device(DeviceId(2), 2.0, SimTime::ZERO);
        assert_eq!(p.degradation_at(DeviceId(2), SimTime::from_nanos(5)), 2.0);
        assert_eq!(p.degradation_at(DeviceId(2), SimTime::from_nanos(10)), 3.0);
    }

    #[test]
    fn statuses_and_kinds_classify() {
        let t = FaultKind::TransientTransfer;
        let l = FaultKind::DeviceLost;
        assert!(CommandStatus::Complete.is_ok());
        assert!(!CommandStatus::Failed(t).is_ok());
        assert!(t.is_transient() && !l.is_transient());
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::new(3).is_empty());
        assert!(!FaultPlan::new(3).with_transfer_failure_rate(0.1).is_empty());
    }
}
