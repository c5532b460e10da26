//! The proposed OpenCL scheduling attributes (paper §IV, Table I).
//!
//! * [`ContextSchedPolicy`] — the `CL_CONTEXT_SCHEDULER` context property:
//!   the *global* queue–device mapping methodology.
//! * [`QueueSchedFlags`] — the per-queue *local* scheduling options, a
//!   bitfield exactly as the paper specifies ("the command queue properties
//!   are implemented as bitfields, and so the user can specify a combination
//!   of local policies").

use crate::error::{ClError, ClResult};
use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// Global scheduling policy, set on the context (`CL_CONTEXT_SCHEDULER`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ContextSchedPolicy {
    /// `ROUND_ROBIN`: assign each scheduled queue to the next device in
    /// order. Least overhead, not always optimal (paper §IV-A).
    RoundRobin,
    /// `AUTO_FIT`: find the queue–device mapping that minimizes the
    /// concurrent completion time when the scheduler triggers.
    #[default]
    AutoFit,
}

impl fmt::Display for ContextSchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextSchedPolicy::RoundRobin => write!(f, "ROUND_ROBIN"),
            ContextSchedPolicy::AutoFit => write!(f, "AUTO_FIT"),
        }
    }
}

/// Per-queue scheduling options (paper §IV-B), a bitfield.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct QueueSchedFlags(u32);

impl QueueSchedFlags {
    /// Opt the queue out of automatic scheduling (manual/static binding).
    pub const SCHED_OFF: QueueSchedFlags = QueueSchedFlags(1 << 0);
    /// Automatic scheduling using only static device profiles (§V-B).
    pub const SCHED_AUTO_STATIC: QueueSchedFlags = QueueSchedFlags(1 << 1);
    /// Automatic scheduling using dynamic kernel profiling (§V-C).
    pub const SCHED_AUTO_DYNAMIC: QueueSchedFlags = QueueSchedFlags(1 << 2);
    /// Trigger scheduling at kernel-epoch synchronization boundaries.
    pub const SCHED_KERNEL_EPOCH: QueueSchedFlags = QueueSchedFlags(1 << 3);
    /// Trigger scheduling only inside explicit start/stop regions marked via
    /// [`crate::SchedQueue::set_sched_property`].
    pub const SCHED_EXPLICIT_REGION: QueueSchedFlags = QueueSchedFlags(1 << 4);
    /// Hint: the workload is iterative; profiles may be recomputed every
    /// `iterative_frequency` epochs (§V-C1).
    pub const SCHED_ITERATIVE: QueueSchedFlags = QueueSchedFlags(1 << 5);
    /// Hint: compute-bound workload → enables minikernel profiling (§V-C2).
    pub const SCHED_COMPUTE_BOUND: QueueSchedFlags = QueueSchedFlags(1 << 6);
    /// Hint: I/O-(PCIe-)bound workload (static-mode selection criterion).
    pub const SCHED_IO_BOUND: QueueSchedFlags = QueueSchedFlags(1 << 7);
    /// Hint: memory-bandwidth-bound workload (static-mode criterion).
    pub const SCHED_MEM_BOUND: QueueSchedFlags = QueueSchedFlags(1 << 8);
    /// Execution hint: flush epochs with the clrt queue in out-of-order
    /// mode — commands wait only on their hazard-edge predecessors
    /// (RAW/WAR/WAW buffer sets), and the epoch flush batch-reorders the
    /// command DAG so transfers overlap kernels on the device's copy lane
    /// (Lázaro-Muñoz et al.). Off by default: without the flag the in-order
    /// chain is preserved exactly. Like `SCHED_SPLITTABLE`, re-settable
    /// between epochs ([`crate::SchedQueue::set_sched_hints`]); the two
    /// compose.
    pub const SCHED_OUT_OF_ORDER: QueueSchedFlags = QueueSchedFlags(1 << 9);
    /// Execution hint: cut a splittable kernel launch into contiguous
    /// NDRange sub-ranges, one per chosen eligible device, when its epoch
    /// then finishes sooner (EngineCL/PySchedCL-style static split, each
    /// share priced at its own size). Off by default: without
    /// the flag every kernel launches whole on one device and same-seed
    /// replay is byte-identical to a build without splitting.
    pub const SCHED_SPLITTABLE: QueueSchedFlags = QueueSchedFlags(1 << 10);

    /// The empty flag set (defaults to automatic dynamic scheduling at
    /// kernel-epoch granularity when passed to queue creation).
    pub const NONE: QueueSchedFlags = QueueSchedFlags(0);

    /// Every bit the runtime defines; anything outside is rejected by
    /// [`QueueSchedFlags::validate`].
    const KNOWN: u32 = (1 << 11) - 1;

    /// Reconstruct a flag set from raw bits (telemetry decode, spec files).
    /// Unknown bits are preserved so `validate()` can report them.
    #[inline]
    pub fn from_bits(bits: u32) -> QueueSchedFlags {
        QueueSchedFlags(bits)
    }

    /// True if every bit of `other` is set in `self`.
    #[inline]
    pub fn contains(self, other: QueueSchedFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no flags are set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set the bits of `other`.
    #[inline]
    pub fn insert(&mut self, other: QueueSchedFlags) {
        self.0 |= other.0;
    }

    /// Clear the bits of `other`.
    #[inline]
    pub fn remove(&mut self, other: QueueSchedFlags) {
        self.0 &= !other.0;
    }

    /// Raw bit value (for diagnostics and cache keys).
    #[inline]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// True if the queue participates in automatic scheduling.
    pub fn is_auto(self) -> bool {
        !self.contains(Self::SCHED_OFF)
            && (self.contains(Self::SCHED_AUTO_STATIC) || self.contains(Self::SCHED_AUTO_DYNAMIC))
    }

    /// Validate the flag set:
    /// * every bit must be one the runtime defines (unknown bits are a
    ///   typed error, not silently ignored),
    /// * `SCHED_OFF` cannot be combined with `SCHED_AUTO_*`,
    /// * `SCHED_AUTO_STATIC` and `SCHED_AUTO_DYNAMIC` are exclusive,
    /// * `SCHED_SPLITTABLE` requires automatic scheduling (it is meaningless
    ///   under `SCHED_OFF`).
    pub fn validate(self) -> ClResult<()> {
        let unknown = self.0 & !Self::KNOWN;
        if unknown != 0 {
            return Err(ClError::InvalidValue(format!(
                "unknown queue scheduling flag bits {unknown:#x} (known mask {:#x})",
                Self::KNOWN
            )));
        }
        if self.contains(Self::SCHED_OFF)
            && (self.contains(Self::SCHED_AUTO_STATIC) || self.contains(Self::SCHED_AUTO_DYNAMIC))
        {
            return Err(ClError::InvalidValue(
                "SCHED_OFF cannot be combined with SCHED_AUTO_*".into(),
            ));
        }
        if self.contains(Self::SCHED_AUTO_STATIC) && self.contains(Self::SCHED_AUTO_DYNAMIC) {
            return Err(ClError::InvalidValue(
                "SCHED_AUTO_STATIC and SCHED_AUTO_DYNAMIC are mutually exclusive".into(),
            ));
        }
        if self.contains(Self::SCHED_SPLITTABLE) && self.contains(Self::SCHED_OFF) {
            return Err(ClError::InvalidValue(
                "SCHED_SPLITTABLE requires automatic scheduling (SCHED_OFF set)".into(),
            ));
        }
        Ok(())
    }

    /// Iterate the names of the set flags (for Display/diagnostics).
    fn names(self) -> Vec<&'static str> {
        const TABLE: [(u32, &str); 11] = [
            (1 << 0, "SCHED_OFF"),
            (1 << 1, "SCHED_AUTO_STATIC"),
            (1 << 2, "SCHED_AUTO_DYNAMIC"),
            (1 << 3, "SCHED_KERNEL_EPOCH"),
            (1 << 4, "SCHED_EXPLICIT_REGION"),
            (1 << 5, "SCHED_ITERATIVE"),
            (1 << 6, "SCHED_COMPUTE_BOUND"),
            (1 << 7, "SCHED_IO_BOUND"),
            (1 << 8, "SCHED_MEM_BOUND"),
            (1 << 9, "SCHED_OUT_OF_ORDER"),
            (1 << 10, "SCHED_SPLITTABLE"),
        ];
        TABLE.iter().filter(|(bit, _)| self.0 & bit != 0).map(|&(_, name)| name).collect()
    }
}

impl BitOr for QueueSchedFlags {
    type Output = QueueSchedFlags;
    fn bitor(self, rhs: QueueSchedFlags) -> QueueSchedFlags {
        QueueSchedFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for QueueSchedFlags {
    fn bitor_assign(&mut self, rhs: QueueSchedFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for QueueSchedFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "(none)")
        } else {
            write!(f, "{}", self.names().join("|"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type F = QueueSchedFlags;

    #[test]
    fn bitfield_combination_and_queries() {
        let f = F::SCHED_AUTO_DYNAMIC | F::SCHED_KERNEL_EPOCH | F::SCHED_COMPUTE_BOUND;
        assert!(f.contains(F::SCHED_AUTO_DYNAMIC));
        assert!(f.contains(F::SCHED_KERNEL_EPOCH | F::SCHED_COMPUTE_BOUND));
        assert!(!f.contains(F::SCHED_OFF));
        assert!(f.is_auto());
    }

    #[test]
    fn off_queues_are_not_auto() {
        assert!(!F::SCHED_OFF.is_auto());
        assert!(!F::NONE.is_auto());
        assert!(F::SCHED_AUTO_STATIC.is_auto());
    }

    #[test]
    fn off_plus_auto_is_invalid() {
        let f = F::SCHED_OFF | F::SCHED_AUTO_DYNAMIC;
        assert!(f.validate().is_err());
    }

    #[test]
    fn static_plus_dynamic_is_invalid() {
        let f = F::SCHED_AUTO_STATIC | F::SCHED_AUTO_DYNAMIC;
        assert!(f.validate().is_err());
    }

    #[test]
    fn paper_combinations_are_valid() {
        // Table II: the combinations used by the SNU-NPB-MD benchmarks.
        let bt = F::SCHED_AUTO_DYNAMIC | F::SCHED_EXPLICIT_REGION;
        let ep = F::SCHED_AUTO_DYNAMIC | F::SCHED_KERNEL_EPOCH | F::SCHED_COMPUTE_BOUND;
        assert!(bt.validate().is_ok());
        assert!(ep.validate().is_ok());
    }

    #[test]
    fn insert_and_remove() {
        let mut f = F::NONE;
        f.insert(F::SCHED_ITERATIVE);
        assert!(f.contains(F::SCHED_ITERATIVE));
        f.remove(F::SCHED_ITERATIVE);
        assert!(f.is_empty());
    }

    #[test]
    fn unknown_bits_are_rejected() {
        for bits in [1u32 << 11, 1 << 17, 0x8000_0000, (1 << 11) | (1 << 2)] {
            let err = F::from_bits(bits).validate().expect_err("unknown bits must fail");
            assert!(matches!(err, ClError::InvalidValue(_)), "expected InvalidValue, got {err:?}");
        }
        // Every known bit on its own still validates (or fails only for a
        // documented exclusion, never for being unknown).
        for bit in 0..11 {
            if let Err(e) = F::from_bits(1 << bit).validate() {
                panic!("known bit 1<<{bit} rejected: {e:?}");
            }
        }
    }

    #[test]
    fn splittable_exclusions() {
        assert!((F::SCHED_AUTO_DYNAMIC | F::SCHED_SPLITTABLE).validate().is_ok());
        assert!((F::SCHED_OFF | F::SCHED_SPLITTABLE).validate().is_err());
        // The two execution hints compose.
        assert!((F::SCHED_AUTO_DYNAMIC | F::SCHED_SPLITTABLE | F::SCHED_OUT_OF_ORDER)
            .validate()
            .is_ok());
    }

    #[test]
    fn from_bits_round_trips() {
        let f = F::SCHED_AUTO_DYNAMIC | F::SCHED_SPLITTABLE;
        assert_eq!(F::from_bits(f.bits()), f);
        assert!(f.to_string().contains("SCHED_SPLITTABLE"));
    }

    #[test]
    fn display_lists_flag_names() {
        let f = F::SCHED_AUTO_DYNAMIC | F::SCHED_MEM_BOUND;
        let s = f.to_string();
        assert!(s.contains("SCHED_AUTO_DYNAMIC"));
        assert!(s.contains("SCHED_MEM_BOUND"));
        assert_eq!(F::NONE.to_string(), "(none)");
    }

    #[test]
    fn policy_display_matches_paper_names() {
        assert_eq!(ContextSchedPolicy::RoundRobin.to_string(), "ROUND_ROBIN");
        assert_eq!(ContextSchedPolicy::AutoFit.to_string(), "AUTO_FIT");
        assert_eq!(ContextSchedPolicy::default(), ContextSchedPolicy::AutoFit);
    }
}
