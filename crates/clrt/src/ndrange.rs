//! Kernel launch geometry: up to three dimensions, OpenCL-style.

use crate::error::{ClError, ClResult};
use hwsim::NdRangeShape;

/// An OpenCL NDRange: global and local sizes in 1–3 dimensions.
///
/// Unused dimensions are 1. The local size must divide nothing in particular
/// (OpenCL 2.x relaxed this); workgroup counts round up per dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NdRange {
    /// Global work-items per dimension.
    pub global: [u64; 3],
    /// Work-items per workgroup per dimension.
    pub local: [u64; 3],
}

impl NdRange {
    /// One-dimensional launch.
    pub fn d1(global: u64, local: u64) -> NdRange {
        NdRange { global: [global, 1, 1], local: [local, 1, 1] }
    }

    /// Two-dimensional launch.
    pub fn d2(global: [u64; 2], local: [u64; 2]) -> NdRange {
        NdRange { global: [global[0], global[1], 1], local: [local[0], local[1], 1] }
    }

    /// Three-dimensional launch.
    pub fn d3(global: [u64; 3], local: [u64; 3]) -> NdRange {
        NdRange { global, local }
    }

    /// Validate the range: every dimension nonzero, and the item/workgroup
    /// products must fit in `u64` — geometry whose products wrap would
    /// silently corrupt every cost-model shape derived from it.
    pub fn validate(&self) -> ClResult<()> {
        for d in 0..3 {
            if self.global[d] == 0 || self.local[d] == 0 {
                return Err(ClError::InvalidWorkGroupSize(format!(
                    "dimension {d} has zero size (global={:?}, local={:?})",
                    self.global, self.local
                )));
            }
        }
        if self.checked_global_items().is_none()
            || self.checked_local_items().is_none()
            || self.checked_workgroups().is_none()
        {
            return Err(ClError::InvalidWorkGroupSize(format!(
                "launch geometry overflows u64 (global={:?}, local={:?})",
                self.global, self.local
            )));
        }
        Ok(())
    }

    /// Total global work-items.
    pub fn global_items(&self) -> u64 {
        self.global.iter().product()
    }

    /// Total global work-items, or `None` when the product overflows `u64`.
    pub fn checked_global_items(&self) -> Option<u64> {
        self.global.iter().try_fold(1u64, |acc, &g| acc.checked_mul(g))
    }

    /// Work-items per workgroup.
    pub fn local_items(&self) -> u64 {
        self.local.iter().product()
    }

    /// Work-items per workgroup, or `None` when the product overflows `u64`.
    pub fn checked_local_items(&self) -> Option<u64> {
        self.local.iter().try_fold(1u64, |acc, &l| acc.checked_mul(l))
    }

    /// Total workgroups (per-dimension round-up, then product) — this is the
    /// OpenCL rule and differs from `global_items / local_items` when a
    /// dimension is not evenly divisible.
    pub fn workgroups(&self) -> u64 {
        (0..3).map(|d| self.global[d].div_ceil(self.local[d])).product()
    }

    /// Total workgroups, or `None` when the product overflows `u64`. A zero
    /// local dimension also yields `None` (the division is undefined);
    /// `validate()` reports that case as a zero-size error first.
    pub fn checked_workgroups(&self) -> Option<u64> {
        (0..3).try_fold(1u64, |acc, d| {
            if self.local[d] == 0 {
                return None;
            }
            acc.checked_mul(self.global[d].div_ceil(self.local[d]))
        })
    }

    /// The axis a split launch cuts
    /// ([`crate::CommandQueue::enqueue_ndrange_split`]): the outermost
    /// (highest-index) dimension with more than one workgroup, if any.
    /// Cutting the outermost dimension keeps each chunk's sub-range
    /// contiguous in the flattened iteration space.
    pub fn split_axis(&self) -> Option<usize> {
        (0..3).rev().find(|&d| self.global[d].div_ceil(self.local[d]) > 1)
    }

    /// Flatten to the cost model's 1-D shape. Total items and workgroup size
    /// are preserved; the workgroup count is the per-dimension round-up.
    pub fn shape(&self) -> NdRangeShape {
        // Preserve the true workgroup count by synthesizing a global size of
        // workgroups * local_items (tail workgroups are charged in full, as
        // on real hardware).
        let local = self.local_items();
        NdRangeShape::new(self.workgroups() * local, local)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_constructor() {
        let nd = NdRange::d1(1024, 128);
        assert_eq!(nd.global_items(), 1024);
        assert_eq!(nd.local_items(), 128);
        assert_eq!(nd.workgroups(), 8);
    }

    #[test]
    fn d3_workgroups_round_up_per_dimension() {
        let nd = NdRange::d3([10, 10, 1], [4, 4, 1]);
        // ceil(10/4)=3 per dim → 9 workgroups, not ceil(100/16)=7.
        assert_eq!(nd.workgroups(), 9);
        assert_eq!(nd.shape().workgroups(), 9);
    }

    #[test]
    fn zero_dimension_is_invalid() {
        let nd = NdRange::d2([0, 4], [1, 1]);
        assert!(nd.validate().is_err());
        let ok = NdRange::d2([4, 4], [2, 2]);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn overflowing_geometry_is_invalid() {
        // global_items product wraps: (2^40)^3 ≫ 2^64.
        let nd = NdRange::d3([1 << 40, 1 << 40, 1 << 40], [1, 1, 1]);
        assert_eq!(nd.checked_global_items(), None);
        assert!(nd.validate().is_err());

        // local_items product wraps even though each dimension fits.
        let nd = NdRange::d3([1, 1, 1], [1 << 32, 1 << 32, 2]);
        assert_eq!(nd.checked_local_items(), None);
        assert!(nd.validate().is_err());

        // workgroup count wraps: u64::MAX items in each of two dims with
        // local 1 → (2^64-1)^2 workgroups.
        let nd = NdRange::d3([u64::MAX, u64::MAX, 1], [1, 1, 1]);
        assert_eq!(nd.checked_workgroups(), None);
        assert!(nd.validate().is_err());
    }

    #[test]
    fn checked_variants_agree_with_unchecked_in_range() {
        let nd = NdRange::d3([10, 10, 3], [4, 4, 1]);
        assert_eq!(nd.checked_global_items(), Some(nd.global_items()));
        assert_eq!(nd.checked_local_items(), Some(nd.local_items()));
        assert_eq!(nd.checked_workgroups(), Some(nd.workgroups()));
        assert!(nd.validate().is_ok());
    }

    #[test]
    fn the_outermost_axis_with_several_workgroups_is_split() {
        assert_eq!(NdRange::d3([64, 64, 8], [8, 8, 8]).split_axis(), Some(1));
        assert_eq!(NdRange::d1(256, 64).split_axis(), Some(0));
        assert_eq!(NdRange::d2([64, 8], [64, 8]).split_axis(), None);
    }

    #[test]
    fn shape_preserves_local_size() {
        let nd = NdRange::d2([100, 7], [16, 2]);
        let s = nd.shape();
        assert_eq!(s.local_items, 32);
        assert_eq!(s.workgroups(), nd.workgroups());
    }
}
