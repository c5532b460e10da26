//! Data-parallel kernel splitting (`SCHED_SPLITTABLE`): the pure half of
//! sizing a split, which `plan::decide` prices and judges.
//!
//! [`chunk_shape`] is the launch shape a share of a launch runs at on one
//! device, so the cost model prices a chunk at its own size. [`balance`]
//! finds the shares that finish soonest when each device's finish time never
//! falls as its share grows. The scheduler issues the chunks, in list order,
//! on the devices they were sized for. A device that takes no share gets no
//! chunk, and ties go to the lower device index, so same-seed runs replay
//! bit-identically.

use hwsim::NdRangeShape;

/// One contiguous sub-range of a splittable launch, in *split units*
/// (workgroup slabs along the launch's split axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First split unit of the sub-range.
    pub wg_offset: u64,
    /// Split units in the sub-range (always ≥ 1).
    pub wg_count: u64,
    /// Device column the chunk was sized for and runs on.
    pub device: usize,
}

/// The cost-model shape of `count` split units from unit `offset` of a
/// launch of `global` items in workgroups of `local`, split along `axis`,
/// run in workgroups of `device_local` — as `clrt` issues the chunk: the
/// sub-range's global size, the device's workgroup shape, workgroups
/// rounded up per dimension.
pub fn chunk_shape(
    global: [u64; 3],
    local: [u64; 3],
    axis: usize,
    device_local: [u64; 3],
    offset: u64,
    count: u64,
) -> NdRangeShape {
    let mut sub = global;
    let from = (offset * local[axis]).min(global[axis]);
    sub[axis] = count.saturating_mul(local[axis]).min(global[axis] - from);
    let local_items: u64 = device_local.iter().map(|&l| l.max(1)).product();
    let workgroups: u64 = (0..3).map(|d| sub[d].div_ceil(device_local[d].max(1))).product();
    NdRangeShape::new(workgroups * local_items, local_items)
}

/// The shares of `units` split units over `devices` columns that finish
/// soonest, refilled into `out`. `finish(d, w)` is when column `d` would be
/// done with `w ≥ 1` units, `None` where it takes none; it never falls as
/// `w` grows, so a binary search on the finish time `T` over integer units
/// is exact: the least `T` by which the devices' largest shares finishing
/// by `T` cover the range. Columns take those shares in order until the
/// range is covered, one contiguous chunk each. Empty when no column takes
/// the whole range.
pub fn balance(
    units: u64,
    devices: usize,
    finish: impl Fn(usize, u64) -> Option<u64>,
    out: &mut Vec<Chunk>,
) {
    out.clear();
    // The largest share column `d` finishes by `t`.
    let largest = |d: usize, t: u64| {
        let (mut lo, mut hi) = (0, units);
        while lo < hi {
            let mid = hi - (hi - lo) / 2;
            match finish(d, mid) {
                Some(end) if end <= t => lo = mid,
                _ => hi = mid - 1,
            }
        }
        lo
    };
    let Some(mut hi) = (0..devices).filter_map(|d| finish(d, units)).min() else { return };
    // Where only the soonest column finishes a unit by then, it takes all.
    let mut takers = (0..devices).filter(|&d| finish(d, 1).is_some_and(|end| end <= hi));
    if let (Some(device), None) = (takers.next(), takers.next()) {
        out.push(Chunk { wg_offset: 0, wg_count: units, device });
        return;
    }
    let mut lo = 0;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match (0..devices).map(|d| largest(d, mid)).sum::<u64>() >= units {
            true => hi = mid,
            false => lo = mid + 1,
        }
    }
    let mut offset = 0;
    for d in 0..devices {
        let count = largest(d, hi).min(units - offset);
        if count > 0 {
            out.push(Chunk { wg_offset: offset, wg_count: count, device: d });
            offset += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::xrand::XorShift;

    /// Chunks must tile `[0, total)` contiguously, in order, nonempty.
    fn assert_tiles(chunks: &[Chunk], total: u64) {
        let mut cursor = 0u64;
        for c in chunks {
            assert_eq!(c.wg_offset, cursor, "chunks must be contiguous");
            assert!(c.wg_count >= 1);
            cursor += c.wg_count;
        }
        assert_eq!(cursor, total, "chunks must cover the range exactly");
    }

    /// Finish times linear in the share: `start[d] + w · per[d]`.
    fn linear<'a>(start: &'a [u64], per: &'a [u64]) -> impl Fn(usize, u64) -> Option<u64> + 'a {
        move |d, w| (per[d] > 0).then(|| start[d] + w * per[d])
    }

    #[test]
    fn linear_costs_split_by_speed() {
        // Device 0 is 3× faster than device 1: ~3/4 of the range.
        let mut out = Vec::new();
        balance(400, 2, linear(&[0, 0], &[1, 3]), &mut out);
        assert_tiles(&out, 400);
        assert_eq!(
            out.iter().map(|c| (c.device, c.wg_count)).collect::<Vec<_>>(),
            [(0, 300), (1, 100)]
        );
    }

    #[test]
    fn a_busy_or_unavailable_device_takes_less_or_nothing() {
        let mut out = Vec::new();
        // Device 1 is free only at 150: it takes 50 of 200 equal units.
        balance(200, 3, linear(&[0, 150, 0], &[1, 1, 0]), &mut out);
        assert_tiles(&out, 200);
        assert_eq!(
            out.iter().map(|c| (c.device, c.wg_count)).collect::<Vec<_>>(),
            [(0, 175), (1, 25)]
        );
        // Busy past the end of the whole launch elsewhere: no chunk.
        balance(200, 2, linear(&[0, 500], &[1, 1]), &mut out);
        assert_eq!(out, [Chunk { wg_offset: 0, wg_count: 200, device: 0 }]);
        balance(200, 2, |_, _| None, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn a_flat_cost_is_not_split_for_nothing() {
        // A narrow launch: half the range costs as much as all of it.
        let mut out = Vec::new();
        balance(8, 2, |d, _| Some([285, 570][d]), &mut out);
        assert_eq!(out, [Chunk { wg_offset: 0, wg_count: 8, device: 0 }]);
    }

    #[test]
    fn random_balances_tile_and_no_share_moves_the_finish_later() {
        let mut rng = XorShift::new(0xC0FFEE);
        let mut out = Vec::new();
        for _ in 0..300 {
            let n = rng.index(3) + 2;
            let units = rng.range_u64(1, 300);
            let start: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 400)).collect();
            let per: Vec<u64> =
                (0..n).map(|_| if rng.index(5) == 0 { 0 } else { rng.range_u64(1, 20) }).collect();
            let finish = linear(&start, &per);
            balance(units, n, &finish, &mut out);
            if per.iter().all(|&p| p == 0) {
                assert!(out.is_empty());
                continue;
            }
            assert_tiles(&out, units);
            let end = |chunks: &[Chunk]| {
                chunks.iter().map(|c| finish(c.device, c.wg_count).expect("available")).max()
            };
            // No single device, and no one unit moved between two chunks,
            // finishes sooner.
            let best = (0..n).filter_map(|d| finish(d, units)).min();
            assert!(end(&out) <= best, "{out:?}");
            for a in 0..out.len() {
                for (b, &per_b) in per.iter().enumerate() {
                    let mut moved: Vec<Chunk> = out.clone();
                    if moved[a].device == b || moved[a].wg_count == 1 || per_b == 0 {
                        continue;
                    }
                    moved[a].wg_count -= 1;
                    match moved.iter_mut().find(|c| c.device == b) {
                        Some(c) => c.wg_count += 1,
                        None => moved.push(Chunk { wg_offset: 0, wg_count: 1, device: b }),
                    }
                    assert!(end(&out) <= end(&moved), "{out:?} vs {moved:?}");
                }
            }
        }
    }
}
