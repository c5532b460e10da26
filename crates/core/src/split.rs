//! Data-parallel kernel splitting (`SCHED_SPLITTABLE`): one step cuts a
//! splittable launch into contiguous workgroup sub-ranges, one per device,
//! sized in proportion to each device's speed.
//!
//! Pure: [`static_chunks`] sees per-device *per-split-unit* cost estimates
//! (nanoseconds per workgroup slab along the split axis, live degradation
//! already folded in by the scheduler) and returns the chunk list; the
//! scheduler issues each chunk, in list order, on the device it was sized
//! for. A device whose estimate is non-finite (lost, ineligible, never
//! measured) is unavailable and receives no work, and so does a device
//! whose share rounds to zero. Ties go to the lower device index, so
//! same-seed runs replay bit-identically.

/// One contiguous sub-range of a splittable launch, in *split units*
/// (workgroup slabs along the launch's split axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First split unit of the sub-range.
    pub wg_offset: u64,
    /// Split units in the sub-range (always ≥ 1).
    pub wg_count: u64,
    /// Device column (index into the estimate slice) the chunk was sized
    /// for and runs on.
    pub device: usize,
}

/// Cost-proportional static partition: each available device gets a share
/// of the range inversely proportional to its per-unit cost, rounded with
/// the largest-remainder method (exact total, deterministic ties by lower
/// device index). Zero-share devices produce no chunk; chunks come in
/// device order. Empty when there is nothing to split or no device is
/// available.
pub fn static_chunks(total_wgs: u64, per_wg_ns: &[f64]) -> Vec<Chunk> {
    let avail: Vec<usize> =
        (0..per_wg_ns.len()).filter(|&d| per_wg_ns[d].is_finite() && per_wg_ns[d] > 0.0).collect();
    if total_wgs == 0 || avail.is_empty() {
        return Vec::new();
    }
    let speeds: Vec<f64> = avail.iter().map(|&d| 1.0 / per_wg_ns[d]).collect();
    let total_speed: f64 = speeds.iter().sum();
    // Integer shares plus fractional remainders.
    let mut shares: Vec<u64> = Vec::with_capacity(avail.len());
    let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(avail.len());
    let mut assigned = 0u64;
    for (i, s) in speeds.iter().enumerate() {
        let exact = total_wgs as f64 * s / total_speed;
        let floor = exact.floor() as u64;
        shares.push(floor);
        fracs.push((i, exact - floor as f64));
        assigned += floor;
    }
    // Largest remainder first; equal remainders go to the lower index.
    fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut leftover = total_wgs - assigned;
    for &(i, _) in &fracs {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    let mut chunks = Vec::new();
    let mut offset = 0u64;
    for (i, &share) in shares.iter().enumerate() {
        if share == 0 {
            continue;
        }
        chunks.push(Chunk { wg_offset: offset, wg_count: share, device: avail[i] });
        offset += share;
    }
    chunks
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

    #[test]
    fn static_partition_is_cost_proportional() {
        // Device 0 is 3× faster than device 1 → ~3/4 of the range.
        let chunks = static_chunks(400, &[1.0, 3.0]);
        assert_tiles(&chunks, 400);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].device, 0);
        assert_eq!(chunks[0].wg_count, 300);
        assert_eq!(chunks[1].wg_count, 100);
    }

    #[test]
    fn static_partition_skips_unavailable_devices() {
        let chunks = static_chunks(100, &[f64::INFINITY, 2.0, f64::NAN]);
        assert_tiles(&chunks, 100);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].device, 1);
        assert!(static_chunks(100, &[f64::INFINITY]).is_empty());
        assert!(static_chunks(0, &[1.0, 1.0]).is_empty());
    }

    #[test]
    fn a_share_that_rounds_to_zero_gets_no_chunk() {
        // Device 0 is 50× slower: its exact share of 8 units is 0.08.
        let chunks = static_chunks(8, &[50.0, 1.0, 1.0]);
        assert_tiles(&chunks, 8);
        let placed: Vec<(usize, u64)> = chunks.iter().map(|c| (c.device, c.wg_count)).collect();
        assert_eq!(placed, vec![(1, 4), (2, 4)]);
    }

    #[test]
    fn random_partitions_tile_exactly_and_skip_zero_shares() {
        let mut rng = XorShift::new(0xC0FFEE);
        let mut zero_shares = 0;
        for _ in 0..200 {
            let ndev = rng.index(3) + 2;
            let total = rng.range_u64(1, 500);
            let per: Vec<f64> = (0..ndev)
                .map(|_| if rng.index(5) == 0 { f64::INFINITY } else { rng.range_f64(0.5, 200.0) })
                .collect();
            let chunks = static_chunks(total, &per);
            if per.iter().all(|ns| ns.is_infinite()) {
                assert!(chunks.is_empty());
                continue;
            }
            assert_tiles(&chunks, total);
            assert_eq!(chunks, static_chunks(total, &per), "deterministic");
            // One chunk per device with a non-zero share, in device order,
            // never on an unavailable device.
            for w in chunks.windows(2) {
                assert!(w[0].device < w[1].device, "{chunks:?}");
            }
            assert!(chunks.iter().all(|c| per[c.device].is_finite()), "{chunks:?}");
            zero_shares += per.iter().filter(|ns| ns.is_finite()).count() - chunks.len();
        }
        assert!(zero_shares > 0, "no draw rounded a share to zero");
    }
}
