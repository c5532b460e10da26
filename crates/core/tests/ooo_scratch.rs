//! One `ooo::Scratch` reused across many batches computes exactly what a
//! fresh scratch computes for each of them: the same hazard edges, Johnson
//! order, lane makespan and displacement count.
//!
//! The batch sizes run through 0..=24 in shuffled order, so a batch often
//! follows a longer one: a buffer that was not emptied before reuse leaves a
//! stale tail that shows up as an extra edge, a wrong in-degree, a longer
//! order or a stale ready time.

use hwsim::xrand::XorShift;
use hwsim::SimDuration;
use multicl::ooo::{count_displaced, BatchCmd, Scratch};

const BATCHES: usize = 1_000;
const MAX_LEN: usize = 24;
const BUFFERS: u64 = 6;

/// A random subset of the buffers, each with probability 1/3.
fn subset(rng: &mut XorShift) -> Vec<u64> {
    (0..BUFFERS).filter(|_| rng.index(3) == 0).collect()
}

/// A lane time: zero one time in four (a command that stages nothing, or a
/// free kernel), else up to 100 ns, so that Johnson's keys often tie.
fn lane_time(rng: &mut XorShift) -> SimDuration {
    match rng.index(4) {
        0 => SimDuration::ZERO,
        _ => SimDuration::from_nanos(rng.range_u64(1, 100)),
    }
}

fn batch(rng: &mut XorShift, len: usize) -> Vec<BatchCmd> {
    (0..len)
        .map(|_| {
            let writes = subset(rng);
            let mut reads = subset(rng);
            reads.retain(|b| !writes.contains(b));
            BatchCmd { reads, writes, transfer: lane_time(rng), kernel: lane_time(rng) }
        })
        .collect()
}

/// Everything the reorderer derives from one batch.
#[derive(Debug, PartialEq)]
struct Derived {
    edges: Vec<(usize, usize)>,
    order: Vec<usize>,
    makespan: SimDuration,
    program_order_makespan: SimDuration,
    overlap: SimDuration,
    displaced: u64,
}

fn derive(scratch: &mut Scratch, cmds: &[BatchCmd]) -> Derived {
    let edges = scratch.hazard_edges(cmds).to_vec();
    let order = scratch.johnson_order(cmds).to_vec();
    let makespan = scratch.lane_makespan(cmds, &order);
    let program: Vec<usize> = (0..cmds.len()).collect();
    let program_order_makespan = scratch.lane_makespan(cmds, &program);
    let overlap = scratch.overlap_makespan(cmds);
    Derived {
        displaced: count_displaced(&order),
        edges,
        order,
        makespan,
        program_order_makespan,
        overlap,
    }
}

#[test]
fn a_reused_scratch_derives_what_a_fresh_one_does() {
    let mut rng = XorShift::new(0x5eed_0033);
    let mut sizes: Vec<usize> = (0..BATCHES).map(|k| k % (MAX_LEN + 1)).collect();
    for i in (1..sizes.len()).rev() {
        sizes.swap(i, rng.index(i + 1));
    }
    let mut reused = Scratch::default();
    let mut reordered = 0;
    for (k, &len) in sizes.iter().enumerate() {
        let cmds = batch(&mut rng, len);
        let fresh = derive(&mut Scratch::default(), &cmds);
        assert_eq!(fresh.overlap, fresh.makespan, "batch {k}: overlap_makespan is Johnson + lanes");
        assert_eq!(derive(&mut reused, &cmds), fresh, "batch {k} of {len} commands: {cmds:?}");
        reordered += usize::from(fresh.displaced > 0);
    }
    // The property says something only if the batches exercise the reorder.
    assert!(reordered > BATCHES / 2, "only {reordered} of {BATCHES} batches were reordered");
}
