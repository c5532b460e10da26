//! `plan::decide` without a platform: hand-built snapshots checked against
//! the routines each part of the decision comes from — its pricing and its
//! split judgement included — and seeded property tests over random
//! snapshots: of the decision, and of the memo that reuses it.

use hwsim::microbench::BandwidthCurve;
use hwsim::xrand::XorShift;
use hwsim::{DeviceId, KernelCostSpec, KernelTraits, NodeConfig, SimDuration};
use multicl::mapper::{self, MapperScratch};
use multicl::plan::{
    self, decide, decide_or_reuse, issue_order, remember, replayed_end, CostRow, Lanes,
    LaunchInput, Memo, PassInput, Plan, PlanScratch, QueueInput, SplitInput, Touch,
};
use multicl::{ContextSchedPolicy, MapperKind, DEFAULT_ADAPTIVE_NODE_BUDGET};
use std::sync::Arc;

fn ns(v: &[u64]) -> Arc<[SimDuration]> {
    v.iter().map(|&n| SimDuration::from_nanos(n)).collect()
}

/// The row of a queue that `push_queue` appends with these terms: healthy
/// and alone, its launch stages its buffer (`migration` per column) and
/// then runs.
fn row(exec: &[u64], migration: &[u64]) -> CostRow {
    let total: Vec<u64> = exec.iter().zip(migration).map(|(e, m)| e + m).collect();
    CostRow { exec: ns(exec), total: ns(&total) }
}

/// A snapshot over `n` healthy, idle devices of 1 MiB on a flat 6 GB/s
/// host link — a leg of 6 bytes takes a nanosecond — with nothing pending.
fn input(policy: ContextSchedPolicy, n: usize) -> PassInput {
    PassInput {
        policy,
        devices: (0..n).map(DeviceId).collect(),
        lost: vec![false; n],
        capacity: vec![1 << 20; n],
        degradation: vec![1.0; n],
        lanes: vec![Lanes::default(); n],
        links: (0..n).map(|_| BandwidthCurve::new(vec![1, 1 << 40], vec![6.0, 6.0])).collect(),
        ..PassInput::default()
    }
}

/// Append a buffer slot of `bytes` valid on the columns `on`, whose copy for
/// another column comes from `source`: a column of `on`, or the host.
fn push_buffer(input: &mut PassInput, bytes: u64, on: &[usize], source: Option<usize>) -> usize {
    input.bytes.push(bytes);
    input.valid.extend((0..input.devices.len()).map(|d| on.contains(&d)));
    input.source.push(source);
    input.bytes.len() - 1
}

/// Append a queue with one launch of its `need`: its execution row is
/// `exec`, which is the launch's kernel time, and it reads one buffer of its
/// own of `bytes`, valid on the columns `on` and on the host.
fn push_queue(input: &mut PassInput, q: QueueInput, exec: &[u64], bytes: u64, on: &[usize]) {
    let slot = push_buffer(input, bytes, on, None);
    let (l, at) = (input.launches.len(), input.touches.len());
    input.touches.push(Touch { buffer: slot, write: false });
    let queue = input.queues.len();
    input.launches.push(LaunchInput { queue, need: q.need, touches: at..at + 1 });
    input.kernel_time.extend_from_slice(&ns(exec));
    input.profiled.extend(exec.iter().map(|_| SimDuration::ZERO));
    input.queues.push(QueueInput { exec: ns(exec), launches: l..l + 1, ..q });
}

/// An in-order queue with a profiled execution row, which `push_queue` or
/// the case fills in.
fn queue(current: usize, need: u64) -> QueueInput {
    QueueInput {
        out_of_order: false,
        need,
        current: Some(current),
        bound: true,
        exec: ns(&[]),
        copies: true,
        tail: 0,
        launches: 0..0,
    }
}

fn plan_of(input: &PassInput) -> Plan {
    let mut plan = Plan::default();
    decide(input, &mut PlanScratch::default(), &mut plan);
    plan
}

#[test]
fn auto_fit_is_the_mapper_over_the_blacklisted_matrix_from_the_warm_start() {
    let mut input = input(ContextSchedPolicy::AutoFit, 3);
    input.lost[1] = true;
    input.capacity[2] = 1 << 10;
    // (current, need, exec, buffer bytes, columns it is valid on, the row's
    // migration terms): the host copy is valid, so a column without one
    // pays its upload, 6 bytes a nanosecond.
    type Terms = (usize, u64, [u64; 3], u64, &'static [usize], [u64; 3]);
    let rows: [Terms; 4] = [
        (0, 64, [900, 100, 300], 300, &[0, 1], [0, 0, 50]),
        (2, 1 << 12, [500, 50, 40], 60, &[], [10, 10, 10]),
        (1, 64, [200, 10, 210], 30, &[0, 2], [0, 5, 0]),
        (0, 64, [700, 10, 650], 6, &[0, 1, 2], [0, 0, 0]),
    ];
    for (current, need, exec, bytes, on, _) in rows {
        push_queue(&mut input, queue(current, need), &exec, bytes, on);
    }
    let plan = plan_of(&input);
    let want: Vec<CostRow> =
        rows.iter().map(|(.., exec, _, _, migration)| row(exec, migration)).collect();
    assert_eq!(plan.costs, want);
    // The code the decision replaces: blacklist, warm start, mapper.
    let costs: mapper::CostMatrix = rows
        .iter()
        .zip(&want)
        .map(|((_, need, ..), cost)| {
            let bindable = plan::bindable(&input, *need);
            (0..3)
                .map(|di| match bindable(di) {
                    true => cost.total[di],
                    false => mapper::UNAVAILABLE_COST,
                })
                .collect()
        })
        .collect();
    let warm: Vec<DeviceId> = rows.iter().map(|(current, ..)| DeviceId(*current)).collect();
    let want = mapper::adaptive(
        &costs,
        Some(&warm),
        DEFAULT_ADAPTIVE_NODE_BUDGET,
        &mut MapperScratch::new(),
    );
    let device: Vec<usize> = want.mapping.assignment.iter().map(|d| d.index()).collect();
    assert_eq!(plan.device, device);
    assert_eq!(plan.search, Some(want));
    // The prediction is the replay of the plan, not the mapper objective.
    assert_eq!(plan.predicted, replayed_end(&input, &plan));
    // Nothing lands on the lost device, nor the big queue on the small one.
    assert!(!plan.device.contains(&1), "{:?}", plan.device);
    assert_ne!(plan.device[1], 2);
    // The greedy arm is the greedy mapper on the same matrix.
    input.mapper = MapperKind::Greedy;
    let greedy = mapper::greedy(&costs);
    let plan = plan_of(&input);
    assert_eq!(plan.device, greedy.assignment.iter().map(|d| d.index()).collect::<Vec<_>>());
    assert_eq!(plan.search.map(|s| s.nodes_explored), Some(0));
}

#[test]
fn round_robin_keeps_a_bindable_binding_and_rotates_otherwise() {
    let mut input = input(ContextSchedPolicy::RoundRobin, 3);
    input.lost[2] = true;
    input.capacity[0] = 1 << 10;
    input.rr_next = 7;
    // Each queue's buffer is 12 bytes, on the host alone.
    let exec = &[10, 20, 30];
    // Bound and bindable: kept.
    push_queue(&mut input, queue(1, 64), exec, 12, &[]);
    // Bound to the lost device: rotates. 7 % 3 = 1 is bindable.
    push_queue(&mut input, queue(2, 64), exec, 12, &[]);
    // Never bound: rotates. 8 % 3 = 2 is lost, 9 % 3 = 0 is too small,
    // 10 % 3 = 1 takes it.
    let fresh = QueueInput { bound: false, ..queue(0, 1 << 12) };
    push_queue(&mut input, fresh, exec, 12, &[]);
    let plan = plan_of(&input);
    assert_eq!(plan.device, [1, 1, 1]);
    assert_eq!(plan.rr_next, 11);
    assert_eq!(plan.search, None);
    // The rotation prices nothing. The prediction replays the plan: each
    // queue's buffer moves to column 1 (2 ns each, the later two under the
    // first launch) and the launches run there one after another (20 ns).
    assert!(plan.costs.is_empty(), "{:?}", plan.costs);
    assert_eq!(plan.predicted, SimDuration::from_nanos(2 + 3 * 20));
    // Every device lost: a queue stays where it is bound if its buffers
    // fit there; there is nothing to recover onto.
    input.lost = vec![true; 3];
    assert_eq!(plan_of(&input).device[..2], [1, 2]);
}

/// The prediction counts the host's enqueues: the issue's commands go out
/// one after another, and none starts before it has. What the plan decides
/// does not read them.
#[test]
fn the_prediction_counts_the_hosts_enqueues() {
    for policy in [ContextSchedPolicy::RoundRobin, ContextSchedPolicy::AutoFit] {
        // One idle column, two in-order queues, each staging its buffer
        // (180 bytes, 30 ns) and running (100 ns): 0–30 and 30–130, then
        // 30–60 and 130–230.
        let mut input = input(policy, 1);
        push_queue(&mut input, queue(0, 0), &[100], 180, &[]);
        push_queue(&mut input, queue(0, 0), &[100], 180, &[]);
        let free = plan_of(&input);
        assert_eq!(free.predicted, SimDuration::from_nanos(230), "{policy}");
        // At 50 ns an enqueue: the first stage starts at 50 and ends at 80,
        // its kernel is enqueued at 100 and runs to 200; the second stage
        // is enqueued at 150 (to 180), its kernel at 200 and runs to 300.
        input.enqueue = 50;
        let plan = plan_of(&input);
        assert_eq!(plan.predicted, SimDuration::from_nanos(300), "{policy}");
        assert_eq!(plan.predicted, replayed_end(&input, &plan));
        assert_eq!((&plan.device, &plan.splits), (&free.device, &free.splits));
    }
}

#[test]
fn the_prediction_replays_the_plan_from_the_devices_and_queues_at_the_flush() {
    for policy in [ContextSchedPolicy::RoundRobin, ContextSchedPolicy::AutoFit] {
        // One column, idle: an in-order queue's launch stages its buffer
        // (180 bytes, 30 ns) and runs (100 ns).
        let mut input = input(policy, 1);
        push_queue(&mut input, queue(0, 0), &[100], 180, &[]);
        assert_eq!(plan_of(&input).predicted, SimDuration::from_nanos(130), "{policy}");
        // Its copy lane busy for 40 ns more and its compute lane for 120:
        // the stage ends at 70, the kernel waits for its lane to 220.
        input.lanes[0] = Lanes { copy: 40, compute: 120 };
        assert_eq!(plan_of(&input).predicted, SimDuration::from_nanos(220), "{policy}");
        // The queue's last command, an upload, ends at 300: the stage waits
        // behind it, 330, and the kernel runs to 430.
        input.queues[0].tail = 300;
        let plan = plan_of(&input);
        assert_eq!(plan.predicted, SimDuration::from_nanos(430), "{policy}");
        assert_eq!(plan.predicted, replayed_end(&input, &plan));
    }
}

/// An in-order launch waits on another queue's writer of a buffer it
/// reads, as the time plane orders it: its staging starts once the writer
/// has ended, and its kernel once its staging has.
#[test]
fn an_in_order_launch_waits_on_another_queues_writer() {
    let mut input = input(ContextSchedPolicy::RoundRobin, 2);
    // 6 000 bytes, valid on both columns at the flush: 1 000 ns a leg on
    // the 6 GB/s link.
    let x = push_buffer(&mut input, 6000, &[0, 1], None);
    // Queue 0, on column 0, writes it for 1 000 ns; queue 1, on column 1,
    // reads it for 100 ns.
    for (q, write, kernel) in [(0, true, 1000), (1, false, 100)] {
        push_launches(&mut input, q, &[(&[(x, write)], &[kernel, kernel], &[0, 0])]);
        input.queues.push(QueueInput { launches: q..q + 1, ..queue(q, 0) });
    }
    // The writer ends at 1 000; the reader's staging, down from column 0
    // and up to column 1, ends at 3 000; its kernel at 3 100.
    let plan = plan_of(&input);
    assert_eq!(plan.device, [0, 1]);
    assert_eq!(plan.predicted, SimDuration::from_nanos(1000 + 1000 + 1000 + 100));
    assert_eq!(plan.predicted, replayed_end(&input, &plan));
}

#[test]
fn the_issue_order_is_the_in_order_queues_then_the_out_of_order_ones_in_program_order() {
    let mut input = input(ContextSchedPolicy::RoundRobin, 2);
    // Valid on one column with the host copy valid, on the other with it
    // stale, nowhere but the host, and on both.
    push_buffer(&mut input, 2400, &[0], None);
    push_buffer(&mut input, 1800, &[1], Some(1));
    push_buffer(&mut input, 300, &[], None);
    push_buffer(&mut input, 5400, &[0, 1], Some(0));
    // Two out-of-order queues, bound to devices 0 and 1, and an in-order
    // one between them. ROUND_ROBIN prices nothing. With no profile row on
    // a healthy node, a launch's whole time is its analytic time.
    // (queue, (buffer slot, write) accesses, kernel time per device)
    type Launch = (usize, &'static [(usize, bool)], [u64; 2]);
    let launches: [Launch; 6] = [
        (0, &[(0, false), (2, true)], [100, 100]),
        (0, &[(1, false)], [500, 500]),
        (1, &[(3, true)], [10, 10]),
        (2, &[(0, false), (3, false)], [200, 20]),
        (2, &[(2, false), (1, true)], [40, 40]),
        (2, &[(1, false)], [5, 600]),
    ];
    for (q, current, ooo) in [(0, 0, true), (1, 1, false), (2, 1, true)] {
        input.queues.push(QueueInput { out_of_order: ooo, copies: false, ..queue(current, 0) });
        let first = input.launches.len();
        for (lq, touches, kernel) in launches.iter().filter(|l| l.0 == q) {
            let at = input.touches.len();
            let touched = touches.iter().map(|&(buffer, write)| Touch { buffer, write });
            input.touches.extend(touched);
            let touches = at..input.touches.len();
            input.launches.push(LaunchInput { queue: *lq, need: 0, touches });
            input.kernel_time.extend(kernel.map(SimDuration::from_nanos));
            input.profiled.extend([SimDuration::ZERO; 2]);
        }
        input.queues[q].launches = first..input.launches.len();
    }
    let plan = plan_of(&input);
    assert!(plan.costs.is_empty());
    assert_eq!(plan.device, [0, 1, 1]);
    // The in-order queue's launch first; then queue 0's and queue 2's, each
    // in program order, whatever their moves and kernel times.
    assert_eq!(issue_order(&input).collect::<Vec<_>>(), [2, 0, 1, 3, 4, 5]);
    assert_eq!(plan.predicted, replayed_end(&input, &plan));
}

/// `input` with the paper node's specs on its columns (cycled past three),
/// which a split candidate's pricing reads.
fn with_split_facts(mut input: PassInput) -> PassInput {
    let node = NodeConfig::paper_node();
    let n = input.devices.len();
    input.specs = (0..n).map(|d| node.devices[d % 3].clone()).collect();
    input
}

/// A compute-bound single-precision spec.
fn compute(flops_per_item: f64) -> KernelCostSpec {
    KernelCostSpec { flops_per_item, bytes_per_item: 8.0, traits: KernelTraits::IDEAL }
}

/// Append a splittable 1-D launch of `units` workgroups of 64 items to a
/// new in-order queue bound to column `home`: it reads buffer slot `read`
/// and writes `write`, and its analytic and profiled times are the cost
/// model's on each column.
fn push_split(
    input: &mut PassInput,
    cost: KernelCostSpec,
    units: u64,
    home: usize,
    rw: [usize; 2],
) {
    let n = input.devices.len();
    let (l, q) = (input.launches.len(), input.queues.len());
    let at = input.touches.len();
    input.touches.push(Touch { buffer: rw[0], write: false });
    input.touches.push(Touch { buffer: rw[1], write: true });
    input.launches.push(LaunchInput { queue: q, need: 64, touches: at..at + 2 });
    let (global, local) = ([units * 64, 1, 1], [64, 1, 1]);
    for d in 0..n {
        let shape = hwsim::NdRangeShape::new(units * 64, 64);
        let time = cost.kernel_time(&input.specs[d], shape);
        input.kernel_time.push(time);
        input.profiled.push(time);
        input.split_local.push(local);
    }
    input.splits.push(SplitInput { launch: l, units, cost, global, local, axis: 0 });
    let exec = input.kernel_time[l * n..].iter().copied().collect();
    input.queues.push(QueueInput { exec, launches: l..l + 1, ..queue(home, 64) });
}

/// The same plan with every launch whole.
fn whole(plan: &Plan) -> Plan {
    Plan { splits: vec![0..0; plan.splits.len()], chunks: Vec::new(), ..plan.clone() }
}

/// Each split's `(device, units)` chunks.
fn shares(plan: &Plan, l: usize) -> Vec<(usize, u64)> {
    plan.chunks[plan.splits[l].clone()].iter().map(|c| (c.device, c.wg_count)).collect()
}

#[test]
fn a_split_is_kept_only_when_its_epoch_ends_sooner() {
    let mut snap = with_split_facts(input(ContextSchedPolicy::RoundRobin, 3));
    let small = push_buffer(&mut snap, 4 << 10, &[0, 1, 2], None);
    let out = push_buffer(&mut snap, 4 << 10, &[0, 1, 2], None);
    // 1 024 workgroups of heavy arithmetic on an idle node: every device
    // helps, and the split ends well before the launch run whole.
    push_split(&mut snap, compute(20_000.0), 1024, 1, [small, out]);
    let plan = plan_of(&snap);
    let split = shares(&plan, 0);
    assert_eq!(split.len(), 3, "{split:?}");
    assert_eq!(split.iter().map(|s| s.1).sum::<u64>(), 1024);
    let (kept, alone) = (replayed_end(&snap, &plan), replayed_end(&snap, &whole(&plan)));
    assert!(kept.as_nanos() * 2 < alone.as_nanos(), "{kept} vs {alone}");
    // A lost device gets no share.
    snap.lost[0] = true;
    let plan = plan_of(&snap);
    assert!(shares(&plan, 0).iter().all(|s| s.0 != 0), "{:?}", shares(&plan, 0));
    // Gathering a 2 GiB output over the host link costs more than the
    // split saves: the launch runs whole.
    snap.lost[0] = false;
    snap.bytes[out] = 2 << 30;
    let plan = plan_of(&snap);
    assert!(plan.chunks.is_empty(), "{:?}", plan.chunks);
    // A narrow double-precision launch, 8 workgroups of 2^17 items: the
    // CPU engages one of its 16 units per workgroup, so half the launch
    // costs it as much as all of it and it takes no share; a GPU runs its
    // few workgroups on one unit, so each GPU's half takes half the time.
    let mut narrow = with_split_facts(input(ContextSchedPolicy::RoundRobin, 3));
    let a = push_buffer(&mut narrow, 8, &[0, 1, 2], None);
    let b = push_buffer(&mut narrow, 8, &[0, 1, 2], None);
    let dp = KernelCostSpec {
        traits: KernelTraits { double_precision: true, ..KernelTraits::IDEAL },
        ..compute(10_000.0)
    };
    push_split(&mut narrow, dp, 8, 0, [a, b]);
    let shape = hwsim::NdRangeShape::new(1 << 20, 1 << 17);
    for d in 0..3 {
        narrow.kernel_time[d] = dp.kernel_time(&narrow.specs[d], shape);
        narrow.profiled[d] = narrow.kernel_time[d];
    }
    (narrow.splits[0].global, narrow.splits[0].local) = ([1 << 20, 1, 1], [1 << 17, 1, 1]);
    narrow.split_local.fill([1 << 17, 1, 1]);
    let plan = plan_of(&narrow);
    assert_eq!(shares(&plan, 0), [(1, 4), (2, 4)]);
    let best = *narrow.kernel_time[..3].iter().min().expect("three columns");
    assert!(replayed_end(&narrow, &plan) < best, "{:?} vs {best}", replayed_end(&narrow, &plan));
}

#[test]
fn a_row_predicted_degraded_is_priced_as_one_made_healthy() {
    // Column 1 runs 8× slow now. One row was made healthy; the other was
    // predicted from stamps that ran while column 1 was already 8× slow,
    // which it records.
    let mut healthy = with_split_facts(input(ContextSchedPolicy::RoundRobin, 3));
    let a = push_buffer(&mut healthy, 4 << 10, &[0, 1, 2], None);
    let b = push_buffer(&mut healthy, 4 << 10, &[0, 1, 2], None);
    push_split(&mut healthy, compute(20_000.0), 1024, 2, [a, b]);
    healthy.degradation[1] = 8.0;
    let mut degraded = healthy.clone();
    degraded.profiled[1] = healthy.profiled[1] * 8;
    degraded.profiled_under = vec![(1, 8.0)];
    let (h, d) = (plan_of(&healthy), plan_of(&degraded));
    assert_eq!(shares(&d, 0), shares(&h, 0));
    // Column 1 still takes a share, smaller than column 2's twin.
    let split = shares(&h, 0);
    let share = |d: usize| split.iter().find(|s| s.0 == d).map_or(0, |s| s.1);
    assert!(0 < share(1) && share(1) < share(2), "{split:?}");
    // Counting the slowdown twice would have shrunk it further.
    degraded.profiled_under.clear();
    assert!(shares(&plan_of(&degraded), 0) != split);
}

/// One launch: its `(buffer slot, write)` accesses, and its analytic and
/// profiled kernel times per column.
type TimedLaunch<'a> = (&'a [(usize, bool)], &'a [u64], &'a [u64]);

/// Append queue `q`'s launches, with no split units.
fn push_launches(input: &mut PassInput, q: usize, launches: &[TimedLaunch]) {
    for (touches, kernel, profiled) in launches {
        let at = input.touches.len();
        input.touches.extend(touches.iter().map(|&(buffer, write)| Touch { buffer, write }));
        let touches = at..input.touches.len();
        input.launches.push(LaunchInput { queue: q, need: 0, touches });
        input.kernel_time.extend_from_slice(&ns(kernel));
        input.profiled.extend_from_slice(&ns(profiled));
    }
}

/// Healthy and alone, an in-order queue's launches each wait for the one
/// before, stage their first-touch buffers and run: its row adds its
/// distinct buffers' moves to its execution row, an upload of a valid host
/// copy or a download from the column holding one and an upload.
#[test]
fn an_in_order_row_adds_the_transfers_of_the_queues_distinct_buffers() {
    let mut input = input(ContextSchedPolicy::AutoFit, 3);
    // `a` (600 bytes, 100 ns a leg) is valid on column 1 and the host; `b`
    // (1 200 bytes, 200 ns) on column 0 alone, `c` (300 bytes, 50 ns) on
    // column 2 alone.
    let a = push_buffer(&mut input, 600, &[1], None);
    let b = push_buffer(&mut input, 1200, &[0], Some(0));
    let c = push_buffer(&mut input, 300, &[2], Some(2));
    // Three distinct buffers over three launches, two of them bound twice;
    // only the first is timed.
    let zero: &[u64] = &[0, 0, 0];
    let launches = [
        (&[(a, false), (b, true)][..], zero, &[1, 2, 3][..]),
        (&[(b, false), (c, true)][..], zero, zero),
        (&[(a, false)][..], zero, zero),
    ];
    // A profiled row, and one whose copies are free (an explicit region's,
    // or the static model's).
    for (q, copies) in [true, false].into_iter().enumerate() {
        let first = input.launches.len();
        push_launches(&mut input, q, &launches);
        let launches = first..input.launches.len();
        let exec = ns(&[1, 2, 3]);
        input.queues.push(QueueInput { exec, copies, launches, ..queue(0, 0) });
    }
    let plan = plan_of(&input);
    // Column 0: `a` up, `c` down and up; column 1: `b` and `c` down and up;
    // column 2: `a` up, `b` down and up.
    assert_eq!(plan.costs[0], row(&[1, 2, 3], &[100 + 50 + 50, 400 + 100, 100 + 400]));
    assert_eq!(plan.costs[1], row(&[1, 2, 3], &[0, 0, 0]));
    // The unpriced row is the execution row itself, not a copy of it.
    assert!(Arc::ptr_eq(&plan.costs[1].total, &input.queues[1].exec));
}

/// When queue `q`'s launches, replayed alone on column `d` in program
/// order from idle lanes, end: [`naive_whole_end`] of a snapshot that holds
/// that queue alone.
fn alone(input: &PassInput, q: usize, d: usize) -> SimDuration {
    let n = input.devices.len();
    let launches = input.queues[q].launches.clone();
    let cells = launches.start * n..launches.end * n;
    let one = PassInput {
        lanes: vec![Lanes::default(); n],
        queues: vec![QueueInput {
            launches: 0..launches.len(),
            tail: 0,
            ..input.queues[q].clone()
        }],
        launches: input.launches[launches.clone()]
            .iter()
            .map(|l| LaunchInput { queue: 0, ..l.clone() })
            .collect(),
        kernel_time: input.kernel_time[cells.clone()].to_vec(),
        profiled: input.profiled[cells.clone()].to_vec(),
        profiled_under: (input.profiled_under.iter())
            .filter(|u| cells.contains(&u.0))
            .map(|&(c, under)| (c - cells.start, under))
            .collect(),
        splits: Vec::new(),
        split_local: Vec::new(),
        ..input.clone()
    };
    let plan = Plan { device: vec![d], splits: vec![0..0; launches.len()], ..Plan::default() };
    naive_whole_end(&one, &plan)
}

#[test]
fn a_row_is_the_replay_of_the_queues_launches_alone_on_each_column() {
    let mut input = input(ContextSchedPolicy::AutoFit, 2);
    // `a` (2 400 bytes, 400 ns a leg) is valid on column 1 and the host,
    // `b` (180 bytes, 30 ns) on column 0 alone, `c` (360 bytes, 60 ns) on
    // the host alone.
    let a = push_buffer(&mut input, 2400, &[1], None);
    let b = push_buffer(&mut input, 180, &[0], Some(0));
    let c = push_buffer(&mut input, 360, &[], None);
    // The replay runs the profiled kernel times, not the analytic ones.
    let analytic: &[u64] = &[7, 7];
    let launches = [
        (&[(a, false), (b, true)][..], analytic, &[100, 300][..]),
        (&[(c, false)][..], analytic, &[50, 20][..]),
        (&[(b, false)][..], analytic, &[10, 80][..]),
    ];
    // (out of order, copies priced)
    let queues = [(true, true), (false, true), (true, false)];
    for (q, (out_of_order, copies)) in queues.into_iter().enumerate() {
        let first = input.launches.len();
        push_launches(&mut input, q, &launches);
        input.queues.push(QueueInput {
            out_of_order,
            copies,
            exec: ns(&[9, 9]),
            launches: first..input.launches.len(),
            ..queue(0, 0)
        });
    }
    let plan = plan_of(&input);
    for q in 0..2 {
        let replayed: Arc<[SimDuration]> = (0..2).map(|d| alone(&input, q, d)).collect();
        assert_eq!(plan.costs[q].total, replayed, "queue {q}");
    }
    // By hand, on column 0: the first launch uploads `a` (400) and runs
    // 100, to 500. Out of order, the second uploads `c` behind it (to 460)
    // and runs 50 after the first; the third reads `b`, which the first
    // wrote there, and runs 10 — 560. In order, `c` waits for the first
    // launch: 500 + 60 + 50 + 10 = 620. On column 1, `b` goes down column
    // 0's copy lane and up column 1's (to 60), the first kernel runs to 360,
    // and `c` moves under it (to 120): 360 + 20 + 80 = 460 out of order,
    // 360 + 60 + 20 + 80 = 520 in order.
    assert_eq!(plan.costs[0], CostRow { exec: ns(&[9, 9]), total: ns(&[560, 460]) });
    assert_eq!(plan.costs[1], CostRow { exec: ns(&[9, 9]), total: ns(&[620, 520]) });
    // A queue whose copies are free keeps its `exec`.
    assert_eq!(plan.costs[2], row(&[9, 9], &[0, 0]));
}

/// Column 1 runs 8× slow now, and is where a queue's profiled row is
/// fastest when healthy: in order or out of order, its row is the replay,
/// which stretches its kernels by the live degradation, so the queue maps
/// away from column 1.
#[test]
fn an_in_order_queue_maps_away_from_a_degraded_column_like_its_out_of_order_twin() {
    for out_of_order in [false, true] {
        let mut input = input(ContextSchedPolicy::AutoFit, 2);
        input.degradation[1] = 8.0;
        let a = push_buffer(&mut input, 60, &[], None);
        let b = push_buffer(&mut input, 60, &[], None);
        let launches = [
            (&[(a, false), (b, true)][..], &[100, 100][..], &[300, 100][..]),
            (&[(b, false)][..], &[100, 100][..], &[300, 100][..]),
        ];
        push_launches(&mut input, 0, &launches);
        let exec = ns(&[600, 200]);
        input.queues.push(QueueInput { out_of_order, exec, launches: 0..2, ..queue(1, 0) });
        let plan = plan_of(&input);
        // Column 0: 20 ns of staging and 600 of kernels; column 1: the same
        // staging and 200 ns of kernels, 8× slow.
        let want = CostRow { exec: ns(&[600, 200]), total: ns(&[620, 1620]) };
        assert_eq!(plan.costs, [want], "out of order: {out_of_order}");
        assert_eq!(plan.device, [0], "out of order: {out_of_order}");
    }
}

/// Append an out-of-order queue with a profiled row on column 0 of one
/// launch per entry of `launches`: `(upload, analytic, profiled)` ns, each
/// reading a buffer of its own on the host that takes `upload` to stage.
fn push_batch(input: &mut PassInput, launches: &[(u64, u64, u64)]) {
    let q = input.queues.len();
    let first = input.launches.len();
    for &(upload, analytic, profiled) in launches {
        let slot = push_buffer(input, upload * 6, &[], None);
        push_launches(input, q, &[(&[(slot, false)], &[analytic], &[profiled])]);
    }
    let launches = first..input.launches.len();
    let q = QueueInput { out_of_order: true, exec: ns(&[1]), launches, ..queue(0, 0) };
    input.queues.push(q);
}

#[test]
fn on_a_degraded_column_a_launch_is_priced_by_its_profile_row() {
    // The column runs 2× slow. Launch 0's profile row is 20 (40 now) under
    // a 50 copy, launch 1's is 100 (200 now) under a 30 copy; their
    // analytic times (100 and 10) say the opposite. In program order the
    // copies end at 50 and 80, the kernels at 90 and 290; priced by the
    // analytic times they would end at 250 and 270.
    let mut input = input(ContextSchedPolicy::RoundRobin, 1);
    input.degradation[0] = 2.0;
    push_batch(&mut input, &[(50, 100, 20), (30, 10, 100)]);
    assert_eq!(plan_of(&input).predicted, SimDuration::from_nanos(290));
    // A row predicted while the column already ran 2× slow is priced as
    // the healthy one: the same end, where taking it as healthy would end
    // at 530.
    input.profiled = ns(&[40, 200]).to_vec();
    input.profiled_under = vec![(0, 2.0), (1, 2.0)];
    assert_eq!(plan_of(&input).predicted, SimDuration::from_nanos(290));
}

/// Each queue's cost row by the pricing rule, recomputed naively: where
/// its copies are priced, the naive replay of the queue alone on idle
/// devices, in order or out of order alike; else its `exec`. ROUND_ROBIN
/// prices none.
fn naive_costs(input: &PassInput) -> Vec<CostRow> {
    if input.policy == ContextSchedPolicy::RoundRobin {
        return Vec::new();
    }
    let n = input.devices.len();
    let costs = input.queues.iter().enumerate().map(|(qi, q)| CostRow {
        exec: Arc::clone(&q.exec),
        total: match q.copies {
            true => (0..n).map(|d| alone(input, qi, d)).collect(),
            false => Arc::clone(&q.exec),
        },
    });
    costs.collect()
}

/// What the additive row was, `exec` plus the moves of the queue's
/// distinct buffers, on column `d`: a healthy in-order queue's row alone.
/// A buffer not valid on `d` crosses `d`'s host link, and first its
/// source column's when the snapshot names one.
fn additive(input: &PassInput, q: &QueueInput, d: usize) -> SimDuration {
    let n = input.devices.len();
    let touches = |l: usize| &input.touches[input.launches[l].touches.clone()];
    let mut distinct: Vec<usize> = q.launches.clone().flat_map(touches).map(|t| t.buffer).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let leg = |c: usize, b: usize| input.links[c].predict_time(input.bytes[b]);
    let moved = distinct.iter().filter(|&&b| !input.valid[b * n + d]);
    q.exec[d]
        + moved.map(|&b| leg(d, b) + input.source[b].map_or(SimDuration::ZERO, |o| leg(o, b))).sum()
}

/// A random snapshot: 1–4 devices, 1–6 queues of 1–4 launches, random
/// health, capacity, degradation, lanes busy at the flush, host links, the
/// sources of execution rows, queue tails, buffer accesses, sizes and
/// residency, kernel times, profile rows (some missing or measured
/// degraded) and split units and shapes. A queue's execution row sums its launches' whole
/// times as a healthy device runs them: each cell's profile row, else its
/// analytic time.
fn random_input(rng: &mut XorShift) -> PassInput {
    let n = 1 + rng.index(4);
    let policy = match rng.index(2) {
        0 => ContextSchedPolicy::RoundRobin,
        _ => ContextSchedPolicy::AutoFit,
    };
    let mut input = with_split_facts(input(policy, n));
    input.mapper = if rng.index(4) == 0 { MapperKind::Greedy } else { MapperKind::Adaptive };
    // One node in three is healthy: nothing lost, degraded or predicted so.
    let sick = rng.index(3) != 0;
    for di in 0..n {
        input.lost[di] = sick && rng.index(4) == 0;
        input.capacity[di] = if rng.index(3) == 0 { 1 << 10 } else { 1 << 20 };
        input.degradation[di] =
            if sick && rng.index(3) == 0 { rng.range_f64(1.0, 3.0) } else { 1.0 };
        if rng.index(2) == 0 {
            input.lanes[di] =
                Lanes { copy: rng.range_u64(0, 3000), compute: rng.range_u64(0, 3000) };
        }
        let gbs = rng.range_f64(4.0, 16.0);
        Arc::make_mut(&mut input.links)[di] = BandwidthCurve::new(vec![1, 1 << 40], vec![gbs, gbs]);
    }
    let max_capacity = *input.capacity.iter().max().expect("a device");
    input.rr_next = rng.index(10);
    // Each buffer valid on some columns; the copy for another comes from
    // the host's if valid, else from the first live column holding one, as
    // the runtime picks it.
    let slots = 1 + rng.index(6);
    for _ in 0..slots {
        let on: Vec<usize> = (0..n).filter(|_| rng.index(3) == 0).collect();
        let host = on.is_empty() || rng.index(2) == 0;
        let live = on.iter().copied().find(|&d| !input.lost[d]);
        push_buffer(&mut input, rng.range_u64(8, 16 << 10), &on, live.filter(|_| !host));
    }
    for qi in 0..1 + rng.index(6) {
        let out_of_order = rng.index(2) == 0;
        let first = input.launches.len();
        let mut need = 0;
        for _ in 0..1 + rng.index(4) {
            let launch_need = rng.range_u64(0, max_capacity);
            need = need.max(launch_need);
            let at = input.touches.len();
            for slot in 0..slots {
                if rng.index(3) == 0 {
                    input.touches.push(Touch { buffer: slot, write: rng.index(2) == 0 });
                }
            }
            // A split candidate has two or more units and eligible devices.
            let units = if rng.index(2) == 0 { rng.range_u64(1, 512) } else { 0 };
            let eligible = (0..n).filter(|&d| plan::eligible(&input, d, launch_need)).count();
            let units = if units >= 2 && eligible >= 2 { units } else { 0 };
            let l = input.launches.len();
            let touches = at..input.touches.len();
            input.launches.push(LaunchInput { queue: qi, need: launch_need, touches });
            // Every launch timed: the cost model's time, and a profile row
            // off it by up to 2× that may be missing or measured degraded.
            let cost = compute(rng.range_f64(10.0, 20_000.0));
            let items = units.max(1) * 64;
            for d in 0..n {
                let kernel = cost.kernel_time(&input.specs[d], hwsim::NdRangeShape::new(items, 64));
                input.kernel_time.push(kernel);
                let profiled = match rng.index(3) {
                    0 => SimDuration::ZERO,
                    _ => kernel * rng.range_f64(0.5, 2.0),
                };
                input.profiled.push(profiled);
                if sick && profiled > SimDuration::ZERO && rng.index(4) == 0 {
                    input.profiled_under.push((l * n + d, rng.range_f64(1.0, 8.0)));
                }
                let local = if rng.index(4) == 0 { 32 } else { 64 };
                if units > 0 {
                    input.split_local.push([local, 1, 1]);
                }
            }
            if units > 0 {
                let (global, local) = ([items, 1, 1], [64, 1, 1]);
                input.splits.push(SplitInput { launch: l, units, cost, global, local, axis: 0 });
            }
        }
        let cell = |c: usize| match input.profiled[c] {
            SimDuration::ZERO => input.kernel_time[c],
            p => p,
        };
        let sum = |d: usize| (first..input.launches.len()).map(|l| cell(l * n + d)).sum();
        let exec = (0..n).map(sum).collect();
        input.queues.push(QueueInput {
            out_of_order,
            need,
            current: Some(rng.index(n + 1)).filter(|&di| di < n),
            bound: rng.index(2) == 0,
            exec,
            // A profiled row (one draw in two) outside an explicit region
            // (three in four); both draws are always taken.
            copies: (rng.index(2) == 1) & (rng.index(4) != 0),
            tail: if out_of_order || rng.index(2) == 0 { 0 } else { rng.range_u64(0, 3000) },
            launches: first..input.launches.len(),
        });
    }
    input
}

#[test]
fn random_snapshots_give_bindable_exact_and_ordered_plans() {
    let mut rng = XorShift::new(0x0037_dec1de);
    let mut reused = PlanScratch::default();
    let mut reused_plan = Plan::default();
    let (mut splits, mut mixed, mut additive_checked) = (0, 0, 0);
    for case in 0..3_000 {
        let input = random_input(&mut rng);
        let plan = plan_of(&input);
        // Equal inputs give equal plans, whatever the scratch last held.
        decide(&input.clone(), &mut reused, &mut reused_plan);
        assert_eq!(reused_plan, plan, "case {case}: {input:?}");
        // Every priced row is the rule's, recomputed naively, and the
        // prediction is the replay of the plan.
        assert_eq!(plan.costs, naive_costs(&input), "case {case}: {input:?}");
        // On a healthy node with no row predicted degraded, an in-order
        // queue's row is the additive one on every column it may bind.
        let healthy = input.lost.iter().all(|&l| !l) && input.degradation.iter().all(|&f| f == 1.0);
        if healthy && input.profiled_under.is_empty() {
            let priced = input.queues.iter().zip(&plan.costs);
            for (q, cost) in priced.filter(|(q, _)| q.copies && !q.out_of_order) {
                for d in (0..input.devices.len()).filter(|&d| plan::bindable(&input, q.need)(d)) {
                    assert_eq!(cost.total[d], additive(&input, q, d), "case {case}: {input:?}");
                    additive_checked += 1;
                }
            }
        }
        assert_eq!(plan.predicted, replayed_end(&input, &plan), "case {case}: {input:?}");
        // The host's enqueues delay the prediction and decide nothing else.
        let hosted = PassInput { enqueue: 1 + case * 37 % 1000, ..input.clone() };
        let with_host = plan_of(&hosted);
        assert_eq!(with_host.predicted, replayed_end(&hosted, &with_host), "case {case}");
        assert!(with_host.predicted >= plan.predicted, "case {case}: {input:?}");
        assert_eq!(Plan { predicted: plan.predicted, ..with_host }, plan, "case {case}");
        let n = input.devices.len();
        // Every planned device is bindable.
        for (q, &di) in input.queues.iter().zip(&plan.device) {
            assert!(plan::bindable(&input, q.need)(di), "case {case}: column {di} for {q:?}");
        }
        // Shares are non-zero, on eligible devices, and sum to the units.
        assert_eq!(plan.splits.len(), input.launches.len());
        for (l, (launch, range)) in input.launches.iter().zip(&plan.splits).enumerate() {
            let chunks = &plan.chunks[range.clone()];
            if chunks.is_empty() {
                continue;
            }
            let k = input.splits.iter().position(|s| s.launch == l).expect("a candidate");
            splits += 1;
            assert!(chunks.len() >= 2, "case {case}");
            assert!(chunks.iter().all(|c| c.wg_count > 0 && c.device < n), "case {case}");
            assert!(chunks.iter().all(|c| plan::eligible(&input, c.device, launch.need)));
            assert_eq!(chunks.iter().map(|c| c.wg_count).sum::<u64>(), input.splits[k].units);
        }
        // A kept split never ends the replayed epoch later than running
        // every launch whole. The issue order is every in-order queue's
        // launches, then every out-of-order queue's, queue by queue in pool
        // order and each queue's in program order; with every launch whole,
        // its replay is the naive per-lane recomputation of that order.
        let all_whole = whole(&plan);
        let whole_end = replayed_end(&input, &all_whole);
        assert!(replayed_end(&input, &plan) <= whole_end, "case {case}: {input:?}");
        let kind = |ooo: bool| input.queues.iter().filter(move |q| q.out_of_order == ooo);
        let want: Vec<usize> =
            kind(false).chain(kind(true)).flat_map(|q| q.launches.clone()).collect();
        assert_eq!(issue_order(&input).collect::<Vec<_>>(), want, "case {case}");
        assert_eq!(whole_end, naive_whole_end(&input, &all_whole), "case {case}: {input:?}");
        mixed += usize::from(kind(false).next().is_some() && kind(true).next().is_some());
    }
    // The property says something only if the cases split and mix both
    // queue kinds, where the issue order interleaves pool order, and reach
    // the additive identity.
    assert!(splits > 500 && mixed > 1500, "{splits} splits, {mixed} mixed cases");
    assert!(additive_checked > 400, "{additive_checked} additive cells");
}

/// The fields of a [`PassInput`], in declaration order: what [`perturb`]
/// changes one at a time.
const FIELDS: [&str; 22] = [
    "policy",
    "mapper",
    "devices",
    "lost",
    "capacity",
    "degradation",
    "lanes",
    "enqueue",
    "rr_next",
    "queues",
    "launches",
    "touches",
    "kernel_time",
    "profiled",
    "profiled_under",
    "valid",
    "source",
    "bytes",
    "splits",
    "split_local",
    "specs",
    "links",
];

/// `input` with field `FIELDS[field]` changed and still a snapshot decide
/// can take, or `None` where that field has nothing to change (no split
/// candidate, no buffer access).
fn perturb(input: &PassInput, field: usize) -> Option<PassInput> {
    let mut out = input.clone();
    match FIELDS[field] {
        "policy" => {
            out.policy = match input.policy {
                ContextSchedPolicy::RoundRobin => ContextSchedPolicy::AutoFit,
                ContextSchedPolicy::AutoFit => ContextSchedPolicy::RoundRobin,
            }
        }
        "mapper" => {
            out.mapper = match input.mapper {
                MapperKind::Greedy => MapperKind::Adaptive,
                MapperKind::Adaptive => MapperKind::Greedy,
            }
        }
        "devices" => out.devices[0] = DeviceId(99),
        "lost" => out.lost[0] = !out.lost[0],
        "capacity" => out.capacity[0] ^= 1 << 15,
        "degradation" => out.degradation[0] += 0.5,
        "lanes" => out.lanes[0].copy += 1,
        "enqueue" => out.enqueue += 1,
        "rr_next" => out.rr_next += 1,
        "queues" => out.queues[0].bound = !out.queues[0].bound,
        "launches" => out.launches[0].need ^= 1,
        "touches" => out.touches.first_mut()?.write ^= true,
        "kernel_time" => out.kernel_time[0] += SimDuration::from_nanos(1),
        "profiled" => out.profiled[0] += SimDuration::from_nanos(1),
        "profiled_under" => match out.profiled_under.first_mut() {
            Some(under) => under.1 += 0.5,
            None => out.profiled_under.push((0, 2.0)),
        },
        "valid" => out.valid[0] = !out.valid[0],
        "source" => out.source[0] = if input.source[0].is_some() { None } else { Some(0) },
        "bytes" => out.bytes[0] += 8,
        "splits" => out.splits.first_mut()?.cost.flops_per_item *= 2.0,
        "split_local" => out.split_local.first_mut()?[0] ^= 96,
        "specs" => Arc::make_mut(&mut out.specs)[0].name.push('\''),
        "links" => {
            Arc::make_mut(&mut out.links)[0] = BandwidthCurve::new(vec![1, 1 << 40], vec![3.0, 3.0])
        }
        other => unreachable!("{other}"),
    }
    assert_ne!(out, *input, "{} did not change", FIELDS[field]);
    Some(out)
}

/// One pass's use of the memo, as the scheduler makes it: decide or reuse
/// from a snapshot of its own, then [`remember`] at the end of the pass,
/// which swaps a missed snapshot into the memo.
fn pass(input: &PassInput, memo: &mut Memo, scratch: &mut PlanScratch, plan: &mut Plan) -> bool {
    let mut snapshot = input.clone();
    let reused = decide_or_reuse(&snapshot, memo, scratch, plan);
    remember(memo, &mut snapshot);
    reused
}

#[test]
fn a_reused_plan_is_a_fresh_decision_and_any_changed_field_misses() {
    let mut rng = XorShift::new(0x6de3_0a11);
    let (mut memo, mut scratch, mut plan) =
        (Memo::default(), PlanScratch::default(), Plan::default());
    let mut missed = [0; FIELDS.len()];
    for case in 0..1_500 {
        let input = random_input(&mut rng);
        let fresh = plan_of(&input);
        // First sight decides; an equal snapshot takes the same plan back.
        assert!(!pass(&input, &mut memo, &mut scratch, &mut plan), "case {case}");
        assert_eq!(plan, fresh, "case {case}: {input:?}");
        assert!(pass(&input, &mut memo, &mut scratch, &mut plan), "case {case}");
        assert_eq!(plan, fresh, "case {case}: {input:?}");
        // One field changed misses and is decided afresh.
        let field = case % FIELDS.len();
        let Some(changed) = perturb(&input, field) else { continue };
        let reused = pass(&changed, &mut memo, &mut scratch, &mut plan);
        assert!(!reused, "case {case}: a changed `{}` was reused", FIELDS[field]);
        assert_eq!(plan, plan_of(&changed), "case {case}: {}", FIELDS[field]);
        missed[field] += 1;
        // Both are kept: the first one is still a hit.
        assert!(pass(&input, &mut memo, &mut scratch, &mut plan), "case {case}");
        assert_eq!(plan, fresh, "case {case}: {input:?}");
    }
    for (field, misses) in FIELDS.iter().zip(missed) {
        assert!(misses > 20, "`{field}` was changed in only {misses} case(s)");
    }
}

#[test]
fn the_memo_keeps_the_two_snapshots_used_last() {
    let mut rng = XorShift::new(7);
    let [a, b, c] = [(); 3].map(|_| random_input(&mut rng));
    let (mut memo, mut scratch, mut plan) =
        (Memo::default(), PlanScratch::default(), Plan::default());
    let mut reuse = |input: &PassInput| pass(input, &mut memo, &mut scratch, &mut plan);
    assert_eq!([&a, &b, &a, &b].map(&mut reuse), [false, false, true, true]);
    // `c` takes the place of `a`, used less recently than `b`.
    assert_eq!([&c, &b, &a].map(&mut reuse), [false, true, false]);
    // `a` took the place of `c`: `b` was used since.
    assert_eq!([&b, &a, &c].map(&mut reuse), [true, true, false]);
}

/// A missed snapshot is kept only once [`remember`] moves it in: an entry
/// that never held one takes a copy, and one that did takes the snapshot
/// itself by a swap, handing the pass its former lists and the pass's own
/// `specs` and `links`. After a hit nothing moves.
#[test]
fn remember_moves_a_missed_snapshot_in_and_hands_back_the_shared_fields() {
    let mut rng = XorShift::new(11);
    let [a, b, c] = [(); 3].map(|_| random_input(&mut rng));
    let (mut memo, mut scratch, mut plan) =
        (Memo::default(), PlanScratch::default(), Plan::default());
    let mut snapshot = a.clone();
    assert!(!decide_or_reuse(&snapshot, &mut memo, &mut scratch, &mut plan));
    // Not yet remembered: an equal snapshot misses again.
    assert!(!decide_or_reuse(&snapshot, &mut memo, &mut scratch, &mut plan));
    remember(&mut memo, &mut snapshot);
    assert_eq!(snapshot, a, "a fresh entry takes a copy");
    assert!(!pass(&b, &mut memo, &mut scratch, &mut plan));
    // `c` evicts `a`'s entry, which hands back `a`'s lists.
    let mut snapshot = c.clone();
    assert!(!decide_or_reuse(&snapshot, &mut memo, &mut scratch, &mut plan));
    remember(&mut memo, &mut snapshot);
    assert_eq!((&snapshot.queues, &snapshot.launches), (&a.queues, &a.launches));
    assert!(Arc::ptr_eq(&snapshot.specs, &c.specs));
    assert!(Arc::ptr_eq(&snapshot.links, &c.links));
    assert_eq!([&c, &b, &c].map(|i| pass(i, &mut memo, &mut scratch, &mut plan)), [true; 3]);
    let mut again = c.clone();
    assert!(decide_or_reuse(&again, &mut memo, &mut scratch, &mut plan));
    assert_eq!(plan, plan_of(&c));
    remember(&mut memo, &mut again);
    assert_eq!(again, c, "a hit keeps its snapshot");
}

/// When an epoch with every launch whole ends, by lanes recomputed naively
/// in issue order — the in-order queues, then the out-of-order ones, each
/// in pool order: per column a compute lane and a copy lane, each busy as
/// the flush finds it, per in-order queue a chain from its tail, and per
/// buffer whether the host copy is current (else the column to download
/// from, the snapshot's source or its last writer's) and which columns hold
/// it, and when its last writer and its last access end — a launch starts
/// after its queue's chain, if in order, and after those of the buffers it
/// touches, whichever queue issued them (RAW, and WAR / WAW for a write). A
/// buffer a launch lacks is staged through the host: a download on the
/// holder's copy lane if the host copy is stale, then an upload on the
/// launch's.
fn naive_whole_end(input: &PassInput, plan: &Plan) -> SimDuration {
    let n = input.devices.len();
    let ns = |t: SimDuration| t.as_nanos();
    let link = |d: usize, b: usize| ns(input.links[d].predict_time(input.bytes[b]));
    let mut compute: Vec<u64> = input.lanes.iter().map(|l| l.compute).collect();
    let mut copy: Vec<u64> = input.lanes.iter().map(|l| l.copy).collect();
    // Per buffer: the column holding the only current copy, until staged to
    // the host; the columns holding it.
    let mut stale_host: Vec<Option<usize>> = input.source.clone();
    let mut holders: Vec<Vec<usize>> = (0..input.bytes.len())
        .map(|b| (0..n).filter(|&d| input.valid[b * n + d]).collect())
        .collect();
    let (mut writer_end, mut access_end) = (vec![0; input.bytes.len()], vec![0; input.bytes.len()]);
    let mut end = 0;
    let queues = input.queues.iter().enumerate();
    let (in_order, out_of_order): (Vec<_>, Vec<_>) = queues.partition(|(_, q)| !q.out_of_order);
    for (q, queue) in in_order.into_iter().chain(out_of_order) {
        let d = plan.device[q];
        let mut chain = queue.tail;
        for l in queue.launches.clone() {
            let mut tail = chain;
            for t in &input.touches[input.launches[l].touches.clone()] {
                tail = tail.max(if t.write { access_end[t.buffer] } else { writer_end[t.buffer] });
            }
            for t in &input.touches[input.launches[l].touches.clone()] {
                let b = t.buffer;
                if holders[b].contains(&d) {
                    continue;
                }
                holders[b].push(d);
                let mut step = |lane: usize, dur: u64| {
                    copy[lane] = copy[lane].max(tail) + dur;
                    tail = copy[lane];
                };
                if let Some(o) = stale_host[b].take() {
                    step(o, link(o, b));
                }
                step(d, link(d, b));
                access_end[b] = access_end[b].max(tail);
                end = end.max(tail);
            }
            let c = l * n + d;
            let live = input.degradation[d].max(1.0);
            let time = match input.profiled[c] {
                SimDuration::ZERO => ns(input.kernel_time[c]) as f64 * live,
                p => {
                    let under = input.profiled_under.iter().find(|u| u.0 == c).map_or(1.0, |u| u.1);
                    ns(p) as f64 * live / under.max(1.0)
                }
            };
            compute[d] = compute[d].max(tail) + time.round() as u64;
            tail = compute[d];
            end = end.max(tail);
            for t in &input.touches[input.launches[l].touches.clone()] {
                access_end[t.buffer] = access_end[t.buffer].max(tail);
                if t.write {
                    (stale_host[t.buffer], holders[t.buffer]) = (Some(d), vec![d]);
                    writer_end[t.buffer] = tail;
                }
            }
            if !queue.out_of_order {
                chain = tail;
            }
        }
    }
    SimDuration::from_nanos(end)
}
