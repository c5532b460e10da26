//! `plan::decide` without a platform: hand-built snapshots checked against
//! the routines each part of the decision comes from — its pricing and its
//! split judgement included — and a seeded property test over random
//! snapshots.

use hwsim::microbench::BandwidthCurve;
use hwsim::xrand::XorShift;
use hwsim::{DeviceId, KernelCostSpec, KernelTraits, NodeConfig, SimDuration};
use multicl::mapper::{self, MapperScratch};
use multicl::ooo::{self, BatchCmd};
use multicl::plan::{
    self, decide, replayed_end, CostRow, ExecSource, Lanes, LaunchInput, PassInput, Plan,
    PlanScratch, QueueInput, SplitInput, Touch,
};
use multicl::{ContextSchedPolicy, MapperKind, DEFAULT_ADAPTIVE_NODE_BUDGET};
use std::sync::Arc;

fn ns(v: &[u64]) -> Arc<[SimDuration]> {
    v.iter().map(|&n| SimDuration::from_nanos(n)).collect()
}

fn row(exec: &[u64], migration: &[u64]) -> CostRow {
    CostRow { exec: ns(exec), migration: ns(migration), overlap: None }
}

/// A snapshot over `n` healthy, idle devices of 1 MiB on a flat 6 GB/s
/// host link, with nothing pending.
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

/// Append a 1 KiB buffer slot whose transfer to each column is `transfer`.
fn push_buffer(input: &mut PassInput, transfer: &[SimDuration]) -> usize {
    input.buffers.push(100 + input.buffers.len() as u64);
    input.bytes.push(1 << 10);
    input.transfer.extend_from_slice(transfer);
    input.buffers.len() - 1
}

/// Append a queue that prices to `cost` (which has no overlap row), with
/// one launch of its `need`: its execution row is `cost.exec`, which is the
/// launch's kernel time, and it reads one buffer of its own whose transfers
/// are `cost.migration`.
fn push_queue(input: &mut PassInput, q: QueueInput, cost: &CostRow) {
    let slot = push_buffer(input, &cost.migration);
    let (l, at) = (input.launches.len(), input.touches.len());
    input.touches.push(Touch { buffer: slot, write: false });
    let queue = input.queues.len();
    input.launches.push(LaunchInput { queue, need: q.need, touches: at..at + 1 });
    input.kernel_time.extend_from_slice(&cost.exec);
    input.profiled.extend(cost.exec.iter().map(|_| SimDuration::ZERO));
    let exec = Arc::clone(&cost.exec);
    input.queues.push(QueueInput { exec, launches: l..l + 1, ..q });
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
        source: ExecSource::Profiled,
        explicit_region: false,
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
    let rows = [
        (0, 64, row(&[900, 100, 300], &[0, 0, 50])),
        (2, 1 << 12, row(&[500, 50, 40], &[10, 10, 10])),
        (1, 64, row(&[200, 10, 210], &[0, 5, 0])),
        (0, 64, row(&[700, 10, 650], &[0, 0, 0])),
    ];
    for (current, need, cost) in rows.clone() {
        push_queue(&mut input, queue(current, need), &cost);
    }
    let plan = plan_of(&input);
    assert_eq!(plan.costs, rows.iter().map(|r| r.2.clone()).collect::<Vec<_>>());
    // The code the decision replaces: blacklist, warm start, mapper.
    let costs: mapper::CostMatrix = rows
        .iter()
        .map(|(_, need, cost)| {
            let bindable = plan::bindable(&input, *need);
            (0..3)
                .map(|di| match bindable(di) {
                    true => cost.exec[di] + cost.migration[di],
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
    let cost = || row(&[10, 20, 30], &[1, 2, 3]);
    // Bound and bindable: kept.
    push_queue(&mut input, queue(1, 64), &cost());
    // Bound to the lost device: rotates. 7 % 3 = 1 is bindable.
    push_queue(&mut input, queue(2, 64), &cost());
    // Never bound: rotates. 8 % 3 = 2 is lost, 9 % 3 = 0 is too small,
    // 10 % 3 = 1 takes it.
    let fresh = QueueInput { bound: false, ..queue(0, 1 << 12) };
    push_queue(&mut input, fresh, &cost());
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

#[test]
fn the_prediction_replays_the_plan_from_the_devices_and_queues_at_the_flush() {
    for policy in [ContextSchedPolicy::RoundRobin, ContextSchedPolicy::AutoFit] {
        // One column, idle: an in-order queue's launch stages its buffer
        // (30 ns) and runs (100 ns).
        let mut input = input(policy, 1);
        push_queue(&mut input, queue(0, 0), &row(&[100], &[30]));
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

#[test]
fn the_out_of_order_order_is_johnson_over_the_planned_devices_first_touches() {
    let mut input = input(ContextSchedPolicy::RoundRobin, 2);
    input.buffers = vec![10, 11, 12, 13];
    input.bytes = vec![1 << 10; 4];
    // Per buffer slot × device: what first touching it there costs.
    input.transfer = [[0, 400], [300, 0], [50, 50], [900, 10]]
        .iter()
        .flatten()
        .map(|&n| SimDuration::from_nanos(n))
        .collect();
    // Two out-of-order queues, bound to devices 0 and 1, and an in-order
    // one between them that is not reordered. ROUND_ROBIN prices nothing.
    // With no profile row on a healthy node, a launch's whole time is its
    // analytic time.
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
        input.queues.push(QueueInput {
            out_of_order: ooo,
            source: ExecSource::Static,
            ..queue(current, 0)
        });
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
    // The code the decision replaces: the batch costed per command on its
    // queue's device, first touches per device in batch order.
    let batch_launch = [0, 1, 3, 4, 5];
    let mut seen: [Vec<usize>; 2] = Default::default();
    let batch: Vec<BatchCmd> = batch_launch
        .iter()
        .map(|&l| {
            let (q, touches, kernel) = launches[l];
            let d = plan.device[q];
            let mut cmd =
                BatchCmd { kernel: SimDuration::from_nanos(kernel[d]), ..BatchCmd::default() };
            for &(slot, write) in touches {
                if write { &mut cmd.writes } else { &mut cmd.reads }.push(input.buffers[slot]);
                if !seen[d].contains(&slot) {
                    seen[d].push(slot);
                    cmd.transfer += input.transfer[slot * 2 + d];
                }
            }
            cmd
        })
        .collect();
    let mut dag = ooo::Scratch::default();
    dag.hazard_edges(&batch);
    let order = dag.johnson_order(&batch).to_vec();
    let want: Vec<usize> = order.iter().map(|&k| batch_launch[k]).collect();
    assert_eq!(plan.order, want);
    assert_eq!(plan.reordered, ooo::count_displaced(&order));
    assert!(plan.reordered > 0, "the case exercises a reorder: {order:?}");
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
    let small = push_buffer(&mut snap, &ns(&[0, 0, 0]));
    let out = push_buffer(&mut snap, &ns(&[0, 0, 0]));
    snap.bytes = vec![4 << 10, 4 << 10];
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
    let a = push_buffer(&mut narrow, &ns(&[0, 0, 0]));
    let b = push_buffer(&mut narrow, &ns(&[0, 0, 0]));
    narrow.bytes = vec![8, 8];
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
    let a = push_buffer(&mut healthy, &ns(&[0, 0, 0]));
    let b = push_buffer(&mut healthy, &ns(&[0, 0, 0]));
    healthy.bytes = vec![4 << 10, 4 << 10];
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

#[test]
fn a_migration_row_sums_the_transfers_of_the_queues_distinct_buffers() {
    let mut input = input(ContextSchedPolicy::AutoFit, 3);
    let a = push_buffer(&mut input, &ns(&[5, 0, 70]));
    let b = push_buffer(&mut input, &ns(&[0, 300, 20]));
    let c = push_buffer(&mut input, &ns(&[1000, 40, 0]));
    // Three distinct buffers over three launches, two of them bound twice.
    let zero: &[u64] = &[0, 0, 0];
    let launches = [
        (&[(a, false), (b, true)][..], zero, zero),
        (&[(b, false), (c, true)][..], zero, zero),
        (&[(a, false)][..], zero, zero),
    ];
    let sources =
        [(ExecSource::Profiled, false), (ExecSource::Profiled, true), (ExecSource::Static, false)];
    for (q, (source, explicit_region)) in sources.into_iter().enumerate() {
        let first = input.launches.len();
        push_launches(&mut input, q, &launches);
        let launches = first..input.launches.len();
        let exec = ns(&[1, 2, 3]);
        input.queues.push(QueueInput { exec, source, explicit_region, launches, ..queue(0, 0) });
    }
    let plan = plan_of(&input);
    assert_eq!(plan.costs[0], row(&[1, 2, 3], &[1005, 340, 90]));
    // An explicit-region queue and the static model price no data.
    assert_eq!(plan.costs[1..], [row(&[1, 2, 3], &[0, 0, 0]), row(&[1, 2, 3], &[0, 0, 0])]);
}

/// When queue `q`'s launches, replayed alone on column `d` in program
/// order, end: `replayed_end` of a snapshot that holds that queue alone.
fn alone(input: &PassInput, q: usize, d: usize) -> SimDuration {
    let n = input.devices.len();
    let launches = input.queues[q].launches.clone();
    let cells = launches.start * n..launches.end * n;
    let one = PassInput {
        queues: vec![QueueInput { launches: 0..launches.len(), ..input.queues[q].clone() }],
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
    let plan = Plan {
        device: vec![d],
        order: (0..launches.len()).collect(),
        splits: vec![0..0; launches.len()],
        ..Plan::default()
    };
    replayed_end(&one, &plan)
}

#[test]
fn an_overlap_row_is_the_replay_of_the_queues_launches_alone_on_each_column() {
    let mut input = input(ContextSchedPolicy::AutoFit, 2);
    let a = push_buffer(&mut input, &ns(&[400, 0]));
    let b = push_buffer(&mut input, &ns(&[30, 250]));
    // The replay runs the profiled kernel times, not the analytic ones.
    let analytic: &[u64] = &[7, 7];
    let launches = [
        (&[(a, false), (b, true)][..], analytic, &[100, 300][..]),
        (&[(a, false)][..], analytic, &[50, 20][..]),
        (&[(b, false)][..], analytic, &[10, 80][..]),
    ];
    // (out of order, source, explicit region)
    let queues = [
        (true, ExecSource::Profiled, false),
        (false, ExecSource::Profiled, false),
        (true, ExecSource::Static, false),
        (true, ExecSource::Profiled, true),
    ];
    for (q, (out_of_order, source, explicit_region)) in queues.into_iter().enumerate() {
        let first = input.launches.len();
        push_launches(&mut input, q, &launches);
        input.queues.push(QueueInput {
            out_of_order,
            source,
            explicit_region,
            exec: ns(&[9, 9]),
            launches: first..input.launches.len(),
            ..queue(0, 0)
        });
    }
    let plan = plan_of(&input);
    let replayed: Arc<[SimDuration]> = (0..2).map(|d| alone(&input, 0, d)).collect();
    assert_eq!(plan.costs[0].overlap, Some(replayed));
    // By hand, on column 0: the first launch stages `a` then `b` (400 +
    // 30) and runs 100; the second runs 50 after it; the third reads `b`,
    // which the first wrote there, and runs 10 — 590. On column 1, only
    // `b` moves (250): 250 + 300 + 20 + 80 = 650.
    assert_eq!(plan.costs[0].overlap, Some(ns(&[590, 650])));
    // No overlap row for an in-order queue, nor for the static model's,
    // nor for one whose copies are free: there it would be its `exec`.
    assert_eq!(plan.costs[1].overlap, None);
    assert_eq!(plan.costs[2], row(&[9, 9], &[0, 0]));
    assert_eq!(plan.costs[3], row(&[9, 9], &[0, 0]));
}

/// Append an out-of-order queue with a profiled row on column 0 of one
/// launch per entry of `launches`: `(transfer, analytic, profiled)` ns,
/// each reading a buffer of its own that costs `transfer` to stage.
fn push_batch(input: &mut PassInput, launches: &[(u64, u64, u64)]) {
    let q = input.queues.len();
    let first = input.launches.len();
    for &(transfer, analytic, profiled) in launches {
        let slot = push_buffer(input, &ns(&[transfer]));
        push_launches(input, q, &[(&[(slot, false)], &[analytic], &[profiled])]);
    }
    let launches = first..input.launches.len();
    let q = QueueInput { out_of_order: true, exec: ns(&[1]), launches, ..queue(0, 0) };
    input.queues.push(q);
}

#[test]
fn johnsons_order_replays_sooner_than_program_order() {
    let mut input = input(ContextSchedPolicy::RoundRobin, 1);
    // The classic two-machine instance: the transfer-heavy launch goes last
    // so that its copy hides under the others' kernels.
    push_batch(&mut input, &[(90, 10, 10), (10, 80, 80), (30, 60, 60)]);
    let plan = plan_of(&input);
    assert_eq!(plan.order, [1, 2, 0]);
    let program = Plan { order: vec![0, 1, 2], ..plan.clone() };
    // Copies end at 10, 40 and 130, kernels at 90, 150 and 160; in program
    // order at 90, 100 and 130, and 100, 180 and 240.
    assert_eq!(replayed_end(&input, &plan), SimDuration::from_nanos(160));
    assert_eq!(replayed_end(&input, &program), SimDuration::from_nanos(240));
}

#[test]
fn on_a_degraded_column_johnsons_keys_follow_the_profile_row() {
    // The column runs 2× slow. Launch 0's profile row is 20 (40 now) under
    // a 50 copy: transfer-heavy, it goes last. Launch 1's is 100 (200 now)
    // under a 30 copy. Their analytic times say the opposite.
    let mut input = input(ContextSchedPolicy::RoundRobin, 1);
    input.degradation[0] = 2.0;
    push_batch(&mut input, &[(50, 100, 20), (30, 10, 100)]);
    let plan = plan_of(&input);
    assert_eq!(plan.order, [1, 0]);
    assert_eq!(plan.reordered, 2);
    let program = Plan { order: vec![0, 1], ..plan.clone() };
    assert_eq!(replayed_end(&input, &plan), SimDuration::from_nanos(270));
    assert_eq!(replayed_end(&input, &program), SimDuration::from_nanos(290));
    // A row predicted while the column already ran 2× slow is priced as
    // the healthy one: the same order.
    input.profiled = ns(&[40, 200]).to_vec();
    input.profiled_under = vec![(0, 2.0), (1, 2.0)];
    assert_eq!(plan_of(&input).order, [1, 0]);
}

/// Each queue's cost row by the pricing rule, recomputed naively: distinct
/// buffers by search, and an overlap row from a snapshot of the queue alone
/// on idle devices. ROUND_ROBIN prices none.
fn naive_costs(input: &PassInput) -> Vec<CostRow> {
    if input.policy == ContextSchedPolicy::RoundRobin {
        return Vec::new();
    }
    let n = input.devices.len();
    let touches = |l: usize| &input.touches[input.launches[l].touches.clone()];
    let zero = SimDuration::ZERO;
    let mut idle = input.clone();
    idle.lanes.fill(Lanes::default());
    idle.queues.iter_mut().for_each(|q| q.tail = 0);
    let costs = input.queues.iter().enumerate().map(|(qi, q)| {
        let copies = q.source != ExecSource::Static && !q.explicit_region;
        let mut distinct: Vec<usize> =
            q.launches.clone().flat_map(touches).map(|t| t.buffer).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let migration = (0..n)
            .map(|d| match copies {
                true => distinct.iter().map(|&b| input.transfer[b * n + d]).sum(),
                false => zero,
            })
            .collect();
        let overlap = copies && q.out_of_order && q.source == ExecSource::Profiled;
        CostRow {
            exec: Arc::clone(&q.exec),
            migration,
            overlap: overlap.then(|| (0..n).map(|d| alone(&idle, qi, d)).collect()),
        }
    });
    costs.collect()
}

/// A random snapshot: 1–4 devices, 1–6 queues of 1–4 launches, random
/// health, capacity, degradation, lanes busy at the flush, execution rows
/// and their sources, queue tails, buffer accesses, sizes and transfers,
/// kernel times, profile rows (some measured degraded) and split units and
/// shapes.
fn random_input(rng: &mut XorShift) -> PassInput {
    let n = 1 + rng.index(4);
    let policy = match rng.index(2) {
        0 => ContextSchedPolicy::RoundRobin,
        _ => ContextSchedPolicy::AutoFit,
    };
    let mut input = with_split_facts(input(policy, n));
    input.mapper = if rng.index(4) == 0 { MapperKind::Greedy } else { MapperKind::Adaptive };
    for di in 0..n {
        input.lost[di] = rng.index(4) == 0;
        input.capacity[di] = if rng.index(3) == 0 { 1 << 10 } else { 1 << 20 };
        input.degradation[di] = if rng.index(3) == 0 { rng.range_f64(1.0, 3.0) } else { 1.0 };
        if rng.index(2) == 0 {
            input.lanes[di] =
                Lanes { copy: rng.range_u64(0, 3000), compute: rng.range_u64(0, 3000) };
        }
    }
    let max_capacity = *input.capacity.iter().max().expect("a device");
    input.rr_next = rng.index(10);
    let slots = 1 + rng.index(6);
    input.buffers = (0..slots as u64).map(|b| 100 + b).collect();
    input.transfer =
        (0..slots * n).map(|_| SimDuration::from_nanos(rng.range_u64(0, 5000))).collect();
    input.bytes = (0..slots).map(|_| rng.range_u64(8, 64 << 10)).collect();
    let sources = [ExecSource::Static, ExecSource::Profiled];
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
                if profiled > SimDuration::ZERO && rng.index(4) == 0 {
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
        let exec = ns(&(0..n).map(|_| rng.range_u64(0, 1000)).collect::<Vec<_>>());
        input.queues.push(QueueInput {
            out_of_order,
            need,
            current: Some(rng.index(n + 1)).filter(|&di| di < n),
            bound: rng.index(2) == 0,
            exec,
            source: sources[rng.index(2)],
            explicit_region: rng.index(4) == 0,
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
    let (mut splits, mut reordered, mut in_order) = (0, 0, 0);
    for case in 0..3_000 {
        let input = random_input(&mut rng);
        let plan = plan_of(&input);
        // Equal inputs give equal plans, whatever the scratch last held.
        decide(&input.clone(), &mut reused, &mut reused_plan);
        assert_eq!(reused_plan, plan, "case {case}: {input:?}");
        // Every priced row is the rule's, recomputed naively, and the
        // prediction is the replay of the plan.
        assert_eq!(plan.costs, naive_costs(&input), "case {case}: {input:?}");
        assert_eq!(plan.predicted, replayed_end(&input, &plan), "case {case}: {input:?}");
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
        // every launch whole; with every launch whole and in order, the
        // replay is the naive per-lane recomputation.
        let all_whole = whole(&plan);
        let whole_end = replayed_end(&input, &all_whole);
        assert!(replayed_end(&input, &plan) <= whole_end, "case {case}: {input:?}");
        if input.queues.iter().all(|q| !q.out_of_order) {
            assert_eq!(whole_end, naive_whole_end(&input, &all_whole), "case {case}: {input:?}");
            in_order += 1;
        }
        // The order is every out-of-order launch once, each after every
        // earlier launch it conflicts with on a buffer.
        let ooo: Vec<usize> = (0..input.launches.len())
            .filter(|&l| input.queues[input.launches[l].queue].out_of_order)
            .collect();
        let mut sorted = plan.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, ooo, "case {case}");
        let touches = |l: usize| &input.touches[input.launches[l].touches.clone()];
        let conflict = |a: usize, b: usize| {
            touches(a)
                .iter()
                .any(|x| touches(b).iter().any(|y| x.buffer == y.buffer && (x.write || y.write)))
        };
        let position = |l: usize| plan.order.iter().position(|&o| o == l);
        for (i, &a) in ooo.iter().enumerate() {
            for &b in &ooo[i + 1..] {
                if conflict(a, b) {
                    assert!(position(a) < position(b), "case {case}: {a} after {b}");
                }
            }
        }
        reordered += usize::from(plan.reordered > 0);
    }
    // The property says something only if the cases split, reorder and
    // run in order.
    assert!(splits > 500 && reordered > 300, "{splits} splits, {reordered} reorders");
    assert!(in_order > 100, "{in_order} in-order cases");
}

/// When an epoch of in-order queues with every launch whole ends, by
/// lanes recomputed naively: per column a compute lane and a copy lane,
/// each busy as the flush finds it, per queue a chain from its tail, and
/// per buffer where it was last written and which columns hold it.
fn naive_whole_end(input: &PassInput, plan: &Plan) -> SimDuration {
    let n = input.devices.len();
    let ns = |t: SimDuration| t.as_nanos();
    let link = |d: usize, b: usize| ns(input.links[d].predict_time(input.bytes[b]));
    let mut compute: Vec<u64> = input.lanes.iter().map(|l| l.compute).collect();
    let mut copy: Vec<u64> = input.lanes.iter().map(|l| l.copy).collect();
    // Per buffer: the column a launch last wrote it on, until staged to the
    // host; whether it was staged; the columns holding it.
    let mut written_on: Vec<Option<usize>> = vec![None; input.buffers.len()];
    let mut staged = vec![false; input.buffers.len()];
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); input.buffers.len()];
    let mut end = 0;
    for (q, queue) in input.queues.iter().enumerate() {
        let d = plan.device[q];
        let mut tail = queue.tail;
        for l in queue.launches.clone() {
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
                if let Some(o) = written_on[b] {
                    step(o, link(o, b));
                    step(d, link(d, b));
                    (written_on[b], staged[b]) = (None, true);
                } else if staged[b] {
                    step(d, link(d, b));
                } else if input.transfer[b * n + d] > SimDuration::ZERO {
                    step(d, ns(input.transfer[b * n + d]));
                }
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
            for t in input.touches[input.launches[l].touches.clone()].iter().filter(|t| t.write) {
                (written_on[t.buffer], holders[t.buffer]) = (Some(d), vec![d]);
            }
        }
    }
    SimDuration::from_nanos(end)
}
