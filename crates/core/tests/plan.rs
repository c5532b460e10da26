//! `plan::decide` without a platform: hand-built snapshots checked against
//! the routines each part of the decision comes from — its pricing
//! included — and a seeded property test over random snapshots.

use hwsim::xrand::XorShift;
use hwsim::{DeviceId, SimDuration};
use multicl::mapper::{self, MapperScratch};
use multicl::ooo::{self, BatchCmd};
use multicl::plan::{
    self, decide, CostRow, ExecSource, LaunchInput, PassInput, Plan, PlanScratch, QueueInput,
    Touch, SPLIT_MIN_WGS,
};
use multicl::{split, ContextSchedPolicy, MapperKind, DEFAULT_ADAPTIVE_NODE_BUDGET};
use std::sync::Arc;

fn ns(v: &[u64]) -> Arc<[SimDuration]> {
    v.iter().map(|&n| SimDuration::from_nanos(n)).collect()
}

fn row(exec: &[u64], migration: &[u64]) -> CostRow {
    CostRow { exec: ns(exec), migration: ns(migration), overlap: None }
}

/// A snapshot over `n` healthy devices of 1 MiB, with nothing pending.
fn input(policy: ContextSchedPolicy, n: usize) -> PassInput {
    PassInput {
        policy,
        devices: (0..n).map(DeviceId).collect(),
        lost: vec![false; n],
        capacity: vec![1 << 20; n],
        degradation: vec![1.0; n],
        ..PassInput::default()
    }
}

/// Append a buffer slot whose transfer to each column is `transfer`.
fn push_buffer(input: &mut PassInput, transfer: &[SimDuration]) -> usize {
    input.buffers.push(100 + input.buffers.len() as u64);
    input.transfer.extend_from_slice(transfer);
    input.buffers.len() - 1
}

/// Append a queue that prices to `cost` (which has no overlap row), with
/// one launch per entry of `launches` (`(need, units)`): its execution row
/// is `cost.exec`, and every launch reads one buffer of its own whose
/// transfers are `cost.migration`.
fn push_queue(input: &mut PassInput, q: QueueInput, cost: &CostRow, launches: &[(u64, u64)]) {
    let n = input.devices.len();
    let slot = push_buffer(input, &cost.migration);
    let first = input.launches.len();
    for &(need, units) in launches {
        let at = input.touches.len();
        input.touches.push(Touch { buffer: slot, write: false });
        input.launches.push(LaunchInput {
            queue: input.queues.len(),
            need,
            touches: at..at + 1,
            units,
        });
        input.kernel_time.extend(std::iter::repeat_n(SimDuration::ZERO, n));
        input.profiled.extend(std::iter::repeat_n(SimDuration::ZERO, n));
    }
    let exec = Arc::clone(&cost.exec);
    input.queues.push(QueueInput { exec, launches: first..input.launches.len(), ..q });
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
        push_queue(&mut input, queue(current, need), &cost, &[(need, 0)]);
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
    assert_eq!(plan.predicted, Some(want.mapping.makespan));
    assert_eq!(plan.search, Some(want));
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
    push_queue(&mut input, queue(1, 64), &cost(), &[(64, 0)]);
    // Bound to the lost device: rotates. 7 % 3 = 1 is bindable.
    push_queue(&mut input, queue(2, 64), &cost(), &[(64, 0)]);
    // Never bound: rotates. 8 % 3 = 2 is lost, 9 % 3 = 0 is too small,
    // 10 % 3 = 1 takes it.
    let fresh = QueueInput { bound: false, ..queue(0, 1 << 12) };
    push_queue(&mut input, fresh, &cost(), &[(1 << 12, 0)]);
    let plan = plan_of(&input);
    assert_eq!(plan.device, [1, 1, 1]);
    assert_eq!(plan.rr_next, 11);
    assert_eq!(plan.search, None);
    // The busiest device's summed rows.
    assert_eq!(plan.predicted, Some(SimDuration::from_nanos(3 * 22)));
    // Every device lost: a queue stays where it is bound if its buffers
    // fit there; there is nothing to recover onto.
    input.lost = vec![true; 3];
    assert_eq!(plan_of(&input).device[..2], [1, 2]);
}

#[test]
fn the_out_of_order_order_is_johnson_over_the_planned_devices_first_touches() {
    let mut input = input(ContextSchedPolicy::RoundRobin, 2);
    input.buffers = vec![10, 11, 12, 13];
    // Per buffer slot × device: what first touching it there costs.
    input.transfer = [[0, 400], [300, 0], [50, 50], [900, 10]]
        .iter()
        .flatten()
        .map(|&n| SimDuration::from_nanos(n))
        .collect();
    // Two out-of-order queues, bound to devices 0 and 1, and an in-order
    // one between them that is not reordered. Each is priced at its
    // execution row alone: an estimated row of an explicit-region queue
    // prices no data.
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
            exec: ns(&[1, 1]),
            source: ExecSource::Estimated,
            explicit_region: true,
            ..queue(current, 0)
        });
        let first = input.launches.len();
        for (lq, touches, kernel) in launches.iter().filter(|l| l.0 == q) {
            let at = input.touches.len();
            let touched = touches.iter().map(|&(buffer, write)| Touch { buffer, write });
            input.touches.extend(touched);
            let touches = at..input.touches.len();
            input.launches.push(LaunchInput { queue: *lq, need: 0, touches, units: 0 });
            input.kernel_time.extend(kernel.map(SimDuration::from_nanos));
            input.profiled.extend([SimDuration::ZERO; 2]);
        }
        input.queues[q].launches = first..input.launches.len();
    }
    let plan = plan_of(&input);
    assert_eq!(plan.costs, vec![row(&[1, 1], &[0, 0]); 3]);
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

#[test]
fn split_shares_are_the_static_chunks_of_the_degraded_unit_costs() {
    let mut input = input(ContextSchedPolicy::RoundRobin, 3);
    input.degradation[1] = 2.0;
    input.capacity = vec![1 << 20, 1 << 11, 1 << 10];
    let cost = || row(&[1, 1, 1], &[0, 0, 0]);
    // Four launches: one splits, one is too small, one has no units, one
    // fits a single device only.
    let units = [64, SPLIT_MIN_WGS - 1, 0, 64];
    let needs = [64, 64, 64, 1 << 12];
    let launches: Vec<(u64, u64)> = needs.into_iter().zip(units).collect();
    push_queue(&mut input, queue(0, 1 << 12), &cost(), &launches);
    // Profiled at 64 units of 40, 10 and 20 ns.
    for l in 0..4 {
        input.profiled[l * 3..l * 3 + 3].copy_from_slice(&ns(&[2560, 640, 1280]));
    }
    let plan = plan_of(&input);
    let want = split::static_chunks(64, &[40.0, 20.0, 20.0]);
    let k = want.len();
    assert_eq!(plan.splits, [0..k, k..k, k..k, k..k]);
    assert_eq!(plan.chunks, want);
    // An ineligible device gets no share.
    input.lost[0] = true;
    let plan = plan_of(&input);
    assert_eq!(plan.chunks, split::static_chunks(64, &[f64::INFINITY, 20.0, 20.0]));
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
        input.launches.push(LaunchInput { queue: q, need: 0, touches, units: 0 });
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
    let sources = [
        (ExecSource::Profiled, false),
        (ExecSource::Estimated, false),
        (ExecSource::Profiled, true),
        (ExecSource::Static, false),
    ];
    for (q, (source, explicit_region)) in sources.into_iter().enumerate() {
        let first = input.launches.len();
        push_launches(&mut input, q, &launches);
        let launches = first..input.launches.len();
        let exec = ns(&[1, 2, 3]);
        input.queues.push(QueueInput { exec, source, explicit_region, launches, ..queue(0, 0) });
    }
    let plan = plan_of(&input);
    let priced = row(&[1, 2, 3], &[1005, 340, 90]);
    assert_eq!(plan.costs[..2], [priced.clone(), priced]);
    // An explicit-region queue and the static model price no data.
    assert_eq!(plan.costs[2..], [row(&[1, 2, 3], &[0, 0, 0]), row(&[1, 2, 3], &[0, 0, 0])]);
}

#[test]
fn an_overlap_row_is_the_lane_makespan_of_the_queues_launches_on_each_column() {
    let mut input = input(ContextSchedPolicy::AutoFit, 2);
    let a = push_buffer(&mut input, &ns(&[400, 0]));
    let b = push_buffer(&mut input, &ns(&[30, 250]));
    // The lane model runs the profiled kernel times, not the analytic ones.
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
        (true, ExecSource::Estimated, false),
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
    // The first launch is the first to touch both buffers, on each column.
    let first_touch = [[430, 250], [0, 0], [0, 0]];
    let lanes = |copies: bool| -> Arc<[SimDuration]> {
        (0..2)
            .map(|d| {
                let cmds: Vec<BatchCmd> = launches
                    .iter()
                    .zip(first_touch)
                    .map(|((touches, _, kernel), transfer)| BatchCmd {
                        reads: touches
                            .iter()
                            .filter(|t| !t.1)
                            .map(|t| input.buffers[t.0])
                            .collect(),
                        writes: touches
                            .iter()
                            .filter(|t| t.1)
                            .map(|t| input.buffers[t.0])
                            .collect(),
                        transfer: SimDuration::from_nanos(if copies { transfer[d] } else { 0 }),
                        kernel: SimDuration::from_nanos(kernel[d]),
                    })
                    .collect();
                let mut dag = ooo::Scratch::default();
                dag.hazard_edges(&cmds);
                dag.overlap_makespan(&cmds)
            })
            .collect()
    };
    assert_eq!(plan.costs[0].overlap, Some(lanes(true)));
    assert_eq!(plan.costs[0].overlap, Some(ns(&[540, 630])));
    // An explicit-region queue's copy lane is free.
    assert_eq!(plan.costs[3].overlap, Some(lanes(false)));
    // No overlap row for an in-order queue, nor for one without profiles.
    assert_eq!(plan.costs[1].overlap, None);
    assert_eq!(plan.costs[2].overlap, None);
}

#[test]
fn a_unit_cost_is_the_profiled_time_over_the_units_else_the_analytic_time() {
    let mut input = input(ContextSchedPolicy::RoundRobin, 3);
    push_queue(&mut input, queue(0, 64), &row(&[1, 1, 1], &[0, 0, 0]), &[(64, 64)]);
    // Column 1 has no profile row: its analytic time stands in.
    input.profiled.copy_from_slice(&ns(&[2560, 0, 1280]));
    input.kernel_time.copy_from_slice(&ns(&[99_999, 640, 99_999]));
    let want = split::static_chunks(64, &[40.0, 10.0, 20.0]);
    assert!(want.len() >= 2, "{want:?}");
    assert_eq!(plan_of(&input).chunks, want);
    // With no profile row anywhere, the analytic times alone.
    input.profiled.fill(SimDuration::ZERO);
    let analytic = [99_999.0 / 64.0, 10.0, 99_999.0 / 64.0];
    assert_eq!(plan_of(&input).chunks, split::static_chunks(64, &analytic));
}

/// Each queue's cost row by the pricing rule, recomputed naively: distinct
/// buffers by search, first touches by search, a fresh lane model.
fn naive_costs(input: &PassInput) -> Vec<CostRow> {
    let n = input.devices.len();
    let touches = |l: usize| &input.touches[input.launches[l].touches.clone()];
    let zero = SimDuration::ZERO;
    let costs = input.queues.iter().map(|q| {
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
        let lanes = |d: usize| {
            let mut seen: Vec<usize> = Vec::new();
            let cmds: Vec<BatchCmd> = q
                .launches
                .clone()
                .map(|l| {
                    let mut cmd =
                        BatchCmd { kernel: input.profiled[l * n + d], ..BatchCmd::default() };
                    for t in touches(l) {
                        if t.write { &mut cmd.writes } else { &mut cmd.reads }
                            .push(input.buffers[t.buffer]);
                        if copies && !seen.contains(&t.buffer) {
                            seen.push(t.buffer);
                            cmd.transfer += input.transfer[t.buffer * n + d];
                        }
                    }
                    cmd
                })
                .collect();
            let mut dag = ooo::Scratch::default();
            dag.hazard_edges(&cmds);
            dag.overlap_makespan(&cmds)
        };
        let overlap = q.out_of_order && q.source == ExecSource::Profiled;
        CostRow {
            exec: Arc::clone(&q.exec),
            migration,
            overlap: overlap.then(|| (0..n).map(lanes).collect()),
        }
    });
    costs.collect()
}

/// One split unit of launch `l` on column `d` by the pricing rule: its
/// profiled time, else its analytic time, over its units.
fn naive_unit_cost(input: &PassInput, l: usize, d: usize) -> f64 {
    let c = l * input.devices.len() + d;
    let full = match input.profiled[c] {
        SimDuration::ZERO => input.kernel_time[c],
        profiled => profiled,
    };
    full.as_nanos() as f64 / input.launches[l].units as f64
}

/// A random snapshot: 1–4 devices, 1–6 queues of 1–4 launches, random
/// health, capacity, degradation, execution rows and their sources, buffer
/// accesses and transfers, kernel times and split units.
fn random_input(rng: &mut XorShift) -> PassInput {
    let n = 1 + rng.index(4);
    let policy = match rng.index(2) {
        0 => ContextSchedPolicy::RoundRobin,
        _ => ContextSchedPolicy::AutoFit,
    };
    let mut input = input(policy, n);
    input.mapper = if rng.index(4) == 0 { MapperKind::Greedy } else { MapperKind::Adaptive };
    for di in 0..n {
        input.lost[di] = rng.index(4) == 0;
        input.capacity[di] = if rng.index(3) == 0 { 1 << 10 } else { 1 << 20 };
        input.degradation[di] = if rng.index(3) == 0 { rng.range_f64(1.0, 3.0) } else { 1.0 };
    }
    let max_capacity = *input.capacity.iter().max().expect("a device");
    input.rr_next = rng.index(10);
    let slots = 1 + rng.index(6);
    input.buffers = (0..slots as u64).map(|b| 100 + b).collect();
    input.transfer =
        (0..slots * n).map(|_| SimDuration::from_nanos(rng.range_u64(0, 500))).collect();
    let sources = [ExecSource::Static, ExecSource::Estimated, ExecSource::Profiled];
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
            let units = if rng.index(2) == 0 { rng.range_u64(1, 64) } else { 0 };
            input.launches.push(LaunchInput {
                queue: qi,
                need: launch_need,
                touches: at..input.touches.len(),
                units,
            });
            // Kernel times where measure fills them; a profile row may
            // be missing.
            let timed = out_of_order || units > 0;
            for _ in 0..n {
                let kernel = if timed { rng.range_u64(0, 3000) } else { 0 };
                input.kernel_time.push(SimDuration::from_nanos(kernel));
                let profiled = if timed && rng.index(3) > 0 { rng.range_u64(0, 3000) } else { 0 };
                input.profiled.push(SimDuration::from_nanos(profiled));
            }
        }
        let exec = ns(&(0..n).map(|_| rng.range_u64(0, 1000)).collect::<Vec<_>>());
        input.queues.push(QueueInput {
            out_of_order,
            need,
            current: Some(rng.index(n + 1)).filter(|&di| di < n),
            bound: rng.index(2) == 0,
            exec,
            source: sources[rng.index(3)],
            explicit_region: rng.index(4) == 0,
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
    let (mut splits, mut reordered) = (0, 0);
    for case in 0..3_000 {
        let input = random_input(&mut rng);
        let plan = plan_of(&input);
        // Equal inputs give equal plans, whatever the scratch last held.
        decide(&input.clone(), &mut reused, &mut reused_plan);
        assert_eq!(reused_plan, plan, "case {case}: {input:?}");
        // Every priced row is the rule's, recomputed naively.
        assert_eq!(plan.costs, naive_costs(&input), "case {case}: {input:?}");
        let n = input.devices.len();
        // Every planned device is bindable.
        for (q, &di) in input.queues.iter().zip(&plan.device) {
            assert!(plan::bindable(&input, q.need)(di), "case {case}: column {di} for {q:?}");
        }
        // Shares are non-zero, on eligible devices, and sum to the units;
        // they are the static chunks of the naive unit costs.
        assert_eq!(plan.splits.len(), input.launches.len());
        for (l, (launch, range)) in input.launches.iter().zip(&plan.splits).enumerate() {
            let chunks = &plan.chunks[range.clone()];
            let eligible = |d: usize| plan::eligible(&input, d, launch.need);
            if launch.units >= SPLIT_MIN_WGS && (0..n).filter(|&d| eligible(d)).count() >= 2 {
                let per_wg: Vec<f64> = (0..n)
                    .map(|d| match eligible(d) {
                        true => {
                            naive_unit_cost(&input, l, d).max(1e-9) * input.degradation[d].max(1.0)
                        }
                        false => f64::INFINITY,
                    })
                    .collect();
                let want = split::static_chunks(launch.units, &per_wg);
                let want = if want.len() >= 2 { want } else { Vec::new() };
                assert_eq!(chunks, want, "case {case}: launch {l}");
            }
            if chunks.is_empty() {
                continue;
            }
            splits += 1;
            assert!(chunks.len() >= 2 && launch.units >= SPLIT_MIN_WGS, "case {case}");
            assert!(chunks.iter().all(|c| c.wg_count > 0 && c.device < n), "case {case}");
            assert!(chunks.iter().all(|c| plan::eligible(&input, c.device, launch.need)));
            assert_eq!(chunks.iter().map(|c| c.wg_count).sum::<u64>(), launch.units);
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
    // The property says something only if the cases split and reorder.
    assert!(splits > 500 && reordered > 300, "{splits} splits, {reordered} reorders");
}
