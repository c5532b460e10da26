//! The scheduling pass's decision as a value (paper §IV–V).
//!
//! A pass *measures* its queue pool into a [`PassInput`], [`decide`] turns
//! that snapshot into a [`Plan`], and the pass *issues* what the plan says.
//! This module is the middle step and reads nothing but its arguments — no
//! runtime object, lock, cache or clock — so a decision can be built and
//! checked by hand, and equal snapshots give equal plans. The snapshot
//! holds facts: each queue's execution row, each launch's buffer accesses
//! and kernel times, each buffer's transfer to each device. Decide prices
//! the rest of the prediction from them — each queue's migration row, an
//! out-of-order queue's two-lane overlap row ([`ooo`]'s lane model) and
//! each split unit's cost — then gives each pool queue's device
//! (ROUND_ROBIN's rotation, or AUTO_FIT's mapper), the issue order of the
//! out-of-order launches and every split's shares.

use crate::flags::ContextSchedPolicy;
use crate::mapper;
use crate::ooo;
use crate::scheduler::{MapperKind, DEFAULT_ADAPTIVE_NODE_BUDGET};
use crate::split;
use hwsim::{DeviceId, SimDuration};
use std::ops::Range;
use std::sync::Arc;

/// Smallest launch (in workgroups along the split axis) worth splitting:
/// below this the per-chunk launch and gather overhead outweighs the
/// parallelism and the launch runs whole.
pub const SPLIT_MIN_WGS: u64 = 8;

/// One queue's per-device cost terms, as [`decide`] prices them, the mapper
/// sees them and the `MappingDecision` explain record shows them.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRow {
    /// Estimated execution time of its pending launches.
    pub exec: Arc<[SimDuration]>,
    /// Predicted data-migration cost of choosing the device: the transfers
    /// of the distinct buffers its launches bind.
    pub migration: Arc<[SimDuration]>,
    /// An out-of-order queue's two-lane makespan estimate
    /// ([`ooo::Scratch::overlap_makespan`]), which the mapper takes over
    /// `exec + migration` when present.
    pub overlap: Option<Arc<[SimDuration]>>,
}

/// The mapper-visible cost of `row` on device column `di`.
fn total(row: &CostRow, di: usize) -> SimDuration {
    match &row.overlap {
        Some(ov) => ov[di],
        None => row.exec[di] + row.migration[di],
    }
}

/// Where measure took a queue's execution row from, which says what decide
/// prices on top of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecSource {
    /// `SCHED_AUTO_STATIC`'s static model (§V-B): device profiles and hints
    /// only, so no data term either.
    Static,
    /// The static model standing in where ROUND_ROBIN, which never
    /// profiles, lacks kernel profiles: a migration row, no overlap row.
    Estimated,
    /// The sum of its launches' kernel-profile rows, every launch having
    /// one: a migration row, and an out-of-order queue's overlap row.
    Profiled,
}

/// What the pass knows of one pool queue.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueInput {
    /// It carries `SCHED_OUT_OF_ORDER`: its launches join the reordered batch.
    pub out_of_order: bool,
    /// Bytes of the largest buffer its launches bind.
    pub need: u64,
    /// The device column it is bound to now, if it is a context device.
    pub current: Option<usize>,
    /// A pass has bound it before (ROUND_ROBIN keeps that binding).
    pub bound: bool,
    /// Estimated execution time of its pending launches, per column.
    pub exec: Arc<[SimDuration]>,
    /// Where `exec` comes from.
    pub source: ExecSource,
    /// It carries `SCHED_EXPLICIT_REGION`: the mapping its region decides
    /// persists for the rest of the program, so its one-time migration is
    /// not priced — it would bias the mapper toward where data starts.
    pub explicit_region: bool,
    /// Its pending launches, in program order.
    pub launches: Range<usize>,
}

/// What the pass knows of one pending launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchInput {
    /// Its queue's pool position.
    pub queue: usize,
    /// Bytes of the largest buffer it binds.
    pub need: u64,
    /// Its buffer accesses in first-touch order.
    pub touches: Range<usize>,
    /// Its split units (workgroups along the split axis); zero when its
    /// queue, its body or its range cannot be split.
    pub units: u64,
}

/// One buffer access of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// The buffer's slot in [`PassInput::buffers`].
    pub buffer: usize,
    /// Whether the launch may write it.
    pub write: bool,
}

/// One snapshot of everything a pass decides from, taken after its
/// profiling. A device *column* is a position in `devices`; launches are
/// the pool's pending launches, queue by queue in pool order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PassInput {
    /// The context's scheduling policy.
    pub policy: ContextSchedPolicy,
    /// AUTO_FIT's mapping algorithm.
    pub mapper: MapperKind,
    /// The context's devices.
    pub devices: Vec<DeviceId>,
    /// Per column: lost as of the pass's health read.
    pub lost: Vec<bool>,
    /// Per column: memory capacity in bytes.
    pub capacity: Vec<u64>,
    /// Per column: the duration multiplier in force (1.0 = healthy).
    pub degradation: Vec<f64>,
    /// ROUND_ROBIN's rotation counter.
    pub rr_next: usize,
    /// The pool's queues.
    pub queues: Vec<QueueInput>,
    /// The pool's launches.
    pub launches: Vec<LaunchInput>,
    /// The launches' buffer accesses.
    pub touches: Vec<Touch>,
    /// Per buffer slot: the buffer's id.
    pub buffers: Vec<u64>,
    /// Per launch and column (`launch * columns + column`): its analytic
    /// kernel time there; zero for a launch neither out-of-order nor split
    /// into units.
    pub kernel_time: Vec<SimDuration>,
    /// Per launch and column: its kernel's profile-row value there, zero
    /// where it has none; zero wherever `kernel_time` is unfilled.
    pub profiled: Vec<SimDuration>,
    /// Per buffer slot and column: the transfer that makes the buffer
    /// valid there (zero where it is).
    pub transfer: Vec<SimDuration>,
}

/// What a pass issues: the decision [`decide`] makes from a [`PassInput`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Per queue: its priced cost terms.
    pub costs: Vec<CostRow>,
    /// Per queue: the device column it runs the epoch on.
    pub device: Vec<usize>,
    /// ROUND_ROBIN's rotation counter after the pass.
    pub rr_next: usize,
    /// The policy's predicted makespan of the epoch.
    pub predicted: Option<SimDuration>,
    /// AUTO_FIT's mapper outcome; `None` under ROUND_ROBIN.
    pub search: Option<mapper::SearchOutcome>,
    /// The out-of-order launches in issue order. In-order launches issue
    /// queue by queue, in program order.
    pub order: Vec<usize>,
    /// How many of them `order` moves from their program position.
    pub reordered: u64,
    /// Per launch: its chunks, `chunks[splits[launch]]`; none to run whole.
    pub splits: Vec<Range<usize>>,
    /// The split launches' chunks.
    pub chunks: Vec<split::Chunk>,
}

/// What [`decide`] works in, kept from pass to pass so that a steady epoch
/// allocates nothing here. Whatever fills a list empties it first.
#[derive(Debug, Default)]
pub struct PlanScratch {
    search: mapper::MapperScratch,
    costs: mapper::CostMatrix,
    warm: Vec<DeviceId>,
    load: Vec<SimDuration>,
    /// A batch in the two-lane model, the reorder's entries' launches, and
    /// per buffer slot and column whether a first-touch walk has touched it
    /// there yet.
    batch: Vec<ooo::BatchCmd>,
    batch_launch: Vec<usize>,
    touched: Vec<bool>,
    dag: ooo::Scratch,
    per_wg_ns: Vec<f64>,
}

/// Whether column `di` is eligible for launches binding buffers of up to
/// `need` bytes: not lost, and large enough. A buffer fits the context's
/// largest device, which says nothing about the next one.
pub fn eligible(input: &PassInput, di: usize, need: u64) -> bool {
    !input.lost[di] && need <= input.capacity[di]
}

/// Where a queue with that `need` may be bound: its eligible devices or,
/// with none left, any device large enough, lost or not — there is nothing
/// to recover onto, and a lost device fails the commands with a typed
/// status where a small one would refuse them.
pub fn bindable(input: &PassInput, need: u64) -> impl Fn(usize) -> bool + '_ {
    let recover = (0..input.devices.len()).any(|di| eligible(input, di, need));
    move |di| need <= input.capacity[di] && !(recover && input.lost[di])
}

/// The pass's decision: each queue's cost terms and device, the
/// out-of-order issue order and every split's shares, refilled into `plan`.
pub fn decide(input: &PassInput, scratch: &mut PlanScratch, plan: &mut Plan) {
    scratch.touched.clear();
    scratch.touched.resize(input.buffers.len() * input.devices.len(), false);
    price(input, scratch, plan);
    plan.device.clear();
    plan.rr_next = input.rr_next;
    plan.search = None;
    match input.policy {
        ContextSchedPolicy::RoundRobin => round_robin(input, scratch, plan),
        ContextSchedPolicy::AutoFit => auto_fit(input, scratch, plan),
    }
    reorder(input, scratch, plan);
    split_shares(input, scratch, plan);
}

/// Each queue's cost row (§IV: data migration included). Per column, its
/// migration is the sum of its distinct buffers' transfers, and an
/// out-of-order queue with a profiled row gets the two-lane makespan of its
/// launches ([`ooo::Scratch::overlap_makespan`]) at their profiled kernel
/// times. Only a profiled or estimated row prices data, and an
/// explicit-region queue's copies are free.
fn price(input: &PassInput, scratch: &mut PlanScratch, plan: &mut Plan) {
    let PlanScratch { batch, touched, dag, .. } = scratch;
    let n = input.devices.len();
    plan.costs.clear();
    for q in &input.queues {
        let copies = q.source != ExecSource::Static && !q.explicit_region;
        let touches = || {
            let touches = q.launches.clone().map(|l| input.launches[l].touches.clone());
            touches.flat_map(|range| &input.touches[range]).filter(|_| copies)
        };
        touched.fill(false);
        let migration = (0..n)
            .map(|di| {
                let first = |t: &&Touch| !std::mem::replace(&mut touched[t.buffer * n + di], true);
                touches().filter(first).map(|t| input.transfer[t.buffer * n + di]).sum()
            })
            .collect();
        let overlap = (q.out_of_order && q.source == ExecSource::Profiled).then(|| {
            let lanes = |di| {
                let launches = q.launches.clone();
                let cmds =
                    fill_batch(input, launches, &input.profiled, |_| di, copies, touched, batch);
                dag.hazard_edges(cmds);
                dag.overlap_makespan(cmds)
            };
            (0..n).map(lanes).collect()
        });
        plan.costs.push(CostRow { exec: Arc::clone(&q.exec), migration, overlap });
    }
}

/// `launches` as the two-lane model sees them, refilled into `batch`'s
/// first entries: each one's accesses as buffer-id hazard sets, its kernel
/// time from `times` on column `column(launch)`, and the transfers of the
/// buffers it is the first of `launches` to touch there — none without
/// `copies`.
fn fill_batch<'b>(
    input: &PassInput,
    launches: impl Iterator<Item = usize>,
    times: &[SimDuration],
    column: impl Fn(usize) -> usize,
    copies: bool,
    touched: &mut [bool],
    batch: &'b mut Vec<ooo::BatchCmd>,
) -> &'b [ooo::BatchCmd] {
    let n = input.devices.len();
    touched.fill(false);
    let mut len = 0;
    for l in launches {
        if len == batch.len() {
            batch.push(ooo::BatchCmd::default());
        }
        let (cmd, di) = (&mut batch[len], column(l));
        len += 1;
        (cmd.kernel, cmd.transfer) = (times[l * n + di], SimDuration::ZERO);
        cmd.reads.clear();
        cmd.writes.clear();
        for t in &input.touches[input.launches[l].touches.clone()] {
            if t.write { &mut cmd.writes } else { &mut cmd.reads }.push(input.buffers[t.buffer]);
            let cell = t.buffer * n + di;
            if copies && !std::mem::replace(&mut touched[cell], true) {
                cmd.transfer += input.transfer[cell];
            }
        }
    }
    &batch[..len]
}

/// ROUND_ROBIN (§IV-A): a queue keeps the binding a pass gave it while it
/// stays bindable — re-rotating every epoch would thrash data between
/// devices — and otherwise takes the next device in turn that can hold it.
/// Its prediction is the busiest device's summed cost rows.
fn round_robin(input: &PassInput, scratch: &mut PlanScratch, plan: &mut Plan) {
    let n = input.devices.len();
    scratch.load.clear();
    scratch.load.resize(n, SimDuration::ZERO);
    for (q, cost) in input.queues.iter().zip(&plan.costs) {
        let bindable = bindable(input, q.need);
        let kept = q.current.filter(|&di| q.bound && bindable(di));
        let mut next = || {
            plan.rr_next += 1;
            (plan.rr_next - 1) % n
        };
        let di = kept.or_else(|| (0..n).map(|_| next()).find(|&di| bindable(di))).unwrap_or(0);
        plan.device.push(di);
        scratch.load[di] += total(cost, di);
    }
    plan.predicted = scratch.load.iter().copied().max();
}

/// AUTO_FIT (§V-A): the mapper over the cost rows, each blacklisted with
/// [`mapper::UNAVAILABLE_COST`] where its queue is not bindable (the matrix
/// keeps its global device indexing), warm-started from the current
/// bindings — the previous epoch's assignment.
fn auto_fit(input: &PassInput, scratch: &mut PlanScratch, plan: &mut Plan) {
    let PlanScratch { search, costs, warm, .. } = scratch;
    costs.resize_with(input.queues.len(), Vec::new);
    for ((row, q), cost) in costs.iter_mut().zip(&input.queues).zip(&plan.costs) {
        let bindable = bindable(input, q.need);
        row.clear();
        row.extend((0..input.devices.len()).map(|di| match bindable(di) {
            true => total(cost, di),
            false => mapper::UNAVAILABLE_COST,
        }));
    }
    warm.clear();
    let warm = input
        .queues
        .iter()
        .all(|q| q.current.map(|di| warm.push(DeviceId(di))).is_some())
        .then_some(warm.as_slice());
    let outcome = match input.mapper {
        MapperKind::Greedy => mapper::SearchOutcome {
            mapping: mapper::greedy(costs),
            nodes_explored: 0,
            budget_tripped: false,
        },
        MapperKind::Adaptive => mapper::adaptive(costs, warm, DEFAULT_ADAPTIVE_NODE_BUDGET, search),
    };
    plan.device.extend(outcome.mapping.assignment.iter().map(|d| d.index()));
    plan.predicted = Some(outcome.mapping.makespan);
    plan.search = Some(outcome);
}

/// The out-of-order launches, in pool and program order, put in Johnson's
/// rule order over their hazard DAG ([`ooo`]), each costed on its queue's
/// planned device: its kernel time, and the transfers of the buffers it is
/// the first to touch there. The order only interleaves the lanes.
fn reorder(input: &PassInput, scratch: &mut PlanScratch, plan: &mut Plan) {
    let PlanScratch { batch, batch_launch, touched, dag, .. } = scratch;
    batch_launch.clear();
    batch_launch.extend(
        (0..input.launches.len()).filter(|&l| input.queues[input.launches[l].queue].out_of_order),
    );
    let column = |l: usize| plan.device[input.launches[l].queue];
    let launches = batch_launch.iter().copied();
    let cmds = fill_batch(input, launches, &input.kernel_time, column, true, touched, batch);
    dag.hazard_edges(cmds);
    let order = dag.johnson_order(cmds);
    plan.reordered = ooo::count_displaced(order);
    plan.order.clear();
    plan.order.extend(order.iter().map(|&k| batch_launch[k]));
}

/// The shares of every launch of at least [`SPLIT_MIN_WGS`] units with two
/// or more eligible devices: [`split::static_chunks`] over each eligible
/// device's unit cost — its profiled time there, else its analytic one,
/// over its units — stretched by its degradation so a device running behind
/// its estimate is sized smaller. Fewer than two chunks run whole.
fn split_shares(input: &PassInput, scratch: &mut PlanScratch, plan: &mut Plan) {
    let n = input.devices.len();
    plan.splits.clear();
    plan.chunks.clear();
    for (l, launch) in input.launches.iter().enumerate() {
        let first = plan.chunks.len();
        let eligible = |di: usize| eligible(input, di, launch.need);
        if launch.units >= SPLIT_MIN_WGS && (0..n).filter(|&di| eligible(di)).count() >= 2 {
            let unit_cost = |c: usize| {
                let full = match input.profiled[c].as_nanos() {
                    0 => input.kernel_time[c].as_nanos() as f64,
                    ns => ns as f64,
                };
                full / launch.units as f64
            };
            scratch.per_wg_ns.clear();
            scratch.per_wg_ns.extend((0..n).map(|di| match eligible(di) {
                true => unit_cost(l * n + di).max(1e-9) * input.degradation[di].max(1.0),
                false => f64::INFINITY,
            }));
            let chunks = split::static_chunks(launch.units, &scratch.per_wg_ns);
            if chunks.len() >= 2 {
                plan.chunks.extend(chunks);
            }
        }
        plan.splits.push(first..plan.chunks.len());
    }
}
