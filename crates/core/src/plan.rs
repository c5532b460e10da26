//! The scheduling pass's decision as a value (paper §IV–V).
//!
//! A pass *measures* its queue pool into a [`PassInput`], [`decide`] turns
//! that snapshot into a [`Plan`], and the pass *issues* what the plan says.
//! This module is the middle step and reads nothing but its arguments — no
//! runtime object, lock, cache or clock — so a decision can be built and
//! checked by hand, and equal snapshots give equal plans. The snapshot
//! holds facts: AUTO_FIT's execution rows, each launch's accesses and
//! kernel times, where each buffer is valid and where a copy of it comes
//! from, when the devices' lanes and the queues' last commands come free,
//! and what the cost model needs to price a split chunk. AUTO_FIT prices
//! each queue's row and maps the queues over them; ROUND_ROBIN's rotation
//! prices nothing. Then decide walks the epoch's issue order — the
//! in-order queues' launches, then the out-of-order queues', each queue's
//! in program order ([`issue_order`]) — and keeps a split candidate's best
//! shares ([`split::balance`]) only when the epoch ends sooner. The replay
//! of the issue it settles, with the host's enqueues counted, is the plan's
//! prediction.
//!
//! One clock times all of it: the replay of launches through the time
//! plane's rules ([`replayed_end`]) — lanes, hazards, residency. A queue's
//! row is the replay of its own launches alone from idle lanes, and the
//! walk replays the issue order from the devices the flush finds.

use crate::flags::ContextSchedPolicy;
use crate::mapper;
use crate::scheduler::{MapperKind, DEFAULT_ADAPTIVE_NODE_BUDGET};
use crate::split;
use hwsim::microbench::BandwidthCurve;
use hwsim::{DeviceId, DeviceSpec, KernelCostSpec, SimDuration};
use std::ops::Range;
use std::sync::Arc;

/// One queue's per-device cost, as [`decide`] prices it, the mapper sees it
/// and the `MappingDecision` explain record shows it.
#[derive(Debug, Clone, PartialEq)]
pub struct CostRow {
    /// Estimated execution time of its pending launches: measure's row.
    pub exec: Arc<[SimDuration]>,
    /// What the mapper reads. Where the queue's copies are priced
    /// ([`QueueInput::copies`]), per column, when the `Replay` of its own
    /// launches alone ends, from idle lanes and the snapshot's residency,
    /// in order or out of order alike; otherwise `exec` itself.
    pub total: Arc<[SimDuration]>,
}

/// What the pass knows of one pool queue.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueInput {
    /// It carries `SCHED_OUT_OF_ORDER`: its launches wait on their buffer
    /// hazards alone, and issue after every in-order queue's.
    pub out_of_order: bool,
    /// Bytes of the largest buffer its launches bind.
    pub need: u64,
    /// The device column it is bound to now, if it is a context device.
    pub current: Option<usize>,
    /// A pass has bound it before (ROUND_ROBIN keeps that binding).
    pub bound: bool,
    /// Estimated execution time of its pending launches, per column: what
    /// AUTO_FIT prices. Empty under ROUND_ROBIN, which prices nothing.
    pub exec: Arc<[SimDuration]>,
    /// Decide prices its copies: its row is the replay of its launches,
    /// transfers included, rather than `exec`. True for a row summed from
    /// its launches' kernel profiles outside `SCHED_EXPLICIT_REGION`.
    /// `SCHED_AUTO_STATIC`'s static model (§V-B) has no data term, and an
    /// explicit region's mapping persists for the rest of the program, so
    /// pricing its one-time migration would bias the mapper toward where
    /// data starts.
    pub copies: bool,
    /// In order, when its last command (an upload, say) ends, in ns from the
    /// flush: its first launch waits behind it. Zero out of order.
    pub tail: u64,
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
}

/// A split candidate — a launch its queue, its body and its range let
/// split, with two or more eligible devices — and what the cost model needs
/// to price a chunk of it at its own size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitInput {
    /// The launch.
    pub launch: usize,
    /// Its split units: workgroups along the split axis, two or more.
    pub units: u64,
    /// Its kernel's cost spec.
    pub cost: KernelCostSpec,
    /// Its global size.
    pub global: [u64; 3],
    /// Its requested workgroup size.
    pub local: [u64; 3],
    /// The dimension it splits along.
    pub axis: usize,
}

/// One buffer access of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Touch {
    /// The buffer's slot in [`PassInput::bytes`] and
    /// [`PassInput::source`].
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
    /// Per column: when its lanes come free, in ns from the flush.
    pub lanes: Vec<Lanes>,
    /// The host's cost of enqueuing one command, in ns: the issue enqueues
    /// its commands one after another, and none starts before it is.
    pub enqueue: u64,
    /// ROUND_ROBIN's rotation counter.
    pub rr_next: usize,
    /// The pool's queues.
    pub queues: Vec<QueueInput>,
    /// The pool's launches.
    pub launches: Vec<LaunchInput>,
    /// The launches' buffer accesses.
    pub touches: Vec<Touch>,
    /// Per launch and column (`launch * columns + column`): its analytic
    /// kernel time there.
    pub kernel_time: Vec<SimDuration>,
    /// Per launch and column: its kernel's profile-row value there, zero
    /// where it has none.
    pub profiled: Vec<SimDuration>,
    /// Per launch-and-column cell of `profiled` whose row was predicted
    /// while that device ran degraded, in cell order: the cell, and the
    /// degradation then in force. A profiled or healthy row has no entry.
    pub profiled_under: Vec<(usize, f64)>,
    /// Per buffer slot and column (`slot * columns + column`): it holds a
    /// valid copy there.
    pub valid: Vec<bool>,
    /// Per buffer slot: where a copy for a column without one comes from,
    /// by the runtime's one rule — a live column that holds one, which a
    /// download from it then an upload moves, or (`None`) the host copy,
    /// which an upload moves.
    pub source: Vec<Option<usize>>,
    /// Per buffer slot: its size in bytes.
    pub bytes: Vec<u64>,
    /// The split candidates, in launch order.
    pub splits: Vec<SplitInput>,
    /// Per split and column: the workgroup shape a chunk runs at there.
    pub split_local: Vec<[u64; 3]>,
    /// Per column: the device's cost-model spec.
    pub specs: Vec<DeviceSpec>,
    /// Per column: the host link's bandwidth curve, which prices every
    /// move — an upload, a download and a gather.
    pub links: Vec<BandwidthCurve>,
}

/// What a pass issues: the decision [`decide`] makes from a [`PassInput`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Per queue: its priced cost terms; none under ROUND_ROBIN.
    pub costs: Vec<CostRow>,
    /// Per queue: the device column it runs the epoch on.
    pub device: Vec<usize>,
    /// ROUND_ROBIN's rotation counter after the pass.
    pub rr_next: usize,
    /// When the epoch ends, in ns from the flush: the [`replayed_end`] of
    /// what the plan issues. AUTO_FIT's mapper objective is `search`'s.
    pub predicted: SimDuration,
    /// AUTO_FIT's mapper outcome; `None` under ROUND_ROBIN.
    pub search: Option<mapper::SearchOutcome>,
    /// Per launch: its chunks, `chunks[splits[launch]]`; none to run whole.
    /// A split launch's chunks tile its units in device order. The issue
    /// empties the range of a split `clrt` refuses, which runs whole.
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
    /// The epoch's launches in issue order, the replay at the launch being
    /// walked (a queue row's replay before that) and a trial copy of it,
    /// a candidate's shares, per column when a chunk of it could start and
    /// when the copy lane is free then, the tabulated price of its shares
    /// up to a full wave and where each column's table starts, and the
    /// columns by how soon they would run it whole.
    issue: Vec<usize>,
    at: Replay,
    trial: Replay,
    shares: Vec<split::Chunk>,
    start: Vec<Option<u64>>,
    copy_free: Vec<u64>,
    envelope: Vec<u64>,
    from: Vec<usize>,
    rank: Vec<usize>,
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

/// The pass's decision: each queue's cost terms and device, every split's
/// shares and the epoch's predicted end, refilled into `plan`.
pub fn decide(input: &PassInput, scratch: &mut PlanScratch, plan: &mut Plan) {
    plan.costs.clear();
    plan.device.clear();
    plan.rr_next = input.rr_next;
    plan.search = None;
    match input.policy {
        ContextSchedPolicy::RoundRobin => round_robin(input, plan),
        ContextSchedPolicy::AutoFit => {
            price(input, scratch, plan);
            auto_fit(input, scratch, plan);
        }
    }
    walk(input, scratch, plan);
}

/// AUTO_FIT's cost row of each queue (§IV: data migration included): per
/// column, the [`Replay`] of its launches alone, in program order, from idle
/// lanes — its transfers, its kernels, and the overlap an out-of-order
/// queue gets between them. A queue whose [`QueueInput::copies`] are not
/// priced keeps its `exec`.
fn price(input: &PassInput, scratch: &mut PlanScratch, plan: &mut Plan) {
    let at = &mut scratch.at;
    for q in &input.queues {
        let alone = |di| {
            Replay::idle(at, input);
            q.launches.clone().for_each(|l| Replay::whole(at, input, l, di));
            SimDuration::from_nanos(at.end)
        };
        let total = match q.copies {
            true => (0..input.devices.len()).map(alone).collect(),
            false => Arc::clone(&q.exec),
        };
        plan.costs.push(CostRow { exec: Arc::clone(&q.exec), total });
    }
}

/// ROUND_ROBIN (§IV-A): a queue keeps the binding a pass gave it while it
/// stays bindable — re-rotating every epoch would thrash data between
/// devices — and otherwise takes the next device in turn that can hold it.
fn round_robin(input: &PassInput, plan: &mut Plan) {
    let n = input.devices.len();
    for q in &input.queues {
        let bindable = bindable(input, q.need);
        let kept = q.current.filter(|&di| q.bound && bindable(di));
        let mut next = || {
            plan.rr_next += 1;
            (plan.rr_next - 1) % n
        };
        let di = kept.or_else(|| (0..n).map(|_| next()).find(|&di| bindable(di))).unwrap_or(0);
        plan.device.push(di);
    }
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
            true => cost.total[di],
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
    plan.search = Some(outcome);
}

/// The epoch's issue order, replayed from the flush: each launch as the plan
/// issues it, and then the prediction ([`Replay::predict`]). Each split
/// candidate is judged on the way. It gets, over several device sets, the
/// shares that end its chunks soonest ([`split::balance`], a device's chunk
/// priced at its own size from where the epoch has left its lanes). It
/// keeps the shares whose replayed epoch ends soonest, if that is sooner
/// than with the launch whole — or as soon, with the queues' finishing
/// times summing to less: when several queues end the epoch together, no
/// one split can end it sooner, but each can free its devices for the next.
/// A kept split stays in the replay for the candidates after it.
fn walk(input: &PassInput, scratch: &mut PlanScratch, plan: &mut Plan) {
    let n = input.devices.len();
    plan.splits.clear();
    plan.splits.resize(input.launches.len(), 0..0);
    plan.chunks.clear();
    let PlanScratch { issue, at, trial, shares, start, copy_free, envelope, from, rank, .. } =
        scratch;
    issue.clear();
    issue.extend(issue_order(input));
    Replay::at_flush(at, input);
    for (i, &l) in issue.iter().enumerate() {
        let home = plan.device[input.launches[l].queue];
        if let Ok(k) = input.splits.binary_search_by_key(&l, |s| s.launch) {
            // Per device: when a chunk there could start, and when its copy
            // lane is free for the gathers then.
            let need = input.launches[l].need;
            start.clear();
            copy_free.clear();
            for d in 0..n {
                Replay::copy_from(trial, at);
                let marker = Replay::marker(trial, input, l, home);
                let ready = Replay::fetch_all(trial, input, l, d, trial.lane[d]);
                let lanes = trial.lanes[d];
                start.push(eligible(input, d, need).then(|| lanes.compute.max(ready).max(marker)));
                copy_free.push(lanes.copy);
            }
            // Per device and share, when the chunk's last command ends.
            let total = input.splits[k].units;
            let chunk_end = |d: usize, w: u64| {
                let end = start[d]? + chunk_time(input, k, d, 0, w);
                let mut gathers = writes(input, l).map(|b| gather_time(input, b, d, w, total));
                Some(match gathers.next() {
                    None => end,
                    Some(first) => copy_free[d].max(end) + first + gathers.sum::<u64>(),
                })
            };
            // The search needs a price that never falls as the share grows.
            // The roofline's first wave does not give one — one more
            // workgroup can engage one more compute unit and end sooner —
            // so up to the share that fills a wave the price is the running
            // maximum over smaller shares, tabulated per device from
            // `from[d]`; past it, the most of that and the chunk's own end.
            envelope.clear();
            from.clear();
            for d in 0..n {
                from.push(envelope.len());
                let conc = input.specs[d].concurrent_workgroups.max(1);
                let mut most = 0;
                for w in 1..=total {
                    let Some(end) = chunk_end(d, w) else { break };
                    most = most.max(end);
                    envelope.push(most);
                    let (s, local) = (&input.splits[k], input.split_local[k * n + d]);
                    let shape = split::chunk_shape(s.global, s.local, s.axis, local, 0, w);
                    if shape.workgroups() >= u64::from(conc) {
                        break;
                    }
                }
            }
            from.push(envelope.len());
            let price = |d: usize, w: u64| {
                let table = &envelope[from[d]..from[d + 1]];
                match table.get(w as usize - 1) {
                    Some(&end) => Some(end),
                    None => Some(chunk_end(d, w)?.max(*table.last()?)),
                }
            };
            let mut replay = |chunks: &[split::Chunk]| {
                Replay::copy_from(trial, at);
                Replay::issue(
                    trial,
                    input,
                    l,
                    home,
                    Some((k, chunks)).filter(|_| !chunks.is_empty()),
                );
                for &r in &issue[i + 1..] {
                    Replay::issue(trial, input, r, plan.device[input.launches[r].queue], None);
                }
                (trial.end, trial.queue.iter().sum::<u64>())
            };
            // The launch whole, then its best shares over its own device
            // and those no queue is bound to (width 1), and over the
            // `width` devices that would run it whole soonest: a GPU runs a
            // share within one wave no faster than the wave, so spreading a
            // launch thin can end it a little sooner and the epoch later.
            rank.clear();
            rank.extend((0..n).filter(|&d| start[d].is_some()));
            rank.sort_by_key(|&d| (price(d, total), d));
            let mut end = replay(&[]);
            let first = plan.chunks.len();
            for width in 1..=rank.len() {
                let allowed = |d: usize| match width {
                    1 => d == home || !plan.device.contains(&d),
                    _ => rank[..width].contains(&d),
                };
                let finish = |d: usize, w: u64| price(d, w).filter(|_| allowed(d));
                split::balance(total, n, finish, shares);
                if shares.len() >= 2 {
                    let split = replay(shares);
                    if split < end {
                        end = split;
                        plan.chunks.truncate(first);
                        plan.chunks.extend_from_slice(shares);
                        plan.splits[l] = first..plan.chunks.len();
                    }
                }
            }
        }
        Replay::issue_planned(at, input, plan, l);
    }
    plan.predicted = Replay::predict(at, input, plan, issue.iter().copied());
}

/// The epoch's launches in issue order: each in-order queue's, then each
/// out-of-order queue's, queue by queue in pool order and each queue's in
/// program order. An out-of-order launch waits on its buffer hazards alone,
/// which program order satisfies.
pub fn issue_order(input: &PassInput) -> impl Iterator<Item = usize> + '_ {
    let queues = |ooo: bool| input.queues.iter().filter(move |q| q.out_of_order == ooo);
    queues(false).chain(queues(true)).flat_map(|q| q.launches.clone())
}

/// When the epoch `plan` issues ends by the time plane's rules, in ns from
/// the flush and from the devices and queues it finds, the host enqueuing
/// each command: [`decide`]'s prediction. Its split judgement replays the
/// same way without the host.
pub fn replayed_end(input: &PassInput, plan: &Plan) -> SimDuration {
    Replay::predict(&mut Replay::default(), input, plan, issue_order(input))
}

/// Launch `l`'s kernel time on column `d`, whole: its profile-row time with
/// the degradation a predicted row was made under divided out, else its
/// analytic time, stretched by the live degradation.
fn whole_time(input: &PassInput, l: usize, d: usize) -> u64 {
    let c = l * input.devices.len() + d;
    let live = input.degradation[d].max(1.0);
    let ns = match input.profiled[c] {
        SimDuration::ZERO => input.kernel_time[c].as_nanos() as f64 * live,
        p => {
            let under = input.profiled_under.binary_search_by_key(&c, |u| u.0);
            p.as_nanos() as f64 * live / under.map_or(1.0, |i| input.profiled_under[i].1.max(1.0))
        }
    };
    ns.round() as u64
}

/// Split `k`'s chunk of `count` units from unit `offset` on column `d`: the
/// cost model at the chunk's own shape, scaled as the whole launch's time
/// there is to its analytic time.
fn chunk_time(input: &PassInput, k: usize, d: usize, offset: u64, count: u64) -> u64 {
    let (s, n) = (&input.splits[k], input.devices.len());
    let local = input.split_local[k * n + d];
    let shape = split::chunk_shape(s.global, s.local, s.axis, local, offset, count);
    let analytic = s.cost.kernel_time(&input.specs[d], shape).as_nanos() as f64;
    let scale = match input.kernel_time[s.launch * n + d].as_nanos() {
        0 => input.degradation[d].max(1.0),
        whole => whole_time(input, s.launch, d) as f64 / whole as f64,
    };
    (analytic * scale).round() as u64
}

/// A host-link transfer of `bytes` to or from column `d`.
fn link_time(input: &PassInput, d: usize, bytes: u64) -> u64 {
    input.links[d].predict_time(bytes).as_nanos()
}

/// The gather of a `count`-unit share of a `units`-unit launch's writes to
/// buffer slot `b`, from column `d`.
fn gather_time(input: &PassInput, b: usize, d: usize, count: u64, units: u64) -> u64 {
    link_time(input, d, (input.bytes[b] * count / units).max(1))
}

/// The buffer slots launch `l` may write.
fn writes(input: &PassInput, l: usize) -> impl Iterator<Item = usize> + '_ {
    input.touches[input.launches[l].touches.clone()].iter().filter(|t| t.write).map(|t| t.buffer)
}

/// An epoch's issue replayed through the time plane's rules, in ns from the
/// flush, on each column's [`Lanes`]: decide's one clock. What a launch
/// waits on is its buffer hazards (RAW, and WAR/WAW for a write), whichever
/// queue issued them — per buffer, the last writer's and the last access's
/// ends — and, in order, its queue's previous command. The prediction also
/// clocks the host: there no command starts before the host has enqueued
/// it and every one before it ([`PassInput::enqueue`] each). A whole launch
/// makes its buffers valid on its device once that has ended (a copy-lane
/// transfer each) and then runs its kernel. A split issues a start marker
/// on the home compute lane; per chunk, its input transfers, its kernel at
/// its own size and a share-sized gather per written buffer, chained on the
/// device's split lane; and the join on the home compute lane, which leaves
/// every written buffer on the host alone.
#[derive(Debug, Default)]
struct Replay {
    /// Per column: its two lanes, and when its split lane's last command
    /// ends.
    lanes: Vec<Lanes>,
    lane: Vec<u64>,
    /// Per queue: when its last command ends.
    queue: Vec<u64>,
    /// Per buffer slot: where a copy of it comes from, as
    /// [`PassInput::source`] (a column a whole launch wrote it on, or the
    /// host, where a split's join or a staged move leaves it), and when
    /// its last writer and its last access end.
    source: Vec<Option<usize>>,
    written: Vec<u64>,
    accessed: Vec<u64>,
    /// Per buffer slot and column: valid there, at the snapshot or made
    /// valid by the replay.
    moved: Vec<bool>,
    /// When the host has enqueued the last command, and what one more
    /// costs: zero but in the prediction.
    host: u64,
    enqueue: u64,
    /// When the last command ends.
    end: u64,
}

impl Replay {
    /// The replay of nothing yet issued, on idle lanes and queues, from the
    /// snapshot's residency.
    fn idle(r: &mut Replay, input: &PassInput) {
        let (n, buffers) = (input.devices.len(), input.bytes.len());
        r.lanes.clear();
        r.lanes.resize(n, Lanes::default());
        r.lane.clear();
        r.lane.resize(n, 0);
        r.queue.clear();
        r.queue.resize(input.queues.len(), 0);
        r.source.clone_from(&input.source);
        for times in [&mut r.written, &mut r.accessed] {
            times.clear();
            times.resize(buffers, 0);
        }
        r.moved.clone_from(&input.valid);
        (r.host, r.enqueue) = (0, 0);
        r.end = 0;
    }

    /// The replay of nothing yet issued, from the lanes and queue tails the
    /// flush finds.
    fn at_flush(r: &mut Replay, input: &PassInput) {
        Replay::idle(r, input);
        r.lanes.copy_from_slice(&input.lanes);
        r.queue.iter_mut().zip(&input.queues).for_each(|(tail, q)| *tail = q.tail);
    }

    /// The `issue` of `plan` replayed from the flush, the host enqueuing
    /// each command: the prediction.
    fn predict(
        r: &mut Replay,
        input: &PassInput,
        plan: &Plan,
        issue: impl IntoIterator<Item = usize>,
    ) -> SimDuration {
        Replay::at_flush(r, input);
        r.enqueue = input.enqueue;
        issue.into_iter().for_each(|l| Replay::issue_planned(r, input, plan, l));
        SimDuration::from_nanos(r.end)
    }

    /// Become a copy of `other`, in the lists this one already has.
    fn copy_from(r: &mut Replay, other: &Replay) {
        r.lanes.clone_from(&other.lanes);
        r.lane.clone_from(&other.lane);
        r.queue.clone_from(&other.queue);
        r.source.clone_from(&other.source);
        r.written.clone_from(&other.written);
        r.accessed.clone_from(&other.accessed);
        r.moved.clone_from(&other.moved);
        (r.host, r.enqueue) = (other.host, other.enqueue);
        r.end = other.end;
    }

    /// The host enqueues one more command, ready at `ready`: when it can
    /// start.
    fn enqueued(r: &mut Replay, ready: u64) -> u64 {
        r.host += r.enqueue;
        ready.max(r.host)
    }

    /// Issue launch `l` of a queue bound to column `home`: whole, or as
    /// split `k`'s `chunks`.
    fn issue(
        r: &mut Replay,
        input: &PassInput,
        l: usize,
        home: usize,
        split: Option<(usize, &[split::Chunk])>,
    ) {
        let Some((k, chunks)) = split else { return Replay::whole(r, input, l, home) };
        let marker = Replay::marker(r, input, l, home);
        let touches = &input.touches[input.launches[l].touches.clone()];
        let mut ready = marker;
        for c in chunks {
            let d = c.device;
            let mut end = Replay::fetch_all(r, input, l, d, r.lane[d]).max(marker);
            end = Replay::enqueued(r, end);
            end =
                Lanes::run(&mut r.lanes[d], end, chunk_time(input, k, d, c.wg_offset, c.wg_count));
            for b in writes(input, l) {
                let gather = gather_time(input, b, d, c.wg_count, input.splits[k].units);
                end = Replay::enqueued(r, end);
                end = Lanes::stage(&mut r.lanes[d], end, gather);
            }
            for t in touches {
                r.accessed[t.buffer] = r.accessed[t.buffer].max(end);
            }
            r.lane[d] = end;
            ready = ready.max(end);
        }
        let ready = Replay::enqueued(r, ready);
        let join = Lanes::run(&mut r.lanes[home], ready, 0);
        r.queue[input.launches[l].queue] = join;
        r.end = r.end.max(join);
        let n = input.devices.len();
        for t in touches {
            r.accessed[t.buffer] = r.accessed[t.buffer].max(join);
            if t.write {
                r.written[t.buffer] = join;
                r.source[t.buffer] = None;
                r.moved[t.buffer * n..(t.buffer + 1) * n].fill(false);
            }
        }
    }

    /// Issue launch `l` as `plan` says.
    fn issue_planned(r: &mut Replay, input: &PassInput, plan: &Plan, l: usize) {
        let chunks = &plan.chunks[plan.splits[l].clone()];
        let k = input.splits.binary_search_by_key(&l, |s| s.launch).ok();
        let split = k.map(|k| (k, chunks)).filter(|_| !chunks.is_empty());
        Replay::issue(r, input, l, plan.device[input.launches[l].queue], split);
    }

    /// Launch `l` whole on column `d`.
    fn whole(r: &mut Replay, input: &PassInput, l: usize, d: usize) {
        let q = input.launches[l].queue;
        let chain = if input.queues[q].out_of_order { 0 } else { r.queue[q] };
        let ready = Replay::hazards(r, input, l, chain);
        let touches = &input.touches[input.launches[l].touches.clone()];
        let staged = Replay::fetch_all(r, input, l, d, ready);
        let staged = Replay::enqueued(r, staged);
        let end = Lanes::run(&mut r.lanes[d], staged, whole_time(input, l, d));
        r.queue[q] = r.queue[q].max(end);
        r.end = r.end.max(end);
        let n = input.devices.len();
        for t in touches {
            r.accessed[t.buffer] = r.accessed[t.buffer].max(end);
            if t.write {
                r.written[t.buffer] = end;
                r.source[t.buffer] = Some(d);
                r.moved[t.buffer * n..(t.buffer + 1) * n].fill(false);
                r.moved[t.buffer * n + d] = true;
            }
        }
    }

    /// Launch `l`'s split start marker on the home compute lane: after the
    /// queue's previous command and the launch's hazards. Returns its end.
    fn marker(r: &mut Replay, input: &PassInput, l: usize, home: usize) -> u64 {
        let q = input.launches[l].queue;
        let ready = Replay::hazards(r, input, l, r.queue[q]);
        let ready = Replay::enqueued(r, ready);
        r.queue[q] = Lanes::run(&mut r.lanes[home], ready, 0);
        r.queue[q]
    }

    /// When launch `l` may start after `chain`: once each buffer it touches
    /// has its last writer ended and, for a write, its last access too.
    fn hazards(r: &Replay, input: &PassInput, l: usize, chain: u64) -> u64 {
        let touches = &input.touches[input.launches[l].touches.clone()];
        touches
            .iter()
            .map(|t| if t.write { r.accessed[t.buffer] } else { r.written[t.buffer] })
            .fold(chain, u64::max)
    }

    /// Make launch `l`'s buffers valid on column `d`, in first-touch order,
    /// each transfer after `after` and the one before. Returns when the last
    /// ends (`after` if none moves).
    fn fetch_all(r: &mut Replay, input: &PassInput, l: usize, d: usize, after: u64) -> u64 {
        let touches = &input.touches[input.launches[l].touches.clone()];
        touches
            .iter()
            .fold(after, |chain, t| Replay::fetch(r, input, t.buffer, d, chain).unwrap_or(chain))
    }

    /// Make buffer slot `b` valid on column `d` after `after`, as the
    /// runtime moves it: an upload of the host copy on `d`'s copy lane, or
    /// first a download on its source column's, after which the host copy
    /// is valid. Returns when it ends, if anything moves.
    fn fetch(r: &mut Replay, input: &PassInput, b: usize, d: usize, after: u64) -> Option<u64> {
        if std::mem::replace(&mut r.moved[b * input.devices.len() + d], true) {
            return None;
        }
        let mut ready = Replay::enqueued(r, after);
        if let Some(o) = r.source[b].take() {
            ready = Lanes::stage(&mut r.lanes[o], ready, link_time(input, o, input.bytes[b]));
            ready = Replay::enqueued(r, ready);
        }
        let end = Lanes::stage(&mut r.lanes[d], ready, link_time(input, d, input.bytes[b]));
        r.accessed[b] = r.accessed[b].max(end);
        r.end = r.end.max(end);
        Some(end)
    }
}

/// A device's two engines as the time plane clocks them, in ns from the
/// flush: each runs its commands (copy: transfers, compute: kernels) in
/// issue order, a command once its lane is free and what it waits on ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lanes {
    /// When the copy lane comes free.
    pub copy: u64,
    /// When the compute lane comes free.
    pub compute: u64,
}

impl Lanes {
    /// A transfer of `ns` on the copy lane, ready at `ready`: its end.
    fn stage(l: &mut Lanes, ready: u64, ns: u64) -> u64 {
        l.copy = l.copy.max(ready) + ns;
        l.copy
    }

    /// A kernel or a marker of `ns` on the compute lane, ready at `ready`: its end.
    fn run(l: &mut Lanes, ready: u64, ns: u64) -> u64 {
        l.compute = l.compute.max(ready) + ns;
        l.compute
    }
}
