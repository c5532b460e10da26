//! Cross-feature property tests for the two execution hints over seeded
//! random command DAGs. Every arm of
//!
//! {in-order, out-of-order, split, split + out-of-order}
//!   × {one queue, three queues sharing the buffers}
//!   × {no fault, the first queue's device lost between the two epochs}
//!
//! must
//!
//! 1. leave final buffer contents **bit-identical** to a sequential host
//!    execution of the same program, and
//! 2. start no command in virtual time before every hazard-edge
//!    predecessor (RAW/WAR/WAW over the commands' buffer sets) has ended,
//!    on whichever queue — a split command's window running from its first
//!    chunk's start to its last chunk's end.
//!
//! A split arm splits every launch, except on three in-order queues: there
//! a split is kept only when the replayed epoch ends sooner (DESIGN.md
//! §16), so at least one launch splits, and two comparison runs hold the
//! judgement to account. Its split-everything variant, every launch issued
//! through `clrt`'s `enqueue_ndrange_split` on the same bindings, must meet
//! properties 1 and 2 too; and the arm's program must end no later than
//! that variant and than the same program run all whole.
//!
//! Kernels are deterministic f64 arithmetic confined to the sub-range they
//! are launched over, so any hazard the runtime failed to honor, and any
//! chunk that strayed, would corrupt the bit pattern of some buffer. The
//! initial contents are spread over the node's devices, so first touches
//! cost transfers an out-of-order queue can overlap with kernels.

use clrt::{ArgValue, CommandQueue, KernelBody, KernelCtx, NdRange, Platform};
use hwsim::xrand::XorShift;
use hwsim::{DeviceId, KernelCostSpec, KernelTraits, NodeConfig, SimDuration, SimTime};
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedOptions, SchedStats,
};
use std::collections::HashMap;
use std::sync::Arc;

/// 256 workgroups of 64: three waves on a GPU, so a split arm's launch
/// runs sooner in shares.
const ELEMENTS: usize = 16384;
const LOCAL: u64 = 64;
const BUFFERS: usize = 5;
const COMMANDS: usize = 24;
const EPOCHS: usize = 2;

/// `out[i] = out[i] * 0.5 + a[i] * scale + b[i]` — a read-modify-write mix
/// whose result depends on execution order whenever two commands touch the
/// same buffer.
fn mix(out: &mut [f64], a: &[f64], b: &[f64], scale: f64) {
    for ((o, a), b) in out.iter_mut().zip(a).zip(b) {
        *o = *o * 0.5 + a * scale + b;
    }
}

/// [`mix`] over the sub-range the launch owns (the offset-honoring contract
/// [`KernelBody::splittable`] requires).
struct Mix {
    name: String,
    scale: f64,
    cost: KernelCostSpec,
}

impl KernelBody for Mix {
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        3
    }
    fn cost(&self) -> KernelCostSpec {
        self.cost
    }
    fn splittable(&self) -> bool {
        true
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let base = ctx.global_offset()[0] as usize;
        let own = base..base + ctx.nd().global_items() as usize;
        let a: Vec<f64> = ctx.slice::<f64>(0)[own.clone()].to_vec();
        let b: Vec<f64> = ctx.slice::<f64>(1)[own.clone()].to_vec();
        mix(&mut ctx.slice_mut::<f64>(2)[own], &a, &b, self.scale);
    }
}

fn scale_of(index: usize) -> f64 {
    0.25 + (index as f64) * 0.03
}

/// One random command: kernel `k<index>` reading buffers `a`, `b` and
/// writing buffer `out`, enqueued on queue `queue` in epoch `epoch`.
#[derive(Debug, Clone, Copy)]
struct Cmd {
    a: usize,
    b: usize,
    out: usize,
    queue: usize,
    epoch: usize,
}

/// The program, in the order a sequential execution takes it: epoch by
/// epoch, within an epoch queue by queue (the pool order of a flush),
/// within a queue in enqueue order.
fn random_dag(seed: u64, queues: usize) -> Vec<Cmd> {
    let mut rng = XorShift::new(seed);
    let per_run = COMMANDS / (EPOCHS * queues);
    let mut cmds = Vec::with_capacity(COMMANDS);
    for epoch in 0..EPOCHS {
        for queue in 0..queues {
            for _ in 0..per_run {
                // Reads must not alias the written buffer: a kernel cannot
                // hold a shared and an exclusive view of the same storage.
                // The `out` self-term in `mix` still makes every command a
                // read-modify-write.
                let out = rng.index(BUFFERS);
                let a = (out + 1 + rng.index(BUFFERS - 1)) % BUFFERS;
                let b = (out + 1 + rng.index(BUFFERS - 1)) % BUFFERS;
                cmds.push(Cmd { a, b, out, queue, epoch });
            }
        }
    }
    cmds
}

fn initial_contents(seed: u64) -> Vec<Vec<f64>> {
    let mut init = XorShift::new(seed ^ 0xDEC0DE);
    (0..BUFFERS).map(|_| (0..ELEMENTS).map(|_| init.range_f64(-1.0, 1.0)).collect()).collect()
}

fn bits(buffers: impl IntoIterator<Item = Vec<f64>>) -> Vec<Vec<u64>> {
    buffers.into_iter().map(|b| b.iter().map(|v| v.to_bits()).collect()).collect()
}

/// The trivially correct executor: the program, one command after the
/// other, on host vectors.
fn sequential_reference(seed: u64, cmds: &[Cmd]) -> Vec<Vec<u64>> {
    let mut buffers = initial_contents(seed);
    for (i, c) in cmds.iter().enumerate() {
        let (a, b) = (buffers[c.a].clone(), buffers[c.b].clone());
        mix(&mut buffers[c.out], &a, &b, scale_of(i));
    }
    bits(buffers)
}

/// The hazard edges of the program by the textbook statement of data
/// dependence, written here from scratch rather than as another incremental
/// last-writer / readers tracker: `(i, j)` is an edge iff `i < j`, both
/// commands touch some buffer `b`, at least one of them writes `b`, and no
/// command strictly between them writes `b`. The runtime orders all of them
/// in virtual time, on either queue kind: the stamp hazards are per buffer,
/// not per queue.
fn expected_edges(cmds: &[Cmd]) -> Vec<(usize, usize)> {
    let touches = |c: &Cmd, b: usize| c.a == b || c.b == b || c.out == b;
    let mut edges = Vec::new();
    for i in 0..cmds.len() {
        for j in i + 1..cmds.len() {
            let dependent = (0..BUFFERS).any(|b| {
                touches(&cmds[i], b)
                    && touches(&cmds[j], b)
                    && (cmds[i].out == b || cmds[j].out == b)
                    && !cmds[i + 1..j].iter().any(|k| k.out == b)
            });
            if dependent {
                edges.push((i, j));
            }
        }
    }
    edges
}

fn scratch_options(tag: &str) -> SchedOptions {
    SchedOptions {
        profile_cache: ProfileCache::at(
            std::env::temp_dir().join(format!("multicl-ooo-test-{}-{tag}", std::process::id())),
        ),
        ..SchedOptions::default()
    }
}

const IN_ORDER: QueueSchedFlags = QueueSchedFlags::NONE;
const OOO: QueueSchedFlags = QueueSchedFlags::SCHED_OUT_OF_ORDER;
const SPLIT: QueueSchedFlags = QueueSchedFlags::SCHED_SPLITTABLE;

/// The four execution arms: (label, hints).
fn arms() -> [(&'static str, QueueSchedFlags); 4] {
    [("in-order", IN_ORDER), ("ooo", OOO), ("split", SPLIT), ("split+ooo", SPLIT | OOO)]
}

struct ArmResult {
    /// Final bit pattern of every buffer.
    buffers: Vec<Vec<u64>>,
    /// Each command's virtual-time window by kernel name: first start to
    /// last end over its kernel records (one for a whole launch, one per
    /// chunk for a split one).
    windows: HashMap<String, (SimTime, SimTime)>,
    stats: SchedStats,
    /// Kernel records that started on the lost device at or after the loss.
    ran_on_lost_device: usize,
    /// The device each queue was bound to, per epoch.
    bound: Vec<Vec<DeviceId>>,
}

impl ArmResult {
    /// The executed program's span: the first command's start to the last
    /// one's end.
    fn span(&self) -> SimDuration {
        let start = self.windows.values().map(|w| w.0).min().expect("commands ran");
        let end = self.windows.values().map(|w| w.1).max().expect("commands ran");
        end - start
    }
}

/// The node of a split arm and of its two comparison runs: the paper node
/// with three spare GPUs, so that a split has idle devices whichever queue
/// issues it, the loss included.
fn split_node() -> NodeConfig {
    let mut node = NodeConfig::paper_node();
    for _ in 0..3 {
        node.devices.push(node.devices[2].clone());
        node.topology.device_links.push(node.topology.device_links[2]);
    }
    node
}

/// The cost of every kernel: compute-bound in a split arm and its
/// comparison runs, so that a split pays for its transfers.
fn kernel_cost(heavy: bool) -> KernelCostSpec {
    match heavy {
        true => KernelCostSpec::compute_bound(20_000.0),
        false => KernelCostSpec {
            flops_per_item: 4.0,
            bytes_per_item: 24.0,
            traits: KernelTraits::default(),
        },
    }
}

fn bodies(cmds: &[Cmd], heavy: bool) -> Vec<Arc<dyn KernelBody>> {
    let cost = kernel_cost(heavy);
    (0..cmds.len())
        .map(|i| {
            let mix = Mix { name: format!("k{i}"), scale: scale_of(i), cost };
            Arc::new(mix) as Arc<dyn KernelBody>
        })
        .collect()
}

/// The program's command windows by kernel name (the device profile's
/// measuring kernels left out), and how many kernel records started
/// on `lost`'s device at or after its loss.
fn windows_of(
    trace: &hwsim::Trace,
    lost: Option<(DeviceId, SimTime)>,
) -> (HashMap<String, (SimTime, SimTime)>, usize) {
    let mut windows: HashMap<String, (SimTime, SimTime)> = HashMap::new();
    let mut ran_on_lost_device = 0;
    for r in &trace.records {
        let hwsim::engine::CommandKind::Kernel { name } = &r.kind else { continue };
        if r.tag_starts_with("device-profiling") {
            continue;
        }
        let w = windows.entry(name.to_string()).or_insert((r.stamp.start, r.stamp.end));
        *w = (w.0.min(r.stamp.start), w.1.max(r.stamp.end));
        if lost.is_some_and(|(victim, at)| r.device == victim && r.stamp.start >= at) {
            ran_on_lost_device += 1;
        }
    }
    (windows, ran_on_lost_device)
}

/// Run the program on a fresh platform over `queues` queues carrying
/// `hints`; `lose` takes away, between the two epochs, the device the
/// first queue was mapped to.
fn run_arm(seed: u64, queues: usize, hints: QueueSchedFlags, lose: bool, tag: &str) -> ArmResult {
    run_scheduled(seed, queues, hints, hints.contains(SPLIT), lose, tag)
}

/// [`run_arm`] on a split arm's node and kernels (`heavy`) or the plain
/// ones, whatever the hints.
fn run_scheduled(
    seed: u64,
    queues: usize,
    hints: QueueSchedFlags,
    heavy: bool,
    lose: bool,
    tag: &str,
) -> ArmResult {
    let cmds = random_dag(seed, queues);
    let platform = Platform::new(if heavy { split_node() } else { NodeConfig::paper_node() });
    let ctx =
        MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, scratch_options(tag))
            .expect("context");
    let pool: Vec<_> = (0..queues)
        .map(|_| ctx.create_queue(QueueSchedFlags::SCHED_AUTO_STATIC | hints).expect("queue"))
        .collect();

    // Initial contents live on different devices, whatever the layout.
    let devices = ctx.cl().devices().to_vec();
    let buffers: Vec<clrt::Buffer> = initial_contents(seed)
        .iter()
        .enumerate()
        .map(|(i, data)| {
            let buf = ctx.create_buffer_of::<f64>(ELEMENTS).expect("buffer");
            let staging = ctx.create_queue_on(devices[i % devices.len()]).expect("staging queue");
            staging.enqueue_write(&buf, data).expect("write");
            staging.finish();
            buf
        })
        .collect();

    let program = ctx.create_program(bodies(&cmds, heavy)).expect("program");
    let mut lost: Option<(DeviceId, SimTime)> = None;
    let mut bound = Vec::with_capacity(EPOCHS);
    for epoch in 0..EPOCHS {
        for (i, c) in cmds.iter().enumerate().filter(|(_, c)| c.epoch == epoch) {
            let k = program.create_kernel(&format!("k{i}")).expect("kernel");
            k.set_arg(0, ArgValue::Buffer(buffers[c.a].clone())).unwrap();
            k.set_arg(1, ArgValue::Buffer(buffers[c.b].clone())).unwrap();
            k.set_arg(2, ArgValue::BufferMut(buffers[c.out].clone())).unwrap();
            pool[c.queue]
                .enqueue_ndrange(&k, NdRange::d1(ELEMENTS as u64, LOCAL))
                .expect("enqueue");
        }
        ctx.finish_all();
        bound.push(pool.iter().map(|q| q.device()).collect());
        // Lost as of *now*: the next epoch boundary must detect the loss,
        // evacuate, and leave no hazard stamp or residency entry behind on
        // the dead device.
        if epoch == 0 && lose {
            let (victim, now) = (pool[0].device(), platform.now());
            lost = Some((victim, now));
            platform.with_engine(|e| {
                e.set_fault_plan(hwsim::FaultPlan::new(seed).lose_device(victim, now))
            });
        }
    }

    let snapshots = bits(buffers.iter().map(|b| b.host_snapshot::<f64>()));
    let (windows, ran_on_lost_device) = windows_of(&platform.take_trace(), lost);
    ArmResult { buffers: snapshots, windows, stats: ctx.stats(), ran_on_lost_device, bound }
}

/// The split-everything variant of the three-queue in-order split arm,
/// issued through `clrt` directly: in each epoch every queue on the device
/// the scheduled arm bound it to (`bound`), and every launch split by
/// `enqueue_ndrange_split` over its home device and each live device no
/// queue is bound to, in shares proportional to each device's speed on it.
/// `lose` takes the scheduled arm's victim away between the epochs.
fn run_split_everything(seed: u64, bound: &[Vec<DeviceId>], lose: bool) -> ArmResult {
    let cmds = random_dag(seed, bound[0].len());
    let platform = Platform::new(split_node());
    let ctx = platform.create_context_all().expect("context");
    let devices = ctx.devices().to_vec();
    let buffers: Vec<clrt::Buffer> = initial_contents(seed)
        .iter()
        .enumerate()
        .map(|(i, data)| {
            let buf = ctx.create_buffer_of::<f64>(ELEMENTS).expect("buffer");
            let staging = ctx.create_queue(devices[i % devices.len()]).expect("staging queue");
            staging.enqueue_write(&buf, data).expect("write");
            staging.finish();
            buf
        })
        .collect();
    let program = ctx.create_program(bodies(&cmds, true)).expect("program");
    program.build(0).expect("build");
    // One in-order split lane per device, as the scheduler keeps them.
    let lanes: Vec<CommandQueue> =
        devices.iter().map(|&d| ctx.create_queue(d).expect("lane")).collect();
    let whole = NdRange::d1(ELEMENTS as u64, LOCAL);
    let units = ELEMENTS as u64 / LOCAL;
    let cost = kernel_cost(true);
    let mut lost: Option<(DeviceId, SimTime)> = None;
    for (epoch, homes) in bound.iter().enumerate() {
        let queues: Vec<CommandQueue> =
            homes.iter().map(|&d| ctx.create_queue(d).expect("home")).collect();
        for (i, c) in cmds.iter().enumerate().filter(|(_, c)| c.epoch == epoch) {
            let home = homes[c.queue];
            let spare =
                devices.iter().filter(|d| !homes.contains(d) && Some(**d) != lost.map(|l| l.0));
            let over: Vec<DeviceId> = std::iter::once(home).chain(spare.copied()).collect();
            let speed: Vec<f64> = over
                .iter()
                .map(|&d| {
                    1.0 / cost.kernel_time(platform.node().spec(d), whole.shape()).as_secs_f64()
                })
                .collect();
            let chunks: Vec<(CommandQueue, u64)> = over
                .iter()
                .zip(proportional_shares(units, &speed))
                .filter(|(_, n)| *n > 0)
                .map(|(&d, n)| (lanes[d.index()].clone(), n))
                .collect();
            assert!(chunks.len() >= 2, "k{i} splits over {chunks:?}");
            let k = program.create_kernel(&format!("k{i}")).expect("kernel");
            k.set_arg(0, ArgValue::Buffer(buffers[c.a].clone())).unwrap();
            k.set_arg(1, ArgValue::Buffer(buffers[c.b].clone())).unwrap();
            k.set_arg(2, ArgValue::BufferMut(buffers[c.out].clone())).unwrap();
            let args = k.snapshot_args().expect("args");
            queues[c.queue].enqueue_ndrange_split(&k, whole, &args, &chunks).expect("split");
        }
        for q in queues.iter().chain(&lanes) {
            q.finish();
        }
        if epoch == 0 && lose {
            let (victim, now) = (homes[0], platform.now());
            lost = Some((victim, now));
            platform.with_engine(|e| {
                e.set_fault_plan(hwsim::FaultPlan::new(seed).lose_device(victim, now))
            });
        }
    }
    let snapshots = bits(buffers.iter().map(|b| b.host_snapshot::<f64>()));
    let (windows, ran_on_lost_device) = windows_of(&platform.take_trace(), lost);
    let stats = SchedStats::default();
    ArmResult { buffers: snapshots, windows, stats, ran_on_lost_device, bound: bound.to_vec() }
}

/// `units` dealt in proportion to `weights`: each its floor, then one more
/// to the largest remainders.
fn proportional_shares(units: u64, weights: &[f64]) -> Vec<u64> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| units as f64 * w / total).collect();
    let mut shares: Vec<u64> = exact.iter().map(|x| x.floor() as u64).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let dealt: u64 = shares.iter().sum();
    for &i in by_remainder.iter().cycle().take((units - dealt) as usize) {
        shares[i] += 1;
    }
    shares
}

/// Assert that no command in `run` started before a hazard predecessor it
/// is ordered against (`edges`) ended.
fn assert_hazards_honored(what: &str, edges: &[(usize, usize)], run: &ArmResult) {
    for &(i, j) in edges {
        let (_, end_i) = run.windows[&format!("k{i}")];
        let (start_j, _) = run.windows[&format!("k{j}")];
        assert!(
            start_j >= end_i,
            "{what}: k{j} started at {start_j} before hazard predecessor k{i} ended at {end_i}"
        );
    }
}

#[test]
fn every_mode_layout_and_fault_arm_matches_the_sequential_reference() {
    // Judged arms that end later than a comparison run, reported after
    // every arm has been checked for the rest.
    let mut later: Vec<String> = Vec::new();
    for seed in [3, 11, 42, 99, 1337, 2024] {
        for queues in [1, 3] {
            let cmds = random_dag(seed, queues);
            let reference = sequential_reference(seed, &cmds);
            for (arm, hints) in arms() {
                let edges = expected_edges(&cmds);
                assert!(!edges.is_empty(), "seed {seed} produced a hazard-free DAG");
                for lose in [false, true] {
                    let what = format!("seed {seed}, {queues} queue(s), {arm}, loss {lose}");
                    let tag = format!("{seed}-{queues}-{arm}");
                    let run = run_arm(seed, queues, hints, lose, &tag);
                    assert_eq!(run.buffers, reference, "{what}: buffers diverged");
                    // The loss is detected, the queue bound there evacuated,
                    // and nothing runs on the dead device afterwards.
                    assert_eq!(run.stats.devices_lost, u64::from(lose), "{what}");
                    assert_eq!(run.stats.queues_remapped > 0, lose, "{what}: {:?}", run.stats);
                    assert_eq!(run.ran_on_lost_device, 0, "{what}: kernels on the dead device");
                    assert_hazards_honored(&what, &edges, &run);
                    if hints != SPLIT || queues == 1 {
                        // Every launch is big enough to split, and is.
                        let split = if hints.contains(SPLIT) { COMMANDS as u64 } else { 0 };
                        assert_eq!(run.stats.kernels_split, split, "{what}: launches split");
                        continue;
                    }
                    // Three in-order queues: a split is kept only when the
                    // replayed epoch ends sooner, and some launches run
                    // whole. Their split chunks are still covered, by the
                    // split-everything variant, issued directly.
                    assert!(run.stats.kernels_split >= 1, "{what}: no launch split");
                    let every = run_split_everything(seed, &run.bound, lose);
                    let every_what = format!("{what}, split everything");
                    assert_eq!(every.buffers, reference, "{every_what}: buffers diverged");
                    assert_eq!(
                        every.ran_on_lost_device, 0,
                        "{every_what}: kernels on the dead device"
                    );
                    assert_hazards_honored(&every_what, &edges, &every);
                    // And the judged plan is worth its judgement: the program
                    // ends no later than all whole or all split.
                    let whole =
                        run_scheduled(seed, queues, IN_ORDER, true, lose, &format!("{tag}-whole"));
                    assert_eq!(whole.buffers, reference, "{what}, all whole: buffers diverged");
                    for (than, other) in [("all whole", &whole), ("split everything", &every)] {
                        let (span, other_span) = (run.span().as_nanos(), other.span().as_nanos());
                        if span > other_span {
                            later.push(format!(
                                "{what}: ends after {span} ns, {than} after {other_span} ns"
                            ));
                        }
                    }
                }
            }
        }
    }
    assert!(later.is_empty(), "judged arms later than a comparison run:\n{}", later.join("\n"));
}

#[test]
fn unflagged_queues_replay_byte_identically() {
    // The hints off ⇒ the in-order chain is preserved exactly: two same-seed
    // runs produce identical traces (same kernels, same virtual windows).
    let a = run_arm(5, 1, IN_ORDER, false, "replay-a");
    let b = run_arm(5, 1, IN_ORDER, false, "replay-b");
    assert_eq!(a.buffers, b.buffers);
    assert_eq!(a.windows, b.windows);
}
