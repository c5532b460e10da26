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
//!    predecessor (RAW/WAR/WAW over the commands' buffer sets) it is
//!    ordered against has ended — a split command's window running from its
//!    first chunk's start to its last chunk's end.
//!
//! Kernels are deterministic f64 arithmetic confined to the sub-range they
//! are launched over, so any hazard the runtime failed to honor, and any
//! chunk that strayed, would corrupt the bit pattern of some buffer. The
//! initial contents are spread over the node's devices, so first touches
//! cost transfers and Johnson's rule has something to reorder.

use clrt::{ArgValue, KernelBody, KernelCtx, NdRange, Platform};
use hwsim::xrand::XorShift;
use hwsim::{DeviceId, KernelCostSpec, KernelTraits, SimTime};
use multicl::ooo::{hazard_edges, BatchCmd};
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedOptions, SchedStats,
};
use std::collections::HashMap;
use std::sync::Arc;

/// 16 workgroups of 64: enough for the splitter to take every launch.
const ELEMENTS: usize = 1024;
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
}

impl KernelBody for Mix {
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        3
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec {
            flops_per_item: 4.0,
            bytes_per_item: 24.0,
            traits: KernelTraits::default(),
        }
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

/// The hazard edges of the program, mirroring the scheduler's access-set
/// derivation (the written buffer wins over a same-buffer read).
fn expected_edges(cmds: &[Cmd]) -> Vec<(usize, usize)> {
    let batch: Vec<BatchCmd> = cmds
        .iter()
        .map(|c| {
            let writes = vec![c.out as u64];
            let mut reads: Vec<u64> = vec![c.a as u64, c.b as u64];
            reads.dedup();
            reads.retain(|r| *r != c.out as u64);
            BatchCmd {
                reads,
                writes,
                transfer: hwsim::SimDuration::ZERO,
                kernel: hwsim::SimDuration::ZERO,
            }
        })
        .collect();
    hazard_edges(&batch)
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
}

/// Run the program on a fresh platform over `queues` queues carrying
/// `hints`; `lose` takes away, between the two epochs, the device the
/// first queue was mapped to.
fn run_arm(seed: u64, queues: usize, hints: QueueSchedFlags, lose: bool, tag: &str) -> ArmResult {
    let cmds = random_dag(seed, queues);
    let platform = Platform::paper_node();
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

    let bodies: Vec<Arc<dyn KernelBody>> = (0..cmds.len())
        .map(|i| Arc::new(Mix { name: format!("k{i}"), scale: scale_of(i) }) as Arc<dyn KernelBody>)
        .collect();
    let program = ctx.create_program(bodies).expect("program");
    let mut lost: Option<(DeviceId, SimTime)> = None;
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
    let trace = platform.take_trace();
    let mut windows: HashMap<String, (SimTime, SimTime)> = HashMap::new();
    let mut ran_on_lost_device = 0;
    for r in &trace.records {
        let hwsim::engine::CommandKind::Kernel { name } = &r.kind else { continue };
        let w = windows.entry(name.to_string()).or_insert((r.stamp.start, r.stamp.end));
        *w = (w.0.min(r.stamp.start), w.1.max(r.stamp.end));
        if lost.is_some_and(|(victim, at)| r.device == victim && r.stamp.start >= at) {
            ran_on_lost_device += 1;
        }
    }
    ArmResult { buffers: snapshots, windows, stats: ctx.stats(), ran_on_lost_device }
}

/// The hazard edges the runtime orders in virtual time under `hints`: all
/// of them on out-of-order queues — the stamp hazards are per buffer, not
/// per queue — and, on in-order queues, those between commands of one
/// queue (as in OpenCL, commands on distinct in-order queues have no
/// defined mutual order short of an event or a synchronization).
fn ordered_edges(cmds: &[Cmd], hints: QueueSchedFlags) -> Vec<(usize, usize)> {
    let mut edges = expected_edges(cmds);
    if !hints.contains(OOO) {
        edges.retain(|&(i, j)| cmds[i].queue == cmds[j].queue);
    }
    edges
}

#[test]
fn every_mode_layout_and_fault_arm_matches_the_sequential_reference() {
    for seed in [3, 11, 42, 99, 1337, 2024] {
        for queues in [1, 3] {
            let cmds = random_dag(seed, queues);
            let reference = sequential_reference(seed, &cmds);
            for (arm, hints) in arms() {
                let edges = ordered_edges(&cmds, hints);
                assert!(!edges.is_empty(), "seed {seed} produced a hazard-free DAG");
                for lose in [false, true] {
                    let what = format!("seed {seed}, {queues} queue(s), {arm}, loss {lose}");
                    let run = run_arm(seed, queues, hints, lose, &format!("{seed}-{queues}-{arm}"));
                    assert_eq!(run.buffers, reference, "{what}: buffers diverged");
                    // The loss is detected, the queue bound there evacuated,
                    // and nothing runs on the dead device afterwards.
                    assert_eq!(run.stats.devices_lost, u64::from(lose), "{what}");
                    assert_eq!(run.stats.queues_remapped > 0, lose, "{what}: {:?}", run.stats);
                    assert_eq!(run.ran_on_lost_device, 0, "{what}: kernels on the dead device");
                    // Every launch is big enough to split, and is.
                    let split = if hints.contains(SPLIT) { COMMANDS as u64 } else { 0 };
                    assert_eq!(run.stats.kernels_split, split, "{what}: {:?}", run.stats);
                    for &(i, j) in &edges {
                        let (_, end_i) = run.windows[&format!("k{i}")];
                        let (start_j, _) = run.windows[&format!("k{j}")];
                        assert!(
                            start_j >= end_i,
                            "{what}: k{j} started at {start_j} before hazard predecessor \
                             k{i} ended at {end_i}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn johnsons_rule_reorders_first_touch_transfers() {
    // The property above is only as strong as the reordering it survives:
    // with the inputs spread over the devices, the out-of-order arms must
    // actually emit commands out of program order.
    for (arm, hints) in [("ooo", OOO), ("split+ooo", SPLIT | OOO)] {
        let reordered: u64 = [3, 11, 42]
            .iter()
            .map(|&seed| run_arm(seed, 3, hints, false, &format!("reorder-{arm}-{seed}")))
            .map(|run| run.stats.commands_reordered)
            .sum();
        assert!(reordered > 0, "{arm}: no command was ever reordered");
    }
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
