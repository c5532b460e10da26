//! End-to-end properties of `SCHED_SPLITTABLE` queues:
//!
//! 1. result buffers are **bit-identical** split vs. unsplit — chunk
//!    placement may differ, the arithmetic may not;
//! 2. the `KernelSplit` accounting is exact: per-device workgroup shares
//!    sum to the launch's total;
//! 3. a device too slow to help gets no work, and a degraded device gets a
//!    smaller share — not slowed twice when it was profiled degraded — and
//!    no chunk ever moves off the device it was sized for;
//! 4. a launch splits only when its epoch ends sooner: a narrow one whose
//!    half costs as much as all of it on the CPU, and an EP-shaped epoch
//!    with an idle CPU, end no later than whole;
//! 5. with the flag unset, same-seed runs replay byte-identically and no
//!    split telemetry is emitted.

use clrt::{ArgValue, KernelBody, KernelCtx, NdRange, Platform};
use hwsim::xrand::XorShift;
use hwsim::{DeviceId, FaultPlan, KernelCostSpec, KernelTraits, NodeConfig, SimTime};
use multicl::telemetry::RingBufferSink;
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedEvent, SchedOptions,
    SchedStats,
};
use std::collections::HashMap;
use std::sync::Arc;

/// 1 024 workgroups: ten waves on a GPU, so a share of the launch runs in
/// fewer of them.
const ELEMENTS: u64 = 1 << 16;
const LOCAL: u64 = 64;

/// `out[i] = a[i] * scale + i`, confined to the sub-range this execution
/// owns — the offset-honoring contract [`KernelBody::splittable`] requires.
struct Axpy {
    name: String,
    scale: f64,
    cost: KernelCostSpec,
}

impl Axpy {
    /// The kernel most tests split: compute-bound enough that a split
    /// pays for its transfers.
    fn new(name: &str, scale: f64) -> Axpy {
        Axpy { name: name.to_string(), scale, cost: KernelCostSpec::compute_bound(20_000.0) }
    }
}

impl KernelBody for Axpy {
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        2
    }
    fn cost(&self) -> KernelCostSpec {
        self.cost
    }
    fn splittable(&self) -> bool {
        true
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let base = ctx.global_offset()[0] as usize;
        let n = ctx.nd().global_items() as usize;
        let a: Vec<f64> = ctx.slice::<f64>(0)[base..base + n].to_vec();
        let out = ctx.slice_mut::<f64>(1);
        for i in 0..n {
            out[base + i] = a[i] * self.scale + (base + i) as f64;
        }
    }
}

fn scratch_options(tag: &str) -> SchedOptions {
    SchedOptions {
        profile_cache: ProfileCache::at(
            std::env::temp_dir().join(format!("multicl-split-test-{}-{tag}", std::process::id())),
        ),
        ..SchedOptions::default()
    }
}

struct Arm {
    /// Bit pattern of the output buffer after `finish_all`.
    out_bits: Vec<u64>,
    stats: SchedStats,
    events: Vec<SchedEvent>,
    /// Each kernel command's `(start, end)` virtual-time window by name.
    windows: HashMap<String, Vec<(SimTime, SimTime)>>,
}

/// Per-device workgroups summed over every `KernelSplit` event.
fn split_shares(events: &[SchedEvent]) -> Vec<u64> {
    let mut sum = Vec::new();
    for e in events {
        if let SchedEvent::KernelSplit { wgs_per_device, .. } = e {
            sum.resize(wgs_per_device.len(), 0);
            for (acc, w) in sum.iter_mut().zip(wgs_per_device) {
                *acc += w;
            }
        }
    }
    sum
}

/// Run two Axpy launches of one kernel, one sync epoch each, on one
/// queue. `degrade` slows a device from the second epoch on, after the
/// first epoch profiled the kernel at full speed.
fn run_arm(seed: u64, flags: QueueSchedFlags, degrade: Option<(DeviceId, f64)>, tag: &str) -> Arm {
    let platform = Platform::paper_node();
    let sink = Arc::new(RingBufferSink::new(4096));
    let mut options = scratch_options(tag);
    options.observers = vec![sink.clone()];
    let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
        .expect("context");
    let queue = ctx.create_queue(flags).expect("queue");

    let mut init = XorShift::new(seed);
    let a = ctx.create_buffer_of::<f64>(ELEMENTS as usize).expect("input");
    let out = ctx.create_buffer_of::<f64>(ELEMENTS as usize).expect("output");
    let data: Vec<f64> = (0..ELEMENTS).map(|_| init.range_f64(-4.0, 4.0)).collect();
    queue.enqueue_write(&a, &data).expect("write input");
    queue.enqueue_write(&out, &vec![0.0f64; ELEMENTS as usize]).expect("write output");

    let body = Arc::new(Axpy::new("axpy", 1.5)) as Arc<dyn KernelBody>;
    let k = ctx.create_program(vec![body]).expect("program").create_kernel("axpy").expect("kernel");
    k.set_arg(0, ArgValue::Buffer(a.clone())).unwrap();
    k.set_arg(1, ArgValue::BufferMut(out.clone())).unwrap();
    for epoch in 0..2 {
        if let (1, Some((dev, factor))) = (epoch, degrade) {
            let at = platform.now();
            platform.with_engine(|e| {
                e.set_fault_plan(FaultPlan::new(seed).degrade_device(dev, factor, at))
            });
        }
        queue.enqueue_ndrange(&k, NdRange::d1(ELEMENTS, LOCAL)).expect("enqueue");
        // One launch per sync epoch: the second runs against the warm
        // profile row the first epoch measured.
        ctx.finish_all();
    }

    let out_bits: Vec<u64> = out.host_snapshot::<f64>().iter().map(|v| v.to_bits()).collect();
    let trace = platform.take_trace();
    let mut windows: HashMap<String, Vec<(SimTime, SimTime)>> = HashMap::new();
    for r in &trace.records {
        if let hwsim::engine::CommandKind::Kernel { name } = &r.kind {
            windows.entry(name.to_string()).or_default().push((r.stamp.start, r.stamp.end));
        }
    }
    Arm { out_bits, stats: ctx.stats(), events: sink.drain(), windows }
}

const SPLIT: QueueSchedFlags = QueueSchedFlags::SCHED_SPLITTABLE;

fn split_flags() -> QueueSchedFlags {
    QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_SPLITTABLE
}

#[test]
fn split_results_are_bit_identical_to_unsplit() {
    let baseline = run_arm(42, QueueSchedFlags::SCHED_AUTO_DYNAMIC, None, "base");
    assert_eq!(baseline.stats.kernels_split, 0);
    let split = run_arm(42, split_flags(), None, "split");
    assert_eq!(split.out_bits, baseline.out_bits, "split output diverged from the unsplit run");
    assert!(split.stats.kernels_split >= 1, "no launch was actually split ({:?})", split.stats);
    // The split run executed each logical kernel as several chunk commands
    // on more than one device.
    let chunk_launches: usize = split.windows.values().map(Vec::len).sum();
    let whole_launches: usize = baseline.windows.values().map(Vec::len).sum();
    assert!(
        chunk_launches > whole_launches,
        "expected more kernel commands than the whole-launch run \
         ({chunk_launches} vs {whole_launches})"
    );
}

#[test]
fn kernel_split_accounting_is_exact() {
    let arm = run_arm(7, split_flags(), None, "accounting");
    let splits: Vec<&SchedEvent> =
        arm.events.iter().filter(|e| matches!(e, SchedEvent::KernelSplit { .. })).collect();
    assert_eq!(splits.len() as u64, arm.stats.kernels_split);
    assert!(!splits.is_empty(), "no KernelSplit events recorded");
    for ev in splits {
        let SchedEvent::KernelSplit { total_wgs, chunks, wgs_per_device, .. } = ev else {
            unreachable!()
        };
        assert_eq!(*total_wgs, ELEMENTS / LOCAL);
        assert!(*chunks >= 2, "a split launch must have at least two chunks");
        assert_eq!(
            wgs_per_device.iter().sum::<u64>(),
            *total_wgs,
            "per-device shares must sum to the launch total"
        );
        assert_eq!(
            wgs_per_device.iter().filter(|&&w| w > 0).count() as u64,
            *chunks,
            "one chunk per device with a share: {wgs_per_device:?}"
        );
    }
}

#[test]
fn a_device_whose_share_rounds_to_zero_gets_no_work() {
    // The CPU (device 0) runs 50x below its spec, so its exact share of an
    // 8- or 16-workgroup launch is a fraction of one workgroup. It must get
    // nothing — not another device's chunk.
    for wgs in [8u64, 16] {
        // A third GPU, idle: two GPUs run 16 workgroups in one wave no
        // slower than 8, so only three make a split pay.
        let mut node = NodeConfig::paper_node();
        node.devices.push(node.devices[2].clone());
        node.topology.device_links.push(node.topology.device_links[2]);
        let cpu = &mut node.devices[0];
        cpu.peak_gflops /= 50.0;
        cpu.peak_gflops_dp /= 50.0;
        cpu.mem_bandwidth_gbs /= 50.0;
        let platform = Platform::new(node);
        let sink = Arc::new(RingBufferSink::new(4096));
        let mut options = scratch_options(&format!("slow-cpu-{wgs}"));
        options.observers = vec![sink.clone()];
        let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
            .expect("context");
        let queue = ctx.create_queue(split_flags()).expect("queue");
        let n = (wgs * LOCAL) as usize;
        let a = ctx.create_buffer_of::<f64>(n).expect("input");
        let out = ctx.create_buffer_of::<f64>(n).expect("output");
        queue.enqueue_write(&a, &vec![1.0f64; n]).expect("write input");
        let dense =
            Axpy { cost: KernelCostSpec::compute_bound(20_000.0), ..Axpy::new("dense", 2.0) };
        let k = ctx
            .create_program(vec![Arc::new(dense) as Arc<dyn KernelBody>])
            .expect("program")
            .create_kernel("dense")
            .expect("kernel");
        k.set_arg(0, ArgValue::Buffer(a)).unwrap();
        k.set_arg(1, ArgValue::BufferMut(out)).unwrap();
        queue.enqueue_ndrange(&k, NdRange::d1(wgs * LOCAL, LOCAL)).expect("enqueue");
        ctx.finish_all();

        let row = ctx.kernel_profile("dense").expect("profiled");
        assert!(row[0].as_nanos() >= 8 * row[1].as_nanos(), "{wgs} wgs: CPU not slow: {row:?}");
        let (stats, events) = (ctx.stats(), sink.drain());
        let shares = split_shares(&events);
        assert_eq!(stats.kernels_split, 1, "{wgs} wgs: {stats:?}");
        assert_eq!(shares[0], 0, "{wgs} wgs: the slow CPU got work: {shares:?}");
        assert!(shares[1] > 0 && shares[2] > 0, "{wgs} wgs: both GPUs work: {shares:?}");
        assert_eq!(stats.chunks_stolen, 0);
    }
}

#[test]
fn a_degraded_device_gets_a_smaller_share() {
    // GPU0 runs 8x behind the profile row from the second epoch on: the
    // split folds the live degradation into its costs before sizing.
    let baseline = run_arm(11, QueueSchedFlags::SCHED_AUTO_DYNAMIC, None, "degrade-base");
    let healthy = run_arm(11, split_flags(), None, "degrade-healthy");
    let degraded = run_arm(11, split_flags(), Some((DeviceId(1), 8.0)), "degrade");
    assert_eq!(degraded.out_bits, baseline.out_bits, "the degraded split corrupted the output");
    let (h, d) = (split_shares(&healthy.events), split_shares(&degraded.events));
    assert!(d[1] < h[1], "degraded GPU0 kept its share: {d:?} vs healthy {h:?}");
    assert_eq!(degraded.stats.chunks_stolen, 0);
    // Same seed, same fault: the same plan and the same virtual time.
    let again = run_arm(11, split_flags(), Some((DeviceId(1), 8.0)), "degrade-again");
    assert_eq!(again.out_bits, degraded.out_bits);
    assert_eq!(again.windows, degraded.windows);
    assert_eq!(split_shares(&again.events), d);
    let kinds = |arm: &Arm| arm.events.iter().map(SchedEvent::kind).collect::<Vec<_>>();
    assert_eq!(kinds(&again), kinds(&degraded));
}

#[test]
fn unset_flag_replays_byte_identically_and_emits_no_split_telemetry() {
    let a = run_arm(5, QueueSchedFlags::SCHED_AUTO_DYNAMIC, None, "r-a");
    let b = run_arm(5, QueueSchedFlags::SCHED_AUTO_DYNAMIC, None, "r-b");
    assert_eq!(a.out_bits, b.out_bits);
    assert_eq!(a.windows, b.windows, "same-seed replay must be virtual-time identical");
    for arm in [&a, &b] {
        assert_eq!(arm.stats.kernels_split, 0);
        assert_eq!(arm.stats.chunks_stolen, 0);
        assert!(
            !arm.events.iter().any(|e| matches!(e, SchedEvent::KernelSplit { .. })),
            "split telemetry emitted with the flag unset"
        );
    }
    // The event *kinds* stream (shape of the replay) also matches exactly.
    let kinds = |arm: &Arm| arm.events.iter().map(SchedEvent::kind).collect::<Vec<_>>();
    assert_eq!(kinds(&a), kinds(&b));
}

#[test]
fn splittable_flag_composes_with_out_of_order() {
    let platform = Platform::paper_node();
    let ctx = MulticlContext::with_options(
        &platform,
        ContextSchedPolicy::AutoFit,
        scratch_options("combos"),
    )
    .expect("context");
    assert!(ctx.create_queue(split_flags() | QueueSchedFlags::SCHED_OUT_OF_ORDER).is_ok());
    assert!(ctx.create_queue(split_flags()).is_ok());
}

#[test]
fn sched_hints_are_typed_checked_and_take_effect_at_the_next_pass() {
    use multicl::error::ClError;
    const OOO: QueueSchedFlags = QueueSchedFlags::SCHED_OUT_OF_ORDER;

    let platform = Platform::paper_node();
    let ctx = MulticlContext::with_options(
        &platform,
        ContextSchedPolicy::AutoFit,
        scratch_options("hints"),
    )
    .expect("context");
    let created = QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_KERNEL_EPOCH;
    let queue = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue");
    assert_eq!(queue.flags(), created);

    // Only the two execution bits are settable, only on an auto queue.
    for foreign in [QueueSchedFlags::SCHED_ITERATIVE, SPLIT | QueueSchedFlags::SCHED_COMPUTE_BOUND]
    {
        let err = queue.set_sched_hints(foreign).expect_err("foreign bits");
        assert!(matches!(err, ClError::InvalidValue(_)), "{err:?}");
    }
    let manual = ctx.create_queue_on(DeviceId(1)).expect("SCHED_OFF queue");
    let err = manual.set_sched_hints(SPLIT).expect_err("SCHED_OFF queue");
    assert!(matches!(err, ClError::InvalidOperation(_)), "{err:?}");
    assert_eq!(queue.flags(), created, "a refused call changes nothing");

    let a = ctx.create_buffer_of::<f64>(ELEMENTS as usize).expect("input");
    let out = ctx.create_buffer_of::<f64>(ELEMENTS as usize).expect("output");
    queue.enqueue_write(&a, &vec![1.0f64; ELEMENTS as usize]).expect("write input");
    queue.enqueue_write(&out, &vec![0.0f64; ELEMENTS as usize]).expect("write output");
    let body = Arc::new(Axpy::new("axpy", 2.0)) as Arc<dyn KernelBody>;
    let k = ctx.create_program(vec![body]).expect("program").create_kernel("axpy").expect("kernel");
    k.set_arg(0, ArgValue::Buffer(a)).unwrap();
    k.set_arg(1, ArgValue::BufferMut(out)).unwrap();
    let launch = || queue.enqueue_ndrange(&k, NdRange::d1(ELEMENTS, LOCAL)).expect("enqueue");
    let split_so_far = || ctx.stats().kernels_split;

    // Epoch 1, no hints: the launch runs whole.
    launch();
    ctx.finish_all();
    assert_eq!(split_so_far(), 0);

    // An epoch executes under one mode: with launches pending the hints
    // cannot change (re-stating the current ones is a no-op).
    launch();
    let err = queue.set_sched_hints(SPLIT).expect_err("pending launches");
    assert!(matches!(err, ClError::InvalidOperation(_)), "{err:?}");
    queue.set_sched_hints(QueueSchedFlags::NONE).expect("unchanged hints");
    ctx.finish_all();
    assert_eq!(split_so_far(), 0);

    // Epoch 3, both hints set between epochs: the same launch splits.
    queue.set_sched_hints(SPLIT | OOO).expect("set hints");
    assert_eq!(queue.flags(), created | SPLIT | OOO);
    launch();
    ctx.finish_all();
    assert_eq!(split_so_far(), 1);

    // Epoch 4, hints cleared again: whole, and nothing else of the
    // creation flags moved.
    queue.set_sched_hints(QueueSchedFlags::NONE).expect("clear hints");
    assert_eq!(queue.flags(), created);
    launch();
    ctx.finish_all();
    assert_eq!(split_so_far(), 1);

    // Flushed (`clFlush`) is not synchronized: the ordering mode cannot
    // change under commands still in flight.
    launch();
    queue.flush();
    assert_eq!(queue.pending_len(), 0);
    let err = queue.set_sched_hints(OOO).expect_err("commands in flight");
    assert!(matches!(err, ClError::InvalidOperation(_)), "{err:?}");
    assert_eq!(queue.flags(), created);
    queue.finish();
    queue.set_sched_hints(OOO).expect("idle again");
}

/// Virtual time of one epoch over `queues` queues, each launching an
/// `items`-item `cost` kernel in workgroups of `local` — profiled in a
/// first epoch, timed in a second run under `hints` — and the kernels
/// split in it.
fn timed_epoch(
    cost: KernelCostSpec,
    items: u64,
    local: u64,
    queues: usize,
    hints: QueueSchedFlags,
    tag: &str,
) -> (hwsim::SimDuration, u64) {
    let platform = Platform::paper_node();
    let ctx =
        MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, scratch_options(tag))
            .expect("context");
    let bodies: Vec<Arc<dyn KernelBody>> = (0..queues)
        .map(|q| Arc::new(Axpy { cost, ..Axpy::new(&format!("k{q}"), 1.5) }) as Arc<dyn KernelBody>)
        .collect();
    let program = ctx.create_program(bodies).expect("program");
    let mut launches = Vec::new();
    for q in 0..queues {
        let queue = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue");
        let a = ctx.create_buffer_of::<f64>(items as usize).expect("input");
        let out = ctx.create_buffer_of::<f64>(items as usize).expect("output");
        queue.enqueue_write(&a, &vec![1.0f64; items as usize]).expect("write input");
        let k = program.create_kernel(&format!("k{q}")).expect("kernel");
        k.set_arg(0, ArgValue::Buffer(a)).unwrap();
        k.set_arg(1, ArgValue::BufferMut(out)).unwrap();
        launches.push((queue, k));
    }
    let mut took = hwsim::SimDuration::ZERO;
    for epoch in 0..2 {
        if epoch == 1 {
            launches.iter().for_each(|(q, _)| q.set_sched_hints(hints).expect("hints"));
        }
        let began = platform.now();
        for (q, k) in &launches {
            q.enqueue_ndrange(k, NdRange::d1(items, local)).expect("enqueue");
        }
        ctx.finish_all();
        took = platform.now().saturating_since(began);
    }
    (took, ctx.stats().kernels_split)
}

#[test]
fn a_narrow_launch_splits_only_to_end_below_the_best_single_device() {
    // A 2^20-item double-precision launch in 8 workgroups, profiled at
    // 285 ms on the CPU and 570 ms on a GPU. The CPU engages one of its 16
    // cores per workgroup, so its half of the launch takes as long as all
    // of it: the split must beat the CPU alone, or not happen.
    let dp = KernelTraits { double_precision: true, ..KernelTraits::default() };
    let cost = KernelCostSpec { flops_per_item: 20_000.0, bytes_per_item: 8.0, traits: dp };
    let node = NodeConfig::paper_node();
    let shape = hwsim::NdRangeShape::new(1 << 20, 1 << 17);
    let ms = |d: usize| cost.kernel_time(&node.devices[d], shape).as_millis_f64().round();
    assert_eq!([ms(0), ms(1), ms(2)], [285.0, 570.0, 570.0]);
    let (whole, none) = timed_epoch(cost, 1 << 20, 1 << 17, 1, QueueSchedFlags::NONE, "probe-w");
    assert_eq!(none, 0);
    let (split, splits) = timed_epoch(cost, 1 << 20, 1 << 17, 1, SPLIT, "probe-s");
    assert!(splits == 0 || split < whole, "{splits} splits: {split} vs whole {whole}");
    if splits == 0 {
        assert_eq!(split, whole);
    }
}

#[test]
fn an_ep_shaped_epoch_ends_no_later_with_its_splits() {
    // Four queues of one compute-bound launch each: two go to each GPU and
    // the CPU idles. Whatever the plan splits, the epoch ends on the
    // platform no later than with every launch whole.
    let cost = KernelCostSpec::compute_bound(20_000.0);
    let (whole, none) = timed_epoch(cost, ELEMENTS, LOCAL, 4, QueueSchedFlags::NONE, "ep-w");
    assert_eq!(none, 0);
    let (split, splits) = timed_epoch(cost, ELEMENTS, LOCAL, 4, SPLIT, "ep-s");
    assert!(splits > 0, "the idle CPU takes no share");
    assert!(split <= whole, "{splits} splits: {split} vs whole {whole}");
}

/// The per-device shares of a launch split in a second epoch, the first
/// having profiled it whole, while GPU1 runs 8× slow from epoch `from` on;
/// and the kernel's profile row.
fn shares_after_profiling(from: usize, tag: &str) -> (Vec<u64>, Vec<hwsim::SimDuration>) {
    let platform = Platform::paper_node();
    let sink = Arc::new(RingBufferSink::new(4096));
    let mut options = scratch_options(tag);
    options.observers = vec![sink.clone()];
    let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
        .expect("context");
    let queue = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue");
    let a = ctx.create_buffer_of::<f64>(ELEMENTS as usize).expect("input");
    let out = ctx.create_buffer_of::<f64>(ELEMENTS as usize).expect("output");
    queue.enqueue_write(&a, &vec![1.0f64; ELEMENTS as usize]).expect("write input");
    let body = Arc::new(Axpy::new("axpy", 1.5)) as Arc<dyn KernelBody>;
    let k = ctx.create_program(vec![body]).expect("program").create_kernel("axpy").expect("kernel");
    k.set_arg(0, ArgValue::Buffer(a)).unwrap();
    k.set_arg(1, ArgValue::BufferMut(out)).unwrap();
    for epoch in 0..2 {
        if epoch == from {
            let at = platform.now();
            platform.with_engine(|e| {
                e.set_fault_plan(FaultPlan::new(3).degrade_device(DeviceId(2), 8.0, at))
            });
        }
        if epoch == 1 {
            queue.set_sched_hints(SPLIT).expect("hints");
        }
        queue.enqueue_ndrange(&k, NdRange::d1(ELEMENTS, LOCAL)).expect("enqueue");
        ctx.finish_all();
    }
    (split_shares(&sink.drain()), ctx.kernel_profile("axpy").expect("profiled"))
}

#[test]
fn a_row_profiled_on_a_degraded_device_is_not_slowed_twice() {
    // A profile row is the cost model's estimate, so one made while GPU1
    // runs 8× slow equals one made healthy, and the split applies the live
    // slowdown once: the shares are those of a row profiled healthy with
    // the device slowed after. (A predicted row, which learns from slowed
    // stamps, records its slowdown; `plan.rs` tests that it is divided out.)
    let (during, slow_row) = shares_after_profiling(0, "degraded-profile");
    let (after, row) = shares_after_profiling(1, "healthy-profile");
    assert_eq!(slow_row, row);
    assert!(after.len() == 3 && after[2] > 0, "GPU1 still takes a share: {after:?}");
    assert_eq!(during, after);
}
