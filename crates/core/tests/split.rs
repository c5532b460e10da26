//! End-to-end properties of `SCHED_SPLITTABLE` queues:
//!
//! 1. result buffers are **bit-identical** split vs. unsplit, for every
//!    partitioner — chunk placement may differ, the arithmetic may not;
//! 2. the `KernelSplit` accounting is exact: per-device workgroup shares
//!    sum to the launch's total, stolen chunks included;
//! 3. a degraded device loses chunks to work stealing mid-epoch;
//! 4. with the flag unset, same-seed runs replay byte-identically and no
//!    split telemetry is emitted.

use clrt::{ArgValue, KernelBody, KernelCtx, NdRange, Platform};
use hwsim::xrand::XorShift;
use hwsim::{DeviceId, FaultPlan, KernelCostSpec, KernelTraits, SimTime};
use multicl::telemetry::RingBufferSink;
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedEvent, SchedOptions,
    SchedStats, SplitPartitioner,
};
use std::collections::HashMap;
use std::sync::Arc;

const ELEMENTS: u64 = 4096;
const LOCAL: u64 = 64;

/// `out[i] = a[i] * scale + i`, confined to the sub-range this execution
/// owns — the offset-honoring contract [`KernelBody::splittable`] requires.
struct Axpy {
    name: String,
    scale: f64,
}

impl KernelBody for Axpy {
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        2
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec {
            flops_per_item: 2.0,
            bytes_per_item: 16.0,
            traits: KernelTraits::default(),
        }
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

/// Run `kernels` Axpy launches (two sync epochs) on one queue.
fn run_arm(
    seed: u64,
    flags: QueueSchedFlags,
    partitioner: SplitPartitioner,
    degrade: Option<(DeviceId, f64)>,
    tag: &str,
) -> Arm {
    let platform = Platform::paper_node();
    if let Some((dev, factor)) = degrade {
        platform.with_engine(|e| {
            e.set_fault_plan(FaultPlan::new(seed).degrade_device(dev, factor, SimTime::ZERO))
        });
    }
    let sink = Arc::new(RingBufferSink::new(4096));
    let mut options = scratch_options(tag);
    options.split_partitioner = partitioner;
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

    let bodies: Vec<Arc<dyn KernelBody>> = (0..2)
        .map(|i| {
            Arc::new(Axpy { name: format!("axpy{i}"), scale: 1.5 + i as f64 })
                as Arc<dyn KernelBody>
        })
        .collect();
    let program = ctx.create_program(bodies).expect("program");
    for i in 0..2 {
        let k = program.create_kernel(&format!("axpy{i}")).expect("kernel");
        k.set_arg(0, ArgValue::Buffer(a.clone())).unwrap();
        k.set_arg(1, ArgValue::BufferMut(out.clone())).unwrap();
        queue.enqueue_ndrange(&k, NdRange::d1(ELEMENTS, LOCAL)).expect("enqueue");
        // One kernel per sync epoch: the second launch runs against warm
        // profile rows, the path the static partitioner feeds from.
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

fn split_flags() -> QueueSchedFlags {
    QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_SPLITTABLE
}

#[test]
fn split_results_are_bit_identical_to_unsplit_for_every_partitioner() {
    let baseline =
        run_arm(42, QueueSchedFlags::SCHED_AUTO_DYNAMIC, SplitPartitioner::Static, None, "base");
    assert_eq!(baseline.stats.kernels_split, 0);
    for (partitioner, tag) in [
        (SplitPartitioner::Static, "static"),
        (SplitPartitioner::Chunked { chunk_wgs: 16 }, "chunked"),
        (SplitPartitioner::HGuided { min_wgs: 4 }, "hguided"),
    ] {
        let split = run_arm(42, split_flags(), partitioner, None, tag);
        assert_eq!(
            split.out_bits, baseline.out_bits,
            "{tag}: split output diverged from the unsplit run"
        );
        assert!(
            split.stats.kernels_split >= 1,
            "{tag}: no launch was actually split ({:?})",
            split.stats
        );
        // The split run executed each logical kernel as several chunk
        // commands on more than one device.
        let chunk_launches: usize = split.windows.values().map(Vec::len).sum();
        let whole_launches: usize = baseline.windows.values().map(Vec::len).sum();
        assert!(
            chunk_launches > whole_launches,
            "{tag}: expected more kernel commands than the whole-launch run \
             ({chunk_launches} vs {whole_launches})"
        );
    }
}

#[test]
fn kernel_split_accounting_is_exact() {
    let arm = run_arm(7, split_flags(), SplitPartitioner::Static, None, "accounting");
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
        assert!(
            wgs_per_device.iter().filter(|&&w| w > 0).count() >= 2,
            "a split launch must actually use more than one device: {wgs_per_device:?}"
        );
    }
}

#[test]
fn degraded_device_loses_chunks_to_work_stealing() {
    // The chunked partitioner deals chunks round-robin regardless of speed;
    // with one device running 8x behind its estimate, the assigner must
    // move chunks off it — and the bits must still match the unsplit run.
    let baseline = run_arm(
        11,
        QueueSchedFlags::SCHED_AUTO_DYNAMIC,
        SplitPartitioner::Static,
        None,
        "steal-base",
    );
    let degraded = run_arm(
        11,
        split_flags(),
        SplitPartitioner::Chunked { chunk_wgs: 4 },
        Some((DeviceId(1), 8.0)),
        "steal",
    );
    assert_eq!(degraded.out_bits, baseline.out_bits, "stealing corrupted the output");
    assert!(
        degraded.stats.chunks_stolen > 0,
        "no chunks were stolen off the degraded device ({:?})",
        degraded.stats
    );
    let stolen_events =
        degraded.events.iter().filter(|e| matches!(e, SchedEvent::ChunkStolen { .. })).count();
    assert_eq!(stolen_events as u64, degraded.stats.chunks_stolen);
}

#[test]
fn unset_flag_replays_byte_identically_and_emits_no_split_telemetry() {
    let a = run_arm(5, QueueSchedFlags::SCHED_AUTO_DYNAMIC, SplitPartitioner::Static, None, "r-a");
    let b = run_arm(5, QueueSchedFlags::SCHED_AUTO_DYNAMIC, SplitPartitioner::Static, None, "r-b");
    assert_eq!(a.out_bits, b.out_bits);
    assert_eq!(a.windows, b.windows, "same-seed replay must be virtual-time identical");
    for arm in [&a, &b] {
        assert_eq!(arm.stats.kernels_split, 0);
        assert_eq!(arm.stats.chunks_stolen, 0);
        assert!(
            !arm.events.iter().any(|e| matches!(
                e,
                SchedEvent::KernelSplit { .. } | SchedEvent::ChunkStolen { .. }
            )),
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
    const SPLIT: QueueSchedFlags = QueueSchedFlags::SCHED_SPLITTABLE;

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
    let body = Arc::new(Axpy { name: "axpy".into(), scale: 2.0 }) as Arc<dyn KernelBody>;
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
