//! A pass prices a buffer's move onto another device the way the runtime
//! issues it (DESIGN.md §9): an upload of the host copy, or first a
//! download from the live device holding the only copy, each on its own
//! device's copy lane (paper §V-C3). A lost holder's copy is gone, and the
//! host's canonical contents are uploaded instead.
//!
//! The scene: the paper node, buffer `x` written on GPU0 (valid there and
//! nowhere else, the host included), fresh buffers `y`, `u` and `v`, and
//! one out-of-order ROUND_ROBIN queue whose first pass binds it to the CPU,
//! where it launches a kernel from `y` into `u`, then one from `x` into
//! `v`. The second launch's download from GPU0 overlaps the first's
//! uploads to the CPU, which a price of the whole move on the CPU's copy
//! lane misses. The epoch's prediction is the replay of what the pass
//! issues, so it must equal the executed end.

use clrt::{ArgValue, KernelBody, KernelCtx, NdRange, Platform};
use hwsim::engine::CommandKind;
use hwsim::topology::TransferKind;
use hwsim::{DeviceId, FaultPlan, KernelCostSpec, SimDuration, SimTime};
use multicl::telemetry::RingBufferSink;
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedEvent, SchedOptions,
};
use std::sync::Arc;

const CPU: DeviceId = DeviceId(0);
const GPU0: DeviceId = DeviceId(1);
const ELEMENTS: usize = 32 * 1024;

/// `out[i] = 2 in[i]`.
struct Double;

impl KernelBody for Double {
    fn name(&self) -> &str {
        "double"
    }
    fn arity(&self) -> usize {
        2
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(16.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let input = ctx.slice::<f64>(0).to_vec();
        ctx.slice_mut::<f64>(1).iter_mut().zip(input).for_each(|(o, i)| *o = 2.0 * i);
    }
}

/// One epoch of the scene, GPU0 lost before the pass if `lose`: its
/// `(predicted, executed)` end and every transfer it issued, as
/// `(device, kind)`.
fn run(lose: bool) -> (SimDuration, SimDuration, Vec<(DeviceId, TransferKind)>) {
    let platform = Platform::paper_node();
    let events = Arc::new(RingBufferSink::new(1024));
    let dir = std::env::temp_dir().join(format!("multicl-staging-{lose}-{}", std::process::id()));
    let options = SchedOptions {
        profile_cache: ProfileCache::at(&dir),
        observers: vec![events.clone()],
        ..SchedOptions::default()
    };
    let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::RoundRobin, options)
        .expect("context");
    let [x, y, u, v] =
        ["x", "y", "u", "v"].map(|b| ctx.create_buffer_of::<f64>(ELEMENTS).expect(b));
    let writer = ctx.create_queue_on(GPU0).expect("writer");
    writer.enqueue_write(&x, &vec![1.5f64; ELEMENTS]).expect("write");
    writer.finish();
    let res = x.residency();
    assert!(!res.host && res.valid_on(GPU0) && res.devices.iter().count() == 1, "{res:?}");
    if lose {
        platform
            .with_engine(|e| e.set_fault_plan(FaultPlan::new(1).lose_device(GPU0, SimTime::ZERO)));
    }
    let _ = platform.take_trace();

    let program = ctx.create_program(vec![Arc::new(Double) as Arc<dyn KernelBody>]).expect("prog");
    let flags = QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_OUT_OF_ORDER;
    let q = ctx.create_queue(flags).expect("queue");
    for (from, into) in [(&y, &u), (&x, &v)] {
        let k = program.create_kernel("double").expect("kernel");
        k.set_arg(0, ArgValue::Buffer(from.clone())).unwrap();
        k.set_arg(1, ArgValue::BufferMut(into.clone())).unwrap();
        q.enqueue_ndrange(&k, NdRange::d1(ELEMENTS as u64, 64)).expect("enqueue");
    }
    ctx.finish_all();
    assert_eq!(q.device(), CPU, "the rotation binds the first queue to the CPU");
    assert_eq!(v.host_snapshot::<f64>(), vec![3.0; ELEMENTS], "the launch read the write");
    assert!(platform.with_engine(|e| e.failures().is_empty()), "a command failed");

    let moves = (platform.take_trace().records.iter())
        .filter_map(|r| match r.kind {
            CommandKind::Transfer { kind, .. } => Some((r.device, kind)),
            _ => None,
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let ends = events.drain().into_iter().find_map(|e| match e {
        SchedEvent::MakespanAttribution { predicted, actual, .. } => Some((predicted, actual)),
        _ => None,
    });
    let (predicted, actual) = ends.expect("a makespan attribution");
    (predicted, actual, moves)
}

#[test]
fn a_move_from_another_device_is_predicted_as_it_is_issued() {
    let (predicted, actual, moves) = run(false);
    // `y` and `u` up from the host, `x` down from GPU0 and up, `v` up.
    let (down, up) = (TransferKind::DeviceToHost, TransferKind::HostToDevice);
    assert_eq!(moves, [(CPU, up), (CPU, up), (GPU0, down), (CPU, up), (CPU, up)]);
    assert_eq!(predicted, actual);
}

#[test]
fn a_lost_holders_copy_is_predicted_and_issued_as_an_upload_from_the_host() {
    let (predicted, actual, moves) = run(true);
    let up = TransferKind::HostToDevice;
    assert_eq!(moves, [(CPU, up); 4], "nothing moves from the lost GPU0");
    assert_eq!(predicted, actual);
}
