//! Per-queue device eligibility: `Context::create_buffer` admits any buffer
//! the context's *largest* device holds, so the scheduling pass must place a
//! queue only where every buffer its pending launches bind fits — and never
//! panic when the mapper's favourite device is too small.
//!
//! The node is the paper's with GPU memory shrunk to 1 KiB (the same
//! geometry as a 3–32 GiB buffer on the stock node, at test size): a
//! 128 KiB buffer fits the CPU alone.

use clrt::error::ClError;
use clrt::{ArgValue, Kernel, KernelBody, KernelCtx, NdRange, Platform};
use hwsim::engine::CommandKind;
use hwsim::{DeviceId, FaultKind, FaultPlan, KernelCostSpec, KernelTraits, NodeConfig};
use multicl::telemetry::RingBufferSink;
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedEvent, SchedOptions,
};
use std::sync::Arc;

const CPU: DeviceId = DeviceId(0);
const GPU0: DeviceId = DeviceId(1);
const GPU1: DeviceId = DeviceId(2);
/// 128 KiB of `f64`: 256 workgroups of 64.
const ELEMENTS: usize = 16 * 1024;
const LOCAL: u64 = 64;

/// `x[i] += 1` over the sub-range the launch owns; compute-dense and
/// coalesced, so on cost alone every policy would pick a GPU.
struct Bump;

impl KernelBody for Bump {
    fn name(&self) -> &str {
        "bump"
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec { flops_per_item: 4_000.0, bytes_per_item: 8.0, traits: KernelTraits::IDEAL }
    }
    fn splittable(&self) -> bool {
        true
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let base = ctx.global_offset()[0] as usize;
        let n = ctx.nd().global_items() as usize;
        for v in &mut ctx.slice_mut::<f64>(0)[base..base + n] {
            *v += 1.0;
        }
    }
}

/// The paper node with the memory of `small` devices cut to 1 KiB.
fn node_with_small(small: &[DeviceId]) -> Platform {
    let mut node = NodeConfig::paper_node();
    for d in small {
        node.devices[d.index()].mem_capacity = 1024;
    }
    Platform::new(node)
}

struct Rig {
    platform: Platform,
    ctx: MulticlContext,
    events: Arc<RingBufferSink>,
    program: clrt::Program,
}

fn rig(platform: Platform, policy: ContextSchedPolicy, tag: &str) -> Rig {
    let events = Arc::new(RingBufferSink::new(4096));
    let options = SchedOptions {
        profile_cache: ProfileCache::at(
            std::env::temp_dir().join(format!("multicl-elig-test-{}-{tag}", std::process::id())),
        ),
        observers: vec![events.clone()],
        ..SchedOptions::default()
    };
    let ctx = MulticlContext::with_options(&platform, policy, options).expect("context");
    let program = ctx.create_program(vec![Arc::new(Bump) as Arc<dyn KernelBody>]).expect("program");
    Rig { platform, ctx, events, program }
}

impl Rig {
    /// The devices that executed a `bump` launch or profiling probe (the
    /// context's start-up microbenchmarks run on every device regardless).
    fn bumped_on(&self) -> Vec<DeviceId> {
        let mut devices: Vec<DeviceId> = self
            .platform
            .take_trace()
            .records
            .iter()
            .filter(|r| matches!(&r.kind, CommandKind::Kernel { name } if name.contains("bump")))
            .map(|r| r.device)
            .collect();
        devices.sort_unstable();
        devices.dedup();
        devices
    }

    /// A `bump` kernel bound to a fresh zeroed 128 KiB buffer.
    fn big_launch(&self) -> (Kernel, clrt::Buffer) {
        let buf = self.ctx.create_buffer_of::<f64>(ELEMENTS).expect("fits the CPU");
        let k = self.program.create_kernel("bump").expect("kernel");
        k.set_arg(0, ArgValue::BufferMut(buf.clone())).unwrap();
        (k, buf)
    }
}

fn nd() -> NdRange {
    NdRange::d1(ELEMENTS as u64, LOCAL)
}

#[test]
fn both_policies_place_big_buffer_queues_on_the_cpu_and_finish() {
    for (policy, tag) in
        [(ContextSchedPolicy::RoundRobin, "place-rr"), (ContextSchedPolicy::AutoFit, "place-af")]
    {
        let rig = rig(node_with_small(&[GPU0, GPU1]), policy, tag);
        // Three queues: creation spreads their initial bindings over all
        // three devices, and ROUND_ROBIN would rotate them there again.
        let queues: Vec<_> = (0..3)
            .map(|_| rig.ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue"))
            .collect();
        let buffers: Vec<_> = queues
            .iter()
            .map(|q| {
                let (k, buf) = rig.big_launch();
                q.enqueue_ndrange(&k, nd()).expect("a pool queue takes it: the CPU can run it");
                buf
            })
            .collect();
        rig.ctx.finish_all();
        for q in &queues {
            assert_eq!(q.device(), CPU, "{policy}: queue {} left on a device too small", q.id());
        }
        for buf in &buffers {
            assert!(buf.host_snapshot::<f64>().iter().all(|&v| v == 1.0), "{policy}");
        }
        assert_eq!(rig.bumped_on(), [CPU], "{policy}: launched or probed where it cannot run");
    }
}

#[test]
fn a_splittable_queue_splits_over_eligible_devices_only_or_runs_whole() {
    let flags = QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_SPLITTABLE;

    // One GPU too small: the launch splits over the CPU and the other GPU.
    let rig_a = rig(node_with_small(&[GPU0]), ContextSchedPolicy::AutoFit, "split-two");
    let q = rig_a.ctx.create_queue(flags).expect("queue");
    let (k, buf) = rig_a.big_launch();
    q.enqueue_ndrange(&k, nd()).expect("enqueue");
    rig_a.ctx.finish_all();
    assert!(buf.host_snapshot::<f64>().iter().all(|&v| v == 1.0));
    let shares: Vec<Vec<u64>> = rig_a
        .events
        .drain()
        .into_iter()
        .filter_map(|e| match e {
            SchedEvent::KernelSplit { wgs_per_device, .. } => Some(wgs_per_device),
            _ => None,
        })
        .collect();
    assert_eq!(shares.len(), 1, "the launch was split once");
    let share = &shares[0];
    assert_eq!(share[GPU0.index()], 0, "chunks on the device too small: {share:?}");
    assert!(share[CPU.index()] > 0 && share[GPU1.index()] > 0, "{share:?}");
    assert_eq!(rig_a.bumped_on(), [CPU, GPU1]);

    // Both GPUs too small: one eligible device is nothing to split over.
    let rig_b = rig(node_with_small(&[GPU0, GPU1]), ContextSchedPolicy::AutoFit, "split-one");
    let q = rig_b.ctx.create_queue(flags).expect("queue");
    let (k, buf) = rig_b.big_launch();
    q.enqueue_ndrange(&k, nd()).expect("enqueue");
    rig_b.ctx.finish_all();
    assert!(buf.host_snapshot::<f64>().iter().all(|&v| v == 1.0));
    assert_eq!(rig_b.ctx.stats().kernels_split, 0);
    assert_eq!(q.device(), CPU);
}

#[test]
fn a_sched_off_queue_on_a_small_device_gets_the_error_at_enqueue() {
    let rig = rig(node_with_small(&[GPU0, GPU1]), ContextSchedPolicy::AutoFit, "off");
    let (k, _buf) = rig.big_launch();
    let on_gpu = rig.ctx.create_queue_on(GPU0).expect("SCHED_OFF queue");
    let err = on_gpu.enqueue_ndrange(&k, nd()).expect_err("the queue cannot leave the GPU");
    assert!(matches!(err, ClError::MemObjectAllocationFailure(_)), "{err:?}");
    assert_eq!(on_gpu.pending_len(), 0, "nothing was buffered");
    // The same launch on a SCHED_OFF queue where it fits is fine.
    let on_cpu = rig.ctx.create_queue_on(CPU).expect("SCHED_OFF queue");
    on_cpu.enqueue_ndrange(&k, nd()).expect("fits the CPU");
    on_cpu.finish();
}

#[test]
fn no_eligible_device_ends_in_the_typed_device_failure_not_a_panic() {
    for (policy, tag) in
        [(ContextSchedPolicy::RoundRobin, "lost-rr"), (ContextSchedPolicy::AutoFit, "lost-af")]
    {
        // The only device the buffers fit is lost before the first pass.
        let rig = rig(node_with_small(&[GPU0, GPU1]), policy, tag);
        let now = rig.platform.now();
        rig.platform.with_engine(|e| e.set_fault_plan(FaultPlan::new(1).lose_device(CPU, now)));
        let queues: Vec<_> = (0..3)
            .map(|_| rig.ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue"))
            .collect();
        for q in &queues {
            let (k, _buf) = rig.big_launch();
            q.enqueue_ndrange(&k, nd()).expect("enqueue");
        }
        rig.ctx.finish_all();
        // Every launch went where its buffer fits and failed there with the
        // fault path's status; none was refused by a live, too-small GPU.
        let failures = rig.platform.with_engine(|e| e.failures().to_vec());
        let failed_kernels: Vec<_> = failures
            .iter()
            .filter(|f| queues.iter().any(|q| q.trace_id() == f.queue))
            .map(|f| (f.device, f.kind))
            .collect();
        assert!(failed_kernels.len() >= queues.len(), "{policy}: {failures:?}");
        assert!(
            failed_kernels.iter().all(|&f| f == (CPU, FaultKind::DeviceLost)),
            "{policy}: {failed_kernels:?}"
        );
        for q in &queues {
            assert_eq!(q.device(), CPU, "{policy}");
        }
    }
}
