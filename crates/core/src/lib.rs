#![warn(missing_docs)]

//! # MultiCL — automatic command-queue scheduling for task-parallel OpenCL
//!
//! Rust reproduction of *"Automatic Command Queue Scheduling for
//! Task-Parallel Workloads in OpenCL"* (Aji, Peña, Balaji, Feng — IEEE
//! CLUSTER 2015). The paper's proposal decouples OpenCL command queues from
//! devices via scheduling attributes; this crate implements the attributes
//! and the MultiCL runtime on top of the [`clrt`] OpenCL-style runtime and
//! the [`hwsim`] node simulator.
//!
//! ## The extension surface (paper Table I)
//!
//! | OpenCL function | Extension | Here |
//! |---|---|---|
//! | `clCreateContext` | `CL_CONTEXT_SCHEDULER` = `ROUND_ROBIN` \| `AUTO_FIT` | [`MulticlContext::new`] + [`ContextSchedPolicy`] |
//! | `clCreateCommandQueue` | `SCHED_*` bitfield | [`MulticlContext::create_queue`] + [`QueueSchedFlags`] |
//! | `clSetCommandQueueSchedProperty` | new API | [`SchedQueue::set_sched_property`] |
//! | `clSetKernelWorkGroupInfo` | new API | [`set_kernel_work_group_info`] / [`clrt::Kernel::set_work_group_info`] |
//!
//! ## Runtime modules (paper §V)
//!
//! * **Device profiler** ([`profile`]): bandwidth + instruction-throughput
//!   micro-benchmarks, cached on the filesystem, interpolated for unknown
//!   sizes.
//! * **Kernel profiler** (inside [`scheduler`]): runs each epoch's kernels
//!   once per device; kernel & epoch profile caching, minikernel profiling
//!   for compute-bound queues, data caching for I/O-heavy profiling.
//! * **Device mapper** ([`mapper`]): exact makespan minimization over the
//!   queue pool (plus greedy and round-robin strategies).
//! * **Out-of-order epochs** ([`QueueSchedFlags::SCHED_OUT_OF_ORDER`]):
//!   a flagged queue's launches go out in program order through an
//!   out-of-order `clrt` queue, where each waits on its buffer hazards
//!   (RAW/WAR/WAW) alone, so staging transfers overlap kernels on the
//!   device's copy lane (Lázaro-Muñoz et al.). Unflagged queues keep the
//!   strict in-order chain.
//!
//! ## Quickstart
//!
//! ```
//! use multicl::{ContextSchedPolicy, MulticlContext, QueueSchedFlags};
//! use clrt::Platform;
//!
//! let platform = Platform::paper_node();
//! let ctx = MulticlContext::new(&platform, ContextSchedPolicy::AutoFit).unwrap();
//! let q = ctx
//!     .create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_KERNEL_EPOCH)
//!     .unwrap();
//! // ... create programs/kernels/buffers, enqueue, q.finish() ...
//! # drop(q);
//! ```

pub mod flags;
pub mod mapper;
pub mod metrics;
pub mod plan;
pub mod predictor;
pub mod profile;
pub mod scheduler;
pub mod split;
pub mod telemetry;

pub use clrt::error;
pub use flags::{ContextSchedPolicy, QueueSchedFlags};
pub use predictor::{
    CostPredictor, KernelFeatures, Prediction, DEFAULT_PREDICTOR_CONFIDENCE, FEATURE_DIM,
    MIN_TRAINING_SAMPLES,
};
pub use profile::{DeviceProfile, ProfileCache, StaticHint, PROFILE_DIR_ENV};
pub use scheduler::{
    DeviceHealth, MapperKind, MulticlContext, SchedOptions, SchedQueue, SchedStats,
    DEFAULT_ADAPTIVE_NODE_BUDGET, ITER_FREQ_ENV, PROFILING_TAG,
};
pub use split::Chunk;
pub use telemetry::{QueueDecision, SchedEvent, SchedObserver};

use clrt::error::ClResult;
use clrt::{Kernel, NdRange};
use hwsim::DeviceId;

/// The paper's proposed `clSetKernelWorkGroupInfo` (§IV-C): register a
/// device-specific launch configuration on a kernel, so the scheduler can
/// launch it on any device with the right geometry. Free-function form
/// mirroring the C API; equivalent to [`clrt::Kernel::set_work_group_info`].
pub fn set_kernel_work_group_info(kernel: &Kernel, device: DeviceId, nd: NdRange) -> ClResult<()> {
    kernel.set_work_group_info(device, nd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clrt::{ArgValue, KernelBody, KernelCtx, Platform};
    use hwsim::{KernelCostSpec, KernelTraits, SimDuration};
    use std::sync::Arc;

    /// A kernel that strongly prefers the CPU (uncoalesced, branchy).
    struct CpuFriendly;
    impl KernelBody for CpuFriendly {
        fn name(&self) -> &str {
            "cpu_friendly"
        }
        fn arity(&self) -> usize {
            1
        }
        fn cost(&self) -> KernelCostSpec {
            KernelCostSpec::memory_bound(128.0).with_traits(KernelTraits {
                coalescing: 0.05,
                branch_divergence: 0.6,
                vector_friendliness: 0.3,
                double_precision: true,
            })
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let data = ctx.slice_mut::<f64>(0);
            for v in data.iter_mut() {
                *v += 1.0;
            }
        }
    }

    /// A kernel that strongly prefers the GPU (wide, compute-dense).
    struct GpuFriendly;
    impl KernelBody for GpuFriendly {
        fn name(&self) -> &str {
            "gpu_friendly"
        }
        fn arity(&self) -> usize {
            1
        }
        fn cost(&self) -> KernelCostSpec {
            KernelCostSpec::compute_bound(20_000.0)
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let data = ctx.slice_mut::<f64>(0);
            for v in data.iter_mut() {
                *v += 2.0;
            }
        }
    }

    /// `v ← 3·v + s` over its buffer: every launch's scalar `s` shows in the
    /// result, and so does the order of the launches.
    struct Affine;
    impl KernelBody for Affine {
        fn name(&self) -> &str {
            "affine"
        }
        fn arity(&self) -> usize {
            2
        }
        fn cost(&self) -> KernelCostSpec {
            KernelCostSpec::memory_bound(16.0)
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let s = ctx.f64(1);
            for v in ctx.slice_mut::<f64>(0) {
                *v = 3.0 * *v + s;
            }
        }
    }

    fn scratch_options(tag: &str) -> SchedOptions {
        let dir =
            std::env::temp_dir().join(format!("multicl-libtest-{tag}-{}", std::process::id()));
        SchedOptions { profile_cache: ProfileCache::at(dir), ..SchedOptions::default() }
    }

    fn setup(policy: ContextSchedPolicy, tag: &str) -> (Platform, MulticlContext) {
        let platform = Platform::paper_node();
        let ctx = MulticlContext::with_options(&platform, policy, scratch_options(tag)).unwrap();
        (platform, ctx)
    }

    #[test]
    fn autofit_maps_gpu_kernel_to_gpu_and_cpu_kernel_to_cpu() {
        let (platform, ctx) = setup(ContextSchedPolicy::AutoFit, "autofit-map");
        let prog = ctx
            .create_program(vec![
                Arc::new(CpuFriendly) as Arc<dyn KernelBody>,
                Arc::new(GpuFriendly),
            ])
            .unwrap();
        let kc = prog.create_kernel("cpu_friendly").unwrap();
        let kg = prog.create_kernel("gpu_friendly").unwrap();
        let bc = ctx.create_buffer_of::<f64>(1 << 16).unwrap();
        let bg = ctx.create_buffer_of::<f64>(1 << 16).unwrap();
        kc.set_arg(0, ArgValue::BufferMut(bc)).unwrap();
        kg.set_arg(0, ArgValue::BufferMut(bg)).unwrap();

        let q1 = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        let q2 = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        q1.enqueue_ndrange(&kc, clrt::NdRange::d1(1 << 16, 64)).unwrap();
        q2.enqueue_ndrange(&kg, clrt::NdRange::d1(1 << 16, 128)).unwrap();
        ctx.finish_all();

        let node = platform.node();
        let cpu = node.cpu().unwrap();
        assert_eq!(q1.device(), cpu, "CPU-friendly queue must land on the CPU");
        assert!(node.gpus().contains(&q2.device()), "GPU-friendly queue must land on a GPU");
    }

    #[test]
    fn a_scalar_rebound_between_buffered_launches_reaches_each_launch() {
        // FDM's source kernel: one kernel object, its time argument rebound
        // before each launch, every launch buffered until the epoch ends.
        let (_platform, ctx) = setup(ContextSchedPolicy::AutoFit, "rebind");
        let prog = ctx.create_program(vec![Arc::new(Affine) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("affine").unwrap();
        let buf = ctx.create_buffer_of::<f64>(256).unwrap();
        k.set_arg(0, ArgValue::BufferMut(buf.clone())).unwrap();
        let flags = QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_KERNEL_EPOCH;
        let q = ctx.create_queue(flags).unwrap();
        let nd = clrt::NdRange::d1(256, 64);
        let mut expected = 0.0f64;
        for epoch in 0..3 {
            for s in [0.25, 1.5] {
                let s = s + f64::from(epoch);
                k.set_arg(1, ArgValue::F64(s)).unwrap();
                q.enqueue_ndrange(&k, nd).unwrap();
                expected = 3.0 * expected + s;
            }
            // And twice more with no rebinding in between.
            for _ in 0..2 {
                q.enqueue_ndrange(&k, nd).unwrap();
                expected = 3.0 * expected + 1.5 + f64::from(epoch);
            }
            q.finish();
        }
        let got = buf.host_snapshot::<f64>();
        assert!(
            got.iter().all(|v| v.to_bits() == expected.to_bits()),
            "expected {expected} everywhere, got {:?}…",
            &got[..4]
        );
    }

    #[test]
    fn mapping_decision_explains_two_queue_cpu_gpu_split() {
        use crate::telemetry::{RingBufferSink, SchedMetrics};

        let platform = Platform::paper_node();
        let recorder = Arc::new(RingBufferSink::new(256));
        let metrics = Arc::new(SchedMetrics::new());
        let mut options = scratch_options("explain");
        options.observers = vec![recorder.clone(), metrics.clone()];
        let ctx =
            MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options).unwrap();

        let prog = ctx
            .create_program(vec![
                Arc::new(CpuFriendly) as Arc<dyn KernelBody>,
                Arc::new(GpuFriendly),
            ])
            .unwrap();
        let kc = prog.create_kernel("cpu_friendly").unwrap();
        let kg = prog.create_kernel("gpu_friendly").unwrap();
        let bc = ctx.create_buffer_of::<f64>(1 << 16).unwrap();
        let bg = ctx.create_buffer_of::<f64>(1 << 16).unwrap();
        kc.set_arg(0, ArgValue::BufferMut(bc)).unwrap();
        kg.set_arg(0, ArgValue::BufferMut(bg)).unwrap();
        let q1 = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        let q2 = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        q1.enqueue_ndrange(&kc, clrt::NdRange::d1(1 << 16, 64)).unwrap();
        q2.enqueue_ndrange(&kg, clrt::NdRange::d1(1 << 16, 128)).unwrap();
        ctx.finish_all();

        let events = recorder.snapshot();
        // The stream is well-formed: it opens with the device-profile
        // cache announcement (a scratch cache dir is always a miss), the
        // first epoch's EpochBegin follows, it ends with EpochEnd, and the
        // cold kernel cache missed before profiling.
        assert!(
            matches!(
                events.first(),
                Some(SchedEvent::CacheMiss { epoch: 0, key }) if &**key == "device_profile"
            ),
            "{events:?}"
        );
        assert!(
            matches!(events.get(1), Some(SchedEvent::EpochBegin { pool: 2, .. })),
            "{events:?}"
        );
        assert!(matches!(events.last(), Some(SchedEvent::EpochEnd { .. })));
        assert!(events.iter().any(|e| matches!(e, SchedEvent::CacheMiss { .. })));
        assert!(events.iter().any(
            |e| matches!(e, SchedEvent::KernelProfiled { kernel, .. } if &**kernel == "cpu_friendly")
        ));

        // The decision record explains the mapping: per-device estimated
        // times and the mapped rows, whose minimum sits on the device each
        // queue actually ran on.
        let decision = events
            .iter()
            .find_map(|e| match e {
                SchedEvent::MappingDecision { queues, .. } => Some(queues.clone()),
                _ => None,
            })
            .expect("AUTO_FIT emits a mapping decision");
        assert_eq!(decision.len(), 2);
        let n = platform.node().device_count();
        for q in [&q1, &q2] {
            let d = decision.iter().find(|d| d.queue == q.id()).expect("one record per queue");
            assert_eq!(d.cost.exec.len(), n);
            assert_eq!(d.cost.total.len(), n);
            assert_eq!(d.chosen, q.device(), "the decision names where the queue ran");
            // The chosen device attains the minimum recorded total cost
            // (compare by value: the two paper GPUs are identical, so the
            // GPU-friendly queue's costs can tie exactly across them).
            assert_eq!(
                d.total(d.chosen),
                d.total(d.argmin_total()),
                "queue {}: chosen device must minimize the mapped row",
                d.queue
            );
        }
        // The CPU column is untied: the CPU-friendly queue's argmin is
        // exactly the CPU.
        let cpu = platform.node().cpu().unwrap();
        let d1 = decision.iter().find(|d| d.queue == q1.id()).unwrap();
        assert_eq!(d1.argmin_total(), cpu);

        // End-to-end round-trips: the real stream survives JSONL, and the
        // metrics bound to it export and parse back.
        let jsonl = crate::telemetry::to_jsonl(&events);
        assert_eq!(crate::telemetry::sink::parse_jsonl(&jsonl), Some(events));
        assert_eq!(metrics.epochs.get(), 1);
        assert!(metrics.kernels_profiled.get() >= 2);
        let prom = metrics.registry().to_prometheus();
        let samples = crate::telemetry::registry::parse_prometheus(&prom).expect("parseable");
        let epochs = samples.iter().find(|s| s.name == "multicl_epochs_total").unwrap();
        assert_eq!(epochs.value, 1.0);
    }

    #[test]
    fn makespan_attribution_is_emitted_for_both_policies() {
        use crate::telemetry::RingBufferSink;

        for (policy, tag) in [
            (ContextSchedPolicy::AutoFit, "attr-autofit"),
            (ContextSchedPolicy::RoundRobin, "attr-rr"),
        ] {
            let platform = Platform::paper_node();
            let recorder = Arc::new(RingBufferSink::new(256));
            let mut options = scratch_options(tag);
            options.observers = vec![recorder.clone()];
            let ctx = MulticlContext::with_options(&platform, policy, options).unwrap();
            let prog =
                ctx.create_program(vec![Arc::new(CpuFriendly) as Arc<dyn KernelBody>]).unwrap();
            let k = prog.create_kernel("cpu_friendly").unwrap();
            let b = ctx.create_buffer_of::<f64>(1 << 14).unwrap();
            k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
            let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
            q.enqueue_ndrange(&k, clrt::NdRange::d1(1 << 14, 64)).unwrap();
            ctx.finish_all();

            let events = recorder.snapshot();
            let attr = events
                .iter()
                .find_map(|e| match e {
                    SchedEvent::MakespanAttribution { policy, predicted, actual, .. } => {
                        Some((policy.clone(), *predicted, *actual))
                    }
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{tag}: expected attribution in {events:?}"));
            assert_eq!(attr.0.to_string(), policy.to_string(), "{tag}");
            assert!(!attr.2.is_zero(), "{tag}: executed critical path must be nonzero");
            // Either policy predicts the replay of the plan it issues: a
            // one-kernel epoch, whose upload and kernel the replay times, is
            // off only by the host's enqueue cost.
            let (predicted, actual) = (attr.1.as_nanos(), attr.2.as_nanos());
            assert!(predicted.abs_diff(actual) * 100 < actual, "{tag}: {predicted} vs {actual}");
            // AUTO_FIT's decision record still reports the mapper objective:
            // here the one queue's total on its device.
            if policy == ContextSchedPolicy::AutoFit {
                let (makespan, queue) = events
                    .iter()
                    .find_map(|e| match e {
                        SchedEvent::MappingDecision { makespan, queues, .. } => {
                            Some((*makespan, queues[0].clone()))
                        }
                        _ => None,
                    })
                    .expect("AUTO_FIT emits a decision");
                assert_eq!(makespan, queue.total(queue.chosen));
            }
        }
    }

    #[test]
    fn queue_migration_events_carry_flow_payload() {
        use crate::telemetry::{perfetto, RingBufferSink};

        let platform = Platform::paper_node();
        let recorder = Arc::new(RingBufferSink::new(256));
        let mut options = scratch_options("migrate-ev");
        options.observers = vec![recorder.clone()];
        let ctx =
            MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options).unwrap();
        let prog = ctx.create_program(vec![Arc::new(CpuFriendly) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("cpu_friendly").unwrap();
        let b = ctx.create_buffer_of::<f64>(1 << 14).unwrap();
        let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        // Seed the data on the initial (round-robin) binding so a CPU-bound
        // mapping has real bytes to move, then launch the CPU-friendly
        // kernel. If the initial binding already is the CPU, no migration
        // happens — create a second queue to cover both phases.
        q.enqueue_write(&b, &vec![0.0f64; 1 << 14]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
        q.enqueue_ndrange(&k, clrt::NdRange::d1(1 << 14, 64)).unwrap();
        let q2 = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        let b2 = ctx.create_buffer_of::<f64>(1 << 14).unwrap();
        q2.enqueue_write(&b2, &vec![0.0f64; 1 << 14]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b2)).unwrap();
        q2.enqueue_ndrange(&k, clrt::NdRange::d1(1 << 14, 64)).unwrap();
        ctx.finish_all();

        // Both queues end on the CPU; at least one started elsewhere
        // (round-robin initial bindings diverge), so a migration was
        // recorded, carrying the bytes it had to move.
        let cpu = platform.node().cpu().unwrap();
        assert_eq!(q.device(), cpu);
        assert_eq!(q2.device(), cpu);
        let events = recorder.snapshot();
        let migrations: Vec<_> =
            events.iter().filter(|e| matches!(e, SchedEvent::QueueMigrated { .. })).collect();
        assert!(!migrations.is_empty(), "{events:?}");
        assert!(
            migrations.iter().any(|e| match e {
                SchedEvent::QueueMigrated { to, bytes, .. } => *to == cpu && *bytes > 0,
                _ => false,
            }),
            "{migrations:?}"
        );

        // And the extended exporter turns them into paired flow events on
        // top of the engine trace.
        let text = perfetto::chrome_trace_with_telemetry(&platform.trace_snapshot(), &events);
        let parsed = hwsim::json::Json::parse(&text).expect("valid trace JSON");
        let arr = parsed.as_arr().unwrap();
        let count = |ph: &str| {
            arr.iter()
                .filter(|o| o.get("ph").and_then(hwsim::json::Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(count("s"), migrations.len());
        assert_eq!(count("f"), migrations.len());
        assert!(count("C") > 0);
    }

    #[test]
    fn sched_off_queue_never_moves() {
        let (platform, ctx) = setup(ContextSchedPolicy::AutoFit, "sched-off");
        let prog = ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("gpu_friendly").unwrap();
        let b = ctx.create_buffer_of::<f64>(4096).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
        let cpu = platform.node().cpu().unwrap();
        let q = ctx.create_queue_on(cpu).unwrap();
        q.enqueue_ndrange(&k, clrt::NdRange::d1(4096, 64)).unwrap();
        q.finish();
        // Even though the kernel prefers the GPU, a SCHED_OFF queue stays put.
        assert_eq!(q.device(), cpu);
        let dist = crate::metrics::kernel_distribution_fractions(&platform.trace_snapshot());
        assert_eq!(dist.get(&cpu), Some(&1.0));
    }

    #[test]
    fn second_epoch_hits_the_profile_cache() {
        let (_platform, ctx) = setup(ContextSchedPolicy::AutoFit, "cache-hit");
        let prog = ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("gpu_friendly").unwrap();
        let b = ctx.create_buffer_of::<f64>(4096).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
        let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        for _ in 0..3 {
            q.enqueue_ndrange(&k, clrt::NdRange::d1(4096, 64)).unwrap();
            q.finish();
        }
        let stats = ctx.stats();
        assert_eq!(stats.profiled_epochs, 1, "only the first epoch profiles");
        assert!(stats.cache_hits >= 2);
        assert_eq!(stats.kernels_issued, 3);
    }

    #[test]
    fn round_robin_policy_cycles_queues_across_devices() {
        let (platform, ctx) = setup(ContextSchedPolicy::RoundRobin, "rr");
        let prog = ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("gpu_friendly").unwrap();
        let queues: Vec<_> = (0..3)
            .map(|_| ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap())
            .collect();
        for q in &queues {
            let b = ctx.create_buffer_of::<f64>(256).unwrap();
            k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
            q.enqueue_ndrange(&k, clrt::NdRange::d1(256, 64)).unwrap();
        }
        ctx.finish_all();
        let devices: std::collections::HashSet<_> = queues.iter().map(|q| q.device()).collect();
        assert_eq!(devices.len(), 3, "round robin must fan out across all devices");
        // RoundRobin never profiles.
        assert_eq!(ctx.stats().profiled_epochs, 0);
        let _ = platform;
    }

    #[test]
    fn explicit_region_gates_scheduling() {
        let (platform, ctx) = setup(ContextSchedPolicy::AutoFit, "region");
        let prog = ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("gpu_friendly").unwrap();
        let b = ctx.create_buffer_of::<f64>(1 << 14).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
        let q = ctx
            .create_queue(
                QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_EXPLICIT_REGION,
            )
            .unwrap();
        let initial = q.device();
        // Outside the region: no scheduling, stays on initial binding.
        q.enqueue_ndrange(&k, clrt::NdRange::d1(1 << 14, 128)).unwrap();
        q.finish();
        assert_eq!(q.device(), initial);
        assert_eq!(ctx.stats().profiled_epochs, 0);
        // Inside the region: scheduled to the GPU.
        q.set_sched_property(true).unwrap();
        q.enqueue_ndrange(&k, clrt::NdRange::d1(1 << 14, 128)).unwrap();
        q.finish();
        assert!(platform.node().gpus().contains(&q.device()));
        assert_eq!(ctx.stats().profiled_epochs, 1);
        // After the region closes: binding sticks, no further profiling.
        q.set_sched_property(false).unwrap();
        let mapped = q.device();
        q.enqueue_ndrange(&k, clrt::NdRange::d1(1 << 14, 128)).unwrap();
        q.finish();
        assert_eq!(q.device(), mapped);
        assert_eq!(ctx.stats().profiled_epochs, 1);
    }

    #[test]
    fn set_sched_property_requires_region_flag() {
        let (_platform, ctx) = setup(ContextSchedPolicy::AutoFit, "region-guard");
        let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        assert!(q.set_sched_property(true).is_err());
    }

    #[test]
    fn minikernel_profiling_charges_less_time_than_full() {
        let run = |flags: QueueSchedFlags, tag: &str| -> SimDuration {
            let (platform, ctx) = setup(ContextSchedPolicy::AutoFit, tag);
            let prog =
                ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
            let k = prog.create_kernel("gpu_friendly").unwrap();
            let b = ctx.create_buffer_of::<f64>(1 << 18).unwrap();
            k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
            let q = ctx.create_queue(flags).unwrap();
            q.enqueue_ndrange(&k, clrt::NdRange::d1(1 << 18, 128)).unwrap();
            q.finish();
            let breakdown = crate::metrics::overhead_breakdown(&platform.trace_snapshot());
            breakdown.profiling_kernel_time
        };
        let full = run(QueueSchedFlags::SCHED_AUTO_DYNAMIC, "mini-full");
        let mini = run(
            QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_COMPUTE_BOUND,
            "mini-mini",
        );
        assert!(
            mini.as_nanos() * 10 < full.as_nanos(),
            "minikernel profiling should be ≥10× cheaper: mini={mini} full={full}"
        );
    }

    #[test]
    fn static_scheduling_uses_hints_without_profiling() {
        let (platform, ctx) = setup(ContextSchedPolicy::AutoFit, "static");
        let prog = ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("gpu_friendly").unwrap();
        let b = ctx.create_buffer_of::<f64>(4096).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
        let q = ctx
            .create_queue(QueueSchedFlags::SCHED_AUTO_STATIC | QueueSchedFlags::SCHED_COMPUTE_BOUND)
            .unwrap();
        q.enqueue_ndrange(&k, clrt::NdRange::d1(4096, 64)).unwrap();
        q.finish();
        assert_eq!(ctx.stats().profiled_epochs, 0, "static mode never profiles kernels");
        // COMPUTE_BOUND hint ranks by instruction throughput → a GPU.
        assert!(platform.node().gpus().contains(&q.device()));
    }

    #[test]
    fn kernel_results_are_correct_after_scheduling() {
        let (_platform, ctx) = setup(ContextSchedPolicy::AutoFit, "results");
        let prog = ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("gpu_friendly").unwrap();
        let b = ctx.create_buffer_of::<f64>(512).unwrap();
        let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        q.enqueue_write(&b, &vec![1.0f64; 512]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        q.enqueue_ndrange(&k, clrt::NdRange::d1(512, 64)).unwrap();
        let mut out = vec![0.0f64; 512];
        q.enqueue_read(&b, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 3.0), "1.0 + 2.0 from one launch");
    }

    #[test]
    fn write_after_pending_kernels_forces_epoch_boundary() {
        let (_platform, ctx) = setup(ContextSchedPolicy::AutoFit, "write-boundary");
        let prog = ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("gpu_friendly").unwrap();
        let b = ctx.create_buffer_of::<f64>(512).unwrap();
        let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        q.enqueue_ndrange(&k, clrt::NdRange::d1(512, 64)).unwrap();
        assert_eq!(q.pending_len(), 1);
        // The write flushes the pending kernel first (in-order semantics),
        // then overwrites the buffer.
        q.enqueue_write(&b, &vec![7.0f64; 512]).unwrap();
        assert_eq!(q.pending_len(), 0);
        let mut out = vec![0.0f64; 512];
        q.enqueue_read(&b, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn kernel_profiles_are_inspectable() {
        let (platform, ctx) = setup(ContextSchedPolicy::AutoFit, "inspect");
        let prog = ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("gpu_friendly").unwrap();
        let b = ctx.create_buffer_of::<f64>(1 << 14).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
        assert!(ctx.kernel_profile("gpu_friendly").is_none(), "unprofiled yet");
        let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        q.enqueue_ndrange(&k, clrt::NdRange::d1(1 << 14, 128)).unwrap();
        q.finish();
        let profile = ctx.kernel_profile("gpu_friendly").expect("profiled at first epoch");
        assert_eq!(profile.len(), platform.node().device_count());
        // The profile explains the mapping: the chosen device has the
        // minimum estimated time.
        let chosen = q.device().index();
        let min = profile.iter().min().unwrap();
        assert_eq!(&profile[chosen], min);
        assert_eq!(ctx.profiled_kernels(), vec!["gpu_friendly".to_string()]);
    }

    #[test]
    fn contexts_do_not_share_profile_caches() {
        // Kernel profiles are keyed by name *within a context*; two contexts
        // with same-named kernels of different costs must profile
        // independently (process-level isolation in the real runtime).
        let platform = Platform::paper_node();
        let mk = |tag: &str| {
            MulticlContext::with_options(
                &platform,
                ContextSchedPolicy::AutoFit,
                scratch_options(tag),
            )
            .unwrap()
        };
        let run_in = |ctx: &MulticlContext, body: Arc<dyn KernelBody>| -> hwsim::DeviceId {
            let prog = ctx.create_program(vec![body]).unwrap();
            // Both bodies are registered under their own names; rename is
            // not needed — we reuse the same name via separate contexts.
            let name = prog.kernel_names()[0].clone();
            let k = prog.create_kernel(&name).unwrap();
            let b = ctx.create_buffer_of::<f64>(1 << 14).unwrap();
            k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
            let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
            q.enqueue_ndrange(&k, clrt::NdRange::d1(1 << 14, 128)).unwrap();
            q.finish();
            q.device()
        };
        let ctx1 = mk("iso1");
        let d1 = run_in(&ctx1, Arc::new(GpuFriendly));
        assert!(platform.node().gpus().contains(&d1));
        // Same kernel name would collide *within* ctx1; a fresh context
        // profiles from scratch and must not inherit ctx1's verdicts.
        let ctx2 = mk("iso2");
        let d2 = run_in(&ctx2, Arc::new(CpuFriendly));
        assert_eq!(ctx2.stats().profiled_epochs, 1, "ctx2 must profile for itself");
        let _ = d2;
    }

    #[test]
    fn buffered_launches_snapshot_arguments_at_enqueue_time() {
        // A kernel object's args may be rebound between buffered launches
        // (the standard OpenCL launch-loop pattern); each launch must run
        // with the bindings it was enqueued with, not the latest ones.
        let (_platform, ctx) = setup(ContextSchedPolicy::AutoFit, "arg-snapshot");
        let prog = ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("gpu_friendly").unwrap();
        let b1 = ctx.create_buffer_of::<f64>(256).unwrap();
        let b2 = ctx.create_buffer_of::<f64>(256).unwrap();
        let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b1.clone())).unwrap();
        q.enqueue_ndrange(&k, clrt::NdRange::d1(256, 64)).unwrap();
        // Rebind to b2 *before* the buffered b1 launch is flushed.
        k.set_arg(0, ArgValue::BufferMut(b2.clone())).unwrap();
        q.enqueue_ndrange(&k, clrt::NdRange::d1(256, 64)).unwrap();
        q.finish();
        // Each buffer received exactly one launch (+2.0 each).
        assert!(b1.host_snapshot::<f64>().iter().all(|&v| v == 2.0));
        assert!(b2.host_snapshot::<f64>().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn foreign_context_launch_is_rejected_at_enqueue_time() {
        // A launch mixing objects of two contexts used to be buffered with
        // `Ok(())` and then panic the next scheduling pass (holding the
        // pass lock). It must come back as a typed error at enqueue time,
        // leave nothing buffered, and leave the queue usable.
        let platform = Platform::paper_node();
        let mk = |tag: &str| {
            MulticlContext::with_options(
                &platform,
                ContextSchedPolicy::AutoFit,
                scratch_options(tag),
            )
            .unwrap()
        };
        let (ctx_a, ctx_b) = (mk("foreign-a"), mk("foreign-b"));
        let kernel_of = |ctx: &MulticlContext| {
            let prog =
                ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
            prog.create_kernel("gpu_friendly").unwrap()
        };
        let nd = clrt::NdRange::d1(256, 64);
        let q = ctx_a.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap();

        // A kernel of this context bound to a buffer of the other one.
        let k = kernel_of(&ctx_a);
        k.set_arg(0, ArgValue::BufferMut(ctx_b.create_buffer_of::<f64>(256).unwrap())).unwrap();
        let err = q.enqueue_ndrange(&k, nd).unwrap_err();
        assert!(matches!(err, clrt::ClError::InvalidMemObject(_)), "{err:?}");

        // A kernel of the other context (with its own buffer).
        let foreign = kernel_of(&ctx_b);
        foreign
            .set_arg(0, ArgValue::BufferMut(ctx_b.create_buffer_of::<f64>(256).unwrap()))
            .unwrap();
        let err = q.enqueue_ndrange(&foreign, nd).unwrap_err();
        assert!(matches!(err, clrt::ClError::InvalidContext(_)), "{err:?}");

        assert_eq!(q.pending_len(), 0, "a rejected launch must not be buffered");
        q.finish();
        // The queue still works for a well-formed launch.
        let own = ctx_a.create_buffer_of::<f64>(256).unwrap();
        k.set_arg(0, ArgValue::BufferMut(own.clone())).unwrap();
        q.enqueue_ndrange(&k, nd).unwrap();
        q.finish();
        assert!(own.host_snapshot::<f64>().iter().all(|&v| v == 2.0));
    }

    #[test]
    fn work_group_info_free_function_matches_method() {
        let (_platform, ctx) = setup(ContextSchedPolicy::AutoFit, "wgi");
        let prog = ctx.create_program(vec![Arc::new(GpuFriendly) as Arc<dyn KernelBody>]).unwrap();
        let k = prog.create_kernel("gpu_friendly").unwrap();
        set_kernel_work_group_info(&k, DeviceId(0), clrt::NdRange::d1(128, 1)).unwrap();
        assert!(k.has_work_group_info(DeviceId(0)));
    }

    /// A parametric compute-dominated kernel used by the predictor tests:
    /// the family varies flops/item, bytes/item, traits, and launch size
    /// smoothly, so the log-linear cost model is learnable from executions.
    struct SynthKernel {
        name: String,
        cost: KernelCostSpec,
    }

    impl KernelBody for SynthKernel {
        fn name(&self) -> &str {
            &self.name
        }
        fn arity(&self) -> usize {
            1
        }
        fn cost(&self) -> KernelCostSpec {
            self.cost
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            for v in ctx.slice_mut::<f64>(0) {
                *v += 1.0;
            }
        }
    }

    fn synth_kernel(rng: &mut hwsim::xrand::XorShift, name: String) -> SynthKernel {
        let traits = KernelTraits {
            coalescing: rng.range_f64(0.7, 1.0),
            branch_divergence: rng.range_f64(0.0, 0.3),
            vector_friendliness: rng.range_f64(0.8, 1.0),
            double_precision: false,
        };
        SynthKernel {
            name,
            cost: KernelCostSpec {
                flops_per_item: rng.range_f64(2_000.0, 8_000.0),
                bytes_per_item: rng.range_f64(4.0, 16.0),
                traits,
            },
        }
    }

    /// Predictor-enabled options over a scratch cache dir.
    fn predictor_options(tag: &str, persist: bool) -> SchedOptions {
        SchedOptions {
            predictor_confidence: predictor::DEFAULT_PREDICTOR_CONFIDENCE,
            predictor_persist: persist,
            ..scratch_options(tag)
        }
    }

    /// Train the shared-directory predictor by *executing* a diverse kernel
    /// family across every device: a ROUND_ROBIN context ignores kernel
    /// preferences, so each device sees varied features. One scheduling
    /// epoch per generation; the model persists to `tag`'s cache dir.
    fn train_predictor(tag: &str, seed: u64, generations: usize) {
        let platform = Platform::paper_node();
        let ctx = MulticlContext::with_options(
            &platform,
            ContextSchedPolicy::RoundRobin,
            predictor_options(tag, true),
        )
        .unwrap();
        let mut rng = hwsim::xrand::XorShift::new(seed);
        let queues: Vec<SchedQueue> = (0..6)
            .map(|_| ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap())
            .collect();
        for g in 0..generations {
            let kernels: Vec<SynthKernel> = (0..queues.len())
                .map(|i| synth_kernel(&mut rng, format!("train_{tag}_{g}_{i}")))
                .collect();
            let bodies: Vec<Arc<dyn KernelBody>> =
                kernels.into_iter().map(|k| Arc::new(k) as Arc<dyn KernelBody>).collect();
            let names: Vec<String> = bodies.iter().map(|b| b.name().to_string()).collect();
            let prog = ctx.create_program(bodies).unwrap();
            for (q, name) in queues.iter().zip(&names) {
                let k = prog.create_kernel(name).unwrap();
                let b = ctx.create_buffer_of::<f64>(1 << 10).unwrap();
                k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
                let local = 64;
                let global = local * rng.range_u64(64, 512);
                q.enqueue_ndrange(&k, clrt::NdRange::d1(global, local)).unwrap();
            }
            ctx.finish_all();
        }
    }

    #[test]
    fn cold_predictor_falls_back_to_profiling_then_refines_online() {
        use crate::telemetry::RingBufferSink;

        let platform = Platform::paper_node();
        let recorder = Arc::new(RingBufferSink::new(1024));
        let mut options = predictor_options("pred-cold", false);
        options.observers = vec![recorder.clone()];
        let ctx =
            MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options).unwrap();
        let mut rng = hwsim::xrand::XorShift::new(41);
        let kernels: Vec<SynthKernel> =
            (0..2).map(|i| synth_kernel(&mut rng, format!("cold_{i}"))).collect();
        let bodies: Vec<Arc<dyn KernelBody>> =
            kernels.into_iter().map(|k| Arc::new(k) as Arc<dyn KernelBody>).collect();
        let prog = ctx.create_program(bodies).unwrap();
        let queues: Vec<SchedQueue> = (0..2)
            .map(|_| ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap())
            .collect();
        let ks: Vec<Kernel> = (0..2)
            .map(|i| {
                let k = prog.create_kernel(&format!("cold_{i}")).unwrap();
                let b = ctx.create_buffer_of::<f64>(1 << 10).unwrap();
                k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
                k
            })
            .collect();
        for _ in 0..12 {
            for (q, k) in queues.iter().zip(&ks) {
                q.enqueue_ndrange(k, clrt::NdRange::d1(1 << 14, 64)).unwrap();
            }
            ctx.finish_all();
        }

        let stats = ctx.stats();
        // The untrained model must not fake confidence: both cold kernels
        // fell back to real profiling, provably (the events say so).
        assert_eq!(stats.predictor_fallbacks, 2, "one fallback per cold kernel");
        assert_eq!(stats.kernels_predicted, 0, "nothing predictable on a cold model");
        // One profiling pass per cold queue (each queue's cost vector is
        // obtained separately) — exactly the predictor-off behaviour.
        assert_eq!(stats.profiled_epochs, 2, "profiling ran exactly as without the predictor");
        let events = recorder.snapshot();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(
                    e,
                    SchedEvent::PredictorFallback { reason, .. } if &**reason == "untrained"
                ))
                .count(),
            2,
            "{events:?}"
        );
        // Online refinement kicked in once the executing devices
        // accumulated enough completions to predict.
        assert!(
            events.iter().any(|e| matches!(e, SchedEvent::PredictorRefined { .. })),
            "expected refinement events after 12 epochs: {events:?}"
        );
        let trained: u64 =
            (0..platform.node().device_count()).map(|d| ctx.predictor_samples(d)).sum();
        assert!(trained > 0, "completions must train the model");
    }

    #[test]
    fn persisted_predictor_serves_unseen_kernels_without_profiling() {
        use crate::telemetry::RingBufferSink;

        let tag = "pred-warm";
        train_predictor(tag, 4242, 12);

        // A *fresh* context (simulated restart) sharing the cache dir:
        // unseen kernels from the same family must be mapped with zero
        // profiling epochs, served entirely by the persisted model.
        let platform = Platform::paper_node();
        let recorder = Arc::new(RingBufferSink::new(1024));
        let mut options = predictor_options(tag, true);
        options.observers = vec![recorder.clone()];
        let ctx =
            MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options).unwrap();
        for d in 0..platform.node().device_count() {
            assert!(
                ctx.predictor_samples(d) >= MIN_TRAINING_SAMPLES,
                "device {d} must start warm from the persisted model"
            );
        }
        let mut rng = hwsim::xrand::XorShift::new(777);
        let kernels: Vec<SynthKernel> =
            (0..4).map(|i| synth_kernel(&mut rng, format!("unseen_{i}"))).collect();
        let bodies: Vec<Arc<dyn KernelBody>> =
            kernels.into_iter().map(|k| Arc::new(k) as Arc<dyn KernelBody>).collect();
        let prog = ctx.create_program(bodies).unwrap();
        let queues: Vec<SchedQueue> = (0..4)
            .map(|_| ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).unwrap())
            .collect();
        for (i, q) in queues.iter().enumerate() {
            let k = prog.create_kernel(&format!("unseen_{i}")).unwrap();
            let b = ctx.create_buffer_of::<f64>(1 << 10).unwrap();
            k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
            q.enqueue_ndrange(&k, clrt::NdRange::d1(1 << 14, 64)).unwrap();
        }
        ctx.finish_all();

        let stats = ctx.stats();
        assert_eq!(stats.profiled_epochs, 0, "the cold start is gone: no profiling epoch");
        assert_eq!(stats.kernels_predicted, 4, "every unseen kernel was served by the model");
        assert_eq!(stats.predictor_fallbacks, 0);
        let events = recorder.snapshot();
        assert!(
            !events.iter().any(|e| matches!(e, SchedEvent::KernelProfiled { .. })),
            "no kernel may be profiled: {events:?}"
        );
        assert_eq!(
            events.iter().filter(|e| matches!(e, SchedEvent::CostPredicted { .. })).count(),
            4,
            "{events:?}"
        );
        // The mapping decision still happened over real (predicted) costs.
        assert!(events.iter().any(|e| matches!(e, SchedEvent::MappingDecision { .. })));
        // The public gate agrees with what the scheduler just did.
        let probe = synth_kernel(&mut rng, "probe".into());
        assert!(ctx.predictor_confident(
            &probe.cost,
            hwsim::cost::NdRangeShape::new(1 << 14, 64),
            8 << 10
        ));
    }
}
