//! The runtime's claims beyond the paper's evaluation, one `#[test]` per
//! claim: out-of-order overlap, kernel splitting, predictor cold start,
//! graceful degradation under faults, exact causal tracing, mapper scaling
//! and the service capacity plateau.
//!
//! Virtual time is deterministic, so each claim is a plain assertion over a
//! seeded run. A debug build runs each claim at a small size; a release
//! build runs the full size the README quotes:
//!
//! ```text
//! cargo test --release -p multicl-bench --test extension_claims -- --nocapture
//! ```
//!
//! Every claim's checker returns *all* its violations, so a failure names
//! each broken gate at once. Two gates are in host time (the tracing
//! observers' wall-clock overhead and the mapper's per-decision budget);
//! claims therefore run one at a time, so none of them measures another.

use clrt::{ArgValue, KernelBody, KernelCtx, NdRange, Platform, RuntimeConfig};
use hwsim::json::Json;
use hwsim::{KernelCostSpec, KernelTraits, SimDuration, Trace, TraceRecord};
use multicl::telemetry::{RingBufferSink, SchedEvent};
use multicl::{ContextSchedPolicy, MulticlContext, QueueSchedFlags, SchedOptions};
use multicl_bench::experiments::common::bench_options;
use multicl_bench::fresh_platform;
use served::loadgen::{self, LoadgenConfig};
use served::ServePolicy;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Release builds run every claim at full size; debug builds at the small
/// size that keeps the workspace test run short.
const FULL: bool = !cfg!(debug_assertions);

/// Serializes the claims (see the module docs). The mutex guards no data,
/// so a claim that panicked while holding it leaves nothing to repair.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static CLAIMS: Mutex<()> = Mutex::new(());
    CLAIMS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn assert_holds(claim: &str, violations: &[String]) {
    assert!(violations.is_empty(), "{claim} violations:\n  - {}", violations.join("\n  - "));
}

/// The profile-cache directory every bench context of this process shares,
/// for the claims that drive `served`'s load generator.
fn cache_dir() -> PathBuf {
    bench_options(true).profile_cache.dir().to_path_buf()
}

/// Application records only: dynamic-profiling and static
/// device-profiling commands are scheduler overhead, not the batch.
fn is_app(r: &TraceRecord) -> bool {
    !r.has_tag(multicl::PROFILING_TAG) && !r.tag_starts_with("device-profiling")
}

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `v` (little-endian bytes) into the FNV-1a state `h`; start from
/// [`FNV_OFFSET`].
fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over non-profiling records with queue ids renumbered by first
/// appearance and timestamps taken relative to the batch's earliest
/// queued time, so a cold (profiling) and a warm process fingerprint
/// identically.
fn trace_fingerprint(trace: &Trace) -> u64 {
    let app: Vec<_> = trace.records.iter().filter(|r| is_app(r)).collect();
    let base = app.iter().map(|r| r.stamp.queued.as_nanos()).min().unwrap_or(0);
    let mut qmap: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut h = FNV_OFFSET;
    for r in app {
        let next = qmap.len();
        let q = *qmap.entry(r.queue).or_insert(next);
        fnv(&mut h, q as u64);
        fnv(&mut h, r.device.index() as u64);
        for b in format!("{:?}", r.kind).bytes() {
            fnv(&mut h, b as u64);
        }
        fnv(&mut h, r.stamp.queued.as_nanos() - base);
        fnv(&mut h, r.stamp.submit.as_nanos() - base);
        fnv(&mut h, r.stamp.start.as_nanos() - base);
        fnv(&mut h, r.stamp.end.as_nanos() - base);
    }
    h
}

/// FNV-1a over the bit patterns of `buffers`' contents.
fn output_digest<'a>(buffers: impl IntoIterator<Item = &'a clrt::Buffer>) -> u64 {
    let mut digest = FNV_OFFSET;
    for buffer in buffers {
        for v in buffer.host_snapshot::<f64>() {
            fnv(&mut digest, v.to_bits());
        }
    }
    digest
}

/// Deterministic pseudo-random inputs in [-0.5, 0.5) from `seed`, with no
/// RNG dependency.
fn inputs(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// Out-of-order epoch execution: virtual-time makespan of a staged
/// task-parallel batch with and without `SCHED_OUT_OF_ORDER`.
///
/// The workload interleaves a host-to-device staging write with a kernel
/// for each of N independent tasks on one command queue. The in-order arm
/// chains every command, so the copy and compute lanes strictly
/// alternate; the out-of-order arm derives waits from per-buffer hazards
/// and the epoch batch reorder (Johnson's rule), so transfers for later
/// tasks stream while earlier kernels compute and independent kernels
/// spread across devices.
mod overlap {
    use super::*;
    use hwsim::report::lane_utilization_of;

    /// One measured arm.
    #[derive(Debug, Clone)]
    struct OverlapPoint {
        /// Virtual-time makespan of the batch (profiling commands excluded).
        makespan_ms: f64,
        /// Commands the epoch reorderer emitted out of program order.
        commands_reordered: u64,
        /// Per-device copy/compute overlap fraction, by device index.
        lane_overlap: Vec<(usize, f64)>,
        /// Order-normalized FNV hash of the non-profiling trace records.
        trace_fingerprint: u64,
        /// FNV hash over the bit patterns of every output buffer.
        output_digest: u64,
    }

    /// `out[i] = in[i] * scale + in[n-1-i]` — deterministic and
    /// device-placement independent. The declared flops are tuned so kernel
    /// time roughly balances the per-task copy-lane time (staging write +
    /// input migration), the regime where the two lanes can fully overlap.
    struct Stage {
        name: String,
        scale: f64,
    }

    impl KernelBody for Stage {
        fn name(&self) -> &str {
            &self.name
        }
        fn arity(&self) -> usize {
            2
        }
        fn cost(&self) -> KernelCostSpec {
            KernelCostSpec {
                flops_per_item: 3000.0,
                bytes_per_item: 16.0,
                traits: KernelTraits::default(),
            }
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let n = ctx.nd().global_items() as usize;
            let input: Vec<f64> = ctx.slice::<f64>(0)[..n].to_vec();
            let out = ctx.slice_mut::<f64>(1);
            for i in 0..n {
                out[i] = input[i] * self.scale + input[n - 1 - i];
            }
        }
    }

    /// Per-task problem size: cycles through full, half and quarter size so
    /// the batch is cost-heterogeneous and Johnson's rule has something to
    /// reorder (short-transfer tasks migrate to the front of the epoch).
    fn task_elements(elements: usize, task: usize) -> usize {
        (elements >> (task % 3)).max(64)
    }

    /// Run one arm of the experiment on a fresh platform.
    fn run_arm(seed: u64, elements: usize, tasks: usize, ooo: bool) -> OverlapPoint {
        let platform = fresh_platform();
        let ctx = MulticlContext::with_options(
            &platform,
            ContextSchedPolicy::AutoFit,
            bench_options(true),
        )
        .expect("context");
        let flags = if ooo {
            QueueSchedFlags::SCHED_AUTO_STATIC | QueueSchedFlags::SCHED_OUT_OF_ORDER
        } else {
            QueueSchedFlags::SCHED_AUTO_STATIC
        };
        let queue = ctx.create_queue(flags).expect("queue");
        // Inputs are staged through a pinned device-0 queue, so the compute
        // device sees a real first-touch migration per task — the transfer
        // the out-of-order arm hides under compute, and the cost signal
        // Johnson's rule sorts the epoch by.
        let staging = ctx.create_queue_on(hwsim::DeviceId(0)).expect("staging queue");

        let bodies: Vec<Arc<dyn KernelBody>> = (0..tasks)
            .map(|t| {
                Arc::new(Stage { name: format!("stage{t}"), scale: 1.0 + t as f64 * 0.125 })
                    as Arc<dyn KernelBody>
            })
            .collect();
        let program = ctx.create_program(bodies).expect("program");

        let mut next = inputs(seed);
        let mut outputs = Vec::with_capacity(tasks);
        for t in 0..tasks {
            let n = task_elements(elements, t);
            let input = ctx.create_buffer_of::<f64>(n).expect("input");
            let output = ctx.create_buffer_of::<f64>(n).expect("output");
            let data: Vec<f64> = (0..n).map(|_| next()).collect();
            staging.enqueue_write(&input, &data).expect("write");
            let k = program.create_kernel(&format!("stage{t}")).expect("kernel");
            k.set_arg(0, ArgValue::Buffer(input.clone())).unwrap();
            k.set_arg(1, ArgValue::BufferMut(output.clone())).unwrap();
            queue.enqueue_ndrange(&k, NdRange::d1(n as u64, 64)).expect("enqueue");
            outputs.push(output);
        }
        ctx.finish_all();

        let trace = platform.take_trace();
        let app: Vec<_> = trace.records.iter().filter(|r| is_app(r)).cloned().collect();
        let base = app.iter().map(|r| r.stamp.queued.as_nanos()).min().unwrap_or(0);
        let makespan_ns = app.iter().map(|r| r.stamp.end.as_nanos() - base).max().unwrap_or(0);
        OverlapPoint {
            makespan_ms: makespan_ns as f64 / 1e6,
            commands_reordered: ctx.stats().commands_reordered,
            lane_overlap: lane_utilization_of(&app)
                .iter()
                .map(|(d, u)| (d.index(), u.overlap_fraction()))
                .collect(),
            trace_fingerprint: trace_fingerprint(&trace),
            output_digest: output_digest(&outputs),
        }
    }

    /// Fractional makespan reduction of the out-of-order arm over the
    /// in-order arm (0.15 = 15% faster in virtual time).
    fn reduction(in_order: &OverlapPoint, ooo: &OverlapPoint) -> f64 {
        if in_order.makespan_ms <= 0.0 {
            return 0.0;
        }
        1.0 - ooo.makespan_ms / in_order.makespan_ms
    }

    /// Check the claim's gates — `replay` is a second in-order run of the
    /// same seed; returns the violations (empty = pass).
    fn violations(
        in_order: &OverlapPoint,
        replay: &OverlapPoint,
        ooo: &OverlapPoint,
    ) -> Vec<String> {
        let mut out = Vec::new();
        if in_order.output_digest != ooo.output_digest {
            out.push("the out-of-order arm changed buffer contents".to_string());
        }
        if in_order.trace_fingerprint != replay.trace_fingerprint
            || in_order.output_digest != replay.output_digest
        {
            out.push("the flag-off same-seed rerun did not replay byte-identically".to_string());
        }
        let cut = reduction(in_order, ooo);
        if cut < 0.15 {
            out.push(format!(
                "expected \u{2265}15% virtual-time makespan reduction, got {:.1}% \
                 ({:.3} ms in-order vs {:.3} ms out-of-order)",
                cut * 100.0,
                in_order.makespan_ms,
                ooo.makespan_ms
            ));
        }
        if in_order.commands_reordered != 0 {
            out.push("the in-order arm reordered commands".to_string());
        }
        if ooo.commands_reordered == 0 {
            out.push("the out-of-order arm reordered nothing".to_string());
        }
        if !ooo.lane_overlap.iter().any(|&(_, fraction)| fraction > 0.0) {
            out.push(format!(
                "no device overlapped its copy and compute lanes: {:?}",
                ooo.lane_overlap
            ));
        }
        out
    }

    #[test]
    fn out_of_order_epochs_cut_the_makespan_by_15_percent() {
        let _one = one_at_a_time();
        let (tasks, elements) = if FULL { (24, 1 << 19) } else { (8, 1 << 14) };
        let in_order = run_arm(42, elements, tasks, false);
        let replay = run_arm(42, elements, tasks, false);
        let ooo = run_arm(42, elements, tasks, true);
        println!(
            "overlap ({tasks} tasks): {:.3} ms in-order → {:.3} ms out-of-order, {:.1}% \
             reduction, {} commands reordered, lane overlap {:?}",
            in_order.makespan_ms,
            ooo.makespan_ms,
            reduction(&in_order, &ooo) * 100.0,
            ooo.commands_reordered,
            ooo.lane_overlap
        );
        assert_holds("overlap", &violations(&in_order, &replay, &ooo));
    }

    #[test]
    fn a_violated_gate_is_listed_with_every_other() {
        let _one = one_at_a_time();
        // One task leaves the out-of-order arm nothing to reorder or overlap.
        let in_order = run_arm(42, 1 << 14, 1, false);
        let replay = run_arm(42, 1 << 14, 1, false);
        let ooo = run_arm(42, 1 << 14, 1, true);
        let found = violations(&in_order, &replay, &ooo);
        assert!(found.iter().any(|v| v == "the out-of-order arm reordered nothing"), "{found:?}");
        assert!(found.iter().any(|v| v.contains("makespan reduction, got")), "{found:?}");
    }
}

/// Data-parallel kernel splitting: virtual-time makespan of an EP-class
/// compute-bound kernel with and without `SCHED_SPLITTABLE`.
///
/// The unsplit arm runs each launch whole on the device the dynamic
/// scheduler picks — the best single device. The split arm cuts the same
/// launches into contiguous NDRange sub-ranges, one per healthy device,
/// sized in proportion to each device's profiled speed, so the compute
/// spreads over the node.
mod split {
    use super::*;

    /// Workgroup size of the kernel (items per workgroup).
    const LOCAL: u64 = 64;

    /// One measured arm.
    #[derive(Debug, Clone, PartialEq)]
    struct SplitPoint {
        /// Virtual-time makespan of the batch (profiling commands excluded).
        makespan_ms: f64,
        /// Launches the scheduler actually split.
        kernels_split: u64,
        /// Distinct devices that executed kernel commands.
        devices_used: usize,
        /// Per-device workgroup shares summed over every `KernelSplit` event.
        wgs_per_device: Vec<u64>,
        /// Order-normalized FNV hash of the non-profiling trace records.
        trace_fingerprint: u64,
        /// FNV hash over the bit patterns of the output buffer.
        output_digest: u64,
    }

    /// An EP-style kernel: embarrassingly parallel, heavily compute-bound
    /// (~16k declared flops per item against 8 bytes of traffic), writing
    /// one deterministic accumulator per item. It honors sub-range launches
    /// — the contract [`clrt::KernelBody::splittable`] requires — so the
    /// scheduler may hand disjoint item spans to different devices.
    struct EpFlops;

    impl KernelBody for EpFlops {
        fn name(&self) -> &str {
            "ep_flops"
        }
        fn arity(&self) -> usize {
            2
        }
        fn cost(&self) -> KernelCostSpec {
            KernelCostSpec {
                flops_per_item: 16000.0,
                bytes_per_item: 8.0,
                traits: KernelTraits {
                    coalescing: 1.0,
                    branch_divergence: 0.2,
                    vector_friendliness: 0.15,
                    double_precision: true,
                },
            }
        }
        fn splittable(&self) -> bool {
            true
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let base = ctx.global_offset()[0] as usize;
            let n = ctx.nd().global_items() as usize;
            let input: Vec<f64> = ctx.slice::<f64>(0)[base..base + n].to_vec();
            let out = ctx.slice_mut::<f64>(1);
            for i in 0..n {
                // A short LCG walk seeded by the *global* item index, so the
                // result is independent of how the launch was partitioned.
                let mut s = (base + i) as u64 | 1;
                for _ in 0..4 {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                }
                out[base + i] = input[i] + (s >> 11) as f64 / (1u64 << 53) as f64;
            }
        }
    }

    /// Run one arm on a fresh platform: `launches` sync epochs of one
    /// `elements`-item EP-class kernel on a single queue. `split: false` is
    /// the unsplit baseline (plain `SCHED_AUTO_DYNAMIC`, which places each
    /// whole launch on the best single device).
    fn run_arm(seed: u64, elements: usize, launches: usize, split: bool) -> SplitPoint {
        let platform = fresh_platform();
        let sink = Arc::new(RingBufferSink::new(1 << 14));
        let mut options = bench_options(true);
        options.observers.push(sink.clone());
        let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
            .expect("context");
        let flags = if split {
            QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_SPLITTABLE
        } else {
            QueueSchedFlags::SCHED_AUTO_DYNAMIC
        };
        let queue = ctx.create_queue(flags).expect("queue");

        let input = ctx.create_buffer_of::<f64>(elements).expect("input");
        let output = ctx.create_buffer_of::<f64>(elements).expect("output");
        let mut next = inputs(seed);
        let data: Vec<f64> = (0..elements).map(|_| next()).collect();
        queue.enqueue_write(&input, &data).expect("write");

        // One kernel name for every launch: dynamic profiling runs once per
        // device, in the first epoch, so later epochs are pure application
        // work the split sizes from warm profile rows.
        let bodies: Vec<Arc<dyn KernelBody>> = vec![Arc::new(EpFlops)];
        let program = ctx.create_program(bodies).expect("program");
        let k = program.create_kernel("ep_flops").expect("kernel");
        k.set_arg(0, ArgValue::Buffer(input.clone())).unwrap();
        k.set_arg(1, ArgValue::BufferMut(output.clone())).unwrap();
        for _ in 0..launches {
            queue.enqueue_ndrange(&k, NdRange::d1(elements as u64, LOCAL)).expect("enqueue");
            // One launch per sync epoch.
            ctx.finish_all();
        }

        let mut wgs_per_device: Vec<u64> = Vec::new();
        for ev in sink.drain() {
            if let SchedEvent::KernelSplit { wgs_per_device: shares, .. } = ev {
                if wgs_per_device.len() < shares.len() {
                    wgs_per_device.resize(shares.len(), 0);
                }
                for (acc, s) in wgs_per_device.iter_mut().zip(&shares) {
                    *acc += s;
                }
            }
        }
        let trace = platform.take_trace();
        let app: Vec<_> = trace.records.iter().filter(|r| is_app(r)).collect();
        let kernels: Vec<_> = app
            .iter()
            .filter(|r| matches!(r.kind, hwsim::engine::CommandKind::Kernel { .. }))
            .collect();
        // Measure from the first application kernel start (device profiling,
        // the staging write and dynamic profiling all precede it) to the
        // last application command end (the final epoch's gathers included).
        let base = kernels.iter().map(|r| r.stamp.start.as_nanos()).min().unwrap_or(0);
        let makespan_ns =
            app.iter().map(|r| r.stamp.end.as_nanos().saturating_sub(base)).max().unwrap_or(0);
        let kernel_devices: std::collections::HashSet<usize> =
            kernels.iter().map(|r| r.device.index()).collect();
        SplitPoint {
            makespan_ms: makespan_ns as f64 / 1e6,
            kernels_split: ctx.stats().kernels_split,
            devices_used: kernel_devices.len(),
            wgs_per_device,
            trace_fingerprint: trace_fingerprint(&trace),
            output_digest: output_digest([&output]),
        }
    }

    /// Virtual-time speedup of a split arm over the unsplit baseline
    /// (1.5 = the split batch finished in 2/3 the time).
    fn speedup(unsplit: &SplitPoint, split: &SplitPoint) -> f64 {
        if split.makespan_ms <= 0.0 {
            return 0.0;
        }
        unsplit.makespan_ms / split.makespan_ms
    }

    /// Check the claim's gates — `replay` and `split_replay` are second
    /// same-seed runs of each arm; returns the violations (empty = pass).
    fn violations(
        unsplit: &SplitPoint,
        replay: &SplitPoint,
        split: &SplitPoint,
        split_replay: &SplitPoint,
    ) -> Vec<String> {
        let mut out = Vec::new();
        if unsplit.kernels_split != 0 {
            out.push("the unsplit arm split a launch".to_string());
        }
        if unsplit.output_digest != split.output_digest {
            out.push("the split arm changed buffer contents".to_string());
        }
        if split.kernels_split == 0 {
            out.push("the split arm never split a launch".to_string());
        }
        if split.wgs_per_device.iter().sum::<u64>() == 0 {
            out.push("the split arm recorded empty shares".to_string());
        }
        if split.devices_used < 2 {
            out.push(format!("the split arm ran kernels on only {} device(s)", split.devices_used));
        }
        if unsplit.trace_fingerprint != replay.trace_fingerprint
            || unsplit.output_digest != replay.output_digest
        {
            out.push("the flag-off same-seed rerun did not replay byte-identically".to_string());
        }
        if split != split_replay {
            out.push(format!(
                "the split arm's same-seed rerun differs: {split:?} vs {split_replay:?}"
            ));
        }
        let got = speedup(unsplit, split);
        if got < 1.3 {
            out.push(format!(
                "expected \u{2265}1.3x virtual-time speedup over the best single device, got \
                 {got:.2}x ({:.3} ms unsplit)",
                unsplit.makespan_ms
            ));
        }
        out
    }

    #[test]
    fn splitting_one_launch_beats_the_best_device_by_1_3x() {
        let _one = one_at_a_time();
        let (launches, elements) = if FULL { (6, 1 << 18) } else { (2, 1 << 14) };
        let unsplit = run_arm(42, elements, launches, false);
        let replay = run_arm(42, elements, launches, false);
        let split = run_arm(42, elements, launches, true);
        let split_replay = run_arm(42, elements, launches, true);
        println!(
            "split ({launches} launches of {elements} items): {:.3} ms unsplit → {:.3} ms split, \
             {:.2}x, workgroups per device {:?}",
            unsplit.makespan_ms,
            split.makespan_ms,
            speedup(&unsplit, &split),
            split.wgs_per_device
        );
        assert_holds("split", &violations(&unsplit, &replay, &split, &split_replay));
    }

    #[test]
    fn a_split_arm_that_did_not_split_breaks_every_split_gate() {
        let _one = one_at_a_time();
        // A "split arm" that is really the unsplit run with a doctored
        // digest breaks every split gate and the speedup.
        let unsplit = run_arm(3, 1 << 12, 2, false);
        let bad = SplitPoint { output_digest: unsplit.output_digest ^ 1, ..unsplit.clone() };
        let found = violations(&unsplit, &unsplit, &bad, &bad);
        assert_eq!(found.len(), 5, "{found:?}");
        assert!(found[0].contains("changed buffer contents"), "{found:?}");
        assert!(found[4].contains("got 1.00x"), "{found:?}");
    }
}

/// Cold start: feature-based cost prediction vs. the profiling epoch a
/// cold `AUTO_FIT` context pays for every unseen kernel.
///
/// With a persisted, feature-trained predictor, a *restarted* scheduler
/// maps kernels it has never executed with **zero** profiling epochs,
/// cutting what the cold start adds to the first epoch — the first epoch
/// over the arm's own mean steady epoch — by at least 10× against
/// profiling, while the steady-state makespan stays within 10% of the
/// fully-profiled schedule. Confidence is honest: an out-of-family kernel
/// (a trait direction never seen in training) must fall back to real
/// profiling, not be mapped from a fantasy. Every arm runs twice with the same seed and must reproduce its
/// report byte-for-byte.
mod coldstart {
    use super::*;
    use multicl::profile::{DeviceProfile, ProfileCache};
    use multicl::{CostPredictor, SchedQueue, DEFAULT_PREDICTOR_CONFIDENCE};

    /// One measured arm: the cold profiling baseline or the warm predictor.
    #[derive(Debug, Clone)]
    struct ColdPoint {
        /// Virtual latency of the first epoch over the unseen kernel set
        /// (enqueue to full drain).
        first_epoch: SimDuration,
        /// Summed virtual latency of the steady-state epochs (2..=N).
        steady: SimDuration,
        /// Their mean: the epoch the first one would be without a cold
        /// start.
        steady_epoch: SimDuration,
        /// Profiling epochs charged while serving the unseen set (before
        /// the out-of-family probe).
        profiled_epochs: u64,
        /// Kernels whose cost row came from the predictor.
        kernels_predicted: u64,
        /// Kernels the confidence gate declined (including the
        /// out-of-family probe).
        predictor_fallbacks: u64,
        /// Sorted relative errors of the online refinement observations.
        rel_errors: Vec<f64>,
        /// The deterministic JSON fingerprint of this arm.
        report: String,
    }

    /// One unseen-kernel working set served for a number of epochs,
    /// preceded (predictor arm only) by an off-line training phase on a
    /// *different* kernel population.
    #[derive(Debug, Clone, Copy)]
    struct ColdConfig {
        /// RNG seed for both the training and the serving kernel populations.
        seed: u64,
        /// Unseen kernels (= queues) in the serving working set.
        queues: usize,
        /// Serving epochs (first + steady state).
        epochs: usize,
        /// Training generations (6 kernels each) for the predictor arm.
        generations: usize,
    }

    /// This claim's own scratch cache directory: it deletes and persists
    /// the predictor model file there, which no other claim may see.
    fn model_cache_dir() -> PathBuf {
        std::env::temp_dir().join(format!("multicl-bench-coldstart-cache-{}", std::process::id()))
    }

    /// A parametric compute-dominated kernel: the family varies flops/item,
    /// bytes/item, traits, and launch size smoothly, so the roofline cost
    /// model is learnable from executions (same family as the `multicl`
    /// predictor tests).
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

    /// Options over the claim's cache dir with the device profile
    /// pre-measured on a *scratch* platform, so context construction
    /// cache-hits it in every arm and run — the determinism anchor for
    /// byte-identical reports.
    fn warm_options(platform: &Platform, predictor: bool) -> SchedOptions {
        let cache = ProfileCache::at(model_cache_dir());
        let fingerprint = platform.node().fingerprint();
        if !cache.contains(&fingerprint) {
            let scratch = Platform::new(platform.node().clone());
            let _ = cache.store(&DeviceProfile::measure(&scratch));
        }
        let options = SchedOptions { profile_cache: cache, ..SchedOptions::default() };
        if !predictor {
            return options;
        }
        SchedOptions {
            predictor_confidence: DEFAULT_PREDICTOR_CONFIDENCE,
            predictor_persist: true,
            ..options
        }
    }

    /// Train the predictor by *executing* a diverse kernel family across
    /// every device (a `ROUND_ROBIN` context ignores kernel preferences)
    /// and persist the model into the cache dir. Any previously persisted
    /// model is removed first so training is identical across same-seed
    /// runs.
    fn train(platform: &Platform, cfg: &ColdConfig) {
        let fingerprint = platform.node().fingerprint();
        let _ = std::fs::remove_file(CostPredictor::file_in(&model_cache_dir(), &fingerprint));
        let ctx = MulticlContext::with_options(
            platform,
            ContextSchedPolicy::RoundRobin,
            warm_options(platform, true),
        )
        .expect("training context");
        let mut rng = hwsim::xrand::XorShift::new(cfg.seed ^ 0x7261_696e);
        let queues: Vec<SchedQueue> = (0..6)
            .map(|_| ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue"))
            .collect();
        for g in 0..cfg.generations {
            let bodies: Vec<Arc<dyn KernelBody>> = (0..queues.len())
                .map(|i| {
                    Arc::new(synth_kernel(&mut rng, format!("train_{g}_{i}")))
                        as Arc<dyn KernelBody>
                })
                .collect();
            let names: Vec<String> = bodies.iter().map(|b| b.name().to_string()).collect();
            let prog = ctx.create_program(bodies).expect("program");
            for (q, name) in queues.iter().zip(&names) {
                let k = prog.create_kernel(name).expect("kernel");
                let b = ctx.create_buffer_of::<f64>(1 << 10).expect("buffer");
                k.set_arg(0, ArgValue::BufferMut(b)).expect("arg");
                let local = 64;
                let global = local * rng.range_u64(64, 512);
                q.enqueue_ndrange(&k, NdRange::d1(global, local)).expect("enqueue");
            }
            ctx.finish_all();
        }
    }

    /// Run one arm once. `predictor` selects the warm-predictor arm (train,
    /// restart, serve from the persisted model); otherwise the profiling
    /// baseline (predictor disabled entirely).
    fn run_arm(cfg: &ColdConfig, predictor: bool) -> ColdPoint {
        let platform = Platform::paper_node();
        if predictor {
            train(&platform, cfg);
        }
        let recorder = Arc::new(RingBufferSink::new(1 << 14));
        let mut options = warm_options(&platform, predictor);
        options.observers.push(recorder.clone());
        let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
            .expect("serving context");
        // Construction must surface the disk cache hit as a telemetry event
        // (epoch 0, before any scheduling).
        assert!(
            recorder.snapshot().iter().any(
                |e| matches!(e, SchedEvent::CacheHit { epoch: 0, key } if &**key == "device_profile")
            ),
            "context construction must emit the device_profile cache-hit event"
        );

        // The unseen working set: same seed in both arms, disjoint from the
        // training population by name and RNG stream.
        let mut rng = hwsim::xrand::XorShift::new(cfg.seed ^ 0x5e42);
        let bodies: Vec<Arc<dyn KernelBody>> = (0..cfg.queues)
            .map(|i| Arc::new(synth_kernel(&mut rng, format!("unseen_{i}"))) as Arc<dyn KernelBody>)
            .collect();
        let prog = ctx.create_program(bodies).expect("program");
        let queues: Vec<SchedQueue> = (0..cfg.queues)
            .map(|_| ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue"))
            .collect();
        let kernels: Vec<clrt::Kernel> = (0..cfg.queues)
            .map(|i| {
                let k = prog.create_kernel(&format!("unseen_{i}")).expect("kernel");
                let b = ctx.create_buffer_of::<f64>(1 << 10).expect("buffer");
                k.set_arg(0, ArgValue::BufferMut(b)).expect("arg");
                k
            })
            .collect();

        let mut epoch_times: Vec<SimDuration> = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            let t0 = platform.now();
            for (q, k) in queues.iter().zip(&kernels) {
                q.enqueue_ndrange(k, NdRange::d1(1 << 14, 64)).expect("enqueue");
            }
            ctx.finish_all();
            epoch_times.push(platform.now().saturating_since(t0));
        }
        let stats = ctx.stats();
        let (profiled_epochs, kernels_predicted) = (stats.profiled_epochs, stats.kernels_predicted);

        // Out-of-family probe: double precision never appears in training,
        // so the gate must decline it and profiling must take over.
        if predictor {
            let probe = SynthKernel {
                name: "oof_double".into(),
                cost: KernelCostSpec {
                    flops_per_item: 3_000.0,
                    bytes_per_item: 8.0,
                    traits: KernelTraits { double_precision: true, ..KernelTraits::IDEAL },
                },
            };
            let prog =
                ctx.create_program(vec![Arc::new(probe) as Arc<dyn KernelBody>]).expect("prog");
            let k = prog.create_kernel("oof_double").expect("kernel");
            let b = ctx.create_buffer_of::<f64>(1 << 10).expect("buffer");
            k.set_arg(0, ArgValue::BufferMut(b)).expect("arg");
            queues[0].enqueue_ndrange(&k, NdRange::d1(1 << 14, 64)).expect("enqueue");
            ctx.finish_all();
        }

        let events = recorder.snapshot();
        let mut rel_errors: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                SchedEvent::PredictorRefined { rel_error, .. } => Some(*rel_error),
                _ => None,
            })
            .collect();
        rel_errors.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
        let predictor_fallbacks = ctx.stats().predictor_fallbacks;
        let first_epoch = epoch_times[0];
        let steady = epoch_times[1..].iter().fold(SimDuration::ZERO, |acc, &t| acc + t);
        let steady_epoch = steady / (epoch_times.len() as u64 - 1);
        let report = Json::obj([
            ("first_epoch_ns", Json::from(first_epoch.as_nanos())),
            ("steady_ns", Json::from(steady.as_nanos())),
            (
                "epochs_ns",
                Json::Arr(epoch_times.iter().map(|t| Json::from(t.as_nanos())).collect()),
            ),
            ("profiled_epochs", Json::from(profiled_epochs)),
            ("kernels_predicted", Json::from(kernels_predicted)),
            ("predictor_fallbacks", Json::from(predictor_fallbacks)),
            ("rel_errors", Json::Arr(rel_errors.iter().map(|&e| Json::from(e)).collect())),
            ("events", Json::from(events.len())),
        ])
        .dump();
        ColdPoint {
            first_epoch,
            steady,
            steady_epoch,
            profiled_epochs,
            kernels_predicted,
            predictor_fallbacks,
            rel_errors,
            report,
        }
    }

    /// Run one arm **twice** with the same seed; the two reports must match
    /// byte-for-byte.
    fn run_twice(cfg: &ColdConfig, predictor: bool) -> ColdPoint {
        let first = run_arm(cfg, predictor);
        let second = run_arm(cfg, predictor);
        assert_eq!(
            first.report, second.report,
            "arm (predictor: {predictor}) is not bit-identical across same-seed runs"
        );
        first
    }

    /// Nearest-rank quantile of an already-sorted sample set.
    fn quantile(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        sorted[((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1]
    }

    fn first_epoch_speedup(base: &ColdPoint, warm: &ColdPoint) -> f64 {
        base.first_epoch.as_nanos() as f64 / warm.first_epoch.as_nanos().max(1) as f64
    }

    /// What profiling or prediction adds to an arm's first epoch: the first
    /// epoch over the arm's own mean steady epoch, in ns.
    fn first_epoch_excess(p: &ColdPoint) -> u64 {
        p.first_epoch.as_nanos().saturating_sub(p.steady_epoch.as_nanos())
    }

    /// How many times more profiling adds to the first epoch than the
    /// predictor does.
    fn excess_ratio(base: &ColdPoint, warm: &ColdPoint) -> f64 {
        first_epoch_excess(base) as f64 / first_epoch_excess(warm).max(1) as f64
    }

    fn steady_ratio(base: &ColdPoint, warm: &ColdPoint) -> f64 {
        warm.steady.as_nanos() as f64 / base.steady.as_nanos().max(1) as f64
    }

    /// Check the cold-start claims; returns the violations (empty = pass).
    fn violations(base: &ColdPoint, warm: &ColdPoint) -> Vec<String> {
        let mut out = Vec::new();
        // The gate is on the cold start's own cost. Both first epochs also
        // run the working set once, which no predictor can save: since the
        // profiler probes every device at once, that share decides the
        // whole-epoch ratio (about 5×) more than the cold start does.
        let excess = excess_ratio(base, warm);
        if excess < 10.0 {
            out.push(format!(
                "first-epoch excess ratio {excess:.2}x < 10x ({} vs {} ns over the steady epoch)",
                first_epoch_excess(base),
                first_epoch_excess(warm)
            ));
        }
        let ratio = steady_ratio(base, warm);
        if ratio > 1.1 {
            out.push(format!("steady-state makespan ratio {ratio:.3} > 1.1"));
        }
        if warm.profiled_epochs != 0 {
            out.push(format!(
                "warm arm charged {} profiling epoch(s) for in-family kernels",
                warm.profiled_epochs
            ));
        }
        if warm.kernels_predicted == 0 {
            out.push("warm arm predicted nothing".into());
        }
        if warm.predictor_fallbacks == 0 {
            out.push("out-of-family probe did not fall back to profiling".into());
        }
        if warm.rel_errors.is_empty() {
            out.push("no online refinement observations".into());
        }
        if base.kernels_predicted != 0 || base.predictor_fallbacks != 0 {
            out.push("baseline arm must not touch the predictor".into());
        }
        if base.profiled_epochs == 0 {
            out.push("baseline arm did not profile (nothing to compare against)".into());
        }
        out
    }

    #[test]
    fn a_warm_predictor_maps_unseen_kernels_without_profiling() {
        let _one = one_at_a_time();
        let cfg = ColdConfig {
            seed: 42,
            queues: if FULL { 6 } else { 4 },
            epochs: if FULL { 12 } else { 5 },
            generations: 12,
        };
        let base = run_twice(&cfg, false);
        let warm = run_twice(&cfg, true);
        println!(
            "coldstart ({} unseen kernels): first epoch {:.3} → {:.3} ms ({:.1}x), over the \
             arm's steady epoch ({:.3} / {:.3} ms) {:.4} → {:.4} ms ({:.1}x), steady-state \
             ratio {:.3}, {} kernels predicted, {} profiling epochs, prediction error p50 {:.1}% \
             / p90 {:.1}%",
            cfg.queues,
            base.first_epoch.as_millis_f64(),
            warm.first_epoch.as_millis_f64(),
            first_epoch_speedup(&base, &warm),
            base.steady_epoch.as_millis_f64(),
            warm.steady_epoch.as_millis_f64(),
            first_epoch_excess(&base) as f64 / 1e6,
            first_epoch_excess(&warm) as f64 / 1e6,
            excess_ratio(&base, &warm),
            steady_ratio(&base, &warm),
            warm.kernels_predicted,
            warm.profiled_epochs,
            quantile(&warm.rel_errors, 0.5) * 100.0,
            quantile(&warm.rel_errors, 0.9) * 100.0
        );
        assert_holds("coldstart", &violations(&base, &warm));
    }
}

/// Fault injection over the served workload: transient transfer-failure
/// rates and permanent device-loss scenarios.
///
/// The claim is *graceful degradation*: with retries, epoch remapping, and
/// admission shedding in place, goodput falls roughly with the lost
/// capacity but never collapses to zero while at least one device stays
/// healthy — and every run stays deterministic (bit-identical reports for
/// a fixed seed) and panic-free, faults included.
mod faults {
    use super::*;
    use hwsim::{DeviceId, FaultPlan, SimTime};

    /// One fault scenario of the sweep.
    #[derive(Debug, Clone)]
    struct FaultScenario {
        /// Stable label for messages.
        label: String,
        /// Per-transfer failure probability.
        rate: f64,
        /// Devices permanently lost, with their virtual loss instants.
        lose: Vec<(DeviceId, SimTime)>,
    }

    /// One measured point: the scenario plus service-level outcomes.
    #[derive(Debug, Clone)]
    struct FaultPoint {
        /// The scenario that produced this point.
        scenario: FaultScenario,
        /// Jobs that executed cleanly.
        completed: u64,
        /// Fault-failed dispatches that were re-queued.
        retried: u64,
        /// Goodput: completions per virtual second of serving time.
        goodput_hz: u64,
        /// `DeviceDown` events observed in telemetry.
        devices_down: u64,
        /// `Remapped` (fault-evacuation) events observed in telemetry.
        queues_remapped: u64,
        /// The full deterministic JSON report (determinism fingerprint).
        report: String,
    }

    /// The scenario grid. The small grid keeps debug runs short; the full
    /// sweep adds intermediate failure rates and a two-device loss.
    fn scenarios(full: bool) -> Vec<FaultScenario> {
        let rates: &[f64] = if full { &[0.0, 0.01, 0.05, 0.2] } else { &[0.0, 0.2] };
        let mut out: Vec<FaultScenario> = rates
            .iter()
            .map(|&rate| FaultScenario {
                label: format!("transfer_{rate}"),
                rate,
                lose: Vec::new(),
            })
            .collect();
        // Lose one GPU mid-run: the scheduler must blacklist it, evacuate
        // its queues, and keep serving on the remaining devices.
        out.push(FaultScenario {
            label: "lose_gpu1_mid_run".into(),
            rate: 0.0,
            lose: vec![(DeviceId(1), SimTime::from_nanos(30_000_000))],
        });
        if full {
            // Lose both GPUs, staggered: only the CPU survives. Goodput must
            // still be non-zero.
            out.push(FaultScenario {
                label: "lose_both_gpus".into(),
                rate: 0.0,
                lose: vec![
                    (DeviceId(1), SimTime::from_nanos(25_000_000)),
                    (DeviceId(2), SimTime::from_nanos(45_000_000)),
                ],
            });
            // Compound stress: flaky transfers *and* a mid-run device loss.
            out.push(FaultScenario {
                label: "transfer_0.05+lose_gpu2".into(),
                rate: 0.05,
                lose: vec![(DeviceId(2), SimTime::from_nanos(30_000_000))],
            });
        }
        out
    }

    /// Run one scenario once and collect its point.
    fn run_point(scenario: &FaultScenario, seed: u64, jobs: usize) -> FaultPoint {
        let mut plan = FaultPlan::new(seed ^ 0xfa17).with_transfer_failure_rate(scenario.rate);
        for &(device, at) in &scenario.lose {
            plan = plan.lose_device(device, at);
        }
        let cfg = LoadgenConfig {
            seed,
            jobs,
            tenants: 4,
            workers: 4,
            queue_capacity: 8,
            rate_hz: 800.0,
            runtime: RuntimeConfig { fault_plan: Some(plan), ..RuntimeConfig::default() },
            ..LoadgenConfig::default()
        };
        let recorder = Arc::new(RingBufferSink::new(1 << 16));
        let (served, _) =
            loadgen::run_with(&cfg, &cache_dir(), vec![recorder.clone()]).expect("faulty load run");
        let elapsed_s =
            served.now().saturating_since(served.serving_since()).as_secs_f64().max(1e-12);
        let (mut completed, mut retried) = (0u64, 0u64);
        for i in 0..served.tenant_count() {
            completed += served.metrics().tenant(i).completed.get();
            retried += served.metrics().tenant(i).retried.get();
        }
        let events = recorder.snapshot();
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count() as u64;
        FaultPoint {
            scenario: scenario.clone(),
            completed,
            retried,
            goodput_hz: (completed as f64 / elapsed_s) as u64,
            devices_down: count("device_down"),
            queues_remapped: count("remapped"),
            report: loadgen::report_json(&served, &cfg).dump(),
        }
    }

    /// Run every scenario **twice** with the same seed; the two reports
    /// must match byte-for-byte — fault injection is part of the
    /// deterministic timeline, not noise on top of it.
    fn run(seed: u64, jobs: usize, full: bool) -> Vec<FaultPoint> {
        scenarios(full)
            .iter()
            .map(|s| {
                let first = run_point(s, seed, jobs);
                let second = run_point(s, seed, jobs);
                assert_eq!(
                    first.report, second.report,
                    "scenario `{}` is not bit-identical across same-seed runs",
                    s.label
                );
                first
            })
            .collect()
    }

    /// Check the graceful-degradation properties; returns the violations
    /// (empty = pass).
    fn violations(points: &[FaultPoint]) -> Vec<String> {
        let mut out = Vec::new();
        for p in points {
            let label = &p.scenario.label;
            // Every scenario here leaves >= 1 device healthy, so goodput
            // must never collapse to zero.
            if p.completed == 0 || p.goodput_hz == 0 {
                out.push(format!("`{label}`: goodput collapsed to zero"));
            }
            if !p.scenario.lose.is_empty() {
                if p.devices_down < p.scenario.lose.len() as u64 {
                    out.push(format!(
                        "`{label}`: expected {} device_down event(s), saw {}",
                        p.scenario.lose.len(),
                        p.devices_down
                    ));
                }
                if p.queues_remapped == 0 {
                    out.push(format!("`{label}`: device loss produced no queue evacuation"));
                }
            }
            if p.scenario.rate > 0.0 && p.retried == 0 {
                out.push(format!("`{label}`: transfer faults injected but nothing was retried"));
            }
        }
        // Goodput should not *increase* as the node loses devices: the
        // healthy baseline must be at least as good as every loss scenario.
        let healthy = |p: &&FaultPoint| p.scenario.rate == 0.0 && p.scenario.lose.is_empty();
        if let Some(base) = points.iter().find(healthy) {
            for p in points.iter().filter(|p| !p.scenario.lose.is_empty()) {
                if p.completed > base.completed {
                    out.push(format!(
                        "`{}`: completed more jobs ({}) than the healthy baseline ({})",
                        p.scenario.label, p.completed, base.completed
                    ));
                }
            }
        }
        out
    }

    #[test]
    fn goodput_degrades_gracefully_under_faults() {
        let _one = one_at_a_time();
        let small = scenarios(false);
        let grid = scenarios(true);
        assert!(grid.iter().any(|s| s.rate >= 0.2) && grid.iter().any(|s| s.lose.len() > 1));
        assert!(small.len() < grid.len());

        let jobs = if FULL { 48 } else { 24 };
        let points = run(42, jobs, FULL);
        for p in &points {
            println!(
                "faults `{}` ({jobs} jobs): {} completed, {} retried, goodput {}/s, {} \
                 device_down, {} remapped",
                p.scenario.label,
                p.completed,
                p.retried,
                p.goodput_hz,
                p.devices_down,
                p.queues_remapped
            );
        }
        assert_holds("faults", &violations(&points));
    }
}

/// End-to-end causal tracing over the served workload, per policy
/// (`AUTO_FIT` and `ROUND_ROBIN`):
///
/// 1. **Exact attribution** — every `JobTrace` event's critical-path
///    segments sum *exactly* (nanosecond-equal) to the job's observed
///    end-to-end latency. No residuals, no double counting.
/// 2. **Attribution events** — every policy emits `MakespanAttribution`
///    events pairing the epoch's predicted end (the replay of the plan it
///    issues) with the executed critical path, and the mean relative error
///    between the two stays within the policy's [`PREDICTION_ERROR`].
/// 3. **Determinism** — the same seed produces a byte-identical JSONL
///    event stream across two full runs, and that stream re-parses
///    strictly.
///
/// Plus an **overhead** gate: attaching the tracing observers to the
/// data-plane workload must cost ≤ 5% wall-clock (min-of-N wall times).
mod tracing {
    use super::*;
    use multicl::telemetry::{self, perfetto, sink::parse_jsonl};

    /// Per policy, the most the mean `|predicted − actual| / actual` over
    /// its attributed epochs may be: a ratchet, the release figure (64 jobs:
    /// 0.0020 under AUTO_FIT, 0 under ROUND_ROBIN) rounded up to the next
    /// tenth of a percent. Debug runs fewer, shorter jobs and measures less.
    const PREDICTION_ERROR: [(&str, f64); 2] = [("auto_fit", 0.003), ("round_robin", 0.001)];

    /// Measured tracing results of one policy's run.
    #[derive(Debug, Clone)]
    struct PolicyPoint {
        /// Scheduling policy label (`auto_fit`, `round_robin`).
        policy: &'static str,
        /// `JobTrace` events observed (one per terminal job).
        jobs_traced: u64,
        /// Jobs whose segments did **not** sum to the observed latency.
        sum_violations: u64,
        /// `MakespanAttribution` events observed.
        epochs_attributed: u64,
        /// Mean of `|predicted − actual| / actual` over attributed epochs.
        mean_abs_rel_error: f64,
        /// The serialized JSONL event stream (determinism fingerprint).
        events_jsonl: String,
        /// A Perfetto trace (engine records + job tracks + flow arrows).
        perfetto: String,
    }

    /// The wall-clock overhead measurement: the same data-plane workload
    /// with and without the tracing observers attached.
    #[derive(Debug, Clone)]
    struct OverheadPoint {
        /// Best (min) wall seconds without observers.
        plain_wall_s: f64,
        /// Best (min) wall seconds with a ring-buffer recorder attached.
        traced_wall_s: f64,
        /// `(traced − plain) / plain`, clamped at 0 below.
        overhead_frac: f64,
    }

    /// Serialize an event stream as JSONL with the host-side (wall-clock)
    /// fields zeroed: `mapper_wall` and the data-plane pool gauges are real
    /// time, not virtual time, so they are excluded from the bit-identical
    /// determinism claim.
    fn events_to_jsonl(events: &[SchedEvent]) -> String {
        let mut events = events.to_vec();
        for e in &mut events {
            match e {
                SchedEvent::MappingDecision { mapper_wall, .. } => {
                    *mapper_wall = SimDuration::ZERO;
                }
                SchedEvent::EpochEnd { data_queue_depth, data_peak_busy, .. } => {
                    *data_queue_depth = 0;
                    *data_peak_busy = 0;
                }
                _ => {}
            }
        }
        telemetry::to_jsonl(&events)
    }

    /// Run one policy once. The traced workload is a moderate overload, so
    /// queues build admission wait, retries stay possible, and both
    /// policies schedule multiple epochs.
    fn run_policy_once(seed: u64, jobs: usize, policy: ServePolicy) -> PolicyPoint {
        let recorder = Arc::new(RingBufferSink::new(1 << 16));
        let cfg = LoadgenConfig {
            seed,
            jobs,
            policy,
            tenants: 4,
            workers: 4,
            queue_capacity: 8,
            rate_hz: 2_000.0,
            ..LoadgenConfig::default()
        };
        let (served, _) =
            loadgen::run_with(&cfg, &cache_dir(), vec![recorder.clone()]).expect("traced load run");
        let events = recorder.snapshot();
        assert_eq!(recorder.dropped(), 0, "ring buffer sized for the whole run");

        let mut jobs_traced = 0u64;
        let mut sum_violations = 0u64;
        let mut epochs_attributed = 0u64;
        let mut err_sum = 0.0f64;
        for e in &events {
            match e {
                SchedEvent::JobTrace { submitted_at, completed_at, attempts, .. } => {
                    jobs_traced += 1;
                    let latency = completed_at.saturating_since(*submitted_at);
                    let sum: SimDuration = attempts.iter().map(|a| a.segments.total()).sum();
                    if sum != latency {
                        sum_violations += 1;
                    }
                }
                SchedEvent::MakespanAttribution { predicted, actual, .. } if !actual.is_zero() => {
                    epochs_attributed += 1;
                    let (p, a) = (predicted.as_nanos() as f64, actual.as_nanos() as f64);
                    err_sum += (p - a).abs() / a;
                }
                _ => {}
            }
        }
        let trace = served.context().platform().trace_snapshot();
        PolicyPoint {
            policy: policy.label(),
            jobs_traced,
            sum_violations,
            epochs_attributed,
            mean_abs_rel_error: err_sum / epochs_attributed.max(1) as f64,
            events_jsonl: events_to_jsonl(&events),
            perfetto: perfetto::chrome_trace_with_telemetry(&trace, &events),
        }
    }

    /// Min-of-`reps` wall seconds of the data-plane workload, with or
    /// without the tracing observers attached. A run that reports no wall
    /// time counts as 0 s, which [`violations`] rejects.
    fn wall_seconds(seed: u64, jobs: usize, reps: usize, observed: bool) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let cfg = LoadgenConfig {
                seed,
                jobs,
                tenants: 4,
                workers: 4,
                queue_capacity: 8,
                rate_hz: 64_000.0,
                ..LoadgenConfig::default()
            };
            let observers: Vec<Arc<dyn multicl::SchedObserver>> =
                if observed { vec![Arc::new(RingBufferSink::new(1 << 16))] } else { Vec::new() };
            let (served, _) =
                loadgen::run_with(&cfg, &cache_dir(), observers).expect("overhead run");
            best = best.min(served.wall_elapsed().map_or(0.0, |d| d.as_secs_f64()));
        }
        best
    }

    /// Measure the observer overhead on the data-plane workload.
    fn measure_overhead(seed: u64, jobs: usize, reps: usize) -> OverheadPoint {
        let plain = wall_seconds(seed, jobs, reps, false);
        let traced = wall_seconds(seed, jobs, reps, true);
        let overhead = if plain > 0.0 { ((traced - plain) / plain).max(0.0) } else { 0.0 };
        OverheadPoint { plain_wall_s: plain, traced_wall_s: traced, overhead_frac: overhead }
    }

    /// Check the tracing claims; returns the violations (empty = pass).
    fn violations(points: &[PolicyPoint], overhead: &OverheadPoint) -> Vec<String> {
        let mut out = Vec::new();
        for p in points {
            if p.jobs_traced == 0 {
                out.push(format!("`{}`: no JobTrace events", p.policy));
            }
            if p.sum_violations > 0 {
                out.push(format!(
                    "`{}`: {} job(s) whose segments do not sum to the observed latency",
                    p.policy, p.sum_violations
                ));
            }
            if p.epochs_attributed == 0 {
                out.push(format!("`{}`: no MakespanAttribution events", p.policy));
            }
            let bound = PREDICTION_ERROR.iter().find(|b| b.0 == p.policy).map_or(0.0, |b| b.1);
            if p.mean_abs_rel_error > bound {
                out.push(format!(
                    "`{}`: mean |predicted − actual| / actual {:.4} exceeds its bound {bound}",
                    p.policy, p.mean_abs_rel_error
                ));
            }
            // The stream is what the replay tools read: every line of it
            // decodes, strictly, none skipped.
            let lines = p.events_jsonl.lines().count();
            let decoded = parse_jsonl(&p.events_jsonl).map_or(0, |events| events.len());
            if decoded == 0 || decoded != lines {
                out.push(format!(
                    "`{}`: the stream does not re-parse with `parse_jsonl`: {decoded} of {lines} \
                     lines decoded",
                    p.policy
                ));
            }
            let tracks = Json::parse(&p.perfetto);
            let has = |cat: &str, ph: Option<&str>| {
                tracks.as_ref().and_then(Json::as_arr).is_some_and(|arr| {
                    arr.iter().any(|o| {
                        o.get("cat").and_then(Json::as_str) == Some(cat)
                            && ph.is_none_or(|ph| o.get("ph").and_then(Json::as_str) == Some(ph))
                    })
                })
            };
            if !has("segment", None) || !has("dispatch", Some("s")) {
                out.push(format!(
                    "`{}`: the Perfetto trace lacks job segment tracks or dispatch flow arrows",
                    p.policy
                ));
            }
        }
        if overhead.plain_wall_s <= 0.0 || overhead.traced_wall_s <= 0.0 {
            out.push(format!(
                "no wall time measured ({}s plain, {}s traced): the overhead gate would pass \
                 vacuously",
                overhead.plain_wall_s, overhead.traced_wall_s
            ));
        }
        // The overhead budget is a release-build claim: debug builds time
        // unoptimized code.
        if FULL && overhead.overhead_frac > 0.05 {
            out.push(format!(
                "tracing overhead {:.1}% exceeds the 5% budget ({:.4}s plain vs {:.4}s traced)",
                100.0 * overhead.overhead_frac,
                overhead.plain_wall_s,
                overhead.traced_wall_s
            ));
        }
        out
    }

    #[test]
    fn every_job_is_attributed_exactly_and_tracing_costs_under_5_percent() {
        let _one = one_at_a_time();
        let jobs = if FULL { 64 } else { 24 };
        let points: Vec<PolicyPoint> = [ServePolicy::AutoFit, ServePolicy::RoundRobin]
            .into_iter()
            .map(|policy| {
                let first = run_policy_once(42, jobs, policy);
                let second = run_policy_once(42, jobs, policy);
                assert_eq!(
                    first.events_jsonl, second.events_jsonl,
                    "{}: event stream is not bit-identical across same-seed runs",
                    first.policy
                );
                first
            })
            .collect();
        let (overhead_jobs, reps) = if FULL { (96, 3) } else { (24, 2) };
        let overhead = measure_overhead(42, overhead_jobs, reps);
        for p in &points {
            println!(
                "tracing `{}` ({jobs} jobs): {} jobs traced, {} inexact, {} epochs attributed, \
                 mean |predicted − actual| / actual {:.4}",
                p.policy,
                p.jobs_traced,
                p.sum_violations,
                p.epochs_attributed,
                p.mean_abs_rel_error
            );
        }
        println!(
            "tracing observer overhead: {:.2}% ({:.4}s plain, {:.4}s traced, min of {reps})",
            100.0 * overhead.overhead_frac,
            overhead.plain_wall_s,
            overhead.traced_wall_s
        );
        assert_holds("tracing", &violations(&points, &overhead));
    }
}

/// Mapper scaling: decision cost and solution quality of the mapping
/// strategies as the queue pool grows past the paper's node-scale regime.
///
/// The paper justifies exact search by "the number of devices in
/// present-day nodes is not high" — true at Q=4, D=3, where the whole
/// space is 81 assignments. The serving layer pushes Q=64 pools at D=16,
/// where the space is 16^64 ≈ 10^77 and exhaustive search is physically
/// infeasible. The sweep runs seeded pseudo-random cost matrices (with
/// twin-device symmetric columns, like the paper node's twin GPUs) through
/// greedy (LPT), greedy + local search, and the adaptive mapper under its
/// default node budget.
mod mapper_scaling {
    use super::*;
    use hwsim::xrand::XorShift;
    use multicl::mapper;
    use std::time::{Duration, Instant};

    /// One (Q, D) measurement.
    #[derive(Debug, Clone)]
    struct ScalingPoint {
        /// Queues in the pool.
        queues: usize,
        /// Devices in the node.
        devices: usize,
        /// `D^Q` if it fits in `u128` — the exhaustive-search space size.
        space: Option<u128>,
        /// Plain LPT-greedy makespan.
        greedy: SimDuration,
        /// Greedy refined by move/swap local search.
        refined: SimDuration,
        /// Adaptive (budgeted exact search) makespan.
        adaptive: SimDuration,
        /// Branch-and-bound nodes the adaptive mapper explored.
        nodes: u64,
        /// Whether the adaptive node budget tripped (heuristic answer).
        tripped: bool,
        /// Fastest observed host wall-clock time for the adaptive decision.
        wall: Duration,
        /// Enumerated optimum, where `D^Q` is small enough to brute-force.
        brute: Option<SimDuration>,
    }

    /// The sweep grid: full (up to Q=64 × D=16) or a small prefix.
    fn grid(full: bool) -> Vec<(usize, usize)> {
        let (qs, ds): (&[usize], &[usize]) =
            if full { (&[4, 8, 16, 32, 64], &[2, 4, 8, 16]) } else { (&[4, 8, 16], &[2, 4]) };
        qs.iter().flat_map(|&q| ds.iter().map(move |&d| (q, d))).collect()
    }

    /// Seeded cost matrix with paper-like structure: each device has a
    /// speed factor and each queue a work size; half the devices are
    /// twinned (identical columns), exercising the symmetric-device dedup
    /// exactly as a node with k identical accelerators would. Per-(queue,
    /// distinct-device) noise keeps the rest of the matrix
    /// unrelated-machines hard.
    fn cost_matrix(rng: &mut XorShift, queues: usize, devices: usize) -> mapper::CostMatrix {
        // Distinct speed per device pair: devices 2k and 2k+1 are twins.
        let speeds: Vec<u64> = (0..devices.div_ceil(2)).map(|_| rng.range_u64(2, 12)).collect();
        (0..queues)
            .map(|_| {
                let work = rng.range_u64(50, 5_000);
                let mut row = Vec::with_capacity(devices);
                for &speed in &speeds {
                    let noise = rng.range_u64(0, 200);
                    let cost = SimDuration::from_micros(work * speed / 4 + noise + 1);
                    row.push(cost);
                    if row.len() < devices {
                        row.push(cost); // the twin: an identical column
                    }
                }
                row.truncate(devices);
                row
            })
            .collect()
    }

    /// Measure one grid point.
    fn run_point(queues: usize, devices: usize, seed: u64) -> ScalingPoint {
        let mut rng = XorShift::new(seed ^ ((queues as u64) << 32) ^ devices as u64);
        let costs = cost_matrix(&mut rng, queues, devices);
        let greedy = mapper::greedy(&costs).makespan;
        let refined = mapper::greedy_refined(&costs).makespan;

        let mut scratch = mapper::MapperScratch::new();
        let budget = multicl::DEFAULT_ADAPTIVE_NODE_BUDGET;
        let mut outcome = None;
        let mut wall = Duration::MAX;
        // Three timed runs; keep the fastest wall time (the decision itself
        // is deterministic, so any run's outcome will do).
        for _ in 0..3 {
            let t0 = Instant::now();
            let out = mapper::adaptive(&costs, None, budget, &mut scratch);
            wall = wall.min(t0.elapsed());
            outcome = Some(out);
        }
        let outcome = outcome.expect("three runs happened");

        let space = (devices as u128).checked_pow(queues as u32);
        let brute = space.filter(|&s| s <= mapper::MAX_ENUMERATION as u128).map(|_| {
            let mut load = vec![SimDuration::ZERO; devices];
            mapper::enumerate_assignments(queues, devices)
                .into_iter()
                .map(|a| mapper::makespan(&costs, &a, &mut load))
                .min()
                .expect("non-empty space")
        });

        ScalingPoint {
            queues,
            devices,
            space,
            greedy,
            refined,
            adaptive: outcome.mapping.makespan,
            nodes: outcome.nodes_explored,
            tripped: outcome.budget_tripped,
            wall,
            brute,
        }
    }

    /// Check the sweep's quality and decision-cost claims; returns an error
    /// naming the first violated point. `wall_budget` is the per-decision
    /// host-time ceiling.
    fn verify(points: &[ScalingPoint], wall_budget: Duration) -> Result<(), String> {
        for p in points {
            let at = format!("Q={} D={}", p.queues, p.devices);
            if p.refined > p.greedy {
                return Err(format!("{at}: local search worsened greedy"));
            }
            if p.adaptive > p.greedy {
                return Err(format!(
                    "{at}: adaptive makespan {:?} exceeds greedy {:?}",
                    p.adaptive, p.greedy
                ));
            }
            if p.adaptive > p.refined {
                return Err(format!("{at}: adaptive worse than its own fallback"));
            }
            if let Some(brute) = p.brute {
                if p.tripped {
                    // Tripping on an enumerable instance would mean the
                    // budget is absurdly small; quality is still ≥ greedy,
                    // but flag it.
                    return Err(format!("{at}: budget tripped on an enumerable instance"));
                }
                if p.adaptive != brute {
                    return Err(format!(
                        "{at}: adaptive {:?} != enumerated optimum {brute:?}",
                        p.adaptive
                    ));
                }
            }
            if p.wall > wall_budget {
                return Err(format!("{at}: decision took {:?}, budget {:?}", p.wall, wall_budget));
            }
        }
        // The acceptance point: exact search at the top of the grid is not
        // just slow but physically infeasible, while adaptive handled it.
        if let Some(top) = points.iter().max_by_key(|p| (p.queues, p.devices)) {
            let enumerable = top.space.is_some_and(|s| s <= mapper::MAX_ENUMERATION as u128);
            if top.queues >= 64 && enumerable {
                return Err(format!(
                    "Q={} D={} unexpectedly enumerable — grid too small to show scaling",
                    top.queues, top.devices
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn adaptive_mapping_is_exact_where_enumerable_and_fast_at_64x16() {
        let _one = one_at_a_time();
        // The twin columns the symmetric-device dedup relies on.
        for row in &cost_matrix(&mut XorShift::new(7), 6, 4) {
            assert!(row[0] == row[1] && row[2] == row[3], "devices 0/1 and 2/3 are twins");
        }
        // The top of the full grid is beyond enumeration by construction:
        // 16^64 overflows u128.
        assert_eq!(grid(true).last(), Some(&(64, 16)));
        assert_eq!(16u128.checked_pow(64), None);

        // Per-decision host wall-clock ceiling; debug builds get 10× slack.
        let wall_budget = Duration::from_millis(if FULL { 250 } else { 2_500 });
        let points: Vec<ScalingPoint> =
            grid(FULL).into_iter().map(|(q, d)| run_point(q, d, 42)).collect();
        let top = points.last().expect("non-empty grid");
        println!(
            "mapper_scaling: {} points, largest Q={} D={}: adaptive decision in {:?} ({} nodes, \
             tripped: {}), greedy {:.3} ms → adaptive {:.3} ms",
            points.len(),
            top.queues,
            top.devices,
            top.wall,
            top.nodes,
            top.tripped,
            top.greedy.as_millis_f64(),
            top.adaptive.as_millis_f64()
        );
        if let Err(violation) = verify(&points, wall_budget) {
            panic!("mapper_scaling violation: {violation}");
        }

        // The checker catches a planted quality violation.
        let mut planted = points;
        planted[0].adaptive = planted[0].greedy + SimDuration::from_millis(1);
        let err = verify(&planted, wall_budget).unwrap_err();
        assert!(err.contains("exceeds greedy"), "{err}");
    }
}

/// Service capacity: offered load vs achieved throughput for the `served`
/// front-end under `AUTO_FIT`, `ROUND_ROBIN` and `SCHED_OFF` backends.
///
/// The workload is the load generator's heterogeneous template mix
/// (CPU-leaning, GPU-leaning, and mixed jobs) from four tenants in open
/// loop. Below saturation every policy keeps up; past saturation
/// throughput plateaus at the backend's capacity — and the plateau height
/// is what the scheduler buys: `AUTO_FIT` places each epoch's job mix by
/// measured device affinity, so its plateau sits at or above the static
/// policies'.
mod capacity {
    use super::*;

    /// One (policy, offered-rate) measurement.
    #[derive(Debug, Clone)]
    struct CapacityPoint {
        /// Backend policy.
        policy: ServePolicy,
        /// Offered arrival rate (virtual jobs/s).
        offered_hz: f64,
        /// Achieved completion rate (virtual jobs/s, measured from the end
        /// of service start-up to drain).
        achieved_hz: f64,
        /// Jobs bounced by admission control.
        rejected: u64,
    }

    /// Run one point of the sweep.
    fn run_point(policy: ServePolicy, offered_hz: f64, seed: u64, jobs: usize) -> CapacityPoint {
        let cfg = LoadgenConfig {
            seed,
            policy,
            rate_hz: offered_hz,
            jobs,
            tenants: 4,
            workers: 4,
            queue_capacity: 8,
            ..LoadgenConfig::default()
        };
        let (served, _) = loadgen::run(&cfg, &cache_dir()).expect("load run");
        let elapsed_s =
            served.now().saturating_since(served.serving_since()).as_secs_f64().max(1e-12);
        let (mut completed, mut rejected) = (0u64, 0u64);
        for i in 0..served.tenant_count() {
            completed += served.metrics().tenant(i).completed.get();
            rejected += served.metrics().tenant(i).rejected.get();
        }
        CapacityPoint { policy, offered_hz, achieved_hz: completed as f64 / elapsed_s, rejected }
    }

    /// Achieved throughput of `policy` at the highest offered rate (the
    /// saturation plateau).
    fn plateau(points: &[CapacityPoint], policy: ServePolicy) -> f64 {
        points
            .iter()
            .filter(|p| p.policy == policy)
            .map(|p| (p.offered_hz, p.achieved_hz))
            .fold((0.0, 0.0), |acc, p| if p.0 > acc.0 { p } else { acc })
            .1
    }

    /// Check the capacity claims; `light` is a point offered far below
    /// capacity. Returns the violations (empty = pass).
    fn violations(points: &[CapacityPoint], light: &CapacityPoint) -> Vec<String> {
        let mut out = Vec::new();
        let auto = plateau(points, ServePolicy::AutoFit);
        let rr = plateau(points, ServePolicy::RoundRobin);
        if auto <= 0.0 || rr <= 0.0 {
            out.push(format!("a plateau is empty: AUTO_FIT {auto:.0}, ROUND_ROBIN {rr:.0} jobs/s"));
        }
        if auto < rr * 0.999 {
            out.push(format!(
                "AUTO_FIT plateau ({auto:.0} jobs/s) below ROUND_ROBIN ({rr:.0} jobs/s)"
            ));
        }
        if light.rejected != 0 || light.achieved_hz <= 0.0 {
            out.push(format!("under light load: {light:?}"));
        }
        out
    }

    #[test]
    fn the_auto_fit_plateau_is_at_least_round_robin() {
        let _one = one_at_a_time();
        // From comfortably under capacity to several times over it.
        let rates: &[f64] = if FULL {
            &[1_000.0, 4_000.0, 16_000.0, 64_000.0, 256_000.0]
        } else {
            &[16_000.0, 256_000.0]
        };
        let mut points = Vec::new();
        for policy in [ServePolicy::AutoFit, ServePolicy::RoundRobin, ServePolicy::Off] {
            for &rate in rates {
                points.push(run_point(policy, rate, 42, 64));
            }
        }
        let light = run_point(ServePolicy::AutoFit, 200.0, 7, 16);
        println!(
            "capacity plateau (64 jobs, offered {:.0} jobs/s): AUTO_FIT {:.0}, ROUND_ROBIN {:.0}, \
             SCHED_OFF {:.0} jobs/s",
            rates.last().expect("rates"),
            plateau(&points, ServePolicy::AutoFit),
            plateau(&points, ServePolicy::RoundRobin),
            plateau(&points, ServePolicy::Off)
        );
        assert_holds("capacity", &violations(&points, &light));
    }
}
