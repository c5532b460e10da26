//! Data-parallel kernel splitting: virtual-time makespan of an EP-class
//! compute-bound kernel with and without `SCHED_SPLITTABLE`.
//!
//! The unsplit arm runs each launch whole on the device the dynamic
//! scheduler picks — the best single device. The split arm cuts the same
//! launches into contiguous NDRange sub-ranges, one per healthy device,
//! sized in proportion to each device's profiled speed, so the compute
//! spreads over the node. The semantic gates are strict:
//! result buffers must be bit-identical split vs. unsplit, and with the
//! flag off a same-seed rerun must replay the exact virtual-time trace.
//!
//! Writes `results/BENCH_split.json` (and a CSV of the table).

use crate::experiments::common::{bench_options, fnv, is_app, trace_fingerprint, FNV_OFFSET};
use crate::harness::{fresh_platform, Table};
use clrt::{ArgValue, KernelBody, KernelCtx, NdRange};
use hwsim::json::Json;
use hwsim::{KernelCostSpec, KernelTraits};
use multicl::telemetry::RingBufferSink;
use multicl::{ContextSchedPolicy, MulticlContext, QueueSchedFlags, SchedEvent};
use std::sync::Arc;

/// Workgroup size of the kernel (items per workgroup).
pub const LOCAL: u64 = 64;

/// One measured arm.
#[derive(Debug, Clone)]
pub struct SplitPoint {
    /// `"split"` or `"unsplit"`.
    pub arm: &'static str,
    /// Virtual-time makespan of the batch (profiling commands excluded).
    pub makespan_ms: f64,
    /// Launches the scheduler actually split.
    pub kernels_split: u64,
    /// Distinct devices that executed kernel commands.
    pub devices_used: usize,
    /// Per-device workgroup shares summed over every `KernelSplit` event.
    pub wgs_per_device: Vec<u64>,
    /// Order-normalized FNV hash of the non-profiling trace records.
    pub trace_fingerprint: u64,
    /// FNV hash over the bit patterns of the output buffer.
    pub output_digest: u64,
}

/// An EP-style kernel: embarrassingly parallel, heavily compute-bound
/// (~5k declared flops per item against 8 bytes of traffic), writing one
/// deterministic accumulator per item. It honors sub-range launches —
/// the contract [`clrt::KernelBody::splittable`] requires — so the
/// scheduler may hand disjoint item spans to different devices.
struct EpFlops {
    name: String,
}

impl KernelBody for EpFlops {
    fn name(&self) -> &str {
        &self.name
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
pub fn run_arm(seed: u64, elements: usize, launches: usize, split: bool) -> SplitPoint {
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
    // Deterministic pseudo-random inputs from the seed, no RNG dependency.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let data: Vec<f64> = (0..elements).map(|_| next()).collect();
    queue.enqueue_write(&input, &data).expect("write");

    // One kernel name for every launch: dynamic profiling runs once per
    // device, in the first epoch, so later epochs are pure application
    // work the split sizes from warm profile rows.
    let bodies: Vec<Arc<dyn KernelBody>> = vec![Arc::new(EpFlops { name: "ep_flops".to_string() })];
    let program = ctx.create_program(bodies).expect("program");
    let k = program.create_kernel("ep_flops").expect("kernel");
    k.set_arg(0, ArgValue::Buffer(input.clone())).unwrap();
    k.set_arg(1, ArgValue::BufferMut(output.clone())).unwrap();
    for _ in 0..launches {
        queue.enqueue_ndrange(&k, NdRange::d1(elements as u64, LOCAL)).expect("enqueue");
        // One launch per sync epoch.
        ctx.finish_all();
    }

    let mut digest = FNV_OFFSET;
    for v in output.host_snapshot::<f64>() {
        fnv(&mut digest, v.to_bits());
    }

    let stats = ctx.stats();
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
    let app: Vec<_> = trace.records.iter().filter(|r| is_app(r)).cloned().collect();
    let kernels: Vec<_> = app
        .iter()
        .filter(|r| matches!(r.kind, hwsim::engine::CommandKind::Kernel { .. }))
        .collect();
    // Measure from the first application kernel start (device profiling,
    // the staging write and dynamic profiling all precede it) to the last
    // application command end (the final epoch's gathers included).
    let base = kernels.iter().map(|r| r.stamp.start.as_nanos()).min().unwrap_or(0);
    let makespan_ns =
        app.iter().map(|r| r.stamp.end.as_nanos().saturating_sub(base)).max().unwrap_or(0);
    let kernel_devices: std::collections::HashSet<usize> =
        kernels.iter().map(|r| r.device.index()).collect();
    SplitPoint {
        arm: if split { "split" } else { "unsplit" },
        makespan_ms: makespan_ns as f64 / 1e6,
        kernels_split: stats.kernels_split,
        devices_used: kernel_devices.len(),
        wgs_per_device,
        trace_fingerprint: trace_fingerprint(&trace),
        output_digest: digest,
    }
}

/// Virtual-time speedup of a split arm over the unsplit baseline
/// (1.5 = the split batch finished in 2/3 the time).
pub fn speedup(unsplit: &SplitPoint, split: &SplitPoint) -> f64 {
    if split.makespan_ms <= 0.0 {
        return 0.0;
    }
    unsplit.makespan_ms / split.makespan_ms
}

/// Check the bench's gates — `replay` is a second unsplit run of the same
/// seed; returns the violations (empty = pass).
pub fn violations(unsplit: &SplitPoint, replay: &SplitPoint, split: &SplitPoint) -> Vec<String> {
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
    if unsplit.trace_fingerprint != replay.trace_fingerprint {
        out.push("the flag-off same-seed rerun did not replay byte-identically".to_string());
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

/// Render both arms as a table.
pub fn table(unsplit: &SplitPoint, split: &SplitPoint) -> Table {
    let mut t = Table::new(
        "Data-parallel kernel splitting: virtual-time makespan",
        &["arm", "makespan ms", "speedup", "split", "devices", "wgs/device"],
    );
    for p in [unsplit, split] {
        let shares = p
            .wgs_per_device
            .iter()
            .enumerate()
            .map(|(d, w)| format!("D{d}:{w}"))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(vec![
            p.arm.to_string(),
            format!("{:.3}", p.makespan_ms),
            if p.arm == "unsplit" { "—".into() } else { format!("{:.2}x", speedup(unsplit, p)) },
            format!("{}", p.kernels_split),
            format!("{}", p.devices_used),
            if shares.is_empty() { "—".into() } else { shares },
        ]);
    }
    t
}

/// The `BENCH_split.json` payload.
pub fn to_json(
    seed: u64,
    elements: usize,
    launches: usize,
    unsplit: &SplitPoint,
    split: &SplitPoint,
) -> Json {
    let point = |p: &SplitPoint| {
        Json::obj([
            ("arm", Json::from(p.arm)),
            ("makespan_ms", Json::from(p.makespan_ms)),
            ("kernels_split", Json::from(p.kernels_split)),
            ("devices_used", Json::from(p.devices_used)),
            (
                "wgs_per_device",
                Json::Arr(p.wgs_per_device.iter().map(|&w| Json::from(w)).collect()),
            ),
            ("trace_fingerprint", Json::from(p.trace_fingerprint)),
            ("output_digest", Json::from(p.output_digest)),
        ])
    };
    Json::obj([
        ("experiment", Json::from("split")),
        ("seed", Json::from(seed)),
        ("elements", Json::from(elements)),
        ("launches", Json::from(launches)),
        ("best_speedup", Json::from(speedup(unsplit, split))),
        ("bit_identical_outputs", Json::Bool(split.output_digest == unsplit.output_digest)),
        ("points", Json::Arr(vec![point(unsplit), point(split)])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_split_is_faster_and_bitwise_identical() {
        let unsplit = run_arm(42, 1 << 14, 2, false);
        let split = run_arm(42, 1 << 14, 2, true);
        assert_eq!(unsplit.output_digest, split.output_digest, "outputs diverged");
        assert_eq!(unsplit.kernels_split, 0);
        assert!(split.kernels_split > 0, "no launch was split: {split:?}");
        assert!(split.devices_used >= 2, "split arm stayed on one device: {split:?}");
        assert!(speedup(&unsplit, &split) > 1.0, "no speedup: {unsplit:?} vs {split:?}");
    }

    #[test]
    fn flag_off_replays_byte_identically() {
        let a = run_arm(3, 1 << 12, 2, false);
        let b = run_arm(3, 1 << 12, 2, false);
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
        assert_eq!(a.output_digest, b.output_digest);
    }

    #[test]
    fn violations_list_every_broken_gate() {
        // A "split arm" that is really the unsplit run with a doctored
        // digest breaks every split gate and the speedup.
        let unsplit = run_arm(3, 1 << 12, 2, false);
        let bad = SplitPoint {
            arm: "split",
            output_digest: unsplit.output_digest ^ 1,
            ..unsplit.clone()
        };
        let found = violations(&unsplit, &unsplit, &bad);
        assert_eq!(found.len(), 5, "{found:?}");
        assert!(found[0].contains("changed buffer contents"), "{found:?}");
        assert!(found[4].contains("got 1.00x"), "{found:?}");
    }
}
