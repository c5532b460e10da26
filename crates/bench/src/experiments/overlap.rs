//! Out-of-order epoch execution: virtual-time makespan of a staged
//! task-parallel batch with and without `SCHED_OUT_OF_ORDER`.
//!
//! The workload interleaves a host-to-device staging write with a kernel
//! for each of N independent tasks on one command queue. The in-order arm
//! chains every command, so the copy and compute lanes strictly
//! alternate; the out-of-order arm derives waits from per-buffer hazards
//! and the epoch batch reorder (Johnson's rule), so transfers for later
//! tasks stream while earlier kernels compute and independent kernels
//! spread across devices. The semantic gates are strict: final output
//! buffers must be bit-identical between arms, and with the flag off a
//! same-seed rerun must replay the exact virtual-time trace.
//!
//! Writes `results/BENCH_overlap.json` (and a CSV of the table).

use crate::experiments::common::{bench_options, fnv, is_app, trace_fingerprint, FNV_OFFSET};
use crate::harness::{fresh_platform, Table};
use clrt::{ArgValue, KernelBody, KernelCtx, NdRange};
use hwsim::json::Json;
use hwsim::report::lane_utilization_of;
use hwsim::{KernelCostSpec, KernelTraits};
use multicl::{ContextSchedPolicy, MulticlContext, QueueSchedFlags};
use std::sync::Arc;

/// One measured arm.
#[derive(Debug, Clone)]
pub struct OverlapPoint {
    /// True for the `SCHED_OUT_OF_ORDER` arm.
    pub ooo: bool,
    /// Virtual-time makespan of the batch (profiling commands excluded).
    pub makespan_ms: f64,
    /// Commands the epoch reorderer emitted out of program order.
    pub commands_reordered: u64,
    /// Per-device copy/compute overlap fraction, by device index.
    pub lane_overlap: Vec<(usize, f64)>,
    /// Order-normalized FNV hash of the non-profiling trace records.
    pub trace_fingerprint: u64,
    /// FNV hash over the bit patterns of every output buffer.
    pub output_digest: u64,
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
pub fn task_elements(elements: usize, task: usize) -> usize {
    (elements >> (task % 3)).max(64)
}

/// Run one arm of the experiment on a fresh platform.
pub fn run_arm(seed: u64, elements: usize, tasks: usize, ooo: bool) -> OverlapPoint {
    let platform = fresh_platform();
    let ctx =
        MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, bench_options(true))
            .expect("context");
    let flags = if ooo {
        QueueSchedFlags::SCHED_AUTO_STATIC | QueueSchedFlags::SCHED_OUT_OF_ORDER
    } else {
        QueueSchedFlags::SCHED_AUTO_STATIC
    };
    let queue = ctx.create_queue(flags).expect("queue");
    // Inputs are staged through a pinned device-0 queue, so the compute
    // device sees a real first-touch migration per task — the transfer the
    // out-of-order arm hides under compute, and the cost signal Johnson's
    // rule sorts the epoch by.
    let staging = ctx.create_queue_on(hwsim::DeviceId(0)).expect("staging queue");

    let bodies: Vec<Arc<dyn KernelBody>> = (0..tasks)
        .map(|t| {
            Arc::new(Stage { name: format!("stage{t}"), scale: 1.0 + t as f64 * 0.125 })
                as Arc<dyn KernelBody>
        })
        .collect();
    let program = ctx.create_program(bodies).expect("program");

    // Deterministic pseudo-random inputs from the seed, no RNG dependency.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };

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

    let mut digest = FNV_OFFSET;
    for out in &outputs {
        for v in out.host_snapshot::<f64>() {
            fnv(&mut digest, v.to_bits());
        }
    }

    let stats = ctx.stats();
    let trace = platform.take_trace();
    let app: Vec<_> = trace.records.iter().filter(|r| is_app(r)).cloned().collect();
    let base = app.iter().map(|r| r.stamp.queued.as_nanos()).min().unwrap_or(0);
    let makespan_ns = app.iter().map(|r| r.stamp.end.as_nanos() - base).max().unwrap_or(0);
    let lane_overlap =
        lane_utilization_of(&app).iter().map(|(d, u)| (d.index(), u.overlap_fraction())).collect();
    OverlapPoint {
        ooo,
        makespan_ms: makespan_ns as f64 / 1e6,
        commands_reordered: stats.commands_reordered,
        lane_overlap,
        trace_fingerprint: trace_fingerprint(&trace),
        output_digest: digest,
    }
}

/// Fractional makespan reduction of the out-of-order arm over the
/// in-order arm (0.15 = 15% faster in virtual time).
pub fn reduction(in_order: &OverlapPoint, ooo: &OverlapPoint) -> f64 {
    if in_order.makespan_ms <= 0.0 {
        return 0.0;
    }
    1.0 - ooo.makespan_ms / in_order.makespan_ms
}

/// Check the bench's gates — `replay` is a second in-order run of the same
/// seed; returns the violations (empty = pass).
pub fn violations(
    in_order: &OverlapPoint,
    replay: &OverlapPoint,
    ooo: &OverlapPoint,
) -> Vec<String> {
    let mut out = Vec::new();
    if in_order.output_digest != ooo.output_digest {
        out.push("the out-of-order arm changed buffer contents".to_string());
    }
    if in_order.trace_fingerprint != replay.trace_fingerprint {
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

/// Render both arms as a table.
pub fn table(in_order: &OverlapPoint, ooo: &OverlapPoint) -> Table {
    let mut t = Table::new(
        "Out-of-order epoch execution: virtual-time makespan and lane overlap",
        &["queue", "makespan ms", "reduction", "reordered", "lane overlap"],
    );
    for p in [in_order, ooo] {
        let lanes = p
            .lane_overlap
            .iter()
            .map(|(d, f)| format!("D{d}:{:.0}%", f * 100.0))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(vec![
            if p.ooo { "out-of-order".into() } else { "in-order".into() },
            format!("{:.3}", p.makespan_ms),
            if p.ooo { format!("{:.1}%", reduction(in_order, ooo) * 100.0) } else { "—".into() },
            format!("{}", p.commands_reordered),
            lanes,
        ]);
    }
    t
}

/// The `BENCH_overlap.json` payload.
pub fn to_json(seed: u64, elements: usize, tasks: usize, points: &[&OverlapPoint]) -> Json {
    let in_order = points.iter().find(|p| !p.ooo).expect("in-order point");
    let ooo = points.iter().find(|p| p.ooo).expect("ooo point");
    Json::obj([
        ("experiment", Json::from("overlap")),
        ("seed", Json::from(seed)),
        ("elements", Json::from(elements)),
        ("tasks", Json::from(tasks)),
        ("makespan_reduction", Json::from(reduction(in_order, ooo))),
        ("bit_identical_outputs", Json::Bool(in_order.output_digest == ooo.output_digest)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("ooo", Json::Bool(p.ooo)),
                            ("makespan_ms", Json::from(p.makespan_ms)),
                            ("commands_reordered", Json::from(p.commands_reordered)),
                            (
                                "lane_overlap",
                                Json::Arr(
                                    p.lane_overlap
                                        .iter()
                                        .map(|(d, f)| {
                                            Json::obj([
                                                ("device", Json::from(*d)),
                                                ("fraction", Json::from(*f)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            ("trace_fingerprint", Json::from(p.trace_fingerprint)),
                            ("output_digest", Json::from(p.output_digest)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_arms_agree_bitwise_and_ooo_is_faster() {
        let in_order = run_arm(42, 1 << 14, 8, false);
        let ooo = run_arm(42, 1 << 14, 8, true);
        assert_eq!(in_order.output_digest, ooo.output_digest, "outputs diverged");
        assert!(in_order.commands_reordered == 0);
        assert!(ooo.commands_reordered > 0, "ooo arm never reordered: {ooo:?}");
        assert!(reduction(&in_order, &ooo) > 0.0, "no makespan reduction: {in_order:?} vs {ooo:?}");
    }

    #[test]
    fn flag_off_replays_byte_identically() {
        let a = run_arm(3, 1 << 12, 4, false);
        let b = run_arm(3, 1 << 12, 4, false);
        assert_eq!(a.trace_fingerprint, b.trace_fingerprint);
        assert_eq!(a.output_digest, b.output_digest);
    }
}
