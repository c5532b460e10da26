//! The metric catalogue and how each metric is computed from passes.
//!
//! The names, units and order here are what `BENCHMARK.json` declares (a
//! unit test keeps the two in step). End-to-end metrics come from untraced
//! passes only; per-layer metrics from traced passes, the layer probes and
//! the comparison of the two kinds of pass. A per-layer metric reads 0 on a
//! workload that bypasses its layer.

use crate::host;
use crate::spans::{build_spans, totals_by_name, Mark, MarkKind, Span};
use crate::stats::{median, percentile, spread_pct, tail};
use crate::workloads::Pass;
use hwsim::stats::geomean;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_ops_per_s", "ops/s"),
    ("allocs_per_op", "count"),
    ("alloc_kb_per_op", "KiB"),
    ("peak_rss_mb", "MiB"),
    ("virt_makespan_ms", "ms"),
    ("virt_p50_ms", "ms"),
    ("virt_tail_ms", "ms"),
    ("virt_goodput_per_s", "1/s"),
];

/// `(name, unit)` of every per-layer metric, grouped by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // served
    ("served.submit_us_per_job", "us"),
    ("served.submit_us_per_job_p50", "us"),
    ("served.submit_us_per_job_p99", "us"),
    ("served.issue_us_per_job", "us"),
    ("served.issue_us_per_job_p50", "us"),
    ("served.issue_us_per_job_p99", "us"),
    ("served.account_us_per_job", "us"),
    ("served.account_us_per_job_p50", "us"),
    ("served.account_us_per_job_p99", "us"),
    ("served.rounds", "count"),
    ("served.jobs_per_round", "count"),
    ("served.rejected", "count"),
    ("served.retried", "count"),
    ("served.queue_wait_virt_ms_p50", "ms"),
    // core: scheduler, mapper, profiler
    ("core.map_us_per_epoch", "us"),
    ("core.flush_us_per_epoch", "us"),
    ("core.mapper_wall_us_per_epoch", "us"),
    ("core.mapper_nodes_per_epoch", "count"),
    ("core.host_sched_overhead_pct", "%"),
    ("core.virt_sched_overhead_pct", "%"),
    ("core.epochs", "count"),
    ("core.profiled_epochs", "count"),
    ("core.cache_hit_epochs", "count"),
    ("core.kernels_predicted", "count"),
    ("core.predictor_fallbacks", "count"),
    ("core.kernels_issued", "count"),
    ("core.commands_reordered", "count"),
    ("core.kernels_split", "count"),
    ("core.chunks_stolen", "count"),
    ("core.queues_migrated", "count"),
    ("core.profile_virt_ms", "ms"),
    ("core.makespan_pred_err_pct", "%"),
    ("core.probe_adaptive_us.4x3", "us"),
    ("core.probe_adaptive_us.12x3", "us"),
    ("core.probe_adaptive_us.64x16", "us"),
    // clrt
    ("clrt.drain_us_per_epoch", "us"),
    ("clrt.manual_wall_us_per_cmd", "us"),
    ("clrt.cmds_kernel", "count"),
    ("clrt.cmds_h2d", "count"),
    ("clrt.cmds_d2h", "count"),
    ("clrt.cmds_d2d", "count"),
    ("clrt.tasks_submitted", "count"),
    ("clrt.tasks_inline", "count"),
    ("clrt.joins", "count"),
    ("clrt.peak_busy_workers", "count"),
    ("clrt.peak_queue_depth", "count"),
    ("clrt.probe_enqueue_ns", "ns"),
    ("clrt.probe_handoff_us", "us"),
    // hwsim
    ("hwsim.virt_busy_pct.cpu", "%"),
    ("hwsim.virt_busy_pct.gpu0", "%"),
    ("hwsim.virt_busy_pct.gpu1", "%"),
    ("hwsim.virt_lane_overlap_pct", "%"),
    ("hwsim.virt_transfer_ms", "ms"),
    ("hwsim.trace_records", "count"),
    ("hwsim.probe_submit_ns", "ns"),
    // telemetry
    ("telemetry.events_per_op", "count"),
    ("telemetry.ring_dropped", "count"),
    ("telemetry.probe_encode_ns_per_event", "ns"),
    ("telemetry.probe_decode_ns_per_event", "ns"),
    ("telemetry.probe_ring_ns_per_event", "ns"),
    ("telemetry.probe_jsonl_ns_per_event", "ns"),
    ("telemetry.probe_counter_inc_ns", "ns"),
    ("telemetry.probe_histogram_observe_ns", "ns"),
    // npb and seismo: kernel bodies
    ("npb.wall_ms.BT", "ms"),
    ("npb.wall_ms.CG", "ms"),
    ("npb.wall_ms.EP", "ms"),
    ("npb.wall_ms.FT", "ms"),
    ("npb.wall_ms.MG", "ms"),
    ("npb.wall_ms.SP", "ms"),
    ("npb.virt_ms.BT", "ms"),
    ("npb.virt_ms.CG", "ms"),
    ("npb.virt_ms.EP", "ms"),
    ("npb.virt_ms.FT", "ms"),
    ("npb.virt_ms.MG", "ms"),
    ("npb.virt_ms.SP", "ms"),
    ("npb.virt_overhead_pct.BT", "%"),
    ("npb.virt_overhead_pct.CG", "%"),
    ("npb.virt_overhead_pct.EP", "%"),
    ("npb.virt_overhead_pct.FT", "%"),
    ("npb.virt_overhead_pct.MG", "%"),
    ("npb.virt_overhead_pct.SP", "%"),
    ("seismo.wall_us_per_iter.col", "us"),
    ("seismo.wall_us_per_iter.row", "us"),
    ("seismo.virt_iter_ms.col", "ms"),
    ("seismo.virt_iter_ms.row", "ms"),
    // the benchmark itself
    ("bench.trace_overhead_pct", "%"),
    ("bench.pass_spread_pct", "%"),
    ("bench.runtime_self_pct", "%"),
    ("bench.phase_cover_pct", "%"),
    ("bench.loadgen_lag_virt_ms", "ms"),
    ("bench.fail_share", "ratio"),
    ("bench.cpu_us_per_op", "us"),
];

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// The end-to-end metrics of a run: `setups` are the timed set-up
/// repetitions, `passes` the untraced measured passes. `Err` names what the
/// host could not provide.
pub fn end_to_end(setups: &[f64], passes: &[Pass]) -> Result<(Values, String), String> {
    let first = &passes[0];
    let ops: u64 = passes.iter().map(|p| p.ops).sum();
    let ops = ops.max(1) as f64;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let host = passes.iter().map(|p| p.host).reduce(|a, b| a.plus(&b)).expect("at least one pass");
    let rss_kib = host::peak_rss_kib().ok_or("no /proc/self/status: cannot measure peak RSS")?;
    let (tail_ms, tail_label) = tail(&first.virt_latencies_ms);
    let requests = first.virt_latencies_ms.len();
    let mut v = Values::new();
    v.insert("setup_s".into(), median(setups));
    v.insert("wall_ops_per_s".into(), first.ops as f64 / median(&walls));
    v.insert("allocs_per_op".into(), host.allocs as f64 / ops);
    v.insert("alloc_kb_per_op".into(), host.alloc_bytes as f64 / 1024.0 / ops);
    v.insert("peak_rss_mb".into(), rss_kib as f64 / 1024.0);
    v.insert("virt_makespan_ms".into(), first.virt_makespan_ms);
    v.insert("virt_p50_ms".into(), median(&first.virt_latencies_ms));
    v.insert("virt_tail_ms".into(), tail_ms);
    v.insert(
        "virt_goodput_per_s".into(),
        requests as f64 / (first.virt_makespan_ms / 1e3).max(1e-12),
    );
    let note = format!(
        "pass walls {walls:.3?} s (spread {:.1}%), {requests} requests, virt_tail_ms is their {tail_label}",
        spread_pct(&walls),
    );
    Ok((v, note))
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `name`, `name_p50`, `name_p99` from per-sample microseconds and the
/// total over the job count.
fn job_cost(v: &mut Values, name: &str, total_ns: u64, jobs: u64, samples_us: &[f64]) {
    v.insert(name.into(), us(total_ns) / jobs.max(1) as f64);
    v.insert(format!("{name}_p50"), median(samples_us));
    v.insert(format!("{name}_p99"), percentile(samples_us, 99));
}

/// A traced pass with what its marks yield.
pub struct TracedPass {
    pub pass: Pass,
    /// Per-layer metrics of this pass alone.
    pub values: Values,
    pub spans: Vec<Span>,
}

impl TracedPass {
    pub fn new(pass: Pass, marks: &[Mark]) -> TracedPass {
        let (values, spans) = per_layer_of(&pass, marks);
        TracedPass { pass, values, spans }
    }
}

/// The per-layer metrics one traced pass yields (probes and the
/// traced-vs-untraced comparison are added by [`per_layer`]).
fn per_layer_of(pass: &Pass, marks: &[Mark]) -> (Values, Vec<Span>) {
    let spans = build_spans(marks);
    let totals = totals_by_name(&spans);
    let total = |name: &str| totals.get(name).map_or(0, |t| t.0);
    let mut v = Values::new();

    // served: per-call and per-round costs, normalised per job.
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let submits: Vec<f64> = named("submit").map(|s| us(s.dur_ns())).collect();
    job_cost(&mut v, "served.submit_us_per_job", total("submit"), submits.len() as u64, &submits);
    let dispatched: u64 = named("dispatch_round").map(|s| s.jobs).sum();
    for (metric, phase) in
        [("served.issue_us_per_job", "issue"), ("served.account_us_per_job", "account")]
    {
        let in_rounds = || {
            named(phase).filter_map(|s| {
                let round = &spans[s.parent?];
                (round.name == "dispatch_round" && round.jobs > 0).then_some((s, round.jobs))
            })
        };
        let per_job: Vec<f64> = in_rounds().map(|(s, jobs)| us(s.dur_ns()) / jobs as f64).collect();
        let total_ns: u64 = in_rounds().map(|(s, _)| s.dur_ns()).sum();
        job_cost(&mut v, metric, total_ns, dispatched, &per_job);
    }
    let waits: Vec<f64> = marks
        .iter()
        .filter_map(|m| match m.kind {
            MarkKind::JobTrace { queue_wait_ns } => Some(queue_wait_ns as f64 / 1e6),
            _ => None,
        })
        .collect();
    v.insert("served.queue_wait_virt_ms_p50".into(), median(&waits));

    // core: the scheduler pass, per epoch.
    let epochs = marks.iter().filter(|m| m.kind == MarkKind::EpochBegin).count().max(1) as f64;
    let (mut mapper_ns, mut nodes, mut migrated) = (0u64, 0u64, 0u64);
    let mut pred_err = Vec::new();
    for m in marks {
        match m.kind {
            MarkKind::Mapping { wall_ns, nodes: n } => {
                mapper_ns += wall_ns;
                nodes += n;
            }
            MarkKind::Attribution { predicted_ns, actual_ns } if actual_ns > 0 => {
                pred_err.push(predicted_ns.abs_diff(actual_ns) as f64 / actual_ns as f64);
            }
            MarkKind::Migrated => migrated += 1,
            _ => {}
        }
    }
    v.insert("core.map_us_per_epoch".into(), us(total("map")) / epochs);
    v.insert("core.flush_us_per_epoch".into(), us(total("flush")) / epochs);
    v.insert("core.mapper_wall_us_per_epoch".into(), us(mapper_ns) / epochs);
    v.insert("core.mapper_nodes_per_epoch".into(), nodes as f64 / epochs);
    v.insert("core.queues_migrated".into(), migrated as f64);
    v.insert("core.makespan_pred_err_pct".into(), 100.0 * hwsim::stats::mean(&pred_err));
    v.insert("clrt.drain_us_per_epoch".into(), us(total("drain")) / epochs);

    let l = &pass.layer;
    let ratio_pct = |num: f64, den: f64| if den > 0.0 { 100.0 * (num / den - 1.0) } else { 0.0 };
    v.insert(
        "core.host_sched_overhead_pct".into(),
        ratio_pct(l.auto_wall.as_secs_f64(), l.replay_wall.as_secs_f64()),
    );
    let overhead = if l.overhead_factors.is_empty() { 1.0 } else { geomean(&l.overhead_factors) };
    v.insert("core.virt_sched_overhead_pct".into(), 100.0 * (overhead - 1.0));
    v.insert("core.profile_virt_ms".into(), l.auto_virt_ms - l.replay_virt_ms);
    let s = &l.sched;
    for (name, count) in [
        ("core.epochs", s.sched_invocations),
        ("core.profiled_epochs", s.profiled_epochs),
        ("core.cache_hit_epochs", s.cache_hits),
        ("core.kernels_predicted", s.kernels_predicted),
        ("core.predictor_fallbacks", s.predictor_fallbacks),
        ("core.kernels_issued", s.kernels_issued),
        ("core.commands_reordered", s.commands_reordered),
        ("core.kernels_split", s.kernels_split),
        ("core.chunks_stolen", s.chunks_stolen),
        ("clrt.tasks_submitted", l.tasks_submitted),
        ("clrt.tasks_inline", l.tasks_inline),
        ("clrt.joins", l.joins),
        ("clrt.peak_busy_workers", l.peak_busy_workers as u64),
        ("clrt.peak_queue_depth", l.peak_queue_depth as u64),
    ] {
        v.insert(name.into(), count as f64);
    }
    v.insert(
        "clrt.manual_wall_us_per_cmd".into(),
        l.replay_wall.as_secs_f64() * 1e6 / l.replay_commands.max(1) as f64,
    );

    // clrt and hwsim: what the virtual-time traces hold.
    let d = &pass.digest;
    for (name, count) in [
        ("clrt.cmds_kernel", d.kernels),
        ("clrt.cmds_h2d", d.h2d),
        ("clrt.cmds_d2h", d.d2h),
        ("clrt.cmds_d2d", d.d2d),
        ("hwsim.trace_records", d.records),
    ] {
        v.insert(name.into(), count as f64);
    }
    let share = |part: f64, whole: f64| if whole > 0.0 { 100.0 * part / whole } else { 0.0 };
    for (device, busy) in ["cpu", "gpu0", "gpu1"].into_iter().zip(d.busy_ms) {
        v.insert(format!("hwsim.virt_busy_pct.{device}"), share(busy, d.horizon_ms));
    }
    v.insert("hwsim.virt_lane_overlap_pct".into(), share(d.overlap_ms, d.short_lane_ms));
    v.insert("hwsim.virt_transfer_ms".into(), d.transfer_ms);

    // telemetry and the benchmark's own accounting.
    let events = marks.iter().filter(|m| !matches!(m.kind, MarkKind::Enter(_) | MarkKind::Exit));
    v.insert("telemetry.events_per_op".into(), events.count() as f64 / pass.ops.max(1) as f64);
    let runtime_ns: u64 =
        ["submit", "issue", "map", "flush", "account"].into_iter().map(total).sum();
    v.insert(
        "bench.runtime_self_pct".into(),
        share(runtime_ns as f64, pass.wall.as_nanos() as f64),
    );
    // Of the calls that held an epoch, how much the phases cover (a manual
    // replay's steps hold none and do not count).
    let phase = |s: &&Span| {
        ["issue", "map", "flush", "drain", "account"].contains(&s.name)
            && s.parent.is_some_and(|p| spans[p].name != "run_benchmark")
    };
    let phases: u64 = spans.iter().filter(phase).map(Span::dur_ns).sum();
    let mut parents: Vec<usize> = spans.iter().filter(phase).filter_map(|s| s.parent).collect();
    parents.dedup();
    let phased: u64 = parents.iter().map(|&p| spans[p].dur_ns()).sum();
    v.insert("bench.phase_cover_pct".into(), share(phases as f64, phased as f64));
    v.insert("bench.fail_share".into(), pass.failed as f64 / pass.attempted.max(1) as f64);
    v.extend(l.extra.iter().map(|(k, x)| (k.clone(), *x)));
    (v, spans)
}

/// Per-layer metrics of a traced run: the median over the traced passes of
/// each metric, the probes, the traced-vs-untraced comparison and the CPU
/// time of the untraced passes. Every catalogue name is present (0 where the
/// workload bypasses the layer). `Err` names what the host could not provide.
pub fn per_layer(
    untraced: &[Pass],
    traced: &[TracedPass],
    probes: &Values,
) -> Result<Values, String> {
    let mut v: Values = PER_LAYER.iter().map(|(name, _)| (name.to_string(), 0.0)).collect();
    for (name, value) in v.iter_mut() {
        let samples: Vec<f64> = traced.iter().filter_map(|t| t.values.get(name).copied()).collect();
        if !samples.is_empty() {
            *value = median(&samples);
        }
    }
    v.extend(probes.iter().map(|(k, x)| (k.clone(), *x)));
    let wall = |p: &Pass| p.wall.as_secs_f64();
    let plain: Vec<f64> = untraced.iter().map(wall).collect();
    let with_trace: Vec<f64> = traced.iter().map(|t| wall(&t.pass)).collect();
    v.insert(
        "bench.trace_overhead_pct".into(),
        100.0 * (median(&with_trace) / median(&plain) - 1.0),
    );
    v.insert("bench.pass_spread_pct".into(), spread_pct(&plain));
    let cpu_us: Option<u64> = untraced.iter().map(|p| p.host.cpu_us).sum();
    let cpu_us = cpu_us.ok_or("no /proc/self/stat: cannot measure CPU time")?;
    let ops: u64 = untraced.iter().map(|p| p.ops).sum();
    v.insert("bench.cpu_us_per_op".into(), cpu_us as f64 / ops.max(1) as f64);
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::json::Json;

    /// `BENCHMARK.json` declares exactly the catalogue, in order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn per_layer_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().chain(&END_TO_END).map(|m| m.0).collect();
        assert!(PER_LAYER.len() <= 128);
        assert!(names.iter().all(|n| n.len() <= 64));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
