//! End-to-end causal tracing validation: the observability layer's own
//! benchmark.
//!
//! Three claims are checked over the served workload, per policy
//! (`AUTO_FIT` and `ROUND_ROBIN`):
//!
//! 1. **Exact attribution** — every `JobTrace` event's critical-path
//!    segments sum *exactly* (nanosecond-equal) to the job's observed
//!    end-to-end latency. No residuals, no double counting.
//! 2. **Honest prediction** — every scheduling epoch emits a
//!    `MakespanAttribution` pairing the mapper's predicted makespan with
//!    the executed critical path; the sweep reports the mean absolute
//!    relative error per policy.
//! 3. **Determinism** — the same seed produces a byte-identical JSONL
//!    event stream across two full runs (tracing is part of the virtual
//!    timeline, not wall-clock noise on top of it).
//!
//! Plus an **overhead** gate: attaching the tracing observers to the
//! data-plane workload must cost ≤ 5% wall-clock (min-of-N wall times,
//! so scheduler jitter does not fail the gate spuriously).

use crate::harness::Table;
use hwsim::json::Json;
use multicl::telemetry::{self, perfetto, RingBufferSink, SchedEvent};
use served::loadgen::{self, LoadgenConfig};
use served::ServePolicy;
use std::path::PathBuf;
use std::sync::Arc;

/// Measured tracing results of one policy's run.
#[derive(Debug, Clone)]
pub struct PolicyPoint {
    /// Scheduling policy label (`auto_fit`, `round_robin`).
    pub policy: String,
    /// `JobTrace` events observed (one per terminal job).
    pub jobs_traced: u64,
    /// Jobs whose segments did **not** sum to the observed latency.
    pub sum_violations: u64,
    /// `MakespanAttribution` events observed.
    pub epochs_attributed: u64,
    /// Mean of `|predicted − actual| / actual` over attributed epochs.
    pub mean_abs_rel_error: f64,
    /// `SloBurn` transitions observed.
    pub slo_transitions: u64,
    /// The serialized JSONL event stream (determinism fingerprint and
    /// `trace_query` input).
    pub events_jsonl: String,
}

/// The wall-clock overhead measurement: the same data-plane workload with
/// and without the tracing observers attached.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    /// Best (min) wall seconds without observers.
    pub plain_wall_s: f64,
    /// Best (min) wall seconds with a ring-buffer recorder attached.
    pub traced_wall_s: f64,
    /// `(traced − plain) / plain`, clamped at 0 below.
    pub overhead_frac: f64,
}

/// The full report of one sweep.
#[derive(Debug, Clone)]
pub struct TracingReport {
    /// One point per policy.
    pub points: Vec<PolicyPoint>,
    /// The observer-overhead measurement.
    pub overhead: OverheadPoint,
    /// A ready-to-open Perfetto trace (engine records + job tracks + flow
    /// arrows) from the `AUTO_FIT` run.
    pub sample_trace: String,
}

/// The shared per-process profile-cache directory.
fn cache_dir() -> PathBuf {
    std::env::temp_dir().join(format!("multicl-bench-tracing-cache-{}", std::process::id()))
}

/// The traced workload: moderate overload so queues build admission wait,
/// retries stay possible, and both policies schedule multiple epochs.
fn config(seed: u64, jobs: usize, policy: ServePolicy) -> LoadgenConfig {
    LoadgenConfig {
        seed,
        jobs,
        policy,
        tenants: 4,
        workers: 4,
        queue_capacity: 8,
        rate_hz: 2_000.0,
        ..LoadgenConfig::default()
    }
}

/// Serialize an event stream as JSONL (the `trace_query` input format),
/// with the host-side (wall-clock) fields zeroed: `mapper_wall` and the
/// data-plane pool gauges are real time, not virtual time, so they are
/// excluded from the bit-identical determinism claim.
pub fn events_to_jsonl(events: &[SchedEvent]) -> String {
    let mut events = events.to_vec();
    for e in &mut events {
        match e {
            SchedEvent::MappingDecision { mapper_wall, .. } => {
                *mapper_wall = hwsim::SimDuration::ZERO;
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

/// Run one policy once; returns the point plus the sample Perfetto trace.
fn run_policy_once(seed: u64, jobs: usize, policy: ServePolicy) -> (PolicyPoint, String) {
    let recorder = Arc::new(RingBufferSink::new(1 << 16));
    let cfg = config(seed, jobs, policy);
    let (served, _) =
        loadgen::run_with(&cfg, &cache_dir(), vec![recorder.clone()]).expect("traced load run");
    let events = recorder.snapshot();
    assert_eq!(recorder.dropped(), 0, "ring buffer sized for the whole run");

    let mut jobs_traced = 0u64;
    let mut sum_violations = 0u64;
    for e in &events {
        if let SchedEvent::JobTrace { submitted_at, completed_at, attempts, .. } = e {
            jobs_traced += 1;
            let latency = completed_at.saturating_since(*submitted_at);
            let sum: hwsim::SimDuration = attempts.iter().map(|a| a.segments.total()).sum();
            if sum != latency {
                sum_violations += 1;
            }
        }
    }
    let mut epochs_attributed = 0u64;
    let mut err_sum = 0.0f64;
    for e in &events {
        if let SchedEvent::MakespanAttribution { predicted, actual, .. } = e {
            if !actual.is_zero() {
                epochs_attributed += 1;
                let (p, a) = (predicted.as_nanos() as f64, actual.as_nanos() as f64);
                err_sum += (p - a).abs() / a;
            }
        }
    }
    let slo_transitions =
        events.iter().filter(|e| matches!(e, SchedEvent::SloBurn { .. })).count() as u64;

    let trace = served.context().platform().trace_snapshot();
    let sample_trace = perfetto::chrome_trace_with_telemetry(&trace, &events);
    let point = PolicyPoint {
        policy: cfg.policy.label().to_string(),
        jobs_traced,
        sum_violations,
        epochs_attributed,
        mean_abs_rel_error: if epochs_attributed > 0 {
            err_sum / epochs_attributed as f64
        } else {
            0.0
        },
        slo_transitions,
        events_jsonl: events_to_jsonl(&events),
    };
    (point, sample_trace)
}

/// Min-of-`reps` wall seconds of the data-plane workload, with or without
/// the tracing observers attached.
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
        let (served, _) = loadgen::run_with(&cfg, &cache_dir(), observers).expect("overhead run");
        let wall = served.wall_elapsed().map(|d| d.as_secs_f64()).unwrap_or(0.0);
        best = best.min(wall);
    }
    best
}

/// Measure the observer overhead on the data-plane workload.
pub fn measure_overhead(seed: u64, jobs: usize, reps: usize) -> OverheadPoint {
    let plain = wall_seconds(seed, jobs, reps, false);
    let traced = wall_seconds(seed, jobs, reps, true);
    let overhead = if plain > 0.0 { ((traced - plain) / plain).max(0.0) } else { 0.0 };
    OverheadPoint { plain_wall_s: plain, traced_wall_s: traced, overhead_frac: overhead }
}

/// Run the full sweep: both policies (each twice — the second run must
/// produce a byte-identical event stream) plus the overhead measurement.
pub fn run(seed: u64, jobs: usize, smoke: bool) -> TracingReport {
    let mut points = Vec::new();
    let mut sample_trace = String::new();
    for policy in [ServePolicy::AutoFit, ServePolicy::RoundRobin] {
        let (first, trace) = run_policy_once(seed, jobs, policy);
        let (second, _) = run_policy_once(seed, jobs, policy);
        assert_eq!(
            first.events_jsonl, second.events_jsonl,
            "{}: event stream is not bit-identical across same-seed runs",
            first.policy
        );
        if policy == ServePolicy::AutoFit {
            sample_trace = trace;
        }
        points.push(first);
    }
    let (oh_jobs, reps) = if smoke { (24, 2) } else { (96, 3) };
    let overhead = measure_overhead(seed, oh_jobs, reps);
    TracingReport { points, overhead, sample_trace }
}

/// Check the acceptance properties; returns the violations (empty = pass).
pub fn violations(report: &TracingReport) -> Vec<String> {
    let mut out = Vec::new();
    let mut policies: Vec<&str> = report.points.iter().map(|p| p.policy.as_str()).collect();
    policies.sort_unstable();
    if policies != ["auto_fit", "round_robin"] {
        out.push(format!("expected one point per policy, got {policies:?}"));
    }
    for p in &report.points {
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
    }
    if report.overhead.overhead_frac > 0.05 {
        out.push(format!(
            "tracing overhead {:.1}% exceeds the 5% budget ({:.4}s plain vs {:.4}s traced)",
            100.0 * report.overhead.overhead_frac,
            report.overhead.plain_wall_s,
            report.overhead.traced_wall_s
        ));
    }
    out
}

/// Render the sweep as a table (one row per policy).
pub fn table(report: &TracingReport) -> Table {
    let mut t = Table::new(
        "Causal tracing: exact attribution and predicted-vs-actual makespan",
        &["policy", "jobs", "sum violations", "epochs", "mean |err|", "slo transitions"],
    );
    for p in &report.points {
        t.row(vec![
            p.policy.clone(),
            format!("{}", p.jobs_traced),
            format!("{}", p.sum_violations),
            format!("{}", p.epochs_attributed),
            format!("{:.3}", p.mean_abs_rel_error),
            format!("{}", p.slo_transitions),
        ]);
    }
    t
}

/// The `BENCH_tracing.json` payload.
pub fn to_json(report: &TracingReport, seed: u64, jobs: usize) -> Json {
    let rows: Vec<Json> = report
        .points
        .iter()
        .map(|p| {
            Json::obj([
                ("policy", Json::from(p.policy.as_str())),
                ("jobs_traced", Json::from(p.jobs_traced)),
                ("segment_sum_violations", Json::from(p.sum_violations)),
                ("epochs_attributed", Json::from(p.epochs_attributed)),
                ("mean_abs_rel_error", Json::from(p.mean_abs_rel_error)),
                ("slo_transitions", Json::from(p.slo_transitions)),
            ])
        })
        .collect();
    Json::obj([
        ("experiment", Json::from("tracing")),
        ("seed", Json::from(seed)),
        ("jobs", Json::from(jobs)),
        ("points", Json::Arr(rows)),
        (
            "overhead",
            Json::obj([
                ("plain_wall_s", Json::from(report.overhead.plain_wall_s)),
                ("traced_wall_s", Json::from(report.overhead.traced_wall_s)),
                ("overhead_frac", Json::from(report.overhead.overhead_frac)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_attributes_exactly_and_reproduces() {
        // `run` itself asserts byte-identical same-seed event streams.
        let report = run(42, 16, true);
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert!(p.jobs_traced > 0, "{}: no traced jobs", p.policy);
            assert_eq!(p.sum_violations, 0, "{}: inexact attribution", p.policy);
            assert!(p.epochs_attributed > 0, "{}: no attribution events", p.policy);
        }
        // The sample trace is valid JSON and contains job tracks.
        let parsed = Json::parse(&report.sample_trace).expect("perfetto trace parses");
        let arr = parsed.as_arr().expect("trace is an array");
        assert!(arr.iter().any(|o| o.get("cat").and_then(Json::as_str) == Some("segment")));
        assert!(arr.iter().any(|o| o.get("ph").and_then(Json::as_str) == Some("s")
            && o.get("cat").and_then(Json::as_str) == Some("dispatch")));
    }
}
