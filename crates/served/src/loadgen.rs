//! Deterministic load generation against a [`Served`] instance.
//!
//! One arrival process, an open loop driven entirely in virtual time from a
//! seeded [`XorShift`] stream, so the same seed reproduces the same
//! submissions, rejections, schedules, and latencies bit-for-bit: Poisson
//! arrivals at an aggregate `rate_hz`, assigned uniformly to tenants.
//! Arrivals do not wait for completions — offered load beyond capacity
//! builds backlog and eventually trips admission control (the interesting
//! regime for the capacity experiment).
//!
//! [`open_arrivals`] is a pure function of seed, jobs, rate and tenants, so
//! two runs with one seed and different policies compare the policies over
//! one fixed workload.

use crate::service::{warmed_options, RetryPolicy, ServePolicy, Served, ServiceConfig};
use crate::slo::SloConfig;
use crate::spec::JobSpec;
use crate::tenant::TenantConfig;
use clrt::error::ClResult;
use clrt::{Platform, RuntimeConfig};
use hwsim::json::Json;
use hwsim::xrand::XorShift;
use hwsim::{SimDuration, SimTime};
use std::path::Path;

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// RNG seed; equal seeds reproduce runs exactly.
    pub seed: u64,
    /// Number of tenants.
    pub tenants: usize,
    /// Backend scheduling policy.
    pub policy: ServePolicy,
    /// Total jobs to submit.
    pub jobs: usize,
    /// Aggregate arrival rate in virtual jobs/second.
    pub rate_hz: f64,
    /// Per-tenant admission-queue bound.
    pub queue_capacity: usize,
    /// Worker queue pool size.
    pub workers: usize,
    /// Runtime knobs for the backing platform: data-plane worker threads
    /// (wall-clock throughput only — virtual time and results are identical
    /// for any count) and an optional fault plan.
    pub runtime: RuntimeConfig,
    /// Latency SLO applied to every tenant (`None` disables burn-rate
    /// tracking and `SloBurn` events).
    pub slo: Option<SloConfig>,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            seed: 42,
            tenants: 4,
            policy: ServePolicy::AutoFit,
            jobs: 48,
            rate_hz: 400.0,
            queue_capacity: 8,
            workers: 4,
            runtime: RuntimeConfig::default(),
            slo: Some(SloConfig::default()),
        }
    }
}

/// One timed submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Virtual arrival time.
    pub at: SimTime,
    /// Target tenant index.
    pub tenant: usize,
    /// The job to submit.
    pub spec: JobSpec,
}

/// The fixed job-template pool. Template names double as kernel names, so
/// the scheduler's per-epoch kernel-profile cache warms quickly and stays
/// hot across jobs — exactly how a service reuses a small program library.
///
/// The mix is deliberately heterogeneous: a CPU-friendly kernel
/// (uncoalesced, divergent, scalar), a GPU-friendly one (coalesced
/// compute), and a two-stage chain — the device-affinity spread that gives
/// `AUTO_FIT` something to exploit.
pub fn templates() -> Vec<JobSpec> {
    let parse = |text: &str| JobSpec::parse_str(text).expect("template parses");
    vec![
        parse(
            r#"{
              "name": "svc_cpu",
              "buffers": [{"name": "a", "elements": 2048}],
              "kernels": [{"name": "svc_cpu_scan", "flops_per_item": 8.0,
                           "bytes_per_item": 48.0, "coalescing": 0.1,
                           "branch_divergence": 0.9, "vector_friendliness": 0.3}],
              "steps": [
                {"id": "in", "op": "write", "buffer": "a"},
                {"op": "launch", "kernel": "svc_cpu_scan", "global": 32768,
                 "local": 64, "args": ["a"], "after": ["in"]}
              ]
            }"#,
        ),
        parse(
            r#"{
              "name": "svc_gpu",
              "buffers": [{"name": "x", "elements": 2048}],
              "kernels": [{"name": "svc_gpu_map", "flops_per_item": 1280.0,
                           "bytes_per_item": 8.0, "vector_friendliness": 0.15}],
              "steps": [
                {"id": "in", "op": "write", "buffer": "x"},
                {"op": "launch", "kernel": "svc_gpu_map", "global": 32768,
                 "local": 128, "args": ["x"], "after": ["in"]}
              ]
            }"#,
        ),
        parse(
            r#"{
              "name": "svc_mixed",
              "buffers": [{"name": "u", "elements": 2048}, {"name": "v", "elements": 2048}],
              "kernels": [
                {"name": "svc_mixed_gather", "flops_per_item": 8.0,
                 "bytes_per_item": 64.0, "coalescing": 0.15,
                 "branch_divergence": 0.7, "vector_friendliness": 0.3},
                {"name": "svc_mixed_fma", "flops_per_item": 960.0, "bytes_per_item": 8.0,
                 "vector_friendliness": 0.15}
              ],
              "steps": [
                {"id": "in_u", "op": "write", "buffer": "u"},
                {"id": "in_v", "op": "write", "buffer": "v"},
                {"id": "g", "op": "launch", "kernel": "svc_mixed_gather", "global": 16384,
                 "local": 64, "args": ["u", "v"], "after": ["in_u", "in_v"]},
                {"op": "launch", "kernel": "svc_mixed_fma", "global": 16384,
                 "local": 128, "args": ["v"], "after": ["g"]}
              ]
            }"#,
        ),
    ]
}

/// Generate the open-loop Poisson arrival schedule: exponential
/// inter-arrival gaps at `rate_hz`, uniform tenant and template choice.
/// Sorted by time by construction.
pub fn open_arrivals(cfg: &LoadgenConfig) -> Vec<Arrival> {
    let mut rng = XorShift::new(cfg.seed);
    let pool = templates();
    let mut at = SimTime::ZERO;
    (0..cfg.jobs)
        .map(|_| {
            at += SimDuration::from_secs_f64(rng.exp_f64(cfg.rate_hz.max(1e-9)));
            Arrival {
                at,
                tenant: rng.index(cfg.tenants.max(1)),
                spec: pool[rng.index(pool.len())].clone(),
            }
        })
        .collect()
}

/// Drive a pre-computed (time-sorted) arrival schedule through `served`:
/// admit everything due, dispatch while there is backlog, and jump the
/// virtual clock to the next arrival when idle. Drains fully at the end.
/// Arrival times are relative to the clock at entry, so the same schedule
/// replays identically regardless of start-up cost already on the clock.
pub fn drive_open(served: &Served, arrivals: &[Arrival]) {
    let base = served.now();
    let mut next = 0;
    while next < arrivals.len() {
        while next < arrivals.len()
            && base + arrivals[next].at.saturating_since(SimTime::ZERO) <= served.now()
        {
            let a = &arrivals[next];
            let _ = served.submit(a.tenant, a.spec.clone());
            next += 1;
        }
        if served.backlog() > 0 {
            if served.dispatch_round() == 0 {
                // The whole backlog sits inside retry backoff windows: jump
                // to whichever comes first, the next arrival or the earliest
                // retry, so the loop always makes progress.
                let mut target = served.next_ready_at();
                if next < arrivals.len() {
                    let arrival = base + arrivals[next].at.saturating_since(SimTime::ZERO);
                    target = Some(target.map_or(arrival, |t| t.min(arrival)));
                }
                if let Some(t) = target {
                    served.advance_to(t);
                }
            }
        } else if next < arrivals.len() {
            served.advance_to(base + arrivals[next].at.saturating_since(SimTime::ZERO));
        }
    }
    served.run_until_drained();
}

/// Build the service for `cfg` with a warmed profile cache at `cache_dir`
/// (see [`warmed_options`] — this is what makes runs reproducible) and the
/// given telemetry observers attached to the context.
pub fn build_service(
    cfg: &LoadgenConfig,
    cache_dir: &Path,
    observers: Vec<std::sync::Arc<dyn multicl::SchedObserver>>,
) -> ClResult<Served> {
    let platform = Platform::paper_node_with(cfg.runtime.clone());
    let tenants = (0..cfg.tenants.max(1))
        .map(|i| TenantConfig::new(format!("t{i}"), 1, cfg.queue_capacity))
        .collect();
    let mut options = warmed_options(&platform, cache_dir);
    options.observers = observers;
    Served::new(
        &platform,
        ServiceConfig {
            policy: cfg.policy,
            workers: cfg.workers,
            tenants,
            options,
            retry: RetryPolicy::default(),
            slo: cfg.slo.clone(),
        },
    )
}

/// [`run_with`] without telemetry observers.
pub fn run(cfg: &LoadgenConfig, cache_dir: &Path) -> ClResult<(Served, Vec<Arrival>)> {
    run_with(cfg, cache_dir, Vec::new())
}

/// Run the configured load against a fresh service and return
/// `(service, arrivals)`.
pub fn run_with(
    cfg: &LoadgenConfig,
    cache_dir: &Path,
    observers: Vec<std::sync::Arc<dyn multicl::SchedObserver>>,
) -> ClResult<(Served, Vec<Arrival>)> {
    let served = build_service(cfg, cache_dir, observers)?;
    served.warm_programs(&templates())?;
    let arrivals = open_arrivals(cfg);
    drive_open(&served, &arrivals);
    Ok((served, arrivals))
}

/// Summarize a finished run as a JSON report: totals plus per-tenant
/// throughput, rejection counts, and p50/p95/p99 latency. Fully
/// deterministic for a given seed — wall-clock figures are added
/// separately by [`report_json_with_wall`].
pub fn report_json(served: &Served, cfg: &LoadgenConfig) -> Json {
    let elapsed = served.now().saturating_since(served.serving_since());
    let elapsed_s = elapsed.as_secs_f64().max(1e-12);
    let mut total_submitted = 0u64;
    let mut total_completed = 0u64;
    let mut total_rejected = 0u64;
    let mut total_failed = 0u64;
    let mut total_retried = 0u64;
    let mut per_tenant = Vec::new();
    for i in 0..served.tenant_count() {
        let m = served.metrics().tenant(i);
        let (p50, p95, p99) = served.metrics().latency_percentiles_ms(i);
        let samples = served.metrics().latencies_ms(i);
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        total_submitted += m.submitted.get();
        total_completed += m.completed.get();
        total_rejected += m.rejected.get();
        total_failed += m.failed.get();
        total_retried += m.retried.get();
        per_tenant.push(Json::obj([
            ("name", Json::from(served.tenant_name(i))),
            ("submitted", Json::from(m.submitted.get())),
            ("admitted", Json::from(m.admitted.get())),
            ("rejected", Json::from(m.rejected.get())),
            ("completed", Json::from(m.completed.get())),
            ("failed", Json::from(m.failed.get())),
            ("retried", Json::from(m.retried.get())),
            ("starved_rounds", Json::from(served.starvation_rounds(i))),
            ("throughput_jobs_per_s", Json::from(m.completed.get() as f64 / elapsed_s)),
            (
                "latency_ms",
                Json::obj([
                    ("p50", Json::from(p50)),
                    ("p95", Json::from(p95)),
                    ("p99", Json::from(p99)),
                    ("mean", Json::from(mean)),
                ]),
            ),
        ]));
    }
    Json::obj([
        ("policy", Json::from(cfg.policy.label())),
        ("seed", Json::from(cfg.seed)),
        ("tenants", Json::from(cfg.tenants)),
        ("workers", Json::from(cfg.workers)),
        ("data_plane_workers", Json::from(served.data_plane_workers())),
        ("queue_capacity", Json::from(cfg.queue_capacity)),
        ("offered_rate_hz", Json::from(cfg.rate_hz)),
        ("elapsed_virtual_ms", Json::from(elapsed.as_millis_f64())),
        ("jobs_submitted", Json::from(total_submitted)),
        ("jobs_completed", Json::from(total_completed)),
        ("jobs_rejected", Json::from(total_rejected)),
        ("jobs_failed", Json::from(total_failed)),
        ("jobs_retried", Json::from(total_retried)),
        ("achieved_throughput_jobs_per_s", Json::from(total_completed as f64 / elapsed_s)),
        ("per_tenant", Json::Arr(per_tenant)),
    ])
}

/// [`report_json`] plus host wall-clock figures (non-deterministic):
/// elapsed seconds since warm-up and wall-clock jobs/second — the number
/// the data-plane worker count actually moves.
pub fn report_json_with_wall(served: &Served, cfg: &LoadgenConfig) -> Json {
    let base = report_json(served, cfg);
    let wall_s = served.wall_elapsed().map(|d| d.as_secs_f64()).unwrap_or(0.0);
    let completed = base.get("jobs_completed").and_then(Json::as_u64).unwrap_or(0) as f64;
    let wall_jobs_per_s = if wall_s > 0.0 { completed / wall_s } else { 0.0 };
    match base {
        Json::Obj(mut fields) => {
            fields.push(("wall_elapsed_s".to_string(), Json::from(wall_s)));
            fields.push(("wall_jobs_per_s".to_string(), Json::from(wall_jobs_per_s)));
            Json::Obj(fields)
        }
        other => other,
    }
}
