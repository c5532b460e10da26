//! Per-tenant service metrics, in the serving layer's own
//! [`MetricsRegistry`]: the scheduler's `SchedMetrics` owns a second one,
//! so a run that exports both writes two `.prom` files.
//!
//! Tenant identity is carried as a real Prometheus label
//! (`served_jobs_completed_total{tenant="team a/b"}`): the registry
//! escapes label values on exposition, so hostile tenant names (quotes,
//! backslashes, newlines) cannot corrupt the text format, and it groups
//! every tenant's series under their family's one header. The registry
//! histograms are log-bucketed; a report that quotes exact p50/p95/p99
//! reads the completed jobs' latencies from `Served::outcomes`.

use hwsim::SimDuration;
use multicl::telemetry::{metric_set, Counter, MetricsRegistry};

metric_set! {
/// The metric handles of one tenant, registered under its `tenant` label.
/// `first_job_latency_ns` is the cold-start indicator: under a
/// profiling-based scheduler it absorbs the one-time profiling epochs; with
/// the cost predictor warm it should match steady-state latency. It is set
/// once, when `completed` reads 1, and `0` until then.
pub struct TenantMetrics {
    submitted: Counter = "served_jobs_submitted_total", "jobs submitted";
    admitted: Counter = "served_jobs_admitted_total", "jobs admitted";
    rejected: Counter = "served_jobs_rejected_total", "jobs rejected";
    dispatched: Counter = "served_jobs_dispatched_total", "jobs dispatched";
    completed: Counter = "served_jobs_completed_total", "jobs completed";
    failed: Counter =
        "served_jobs_failed_total", "jobs abandoned (deadline, retries, or dead node)";
    retried: Counter = "served_jobs_retried_total", "fault-failed dispatch retries";
    depth: Gauge = "served_queue_depth", "tenant queue depth";
    starved_rounds: Counter =
        "served_starved_rounds_total", "rounds with backlog but no dispatch slot";
    latency_ns: Histogram = "served_job_latency_ns", "submission-to-completion virtual latency";
    slo_alerts: Counter = "served_slo_alerts_total", "SLO burn-rate alerts fired";
    first_job_latency_ns: Gauge = "served_first_job_latency_ns",
        "latency of the tenant's first completed job (cold start)";
}
}

/// Metrics for the whole service: its registry and per-tenant handles.
pub struct ServiceMetrics {
    registry: MetricsRegistry,
    tenants: Vec<TenantMetrics>,
    /// Start-up warm-up instances skipped because the cost predictor was
    /// already confident about every launch in the template (service-wide,
    /// not per tenant — warm-up runs before tenants submit anything).
    pub warmups_skipped: Counter,
}

impl ServiceMetrics {
    /// Create the metric set for the given tenant names. Each tenant's
    /// series share the metric name and differ in the `tenant` label.
    pub fn new(tenant_names: &[String]) -> ServiceMetrics {
        let registry = MetricsRegistry::new();
        let tenants = tenant_names
            .iter()
            .map(|name| TenantMetrics::register(&registry, &[("tenant", name)]))
            .collect();
        let warmups_skipped = registry.counter(
            "served_warmups_skipped_total",
            "start-up warm-up instances skipped (predictor confident)",
        );
        ServiceMetrics { registry, tenants, warmups_skipped }
    }

    /// The service's registry (exportable as Prometheus text).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Metric handles of tenant `i`.
    pub fn tenant(&self, i: usize) -> &TenantMetrics {
        &self.tenants[i]
    }

    /// Record one completed job of tenant `i` and its latency. The first
    /// completion also pins [`TenantMetrics::first_job_latency_ns`], the
    /// tenant's cold-start latency.
    pub fn record_completion(&self, i: usize, latency: SimDuration) {
        let m = &self.tenants[i];
        m.completed.inc();
        m.latency_ns.observe(latency.as_nanos());
        if m.completed.get() == 1 {
            m.first_job_latency_ns.set(latency.as_nanos() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tenant_metrics_appear_as_labeled_series() {
        let m = ServiceMetrics::new(&["t0".into(), "t1".into()]);
        m.tenant(0).submitted.inc();
        m.tenant(0).admitted.inc();
        m.record_completion(0, SimDuration::from_millis(4));
        m.record_completion(0, SimDuration::from_millis(8));
        let prom = m.registry().to_prometheus();
        assert!(prom.contains(r#"served_jobs_submitted_total{tenant="t0"} 1"#), "{prom}");
        assert!(prom.contains(r#"served_jobs_submitted_total{tenant="t1"} 0"#), "{prom}");
        assert!(prom.contains(r#"served_job_latency_ns_count{tenant="t0"}"#), "{prom}");
        // First-job latency is pinned by the first sample and never moves.
        let first = SimDuration::from_millis(4).as_nanos() as f64;
        assert!(prom.contains(&format!(r#"served_first_job_latency_ns{{tenant="t0"}} {first}"#)));
        assert!(prom.contains(r#"served_first_job_latency_ns{tenant="t1"} 0"#), "{prom}");
        assert!(prom.contains(r#"served_jobs_completed_total{tenant="t0"} 2"#), "{prom}");
    }

    #[test]
    fn every_family_is_one_group_with_two_tenants() {
        let m = ServiceMetrics::new(&["t0".into(), "t1".into()]);
        m.tenant(1).submitted.add(2);
        m.record_completion(1, SimDuration::from_millis(4));
        let prom = m.registry().to_prometheus();
        let samples = multicl::telemetry::registry::parse_prometheus(&prom).expect("parseable");
        // Families in sample order, consecutive repeats collapsed: a name
        // that came back after another family's samples would be listed twice.
        let mut groups: Vec<&str> = Vec::new();
        for s in &samples {
            let name = s.name.as_str();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|x| name.strip_suffix(x))
                .unwrap_or(name);
            if groups.last() != Some(&family) {
                groups.push(family);
            }
        }
        // Twelve per-tenant families and `served_warmups_skipped_total`.
        assert_eq!(groups.len(), 13, "{prom}");
        assert_eq!(groups.iter().collect::<std::collections::HashSet<_>>().len(), 13, "{prom}");
        assert_eq!(prom.matches("# HELP ").count(), 13, "{prom}");
        assert_eq!(prom.matches("# TYPE ").count(), 13, "{prom}");
        // Both tenants' samples are still there, under their own label.
        let submitted = |tenant: &str| {
            let of = [("tenant".to_string(), tenant.to_string())];
            let mut found = samples
                .iter()
                .filter(|s| s.name == "served_jobs_submitted_total" && s.labels == of);
            (found.next().expect("series present").value, found.count())
        };
        assert_eq!(submitted("t0"), (0.0, 0));
        assert_eq!(submitted("t1"), (2.0, 0));
    }

    #[test]
    fn hostile_tenant_names_survive_exposition_and_reparse() {
        let hostile = "team \"a\"\\b\nc".to_string();
        let m = ServiceMetrics::new(std::slice::from_ref(&hostile));
        m.tenant(0).submitted.inc();
        let prom = m.registry().to_prometheus();
        // No raw newline inside a sample line, and the text re-parses.
        for line in prom.lines() {
            assert!(!line.is_empty() || line.trim().is_empty());
        }
        let samples = multicl::telemetry::registry::parse_prometheus(&prom).expect("parseable");
        let s = samples
            .iter()
            .find(|s| s.name == "served_jobs_submitted_total")
            .expect("series present");
        assert_eq!(s.labels, vec![("tenant".to_string(), hostile)]);
        assert_eq!(s.value, 1.0);
    }
}
