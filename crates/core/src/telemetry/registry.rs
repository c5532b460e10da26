//! A lock-cheap metrics registry: counters, gauges, and log-scale
//! histograms, with Prometheus text exposition and JSON export.
//!
//! Metric handles are `Arc`-backed atomics — updating one is a single
//! relaxed atomic op, safe to do from the scheduling hot path. The registry
//! itself only takes a lock on registration and export.

use super::event::SchedEvent;
use super::tracing::{SegmentKind, SegmentSet};
use super::SchedObserver;
use hwsim::json::Json;
use hwsim::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of finite power-of-two buckets in a [`Histogram`].
///
/// Bucket `i` has upper bound `2^i`: bound 0 is 1ns / 1B, bound 47 is
/// ~1.6 virtual days in nanoseconds (or ~140TB in bytes) — comfortably
/// above anything the simulator produces. Larger observations count only
/// toward `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A histogram over `u64` observations with power-of-two bucket bounds —
/// the right shape for quantities spanning many orders of magnitude
/// (epoch latencies, profiling overheads, migrated byte counts).
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    /// Non-cumulative counts per finite bucket.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Observations above the last finite bound (land only in `+Inf`).
    overflow: AtomicU64,
    /// Sum of all observed values.
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                overflow: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        let idx = Histogram::bucket_index(value);
        match idx {
            Some(i) => self.inner.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.inner.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Index of the smallest bucket whose bound covers `value`, or `None`
    /// if the value exceeds every finite bound.
    fn bucket_index(value: u64) -> Option<usize> {
        // Smallest i with value <= 2^i.
        let i = if value <= 1 { 0 } else { 64 - (value - 1).leading_zeros() as usize };
        (i < HISTOGRAM_BUCKETS).then_some(i)
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        let finite: u64 = self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        finite + self.inner.overflow.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Cumulative counts per finite bucket bound `(2^i, count_le)`.
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut acc = 0;
        self.inner
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                acc += b.load(Ordering::Relaxed);
                (1u64 << i, acc)
            })
            .collect()
    }
}

enum MetricKind {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Metric {
    name: String,
    help: String,
    /// Constant label pairs baked in at registration (e.g. `tenant`,
    /// `segment`). Values are stored raw; escaping happens at exposition.
    labels: Vec<(String, String)>,
    kind: MetricKind,
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double-quote, and line feed must be backslash-escaped.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render `name{k="v",...}`, appending `extra` (used for histogram `le`)
/// after the constant labels. Values are escaped per the exposition format.
fn render_series(name: &str, labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label_value(v)));
    }
    if pairs.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{}}}", pairs.join(","))
    }
}

/// A named collection of metrics with text exposition.
///
/// Handles returned by the `register_*` methods stay live after
/// registration; the registry lock is only held while registering or
/// exporting.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Register and return a counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register and return a counter with constant labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let c = Counter::new();
        self.push(name, help, labels, MetricKind::Counter(c.clone()));
        c
    }

    /// Register and return a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register and return a gauge with constant labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let g = Gauge::new();
        self.push(name, help, labels, MetricKind::Gauge(g.clone()));
        g
    }

    /// Register and return a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Register and return a histogram with constant labels.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let h = Histogram::new();
        self.push(name, help, labels, MetricKind::Histogram(h.clone()));
        h
    }

    fn push(&self, name: &str, help: &str, labels: &[(&str, &str)], kind: MetricKind) {
        self.metrics.lock().push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            kind,
        });
    }

    /// Render the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` comments, `_bucket{le=...}`,
    /// `_sum`, `_count` series for histograms.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Labeled series sharing a name share one HELP/TYPE header.
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for m in self.metrics.lock().iter() {
            let kind = match m.kind {
                MetricKind::Counter(_) => "counter",
                MetricKind::Gauge(_) => "gauge",
                MetricKind::Histogram(_) => "histogram",
            };
            if seen.insert(m.name.clone()) {
                let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
                let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
            }
            match &m.kind {
                MetricKind::Counter(c) => {
                    let _ =
                        writeln!(out, "{} {}", render_series(&m.name, &m.labels, None), c.get());
                }
                MetricKind::Gauge(g) => {
                    let _ =
                        writeln!(out, "{} {}", render_series(&m.name, &m.labels, None), g.get());
                }
                MetricKind::Histogram(h) => {
                    // Elide the flat tail: stop after the last bucket where
                    // the cumulative count rises, then emit +Inf.
                    let cum = h.cumulative();
                    let count = h.count();
                    let last_rise = cum
                        .iter()
                        .enumerate()
                        .rev()
                        .find(|&(i, &(_, c))| i == 0 || c != cum[i - 1].1)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    let bucket = format!("{}_bucket", m.name);
                    for &(le, c) in &cum[..=last_rise] {
                        let series =
                            render_series(&bucket, &m.labels, Some(("le", &le.to_string())));
                        let _ = writeln!(out, "{series} {c}");
                    }
                    let series = render_series(&bucket, &m.labels, Some(("le", "+Inf")));
                    let _ = writeln!(out, "{series} {count}");
                    let sum_name = format!("{}_sum", m.name);
                    let _ =
                        writeln!(out, "{} {}", render_series(&sum_name, &m.labels, None), h.sum());
                    let count_name = format!("{}_count", m.name);
                    let _ =
                        writeln!(out, "{} {}", render_series(&count_name, &m.labels, None), count);
                }
            }
        }
        out
    }

    /// Export the registry as a JSON object keyed by metric name (with the
    /// rendered label set appended for labeled series, so tenants don't
    /// collide). Histograms become `{"buckets": [{"le": .., "count": ..},
    /// ...], "sum": .., "count": ..}` with cumulative bucket counts.
    pub fn to_json(&self) -> Json {
        let members: Vec<(String, Json)> = self
            .metrics
            .lock()
            .iter()
            .map(|m| {
                let value = match &m.kind {
                    MetricKind::Counter(c) => Json::from(c.get()),
                    MetricKind::Gauge(g) => Json::from(g.get()),
                    MetricKind::Histogram(h) => Json::obj([
                        (
                            "buckets",
                            Json::Arr(
                                h.cumulative()
                                    .into_iter()
                                    .map(|(le, c)| {
                                        Json::obj([
                                            ("le", Json::from(le)),
                                            ("count", Json::from(c)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                        ("sum", Json::from(h.sum())),
                        ("count", Json::from(h.count())),
                    ]),
                };
                (render_series(&m.name, &m.labels, None), value)
            })
            .collect();
        Json::Obj(members)
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} metrics)", self.metrics.lock().len())
    }
}

/// One sample line from a Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric (series) name, e.g. `multicl_epoch_latency_ns_bucket`.
    pub name: String,
    /// Label pairs, e.g. `[("le", "1024")]`.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parse Prometheus text exposition back into samples. Comment (`#`) and
/// blank lines are skipped. Label values are unescaped (the scanner is
/// escape-aware, so values may contain `\\`, `\"`, `\n`, commas, braces,
/// and spaces). Returns `None` on the first malformed sample line. This is
/// the counterpart used by the round-trip tests.
pub fn parse_prometheus(text: &str) -> Option<Vec<PromSample>> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, labels, rest) = match line.find('{') {
            None => {
                let (name, value) = line.rsplit_once(' ')?;
                (name.to_string(), Vec::new(), value)
            }
            Some(brace) => {
                let (labels, consumed) = parse_label_body(&line[brace + 1..])?;
                (line[..brace].to_string(), labels, line[brace + 1 + consumed..].trim_start())
            }
        };
        let value: f64 = rest.trim().parse().ok()?;
        out.push(PromSample { name, labels, value });
    }
    Some(out)
}

/// Scan a label body (the text after `{`), handling escaped quotes,
/// backslashes, and `\n` inside values. Returns the label pairs and the
/// number of bytes consumed, including the closing `}`.
fn parse_label_body(body: &str) -> Option<(Vec<(String, String)>, usize)> {
    let bytes = body.as_bytes();
    let mut i = 0usize;
    let mut labels = Vec::new();
    loop {
        if bytes.get(i)? == &b'}' {
            return Some((labels, i + 1));
        }
        let eq = body[i..].find('=')? + i;
        let key = body[i..eq].trim().to_string();
        i = eq + 1;
        if bytes.get(i)? != &b'"' {
            return None;
        }
        i += 1;
        let mut value = String::new();
        loop {
            match *bytes.get(i)? {
                b'"' => {
                    i += 1;
                    break;
                }
                b'\\' => {
                    i += 1;
                    match *bytes.get(i)? {
                        b'\\' => value.push('\\'),
                        b'"' => value.push('"'),
                        b'n' => value.push('\n'),
                        other => {
                            // Unknown escape: keep it verbatim.
                            value.push('\\');
                            value.push(other as char);
                        }
                    }
                    i += 1;
                }
                _ => {
                    let c = body[i..].chars().next()?;
                    value.push(c);
                    i += c.len_utf8();
                }
            }
        }
        labels.push((key, value));
        match bytes.get(i)? {
            b',' => i += 1,
            b'}' => return Some((labels, i + 1)),
            _ => return None,
        }
    }
}

/// The standard scheduler metric set, bound to the event stream.
///
/// Attach via `SchedOptions::observers` (or
/// `MulticlContext::add_observer`); every emitted [`SchedEvent`] updates
/// the corresponding metrics. Times are recorded in virtual nanoseconds.
#[derive(Debug)]
pub struct SchedMetrics {
    registry: MetricsRegistry,
    /// Scheduling epochs completed.
    pub epochs: Counter,
    /// Epoch cost vectors served from the profile caches.
    pub cache_hits: Counter,
    /// Epoch cost vectors that required dynamic profiling.
    pub cache_misses: Counter,
    /// Kernels dynamically profiled (each covers every device).
    pub kernels_profiled: Counter,
    /// Queue-to-device rebinds.
    pub queue_migrations: Counter,
    /// Kernel launches flushed to devices.
    pub kernels_issued: Counter,
    /// Queues in the most recent scheduling pool.
    pub pool_size: Gauge,
    /// Virtual time per scheduling pass (ns).
    pub epoch_latency: Histogram,
    /// Virtual time per pass spent obtaining cost vectors (ns).
    pub profiling_overhead: Histogram,
    /// Bytes migrated per queue rebind.
    pub migrated_bytes: Histogram,
    /// Branch-and-bound nodes explored per mapping decision.
    pub mapper_nodes: Histogram,
    /// Host wall-clock time per mapping decision (ns) — the scheduler's
    /// own decision overhead, not virtual time.
    pub mapper_wall: Histogram,
    /// Mapping decisions where the adaptive node budget tripped and a
    /// heuristic (greedy + local search) answer was used.
    pub mapper_budget_trips: Counter,
    /// Host data-plane tasks still live at the most recent epoch end.
    pub data_queue_depth: Gauge,
    /// Peak concurrently-busy data-plane workers observed so far.
    pub data_peak_busy: Gauge,
    /// Devices blacklisted after a permanent loss.
    pub devices_down: Counter,
    /// Queues evacuated off failed devices (fault-driven rebinds, distinct
    /// from cost-driven `queue_migrations`).
    pub queues_remapped: Counter,
    /// Jobs abandoned after the retry budget was exhausted.
    pub retries_exhausted: Counter,
    /// Virtual time from a device-loss detection to each queue evacuated
    /// off it (ns) — the recovery latency the epoch-boundary policy pays.
    pub recovery_latency: Histogram,
    /// Absolute predicted-vs-executed makespan error per epoch (ns), from
    /// `MakespanAttribution` events — mapping-quality regressions show up
    /// here.
    pub makespan_error: Histogram,
    /// Relative makespan error (|predicted − actual| / actual) of the most
    /// recent attributed epoch.
    pub makespan_rel_error: Gauge,
    /// Per-job attributed latency per segment (ns), one labeled series per
    /// [`SegmentKind`] (`multicl_job_segment_ns{segment="..."}`), indexed
    /// in [`SegmentKind::ALL`] order.
    pub job_segments: Vec<Histogram>,
    /// SLO burn-rate alerts fired (transitions to firing only).
    pub slo_alerts: Counter,
    /// Cold kernel cost rows served by the predictive model (profiling
    /// passes avoided).
    pub predictor_predictions: Counter,
    /// Cold kernels the predictor declined (untrained / low confidence),
    /// falling back to minikernel profiling.
    pub predictor_fallbacks: Counter,
    /// Executed-kernel observations folded back into the predictor.
    pub predictor_refinements: Counter,
    /// Absolute predicted-vs-executed kernel time error per refinement (ns)
    /// — the predictor's quality stream.
    pub predictor_error: Histogram,
    /// Relative prediction error of the most recent refinement.
    pub predictor_rel_error: Gauge,
    /// Commands the out-of-order epoch flush emitted away from their
    /// program position (batch reorderer displacements).
    pub commands_reordered: Counter,
    /// Splittable kernel launches partitioned into multi-device chunks.
    pub kernels_split: Counter,
    /// Chunks the work-stealing assigner moved off their preferred device.
    pub chunks_stolen: Counter,
    /// Detection time (ns) of each downed device, so `Remapped` events can
    /// be turned into recovery latencies.
    down_since: Mutex<std::collections::HashMap<usize, u64>>,
    /// Per-device copy/compute lane overlap fraction of the most recent
    /// epoch, as labeled gauges created lazily on first `EpochEnd` that
    /// reports the device (`multicl_lane_overlap_fraction{device="..."}`).
    lane_overlap: Mutex<std::collections::HashMap<usize, Gauge>>,
    /// Per-device predictor model age: the labeled gauge plus the epoch of
    /// the device's most recent refinement. Updated on `PredictorRefined`
    /// (age resets to 0) and on every `EpochBegin` (ages advance).
    predictor_age: Mutex<std::collections::HashMap<usize, (Gauge, u64)>>,
}

impl Default for SchedMetrics {
    fn default() -> SchedMetrics {
        let registry = MetricsRegistry::new();
        SchedMetrics {
            epochs: registry.counter("multicl_epochs_total", "Scheduling epochs completed"),
            cache_hits: registry.counter(
                "multicl_cache_hits_total",
                "Epoch cost vectors served from the profile caches",
            ),
            cache_misses: registry.counter(
                "multicl_cache_misses_total",
                "Epoch cost vectors that required dynamic profiling",
            ),
            kernels_profiled: registry.counter(
                "multicl_kernels_profiled_total",
                "Kernels dynamically profiled across all devices",
            ),
            queue_migrations: registry.counter(
                "multicl_queue_migrations_total",
                "Queue-to-device rebinds performed by the mapper",
            ),
            kernels_issued: registry
                .counter("multicl_kernels_issued_total", "Kernel launches flushed to devices"),
            pool_size: registry
                .gauge("multicl_epoch_pool_size", "Queues in the most recent scheduling pool"),
            epoch_latency: registry.histogram(
                "multicl_epoch_latency_ns",
                "Virtual time per scheduling pass in nanoseconds",
            ),
            profiling_overhead: registry.histogram(
                "multicl_profiling_overhead_ns",
                "Virtual time per pass spent obtaining cost vectors, in nanoseconds",
            ),
            migrated_bytes: registry
                .histogram("multicl_migrated_bytes", "Bytes migrated per queue rebind"),
            mapper_nodes: registry.histogram(
                "multicl_mapper_nodes",
                "Branch-and-bound nodes explored per mapping decision",
            ),
            mapper_wall: registry.histogram(
                "multicl_mapper_wall_ns",
                "Host wall-clock time per mapping decision in nanoseconds",
            ),
            mapper_budget_trips: registry.counter(
                "multicl_mapper_budget_trips_total",
                "Mapping decisions where the adaptive node budget tripped",
            ),
            data_queue_depth: registry.gauge(
                "multicl_data_queue_depth",
                "Host data-plane tasks still live at the most recent epoch end",
            ),
            data_peak_busy: registry.gauge(
                "multicl_data_peak_busy_workers",
                "Peak concurrently-busy data-plane workers observed so far",
            ),
            devices_down: registry.counter(
                "multicl_devices_down_total",
                "Devices blacklisted after a permanent loss",
            ),
            queues_remapped: registry
                .counter("multicl_queues_remapped_total", "Queues evacuated off failed devices"),
            retries_exhausted: registry.counter(
                "multicl_retries_exhausted_total",
                "Jobs abandoned after the retry budget was exhausted",
            ),
            recovery_latency: registry.histogram(
                "multicl_recovery_latency_ns",
                "Virtual time from device-loss detection to queue evacuation, in nanoseconds",
            ),
            makespan_error: registry.histogram(
                "multicl_makespan_error_ns",
                "Absolute predicted-vs-executed makespan error per epoch, in nanoseconds",
            ),
            makespan_rel_error: registry.gauge(
                "multicl_makespan_rel_error",
                "Relative makespan error of the most recent attributed epoch",
            ),
            job_segments: SegmentKind::ALL
                .iter()
                .map(|k| {
                    registry.histogram_with(
                        "multicl_job_segment_ns",
                        "Per-job attributed latency per critical-path segment, in nanoseconds",
                        &[("segment", k.label())],
                    )
                })
                .collect(),
            slo_alerts: registry.counter("multicl_slo_alerts_total", "SLO burn-rate alerts fired"),
            predictor_predictions: registry.counter(
                "multicl_predictor_predictions_total",
                "Cold kernel cost rows served by the predictive model",
            ),
            predictor_fallbacks: registry.counter(
                "multicl_predictor_fallbacks_total",
                "Cold kernels the predictor declined, falling back to profiling",
            ),
            predictor_refinements: registry.counter(
                "multicl_predictor_refinements_total",
                "Executed-kernel observations folded back into the predictor",
            ),
            predictor_error: registry.histogram(
                "multicl_predictor_error_ns",
                "Absolute predicted-vs-executed kernel time error per refinement, in nanoseconds",
            ),
            predictor_rel_error: registry.gauge(
                "multicl_predictor_rel_error",
                "Relative prediction error of the most recent refinement",
            ),
            commands_reordered: registry.counter(
                "multicl_commands_reordered_total",
                "Commands emitted out of program order by the epoch batch reorderer",
            ),
            kernels_split: registry.counter(
                "multicl_kernels_split_total",
                "Splittable kernel launches partitioned into multi-device chunks",
            ),
            chunks_stolen: registry.counter(
                "multicl_chunks_stolen_total",
                "Chunks moved off their preferred device by the work-stealing assigner",
            ),
            down_since: Mutex::new(std::collections::HashMap::new()),
            lane_overlap: Mutex::new(std::collections::HashMap::new()),
            predictor_age: Mutex::new(std::collections::HashMap::new()),
            registry,
        }
    }
}

impl SchedMetrics {
    /// A fresh metric set with its own registry.
    pub fn new() -> SchedMetrics {
        SchedMetrics::default()
    }

    /// The backing registry (for exposition/export).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

impl SchedObserver for SchedMetrics {
    fn on_event(&self, event: &SchedEvent) {
        match event {
            SchedEvent::EpochBegin { epoch, pool, .. } => {
                self.pool_size.set(*pool as f64);
                // Advance every known device's predictor model age: epochs
                // since its last refinement.
                for (gauge, refined) in self.predictor_age.lock().values() {
                    gauge.set(epoch.saturating_sub(*refined) as f64);
                }
            }
            SchedEvent::KernelProfiled { .. } => self.kernels_profiled.inc(),
            SchedEvent::CacheHit { .. } => self.cache_hits.inc(),
            SchedEvent::CacheMiss { .. } => self.cache_misses.inc(),
            SchedEvent::MappingDecision { nodes_explored, budget_tripped, mapper_wall, .. } => {
                self.mapper_nodes.observe(*nodes_explored);
                self.mapper_wall.observe(mapper_wall.as_nanos());
                if *budget_tripped {
                    self.mapper_budget_trips.inc();
                }
            }
            SchedEvent::QueueMigrated { bytes, .. } => {
                self.queue_migrations.inc();
                self.migrated_bytes.observe(*bytes);
            }
            SchedEvent::EpochEnd {
                elapsed,
                profiling,
                kernels_issued,
                data_queue_depth,
                data_peak_busy,
                commands_reordered,
                lane_overlap,
                ..
            } => {
                self.epochs.inc();
                self.kernels_issued.add(*kernels_issued);
                self.epoch_latency.observe(elapsed.as_nanos());
                self.profiling_overhead.observe(profiling.as_nanos());
                self.data_queue_depth.set(*data_queue_depth as f64);
                self.data_peak_busy.set(*data_peak_busy as f64);
                self.commands_reordered.add(*commands_reordered);
                let mut lanes = self.lane_overlap.lock();
                for (device, &fraction) in lane_overlap.iter().enumerate() {
                    lanes
                        .entry(device)
                        .or_insert_with(|| {
                            self.registry.gauge_with(
                                "multicl_lane_overlap_fraction",
                                "Copy/compute lane overlap fraction of the most recent epoch",
                                &[("device", &device.to_string())],
                            )
                        })
                        .set(fraction);
                }
            }
            SchedEvent::DeviceDown { device, at, .. } => {
                self.devices_down.inc();
                self.down_since.lock().insert(device.index(), at.as_nanos());
            }
            SchedEvent::Remapped { from, bytes, at, .. } => {
                self.queues_remapped.inc();
                self.migrated_bytes.observe(*bytes);
                if let Some(down) = self.down_since.lock().get(&from.index()).copied() {
                    self.recovery_latency.observe(at.as_nanos().saturating_sub(down));
                }
            }
            SchedEvent::RetryExhausted { .. } => self.retries_exhausted.inc(),
            SchedEvent::JobTrace { attempts, .. } => {
                let mut totals = SegmentSet::zero();
                for a in attempts {
                    totals.merge(&a.segments);
                }
                for (i, kind) in SegmentKind::ALL.iter().enumerate() {
                    let d = totals.get(*kind);
                    if !d.is_zero() {
                        self.job_segments[i].observe(d.as_nanos());
                    }
                }
            }
            SchedEvent::MakespanAttribution { predicted, actual, .. } => {
                let (p, a) = (*predicted, *actual);
                let err = p.max(a) - p.min(a);
                self.makespan_error.observe(err.as_nanos());
                self.makespan_rel_error
                    .set(err.as_nanos() as f64 / actual.as_nanos().max(1) as f64);
            }
            SchedEvent::SloBurn { fired, .. } => {
                if *fired {
                    self.slo_alerts.inc();
                }
            }
            SchedEvent::CostPredicted { .. } => self.predictor_predictions.inc(),
            SchedEvent::PredictorFallback { .. } => self.predictor_fallbacks.inc(),
            SchedEvent::KernelSplit { .. } => self.kernels_split.inc(),
            SchedEvent::ChunkStolen { .. } => self.chunks_stolen.inc(),
            SchedEvent::PredictorRefined {
                epoch, device, predicted, actual, rel_error, ..
            } => {
                self.predictor_refinements.inc();
                let (p, a) = (*predicted, *actual);
                self.predictor_error.observe((p.max(a) - p.min(a)).as_nanos());
                self.predictor_rel_error.set(*rel_error);
                let mut ages = self.predictor_age.lock();
                let entry = ages.entry(device.index()).or_insert_with(|| {
                    let gauge = self.registry.gauge_with(
                        "multicl_predictor_model_age_epochs",
                        "Epochs since this device's predictor model was last refined",
                        &[("device", &device.to_string())],
                    );
                    (gauge, *epoch)
                });
                entry.1 = *epoch;
                entry.0.set(0.0);
            }
            // Job lifecycle events are accounted per tenant by the serving
            // layer's own metrics (the `served` crate); the scheduler-level
            // metric set ignores them.
            SchedEvent::JobSubmitted { .. }
            | SchedEvent::JobAdmitted { .. }
            | SchedEvent::JobRejected { .. }
            | SchedEvent::JobDispatched { .. }
            | SchedEvent::JobCompleted { .. } => {}
            // Decode-only kinds: nothing in the program emits them.
            SchedEvent::ShardDegraded { .. } | SchedEvent::TenantMigrated { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::{SimDuration, SimTime};

    #[test]
    fn counters_and_gauges_update_atomically() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c_total", "a counter");
        let g = reg.gauge("g", "a gauge");
        c.inc();
        c.add(4);
        g.set(2.5);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_buckets_are_log_scale_and_cumulative() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        let cum = h.cumulative();
        // le=1 covers 0 and 1; le=2 adds 2; le=4 adds 3; le=1024 adds 1024.
        assert_eq!(cum[0], (1, 2));
        assert_eq!(cum[1], (2, 3));
        assert_eq!(cum[2], (4, 4));
        assert_eq!(cum[10], (1024, 5));
        // u64::MAX exceeds every finite bound: only +Inf (count) sees it.
        assert_eq!(cum.last().unwrap().1, 5);
    }

    #[test]
    fn prometheus_exposition_roundtrips_through_parser() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("multicl_epochs_total", "epochs");
        let g = reg.gauge("multicl_pool", "pool size");
        let h = reg.histogram("multicl_latency_ns", "latency");
        c.add(3);
        g.set(2.0);
        h.observe(5);
        h.observe(900);

        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE multicl_epochs_total counter"));
        assert!(text.contains("# TYPE multicl_latency_ns histogram"));

        let samples = parse_prometheus(&text).expect("parseable exposition");
        let find = |name: &str| samples.iter().find(|s| s.name == name).unwrap();
        assert_eq!(find("multicl_epochs_total").value, 3.0);
        assert_eq!(find("multicl_pool").value, 2.0);
        assert_eq!(find("multicl_latency_ns_sum").value, 905.0);
        assert_eq!(find("multicl_latency_ns_count").value, 2.0);
        // The +Inf bucket equals the count, and le="8" covers the 5.
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "multicl_latency_ns_bucket"
                    && s.labels == vec![("le".to_string(), "+Inf".to_string())]
            })
            .unwrap();
        assert_eq!(inf.value, 2.0);
        let le8 = samples
            .iter()
            .find(|s| {
                s.name == "multicl_latency_ns_bucket"
                    && s.labels == vec![("le".to_string(), "8".to_string())]
            })
            .unwrap();
        assert_eq!(le8.value, 1.0);
    }

    #[test]
    fn json_export_roundtrips_through_parser() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits_total", "hits");
        let h = reg.histogram("bytes", "migrated bytes");
        c.add(7);
        h.observe(100);

        let text = reg.to_json().dump();
        let parsed = hwsim::json::Json::parse(&text).expect("valid JSON");
        assert_eq!(parsed.get("hits_total").unwrap().as_u64(), Some(7));
        let hist = parsed.get("bytes").unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(hist.get("sum").unwrap().as_u64(), Some(100));
        let buckets = hist.get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), HISTOGRAM_BUCKETS);
        // le=128 is the first bound covering 100.
        let b128 = buckets.iter().find(|b| b.get("le").unwrap().as_u64() == Some(128)).unwrap();
        assert_eq!(b128.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn sched_metrics_track_the_event_stream() {
        let m = SchedMetrics::new();
        m.on_event(&SchedEvent::EpochBegin {
            epoch: 1,
            at: SimTime::ZERO,
            pool: 4,
            policy: "AUTO_FIT".into(),
        });
        m.on_event(&SchedEvent::CacheMiss { epoch: 1, key: "k".into() });
        m.on_event(&SchedEvent::KernelProfiled {
            epoch: 1,
            kernel: "k".into(),
            minikernel: false,
            costs: vec![],
        });
        m.on_event(&SchedEvent::QueueMigrated {
            epoch: 1,
            queue: 0,
            from: hwsim::DeviceId(0),
            to: hwsim::DeviceId(1),
            bytes: 2048,
            at: SimTime::ZERO,
        });
        m.on_event(&SchedEvent::EpochEnd {
            epoch: 1,
            at: SimTime::from_nanos(500),
            elapsed: SimDuration::from_nanos(500),
            profiling: SimDuration::from_nanos(200),
            kernels_issued: 6,
            data_queue_depth: 3,
            data_peak_busy: 2,
            commands_reordered: 4,
            lane_overlap: vec![0.25, 0.0],
        });
        m.on_event(&SchedEvent::CacheHit { epoch: 2, key: "k".into() });

        assert_eq!(m.epochs.get(), 1);
        assert_eq!(m.cache_hits.get(), 1);
        assert_eq!(m.cache_misses.get(), 1);
        assert_eq!(m.kernels_profiled.get(), 1);
        assert_eq!(m.queue_migrations.get(), 1);
        assert_eq!(m.kernels_issued.get(), 6);
        assert_eq!(m.pool_size.get(), 4.0);
        assert_eq!(m.data_queue_depth.get(), 3.0);
        assert_eq!(m.data_peak_busy.get(), 2.0);
        assert_eq!(m.epoch_latency.count(), 1);
        assert_eq!(m.epoch_latency.sum(), 500);
        assert_eq!(m.profiling_overhead.sum(), 200);
        assert_eq!(m.migrated_bytes.sum(), 2048);
        assert_eq!(m.commands_reordered.get(), 4);
        // The per-device lane-overlap gauges materialised lazily from the
        // epoch_end fractions.
        let text = m.registry().to_prometheus();
        assert!(text.contains(r#"multicl_lane_overlap_fraction{device="0"} 0.25"#), "{text}");
        assert!(text.contains(r#"multicl_lane_overlap_fraction{device="1"} 0"#), "{text}");
        // And the whole set exports cleanly.
        assert!(parse_prometheus(&m.registry().to_prometheus()).is_some());
    }

    #[test]
    fn sched_metrics_track_fault_recovery() {
        let m = SchedMetrics::new();
        m.on_event(&SchedEvent::DeviceDown {
            epoch: 2,
            device: hwsim::DeviceId(1),
            at: SimTime::from_nanos(1_000),
        });
        // Two queues evacuated off the lost device at different times.
        m.on_event(&SchedEvent::Remapped {
            epoch: 2,
            queue: 0,
            from: hwsim::DeviceId(1),
            to: hwsim::DeviceId(0),
            bytes: 4096,
            at: SimTime::from_nanos(1_400),
        });
        m.on_event(&SchedEvent::Remapped {
            epoch: 2,
            queue: 3,
            from: hwsim::DeviceId(1),
            to: hwsim::DeviceId(2),
            bytes: 0,
            at: SimTime::from_nanos(1_900),
        });
        m.on_event(&SchedEvent::RetryExhausted {
            epoch: 3,
            tenant: "t0".into(),
            job: 11,
            attempts: 3,
            reason: "CL_DEVICE_NOT_AVAILABLE".into(),
            at: SimTime::from_nanos(2_500),
        });

        assert_eq!(m.devices_down.get(), 1);
        assert_eq!(m.queues_remapped.get(), 2);
        assert_eq!(m.retries_exhausted.get(), 1);
        assert_eq!(m.recovery_latency.count(), 2);
        assert_eq!(m.recovery_latency.sum(), 400 + 900);
        assert_eq!(m.migrated_bytes.sum(), 4096);
        // Fault-driven rebinds are not counted as cost-driven migrations.
        assert_eq!(m.queue_migrations.get(), 0);
        assert!(parse_prometheus(&m.registry().to_prometheus()).is_some());
    }

    #[test]
    fn hostile_label_values_are_escaped_and_roundtrip() {
        // A tenant name with every character the exposition format must
        // escape: backslash, double-quote, and newline — plus a comma and
        // a brace to stress the scanner.
        let hostile = "t\\en\"a,nt}\nzero";
        let reg = MetricsRegistry::new();
        let c = reg.counter_with("served_jobs_total", "jobs", &[("tenant", hostile)]);
        let h = reg.histogram_with("served_latency_ns", "latency", &[("tenant", hostile)]);
        c.add(2);
        h.observe(5);
        let text = reg.to_prometheus();
        // No raw newline may survive inside a sample line.
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            assert!(line.contains(' '), "unsplittable sample line: {line:?}");
        }
        assert!(text.contains("\\\\"), "{text}");
        assert!(text.contains("\\\""), "{text}");
        assert!(text.contains("\\n"), "{text}");

        let samples = parse_prometheus(&text).expect("escaped exposition parses");
        let jobs = samples.iter().find(|s| s.name == "served_jobs_total").unwrap();
        assert_eq!(jobs.labels, vec![("tenant".to_string(), hostile.to_string())]);
        assert_eq!(jobs.value, 2.0);
        // Histogram buckets carry the tenant label plus `le`.
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "served_latency_ns_bucket"
                    && s.labels.contains(&("le".to_string(), "+Inf".to_string()))
            })
            .unwrap();
        assert!(inf.labels.contains(&("tenant".to_string(), hostile.to_string())));
        assert_eq!(inf.value, 1.0);
        // JSON export keys the two series distinctly.
        let json = reg.to_json();
        assert!(json
            .get(&render_series(
                "served_jobs_total",
                &[("tenant".to_string(), hostile.to_string())],
                None
            ))
            .is_some());
    }

    #[test]
    fn labeled_series_share_one_help_and_type_header() {
        let reg = MetricsRegistry::new();
        reg.counter_with("served_jobs_total", "jobs", &[("tenant", "a")]);
        reg.counter_with("served_jobs_total", "jobs", &[("tenant", "b")]);
        let text = reg.to_prometheus();
        assert_eq!(text.matches("# HELP served_jobs_total").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE served_jobs_total").count(), 1, "{text}");
        let samples = parse_prometheus(&text).unwrap();
        assert_eq!(samples.iter().filter(|s| s.name == "served_jobs_total").count(), 2);
    }

    #[test]
    fn sched_metrics_track_tracing_events() {
        use crate::telemetry::tracing::{AttemptTrace, SpanId};
        let m = SchedMetrics::new();
        let mut segments = SegmentSet::zero();
        segments.add(SegmentKind::Compute, SimDuration::from_nanos(700));
        segments.add(SegmentKind::AdmissionWait, SimDuration::from_nanos(300));
        m.on_event(&SchedEvent::JobTrace {
            epoch: 1,
            tenant: "t0".into(),
            job: 1,
            submitted_at: SimTime::ZERO,
            completed_at: SimTime::from_nanos(1_000),
            outcome: "completed".into(),
            attempts: vec![AttemptTrace {
                span: SpanId::root(1),
                queue: Some(0),
                device: Some(0),
                epoch: 1,
                dispatched_at: SimTime::from_nanos(300),
                ended_at: SimTime::from_nanos(1_000),
                segments,
            }],
        });
        m.on_event(&SchedEvent::MakespanAttribution {
            epoch: 1,
            at: SimTime::from_nanos(1_000),
            policy: "AUTO_FIT".into(),
            predicted: SimDuration::from_nanos(800),
            actual: SimDuration::from_nanos(1_000),
        });
        m.on_event(&SchedEvent::SloBurn {
            epoch: 1,
            tenant: "t0".into(),
            at: SimTime::from_nanos(1_000),
            long_window: SimDuration::from_millis(50),
            short_window: SimDuration::from_millis(5),
            long_burn: 15.0,
            short_burn: 16.0,
            threshold: 14.0,
            fired: true,
        });
        m.on_event(&SchedEvent::SloBurn {
            epoch: 2,
            tenant: "t0".into(),
            at: SimTime::from_nanos(2_000),
            long_window: SimDuration::from_millis(50),
            short_window: SimDuration::from_millis(5),
            long_burn: 1.0,
            short_burn: 0.5,
            threshold: 14.0,
            fired: false,
        });

        let compute_idx = SegmentKind::ALL.iter().position(|&k| k == SegmentKind::Compute).unwrap();
        assert_eq!(m.job_segments[compute_idx].sum(), 700);
        assert_eq!(m.job_segments[compute_idx].count(), 1);
        assert_eq!(m.makespan_error.sum(), 200);
        assert!((m.makespan_rel_error.get() - 0.2).abs() < 1e-12);
        // Only the firing transition counts.
        assert_eq!(m.slo_alerts.get(), 1);
        let text = m.registry().to_prometheus();
        assert!(text.contains("multicl_job_segment_ns_bucket{segment=\"compute\""), "{text}");
        assert!(parse_prometheus(&text).is_some());
    }
}
