//! A lock-cheap metrics registry: counters, gauges, and log-scale
//! histograms, grouped into families, with Prometheus text exposition.
//!
//! Metric handles are `Arc`-backed atomics — updating one is a single
//! relaxed atomic op, safe to do from the scheduling hot path. The registry
//! itself only takes a lock on registration and export.

use super::event::SchedEvent;
use super::tracing::{SegmentKind, SegmentSet};
use super::SchedObserver;
use hwsim::sync::Mutex;
use hwsim::DeviceId;
use std::collections::HashMap;
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

/// One registered series: the registry's clone of the handle it gave out.
#[derive(Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Histogram(_) => "histogram",
        }
    }
}

/// All series of one metric name: the unit of exposition.
struct Family {
    name: String,
    help: String,
    kind: &'static str,
    /// Series in first-registration order, keyed by their constant label
    /// pairs (e.g. `tenant`, `segment`). Values are stored raw; escaping
    /// happens at exposition.
    series: Vec<(Vec<(String, String)>, Cell)>,
}

/// Append one sample line, `name{k="v",...} value`, with `le` (a histogram
/// bucket bound) after the constant labels. Label values are escaped as the
/// exposition format requires: backslash, double-quote and line feed.
fn write_sample(
    out: &mut String,
    (name, suffix): (&str, &str),
    labels: &[(String, String)],
    le: Option<&str>,
    value: impl std::fmt::Display,
) {
    use std::fmt::Write as _;
    out.extend([name, suffix]);
    let pairs = labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(le.map(|le| ("le", le)));
    for (i, (key, value)) in pairs.enumerate() {
        out.extend([if i == 0 { "{" } else { "," }, key, "=\""]);
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if !labels.is_empty() || le.is_some() {
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

/// A named collection of metric families with text exposition.
///
/// Registration is get-or-create: asking again for the same name and labels
/// returns a handle to the same cell, and a new label set joins its name's
/// family. Handles stay live after registration; the registry lock is only
/// held while registering or exporting.
#[derive(Default)]
pub struct MetricsRegistry {
    /// Families in first-registration order.
    families: Mutex<Vec<Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the unlabeled counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get or create the counter `name` with constant labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, labels, Cell::Counter(Counter::new())) {
            Cell::Counter(c) => c,
            _ => unreachable!("series() checked the family's kind"),
        }
    }

    /// Get or create the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Get or create the gauge `name` with constant labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, labels, Cell::Gauge(Gauge::new())) {
            Cell::Gauge(g) => g,
            _ => unreachable!("series() checked the family's kind"),
        }
    }

    /// Get or create the unlabeled histogram `name`.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Get or create the histogram `name` with constant labels.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, labels, Cell::Histogram(Histogram::new())) {
            Cell::Histogram(h) => h,
            _ => unreachable!("series() checked the family's kind"),
        }
    }

    /// The cell of `name{labels}`: the registered one, else `fresh`, which
    /// joins the family of `name` (created with `help` on first use).
    ///
    /// # Panics
    ///
    /// If `name` is already registered as another kind of metric.
    fn series(&self, name: &str, help: &str, labels: &[(&str, &str)], fresh: Cell) -> Cell {
        let mut families = self.families.lock();
        let at = families.iter().position(|f| f.name == name).unwrap_or_else(|| {
            let (name, help) = (name.to_string(), help.to_string());
            families.push(Family { name, help, kind: fresh.kind(), series: Vec::new() });
            families.len() - 1
        });
        let family = &mut families[at];
        assert_eq!(family.kind, fresh.kind(), "metric {name} is already a {}", family.kind);
        let same = |have: &[(String, String)]| {
            have.len() == labels.len()
                && have.iter().zip(labels).all(|((hk, hv), (k, v))| hk == k && hv == v)
        };
        if let Some((_, cell)) = family.series.iter().find(|(have, _)| same(have)) {
            return cell.clone();
        }
        let labels = labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        family.series.push((labels, fresh.clone()));
        fresh
    }

    /// Render the registry in the Prometheus text exposition format
    /// (version 0.0.4), one group per family in first-registration order:
    /// its `# HELP` / `# TYPE` comments, then every series of it —
    /// `_bucket{le=...}`, `_sum`, `_count` lines for histograms.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for Family { name, help, kind, series } in self.families.lock().iter() {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, cell) in series {
                match cell {
                    Cell::Counter(c) => write_sample(&mut out, (name, ""), labels, None, c.get()),
                    Cell::Gauge(g) => write_sample(&mut out, (name, ""), labels, None, g.get()),
                    Cell::Histogram(h) => {
                        // Elide the flat tail: stop after the last bucket where
                        // the cumulative count rises, then emit +Inf.
                        let cum = h.cumulative();
                        let last_rise =
                            (1..cum.len()).rev().find(|&i| cum[i].1 != cum[i - 1].1).unwrap_or(0);
                        for (le, c) in &cum[..=last_rise] {
                            let le = le.to_string();
                            write_sample(&mut out, (name, "_bucket"), labels, Some(&le), c);
                        }
                        write_sample(&mut out, (name, "_bucket"), labels, Some("+Inf"), h.count());
                        write_sample(&mut out, (name, "_sum"), labels, None, h.sum());
                        write_sample(&mut out, (name, "_count"), labels, None, h.count());
                    }
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} families)", self.families.lock().len())
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

/// Declares a metric set once: a struct of `pub` handles plus its
/// `register` constructor. Each series states its field, its handle type
/// (`Counter`, `Gauge` or `Histogram`), its series name, and one prose
/// string that is both the field's rustdoc and the `# HELP` text — adding a
/// metric is one line here. `Kind[key in VALUES]` declares one series per
/// element of `VALUES`, labeled `key="<element.label()>"` and held in a
/// `Vec` in that order. `register(registry, labels)` gets or creates every
/// series in declaration order under the set-wide `labels` (e.g. a
/// tenant). An optional `state { .. }` block adds private,
/// `Default`-initialized fields: what the set's owner derives values from,
/// not series.
#[macro_export]
macro_rules! metric_set {
    (
        $(#[$meta:meta])*
        pub struct $Set:ident {$(
            $field:ident: $Kind:ident $([$key:literal in $values:expr])? = $name:literal, $help:literal;
        )*}
        $(state {$(
            $(#[$state_meta:meta])*
            $state:ident: $State:ty,
        )*})?
    ) => {
        $(#[$meta])*
        pub struct $Set {
            $(
                #[doc = $help]
                pub $field: $crate::metric_set!(@type $Kind $($key)?),
            )*
            $($(
                $(#[$state_meta])*
                $state: $State,
            )*)?
        }

        impl $Set {
            /// Get or create every series of the set in `registry`, in
            /// declaration order, each under the constant `labels`.
            pub fn register(
                registry: &$crate::telemetry::MetricsRegistry,
                labels: &[(&str, &str)],
            ) -> $Set {
                $Set {
                    $($field: $crate::metric_set!(
                        @series registry, labels, $Kind $([$key in $values])?, $name, $help
                    ),)*
                    $($($state: Default::default(),)*)?
                }
            }
        }
    };
    (@type $Kind:ident) => { $crate::telemetry::$Kind };
    (@type $Kind:ident $key:literal) => { Vec<$crate::telemetry::$Kind> };
    (@series $registry:ident, $labels:ident, $Kind:ident, $name:literal, $help:literal) => {
        $crate::metric_set!(@get $Kind, $registry, $name, $help, $labels)
    };
    (@series $registry:ident, $labels:ident, $Kind:ident [$key:literal in $values:expr],
     $name:literal, $help:literal) => {
        $values
            .iter()
            .map(|value| {
                let mut labels = $labels.to_vec();
                labels.push(($key, value.label()));
                $crate::metric_set!(@get $Kind, $registry, $name, $help, &labels)
            })
            .collect()
    };
    (@get Counter, $registry:ident, $($args:tt)*) => { $registry.counter_with($($args)*) };
    (@get Gauge, $registry:ident, $($args:tt)*) => { $registry.gauge_with($($args)*) };
    (@get Histogram, $registry:ident, $($args:tt)*) => { $registry.histogram_with($($args)*) };
}

metric_set! {
/// The standard scheduler metric set, bound to the event stream.
///
/// Attach via `SchedOptions::observers` (or
/// `MulticlContext::add_observer`); every emitted [`SchedEvent`] updates
/// the corresponding metrics. Times are recorded in virtual nanoseconds,
/// except `mapper_wall` (host time). `queues_remapped` counts fault-driven
/// rebinds, distinct from the cost-driven `queue_migrations`; `slo_alerts`
/// counts transitions to firing only; `job_segments` is indexed in
/// [`SegmentKind::ALL`] order. Two more families are created lazily, one
/// gauge per device the stream reports: `multicl_lane_overlap_fraction`
/// and `multicl_predictor_model_age_epochs`.
#[derive(Debug)]
pub struct SchedMetrics {
    epochs: Counter = "multicl_epochs_total", "Scheduling epochs completed";
    cache_hits: Counter =
        "multicl_cache_hits_total", "Epoch cost vectors served from the profile caches";
    cache_misses: Counter =
        "multicl_cache_misses_total", "Epoch cost vectors that required dynamic profiling";
    kernels_profiled: Counter =
        "multicl_kernels_profiled_total", "Kernels dynamically profiled across all devices";
    queue_migrations: Counter =
        "multicl_queue_migrations_total", "Queue-to-device rebinds performed by the mapper";
    kernels_issued: Counter =
        "multicl_kernels_issued_total", "Kernel launches flushed to devices";
    pool_size: Gauge = "multicl_epoch_pool_size", "Queues in the most recent scheduling pool";
    epoch_latency: Histogram =
        "multicl_epoch_latency_ns", "Virtual time per scheduling pass in nanoseconds";
    profiling_overhead: Histogram = "multicl_profiling_overhead_ns",
        "Virtual time per pass spent obtaining cost vectors, in nanoseconds";
    migrated_bytes: Histogram = "multicl_migrated_bytes", "Bytes migrated per queue rebind";
    mapper_nodes: Histogram =
        "multicl_mapper_nodes", "Branch-and-bound nodes explored per mapping decision";
    mapper_wall: Histogram =
        "multicl_mapper_wall_ns", "Host wall-clock time per mapping decision in nanoseconds";
    mapper_budget_trips: Counter = "multicl_mapper_budget_trips_total",
        "Mapping decisions where the adaptive node budget tripped";
    data_queue_depth: Gauge = "multicl_data_queue_depth",
        "Host data-plane tasks still live at the most recent epoch end";
    data_peak_busy: Gauge = "multicl_data_peak_busy_workers",
        "Peak concurrently-busy data-plane workers observed so far";
    devices_down: Counter =
        "multicl_devices_down_total", "Devices blacklisted after a permanent loss";
    queues_remapped: Counter =
        "multicl_queues_remapped_total", "Queues evacuated off failed devices";
    retries_exhausted: Counter = "multicl_retries_exhausted_total",
        "Jobs abandoned after the retry budget was exhausted";
    recovery_latency: Histogram = "multicl_recovery_latency_ns",
        "Virtual time from device-loss detection to queue evacuation, in nanoseconds";
    makespan_error: Histogram = "multicl_makespan_error_ns",
        "Absolute predicted-vs-executed makespan error per epoch, in nanoseconds";
    makespan_rel_error: Gauge = "multicl_makespan_rel_error",
        "Relative makespan error of the most recent attributed epoch";
    job_segments: Histogram["segment" in SegmentKind::ALL] = "multicl_job_segment_ns",
        "Per-job attributed latency per critical-path segment, in nanoseconds";
    slo_alerts: Counter = "multicl_slo_alerts_total", "SLO burn-rate alerts fired";
    predictor_predictions: Counter = "multicl_predictor_predictions_total",
        "Cold kernel cost rows served by the predictive model";
    predictor_fallbacks: Counter = "multicl_predictor_fallbacks_total",
        "Cold kernels the predictor declined, falling back to profiling";
    predictor_refinements: Counter = "multicl_predictor_refinements_total",
        "Executed-kernel observations folded back into the predictor";
    predictor_error: Histogram = "multicl_predictor_error_ns",
        "Absolute predicted-vs-executed kernel time error per refinement, in nanoseconds";
    predictor_rel_error: Gauge = "multicl_predictor_rel_error",
        "Relative prediction error of the most recent refinement";
    commands_reordered: Counter = "multicl_commands_reordered_total",
        "Commands emitted out of program order by the epoch batch reorderer";
    kernels_split: Counter = "multicl_kernels_split_total",
        "Splittable kernel launches partitioned into multi-device chunks";
    chunks_stolen: Counter = "multicl_chunks_stolen_total",
        "Chunks moved off their preferred device by the work-stealing assigner";
}
state {
    registry: MetricsRegistry,
    /// Detection time (ns) of each downed device, so `Remapped` events can
    /// be turned into recovery latencies.
    down_since: Mutex<HashMap<usize, u64>>,
    /// Epoch of each device's most recent predictor refinement; its model
    /// age gauge is the distance from there to the current epoch.
    refined_at: Mutex<HashMap<DeviceId, u64>>,
}
}

impl Default for SchedMetrics {
    fn default() -> SchedMetrics {
        // `register` borrows the registry the set then owns; its own
        // `registry` field is the `state` block's empty default until here.
        let registry = MetricsRegistry::new();
        let set = SchedMetrics::register(&registry, &[]);
        SchedMetrics { registry, ..set }
    }
}

impl SchedMetrics {
    /// A fresh metric set with its own registry.
    pub fn new() -> SchedMetrics {
        SchedMetrics::default()
    }

    /// The backing registry (for exposition).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The lazily created model-age gauge of `device`.
    fn predictor_age(&self, device: DeviceId) -> Gauge {
        self.registry.gauge_with(
            "multicl_predictor_model_age_epochs",
            "Epochs since this device's predictor model was last refined",
            &[("device", &device.to_string())],
        )
    }
}

impl SchedObserver for SchedMetrics {
    fn on_event(&self, event: &SchedEvent) {
        match event {
            SchedEvent::EpochBegin { epoch, pool, .. } => {
                self.pool_size.set(*pool as f64);
                // Advance every known device's predictor model age: epochs
                // since its last refinement.
                for (device, refined) in self.refined_at.lock().iter() {
                    self.predictor_age(*device).set(epoch.saturating_sub(*refined) as f64);
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
                for (device, &fraction) in lane_overlap.iter().enumerate() {
                    self.registry
                        .gauge_with(
                            "multicl_lane_overlap_fraction",
                            "Copy/compute lane overlap fraction of the most recent epoch",
                            &[("device", &device.to_string())],
                        )
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
                self.refined_at.lock().insert(*device, *epoch);
                self.predictor_age(*device).set(0.0);
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
    fn interleaved_registration_still_groups_each_family() {
        let reg = MetricsRegistry::new();
        for x in ["1", "2"] {
            reg.counter_with("a_total", "family a", &[("x", x)]).inc();
            reg.histogram_with("b_ns", "family b", &[("x", x)]).observe(3);
        }
        let text = reg.to_prometheus();
        // Each family is one group — `# HELP`, `# TYPE`, then all of its
        // samples — and no line of it follows another family's.
        let mut groups: Vec<&str> = Vec::new();
        for line in text.lines() {
            let name = line.trim_start_matches("# HELP ").trim_start_matches("# TYPE ");
            let name = name.split(['{', ' ']).next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| name.strip_suffix(s))
                .unwrap_or(name);
            if groups.last() != Some(&family) {
                assert!(line.starts_with("# HELP "), "{family} group opens with {line:?}");
                groups.push(family);
            }
        }
        assert_eq!(groups, ["a_total", "b_ns"], "{text}");
        assert_eq!(text.matches("# HELP ").count(), 2, "{text}");
        assert_eq!(text.matches("# TYPE ").count(), 2, "{text}");
        let samples = parse_prometheus(&text).unwrap();
        assert_eq!(samples.iter().filter(|s| s.name == "a_total").count(), 2);
        assert_eq!(samples.iter().filter(|s| s.name == "b_ns_count").count(), 2);
    }

    #[test]
    fn registering_a_series_twice_yields_two_handles_to_one_cell() {
        let reg = MetricsRegistry::new();
        let first = reg.gauge_with("g", "a gauge", &[("device", "0")]);
        let again = reg.gauge_with("g", "a gauge", &[("device", "0")]);
        first.set(1.5);
        assert_eq!(again.get(), 1.5);
        again.set(4.0);
        assert_eq!(reg.to_prometheus().matches("g{device=\"0\"}").count(), 1);
        assert!(reg.to_prometheus().contains("g{device=\"0\"} 4\n"));
    }

    #[test]
    #[should_panic(expected = "already a counter")]
    fn one_name_cannot_be_two_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("x", "a counter");
        reg.gauge_with("x", "a gauge", &[("device", "0")]);
    }

    #[test]
    fn sched_metrics_exposition_matches_the_recorded_golden() {
        // `sched_metrics_v1.prom` was written by the hand-registered
        // `SchedMetrics` of the commit before the set was declared through
        // `metric_set!`; never regenerate it from current code. It pins
        // names, help strings, kinds, order and values.
        let m = SchedMetrics::new();
        for ev in crate::telemetry::event::sample_events() {
            m.on_event(&ev);
        }
        let golden = include_str!("../../tests/fixtures/sched_metrics_v1.prom");
        assert_eq!(m.registry().to_prometheus(), golden);
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
