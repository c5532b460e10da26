//! Scheduler telemetry: a typed event stream, a lock-cheap metrics
//! registry, and exportable sinks.
//!
//! The paper's whole evaluation (§VI) is an exercise in *explaining* what
//! the device mapper did — which queue landed on which device, what the
//! profiled cost vectors were, how much time profiling stole from the
//! application. This module turns each of those facts into a first-class,
//! exportable record:
//!
//! * [`SchedEvent`] — the typed event stream emitted by the runtime at every
//!   synchronization epoch: [`SchedEvent::EpochBegin`],
//!   [`SchedEvent::KernelProfiled`], [`SchedEvent::CacheHit`] /
//!   [`SchedEvent::CacheMiss`], [`SchedEvent::MappingDecision`] (the full
//!   explain record: per-device estimated times, migration cost terms, and
//!   the chosen assignment), [`SchedEvent::QueueMigrated`], and
//!   [`SchedEvent::EpochEnd`]. Every event streams to JSON text and parses
//!   back ([`SchedEvent::write_json`] / [`SchedEvent::from_json`]; a whole
//!   slice with [`to_jsonl`]); the enum and its codec are generated from
//!   the one table in [`event`].
//! * [`SchedObserver`] — the hook trait; implementations are attached via
//!   [`SchedOptions::observers`](crate::SchedOptions) or
//!   [`MulticlContext::add_observer`](crate::MulticlContext::add_observer).
//! * [`registry`] — counters, gauges, and log-scale histograms, grouped
//!   into families, with Prometheus text exposition; [`metric_set!`]
//!   declares a set of them once, and [`SchedMetrics`] — written in it —
//!   binds the standard scheduler metric set to the event stream.
//! * [`sink`] — ready-made observers: an in-memory ring buffer
//!   ([`RingBufferSink`]), a JSONL writer ([`JsonlSink`]), and a stderr
//!   printer ([`StderrSink`], what `MULTICL_DEBUG` uses).
//! * [`perfetto`] — an extended Chrome/Perfetto exporter adding flow events
//!   for queue migrations and per-device utilization counter tracks on top
//!   of [`Trace::to_chrome_json`](hwsim::trace::Trace::to_chrome_json).
//! * [`report`] — terminal rendering of the decision log (the
//!   `schedule_explain` binary in `multicl-bench` drives it).
//! * [`tracing`] — causal job spans and exact critical-path latency
//!   attribution: [`tracing::TraceContext`] follows a job from admission
//!   to its terminal outcome, decomposing end-to-end latency into
//!   admission-wait / backoff / profiling / dispatch-wait / transfer /
//!   compute / remap segments that sum to the observed latency exactly.
//!   [`SchedEvent::JobTrace`], [`SchedEvent::MakespanAttribution`], and
//!   [`SchedEvent::SloBurn`] carry the results on the event stream.
//!
//! Three kinds are *decode-only*: [`SchedEvent::ShardDegraded`] and
//! [`SchedEvent::TenantMigrated`] were emitted by the cluster tier until
//! PR 21, and [`SchedEvent::ChunkStolen`] by the split work-stealing
//! assigner until PR 25; they stay in the table so recorded streams still
//! decode.

pub mod event;
pub mod perfetto;
pub mod registry;
pub mod report;
pub mod sink;
pub mod tracing;

pub use crate::metric_set;
pub use event::{QueueDecision, SchedEvent};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, SchedMetrics};
pub use sink::{to_jsonl, JsonlSink, RingBufferSink, StderrSink};
pub use tracing::{AttemptTrace, SegmentKind, SegmentSet, SpanId, SpanSlice, TraceContext};

/// Receiver for scheduler telemetry events.
///
/// Observers are invoked synchronously from the scheduling pass, in
/// attachment order, while no runtime locks are held. Implementations
/// should be cheap (push to a buffer, bump a counter); anything expensive
/// belongs in a drain step after the run.
pub trait SchedObserver: Send + Sync {
    /// Called once per emitted event.
    fn on_event(&self, event: &SchedEvent);
}
