//! `served`: a multi-tenant job service on top of the MultiCL scheduler.
//!
//! The scheduler reproduction (`multicl`) answers "given these command
//! queues, which devices should run them?". This crate asks the question
//! one layer up, where the paper's task-parallel workloads actually come
//! from in production: many independent clients submitting small jobs
//! against one shared node. It provides:
//!
//! - [`spec`] — declarative job specs: a DAG of buffer writes and kernel
//!   launches with roofline cost descriptions, encoded as JSON.
//! - [`tenant`] — per-tenant bounded queues and admission control
//!   (reject-with-reason backpressure instead of unbounded buffering).
//! - [`service`] — the [`Served`] front-end: weighted
//!   round-robin dispatch rounds onto a pool of scheduler queues, one
//!   MultiCL sync epoch per round, job-lifecycle telemetry events.
//! - [`metrics`] — per-tenant throughput/queue-depth/latency metrics in
//!   the shared registry (tenant identity as an escaped Prometheus label),
//!   plus exact p50/p95/p99 latency samples.
//! - [`slo`] — per-tenant latency SLOs with multi-window burn-rate
//!   alerting; transitions surface as `SloBurn` telemetry events.
//! - [`loadgen`] — a seeded open-loop (Poisson) arrival process in virtual
//!   time; same seed, same arrivals and results, so two policies run under
//!   one seed are compared over one workload.
//!
//! Binary: `loadgen` (generate load, write `results/serve_*.{json,prom}`
//! reports and the event stream).

#![warn(missing_docs)]

pub mod loadgen;
pub mod metrics;
pub mod service;
pub mod slo;
pub mod spec;
pub mod tenant;

pub use loadgen::LoadgenConfig;
pub use service::{
    FailReason, JobOutcome, JobResult, RetryPolicy, ServePolicy, Served, ServiceConfig,
};
pub use slo::{BurnWindow, SloConfig};
pub use spec::{JobSpec, SpecError};
pub use tenant::{RejectReason, TenantConfig};
