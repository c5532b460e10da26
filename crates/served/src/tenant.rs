//! Tenants: bounded submission queues with admission control.
//!
//! Each tenant owns a FIFO of admitted-but-not-yet-dispatched jobs. The
//! queue is bounded; submissions beyond the bound are rejected with a
//! reason (backpressure) instead of queuing unboundedly. Draining order
//! across tenants is weighted round-robin (see
//! [`Served::dispatch_round`](crate::service::Served::dispatch_round)).

use crate::spec::{JobSpec, SpecError};
use hwsim::sync::Mutex;
use hwsim::SimTime;
use multicl::telemetry::TraceContext;
use std::collections::VecDeque;
use std::sync::Arc;

/// Static description of one tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Tenant name (used in telemetry events and metric names), shared by
    /// every event that names the tenant.
    pub name: Arc<str>,
    /// Weighted-round-robin share: up to `weight` jobs drained per sweep.
    pub weight: u32,
    /// Maximum admitted-but-undispatched jobs; submissions beyond this are
    /// rejected.
    pub capacity: usize,
}

impl TenantConfig {
    /// A tenant with the given name, drain weight (≥1), and queue bound (≥1).
    pub fn new(name: impl Into<Arc<str>>, weight: u32, capacity: usize) -> TenantConfig {
        TenantConfig { name: name.into(), weight: weight.max(1), capacity: capacity.max(1) }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The tenant's bounded queue is at capacity (backpressure).
    QueueFull {
        /// Depth observed at rejection time.
        depth: usize,
        /// The configured bound.
        capacity: usize,
    },
    /// The job spec failed validation.
    InvalidSpec(SpecError),
    /// A buffer of the spec is larger than any device of the node can hold
    /// (or its byte size overflows `usize`): no placement could run it.
    BufferTooLarge {
        /// Name of the offending buffer.
        buffer: String,
        /// Its declared `f64` element count.
        elements: usize,
        /// The largest buffer the node admits, in bytes.
        limit: u64,
    },
    /// The tenant index names no tenant of this service. Nothing is
    /// counted or emitted: there is no tenant to attribute it to.
    UnknownTenant {
        /// The index submitted.
        tenant: usize,
        /// How many tenants the service has.
        tenants: usize,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth, capacity } => {
                write!(f, "queue_full depth={depth}/{capacity}")
            }
            RejectReason::InvalidSpec(e) => write!(f, "invalid_spec: {e}"),
            RejectReason::BufferTooLarge { buffer, elements, limit } => {
                write!(
                    f,
                    "buffer_too_large `{buffer}`: {elements} f64 elements exceed {limit} bytes"
                )
            }
            RejectReason::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown_tenant {tenant} of {tenants}")
            }
        }
    }
}

impl std::error::Error for RejectReason {}

/// One admitted job waiting for dispatch.
#[derive(Debug, Clone)]
pub(crate) struct PendingJob {
    /// Service-wide job id.
    pub id: u64,
    /// The validated spec.
    pub spec: JobSpec,
    /// `spec`'s step indices in the topological order validation found.
    pub order: Vec<usize>,
    /// Virtual time of admission.
    pub submitted_at: SimTime,
    /// Virtual completion deadline; past it the job fails instead of
    /// (re)dispatching.
    pub deadline: Option<SimTime>,
    /// Dispatches that already ended in a device failure.
    pub attempts: u32,
    /// Earliest virtual time the job may be (re)dispatched — retry backoff.
    pub not_before: SimTime,
    /// Causal span store minted at admission; every dispatch attempt adds
    /// its critical-path segment decomposition here.
    pub trace: TraceContext,
}

/// Runtime state of one tenant.
pub(crate) struct TenantState {
    pub config: TenantConfig,
    pub queue: Mutex<VecDeque<PendingJob>>,
}

impl TenantState {
    pub fn new(config: TenantConfig) -> TenantState {
        TenantState { config, queue: Mutex::new(VecDeque::new()) }
    }

    pub fn depth(&self) -> usize {
        self.queue.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_floors_weight_and_capacity() {
        let t = TenantConfig::new("t", 0, 0);
        assert_eq!(t.weight, 1);
        assert_eq!(t.capacity, 1);
    }

    #[test]
    fn reject_reasons_render() {
        let r = RejectReason::QueueFull { depth: 4, capacity: 4 };
        assert_eq!(r.to_string(), "queue_full depth=4/4");
        let r = RejectReason::InvalidSpec(SpecError::Duplicate("x".into()));
        assert!(r.to_string().contains("invalid_spec"));
        assert!(r.to_string().contains('x'));
    }
}
