//! The typed scheduler event stream and its JSON codec.

use super::tracing::AttemptTrace;
use hwsim::json::{write_num, write_str, Json};
use hwsim::{DeviceId, SimDuration, SimTime};

/// Everything the mapper knew about one queue when it made its decision —
/// the "explain record" of a `MappingDecision`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueDecision {
    /// Stable queue id (creation order within the context).
    pub queue: usize,
    /// Estimated execution time of the queue's pending epoch per device
    /// (device order), from dynamic profiles or static hint scores.
    pub exec_estimates: Vec<SimDuration>,
    /// Predicted data-migration cost of *choosing* each device (zero for
    /// explicit-region queues, whose one-time migration is amortized).
    pub migration_costs: Vec<SimDuration>,
    /// For `SCHED_OUT_OF_ORDER` queues with warm kernel profiles: the
    /// lane-aware per-device makespan estimate (Johnson two-lane list
    /// schedule) the mapper used *instead of* `exec + migration`. Empty
    /// for in-order queues and cold epochs.
    pub overlap_estimates: Vec<SimDuration>,
    /// The device the mapper assigned.
    pub chosen: DeviceId,
    /// The device the queue was bound to before this decision.
    pub previous: DeviceId,
}

impl QueueDecision {
    /// Total cost the mapper saw for `device`: the lane-aware overlap
    /// estimate when one was recorded, else execution + migration.
    pub fn total(&self, device: DeviceId) -> SimDuration {
        match self.overlap_estimates.get(device.index()) {
            Some(&ov) => ov,
            None => self.exec_estimates[device.index()] + self.migration_costs[device.index()],
        }
    }

    /// The device with the minimum total cost for this queue alone. The
    /// mapper optimizes the *makespan* across all queues, so this is not
    /// always [`Self::chosen`] — but when it differs, the decision log shows
    /// exactly which contention forced the detour.
    pub fn argmin_total(&self) -> DeviceId {
        let n = self.exec_estimates.len();
        (0..n)
            .map(DeviceId)
            .min_by_key(|&d| self.total(d))
            .expect("decision has at least one device column")
    }
}

/// One JSON leaf (or nested record) of the event wire format. Every field of
/// every [`SchedEvent`] is written and decoded through exactly one impl
/// below (or, for the span records, in [`super::tracing`]), so number
/// formatting and missing-value handling live in one place. Durations and
/// times are nanoseconds; device ids are indices.
pub(crate) trait Wire: Sized {
    /// Append the value's JSON text to `out`.
    fn write(&self, out: &mut String);
    /// `None` when `value` has the wrong shape (for a `Vec`, when any
    /// element does).
    fn decode(value: &Json) -> Option<Self>;
}

macro_rules! wire_leaves {
    ($($ty:ty: |$v:ident, $out:ident| $write:expr, |$j:ident| $decode:expr;)*) => {$(
        impl Wire for $ty {
            fn write(&self, $out: &mut String) {
                let $v = self;
                $write
            }
            fn decode($j: &Json) -> Option<Self> {
                $decode
            }
        }
    )*};
}

// Integers are written through `f64`, which is what `Json::Num` holds, so a
// `u64` above 2^53 has the same text here as in a dumped tree.
wire_leaves! {
    u64: |v, out| write_num(*v as f64, out), |j| j.as_u64();
    usize: |v, out| write_num(*v as f64, out), |j| j.as_u64().map(|n| n as usize);
    f64: |v, out| write_num(*v, out), |j| j.as_f64();
    bool: |v, out| out.push_str(if *v { "true" } else { "false" }), |j| j.as_bool();
    String: |v, out| write_str(v, out), |j| j.as_str().map(str::to_string);
    SimTime: |v, out| v.as_nanos().write(out), |j| j.as_u64().map(SimTime::from_nanos);
    SimDuration: |v, out| v.as_nanos().write(out), |j| j.as_u64().map(SimDuration::from_nanos);
    DeviceId: |v, out| v.index().write(out), |j| j.as_u64().map(|n| DeviceId(n as usize));
    // `null` when absent (an attempt that never reached a queue or device).
    Option<u64>: |v, out| match v {
        Some(n) => n.write(out),
        None => out.push_str("null"),
    }, |j| Some(j.as_u64());
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write(out);
        }
        out.push(']');
    }
    fn decode(value: &Json) -> Option<Self> {
        value.as_arr()?.iter().map(T::decode).collect()
    }
}

/// Append `{"k0":v0,"k1":v1,...}` to `$out`: literal keys (no character
/// that needs escaping), [`Wire`] values, in the order given.
macro_rules! write_obj {
    ($out:expr, $key0:literal: $value0:expr $(, $key:literal: $value:expr)* $(,)?) => {{
        $out.push_str(concat!("{\"", $key0, "\":"));
        Wire::write($value0, $out);
        $(
            $out.push_str(concat!(",\"", $key, "\":"));
            Wire::write($value, $out);
        )*
        $out.push('}');
    }};
}
pub(crate) use write_obj;

impl Wire for QueueDecision {
    fn write(&self, out: &mut String) {
        write_obj!(out,
            "queue": &self.queue,
            "exec_ns": &self.exec_estimates,
            "migration_ns": &self.migration_costs,
            "overlap_ns": &self.overlap_estimates,
            "chosen": &self.chosen,
            "previous": &self.previous,
        );
    }
    fn decode(value: &Json) -> Option<Self> {
        Some(QueueDecision {
            queue: field(value, "queue")?,
            exec_estimates: field(value, "exec_ns")?,
            migration_costs: field(value, "migration_ns")?,
            // Added with the out-of-order flush; absent in older streams.
            overlap_estimates: field_or(value, "overlap_ns", Vec::new),
            chosen: field(value, "chosen")?,
            previous: field(value, "previous")?,
        })
    }
}

/// A required member of `obj`: `None` when absent or of the wrong shape.
pub(crate) fn field<T: Wire>(obj: &Json, key: &str) -> Option<T> {
    T::decode(obj.get(key)?)
}

/// A member added after its record first shipped: absent (or unreadable)
/// decodes as `default`, so streams recorded by older builds still replay.
pub(crate) fn field_or<T: Wire>(obj: &Json, key: &str, default: impl FnOnce() -> T) -> T {
    obj.get(key).and_then(T::decode).unwrap_or_else(default)
}

/// Declares the event stream once. Each variant names its wire `type`
/// string; each field its wire key and, for fields added after the variant
/// first shipped, `= <decode default>`. The enum, [`SchedEvent::KINDS`],
/// `kind()`, `epoch()`, `write_json()`, `from_json()` and the test-only
/// `with_defaults()` are all generated from that one table, so adding an
/// event kind or a late field is one entry here (plus a `sample_events()`
/// entry, which the tests insist on). Every variant must have an `epoch`
/// field.
macro_rules! sched_events {
    (
        $(#[$enum_meta:meta])*
        pub enum $Enum:ident {$(
            $(#[$variant_meta:meta])*
            $Variant:ident = $kind:literal {$(
                $(#[$field_meta:meta])*
                $field:ident: $ty:ty => $key:literal $(= $default:expr)?,
            )*},
        )*}
    ) => {
        $(#[$enum_meta])*
        pub enum $Enum {$(
            $(#[$variant_meta])*
            $Variant {$(
                $(#[$field_meta])*
                $field: $ty,
            )*},
        )*}

        impl $Enum {
            /// Every event type name of the JSON encoding, in declaration
            /// order.
            pub const KINDS: &'static [&'static str] = &[$($kind),*];

            /// The event's scheduling epoch.
            pub fn epoch(&self) -> u64 {
                match self {
                    $($Enum::$Variant { epoch, .. })|* => *epoch,
                }
            }

            /// The event's type name as used in the JSON encoding.
            pub fn kind(&self) -> &'static str {
                match self {
                    $($Enum::$Variant { .. } => $kind,)*
                }
            }

            /// Append the event as one JSON object: `type` first, then the
            /// fields in declaration order. Durations and times are
            /// nanoseconds. This is the wire format's only encoder — the
            /// sinks, [`to_jsonl`](super::to_jsonl) and
            /// [`Self::to_json`] all run it.
            pub fn write_json(&self, out: &mut String) {
                match self {$(
                    $Enum::$Variant { $($field),* } => {
                        out.push_str(concat!("{\"type\":\"", $kind, "\""));
                        $(
                            out.push_str(concat!(",\"", $key, "\":"));
                            Wire::write($field, out);
                        )*
                        out.push('}');
                    }
                )*}
            }

            /// Decode from the [`Self::write_json`] representation.
            pub fn from_json(value: &Json) -> Option<$Enum> {
                Some(match value.get("type")?.as_str()? {
                    $($kind => $Enum::$Variant {
                        $($field: sched_events!(@decode value $key $($default)?),)*
                    },)*
                    _ => return None,
                })
            }

            /// For each defaulted field: its wire key and this event with
            /// that field reset to the declared default.
            #[cfg(test)]
            fn with_defaults(&self) -> Vec<(&'static str, $Enum)> {
                let mut out = Vec::new();
                match self {$(
                    $Enum::$Variant { .. } => {$($(
                        let mut reset = self.clone();
                        if let $Enum::$Variant { $field, .. } = &mut reset {
                            *$field = $default;
                        }
                        out.push(($key, reset));
                    )?)*}
                )*}
                out
            }
        }
    };
    (@decode $value:ident $key:literal) => { field($value, $key)? };
    (@decode $value:ident $key:literal $default:expr) => { field_or($value, $key, || $default) };
}

sched_events! {
/// One scheduler telemetry event. All events carry the synchronization
/// epoch they belong to; timestamps are virtual (engine) time.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedEvent {
    /// A scheduling pass started over a non-empty queue pool.
    EpochBegin = "epoch_begin" {
        /// Scheduling epoch (1-based, per context).
        epoch: u64 => "epoch",
        /// Virtual time when the pass began.
        at: SimTime => "at_ns",
        /// Number of queues in the pool.
        pool: usize => "pool",
        /// The context's global policy (`AUTO_FIT` / `ROUND_ROBIN`).
        policy: String => "policy",
    },
    /// The dynamic profiler measured one kernel on every device.
    KernelProfiled = "kernel_profiled" {
        /// Scheduling epoch.
        epoch: u64 => "epoch",
        /// Kernel function name.
        kernel: String => "kernel",
        /// Whether the single-workgroup minikernel optimization ran.
        minikernel: bool => "minikernel",
        /// Estimated full execution time per device (device order).
        costs: Vec<SimDuration> => "costs_ns",
    },
    /// An epoch's cost vector was served from the profile caches.
    CacheHit = "cache_hit" {
        /// Scheduling epoch.
        epoch: u64 => "epoch",
        /// The epoch cache key (sorted multiset of kernel names).
        key: String => "key",
    },
    /// An epoch's cost vector required dynamic profiling.
    CacheMiss = "cache_miss" {
        /// Scheduling epoch.
        epoch: u64 => "epoch",
        /// The epoch cache key that missed.
        key: String => "key",
    },
    /// The AUTO_FIT mapper chose an assignment — the auditable explain
    /// record for the whole pool.
    MappingDecision = "mapping_decision" {
        /// Scheduling epoch.
        epoch: u64 => "epoch",
        /// Virtual time of the decision.
        at: SimTime => "at_ns",
        /// Mapping algorithm (`optimal` / `greedy` / `adaptive`).
        mapper: String => "mapper",
        /// Predicted concurrent completion time of the chosen assignment.
        makespan: SimDuration => "makespan_ns",
        /// Branch-and-bound nodes the mapper explored (0 for heuristics
        /// that do no tree search).
        nodes_explored: u64 => "nodes_explored" = 0,
        /// Whether the adaptive mapper's node budget tripped, making this
        /// a heuristic (greedy + local search) decision rather than a
        /// proven optimum.
        budget_tripped: bool => "budget_tripped" = false,
        /// *Host* wall-clock time the mapping computation took — the
        /// scheduler's own decision overhead. Unlike every other duration
        /// in the stream this is real time, not virtual engine time: the
        /// mapper runs on the host and charges nothing to the simulation.
        mapper_wall: SimDuration => "mapper_wall_ns" = SimDuration::ZERO,
        /// Per-queue explain records, pool order.
        queues: Vec<QueueDecision> => "queues",
    },
    /// A queue's device binding changed.
    QueueMigrated = "queue_migrated" {
        /// Scheduling epoch.
        epoch: u64 => "epoch",
        /// Stable queue id.
        queue: usize => "queue",
        /// Previous binding.
        from: DeviceId => "from",
        /// New binding.
        to: DeviceId => "to",
        /// Buffer bytes referenced by the pending epoch that were not yet
        /// resident on the destination (the data the move will migrate).
        bytes: u64 => "bytes",
        /// Virtual time of the rebind.
        at: SimTime => "at_ns",
    },
    /// The scheduling pass finished and the epoch's commands were flushed.
    EpochEnd = "epoch_end" {
        /// Scheduling epoch.
        epoch: u64 => "epoch",
        /// Virtual time when the pass finished issuing.
        at: SimTime => "at_ns",
        /// Virtual time the pass consumed (profiling + staging + issue).
        elapsed: SimDuration => "elapsed_ns",
        /// Of `elapsed`, the part spent obtaining cost vectors (dynamic
        /// kernel profiling and its data staging).
        profiling: SimDuration => "profiling_ns",
        /// Kernel launches flushed to devices this pass.
        kernels_issued: u64 => "kernels_issued",
        /// Host data-plane tasks (kernel bodies / transfers) still live
        /// when the pass finished issuing. Host-side, not virtual time.
        data_queue_depth: usize => "data_queue_depth" = 0,
        /// Peak concurrently-busy data-plane workers observed so far.
        data_peak_busy: usize => "data_peak_busy" = 0,
        /// Launches the out-of-order batch flush emitted at a different
        /// position than program order (0 when no queue is OOO-flagged).
        commands_reordered: u64 => "commands_reordered" = 0,
        /// Measured copy/compute lane overlap fraction per device (device
        /// order) over this epoch's flush window — overlapped busy time
        /// over the shorter lane's busy time; 0.0 where a device used at
        /// most one lane.
        lane_overlap: Vec<f64> => "lane_overlap" = vec![],
    },
    /// A tenant submitted a job to the serving layer.
    JobSubmitted = "job_submitted" {
        /// Scheduling epoch current at submission (0 before the first pass).
        epoch: u64 => "epoch",
        /// Tenant name.
        tenant: String => "tenant",
        /// Service-wide job id.
        job: u64 => "job",
        /// Virtual submission time.
        at: SimTime => "at_ns",
    },
    /// Admission control accepted a submitted job into its tenant queue.
    JobAdmitted = "job_admitted" {
        /// Scheduling epoch current at admission.
        epoch: u64 => "epoch",
        /// Tenant name.
        tenant: String => "tenant",
        /// Service-wide job id.
        job: u64 => "job",
        /// Tenant queue depth after admission.
        depth: usize => "depth",
        /// Virtual admission time.
        at: SimTime => "at_ns",
    },
    /// Admission control rejected a submitted job (backpressure).
    JobRejected = "job_rejected" {
        /// Scheduling epoch current at rejection.
        epoch: u64 => "epoch",
        /// Tenant name.
        tenant: String => "tenant",
        /// Service-wide job id.
        job: u64 => "job",
        /// Human-readable rejection reason (e.g. `queue_full`).
        reason: String => "reason",
        /// Virtual rejection time.
        at: SimTime => "at_ns",
    },
    /// The dispatcher drained an admitted job onto a scheduler queue.
    JobDispatched = "job_dispatched" {
        /// Scheduling epoch current at dispatch.
        epoch: u64 => "epoch",
        /// Tenant name.
        tenant: String => "tenant",
        /// Service-wide job id.
        job: u64 => "job",
        /// Stable id of the `SchedQueue` the job was placed on.
        queue: usize => "queue",
        /// Virtual dispatch time.
        at: SimTime => "at_ns",
    },
    /// All commands of a dispatched job finished on the devices.
    JobCompleted = "job_completed" {
        /// Scheduling epoch current at completion.
        epoch: u64 => "epoch",
        /// Tenant name.
        tenant: String => "tenant",
        /// Service-wide job id.
        job: u64 => "job",
        /// Submission-to-completion virtual latency.
        latency: SimDuration => "latency_ns",
        /// Virtual completion time.
        at: SimTime => "at_ns",
    },
    /// The scheduler detected a permanently lost device and blacklisted it.
    /// Emitted once per device, at the first epoch boundary after the loss.
    DeviceDown = "device_down" {
        /// Scheduling epoch that detected the loss.
        epoch: u64 => "epoch",
        /// The lost device.
        device: DeviceId => "device",
        /// Virtual time of detection (the loss itself may be earlier).
        at: SimTime => "at_ns",
    },
    /// A queue was evacuated off a failed device onto a healthy one —
    /// fault-driven recovery, as opposed to a cost-driven `QueueMigrated`.
    Remapped = "remapped" {
        /// Scheduling epoch of the recovery.
        epoch: u64 => "epoch",
        /// Stable queue id.
        queue: usize => "queue",
        /// The failed device the queue was bound to.
        from: DeviceId => "from",
        /// The healthy device it was moved to.
        to: DeviceId => "to",
        /// Buffer bytes the evacuation migrates (charged to the makespan
        /// through the normal migration-cost model).
        bytes: u64 => "bytes",
        /// Virtual time of the rebind.
        at: SimTime => "at_ns",
    },
    /// The serving layer gave up retrying a failed job.
    RetryExhausted = "retry_exhausted" {
        /// Scheduling epoch current at the final failure.
        epoch: u64 => "epoch",
        /// Tenant name.
        tenant: String => "tenant",
        /// Service-wide job id.
        job: u64 => "job",
        /// Attempts made (initial dispatch + retries).
        attempts: u64 => "attempts",
        /// Terminal failure reason (e.g. `CL_DEVICE_NOT_AVAILABLE`).
        reason: String => "reason",
        /// Virtual time the job was abandoned.
        at: SimTime => "at_ns",
    },
    /// A job reached its terminal outcome; the full causal span record.
    /// Emitted by the serving layer alongside `JobCompleted` /
    /// `RetryExhausted`, carrying the exact latency decomposition: the
    /// attempts' segments sum to `completed_at − submitted_at`.
    JobTrace = "job_trace" {
        /// Scheduling epoch current at the terminal outcome.
        epoch: u64 => "epoch",
        /// Tenant name.
        tenant: String => "tenant",
        /// Service-wide job id.
        job: u64 => "job",
        /// Virtual admission time (span start).
        submitted_at: SimTime => "submitted_at_ns",
        /// Virtual time of the terminal outcome (span end).
        completed_at: SimTime => "completed_at_ns",
        /// Terminal outcome: `completed`, `deadline_exceeded`,
        /// `retry_exhausted`, or `no_healthy_devices`.
        outcome: String => "outcome" = "unknown".into(),
        /// One record per dispatch attempt, in order.
        attempts: Vec<AttemptTrace> => "attempts" = vec![],
    },
    /// Predicted vs. executed makespan of one scheduling epoch: the
    /// mapper's objective against the critical path the simulator actually
    /// ran. Emitted when a prediction exists (always for AUTO_FIT; for
    /// ROUND_ROBIN once the profile caches cover the pool).
    MakespanAttribution = "makespan_attribution" {
        /// Scheduling epoch.
        epoch: u64 => "epoch",
        /// Virtual time the epoch finished executing.
        at: SimTime => "at_ns",
        /// The context's global policy (`AUTO_FIT` / `ROUND_ROBIN`).
        policy: String => "policy" = "".into(),
        /// The cost model's predicted concurrent completion time.
        predicted: SimDuration => "predicted_ns",
        /// Executed critical path: latest command end minus flush start.
        actual: SimDuration => "actual_ns",
    },
    /// A serving shard's node fell below the healthy-device threshold and
    /// the routing tier took it out of the consistent-hash ring; `at` is
    /// that shard's local virtual time. *Decode-only*: emitted by the
    /// cluster tier until PR 21; kept so recorded streams decode.
    ShardDegraded = "shard_degraded" {
        /// Scheduling epoch of the degraded shard's context at detection.
        epoch: u64 => "epoch",
        /// Fleet-wide shard (= node) index.
        shard: usize => "shard",
        /// Healthy devices remaining on the shard's node.
        healthy: usize => "healthy",
        /// Total devices of the shard's node.
        total: usize => "total",
        /// Shard-local virtual time of the detection.
        at: SimTime => "at_ns",
    },
    /// The routing tier moved a tenant off a degraded shard: future
    /// submissions re-route to the destination, the tenant's evicted
    /// backlog is re-admitted there, and the tenant's state transfer is
    /// charged to both endpoints at interconnect cost. *Decode-only*:
    /// emitted by the cluster tier until PR 21; kept so recorded streams
    /// decode.
    TenantMigrated = "tenant_migrated" {
        /// Scheduling epoch of the *destination* shard's context.
        epoch: u64 => "epoch",
        /// Tenant name.
        tenant: String => "tenant",
        /// The degraded shard the tenant left.
        from_shard: usize => "from_shard",
        /// The healthy shard now owning the tenant.
        to_shard: usize => "to_shard",
        /// Backlog jobs evicted from the source and re-submitted.
        jobs: u64 => "jobs" = 0,
        /// Tenant state bytes moved across the interconnect.
        bytes: u64 => "bytes" = 0,
        /// Virtual time the interconnect charged for the move.
        transfer: SimDuration => "transfer_ns" = SimDuration::ZERO,
        /// Destination-shard virtual time of the migration.
        at: SimTime => "at_ns",
    },
    /// A tenant's SLO burn rate crossed (or recovered from) an alert
    /// threshold on one multi-window rule. Emitted on transitions only.
    SloBurn = "slo_burn" {
        /// Scheduling epoch current at evaluation.
        epoch: u64 => "epoch",
        /// Tenant name.
        tenant: String => "tenant",
        /// Virtual evaluation time.
        at: SimTime => "at_ns",
        /// The long (sustained-burn) window.
        long_window: SimDuration => "long_window_ns" = SimDuration::ZERO,
        /// The short (still-burning guard) window.
        short_window: SimDuration => "short_window_ns" = SimDuration::ZERO,
        /// Error-budget burn rate over the long window (1.0 = budget
        /// consumed exactly at the sustainable rate).
        long_burn: f64 => "long_burn" = 0.0,
        /// Burn rate over the short window.
        short_burn: f64 => "short_burn" = 0.0,
        /// The rule's burn-rate threshold.
        threshold: f64 => "threshold" = 0.0,
        /// True when the alert fired, false when it cleared.
        fired: bool => "fired" = false,
    },
    /// The predictive cost model served a cold kernel's per-device cost row
    /// from its regression, bypassing the §V-C profiling pass entirely.
    CostPredicted = "cost_predicted" {
        /// Scheduling epoch of the prediction.
        epoch: u64 => "epoch",
        /// Kernel name (the key the row is cached under).
        kernel: String => "kernel",
        /// Predicted full-execution time per device (device order), before
        /// the mapper-facing uncertainty margin is applied.
        costs: Vec<SimDuration> => "costs_ns" = vec![],
        /// Worst per-device predictive relative-error bound (standard
        /// deviation of the log-space residual) that passed the gate.
        uncertainty: f64 => "uncertainty" = 0.0,
        /// Fewest training samples backing any device's prediction.
        samples: u64 => "samples" = 0,
    },
    /// An executed kernel's measured duration was folded back into the
    /// predictor; reports the model's error on that kernel *before* the
    /// update, so the event stream carries a predicted-vs-actual series.
    PredictorRefined = "predictor_refined" {
        /// Scheduling epoch whose flush produced the observation.
        epoch: u64 => "epoch",
        /// Kernel name.
        kernel: String => "kernel",
        /// Device the kernel actually executed on.
        device: DeviceId => "device" = DeviceId(0),
        /// What the model would have predicted before this observation.
        predicted: SimDuration => "predicted_ns" = SimDuration::ZERO,
        /// Measured execution time (mean over the epoch's launches).
        actual: SimDuration => "actual_ns" = SimDuration::ZERO,
        /// `|predicted − actual| / actual`.
        rel_error: f64 => "rel_error" = 0.0,
        /// Training samples for this device's model after the update.
        samples: u64 => "samples" = 0,
    },
    /// The predictor declined a cold kernel (untrained, or over the
    /// confidence gate) and the scheduler fell back to minikernel
    /// profiling — the provable-fallback half of the confidence gate.
    PredictorFallback = "predictor_fallback" {
        /// Scheduling epoch of the declined prediction.
        epoch: u64 => "epoch",
        /// Kernel name.
        kernel: String => "kernel",
        /// Why the prediction was declined: `"untrained"` or
        /// `"low_confidence"`.
        reason: String => "reason" = "untrained".into(),
        /// The gate-failing uncertainty (0 when untrained).
        uncertainty: f64 => "uncertainty" = 0.0,
    },
    /// A splittable kernel launch (`SCHED_SPLITTABLE`) was partitioned into
    /// contiguous NDRange sub-ranges executed concurrently across devices.
    KernelSplit = "kernel_split" {
        /// Scheduling epoch of the split.
        epoch: u64 => "epoch",
        /// Stable id of the queue whose launch was split.
        queue: usize => "queue" = 0,
        /// Kernel function name.
        kernel: String => "kernel",
        /// Partitioner that produced the chunks: always `static` since
        /// PR 25; streams recorded before it may hold `chunked` /
        /// `hguided`.
        partitioner: String => "partitioner" = "static".into(),
        /// Split units (workgroup slabs along the split axis) in the launch.
        total_wgs: u64 => "total_wgs" = 0,
        /// Contiguous chunks produced.
        chunks: u64 => "chunks" = 0,
        /// Split units executed per device (device order; sums to
        /// `total_wgs`).
        wgs_per_device: Vec<u64> => "wgs_per_device" = vec![],
        /// Virtual time of the split decision.
        at: SimTime => "at_ns" = SimTime::ZERO,
    },
    /// Decode-only: the split work-stealing assigner (deleted in PR 25)
    /// moved a chunk off its preferred device. Nothing emits it now; it
    /// stays so recorded streams still decode.
    ChunkStolen = "chunk_stolen" {
        /// Scheduling epoch of the steal.
        epoch: u64 => "epoch",
        /// Kernel function name.
        kernel: String => "kernel",
        /// Chunk index within the split launch.
        chunk: u64 => "chunk" = 0,
        /// First split unit of the stolen chunk.
        wg_offset: u64 => "wg_offset" = 0,
        /// Split units in the stolen chunk.
        wg_count: u64 => "wg_count" = 0,
        /// The device the partitioner intended the chunk for.
        from: DeviceId => "from" = DeviceId(0),
        /// The device that actually executed it.
        to: DeviceId => "to" = DeviceId(0),
        /// Virtual time of the steal.
        at: SimTime => "at_ns" = SimTime::ZERO,
    },
}
}

impl SchedEvent {
    /// The event as a [`Json`] tree, for tools that inspect members: the
    /// parse of what [`Self::write_json`] streams, so the two cannot drift.
    pub fn to_json(&self) -> Json {
        let mut text = String::new();
        self.write_json(&mut text);
        Json::parse(&text).expect("write_json emits one valid JSON object")
    }
}

/// One sample event per [`SchedEvent`] variant, with adversarial strings
/// (quotes, newlines) where the codec must escape. Shared by the codec
/// round-trip test here and the JSONL sink round-trip test, so new variants
/// are automatically exercised on both paths.
#[cfg(test)]
pub(crate) fn sample_events() -> Vec<SchedEvent> {
    use crate::telemetry::tracing::{SegmentKind, SegmentSet, SpanId};
    let ns = SimDuration::from_nanos;
    let mut segments = SegmentSet::zero();
    segments.add(SegmentKind::AdmissionWait, ns(500));
    segments.add(SegmentKind::Compute, ns(11_845));
    let events = vec![
        SchedEvent::EpochBegin {
            epoch: 1,
            at: SimTime::from_nanos(100),
            pool: 2,
            policy: "AUTO_FIT".into(),
        },
        SchedEvent::CacheMiss { epoch: 1, key: "a+b".into() },
        SchedEvent::KernelProfiled {
            epoch: 1,
            kernel: "k \"quoted\"\n".into(),
            minikernel: true,
            costs: vec![ns(10), ns(20), ns(30)],
        },
        SchedEvent::MappingDecision {
            epoch: 1,
            at: SimTime::from_nanos(500),
            mapper: "adaptive".into(),
            makespan: ns(42),
            nodes_explored: 137,
            budget_tripped: true,
            mapper_wall: ns(2_500),
            queues: vec![QueueDecision {
                queue: 0,
                exec_estimates: vec![ns(5), ns(9)],
                migration_costs: vec![ns(1), ns(0)],
                overlap_estimates: vec![ns(4), ns(7)],
                chosen: DeviceId(0),
                previous: DeviceId(1),
            }],
        },
        SchedEvent::QueueMigrated {
            epoch: 1,
            queue: 0,
            from: DeviceId(1),
            to: DeviceId(0),
            bytes: 4096,
            at: SimTime::from_nanos(501),
        },
        SchedEvent::CacheHit { epoch: 2, key: "a+b".into() },
        SchedEvent::EpochEnd {
            epoch: 1,
            at: SimTime::from_nanos(900),
            elapsed: ns(800),
            profiling: ns(600),
            kernels_issued: 3,
            data_queue_depth: 5,
            data_peak_busy: 2,
            commands_reordered: 2,
            lane_overlap: vec![0.5, 0.0],
        },
        SchedEvent::JobSubmitted {
            epoch: 2,
            tenant: "tenant \"zero\"".into(),
            job: 7,
            at: SimTime::from_nanos(1000),
        },
        SchedEvent::JobAdmitted {
            epoch: 2,
            tenant: "t0".into(),
            job: 7,
            depth: 3,
            at: SimTime::from_nanos(1001),
        },
        SchedEvent::JobRejected {
            epoch: 2,
            tenant: "t1".into(),
            job: 8,
            reason: "queue_full depth=4/4\n".into(),
            at: SimTime::from_nanos(1002),
        },
        SchedEvent::JobDispatched {
            epoch: 3,
            tenant: "t0".into(),
            job: 7,
            queue: 5,
            at: SimTime::from_nanos(1500),
        },
        SchedEvent::JobCompleted {
            epoch: 3,
            tenant: "t0".into(),
            job: 7,
            latency: ns(12_345),
            at: SimTime::from_nanos(13_345),
        },
        SchedEvent::DeviceDown { epoch: 4, device: DeviceId(1), at: SimTime::from_nanos(20_000) },
        SchedEvent::Remapped {
            epoch: 4,
            queue: 5,
            from: DeviceId(1),
            to: DeviceId(2),
            bytes: 8192,
            at: SimTime::from_nanos(20_001),
        },
        SchedEvent::RetryExhausted {
            epoch: 5,
            tenant: "t1 \"quoted\"".into(),
            job: 8,
            attempts: 3,
            reason: "CL_DEVICE_NOT_AVAILABLE: device 1 lost\n".into(),
            at: SimTime::from_nanos(30_000),
        },
        SchedEvent::JobTrace {
            epoch: 5,
            tenant: "t \"traced\"\n".into(),
            job: 7,
            submitted_at: SimTime::from_nanos(1_000),
            completed_at: SimTime::from_nanos(13_345),
            outcome: "completed".into(),
            attempts: vec![
                AttemptTrace {
                    span: SpanId { job: 7, attempt: 0 },
                    queue: Some(5),
                    device: Some(1),
                    epoch: 3,
                    dispatched_at: SimTime::from_nanos(1_500),
                    ended_at: SimTime::from_nanos(13_345),
                    segments,
                },
                AttemptTrace {
                    span: SpanId { job: 7, attempt: 1 },
                    queue: None,
                    device: None,
                    epoch: 4,
                    dispatched_at: SimTime::from_nanos(13_345),
                    ended_at: SimTime::from_nanos(13_345),
                    segments: Default::default(),
                },
            ],
        },
        SchedEvent::MakespanAttribution {
            epoch: 3,
            at: SimTime::from_nanos(14_000),
            policy: "AUTO_FIT".into(),
            predicted: ns(10_000),
            actual: ns(11_500),
        },
        SchedEvent::ShardDegraded {
            epoch: 6,
            shard: 2,
            healthy: 1,
            total: 3,
            at: SimTime::from_nanos(40_000),
        },
        SchedEvent::TenantMigrated {
            epoch: 7,
            tenant: "t \"migrant\"\n".into(),
            from_shard: 2,
            to_shard: 0,
            jobs: 4,
            bytes: 64 << 20,
            transfer: SimDuration::from_micros(21_000),
            at: SimTime::from_nanos(40_500),
        },
        SchedEvent::SloBurn {
            epoch: 5,
            tenant: "t \"slo\"\n".into(),
            at: SimTime::from_nanos(31_000),
            long_window: SimDuration::from_millis(50),
            short_window: SimDuration::from_millis(5),
            long_burn: 14.5,
            short_burn: 20.25,
            threshold: 14.0,
            fired: true,
        },
        SchedEvent::CostPredicted {
            epoch: 8,
            kernel: "k \"cold\"\n".into(),
            costs: vec![ns(1_200), ns(3_400), ns(5_600)],
            uncertainty: 0.07,
            samples: 24,
        },
        SchedEvent::PredictorRefined {
            epoch: 8,
            kernel: "k \"cold\"\n".into(),
            device: DeviceId(1),
            predicted: ns(3_400),
            actual: ns(3_100),
            rel_error: 0.0968,
            samples: 25,
        },
        SchedEvent::PredictorFallback {
            epoch: 9,
            kernel: "k \"odd\"\n".into(),
            reason: "low_confidence".into(),
            uncertainty: 0.83,
        },
        SchedEvent::KernelSplit {
            epoch: 10,
            queue: 2,
            kernel: "k \"split\"\n".into(),
            partitioner: "static".into(),
            total_wgs: 256,
            chunks: 3,
            wgs_per_device: vec![96, 160, 0],
            at: SimTime::from_nanos(50_000),
        },
        SchedEvent::ChunkStolen {
            epoch: 10,
            kernel: "k \"split\"\n".into(),
            chunk: 2,
            wg_offset: 192,
            wg_count: 64,
            from: DeviceId(2),
            to: DeviceId(1),
            at: SimTime::from_nanos(50_001),
        },
    ];
    // Exhaustiveness guard: a sample for every kind the table declares.
    for kind in SchedEvent::KINDS {
        assert!(events.iter().any(|e| e.kind() == *kind), "sample_events lacks a {kind} sample");
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::sink::{parse_jsonl, to_jsonl};

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_nanos(v)
    }

    #[test]
    fn every_event_roundtrips_through_json() {
        for ev in sample_events() {
            let mut text = String::new();
            ev.write_json(&mut text);
            let tree = Json::parse(&text).unwrap_or_else(|| panic!("invalid JSON: {text}"));
            assert_eq!(SchedEvent::from_json(&tree), Some(ev.clone()), "decode of {text}");
            // The tool path is the same bytes: dumping the tree gives the
            // stream back, key order and number formatting included.
            assert_eq!(ev.to_json(), tree);
            assert_eq!(ev.to_json().dump(), text);
        }
    }

    #[test]
    fn encoder_reproduces_the_v1_golden_stream_byte_for_byte() {
        // Written by the hand-rolled per-variant codec the table replaced
        // (`to_json().dump()` over `sample_events()` at PR 12, when
        // `to_json` built a tree): key order and number formatting are part
        // of the wire contract.
        let golden = include_str!("../../tests/fixtures/events_v1.jsonl");
        assert_eq!(to_jsonl(&sample_events()), golden);
        assert_eq!(parse_jsonl(golden), Some(sample_events()));
    }

    #[test]
    fn stripping_a_defaulted_key_decodes_to_the_declared_default() {
        let mut covered = 0;
        for ev in sample_events() {
            for (key, expected) in ev.with_defaults() {
                let Json::Obj(mut members) = ev.to_json() else { panic!("events are objects") };
                members.retain(|(k, _)| k != key);
                let decoded = SchedEvent::from_json(&Json::Obj(members));
                assert_eq!(decoded, Some(expected), "{} without {key:?}", ev.kind());
                covered += 1;
            }
        }
        // with_defaults() lists every `= default` of the event's variant and
        // sample_events() has every kind, so the whole table is covered.
        assert!(covered > 0);
    }

    /// What each line of `fixtures/events_legacy.jsonl` (file order) must
    /// decode to, as members of the re-encoded event: the defaults for the
    /// keys its era could not write, plus the fields the pre-table tests
    /// pinned alongside them.
    const LEGACY_EXPECTED: [&str; 12] = [
        // Pre-mapper-effort mapping_decision (before PR 3).
        r#"{"nodes_explored":0,"budget_tripped":false,"mapper_wall_ns":0}"#,
        // Pre-data-plane / pre-OOO epoch_end, and a queue entry without
        // `overlap_ns` (before PR 9).
        r#"{"data_queue_depth":0,"data_peak_busy":0,"commands_reordered":0,"lane_overlap":[]}"#,
        r#"{"queues":[{"queue":0,"exec_ns":[5,9],"migration_ns":[1,0],"overlap_ns":[],"chosen":0,"previous":1}]}"#,
        // Trimmed PR 6 records: job_trace, slo_burn, makespan_attribution.
        r#"{"outcome":"unknown","attempts":[]}"#,
        r#"{"long_window_ns":0,"short_window_ns":0,"long_burn":0,"short_burn":0,"threshold":0,"fired":false}"#,
        r#"{"policy":"","predicted_ns":10,"actual_ns":12}"#,
        // PR 7 tenant_migrated trimmed to the routing decision.
        r#"{"from_shard":2,"to_shard":0,"jobs":0,"bytes":0,"transfer_ns":0}"#,
        // PR 8 predictor and PR 10 split events: only the kernel is required.
        r#"{"costs_ns":[],"uncertainty":0,"samples":0}"#,
        r#"{"device":0,"predicted_ns":0,"actual_ns":0,"rel_error":0,"samples":0}"#,
        r#"{"reason":"untrained","uncertainty":0}"#,
        r#"{"queue":0,"partitioner":"static","total_wgs":0,"chunks":0,"wgs_per_device":[],"at_ns":0}"#,
        r#"{"chunk":0,"wg_offset":0,"wg_count":0,"from":0,"to":0,"at_ns":0}"#,
    ];

    #[test]
    fn legacy_streams_replay_strictly_with_their_eras_defaults() {
        let legacy = include_str!("../../tests/fixtures/events_legacy.jsonl");
        let events = parse_jsonl(legacy).expect("every legacy line decodes, none skipped");
        assert_eq!(events.len(), LEGACY_EXPECTED.len());
        for ((line, event), expected) in legacy.lines().zip(&events).zip(LEGACY_EXPECTED) {
            let Some(Json::Obj(expected)) = Json::parse(expected) else { panic!("{expected}") };
            let encoded = event.to_json();
            for (key, value) in &expected {
                assert_eq!(encoded.get(key), Some(value), "{key} of {line}");
            }
        }
        // With no overlap estimate the totals fall back to exec + migration.
        let SchedEvent::MappingDecision { queues, .. } = &events[2] else { panic!("line 3") };
        assert_eq!(queues[0].total(DeviceId(0)), ns(6));
    }

    #[test]
    fn unknown_type_is_rejected() {
        let v = Json::parse(r#"{"type":"warp_drive","epoch":1}"#).unwrap();
        assert_eq!(SchedEvent::from_json(&v), None);
    }

    #[test]
    fn decision_totals_and_argmin() {
        let d = QueueDecision {
            queue: 3,
            exec_estimates: vec![ns(100), ns(50), ns(70)],
            migration_costs: vec![ns(0), ns(60), ns(10)],
            overlap_estimates: vec![],
            chosen: DeviceId(2),
            previous: DeviceId(0),
        };
        assert_eq!(d.total(DeviceId(0)), ns(100));
        assert_eq!(d.total(DeviceId(1)), ns(110));
        assert_eq!(d.total(DeviceId(2)), ns(80));
        assert_eq!(d.argmin_total(), DeviceId(2));
    }

    #[test]
    fn decision_totals_prefer_overlap_estimates_when_present() {
        let d = QueueDecision {
            queue: 3,
            exec_estimates: vec![ns(100), ns(50)],
            migration_costs: vec![ns(0), ns(60)],
            overlap_estimates: vec![ns(90), ns(80)],
            chosen: DeviceId(1),
            previous: DeviceId(0),
        };
        assert_eq!(d.total(DeviceId(0)), ns(90));
        assert_eq!(d.total(DeviceId(1)), ns(80));
        assert_eq!(d.argmin_total(), DeviceId(1));
    }
}
