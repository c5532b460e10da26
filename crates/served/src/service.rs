//! The job service: multi-tenant ingestion in front of a shared
//! [`MulticlContext`].
//!
//! Submissions go through per-tenant admission control
//! ([`Served::submit`]); admitted jobs wait in bounded tenant queues until
//! a dispatch round ([`Served::dispatch_round`]) drains them — weighted
//! round-robin across tenants — onto the service's pool of worker
//! [`SchedQueue`]s. The round ends with one context-wide synchronization,
//! which is exactly a MultiCL scheduling epoch: under `AUTO_FIT` the mapper
//! load-balances the *mixture* of tenants' kernels across devices each
//! round.
//!
//! Every lifecycle transition emits a [`SchedEvent`] job variant through
//! the context's observer stream, interleaved with the scheduler's own
//! epoch events, so one JSONL sink captures the full picture.

use crate::metrics::ServiceMetrics;
use crate::slo::{SloConfig, SloTracker};
use crate::spec::{JobSpec, KernelSpec, StepOp};
use crate::tenant::{PendingJob, RejectReason, TenantConfig, TenantState};
use clrt::error::ClResult;
use clrt::{ArgValue, KernelBody, KernelCtx, NdRange, Platform};
use hwsim::sync::Mutex;
use hwsim::{CommandKind, KernelCostSpec, SimDuration, SimTime, TransferKind};
use multicl::profile::{DeviceProfile, ProfileCache};
use multicl::telemetry::{SchedEvent, SchedObserver, SegmentKind, SpanSlice, TraceContext};
use multicl::{ContextSchedPolicy, MulticlContext, QueueSchedFlags, SchedOptions, SchedQueue};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Scheduling policy of the service backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePolicy {
    /// MultiCL `AUTO_FIT`: per-epoch makespan-optimal queue→device mapping.
    AutoFit,
    /// MultiCL `ROUND_ROBIN`: each worker queue bound once, round-robin.
    RoundRobin,
    /// `SCHED_OFF`: workers statically bound round-robin at creation —
    /// stock-OpenCL behaviour, the no-scheduler baseline.
    Off,
}

impl ServePolicy {
    /// Parse a CLI spelling (`auto_fit`, `round_robin`, `off`, ...).
    pub fn parse(s: &str) -> Option<ServePolicy> {
        match s.to_ascii_lowercase().as_str() {
            "auto_fit" | "autofit" | "auto" => Some(ServePolicy::AutoFit),
            "round_robin" | "roundrobin" | "rr" => Some(ServePolicy::RoundRobin),
            "off" | "sched_off" | "none" => Some(ServePolicy::Off),
            _ => None,
        }
    }

    /// Stable lowercase label (file names, reports).
    pub fn label(self) -> &'static str {
        match self {
            ServePolicy::AutoFit => "auto_fit",
            ServePolicy::RoundRobin => "round_robin",
            ServePolicy::Off => "sched_off",
        }
    }
}

impl std::fmt::Display for ServePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Retry policy for jobs whose dispatch ends in a device failure:
/// capped exponential backoff, bounded attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total dispatches allowed per job (first try included). A job whose
    /// `max_attempts`-th dispatch fails is abandoned with
    /// [`FailReason::RetryExhausted`].
    pub max_attempts: u32,
    /// Backoff before retry 1 (doubles each further retry).
    pub backoff_base: SimDuration,
    /// Upper bound on any single backoff.
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: SimDuration::from_millis(1),
            backoff_cap: SimDuration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Backoff after the `attempts`-th failed dispatch:
    /// `base * 2^(attempts-1)`, capped.
    pub fn backoff_after(&self, attempts: u32) -> SimDuration {
        let shift = attempts.saturating_sub(1).min(20);
        let backoff = self.backoff_base * (1u64 << shift);
        if backoff > self.backoff_cap {
            self.backoff_cap
        } else {
            backoff
        }
    }
}

/// Configuration of a [`Served`] instance.
pub struct ServiceConfig {
    /// Backend scheduling policy.
    pub policy: ServePolicy,
    /// Worker queue pool size (dispatch slots per round).
    pub workers: usize,
    /// The tenants, in stable order (their index is the submission handle).
    pub tenants: Vec<TenantConfig>,
    /// Scheduler options for the underlying context (profile cache,
    /// observers, ...).
    pub options: SchedOptions,
    /// Retry policy for fault-failed dispatches.
    pub retry: RetryPolicy,
    /// Per-tenant latency SLO with burn-rate alerting; `None` disables SLO
    /// monitoring entirely.
    pub slo: Option<SloConfig>,
}

impl ServiceConfig {
    /// A config with serving-default scheduler options: the adaptive mapper,
    /// so a mapping decision over a large worker pool stays within the node
    /// budget instead of searching a `D^Q` space exactly. SLO monitoring is
    /// on by default with the paired fast/slow burn alerts.
    pub fn new(policy: ServePolicy, workers: usize, tenants: Vec<TenantConfig>) -> ServiceConfig {
        let options =
            SchedOptions { mapper: multicl::MapperKind::Adaptive, ..SchedOptions::default() };
        ServiceConfig {
            policy,
            workers,
            tenants,
            options,
            retry: RetryPolicy::default(),
            slo: Some(SloConfig::default()),
        }
    }
}

/// Internal observer capturing the scheduler's per-epoch profiling windows
/// on the virtual timeline — the trace attribution needs them to split
/// dispatch-window gaps into profiling time vs. plain queueing.
#[derive(Default)]
struct EpochTap {
    begin: Mutex<Option<SimTime>>,
    windows: Mutex<Vec<(SimTime, SimTime)>>,
}

impl EpochTap {
    fn window_count(&self) -> usize {
        self.windows.lock().len()
    }

    fn windows_since(&self, mark: usize) -> Vec<(SimTime, SimTime)> {
        let windows = self.windows.lock();
        windows[mark.min(windows.len())..].to_vec()
    }
}

impl SchedObserver for EpochTap {
    fn on_event(&self, event: &SchedEvent) {
        match event {
            SchedEvent::EpochBegin { at, .. } => *self.begin.lock() = Some(*at),
            SchedEvent::EpochEnd { profiling, .. } => {
                if let Some(begin) = self.begin.lock().take() {
                    if !profiling.is_zero() {
                        self.windows.lock().push((begin, begin + *profiling));
                    }
                }
            }
            _ => {}
        }
    }
}

/// Scheduler options whose device profile is pre-measured on a *scratch*
/// platform (same node config) and stored in a cache at `dir`, so creating
/// the serving context never charges device-profiling time to the serving
/// clock. This makes the virtual timeline identical across runs whether or
/// not a cache already existed — the property the deterministic load
/// generator relies on. Like [`ServiceConfig::new`], serving uses the
/// adaptive mapper (the decision itself is host time, not virtual time,
/// but pools are large enough that an unbounded exact search would be the
/// scheduler's real-world bottleneck).
pub fn warmed_options(platform: &Platform, dir: impl Into<PathBuf>) -> SchedOptions {
    let cache = ProfileCache::at(dir);
    let fingerprint = platform.node().fingerprint();
    if cache.load(&fingerprint).is_none() {
        let scratch = Platform::new(platform.node().clone());
        let profile = DeviceProfile::measure(&scratch);
        let _ = cache.store(&profile);
    }
    SchedOptions {
        profile_cache: cache,
        mapper: multicl::MapperKind::Adaptive,
        // Serving opts into feature-based cost prediction so templates the
        // model is confident about never pay a profiling epoch — the
        // cold-start path `warm_programs` would otherwise hide behind
        // throwaway jobs. `predictor_persist` stays `false`: the load
        // generator compares same-seed runs byte-for-byte, and a model
        // persisted by run 1 would make run 2 start trained.
        predictor_confidence: multicl::DEFAULT_PREDICTOR_CONFIDENCE,
        ..SchedOptions::default()
    }
}

/// A kernel body synthesized from a [`JobSpec`] kernel declaration: the
/// cost plane comes from the spec; the data plane performs real host
/// computation and declares device time, both proportional to the spec's
/// nominal flop count, so buffer residency behaves exactly as for
/// hand-written kernels *and* a served job costs the wall-clock time its
/// commands occupy their devices.
struct SpecKernel {
    name: String,
    arity: usize,
    cost: KernelCostSpec,
}

impl KernelBody for SpecKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn cost(&self) -> KernelCostSpec {
        self.cost
    }

    /// A sub-range launch does its share of everything below — prep steps
    /// and device time are proportional to *its* item count, read from its
    /// own offset on — and folds it into the first element it owns.
    fn splittable(&self) -> bool {
        true
    }

    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        if self.arity == 0 {
            return;
        }
        let items = ctx.nd().global_items();
        let offset = ctx.global_offset()[0];
        let data = ctx.slice_mut::<f64>(0);
        if data.is_empty() {
            return;
        }
        // Host-side prep: a deterministic FMA chain over the pre-launch
        // contents. One element is written, at the end — `data[0]` by a
        // whole launch — so the result is a pure function of the inputs
        // (and, for a split launch, of its chunk plan: the chunks' write
        // hazard runs them in issue order) — identical for any worker
        // count.
        let flops = self.cost.flops_per_item.max(1.0) * items as f64;
        let steps = (flops / 512.0) as u64;
        let len = data.len();
        let first = (offset % len as u64) as usize;
        let mut acc = 1.0f64;
        for i in 0..steps {
            acc = acc.mul_add(0.999_999_9, data[(first + i as usize) % len] * 1e-6);
        }
        data[first] += acc;
        // Device-latency stand-in: the launch occupies its device for a
        // time proportional to the kernel's nominal flop count — a 128 ns
        // kernel for 128 ns, not a timer tick. Declared, not sat through:
        // the data plane keeps the command incomplete until the time has
        // passed (`clrt::KernelCtx::occupy_device`) while this thread and
        // the buffer go free, so commands of independent queues overlap
        // their device time whatever the worker count. Declaring never
        // touches buffer data, so worker-count invariance is unaffected.
        // (Debug builds declare ~17x less — dev test suites should not pay
        // bench-grade load.)
        let ns_per_flop = if cfg!(debug_assertions) { 0.015 } else { 0.25 };
        ctx.occupy_device(Duration::from_nanos((flops * ns_per_flop) as u64));
    }
}

/// One entry of the service's program cache: the kernel declarations a
/// program was built from, each kernel's arity, and the program.
struct BuiltProgram {
    kernels: Vec<KernelSpec>,
    arities: Vec<usize>,
    program: clrt::Program,
}

/// Why a dispatched job terminally failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailReason {
    /// The deadline passed before the job could finish.
    DeadlineExceeded,
    /// Every allowed dispatch ended in a device failure.
    RetryExhausted {
        /// Dispatches attempted (== the policy's `max_attempts`).
        attempts: u32,
        /// The fault kind of the last failed dispatch.
        last_error: String,
    },
    /// No healthy device remained to run the job on.
    NoHealthyDevices,
    /// The runtime refused part of the job's command stream at dispatch
    /// (the `ClError` text). Admission screens out every cause a spec is
    /// known to reach; this keeps "one terminal outcome per admitted job"
    /// true for any it does not.
    IssueError(String),
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailReason::DeadlineExceeded => f.write_str("deadline_exceeded"),
            FailReason::RetryExhausted { attempts, last_error } => {
                write!(f, "retry_exhausted after {attempts} attempt(s): {last_error}")
            }
            FailReason::NoHealthyDevices => f.write_str("no_healthy_devices"),
            FailReason::IssueError(e) => write!(f, "issue_error: {e}"),
        }
    }
}

/// Terminal state of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobResult {
    /// The job's command stream executed cleanly.
    Completed,
    /// The job was abandoned.
    Failed(FailReason),
}

/// The record of one finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Service-wide job id.
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Virtual submission time.
    pub submitted_at: SimTime,
    /// Virtual completion time (last device command of the job).
    pub completed_at: SimTime,
    /// Submission-to-completion latency.
    pub latency: SimDuration,
    /// How the job ended.
    pub result: JobResult,
}

/// The multi-tenant job service. See the module docs for the data flow.
///
/// `Served` is `Sync`: submissions may come from many threads concurrently
/// (admission control is per-tenant locking); dispatch rounds serialize on
/// the scheduler's own pass lock. Deterministic single-threaded driving —
/// what the load generator does — is a special case.
pub struct Served {
    platform: Platform,
    ctx: MulticlContext,
    /// One scheduler queue per dispatch slot. A job's execution modes
    /// (`out_of_order`, `splittable`) travel with it: [`Self::issue_job`]
    /// sets them as the slot queue's hints for the job's epoch.
    workers: Vec<SchedQueue>,
    tenants: Vec<TenantState>,
    metrics: ServiceMetrics,
    retry: RetryPolicy,
    /// Profiling-window recorder attached to the context's observer list.
    tap: Arc<EpochTap>,
    /// SLO burn-rate state (`None` when monitoring is disabled).
    slo: Option<Mutex<SloTracker>>,
    next_job: AtomicU64,
    /// Rotates which tenant a round's weighted sweep starts at, so equal
    /// weights get equal long-run shares.
    rr_start: AtomicUsize,
    /// Built programs, keyed by the kernel declarations themselves.
    /// `clBuildProgram` charges real host time (doubled by MultiCL's
    /// minikernel pass), so the service compiles each job template once and
    /// reuses the program — what any production OpenCL service does. A
    /// service holds a handful of templates, so the per-job look-up is a
    /// linear `==` probe that allocates nothing.
    programs: Mutex<Vec<BuiltProgram>>,
    /// Virtual time at which the service finished start-up (program
    /// warm-up); throughput should be measured from here.
    serving_since: Mutex<SimTime>,
    /// Host wall-clock instant matching [`Self::serving_since`] (`None`
    /// until warm-up finishes). Basis for wall-clock throughput, which —
    /// unlike everything virtual — depends on the data-plane worker count.
    wall_serving_since: Mutex<Option<std::time::Instant>>,
    outcomes: Mutex<Vec<JobOutcome>>,
}

impl Served {
    /// Build the service: one shared context, `workers` scheduler queues.
    pub fn new(platform: &Platform, config: ServiceConfig) -> ClResult<Served> {
        let ServiceConfig { policy, workers, tenants, mut options, retry, slo } = config;
        let ctx_policy = match policy {
            ServePolicy::AutoFit => ContextSchedPolicy::AutoFit,
            _ => ContextSchedPolicy::RoundRobin,
        };
        let tap = Arc::new(EpochTap::default());
        options.observers.push(tap.clone());
        let slo = slo.map(|c| Mutex::new(SloTracker::new(c, tenants.len())));
        let ctx = MulticlContext::with_options(platform, ctx_policy, options)?;
        let devices = ctx.cl().devices().to_vec();
        let workers = (0..workers.max(1))
            .map(|i| match policy {
                ServePolicy::Off => ctx.create_queue_on(devices[i % devices.len()]),
                _ => ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC),
            })
            .collect::<ClResult<Vec<_>>>()?;
        let names: Vec<String> = tenants.iter().map(|t| t.name.clone()).collect();
        Ok(Served {
            platform: platform.clone(),
            ctx,
            workers,
            tenants: tenants.into_iter().map(TenantState::new).collect(),
            metrics: ServiceMetrics::new(&names),
            retry,
            tap,
            slo,
            next_job: AtomicU64::new(1),
            rr_start: AtomicUsize::new(0),
            programs: Mutex::new(Vec::new()),
            serving_since: Mutex::new(SimTime::ZERO),
            wall_serving_since: Mutex::new(None),
            outcomes: Mutex::new(Vec::new()),
        })
    }

    /// The underlying scheduling context (observers, stats, policy).
    pub fn context(&self) -> &MulticlContext {
        &self.ctx
    }

    /// The service metric set.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// Number of tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Name of tenant `i`.
    pub fn tenant_name(&self, i: usize) -> &str {
        &self.tenants[i].config.name
    }

    /// Number of worker queues (dispatch slots per round).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Current device binding of each worker queue (updated by the
    /// scheduler at epoch boundaries — including fault evacuations).
    pub fn worker_devices(&self) -> Vec<hwsim::DeviceId> {
        self.workers.iter().map(SchedQueue::device).collect()
    }

    /// Earliest virtual time at which any tenant's front job becomes
    /// dispatchable (`None` when every queue is empty). Past this instant
    /// at least one job escapes its retry backoff window.
    pub fn next_ready_at(&self) -> Option<SimTime> {
        self.tenants.iter().filter_map(|t| t.queue.lock().front().map(|j| j.not_before)).min()
    }

    /// Host threads executing kernel bodies and transfers (the runtime's
    /// data plane). Affects wall-clock throughput only, never virtual time.
    pub fn data_plane_workers(&self) -> usize {
        self.platform.data_plane_workers()
    }

    /// Snapshot of the runtime's data-plane executor counters.
    pub fn data_plane_stats(&self) -> clrt::DataPlaneStats {
        self.platform.data_plane_stats()
    }

    /// Host wall-clock time since start-up finished (`None` before any
    /// [`Self::warm_programs`] call).
    pub fn wall_elapsed(&self) -> Option<std::time::Duration> {
        self.wall_serving_since.lock().map(|t| t.elapsed())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.platform.now()
    }

    /// Advance the virtual clock to `t` (idle host time). No-op if `t` is
    /// in the past. The load generator uses this to jump to the next
    /// arrival when the service is idle.
    pub fn advance_to(&self, t: SimTime) {
        let now = self.platform.now();
        let gap = t.saturating_since(now);
        if !gap.is_zero() {
            self.platform.with_engine(|e| e.host_busy(gap));
        }
    }

    /// Total admitted-but-undispatched jobs across tenants.
    pub fn backlog(&self) -> usize {
        self.tenants.iter().map(TenantState::depth).sum()
    }

    /// Rounds in which tenant `i` had backlog but received no slot.
    pub fn starvation_rounds(&self, tenant: usize) -> u64 {
        self.tenants[tenant].starvation_rounds()
    }

    /// All finished jobs so far, completion order.
    pub fn outcomes(&self) -> Vec<JobOutcome> {
        self.outcomes.lock().clone()
    }

    /// Submit a job for `tenant`. Validates the spec, then applies
    /// admission control against the tenant's bounded queue. Returns the
    /// job id, or the rejection reason (spec error or backpressure).
    pub fn submit(&self, tenant: usize, spec: JobSpec) -> Result<u64, RejectReason> {
        self.submit_with_deadline(tenant, spec, None)
    }

    /// [`Self::submit`] with a completion deadline: past it the job is
    /// abandoned ([`FailReason::DeadlineExceeded`]) instead of being
    /// (re)dispatched.
    pub fn submit_with_deadline(
        &self,
        tenant: usize,
        spec: JobSpec,
        deadline: Option<SimTime>,
    ) -> Result<u64, RejectReason> {
        let Some(state) = self.tenants.get(tenant) else {
            return Err(RejectReason::UnknownTenant { tenant, tenants: self.tenants.len() });
        };
        let job = self.next_job.fetch_add(1, Ordering::Relaxed);
        let now = self.platform.now();
        let epoch = self.ctx.current_epoch();
        let name = state.config.name.clone();
        self.ctx.emit_event(&SchedEvent::JobSubmitted {
            epoch,
            tenant: name.clone(),
            job,
            at: now,
        });
        self.metrics.tenant(tenant).submitted.inc();
        let order = spec
            .validated_order()
            .map_err(RejectReason::InvalidSpec)
            // A buffer no device of the node can hold would be refused at
            // issue time, after admission: refuse it here instead.
            .and_then(|order| self.check_buffer_sizes(&spec).map(|()| order));
        let order = match order {
            Ok(order) => order,
            Err(reason) => {
                self.reject(tenant, &name, job, &reason, now);
                return Err(reason);
            }
        };
        let capacity = self.shed_capacity(state.config.capacity);
        let depth = {
            let mut queue = state.queue.lock();
            if queue.len() >= capacity {
                let reason = RejectReason::QueueFull { depth: queue.len(), capacity };
                drop(queue);
                self.reject(tenant, &name, job, &reason, now);
                return Err(reason);
            }
            queue.push_back(PendingJob {
                id: job,
                spec,
                order,
                submitted_at: now,
                deadline,
                attempts: 0,
                not_before: now,
                trace: TraceContext::new(job, now),
            });
            queue.len()
        };
        self.metrics.tenant(tenant).admitted.inc();
        self.metrics.tenant(tenant).depth.set(depth as f64);
        self.ctx.emit_event(&SchedEvent::JobAdmitted { epoch, tenant: name, job, depth, at: now });
        Ok(job)
    }

    /// Refuse a spec with a buffer larger than the context admits: its byte
    /// size exceeds the node's largest device memory, or does not even fit
    /// a `usize`.
    fn check_buffer_sizes(&self, spec: &JobSpec) -> Result<(), RejectReason> {
        let limit = self.ctx.cl().max_buffer_bytes();
        let fits = |elements: usize| {
            elements.checked_mul(std::mem::size_of::<f64>()).is_some_and(|b| b as u64 <= limit)
        };
        match spec.buffers.iter().find(|b| !fits(b.elements)) {
            None => Ok(()),
            Some(b) => Err(RejectReason::BufferTooLarge {
                buffer: b.name.clone(),
                elements: b.elements,
                limit,
            }),
        }
    }

    fn reject(&self, tenant: usize, name: &str, job: u64, reason: &RejectReason, at: SimTime) {
        self.metrics.tenant(tenant).rejected.inc();
        self.ctx.emit_event(&SchedEvent::JobRejected {
            epoch: self.ctx.current_epoch(),
            tenant: name.to_string(),
            job,
            reason: reason.to_string(),
            at,
        });
    }

    /// Graceful degradation: when devices are down, admission capacity
    /// shrinks proportionally to the healthy fraction, shedding offered
    /// load through the existing backpressure path instead of queueing
    /// work the shrunken node cannot absorb. With every device down the
    /// effective capacity is zero and everything is rejected.
    fn shed_capacity(&self, configured: usize) -> usize {
        let total = self.ctx.cl().devices().len().max(1);
        let healthy = self.ctx.healthy_devices().len();
        if healthy == total {
            configured
        } else {
            (configured * healthy).div_ceil(total)
        }
    }

    /// Record a terminal failure for `job`: counters, a
    /// [`SchedEvent::RetryExhausted`] telemetry event (`reason` strings
    /// distinguish deadline misses, abandoned retries, and dead nodes),
    /// and a [`JobOutcome`] with the typed [`FailReason`].
    fn fail_job(&self, tenant: usize, job: &PendingJob, reason: FailReason, now: SimTime) {
        self.metrics.tenant(tenant).failed.inc();
        self.metrics.tenant(tenant).depth.set(self.tenants[tenant].depth() as f64);
        let epoch = self.ctx.current_epoch();
        let name = self.tenants[tenant].config.name.clone();
        self.ctx.emit_event(&SchedEvent::RetryExhausted {
            epoch,
            tenant: name.clone(),
            job: job.id,
            attempts: u64::from(job.attempts),
            reason: reason.to_string(),
            at: now,
        });
        let outcome = match &reason {
            FailReason::DeadlineExceeded => "deadline_exceeded",
            FailReason::RetryExhausted { .. } => "retry_exhausted",
            FailReason::NoHealthyDevices => "no_healthy_devices",
            FailReason::IssueError(_) => "issue_error",
        };
        // Callers record the terminal (pseudo-)attempt on the trace before
        // failing the job, so the span store covers [submitted_at, now].
        self.ctx.emit_event(&SchedEvent::JobTrace {
            epoch,
            tenant: name,
            job: job.id,
            submitted_at: job.submitted_at,
            completed_at: job.trace.last_end(),
            outcome: outcome.into(),
            attempts: job.trace.attempts.clone(),
        });
        self.note_outcome(tenant, now, true);
        self.outcomes.lock().push(JobOutcome {
            id: job.id,
            tenant,
            submitted_at: job.submitted_at,
            completed_at: now,
            latency: now.saturating_since(job.submitted_at),
            result: JobResult::Failed(reason),
        });
    }

    /// Feed one terminal outcome into the SLO tracker and emit any alert
    /// transitions it causes. `bad` counts against the tenant's error
    /// budget (failures, and completions slower than the latency target).
    fn note_outcome(&self, tenant: usize, at: SimTime, bad: bool) {
        let Some(slo) = &self.slo else { return };
        let transitions = {
            let mut tracker = slo.lock();
            tracker.record(tenant, at, bad);
            tracker.evaluate(tenant, at)
        };
        let epoch = self.ctx.current_epoch();
        for t in transitions {
            if t.fired {
                self.metrics.tenant(tenant).slo_alerts.inc();
            }
            self.ctx.emit_event(&t.to_event(epoch, self.tenants[tenant].config.name.clone(), at));
        }
    }

    /// Weighted-round-robin selection of up to `worker_count` jobs: sweep
    /// the tenants (rotating the starting tenant each round), each sweep
    /// granting a tenant up to `weight` jobs, until the slots are full or
    /// every queue is empty. Jobs still inside their retry backoff window
    /// (`not_before > now`) block their tenant's FIFO for the round rather
    /// than being overtaken. Deterministic given queue contents and clock.
    fn select_round(&self, now: SimTime) -> Vec<(usize, PendingJob)> {
        let n = self.tenants.len();
        if n == 0 {
            return Vec::new();
        }
        let ready = |t: &TenantState| t.queue.lock().front().is_some_and(|j| j.not_before <= now);
        let backlogged: Vec<bool> = self.tenants.iter().map(ready).collect();
        let start = self.rr_start.fetch_add(1, Ordering::Relaxed) % n;
        let mut slots = self.workers.len();
        let mut picks: Vec<(usize, PendingJob)> = Vec::new();
        let mut progressed = true;
        while slots > 0 && progressed {
            progressed = false;
            for k in 0..n {
                let t = (start + k) % n;
                let state = &self.tenants[t];
                let share = state.config.weight as usize;
                let mut queue = state.queue.lock();
                for _ in 0..share.min(slots) {
                    if queue.front().is_none_or(|j| j.not_before > now) {
                        break;
                    }
                    picks.push((t, queue.pop_front().expect("front checked")));
                    slots -= 1;
                    progressed = true;
                }
                if slots == 0 {
                    break;
                }
            }
        }
        for (t, was_backlogged) in backlogged.iter().enumerate() {
            if *was_backlogged && !picks.iter().any(|(pt, _)| *pt == t) {
                self.tenants[t].note_starved();
                self.metrics.tenant(t).starved_rounds.inc();
            }
        }
        picks
    }

    /// Drain one dispatch round: select jobs (weighted round-robin), issue
    /// each onto its own worker queue, synchronize the context (one
    /// scheduling epoch), and account completions. Dispatches that end in
    /// an injected device failure are retried with capped exponential
    /// backoff (re-queued at the tenant's front) until the retry budget or
    /// the job's deadline runs out. Returns the number of jobs that reached
    /// a terminal outcome — completed or failed — this round (0 = nothing
    /// dispatchable).
    pub fn dispatch_round(&self) -> usize {
        let now = self.platform.now();
        let picks = self.select_round(now);
        if picks.is_empty() {
            return 0;
        }
        // Jobs that must not be dispatched at all: the node has no healthy
        // device left, or the deadline already passed while queued.
        let healthy = self.ctx.healthy_devices().len();
        let mut terminal = 0usize;
        let mut live: Vec<(usize, PendingJob)> = Vec::with_capacity(picks.len());
        for (tenant, mut job) in picks {
            if healthy == 0 {
                job.trace.record_undispatched(self.ctx.current_epoch(), job.not_before, now);
                self.fail_job(tenant, &job, FailReason::NoHealthyDevices, now);
                terminal += 1;
            } else if job.deadline.is_some_and(|d| d < now) {
                job.trace.record_undispatched(self.ctx.current_epoch(), job.not_before, now);
                self.fail_job(tenant, &job, FailReason::DeadlineExceeded, now);
                terminal += 1;
            } else {
                live.push((tenant, job));
            }
        }
        if live.is_empty() {
            return terminal;
        }
        // Position in the trace's monotone push counter, not an index into
        // `records`: stable even when a trace capacity bound evicts old
        // records mid-run.
        let trace_offset = self.platform.with_engine(|e| e.trace().total_pushed());
        let failure_offset = self.platform.with_engine(|e| e.failure_count());
        let window_mark = self.tap.window_count();
        let epoch = self.ctx.current_epoch();
        // Per slot: when its job was dispatched, or why the runtime refused
        // to issue it.
        let mut dispatched: Vec<ClResult<SimTime>> = Vec::with_capacity(live.len());
        for ((tenant, job), worker) in live.iter().zip(&self.workers) {
            self.metrics.tenant(*tenant).depth.set(self.tenants[*tenant].depth() as f64);
            self.metrics.tenant(*tenant).dispatched.inc();
            let dispatched_at = self.platform.now();
            self.ctx.emit_event(&SchedEvent::JobDispatched {
                epoch,
                tenant: self.tenants[*tenant].config.name.clone(),
                job: job.id,
                queue: worker.id(),
                at: dispatched_at,
            });
            let issued = self.issue_job(worker, &job.spec, &job.order, job.id);
            dispatched.push(issued.map(|()| dispatched_at));
        }
        // One synchronization epoch: the scheduler maps the combined pool.
        self.ctx.finish_all();
        // Attribute completion times and span slices: every trace record
        // issued this round on a worker's queue belongs to the single job
        // dispatched there. Kernel records become compute slices, H2D/D2H
        // payload transfers their own kinds, and staged device-to-device
        // traffic — which only exists because the mapper moved the queue —
        // is the remap segment. Injected failures are attributed the same
        // way, via the engine's failure ledger (`FailureRecord.queue` is
        // the clrt trace id).
        let mut worker_end: HashMap<usize, SimTime> = HashMap::new();
        let mut worker_slices: HashMap<usize, Vec<SpanSlice>> = HashMap::new();
        self.platform.with_engine(|e| {
            for r in e.trace().records_since(trace_offset) {
                let end = worker_end.entry(r.queue).or_insert(SimTime::ZERO);
                *end = (*end).max(r.stamp.end);
                let kind = match &r.kind {
                    CommandKind::Kernel { .. } => SegmentKind::Compute,
                    CommandKind::Transfer { kind: TransferKind::HostToDevice, .. } => {
                        SegmentKind::H2d
                    }
                    CommandKind::Transfer { kind: TransferKind::DeviceToHost, .. } => {
                        SegmentKind::D2h
                    }
                    CommandKind::Transfer { kind: TransferKind::DeviceToDevice, .. } => {
                        SegmentKind::Remap
                    }
                    CommandKind::Marker => continue,
                };
                worker_slices.entry(r.queue).or_default().push(SpanSlice {
                    kind,
                    start: r.stamp.start,
                    end: r.stamp.end,
                });
            }
        });
        for slices in worker_slices.values_mut() {
            slices.sort_by_key(|s| (s.start, s.end));
        }
        let profiling = self.tap.windows_since(window_mark);
        let failed_queues: HashMap<usize, hwsim::FaultKind> = self.platform.with_engine(|e| {
            e.failures()[failure_offset..].iter().map(|f| (f.queue, f.kind)).collect()
        });
        let now = self.platform.now();
        let completed_epoch = self.ctx.current_epoch();
        let no_slices: Vec<SpanSlice> = Vec::new();
        for (((tenant, mut job), worker), dispatched) in
            live.into_iter().zip(&self.workers).zip(dispatched)
        {
            let dispatched_at = match dispatched {
                Ok(at) => at,
                Err(e) => {
                    // Whatever part of its stream was issued ran with the
                    // round; none of it is attributed to the job.
                    job.trace.record_undispatched(completed_epoch, job.not_before, now);
                    self.fail_job(tenant, &job, FailReason::IssueError(e.to_string()), now);
                    terminal += 1;
                    continue;
                }
            };
            let slices = worker_slices.get(&worker.trace_id()).unwrap_or(&no_slices);
            let device = Some(worker.device().index() as u64);
            if let Some(kind) = failed_queues.get(&worker.trace_id()) {
                let attempts = job.attempts + 1;
                // The faulted attempt's window runs to the round's end.
                job.trace.record_attempt(
                    worker.id() as u64,
                    device,
                    completed_epoch,
                    job.not_before,
                    dispatched_at,
                    now,
                    slices,
                    &profiling,
                );
                if job.deadline.is_some_and(|d| d < now) {
                    self.fail_job(
                        tenant,
                        &PendingJob { attempts, ..job },
                        FailReason::DeadlineExceeded,
                        now,
                    );
                    terminal += 1;
                } else if attempts >= self.retry.max_attempts {
                    let reason =
                        FailReason::RetryExhausted { attempts, last_error: kind.to_string() };
                    self.fail_job(tenant, &PendingJob { attempts, ..job }, reason, now);
                    terminal += 1;
                } else {
                    // Transient faults back off before the retry; a lost
                    // device needs no delay — the scheduler blacklists it
                    // and evacuates its queues at the next epoch boundary,
                    // so an immediate retry lands on a healthy device.
                    let delay = if kind.is_transient() {
                        self.retry.backoff_after(attempts)
                    } else {
                        SimDuration::ZERO
                    };
                    self.metrics.tenant(tenant).retried.inc();
                    let state = &self.tenants[tenant];
                    state.queue.lock().push_front(PendingJob {
                        attempts,
                        not_before: now + delay,
                        ..job
                    });
                    self.metrics.tenant(tenant).depth.set(state.depth() as f64);
                }
                continue;
            }
            let completed_at = worker_end.get(&worker.trace_id()).copied().unwrap_or(now);
            job.trace.record_attempt(
                worker.id() as u64,
                device,
                completed_epoch,
                job.not_before,
                dispatched_at,
                completed_at,
                slices,
                &profiling,
            );
            // The trace clamps against non-monotone inputs; read the
            // completion instant back so latency and segments agree exactly.
            let completed_at = job.trace.last_end();
            let latency = completed_at.saturating_since(job.submitted_at);
            self.metrics.tenant(tenant).completed.inc();
            self.metrics.record_latency(tenant, latency);
            let name = self.tenants[tenant].config.name.clone();
            self.ctx.emit_event(&SchedEvent::JobCompleted {
                epoch: completed_epoch,
                tenant: name.clone(),
                job: job.id,
                latency,
                at: completed_at,
            });
            self.ctx.emit_event(&SchedEvent::JobTrace {
                epoch: completed_epoch,
                tenant: name,
                job: job.id,
                submitted_at: job.submitted_at,
                completed_at,
                outcome: "completed".into(),
                attempts: job.trace.attempts.clone(),
            });
            let over_target =
                self.slo.as_ref().is_some_and(|slo| slo.lock().is_bad_latency(latency));
            self.note_outcome(tenant, now, over_target);
            self.outcomes.lock().push(JobOutcome {
                id: job.id,
                tenant,
                submitted_at: job.submitted_at,
                completed_at,
                latency,
                result: JobResult::Completed,
            });
            terminal += 1;
        }
        terminal
    }

    /// Run dispatch rounds until every tenant queue is empty, advancing
    /// the virtual clock past retry backoff windows when nothing is
    /// dispatchable right now. Terminates because retries are bounded by
    /// the policy's `max_attempts`.
    pub fn run_until_drained(&self) {
        loop {
            self.dispatch_round();
            if self.backlog() == 0 {
                return;
            }
            // A round that only produced retries leaves backlog behind a
            // backoff window; jump the idle clock to the earliest ready
            // front so the next round can dispatch.
            if let Some(t) = self.next_ready_at() {
                if t > self.platform.now() {
                    self.advance_to(t);
                }
            }
        }
    }

    /// Compile the programs of a template library and run one throwaway
    /// instance of each template (service start-up). Afterwards no job pays
    /// the `clBuildProgram` cost on the serving path, and the scheduler's
    /// one-time per-kernel device profiling has already happened — without
    /// this, `AUTO_FIT` would pay its profiling passes exactly while the
    /// first burst of real jobs is testing admission capacity. Marks the
    /// end of start-up: [`Self::serving_since`] is set to the clock after
    /// the warm-up drains. Warm-up instances never touch tenant queues,
    /// metrics, or outcomes.
    ///
    /// When the scheduler's cost predictor is already confident about
    /// every launch in a template (a persisted model from a previous
    /// service run, loaded via `predictor_persist`), the throwaway
    /// instance buys nothing — the first real job is mapped from
    /// predictions, not a profiling epoch — so it is skipped and counted
    /// in `served_warmups_skipped_total`. Programs still compile for every
    /// template either way.
    pub fn warm_programs(&self, specs: &[JobSpec]) -> ClResult<()> {
        for spec in specs {
            self.program_for(spec)?;
        }
        for (i, spec) in specs.iter().enumerate() {
            if self.spec_predictor_confident(spec) {
                self.metrics.warmups_skipped.inc();
                continue;
            }
            let order = spec.topo_order().expect("warm-up templates are acyclic");
            self.issue_job(&self.workers[i % self.workers.len()], spec, &order, u64::MAX)?;
        }
        self.ctx.finish_all();
        *self.serving_since.lock() = self.platform.now();
        *self.wall_serving_since.lock() = Some(std::time::Instant::now());
        Ok(())
    }

    /// Virtual time at which start-up finished (`ZERO` if no warm-up ran).
    pub fn serving_since(&self) -> SimTime {
        *self.serving_since.lock()
    }

    /// True when the scheduler's cost predictor is confident — on every
    /// healthy device — about every `Launch` step in `spec`, i.e. a
    /// warm-up instance would not save the first real job any profiling.
    /// Argument bytes mirror [`Self::issue_job`]: one `f64` buffer per
    /// distinct arg name, counted once however many positions bind it.
    fn spec_predictor_confident(&self, spec: &JobSpec) -> bool {
        let costs: HashMap<&str, KernelCostSpec> =
            spec.kernels.iter().map(|k| (k.name.as_str(), k.cost)).collect();
        let elements: HashMap<&str, usize> =
            spec.buffers.iter().map(|b| (b.name.as_str(), b.elements)).collect();
        let mut any_launch = false;
        for step in &spec.steps {
            let StepOp::Launch { kernel, global, local, args } = &step.op else {
                continue;
            };
            any_launch = true;
            let Some(cost) = costs.get(kernel.as_str()) else {
                return false;
            };
            let mut seen: Vec<&str> = Vec::new();
            let mut arg_bytes = 0u64;
            for arg in args {
                if !seen.contains(&arg.as_str()) {
                    seen.push(arg.as_str());
                    let elems = elements.get(arg.as_str()).copied().unwrap_or(0);
                    arg_bytes += (elems * std::mem::size_of::<f64>()) as u64;
                }
            }
            let shape = NdRange::d1(*global, *local).shape();
            if !self.ctx.predictor_confident(cost, shape, arg_bytes) {
                return false;
            }
        }
        any_launch
    }

    /// Get or build the program for `spec`'s kernel set. Keyed by the full
    /// kernel signature (name, cost, arity), so two templates sharing a
    /// kernel name but differing in cost get distinct programs.
    fn program_for(&self, spec: &JobSpec) -> ClResult<clrt::Program> {
        let arities = || spec.kernels.iter().map(|k| spec.kernel_arity(&k.name));
        let mut programs = self.programs.lock();
        let built = programs
            .iter()
            .find(|p| p.kernels == spec.kernels && p.arities.iter().copied().eq(arities()));
        if let Some(p) = built {
            return Ok(p.program.clone());
        }
        let arities: Vec<usize> = arities().collect();
        let bodies: Vec<Arc<dyn KernelBody>> = spec
            .kernels
            .iter()
            .zip(&arities)
            .map(|(k, &arity)| {
                Arc::new(SpecKernel { name: k.name.clone(), arity, cost: k.cost })
                    as Arc<dyn KernelBody>
            })
            .collect();
        let program = self.ctx.create_program(bodies)?;
        programs.push(BuiltProgram {
            kernels: spec.kernels.clone(),
            arities,
            program: program.clone(),
        });
        Ok(program)
    }

    /// Issue one job's command stream onto `worker`: set the job's
    /// execution modes as the queue's hints for this epoch (a plain job
    /// clears them, so nothing leaks from the slot's previous job; static
    /// binding under [`ServePolicy::Off`] ignores them), allocate its
    /// buffers, build its program, and walk the steps in `order` (the
    /// spec's topological order). Writes execute immediately (defining
    /// initial residency); launches buffer into the worker's pending epoch.
    fn issue_job(
        &self,
        worker: &SchedQueue,
        spec: &JobSpec,
        order: &[usize],
        job_id: u64,
    ) -> ClResult<()> {
        if worker.flags().is_auto() {
            let hints = spec_hints(spec);
            // A queue changes mode only when synchronized. A dispatch slot
            // is — every round ends in `finish_all` — but warm-up wraps
            // around a short worker list within one epoch: close it first.
            if worker.set_sched_hints(hints).is_err() {
                self.ctx.finish_all();
                worker.set_sched_hints(hints)?;
            }
        }
        let mut buffers: HashMap<&str, clrt::Buffer> = HashMap::new();
        for b in &spec.buffers {
            buffers.insert(b.name.as_str(), self.ctx.create_buffer_of::<f64>(b.elements)?);
        }
        let program = self.program_for(spec)?;
        let mut kernels: HashMap<&str, clrt::Kernel> = HashMap::new();
        for k in &spec.kernels {
            kernels.insert(k.name.as_str(), program.create_kernel(&k.name)?);
        }
        for &idx in order {
            match &spec.steps[idx].op {
                StepOp::Write { buffer } => {
                    let buf = &buffers[buffer.as_str()];
                    let data = vec![job_id as f64; buf.len::<f64>()];
                    worker.enqueue_write(buf, &data)?;
                }
                StepOp::Launch { kernel, global, local, args } => {
                    let k = &kernels[kernel.as_str()];
                    for (pos, arg) in args.iter().enumerate() {
                        k.set_arg(pos, ArgValue::BufferMut(buffers[arg.as_str()].clone()))?;
                    }
                    worker.enqueue_ndrange(k, NdRange::d1(*global, *local))?;
                }
            }
        }
        Ok(())
    }
}

/// The execution hints a job asks of its worker queue.
fn spec_hints(spec: &JobSpec) -> QueueSchedFlags {
    let mut hints = QueueSchedFlags::NONE;
    if spec.out_of_order {
        hints |= QueueSchedFlags::SCHED_OUT_OF_ORDER;
    }
    if spec.splittable {
        hints |= QueueSchedFlags::SCHED_SPLITTABLE;
    }
    hints
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The program cache is keyed by the kernel declarations themselves:
    /// an equal kernel set reuses the program whatever else the template
    /// says; a kernel of the same name with another cost, or launched with
    /// another arity, is another program.
    #[test]
    fn program_cache_is_keyed_by_kernel_declarations_and_arity() {
        let platform = Platform::paper_node();
        let tenants = vec![TenantConfig::new("t", 1, 8)];
        let served = Served::new(&platform, ServiceConfig::new(ServePolicy::AutoFit, 1, tenants))
            .expect("service builds");
        let spec = |job: &str, flops: f64, args: &str| {
            JobSpec::parse_str(&format!(
                r#"{{"name": "{job}",
                    "buffers": [{{"name": "a", "elements": 64}}, {{"name": "b", "elements": 64}}],
                    "kernels": [{{"name": "k", "flops_per_item": {flops}, "bytes_per_item": 8.0}}],
                    "steps": [{{"op": "launch", "kernel": "k", "global": 64, "local": 64,
                                "args": {args}}}]}}"#
            ))
            .expect("spec parses")
        };
        let built = || served.programs.lock().len();
        served.program_for(&spec("first", 16.0, r#"["a"]"#)).unwrap();
        served.program_for(&spec("same kernels, other job", 16.0, r#"["b"]"#)).unwrap();
        assert_eq!(built(), 1);
        served.program_for(&spec("other cost", 32.0, r#"["a"]"#)).unwrap();
        assert_eq!(built(), 2);
        served.program_for(&spec("other arity", 16.0, r#"["a", "b"]"#)).unwrap();
        assert_eq!(built(), 3);
        served.program_for(&spec("first again", 16.0, r#"["a"]"#)).unwrap();
        assert_eq!(built(), 3);
    }

    /// One worker set: a service with W dispatch slots owns W scheduler
    /// queues under every policy — queue ids are handed out in creation
    /// order, so the next queue created on its context is number W.
    #[test]
    fn a_service_creates_one_scheduler_queue_per_worker() {
        for policy in [ServePolicy::AutoFit, ServePolicy::RoundRobin, ServePolicy::Off] {
            let platform = Platform::paper_node();
            let tenants = vec![TenantConfig::new("t", 1, 8)];
            let served = Served::new(&platform, ServiceConfig::new(policy, 4, tenants))
                .expect("service builds");
            assert_eq!(served.worker_count(), 4);
            let next = served.context().create_queue_on(hwsim::DeviceId(0)).expect("queue");
            assert_eq!(next.id(), 4, "{policy}");
        }
    }
}
