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
use clrt::error::{ClError, ClResult};
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
    /// A config with default scheduler options. SLO monitoring is on by
    /// default with the paired fast/slow burn alerts.
    pub fn new(policy: ServePolicy, workers: usize, tenants: Vec<TenantConfig>) -> ServiceConfig {
        ServiceConfig {
            policy,
            workers,
            tenants,
            options: SchedOptions::default(),
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
/// generator relies on.
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
    name: Arc<str>,
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
/// program was built from, each kernel's arity, the program, and the
/// instances of it no job holds (at most one per worker slot).
struct BuiltProgram {
    kernels: Vec<KernelSpec>,
    arities: Vec<usize>,
    program: clrt::Program,
    idle: Vec<Instance>,
}

/// What one job borrows from cache entry `program`: a kernel per kernel
/// declaration and a buffer per buffer declaration, by position.
struct Instance {
    program: usize,
    kernels: Vec<clrt::Kernel>,
    buffers: Vec<clrt::Buffer>,
}

/// What a dispatch round works in, kept from round to round. Jobs leave it
/// before the round returns.
#[derive(Default)]
struct Round {
    backlogged: Vec<bool>,
    picks: Vec<(usize, PendingJob)>,
    /// Per worker slot: the dispatch, its last command's end, its slices.
    dispatched: Vec<ClResult<SimTime>>,
    ends: Vec<Option<SimTime>>,
    slices: Vec<Vec<SpanSlice>>,
    /// The instances the round's jobs hold until its `finish_all`.
    held: Vec<Instance>,
    payload: Vec<f64>,
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
/// their scratch. Deterministic single-threaded driving — what the load
/// generator does — is a special case.
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
    round: Mutex<Round>,
    /// Virtual time at which the service finished start-up (program
    /// warm-up); throughput should be measured from here.
    serving_since: Mutex<SimTime>,
    /// Host wall-clock instant matching [`Self::serving_since`] (`None`
    /// until warm-up finishes). Basis for wall-clock throughput, which —
    /// unlike everything virtual — depends on the data-plane worker count.
    wall_serving_since: Mutex<Option<std::time::Instant>>,
    outcomes: Mutex<Vec<JobOutcome>>,
    /// The `outcome` of every completed job's `JobTrace`, shared.
    completed: Arc<str>,
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
        let names: Vec<String> = tenants.iter().map(|t| t.name.to_string()).collect();
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
            round: Mutex::default(),
            serving_since: Mutex::new(SimTime::ZERO),
            wall_serving_since: Mutex::new(None),
            outcomes: Mutex::new(Vec::new()),
            completed: "completed".into(),
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
        self.metrics.tenant(tenant).starved_rounds.get()
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
        // The template's first submission checks it; later ones read the
        // kept outcome. A buffer no device of the node can hold would be
        // refused at issue time, after admission: refuse it here instead.
        let admitted = spec
            .validate()
            .map_err(RejectReason::InvalidSpec)
            .and_then(|()| self.check_buffer_sizes(&spec));
        if let Err(reason) = admitted {
            self.reject(tenant, name, job, &reason, now);
            return Err(reason);
        }
        let capacity = self.shed_capacity(state.config.capacity);
        let depth = {
            let mut queue = state.queue.lock();
            if queue.len() >= capacity {
                let reason = RejectReason::QueueFull { depth: queue.len(), capacity };
                drop(queue);
                self.reject(tenant, name, job, &reason, now);
                return Err(reason);
            }
            queue.push_back(PendingJob {
                id: job,
                spec,
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
                buffer: b.name.to_string(),
                elements: b.elements,
                limit,
            }),
        }
    }

    fn reject(&self, tenant: usize, name: Arc<str>, job: u64, reason: &RejectReason, at: SimTime) {
        self.metrics.tenant(tenant).rejected.inc();
        self.ctx.emit_event(&SchedEvent::JobRejected {
            epoch: self.ctx.current_epoch(),
            tenant: name,
            job,
            reason: reason.to_string().into(),
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
        let healthy = self.ctx.healthy_device_count();
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
    fn fail_job(&self, tenant: usize, job: PendingJob, reason: FailReason, now: SimTime) {
        self.metrics.tenant(tenant).failed.inc();
        self.metrics.tenant(tenant).depth.set(self.tenants[tenant].depth() as f64);
        let epoch = self.ctx.current_epoch();
        let name = &self.tenants[tenant].config.name;
        self.ctx.emit_event(&SchedEvent::RetryExhausted {
            epoch,
            tenant: name.clone(),
            job: job.id,
            attempts: u64::from(job.attempts),
            reason: reason.to_string().into(),
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
            tenant: name.clone(),
            job: job.id,
            submitted_at: job.submitted_at,
            completed_at: job.trace.last_end(),
            outcome: outcome.into(),
            attempts: job.trace.attempts,
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
            self.ctx.emit_event(&t.to_event(
                epoch,
                Arc::clone(&self.tenants[tenant].config.name),
                at,
            ));
        }
    }

    /// Weighted-round-robin selection of up to `worker_count` jobs: sweep
    /// the tenants (rotating the starting tenant each round), each sweep
    /// granting a tenant up to `weight` jobs, until the slots are full or
    /// every queue is empty. Jobs still inside their retry backoff window
    /// (`not_before > now`) block their tenant's FIFO for the round rather
    /// than being overtaken. Deterministic given queue contents and clock.
    fn select_round(&self, now: SimTime, round: &mut Round) {
        let n = self.tenants.len();
        if n == 0 {
            return;
        }
        let Round { backlogged, picks, .. } = round;
        // Jobs an unwound round left here are dropped, as the unwind would.
        picks.clear();
        let ready = |t: &TenantState| t.queue.lock().front().is_some_and(|j| j.not_before <= now);
        backlogged.clear();
        backlogged.extend(self.tenants.iter().map(ready));
        let start = self.rr_start.fetch_add(1, Ordering::Relaxed) % n;
        let mut slots = self.workers.len();
        let mut progressed = true;
        while slots > 0 && progressed {
            progressed = false;
            for k in 0..n {
                let t = (start + k) % n;
                let state = &self.tenants[t];
                let share = state.config.weight as usize;
                let mut queue = state.queue.lock();
                for _ in 0..share.min(slots) {
                    let Some(job) = queue.pop_front_if(|j| j.not_before <= now) else {
                        break;
                    };
                    picks.push((t, job));
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
                self.metrics.tenant(t).starved_rounds.inc();
            }
        }
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
        let mut round = self.round.lock();
        let round = &mut *round;
        let now = self.platform.now();
        self.select_round(now, round);
        // Jobs that must not be dispatched at all: the node has no healthy
        // device left, or the deadline already passed while queued. The
        // rest stay in `picks`, in order: the live jobs.
        let healthy = self.ctx.healthy_device_count();
        let mut terminal = 0usize;
        let doomed = |(_, job): &mut (usize, PendingJob)| {
            healthy == 0 || job.deadline.is_some_and(|d| d < now)
        };
        for (tenant, mut job) in round.picks.extract_if(.., doomed) {
            job.trace.record_undispatched(self.ctx.current_epoch(), job.not_before, now);
            let reason = match healthy {
                0 => FailReason::NoHealthyDevices,
                _ => FailReason::DeadlineExceeded,
            };
            self.fail_job(tenant, job, reason, now);
            terminal += 1;
        }
        let Round { picks: live, dispatched, ends, slices, held, payload, .. } = round;
        if live.is_empty() {
            return terminal;
        }
        // Where the trace ends before this round's commands: the records
        // read back below are exactly the ones this round pushes.
        let trace_offset = self.platform.with_engine(|e| e.trace().total_pushed());
        let failure_offset = self.platform.with_engine(|e| e.failure_count());
        let window_mark = self.tap.window_count();
        let epoch = self.ctx.current_epoch();
        // Per slot: when its job was dispatched, or why the runtime refused
        // to issue it.
        dispatched.clear();
        for ((tenant, job), worker) in live.iter().zip(&self.workers) {
            self.metrics.tenant(*tenant).depth.set(self.tenants[*tenant].depth() as f64);
            self.metrics.tenant(*tenant).dispatched.inc();
            let dispatched_at = self.platform.now();
            self.ctx.emit_event(&SchedEvent::JobDispatched {
                epoch,
                tenant: Arc::clone(&self.tenants[*tenant].config.name),
                job: job.id,
                queue: worker.id(),
                at: dispatched_at,
            });
            let issued = self.issue_job(worker, &job.spec, job.id, payload);
            let issued = issued.map(|instance| held.push(instance));
            dispatched.push(issued.map(|()| dispatched_at));
        }
        // One synchronization epoch: the scheduler maps the combined pool.
        self.ctx.finish_all();
        self.check_in(held);
        // Attribute completion times and span slices: every trace record
        // issued this round on a worker's queue belongs to the single job
        // dispatched there. Kernel records become compute slices, H2D/D2H
        // payload transfers their own kinds, and staged device-to-device
        // traffic — which only exists because the mapper moved the queue —
        // is the remap segment. Injected failures are attributed the same
        // way, via the engine's failure ledger (`FailureRecord.queue` is
        // the clrt trace id).
        ends.clear();
        ends.resize(self.workers.len(), None);
        slices.resize_with(self.workers.len(), Vec::new);
        slices.iter_mut().for_each(Vec::clear);
        self.platform.with_engine(|e| {
            for r in e.trace().records_since(trace_offset) {
                let Some(slot) = self.workers.iter().position(|w| w.trace_id() == r.queue) else {
                    continue;
                };
                ends[slot] = ends[slot].max(Some(r.stamp.end));
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
                slices[slot].push(SpanSlice { kind, start: r.stamp.start, end: r.stamp.end });
            }
        });
        for slot in slices.iter_mut() {
            slot.sort_by_key(|s| (s.start, s.end));
        }
        let profiling = self.tap.windows_since(window_mark);
        let failed_queues: HashMap<usize, hwsim::FaultKind> = self.platform.with_engine(|e| {
            e.failures()[failure_offset..].iter().map(|f| (f.queue, f.kind)).collect()
        });
        let now = self.platform.now();
        let completed_epoch = self.ctx.current_epoch();
        let round = live.drain(..).zip(&self.workers).zip(dispatched.drain(..));
        for (slot, (((tenant, mut job), worker), dispatched)) in round.enumerate() {
            let dispatched_at = match dispatched {
                Ok(at) => at,
                Err(e) => {
                    // Whatever part of its stream was issued ran with the
                    // round; none of it is attributed to the job.
                    job.trace.record_undispatched(completed_epoch, job.not_before, now);
                    self.fail_job(tenant, job, FailReason::IssueError(e.to_string()), now);
                    terminal += 1;
                    continue;
                }
            };
            let slices = &slices[slot];
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
                        PendingJob { attempts, ..job },
                        FailReason::DeadlineExceeded,
                        now,
                    );
                    terminal += 1;
                } else if attempts >= self.retry.max_attempts {
                    let reason =
                        FailReason::RetryExhausted { attempts, last_error: kind.to_string() };
                    self.fail_job(tenant, PendingJob { attempts, ..job }, reason, now);
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
            let completed_at = ends[slot].unwrap_or(now);
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
            self.metrics.record_completion(tenant, latency);
            let name = &self.tenants[tenant].config.name;
            self.ctx.emit_event(&SchedEvent::JobCompleted {
                epoch: completed_epoch,
                tenant: name.clone(),
                job: job.id,
                latency,
                at: completed_at,
            });
            self.ctx.emit_event(&SchedEvent::JobTrace {
                epoch: completed_epoch,
                tenant: name.clone(),
                job: job.id,
                submitted_at: job.submitted_at,
                completed_at,
                outcome: self.completed.clone(),
                attempts: job.trace.attempts,
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
    ///
    /// Every template is validated first, as admission would: an invalid
    /// one is `InvalidValue` naming it and the [`SpecError`], and nothing is
    /// built or issued.
    ///
    /// [`SpecError`]: crate::spec::SpecError
    pub fn warm_programs(&self, specs: &[JobSpec]) -> ClResult<()> {
        for spec in specs {
            spec.validate().map_err(|e| {
                ClError::InvalidValue(format!("warm-up template `{}`: {e}", spec.name))
            })?;
        }
        for spec in specs {
            self.program_for(&mut self.programs.lock(), spec)?;
        }
        let mut round = self.round.lock();
        for (i, spec) in specs.iter().enumerate() {
            if self.spec_predictor_confident(spec) {
                self.metrics.warmups_skipped.inc();
                continue;
            }
            let worker = &self.workers[i % self.workers.len()];
            let instance = self.issue_job(worker, spec, u64::MAX, &mut round.payload)?;
            round.held.push(instance);
        }
        self.ctx.finish_all();
        self.check_in(&mut round.held);
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
    /// distinct argument buffer, counted once however many positions bind
    /// it. `spec` is checked.
    fn spec_predictor_confident(&self, spec: &JobSpec) -> bool {
        let checked = spec.checked().expect("warm-up checks every template first");
        let mut any_launch = false;
        for (step, (at, args)) in spec.steps.iter().zip(&checked.steps) {
            let StepOp::Launch { global, local, .. } = step.op else {
                continue;
            };
            any_launch = true;
            let distinct = args.iter().enumerate().filter(|&(i, b)| !args[..i].contains(b));
            let elements: usize = distinct.map(|(_, &b)| spec.buffers[b].elements).sum();
            let arg_bytes = (elements * std::mem::size_of::<f64>()) as u64;
            let shape = NdRange::d1(global, local).shape();
            if !self.ctx.predictor_confident(&spec.kernels[*at].cost, shape, arg_bytes) {
                return false;
            }
        }
        any_launch
    }

    /// Where `programs` holds `spec`'s program, built if missing. Keyed by
    /// the full kernel signature (name, cost, arity), so two templates
    /// sharing a kernel name but differing in cost get distinct programs.
    fn program_for(&self, programs: &mut Vec<BuiltProgram>, spec: &JobSpec) -> ClResult<usize> {
        let arities = &spec.checked().expect("every spec is checked first").arities;
        let built =
            programs.iter().position(|p| p.kernels == spec.kernels && p.arities == *arities);
        if let Some(at) = built {
            return Ok(at);
        }
        let bodies: Vec<Arc<dyn KernelBody>> = spec
            .kernels
            .iter()
            .zip(arities)
            .map(|(k, &arity)| {
                Arc::new(SpecKernel { name: k.name.clone(), arity, cost: k.cost })
                    as Arc<dyn KernelBody>
            })
            .collect();
        let program = self.ctx.create_program(bodies)?;
        programs.push(BuiltProgram {
            kernels: spec.kernels.clone(),
            arities: arities.clone(),
            program,
            idle: vec![],
        });
        Ok(programs.len() - 1)
    }

    /// Check out an instance of `spec`'s program, idle or new. A buffer it
    /// keeps is renewed, or replaced where the spec declares another
    /// element count or renewal is refused: the job sees new objects.
    fn check_out(&self, spec: &JobSpec) -> ClResult<Instance> {
        let mut programs = self.programs.lock();
        let at = self.program_for(&mut programs, spec)?;
        let mut instance = match programs[at].idle.pop() {
            Some(idle) => idle,
            None => Instance {
                program: at,
                kernels: spec
                    .kernels
                    .iter()
                    .map(|k| programs[at].program.create_kernel(&k.name))
                    .collect::<ClResult<_>>()?,
                buffers: vec![],
            },
        };
        drop(programs);
        instance.buffers.truncate(spec.buffers.len());
        for (buf, b) in instance.buffers.iter_mut().zip(&spec.buffers) {
            if buf.len::<f64>() != b.elements || self.ctx.cl().renew_buffer(buf).is_err() {
                *buf = self.ctx.create_buffer_of::<f64>(b.elements)?;
            }
        }
        for b in &spec.buffers[instance.buffers.len()..] {
            instance.buffers.push(self.ctx.create_buffer_of::<f64>(b.elements)?);
        }
        Ok(instance)
    }

    /// Hand the instances in `held` back to their programs, once the
    /// `finish_all` after their jobs has run.
    fn check_in(&self, held: &mut Vec<Instance>) {
        let mut programs = self.programs.lock();
        for instance in held.drain(..) {
            let idle = &mut programs[instance.program].idle;
            if idle.len() < self.workers.len() {
                idle.push(instance);
            }
        }
    }

    /// Issue one job's command stream onto `worker`: set the job's
    /// execution modes as the queue's hints for this epoch (a plain job
    /// clears them, so nothing leaks from the slot's previous job; static
    /// binding under [`ServePolicy::Off`] ignores them), check out an
    /// instance of its program — the caller holds it until `finish_all` —
    /// and walk the steps in the order the spec's check kept, each name
    /// already resolved to its buffer or kernel (admission and warm-up
    /// check every spec, so every name resolves). A write stores its data
    /// now; on a worker a pass has bound it leaves the buffer on the host,
    /// and the pass that maps the job uploads it to the device the job runs
    /// on — a first write, on a worker no pass has bound yet, uploads to the
    /// worker's current device
    /// ([`SchedQueue::enqueue_write`]). Launches buffer into the worker's
    /// pending epoch.
    fn issue_job(
        &self,
        worker: &SchedQueue,
        spec: &JobSpec,
        job_id: u64,
        payload: &mut Vec<f64>,
    ) -> ClResult<Instance> {
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
        let checked = spec.checked().expect("admission and warm-up check every spec");
        let instance = self.check_out(spec)?;
        let Instance { kernels, buffers, .. } = &instance;
        for &idx in &checked.order {
            let (at, args) = &checked.steps[idx];
            match spec.steps[idx].op {
                StepOp::Write { .. } => {
                    let buf = &buffers[*at];
                    payload.clear();
                    payload.resize(buf.len::<f64>(), job_id as f64);
                    worker.enqueue_write(buf, payload)?;
                }
                StepOp::Launch { global, local, .. } => {
                    let k = &kernels[*at];
                    for (pos, &arg) in args.iter().enumerate() {
                        k.set_arg(pos, ArgValue::BufferMut(buffers[arg].clone()))?;
                    }
                    worker.enqueue_ndrange(k, NdRange::d1(global, local))?;
                }
            }
        }
        Ok(instance)
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
        served.program_for(&mut served.programs.lock(), &spec("first", 16.0, r#"["a"]"#)).unwrap();
        served
            .program_for(
                &mut served.programs.lock(),
                &spec("same kernels, other job", 16.0, r#"["b"]"#),
            )
            .unwrap();
        assert_eq!(built(), 1);
        served
            .program_for(&mut served.programs.lock(), &spec("other cost", 32.0, r#"["a"]"#))
            .unwrap();
        assert_eq!(built(), 2);
        served
            .program_for(&mut served.programs.lock(), &spec("other arity", 16.0, r#"["a", "b"]"#))
            .unwrap();
        assert_eq!(built(), 3);
        served
            .program_for(&mut served.programs.lock(), &spec("first again", 16.0, r#"["a"]"#))
            .unwrap();
        assert_eq!(built(), 3);
    }

    /// A template built in code skips `parse_str`'s validation. Warm-up
    /// validates it instead: a cycle or an unknown kernel is an error that
    /// names the template, and nothing is built or issued — not even for
    /// the valid template listed before it.
    #[test]
    fn warm_up_refuses_an_invalid_template_before_building_anything() {
        use crate::spec::StepSpec;
        let platform = Platform::paper_node();
        let tenants = vec![TenantConfig::new("t", 1, 8)];
        let served = Served::new(&platform, ServiceConfig::new(ServePolicy::AutoFit, 2, tenants))
            .expect("service builds");
        let valid = crate::loadgen::templates().remove(0);
        let mut cyclic = valid.clone();
        cyclic.name = "cyclic".into();
        cyclic.steps[0].after = vec![cyclic.steps[1].id.clone()];
        let mut unknown = valid.clone();
        unknown.name = "unknown".into();
        unknown.steps.push(StepSpec {
            id: "ghost".into(),
            op: StepOp::Launch {
                kernel: "no_such_kernel".into(),
                global: 64,
                local: 64,
                args: vec![],
            },
            after: vec![],
        });
        let issued = || served.context().stats().kernels_issued;
        let before = issued();
        for (bad, cause) in [(cyclic, "cycle"), (unknown, "no_such_kernel")] {
            let name = bad.name.clone();
            let Err(ClError::InvalidValue(message)) = served.warm_programs(&[valid.clone(), bad])
            else {
                panic!("warm-up of `{name}` must be refused");
            };
            assert!(message.contains(&*name) && message.contains(cause), "{message}");
            assert_eq!(served.programs.lock().len(), 0, "{message}");
            assert_eq!(issued(), before, "{message}");
        }
    }

    /// A dispatch slot carries nothing from one job to the next. The
    /// two-buffer, two-kernel `svc_mixed` template first runs on every slot;
    /// then a one-buffer job runs on slot 0. Its outcome, `JobTrace` event
    /// and buffer, and the per-slot attribution the round leaves behind,
    /// equal those of the same history with a new round scratch before the
    /// job; and its buffer equals what a new service computes for the same
    /// job id.
    #[test]
    fn a_served_slot_carries_nothing_over() {
        const WORKERS: usize = 4;
        let mixed = crate::loadgen::templates().into_iter().find(|t| &*t.name == "svc_mixed");
        let mixed = mixed.expect("stock template");
        let single = JobSpec::parse_str(
            r#"{"name": "single", "buffers": [{"name": "x", "elements": 64}],
                "kernels": [{"name": "k", "flops_per_item": 4096.0, "bytes_per_item": 8.0}],
                "steps": [{"op": "write", "buffer": "x"},
                          {"op": "launch", "kernel": "k", "global": 64, "local": 64,
                           "args": ["x"]}]}"#,
        )
        .expect("spec parses");
        let mut refused = single.clone();
        refused.buffers[0].elements = 0;
        let dir = std::env::temp_dir().join(format!("served-slot-{}", std::process::id()));
        // `single`'s outcome, `JobTrace` event, buffer contents and the
        // round's per-slot attribution after a history: `svc_mixed` on every
        // slot, or (without `mixed_first`) refused submissions that only use
        // up the same job ids. `renew` replaces the round scratch before
        // `single` is submitted.
        let run = |mixed_first: bool, renew: bool| {
            let platform = Platform::paper_node();
            let ring = Arc::new(multicl::telemetry::RingBufferSink::new(1 << 14));
            let mut options = warmed_options(&platform, &dir);
            options.observers.push(ring.clone());
            let tenants = vec![TenantConfig::new("t", WORKERS as u32, WORKERS)];
            let config = ServiceConfig {
                options,
                ..ServiceConfig::new(ServePolicy::AutoFit, WORKERS, tenants)
            };
            let served = Served::new(&platform, config).expect("service builds");
            served.warm_programs(&[mixed.clone(), single.clone()]).expect("templates build");
            for _ in 0..WORKERS {
                let admitted =
                    served.submit(0, if mixed_first { &mixed } else { &refused }.clone());
                assert_eq!(admitted.is_ok(), mixed_first);
            }
            assert_eq!(served.dispatch_round(), usize::from(mixed_first) * WORKERS);
            if renew {
                *served.round.lock() = Round::default();
            }
            let id = served.submit(0, single.clone()).expect("admitted");
            assert_eq!(served.dispatch_round(), 1);
            let outcome = served.outcomes().pop().expect("the job finished");
            let trace = ring
                .snapshot()
                .into_iter()
                .find(|e| matches!(e, SchedEvent::JobTrace { job, .. } if *job == id));
            let round = served.round.lock();
            let programs = served.programs.lock();
            let held = programs.iter().find(|p| p.kernels == single.kernels).unwrap().idle.last();
            let buffers: Vec<Vec<f64>> =
                held.unwrap().buffers.iter().map(|b| b.host_snapshot::<f64>()).collect();
            let slots = (round.ends.clone(), round.slices.clone());
            (outcome, trace.expect("a JobTrace event"), buffers, slots)
        };
        let reused = run(true, false);
        assert_eq!(reused.0.result, JobResult::Completed);
        assert_eq!(reused.2.len(), 1, "the job's one buffer");
        assert_eq!(reused, run(true, true), "a new round scratch changes nothing");
        assert_eq!(reused.2, run(false, false).2, "a new service computes the same buffer");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reused instance carries nothing over. `svc_mixed` runs on every
    /// slot; then a job of the same program that declares its second buffer
    /// shorter (replaced) and never writes its first (renewed, so its kernels
    /// read what renewal left there); then `svc_mixed` again (its second
    /// buffer replaced once more). Every job's outcome, `JobTrace` event and
    /// buffers equal those of the same history on a service that builds
    /// every job's objects new, as a fresh service does: its pools emptied
    /// before each round.
    #[test]
    fn a_reused_instance_carries_nothing_over() {
        const WORKERS: usize = 4;
        let mixed = crate::loadgen::templates().into_iter().find(|t| &*t.name == "svc_mixed");
        let mixed = mixed.expect("stock template");
        let mut shorter = mixed.clone();
        shorter.name = "svc_mixed_short".into();
        shorter.buffers[1].elements = 1024;
        shorter.steps.remove(0);
        shorter.steps[1].after.retain(|step| &**step != "in_u");
        let dir = std::env::temp_dir().join(format!("served-reuse-{}", std::process::id()));
        // Per job, in id order: its outcome, `JobTrace` event and buffers.
        let run = |reuse: bool| {
            let platform = Platform::paper_node();
            let ring = Arc::new(multicl::telemetry::RingBufferSink::new(1 << 14));
            let mut options = warmed_options(&platform, &dir);
            options.observers.push(ring.clone());
            let tenants = vec![TenantConfig::new("t", WORKERS as u32, WORKERS)];
            let config = ServiceConfig {
                options,
                ..ServiceConfig::new(ServePolicy::AutoFit, WORKERS, tenants)
            };
            let served = Served::new(&platform, config).expect("service builds");
            served.warm_programs(std::slice::from_ref(&mixed)).expect("template builds");
            let mut buffers = Vec::new();
            for spec in [&mixed, &shorter, &mixed] {
                if !reuse {
                    served.programs.lock().iter_mut().for_each(|p| p.idle.clear());
                }
                for _ in 0..WORKERS {
                    served.submit(0, spec.clone()).expect("admitted");
                }
                assert_eq!(served.dispatch_round(), WORKERS);
                // The pool holds the round's instances in slot order.
                for instance in &served.programs.lock()[0].idle {
                    let read = instance.buffers.iter().map(|b| b.host_snapshot::<f64>());
                    buffers.push(read.collect::<Vec<_>>());
                }
            }
            let events = ring.snapshot();
            let trace = |id: u64| {
                let trace = events
                    .iter()
                    .find(|e| matches!(e, SchedEvent::JobTrace { job, .. } if *job == id));
                trace.cloned().expect("a JobTrace event")
            };
            let outcomes = served.outcomes().into_iter().zip(buffers);
            outcomes.map(|(outcome, buffers)| (trace(outcome.id), outcome, buffers)).collect()
        };
        let reused: Vec<_> = run(true);
        assert_eq!(reused.len(), 3 * WORKERS);
        assert!(reused.iter().all(|(_, outcome, _)| outcome.result == JobResult::Completed));
        assert_eq!(reused, run(false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A job's upload goes where its kernel runs. The `svc_cpu` template,
    /// cut to `serve_light`'s one 64-item workgroup over 256 elements, is
    /// fastest on the CPU, in part because a GPU upload costs twenty times
    /// a CPU one. It runs on the one worker after `svc_gpu` left that
    /// worker's queue on a GPU: its write stays on the host, the pass maps
    /// the job to the CPU, and the job's one upload runs there, with no
    /// download. Against the same job (same id) as the first job of a
    /// service that never warmed its worker — no pass has bound the queue,
    /// so the write is eager, on the CPU the first worker starts on — its
    /// outcome and buffer are bit-equal, and so is its `JobTrace` but for
    /// the instants and durations, which the other history moves.
    #[test]
    fn a_warm_workers_upload_goes_where_its_kernel_runs() {
        let templates = crate::loadgen::templates();
        let named = |name: &str| templates.iter().find(|t| &*t.name == name).cloned();
        let gpu = named("svc_gpu").expect("stock template");
        let mut cpu = named("svc_cpu").expect("stock template");
        cpu.buffers[0].elements = 256;
        for step in &mut cpu.steps {
            if let StepOp::Launch { global, local, .. } = &mut step.op {
                (*global, *local) = (64, 64);
            }
        }
        let mut refused = cpu.clone();
        refused.buffers[0].elements = 0;
        let dir = std::env::temp_dir().join(format!("served-upload-{}", std::process::id()));
        // The CPU job after `svc_gpu` (`warm`) or after a refused
        // submission that only uses up the same job id: its outcome, its
        // `JobTrace` with every instant and duration zeroed, its buffer and
        // the transfers its dispatch issued (device, direction).
        let run = |warm: bool| {
            let platform = Platform::paper_node();
            let ring = Arc::new(multicl::telemetry::RingBufferSink::new(1 << 14));
            let mut options = warmed_options(&platform, &dir);
            options.observers.push(ring.clone());
            let tenants = vec![TenantConfig::new("t", 1, 4)];
            let config =
                ServiceConfig { options, ..ServiceConfig::new(ServePolicy::AutoFit, 1, tenants) };
            let served = Served::new(&platform, config).expect("service builds");
            if warm {
                served.warm_programs(&[gpu.clone(), cpu.clone()]).expect("templates build");
                served.submit(0, gpu.clone()).expect("admitted");
                assert_eq!(served.dispatch_round(), 1);
                assert_ne!(
                    served.worker_devices()[0],
                    hwsim::DeviceId(0),
                    "the worker is on a GPU"
                );
            } else {
                assert!(served.submit(0, refused.clone()).is_err());
                assert_eq!(
                    served.worker_devices()[0],
                    hwsim::DeviceId(0),
                    "a new worker is on the CPU"
                );
            }
            let mark = platform.trace_snapshot().total_pushed();
            let id = served.submit(0, cpu.clone()).expect("admitted");
            assert_eq!(served.dispatch_round(), 1);
            let trace = platform.trace_snapshot();
            let transfers: Vec<_> = (trace.records_since(mark).iter())
                .filter_map(|r| match r.kind {
                    CommandKind::Transfer { kind, .. } => Some((r.device, kind)),
                    _ => None,
                })
                .collect();
            let outcome = served.outcomes().pop().expect("the job finished");
            let mut job_trace = ring
                .snapshot()
                .into_iter()
                .find(|e| matches!(e, SchedEvent::JobTrace { job, .. } if *job == id))
                .expect("a JobTrace event");
            if let SchedEvent::JobTrace { epoch, submitted_at, completed_at, attempts, .. } =
                &mut job_trace
            {
                (*epoch, *submitted_at, *completed_at) = (0, SimTime::ZERO, SimTime::ZERO);
                for a in attempts {
                    (a.epoch, a.dispatched_at, a.ended_at) = (0, SimTime::ZERO, SimTime::ZERO);
                    a.segments = Default::default();
                }
            }
            let programs = served.programs.lock();
            let held = programs.iter().find(|p| p.kernels == cpu.kernels).unwrap().idle.last();
            let buffers: Vec<Vec<f64>> =
                held.unwrap().buffers.iter().map(|b| b.host_snapshot::<f64>()).collect();
            (outcome.result, job_trace, buffers, transfers)
        };
        let (result, trace, buffers, transfers) = run(true);
        assert_eq!(result, JobResult::Completed);
        assert_eq!(
            transfers,
            [(hwsim::DeviceId(0), TransferKind::HostToDevice)],
            "the job's one upload runs on the CPU, and nothing is downloaded"
        );
        let eager = run(false);
        assert_eq!((&result, &trace, &buffers), (&eager.0, &eager.1, &eager.2));
        let _ = std::fs::remove_dir_all(&dir);
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
