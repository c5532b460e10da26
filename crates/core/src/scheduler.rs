//! The MultiCL runtime: scheduling-aware contexts and command queues
//! (paper §V, Figure 1).
//!
//! A [`MulticlContext`] wraps a `clrt` context with a global scheduling
//! policy. [`SchedQueue`]s created from it are *user* queues: their kernel
//! launches are buffered into the current synchronization epoch. At a
//! trigger (a `finish`, a blocking read, or an explicit-region stop), the
//! runtime:
//!
//! 1. collects every queue with pending work (the **queue pool**),
//! 2. obtains per-device cost vectors for the scheduled queues — from the
//!    kernel/epoch profile cache when warm, else by **dynamic kernel
//!    profiling** (charging virtual time, with the minikernel and
//!    data-caching optimizations of §V-C), or from the static device profile
//!    for `SCHED_AUTO_STATIC` queues (§V-B),
//! 3. maps queues to devices (AutoFit = exact makespan minimization;
//!    RoundRobin = cyclic), rebinding each underlying device queue, and
//! 4. flushes the buffered commands to their devices.
//!
//! `SCHED_OFF` queues bypass all of this: their commands pass straight
//! through to the statically chosen device, exactly like stock SnuCL.
//!
//! Set the `MULTICL_DEBUG` environment variable to print each scheduling
//! decision (per-queue cost vectors and the chosen assignment) to stderr.
//! Values `0`, `false`, `off`, and the empty string leave it disabled.

use crate::flags::{ContextSchedPolicy, QueueSchedFlags};
use crate::mapper;
use crate::ooo;
use crate::predictor::{CostPredictor, KernelFeatures};
use crate::profile::{DeviceProfile, ProfileCache, StaticHint};
use crate::split;
use crate::telemetry::event::{QueueDecision, SchedEvent};
use crate::telemetry::{SchedObserver, StderrSink};
use clrt::error::{ClError, ClResult};
use clrt::{
    BoundArgs, Buffer, CommandQueue, Context, Event, Kernel, KernelBody, NdRange, Platform, Program,
};
use hwsim::cost::{KernelCostSpec, NdRangeShape};
use hwsim::engine::{CommandDesc, CommandKind, Engine};
use hwsim::sync::Mutex;
use hwsim::topology::TransferKind;
use hwsim::{DeviceId, SimDuration};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Tag attached to engine trace records produced by dynamic kernel
/// profiling; the overhead accounting in [`crate::metrics`] keys on it.
pub const PROFILING_TAG: &str = "profiling";

/// Environment variable setting the iterative re-profiling frequency
/// (paper §V-C1: "the user can set a program environment flag to denote the
/// iterative scheduler frequency"). Read by [`SchedOptions::default`]; an
/// explicit [`SchedOptions::iterative_frequency`] overrides it.
pub const ITER_FREQ_ENV: &str = "MULTICL_SCHED_FREQ";

/// Which queue→device mapping algorithm AUTO_FIT uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapperKind {
    /// Exact makespan minimization (the paper's dynamic-programming mapper;
    /// guaranteed optimal, negligible cost at node scale). Warm-started
    /// from the previous epoch's assignment and symmetry-pruned, but
    /// unbounded: pathological pools can still take exponential time.
    #[default]
    Optimal,
    /// Longest-processing-time greedy heuristic — an ablation point showing
    /// what the optimality guarantee buys.
    Greedy,
    /// Exact search under [`DEFAULT_ADAPTIVE_NODE_BUDGET`] explored
    /// nodes; past the budget, falls back to the incumbent (greedy refined
    /// by local search — never worse than greedy). Optimal in the paper's
    /// small-pool regime, bounded decision cost at serving scale.
    Adaptive,
}

/// Runtime options controlling the overhead-reduction strategies. All enabled
/// by default; the figure harness toggles them for the ablation experiments.
#[derive(Clone)]
pub struct SchedOptions {
    /// §V-C3: stage profiling inputs through the host once (1×D2H + (n−1)×H2D
    /// instead of (n−1)×(D2H+H2D)) and cache the destination copies.
    pub data_caching: bool,
    /// §V-C2: honor `SCHED_COMPUTE_BOUND` by profiling only workgroup 0.
    pub minikernel: bool,
    /// §V-C1: for `SCHED_ITERATIVE` queues, recompute the kernel profiles
    /// every `n` epochs (`None` = profile once and trust the cache forever).
    pub iterative_frequency: Option<u64>,
    /// Where the static device profile is cached between runs.
    pub profile_cache: ProfileCache,
    /// Mapping algorithm for the AUTO_FIT policy.
    pub mapper: MapperKind,
    /// Confidence gate for the feature-based cost predictor (the cold-start
    /// optimization): an unseen kernel's per-device cost row is served by
    /// the online regression model — *skipping the profiling epoch* — when
    /// the model's predictive relative-error bound is at or below this
    /// threshold on every healthy device. Kernels failing the gate fall
    /// back to dynamic profiling (a [`SchedEvent::PredictorFallback`] is
    /// emitted per kernel). `0.0` disables prediction entirely — the
    /// default, so profiling behaves exactly as in the paper.
    pub predictor_confidence: f64,
    /// Persist the predictor model under [`SchedOptions::profile_cache`]'s
    /// directory (alongside the device profile) so a restarted process
    /// starts warm. Off by default: a persisted model makes a second
    /// same-seed run start *trained*, which breaks the byte-identical
    /// replay property the bench harness asserts. Long-lived serving
    /// deployments opt in.
    pub predictor_persist: bool,
    /// Telemetry observers attached at context creation; each receives
    /// every [`SchedEvent`] the runtime emits. More can be added later via
    /// [`MulticlContext::add_observer`]. When the `MULTICL_DEBUG`
    /// environment variable is set, a [`StderrSink`] is appended
    /// automatically.
    pub observers: Vec<Arc<dyn SchedObserver>>,
}

impl Default for SchedOptions {
    fn default() -> Self {
        SchedOptions {
            data_caching: true,
            minikernel: true,
            iterative_frequency: std::env::var(ITER_FREQ_ENV)
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&f| f > 0),
            profile_cache: ProfileCache::default_location(),
            mapper: MapperKind::Optimal,
            predictor_confidence: 0.0,
            predictor_persist: false,
            observers: Vec::new(),
        }
    }
}

/// Explored-node budget for [`MapperKind::Adaptive`]: exact search gives up
/// and keeps the refined-greedy incumbent after this many branch-and-bound
/// nodes. 100k nodes (well under a millisecond of host time) is far more
/// than the paper's node-scale pools ever need, so adaptive == optimal in
/// that regime.
pub const DEFAULT_ADAPTIVE_NODE_BUDGET: u64 = 100_000;

/// Smallest launch (in workgroups along the split axis) worth splitting:
/// below this the per-chunk launch and gather overhead outweighs the
/// parallelism and the kernel runs whole.
const SPLIT_MIN_WGS: u64 = 8;

impl std::fmt::Debug for SchedOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedOptions")
            .field("data_caching", &self.data_caching)
            .field("minikernel", &self.minikernel)
            .field("iterative_frequency", &self.iterative_frequency)
            .field("profile_cache", &self.profile_cache)
            .field("mapper", &self.mapper)
            .field("predictor_confidence", &self.predictor_confidence)
            .field("predictor_persist", &self.predictor_persist)
            .field("observers", &self.observers.len())
            .finish()
    }
}

/// Counters exposed for tests and the experiment harness.
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// Times the scheduler ran over a non-empty pool.
    pub sched_invocations: u64,
    /// Epochs whose cost vectors required dynamic profiling.
    pub profiled_epochs: u64,
    /// Epochs served entirely from the profile caches.
    pub cache_hits: u64,
    /// Kernel cost rows served by the predictor instead of profiling
    /// (one per distinct kernel name that passed the confidence gate).
    pub kernels_predicted: u64,
    /// Kernels the predictor declined — untrained model or low-confidence
    /// prediction — falling back to dynamic profiling.
    pub predictor_fallbacks: u64,
    /// Kernel launches flushed to devices.
    pub kernels_issued: u64,
    /// Launches the out-of-order epoch flush emitted at a different batch
    /// position than program order (Johnson's-rule reordering).
    pub commands_reordered: u64,
    /// Devices detected as permanently lost and blacklisted.
    pub devices_lost: u64,
    /// Queues evacuated off lost devices (fault-driven rebinds).
    pub queues_remapped: u64,
    /// Splittable kernel launches actually partitioned into multi-device
    /// sub-ranges (launches that fell back to a whole launch don't count).
    pub kernels_split: u64,
    /// Always 0: a split chunk runs on the device it was sized for. Kept
    /// because benchmark reports read it; the `ChunkStolen` event kind it
    /// counted is decode-only (DESIGN.md §14).
    pub chunks_stolen: u64,
}

/// Health of one context device, as the engine's fault plan and the virtual
/// clock currently see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Fully operational.
    Healthy,
    /// Operational but running slower than its specification (an active
    /// throughput-degradation fault).
    Degraded,
    /// Permanently lost: the scheduler has blacklisted it and commands
    /// bound to it complete with `CL_DEVICE_NOT_AVAILABLE`.
    Down,
}

/// One buffered kernel launch.
struct PendingKernel {
    kernel: Kernel,
    nd: NdRange,
    args: BoundArgs,
}

struct QueueState {
    /// Stable id (creation order within the context) — what telemetry
    /// events call the queue.
    id: usize,
    cl: CommandQueue,
    /// The queue's flag bits: the creation flags, with the two execution
    /// hints replaceable between epochs ([`SchedQueue::set_sched_hints`]).
    /// Read through [`QueueState::flags`] only.
    flags: AtomicU32,
    pending: Mutex<Vec<PendingKernel>>,
    /// For `SCHED_EXPLICIT_REGION` queues: whether scheduling is currently
    /// enabled (between the start/stop property calls).
    region_active: AtomicBool,
    /// Epochs synchronized so far (drives `iterative_frequency`).
    epochs: AtomicU64,
    /// Whether the ROUND_ROBIN policy has already bound this queue (the
    /// binding is made once, when the queue first reaches the scheduler).
    rr_bound: AtomicBool,
}

impl QueueState {
    /// The queue's current flags. Hints change only under `pass_lock` and
    /// only while nothing is pending, so every read a pass makes of one
    /// pool queue sees the same value; the word publishes no other data.
    fn flags(&self) -> QueueSchedFlags {
        QueueSchedFlags::from_bits(self.flags.load(Ordering::Relaxed))
    }

    /// True if this queue's pending work participates in automatic
    /// scheduling at the next trigger.
    fn participates(&self) -> bool {
        let flags = self.flags();
        if !flags.is_auto() {
            return false;
        }
        if flags.contains(QueueSchedFlags::SCHED_EXPLICIT_REGION) {
            self.region_active.load(Ordering::Relaxed)
        } else {
            // KERNEL_EPOCH is the default trigger for auto queues.
            true
        }
    }
}

struct RtInner {
    cl: Context,
    platform: Platform,
    policy: ContextSchedPolicy,
    options: SchedOptions,
    device_profile: DeviceProfile,
    /// Memory capacity in bytes of each context device (device order).
    capacity: Arc<[u64]>,
    /// Kernel-name → estimated full execution time per device (§V-C1).
    kernel_profiles: Mutex<HashMap<String, Vec<SimDuration>>>,
    /// Online per-device regression over kernel descriptor features,
    /// trained from completion telemetry. When
    /// [`SchedOptions::predictor_confidence`] is positive, confident
    /// predictions serve cost rows for unseen kernels without a profiling
    /// epoch (the cold-start optimization).
    predictor: Mutex<CostPredictor>,
    /// Epoch-key → aggregate execution time per device (§V-C1).
    epoch_profiles: Mutex<HashMap<String, Vec<SimDuration>>>,
    queues: Mutex<Vec<Weak<QueueState>>>,
    rr_next: AtomicUsize,
    created: AtomicUsize,
    /// Next stable queue id (all queues, auto or not).
    queue_ids: AtomicUsize,
    stats: Mutex<SchedStats>,
    /// Devices whose loss has already been announced with a
    /// [`SchedEvent::DeviceDown`] (each device is announced once).
    down_announced: Mutex<Vec<DeviceId>>,
    /// Scheduling epochs completed (the `epoch` field of every event).
    sched_epoch: AtomicU64,
    /// Replaced whole by `add_observer`, so `emit` takes one `Arc` clone.
    observers: Mutex<Arc<[Arc<dyn SchedObserver>]>>,
    /// Serializes scheduling passes. Queues can be driven from multiple
    /// submitter threads (the serving layer does this); a pass reads the
    /// whole pool, computes an assignment, and rebinds+flushes — interleaving
    /// two passes could double-flush a queue or rebind it mid-flush.
    pass_lock: Mutex<()>,
    /// Reusable mapper buffers (scratch, cost matrix, warm-start vector).
    /// Passes are serialized by `pass_lock`, so this lock is uncontended —
    /// it exists to keep `RtInner: Sync` without `unsafe`.
    mapper_state: Mutex<MapperState>,
    /// Per-device in-order lanes the split flush issues chunks on, created
    /// lazily (device index → queue) and reused across epochs so split
    /// launches don't churn queue ids in the trace.
    split_lanes: Mutex<HashMap<usize, CommandQueue>>,
}

/// Buffers the AUTO_FIT arm reuses across epochs so the steady-state hot
/// path does not allocate per decision.
#[derive(Default)]
struct MapperState {
    scratch: mapper::MapperScratch,
    costs: mapper::CostMatrix,
    /// Previous-epoch warm start: each pool queue's current device binding,
    /// as an index into the pass's device list.
    warm: Vec<DeviceId>,
}

/// Interpret a debug-style environment variable value: unset, empty (after
/// trimming), `0`, `false`, and `off` (case-insensitive) mean *disabled*;
/// any other value enables the flag. `MULTICL_DEBUG=0` must not turn debug
/// tracing on.
fn env_flag_enabled(value: Option<&std::ffi::OsStr>) -> bool {
    let Some(value) = value else { return false };
    let value = value.to_string_lossy();
    let value = value.trim();
    !(value.is_empty()
        || value == "0"
        || value.eq_ignore_ascii_case("false")
        || value.eq_ignore_ascii_case("off"))
}

/// A scheduling-aware OpenCL context: `clCreateContext` with the proposed
/// `CL_CONTEXT_SCHEDULER` property (§IV-A).
#[derive(Clone)]
pub struct MulticlContext {
    rt: Arc<RtInner>,
}

impl MulticlContext {
    /// Create a context over every device of `platform` with the given
    /// global policy and default options. Runs the device profiler
    /// (cache-backed) as part of initialization, like `clGetPlatformIds`.
    pub fn new(platform: &Platform, policy: ContextSchedPolicy) -> ClResult<MulticlContext> {
        Self::with_options(platform, policy, SchedOptions::default())
    }

    /// [`Self::new`] with explicit [`SchedOptions`].
    pub fn with_options(
        platform: &Platform,
        policy: ContextSchedPolicy,
        options: SchedOptions,
    ) -> ClResult<MulticlContext> {
        let cl = platform.create_context_all()?;
        let (device_profile, profile_cached) =
            options.profile_cache.load_or_measure_traced(platform);
        let fingerprint = platform.node().fingerprint();
        let capacity = cl.devices().iter().map(|&d| platform.node().spec(d).mem_capacity).collect();
        // A persisted predictor (opt-in) makes a restarted process start
        // warm: confident predictions flow from the first epoch instead of
        // waiting out a fresh training period.
        let predictor = options
            .predictor_persist
            .then(|| {
                CostPredictor::load(options.profile_cache.dir(), &fingerprint, cl.devices().len())
            })
            .flatten()
            .unwrap_or_else(|| CostPredictor::new(cl.devices().len(), fingerprint));
        let mut observers = options.observers.clone();
        if env_flag_enabled(std::env::var_os("MULTICL_DEBUG").as_deref()) {
            observers.push(Arc::new(StderrSink));
        }
        let ctx = MulticlContext {
            rt: Arc::new(RtInner {
                cl,
                platform: platform.clone(),
                policy,
                options,
                device_profile,
                capacity,
                kernel_profiles: Mutex::new(HashMap::new()),
                predictor: Mutex::new(predictor),
                epoch_profiles: Mutex::new(HashMap::new()),
                queues: Mutex::new(Vec::new()),
                rr_next: AtomicUsize::new(0),
                created: AtomicUsize::new(0),
                queue_ids: AtomicUsize::new(0),
                stats: Mutex::new(SchedStats::default()),
                down_announced: Mutex::new(Vec::new()),
                sched_epoch: AtomicU64::new(0),
                observers: Mutex::new(observers.into()),
                pass_lock: Mutex::new(()),
                mapper_state: Mutex::new(MapperState::default()),
                split_lanes: Mutex::new(HashMap::new()),
            }),
        };
        // Announce how the static device profile was obtained (a disk cache
        // hit vs a fresh measurement charging virtual time), now that the
        // observer list exists to hear it.
        let key = "device_profile".to_string();
        ctx.rt.emit(&if profile_cached {
            SchedEvent::CacheHit { epoch: 0, key }
        } else {
            SchedEvent::CacheMiss { epoch: 0, key }
        });
        Ok(ctx)
    }

    /// Attach a telemetry observer; it receives every [`SchedEvent`] from
    /// subsequent scheduling passes (after any attached via
    /// [`SchedOptions::observers`]).
    pub fn add_observer(&self, observer: Arc<dyn SchedObserver>) {
        let mut observers = self.rt.observers.lock();
        *observers = observers.iter().cloned().chain([observer]).collect();
    }

    /// The global scheduling policy this context was created with.
    pub fn policy(&self) -> ContextSchedPolicy {
        self.rt.policy
    }

    /// The underlying `clrt` context.
    pub fn cl(&self) -> &Context {
        &self.rt.cl
    }

    /// The platform (virtual clock, trace access).
    pub fn platform(&self) -> &Platform {
        &self.rt.platform
    }

    /// The measured static device profile.
    pub fn device_profile(&self) -> &DeviceProfile {
        &self.rt.device_profile
    }

    /// Snapshot of the scheduler counters.
    pub fn stats(&self) -> SchedStats {
        self.rt.stats.lock().clone()
    }

    /// Scheduling epochs completed so far (0 before the first pass) — the
    /// `epoch` value layered subsystems stamp onto the events they emit.
    pub fn current_epoch(&self) -> u64 {
        self.rt.sched_epoch.load(Ordering::Relaxed)
    }

    /// Health of one context device right now (fault plan + virtual clock).
    pub fn device_health(&self, device: DeviceId) -> DeviceHealth {
        self.rt.platform.with_engine(|e| {
            if e.device_lost(device) {
                DeviceHealth::Down
            } else if e.device_degradation(device) > 1.0 {
                DeviceHealth::Degraded
            } else {
                DeviceHealth::Healthy
            }
        })
    }

    /// Context devices currently usable — everything not permanently lost
    /// (degraded devices still count; they are slow, not gone). The serving
    /// layer scales its admission capacity by this.
    pub fn healthy_devices(&self) -> Vec<DeviceId> {
        let devices = self.rt.cl.devices().to_vec();
        self.rt
            .platform
            .with_engine(|e| devices.into_iter().filter(|&d| !e.device_lost(d)).collect())
    }

    /// Broadcast an event to every observer attached to this context. Lets
    /// layers built on top of the scheduler (e.g. the `served` job service)
    /// interleave their lifecycle events with the scheduler's own stream,
    /// so one JSONL sink captures both.
    pub fn emit_event(&self, event: &SchedEvent) {
        self.rt.emit(event);
    }

    /// The cached per-device profile of a kernel (estimated full execution
    /// time on each context device, device order), if it has been profiled.
    /// Exposes what the dynamic kernel profiler learned — useful for
    /// debugging scheduling decisions.
    pub fn kernel_profile(&self, kernel_name: &str) -> Option<Vec<SimDuration>> {
        self.rt.kernel_profiles.lock().get(kernel_name).cloned()
    }

    /// Names of every kernel the profiler has measured so far (sorted).
    pub fn profiled_kernels(&self) -> Vec<String> {
        let mut names: Vec<String> = self.rt.kernel_profiles.lock().keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Whether the cost predictor would serve a kernel with the given cost
    /// descriptor, launch shape, and total argument-buffer footprint on
    /// *every* device without falling back to profiling — i.e. the model is
    /// trained and its relative-error bound clears
    /// [`SchedOptions::predictor_confidence`] everywhere. Always `false`
    /// when prediction is disabled. Uses the requested shape on all devices
    /// (per-device shape clamping is a second-order effect at gate time).
    ///
    /// The serving layer uses this to skip warm-up work for job specs the
    /// model already covers; the scheduler itself applies the same gate
    /// per-device with exact effective shapes.
    pub fn predictor_confident(
        &self,
        cost: &KernelCostSpec,
        shape: NdRangeShape,
        arg_bytes: u64,
    ) -> bool {
        let threshold = self.rt.options.predictor_confidence;
        if threshold <= 0.0 {
            return false;
        }
        let f = KernelFeatures::describe(cost, shape, arg_bytes);
        let predictor = self.rt.predictor.lock();
        (0..predictor.device_count())
            .all(|di| predictor.predict(di, &f).is_some_and(|p| p.uncertainty <= threshold))
    }

    /// Training samples the cost predictor has folded in for one device
    /// (device order). Exposes model maturity for tests and dashboards.
    pub fn predictor_samples(&self, device_index: usize) -> u64 {
        self.rt.predictor.lock().samples(device_index)
    }

    /// `clCreateBuffer` passthrough.
    pub fn create_buffer(&self, byte_len: usize) -> ClResult<Buffer> {
        self.rt.cl.create_buffer(byte_len)
    }

    /// Typed buffer creation passthrough.
    pub fn create_buffer_of<T: clrt::buffer::Element>(&self, elements: usize) -> ClResult<Buffer> {
        self.rt.cl.create_buffer_of::<T>(elements)
    }

    /// `clCreateProgramWithSource` + `clBuildProgram`, with the MultiCL
    /// minikernel transformation pass (§V-C2) when enabled — which doubles
    /// the build time, "an initial setup cost that does not change the
    /// actual runtime of the program".
    pub fn create_program(&self, bodies: Vec<Arc<dyn KernelBody>>) -> ClResult<Program> {
        let program = self.rt.cl.create_program(bodies)?;
        program.build(u32::from(self.rt.options.minikernel))?;
        Ok(program)
    }

    /// Create an automatically scheduled command queue with the given local
    /// scheduling flags (§IV-B).
    ///
    /// OpenCL's `clCreateCommandQueue` still takes a device argument; the
    /// paper keeps that as the queue's *initial* binding, used until the
    /// scheduler triggers (and forever for `SCHED_OFF` queues). Auto queues
    /// created here receive round-robin initial bindings, mirroring how the
    /// SNU-NPB-MD codes spread their queues over the visible devices.
    pub fn create_queue(&self, flags: QueueSchedFlags) -> ClResult<SchedQueue> {
        flags.validate()?;
        if flags.contains(QueueSchedFlags::SCHED_OFF) {
            return Err(ClError::InvalidValue(
                "SCHED_OFF queues need an explicit device: use create_queue_on".into(),
            ));
        }
        let mut flags = flags;
        // Plain `SCHED_AUTO_*` without a trigger flag defaults to
        // kernel-epoch scheduling.
        if !flags.contains(QueueSchedFlags::SCHED_EXPLICIT_REGION)
            && !flags.contains(QueueSchedFlags::SCHED_KERNEL_EPOCH)
        {
            flags.insert(QueueSchedFlags::SCHED_KERNEL_EPOCH);
        }
        let devices = self.rt.cl.devices();
        let dev = devices[self.rt.created.fetch_add(1, Ordering::Relaxed) % devices.len()];
        self.make_queue(flags, dev)
    }

    /// Create a manually scheduled (`SCHED_OFF`) queue statically bound to
    /// `device` — stock OpenCL behaviour.
    pub fn create_queue_on(&self, device: DeviceId) -> ClResult<SchedQueue> {
        self.make_queue(QueueSchedFlags::SCHED_OFF, device)
    }

    fn make_queue(&self, flags: QueueSchedFlags, device: DeviceId) -> ClResult<SchedQueue> {
        // An OUT_OF_ORDER epoch flushes through the clrt queue in
        // out-of-order mode: commands wait only on their buffer-hazard
        // predecessors (tracked by the clrt time-plane hazard sets), not
        // the previous command.
        let cl = self.rt.cl.create_queue(device)?;
        cl.set_out_of_order(flags.contains(QueueSchedFlags::SCHED_OUT_OF_ORDER))?;
        let state = Arc::new(QueueState {
            id: self.rt.queue_ids.fetch_add(1, Ordering::Relaxed),
            cl,
            flags: AtomicU32::new(flags.bits()),
            pending: Mutex::new(Vec::new()),
            region_active: AtomicBool::new(false),
            epochs: AtomicU64::new(0),
            rr_bound: AtomicBool::new(false),
        });
        self.rt.queues.lock().push(Arc::downgrade(&state));
        Ok(SchedQueue { state, rt: Arc::clone(&self.rt) })
    }

    /// Synchronize every queue of the context: trigger scheduling, flush,
    /// and block until all devices drain.
    pub fn finish_all(&self) {
        self.rt.schedule_and_flush();
        for q in self.rt.alive_queues() {
            q.cl.finish();
        }
    }
}

impl RtInner {
    fn alive_queues(&self) -> Vec<Arc<QueueState>> {
        let mut queues = self.queues.lock();
        queues.retain(|w| w.strong_count() > 0);
        queues.iter().filter_map(Weak::upgrade).collect()
    }

    /// Deliver one event to every attached observer. The observer list is
    /// taken out first so no runtime lock is held while observer code runs.
    fn emit(&self, event: &SchedEvent) {
        let observers = Arc::clone(&self.observers.lock());
        for o in observers.iter() {
            o.on_event(event);
        }
    }

    /// The scheduler proper: runs at every synchronization trigger. One
    /// pass is a fixed sequence of phases — partition the pool, read device
    /// health, assign, announce+rebind+flush, attribute and refine, close
    /// the epoch — and every queue takes the same path through each.
    ///
    /// Stats are accumulated into a local delta and applied under a single
    /// `stats` lock per pass — the epoch hot path takes no per-queue or
    /// per-event stats locks.
    fn schedule_and_flush(&self) {
        // One pass at a time: concurrent submitters (e.g. the serving
        // layer's front-end threads) may all hit a trigger; the second one
        // waits and then finds the pool already drained, which is correct.
        let _one_pass = self.pass_lock.lock();
        let mut delta = SchedStats::default();
        let (pool, passthrough): (Vec<_>, Vec<_>) = self
            .alive_queues()
            .into_iter()
            .filter(|q| !q.pending.lock().is_empty())
            .partition(|q| q.participates());
        // Non-participating queues flush to their current binding.
        for q in &passthrough {
            self.flush(&[q], None, &mut delta);
        }
        if pool.is_empty() {
            self.apply_stats(&delta);
            return;
        }
        delta.sched_invocations += 1;
        let epoch = self.sched_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let began = self.platform.now();
        self.emit(&SchedEvent::EpochBegin {
            epoch,
            at: began,
            pool: pool.len(),
            policy: self.policy.to_string(),
        });
        let pass = self.device_health(epoch, &mut delta);
        let Assignment { devices: assignment, predicted, profiling } = match self.policy {
            ContextSchedPolicy::RoundRobin => self.assign_round_robin(&pool, &pass),
            ContextSchedPolicy::AutoFit => self.assign_auto_fit(&pool, &pass, began, &mut delta),
        };
        let refine_index = self.refine_snapshot(&pool);
        // Engine trace records carry their final stamps at submit time, so
        // the executed critical path of this epoch's flush is known as soon
        // as the issue loop returns: everything pushed past this watermark
        // belongs to the pool flush (migration transfers included).
        let flush_start = self.platform.now();
        let trace_offset = self.platform.with_engine(|e| e.trace().total_pushed());
        let passthrough_issued = delta.kernels_issued;
        self.rebind_and_flush(&pool, &assignment, &pass, &mut delta);
        self.apply_stats(&delta);
        // Predicted-vs-actual makespan attribution: the mapper's objective
        // against the executed critical path of the commands it just issued.
        let executed_end = self.platform.with_engine(|e| {
            e.trace().records_since(trace_offset).iter().map(|r| r.stamp.end).max()
        });
        if let (Some(predicted), Some(end)) = (predicted, executed_end) {
            self.emit(&SchedEvent::MakespanAttribution {
                epoch,
                at: self.platform.now(),
                policy: self.policy.to_string(),
                predicted,
                actual: end.saturating_since(flush_start),
            });
        }
        // Online refinement: fold the executed completions back into the
        // predictor before the epoch closes, so the decision log can
        // summarize predicted-vs-actual error per epoch.
        if !refine_index.is_empty() {
            self.refine_predictor(&refine_index, &pass.devices, trace_offset, epoch);
        }
        let done = self.platform.now();
        let dp = self.platform.data_plane_stats();
        // Measured copy/compute lane overlap of this epoch's flush window,
        // per device (0.0 where a device saw one lane or none).
        let lane_overlap: Vec<f64> = self.platform.with_engine(|e| {
            let lanes = hwsim::report::lane_utilization_of(e.trace().records_since(trace_offset));
            pass.devices
                .iter()
                .map(|d| lanes.get(d).map_or(0.0, |l| l.overlap_fraction()))
                .collect()
        });
        self.emit(&SchedEvent::EpochEnd {
            epoch,
            at: done,
            elapsed: done.saturating_since(began),
            profiling,
            kernels_issued: delta.kernels_issued - passthrough_issued,
            data_queue_depth: dp.queue_depth,
            data_peak_busy: dp.peak_busy_workers,
            commands_reordered: delta.commands_reordered,
            lane_overlap,
        });
    }

    /// Device-health phase: a device is lost once the fault plan's loss
    /// instant has passed on the virtual clock. Epoch boundaries are the
    /// recovery points — the pass blacklists lost devices and evacuates
    /// their queues through the normal mapping machinery, so recovery cost
    /// is charged like any other migration. Each loss is announced once.
    fn device_health(&self, epoch: u64, delta: &mut SchedStats) -> Pass {
        let devices = self.cl.devices().to_vec();
        let lost: Vec<bool> =
            self.platform.with_engine(|e| devices.iter().map(|&d| e.device_lost(d)).collect());
        let mut announced = self.down_announced.lock();
        for (&dev, &is_lost) in devices.iter().zip(&lost) {
            if is_lost && !announced.contains(&dev) {
                announced.push(dev);
                delta.devices_lost += 1;
                self.emit(&SchedEvent::DeviceDown { epoch, device: dev, at: self.platform.now() });
            }
        }
        drop(announced);
        Pass { epoch, devices, lost, capacity: Arc::clone(&self.capacity) }
    }

    /// ROUND_ROBIN assignment: "schedules the command queue to the next
    /// available device when the scheduler is triggered" (§IV-A) — each
    /// queue is bound once, the first time it reaches the scheduler, and
    /// keeps that binding (re-rotating every epoch would thrash data
    /// between devices).
    fn assign_round_robin(&self, pool: &[Arc<QueueState>], pass: &Pass) -> Assignment {
        let devices: Vec<DeviceId> = pool
            .iter()
            .map(|q| {
                let bound = q.rr_bound.swap(true, Ordering::Relaxed);
                let current = q.cl.device();
                let bindable = pass.bindable(Pass::need(&q.pending.lock()));
                // A binding is kept while the queue may stay there — which,
                // with nothing left to recover onto, includes a lost device
                // that holds its buffers: the commands fail with a typed
                // status.
                if bound && pass.index_of(current).is_some_and(&bindable) {
                    return current;
                }
                // First binding, or a re-bind off a device that was lost or
                // cannot hold this epoch's buffers: rotate to the next
                // device that can take the queue.
                loop {
                    let i = self.rr_next.fetch_add(1, Ordering::Relaxed) % pass.devices.len();
                    if bindable(i) {
                        return pass.devices[i];
                    }
                }
            })
            .collect();
        // ROUND_ROBIN publishes no objective, but the attribution still
        // wants a prediction to hold it accountable to. Use the warm
        // profile caches when they cover a queue and fall back to the
        // §V-B static model otherwise — pure reads either way, so the
        // prediction never perturbs the virtual clock or event stream.
        let mut per_device = vec![SimDuration::ZERO; pass.devices.len()];
        for (q, dev) in pool.iter().zip(&devices) {
            let pending = q.pending.lock();
            let b = match self.classify(q, &pending) {
                CostPlan::Profile { .. } => CostBreakdown {
                    exec: self.static_costs(q, &pending, &pass.devices),
                    migration: self.migration_vec(q, &pending, &pass.devices),
                    overlap: None,
                },
                plan => self.cost_row(q, &pending, &plan, &pass.devices),
            };
            if let Some(i) = pass.index_of(*dev) {
                per_device[i] += b.total(i);
            }
        }
        Assignment {
            devices,
            predicted: per_device.into_iter().max(),
            profiling: SimDuration::ZERO,
        }
    }

    /// AUTO_FIT assignment: one cost row per pool queue, then the mapper.
    fn assign_auto_fit(
        &self,
        pool: &[Arc<QueueState>],
        pass: &Pass,
        began: hwsim::SimTime,
        delta: &mut SchedStats,
    ) -> Assignment {
        let (epoch, devices) = (pass.epoch, &pass.devices);
        let breakdowns: Vec<CostBreakdown> =
            pool.iter().map(|q| self.queue_costs(q, pass, delta)).collect();
        // Virtual time the pass spent obtaining cost vectors (dynamic
        // profiling and its staging transfers are the only clock-advancing
        // work before the flush).
        let profiling = self.platform.now().saturating_since(began);
        let mut state = self.mapper_state.lock();
        let state = &mut *state;
        // Reuse the cost-matrix rows across epochs: the steady state re-fills
        // them without allocating.
        state.costs.resize_with(breakdowns.len(), Vec::new);
        for (row, b) in state.costs.iter_mut().zip(&breakdowns) {
            b.totals_into(row);
        }
        // Blacklist, per queue, the devices it may not be bound to — lost,
        // or too small for a buffer it binds — by overwriting those cells
        // with the sentinel: every mapper variant then avoids them while the
        // matrix keeps its global device indexing (explain records, warm
        // starts). With zero healthy devices the rows stay untouched — the
        // assignment is moot, the commands all fail with a typed status, and
        // an all-sentinel matrix would only distort the explain records.
        for (row, q) in state.costs.iter_mut().zip(pool) {
            let bindable = pass.bindable(Pass::need(&q.pending.lock()));
            for (di, c) in row.iter_mut().enumerate() {
                if !bindable(di) {
                    *c = mapper::UNAVAILABLE_COST;
                }
            }
        }
        // Warm start: each queue's current binding — exactly the previous
        // epoch's assignment for queues that stayed in the pool. Positions
        // are column indices into `devices`.
        state.warm.clear();
        let warm_valid = pool.iter().all(|q| {
            devices.iter().position(|&d| d == q.cl.device()).is_some_and(|i| {
                state.warm.push(DeviceId(i));
                true
            })
        });
        let warm = warm_valid.then_some(state.warm.as_slice());
        let mapper_began = std::time::Instant::now();
        let (mapper_name, outcome) = match self.options.mapper {
            MapperKind::Optimal => {
                ("optimal", mapper::adaptive(&state.costs, warm, u64::MAX, &mut state.scratch))
            }
            MapperKind::Greedy => (
                "greedy",
                mapper::SearchOutcome {
                    mapping: mapper::greedy(&state.costs),
                    nodes_explored: 0,
                    budget_tripped: false,
                },
            ),
            MapperKind::Adaptive => (
                "adaptive",
                mapper::adaptive(
                    &state.costs,
                    warm,
                    DEFAULT_ADAPTIVE_NODE_BUDGET,
                    &mut state.scratch,
                ),
            ),
        };
        let mapper_wall =
            SimDuration::from_nanos(mapper_began.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        let mapping = outcome.mapping;
        let decisions: Vec<QueueDecision> = pool
            .iter()
            .zip(&breakdowns)
            .zip(&mapping.assignment)
            .map(|((q, b), &dev)| QueueDecision {
                queue: q.id,
                exec_estimates: b.exec.clone(),
                migration_costs: b.migration.clone(),
                overlap_estimates: b.overlap.clone().unwrap_or_default(),
                chosen: devices[dev.index()],
                previous: q.cl.device(),
            })
            .collect();
        self.emit(&SchedEvent::MappingDecision {
            epoch,
            at: self.platform.now(),
            mapper: mapper_name.to_string(),
            makespan: mapping.makespan,
            nodes_explored: outcome.nodes_explored,
            budget_tripped: outcome.budget_tripped,
            mapper_wall,
            queues: decisions,
        });
        Assignment {
            devices: mapping.assignment.iter().map(|d| devices[d.index()]).collect(),
            predicted: Some(mapping.makespan),
            profiling,
        }
    }

    /// Snapshot what the predictor needs to learn from this flush: each
    /// distinct kernel's descriptor and first-seen launch geometry (the
    /// same approximation as the name-keyed profile cache), captured
    /// before the flush drains the pending lists. Empty when prediction is
    /// disabled.
    fn refine_snapshot(&self, pool: &[Arc<QueueState>]) -> HashMap<String, (Kernel, NdRange, u64)> {
        let mut index = HashMap::new();
        if self.options.predictor_confidence > 0.0 {
            for q in pool {
                for p in q.pending.lock().iter() {
                    if !index.contains_key(p.kernel.name()) {
                        let snapshot = (p.kernel.clone(), p.nd, p.args.buffer_bytes());
                        index.insert(p.kernel.name().to_string(), snapshot);
                    }
                }
            }
        }
        index
    }

    /// Announce+rebind+flush phase, queue by queue in pool order. A queue
    /// that changes device is announced first (a fault-driven evacuation
    /// and a cost-driven migration are different events). Out-of-order
    /// queues are flushed as one cross-queue batch after the in-order
    /// queues, so the reorderer sees every OOO command of the epoch;
    /// rebinds and migration events still happen per queue.
    fn rebind_and_flush(
        &self,
        pool: &[Arc<QueueState>],
        assignment: &[DeviceId],
        pass: &Pass,
        delta: &mut SchedStats,
    ) {
        let mut ooo_group: Vec<&Arc<QueueState>> = Vec::new();
        for (q, &to) in pool.iter().zip(assignment) {
            let from = q.cl.device();
            if from != to {
                let bytes = self.pending_nonresident_bytes(&q.pending.lock(), to);
                let (epoch, queue, at) = (pass.epoch, q.id, self.platform.now());
                // A fault-driven evacuation is not a cost-driven migration —
                // telemetry keeps the two apart (recovery latency is measured
                // DeviceDown → Remapped).
                self.emit(&if pass.is_lost(from) {
                    delta.queues_remapped += 1;
                    SchedEvent::Remapped { epoch, queue, from, to, bytes, at }
                } else {
                    SchedEvent::QueueMigrated { epoch, queue, from, to, bytes, at }
                });
            }
            q.cl.rebind(to).expect("mapper chose a context device");
            if q.flags().contains(QueueSchedFlags::SCHED_OUT_OF_ORDER) {
                ooo_group.push(q);
            } else {
                self.flush(&[q], Some(pass), delta);
            }
        }
        self.flush(&ooo_group, Some(pass), delta);
    }

    /// Fold a pass's accumulated stats delta into the shared counters —
    /// the single `stats` lock acquisition per scheduling pass.
    fn apply_stats(&self, delta: &SchedStats) {
        let mut stats = self.stats.lock();
        stats.sched_invocations += delta.sched_invocations;
        stats.profiled_epochs += delta.profiled_epochs;
        stats.cache_hits += delta.cache_hits;
        stats.kernels_predicted += delta.kernels_predicted;
        stats.predictor_fallbacks += delta.predictor_fallbacks;
        stats.kernels_issued += delta.kernels_issued;
        stats.commands_reordered += delta.commands_reordered;
        stats.devices_lost += delta.devices_lost;
        stats.queues_remapped += delta.queues_remapped;
        stats.kernels_split += delta.kernels_split;
    }

    /// How a queue's cost vector will be obtained this pass. `Static`,
    /// `Hit` and `Compose` are pure cache/profile reads; `Profile` must
    /// first run dynamic profiling, which mutates the virtual clock and
    /// buffer residency.
    fn classify(&self, q: &QueueState, pending: &[PendingKernel]) -> CostPlan {
        if q.flags().contains(QueueSchedFlags::SCHED_AUTO_STATIC) {
            return CostPlan::Static;
        }
        let key = epoch_key(pending);
        // §V-C1: iterative queues may force periodic re-profiling.
        let force = match (
            q.flags().contains(QueueSchedFlags::SCHED_ITERATIVE),
            self.options.iterative_frequency,
        ) {
            (true, Some(freq)) if freq > 0 => q.epochs.load(Ordering::Relaxed).is_multiple_of(freq),
            _ => false,
        };
        if !force {
            if self.epoch_profiles.lock().contains_key(&key) {
                return CostPlan::Hit(key);
            }
            // Compose from per-kernel profiles when every kernel is known.
            let kp = self.kernel_profiles.lock();
            if pending.iter().all(|p| kp.contains_key(p.kernel.name())) {
                return CostPlan::Compose(key);
            }
        }
        CostPlan::Profile { key, force }
    }

    /// The AUTO_FIT cost row of one pool queue, with the cache bookkeeping
    /// (§V-C): a queue the caches cannot serve is profiled first — charging
    /// virtual time and moving buffer residency, in pool order — and is
    /// then composed from the per-kernel rows like any warm queue.
    fn queue_costs(&self, q: &QueueState, pass: &Pass, delta: &mut SchedStats) -> CostBreakdown {
        let epoch = pass.epoch;
        let pending = q.pending.lock();
        let (plan, cached) = match self.classify(q, &pending) {
            CostPlan::Profile { key, force } => {
                self.emit(&SchedEvent::CacheMiss { epoch, key: key.clone() });
                self.profile_missing(q, &pending, pass, force, delta);
                (CostPlan::Compose(key), false)
            }
            plan => (plan, true),
        };
        let breakdown = self.cost_row(q, &pending, &plan, &pass.devices);
        let key = match plan {
            CostPlan::Hit(key) => key,
            CostPlan::Compose(key) => {
                self.epoch_profiles.lock().insert(key.clone(), breakdown.exec.clone());
                key
            }
            _ => return breakdown,
        };
        if cached {
            delta.cache_hits += 1;
            self.emit(&SchedEvent::CacheHit { epoch, key });
        }
        breakdown
    }

    /// The one cost-row evaluator: per-device cost terms for one queue's
    /// pending epoch, kept separate so the [`SchedEvent::MappingDecision`]
    /// explain record can show the execution and migration contributions
    /// individually. Touches only caches and buffer-residency snapshots —
    /// no events, no stats, no clock. The caches cannot change under us:
    /// only scheduling passes mutate them and `pass_lock` is held.
    fn cost_row(
        &self,
        q: &QueueState,
        pending: &[PendingKernel],
        plan: &CostPlan,
        devices: &[DeviceId],
    ) -> CostBreakdown {
        let exec = match plan {
            // §V-B: static mode ranks devices purely by the hint score —
            // "chooses the best available device for the given command
            // queue" — without dynamic knowledge of kernels or data.
            CostPlan::Static => {
                return CostBreakdown {
                    exec: self.static_costs(q, pending, devices),
                    migration: vec![SimDuration::ZERO; devices.len()],
                    overlap: None,
                }
            }
            CostPlan::Hit(key) => self
                .epoch_profiles
                .lock()
                .get(key)
                .cloned()
                .expect("classified as hit under pass_lock"),
            // Epoch estimate: sum the cached per-name rows over every launch.
            CostPlan::Compose(_) => {
                let kp = self.kernel_profiles.lock();
                let mut exec = vec![SimDuration::ZERO; devices.len()];
                for p in pending {
                    for (t, v) in exec.iter_mut().zip(&kp[p.kernel.name()]) {
                        *t += *v;
                    }
                }
                exec
            }
            CostPlan::Profile { .. } => unreachable!("profiled queues are composed"),
        };
        CostBreakdown {
            overlap: self.overlap_estimate(q, pending, devices),
            migration: self.migration_vec(q, pending, devices),
            exec,
        }
    }

    /// Predicted per-device data-migration cost of *choosing* each device:
    /// buffers the epoch reads that are not yet resident there, priced from
    /// the measured device profile ("we derive the data transfer costs
    /// based on the device profiles, and the kernel profiles provide the
    /// kernel execution costs"). No data actually moves here.
    ///
    /// Exception: explicit-region queues. The mapping decided inside the
    /// region persists for the rest of the program (that is the point of
    /// profiling the representative warmup region), so the one-time
    /// migration cost is amortized over many future epochs; charging it
    /// against every-epoch kernel costs would bias the mapper toward
    /// wherever the data happens to start.
    fn migration_vec(
        &self,
        q: &QueueState,
        pending: &[PendingKernel],
        devices: &[DeviceId],
    ) -> Vec<SimDuration> {
        if q.flags().contains(QueueSchedFlags::SCHED_EXPLICIT_REGION) {
            return vec![SimDuration::ZERO; devices.len()];
        }
        // One first-touch list for the whole row, cleared per device.
        let mut staged = Vec::new();
        devices
            .iter()
            .map(|&d| {
                staged.clear();
                pending.iter().map(|p| self.first_touch_transfer(p, d, &mut staged)).sum()
            })
            .collect()
    }

    /// The one flush routine: drain `group`'s buffered launches (pool
    /// order) into one command list, order it, and issue every command to
    /// its queue's (now final) device. Passthrough queues, in-order pool
    /// queues (a group of one) and the epoch's out-of-order batch all come
    /// through here. `pass` is `None` for queues outside the pool, which
    /// flush exactly as buffered: program order, whole launches.
    ///
    /// A `SCHED_OUT_OF_ORDER` group is emitted in Johnson's-rule
    /// list-schedule order over the hazard DAG of the launches' buffer
    /// read/write sets, so staging transfers of later commands overlap
    /// earlier kernels on each device's copy lane. Correctness does not
    /// depend on the order — the out-of-order clrt queues derive event wait
    /// lists from the same per-buffer hazards at submit time — the reorder
    /// only decides how the lanes interleave in virtual time.
    fn flush(&self, group: &[&Arc<QueueState>], pass: Option<&Pass>, delta: &mut SchedStats) {
        let mut cmds: Vec<PendingKernel> = Vec::new();
        // Where each queue's run ends in `cmds`. The last queue needs no
        // boundary, and the first run is moved rather than copied, so a
        // group of one allocates nothing here.
        let mut ends: Vec<usize> = Vec::new();
        for (gi, q) in group.iter().enumerate() {
            let mut pending: Vec<PendingKernel> = std::mem::take(&mut *q.pending.lock());
            if !pending.is_empty() {
                q.epochs.fetch_add(1, Ordering::Relaxed);
            }
            if cmds.is_empty() {
                cmds = pending;
            } else {
                cmds.append(&mut pending);
            }
            if gi + 1 < group.len() {
                ends.push(cmds.len());
            }
        }
        let owner = |i: usize| group[ends.iter().position(|&end| i < end).unwrap_or(ends.len())];
        let reorder = pass.is_some()
            && group.iter().all(|q| q.flags().contains(QueueSchedFlags::SCHED_OUT_OF_ORDER));
        // `None` = program order (no index vector on the in-order hot path).
        let order: Option<Vec<usize>> =
            reorder.then(|| self.johnson_order(&cmds, |i| owner(i).cl.device()));
        delta.kernels_issued += cmds.len() as u64;
        delta.commands_reordered += order.as_deref().map_or(0, ooo::count_displaced);
        for pos in 0..cmds.len() {
            let i = order.as_ref().map_or(pos, |o| o[pos]);
            self.issue_launch(owner(i), &cmds[i], pass, delta);
        }
    }

    /// Issue one buffered launch: as per-device chunks when its queue is a
    /// pool `SCHED_SPLITTABLE` queue and the launch can be partitioned,
    /// else whole on the queue's bound device.
    fn issue_launch(
        &self,
        q: &QueueState,
        p: &PendingKernel,
        pass: Option<&Pass>,
        delta: &mut SchedStats,
    ) {
        let split = q.flags().contains(QueueSchedFlags::SCHED_SPLITTABLE)
            && pass.is_some_and(|pass| self.try_split_launch(q, p, pass, delta));
        if !split {
            // Context membership and geometry were checked at enqueue time;
            // capacity too for a queue outside the pool, and the pass binds
            // a pool queue only where its buffers fit (`Pass::bindable`).
            q.cl.enqueue_ndrange_with_args(&p.kernel, p.nd, &p.args, &[])
                .expect("buffered launch was validated at enqueue time");
        }
    }

    /// Johnson's-rule emission order ([`ooo::johnson_order`]) of a drained
    /// out-of-order batch, command `i` costed on `device_of(i)`.
    fn johnson_order(
        &self,
        cmds: &[PendingKernel],
        device_of: impl Fn(usize) -> DeviceId,
    ) -> Vec<usize> {
        let node = self.platform.node();
        // First-touch transfer bookkeeping per destination device.
        let mut staged: HashMap<usize, Vec<u64>> = HashMap::new();
        let batch: Vec<ooo::BatchCmd> = cmds
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let dev = device_of(i);
                let kernel = p
                    .kernel
                    .cost()
                    .kernel_time(node.spec(dev), p.kernel.effective_nd(dev, p.nd).shape());
                let transfer =
                    self.first_touch_transfer(p, dev, staged.entry(dev.index()).or_default());
                batch_cmd(p, transfer, kernel)
            })
            .collect();
        ooo::johnson_order(&batch, &ooo::hazard_edges(&batch))
    }

    /// The split axis of a launch: the outermost (highest-index) dimension
    /// with more than one workgroup, if any. Splitting along the outermost
    /// dimension keeps each chunk's sub-range contiguous in the flattened
    /// iteration space.
    fn split_axis(nd: &NdRange) -> Option<usize> {
        (0..3).rev().find(|&d| nd.global[d].div_ceil(nd.local[d]) > 1)
    }

    /// Partition one pending launch over the devices eligible for it and
    /// issue the chunks. Returns `false` when the launch must run whole
    /// instead.
    fn try_split_launch(
        &self,
        q: &QueueState,
        p: &PendingKernel,
        pass: &Pass,
        delta: &mut SchedStats,
    ) -> bool {
        let (epoch, devices) = (pass.epoch, &pass.devices);
        let need = p.args.max_buffer_bytes();
        let eligible = |di: usize| pass.eligible(di, need);
        if !p.kernel.splittable() || (0..devices.len()).filter(|&di| eligible(di)).count() < 2 {
            return false;
        }
        let Some(axis) = Self::split_axis(&p.nd) else { return false };
        let units = p.nd.global[axis].div_ceil(p.nd.local[axis]);
        if units < SPLIT_MIN_WGS {
            return false;
        }
        // Per-device cost of one split unit: the kernel's profiled full
        // execution time when the profiler has a row, else the §V-B
        // analytic estimate — either divided by the unit count, then
        // stretched by the device's live degradation so a device running
        // behind its estimate is sized smaller. Ineligible devices are
        // unavailable (infinite cost).
        let node = self.platform.node();
        let profile_row = self.kernel_profiles.lock().get(p.kernel.name()).cloned();
        let degradation: Vec<f64> = self
            .platform
            .with_engine(|e| devices.iter().map(|&d| e.device_degradation(d)).collect());
        let per_wg_ns: Vec<f64> = devices
            .iter()
            .enumerate()
            .map(|(di, &dev)| {
                if !eligible(di) {
                    return f64::INFINITY;
                }
                let full = profile_row
                    .as_ref()
                    .and_then(|row| row.get(di))
                    .map(|d| d.as_nanos() as f64)
                    .filter(|&ns| ns > 0.0)
                    .unwrap_or_else(|| {
                        p.kernel
                            .cost()
                            .kernel_time(node.spec(dev), p.kernel.effective_nd(dev, p.nd).shape())
                            .as_nanos() as f64
                    });
                (full / units as f64).max(1e-9) * degradation[di].max(1.0)
            })
            .collect();
        let chunks = split::static_chunks(units, &per_wg_ns);
        if chunks.len() < 2 {
            return false;
        }
        let mut wgs_per_device = vec![0u64; devices.len()];
        for c in &chunks {
            wgs_per_device[c.device] += c.wg_count;
        }
        self.emit(&SchedEvent::KernelSplit {
            epoch,
            queue: q.id,
            kernel: p.kernel.name().to_string(),
            partitioner: "static".to_string(),
            total_wgs: units,
            chunks: chunks.len() as u64,
            wgs_per_device,
            at: self.platform.now(),
        });
        delta.kernels_split += 1;
        // Written buffers: gathered per chunk, finalized by the join
        // marker on the home queue.
        let written: Vec<Buffer> =
            p.args.touched().iter().filter(|t| t.write).map(|t| t.buf.clone()).collect();
        // The marker is the tail of the home queue's prior work: every
        // chunk orders after it, so the split inherits the queue's program
        // order without serializing against its siblings.
        // On an out-of-order home queue it also waits on the launch's
        // hazard predecessors, which the in-order lanes never consult.
        let start = [q.cl.enqueue_split_start(&p.args)];
        let mut gathers: Vec<Event> = Vec::with_capacity(chunks.len() * written.len());
        for c in &chunks {
            let lane = self.split_lane(c.device, devices[c.device]);
            let item_offset = c.wg_offset * p.nd.local[axis];
            let extent = (c.wg_count * p.nd.local[axis]).min(p.nd.global[axis] - item_offset);
            let mut chunk_nd = p.nd;
            chunk_nd.global[axis] = extent;
            let mut offset = [0u64; 3];
            offset[axis] = item_offset;
            let ev = lane
                .enqueue_ndrange_chunk(&p.kernel, chunk_nd, offset, &p.args, &start)
                .expect("chunk geometry derives from a validated launch");
            if written.is_empty() {
                gathers.push(ev);
            } else {
                let chunk_waits = [ev];
                for b in &written {
                    let bytes = (b.byte_len() as u64 * c.wg_count) / units;
                    gathers.push(
                        lane.enqueue_gather(b, bytes.max(1), &chunk_waits)
                            .expect("gather of a validated split output"),
                    );
                }
            }
        }
        q.cl.enqueue_split_join(&gathers, &written);
        true
    }

    /// The cached per-device in-order lane for split chunks, created on
    /// first use. Keyed by device *index*; the pass's device list is the
    /// context's, so a lane always stays on the device it was created for.
    fn split_lane(&self, device_index: usize, dev: DeviceId) -> CommandQueue {
        self.split_lanes
            .lock()
            .entry(device_index)
            .or_insert_with(|| {
                self.cl.create_queue(dev).expect("lane device comes from the context")
            })
            .clone()
    }

    /// §V-B: static selection from device profiles + queue hints only.
    fn static_costs(
        &self,
        q: &QueueState,
        pending: &[PendingKernel],
        devices: &[DeviceId],
    ) -> Vec<SimDuration> {
        let hint = if q.flags().contains(QueueSchedFlags::SCHED_COMPUTE_BOUND) {
            StaticHint::ComputeBound
        } else if q.flags().contains(QueueSchedFlags::SCHED_MEM_BOUND) {
            StaticHint::MemoryBound
        } else if q.flags().contains(QueueSchedFlags::SCHED_IO_BOUND) {
            StaticHint::IoBound
        } else {
            StaticHint::ComputeBound
        };
        let work: f64 = pending.iter().map(|p| p.nd.global_items() as f64).sum();
        devices
            .iter()
            .map(|&d| {
                let score = self.device_profile.static_score(d, hint).max(1e-9);
                // Work units over a throughput proxy: only the *relative*
                // magnitudes matter for the mapper.
                SimDuration::from_secs_f64(work / (score * 1e9))
            })
            .collect()
    }

    /// §V-C: the profiling step of a cache miss (or a forced re-profile).
    /// Profiles the *distinct kernel names* that lack a cached per-device
    /// row (paper §V-A: "we run the kernels once per device and store the
    /// corresponding execution times as part of the kernel profile";
    /// §V-C1: the cache key is the kernel name). An epoch that launches one
    /// kernel many times — MG's V-cycle, CG's inner steps — costs one
    /// profiling run per name, not per launch. Afterwards every pending
    /// kernel has a row in the kernel-profile cache.
    fn profile_missing(
        &self,
        q: &QueueState,
        pending: &[PendingKernel],
        pass: &Pass,
        force: bool,
        delta: &mut SchedStats,
    ) {
        let minikernel =
            self.options.minikernel && q.flags().contains(QueueSchedFlags::SCHED_COMPUTE_BOUND);
        let missing: Vec<&PendingKernel> = {
            let kp = self.kernel_profiles.lock();
            let mut seen: Vec<&str> = Vec::new();
            pending
                .iter()
                .filter(|p| {
                    let name = p.kernel.name();
                    if seen.contains(&name) {
                        return false;
                    }
                    seen.push(name);
                    force || !kp.contains_key(name)
                })
                .collect()
        };
        // Cold-start interception: before paying a profiling epoch, offer
        // each cold kernel to the cost predictor. Kernels whose per-device
        // predictions all clear the confidence gate get their rows served
        // from the model; the rest stay on the profiling path below.
        // Forced iterative re-profiles always measure — that is their
        // §V-C1 contract.
        let need = Pass::need(pending);
        let missing =
            if force { missing } else { self.predict_missing(missing, pass, need, delta) };
        if !missing.is_empty() {
            // Quiesce the data plane first: profiling reads buffer residency
            // and is the pass's wall-clock-sensitive section, so in-flight
            // kernel bodies and transfers from earlier epochs must not be
            // racing the measurements (virtual time is unaffected either
            // way — the planes are independent — but residency snapshots
            // and the mapper-wall numbers are not).
            self.platform.quiesce_data_plane();
            self.profile_kernels(&missing, pass, need, minikernel);
            delta.profiled_epochs += 1;
        }
    }

    /// Offer cold kernels to the cost predictor (the profiling bypass).
    /// For each kernel whose per-device predictions *all* clear the
    /// confidence gate, the predicted row — inflated by the model's own
    /// uncertainty, so the mapper only acts on advantages larger than the
    /// error bar — is cached exactly as a profiled row would be, and a
    /// [`SchedEvent::CostPredicted`] is emitted. Gate failures emit
    /// [`SchedEvent::PredictorFallback`] and are returned, in their
    /// original order, for dynamic profiling.
    fn predict_missing<'a>(
        &self,
        missing: Vec<&'a PendingKernel>,
        pass: &Pass,
        need: u64,
        delta: &mut SchedStats,
    ) -> Vec<&'a PendingKernel> {
        let (epoch, devices) = (pass.epoch, &pass.devices);
        let threshold = self.options.predictor_confidence;
        if threshold <= 0.0 || missing.is_empty() {
            return missing;
        }
        // Lost as of now — profiling earlier in this pass moves the clock —
        // or too small for the queue (`need`).
        let skip: Vec<bool> = self.platform.with_engine(|e| {
            (0..devices.len())
                .map(|di| e.device_lost(devices[di]) || !pass.eligible(di, need))
                .collect()
        });
        if skip.iter().all(|&s| s) {
            // Nothing eligible to predict for; the profiling path hands out
            // its all-zero sentinel rows in this state.
            return missing;
        }
        let mut still_missing = Vec::new();
        let mut events: Vec<SchedEvent> = Vec::new();
        let mut rows: Vec<(String, Vec<SimDuration>)> = Vec::new();
        {
            let predictor = self.predictor.lock();
            for p in missing {
                let name = p.kernel.name();
                let cost = p.kernel.cost();
                let arg_bytes = p.args.buffer_bytes();
                let mut row = vec![SimDuration::ZERO; devices.len()];
                let mut max_uncertainty: f64 = 0.0;
                let mut min_samples = u64::MAX;
                let mut untrained = false;
                let mut confident = true;
                for (di, &dev) in devices.iter().enumerate() {
                    if skip[di] {
                        // Zero entries are the established "unmeasured"
                        // sentinel; the epoch blacklist overwrites them
                        // before any mapping decision sees the row.
                        continue;
                    }
                    let shape = p.kernel.effective_nd(dev, p.nd).shape();
                    let f = KernelFeatures::describe(&cost, shape, arg_bytes);
                    match predictor.predict(di, &f) {
                        Some(pred) if pred.uncertainty <= threshold => {
                            row[di] = pred.time;
                            max_uncertainty = max_uncertainty.max(pred.uncertainty);
                            min_samples = min_samples.min(pred.samples);
                        }
                        Some(pred) => {
                            confident = false;
                            max_uncertainty = max_uncertainty.max(pred.uncertainty);
                        }
                        None => {
                            confident = false;
                            untrained = true;
                        }
                    }
                }
                if confident {
                    delta.kernels_predicted += 1;
                    events.push(SchedEvent::CostPredicted {
                        epoch,
                        kernel: name.to_string(),
                        costs: row.clone(),
                        uncertainty: max_uncertainty,
                        samples: if min_samples == u64::MAX { 0 } else { min_samples },
                    });
                    mapper::inflate_uncertain(&mut row, max_uncertainty);
                    rows.push((name.to_string(), row));
                } else {
                    delta.predictor_fallbacks += 1;
                    events.push(SchedEvent::PredictorFallback {
                        epoch,
                        kernel: name.to_string(),
                        reason: if untrained { "untrained" } else { "low_confidence" }.to_string(),
                        uncertainty: max_uncertainty,
                    });
                    still_missing.push(p);
                }
            }
        }
        if !rows.is_empty() {
            let mut kp = self.kernel_profiles.lock();
            for (name, row) in rows {
                kp.insert(name, row);
            }
        }
        // Events go out after the locks drop (observers may re-enter the
        // runtime), in pending order — deterministic across same-seed runs.
        for ev in &events {
            self.emit(ev);
        }
        still_missing
    }

    /// Fold this epoch's executed kernel completions back into the cost
    /// predictor (online refinement). Per (kernel, device) pair, the mean
    /// executed duration becomes one training observation; when the model
    /// already had a prediction for that point, a
    /// [`SchedEvent::PredictorRefined`] reports the predicted-vs-actual
    /// relative error. Aggregation iterates in `BTreeMap` order so the
    /// event stream stays bit-identical across same-seed runs.
    fn refine_predictor(
        &self,
        refine_index: &HashMap<String, (Kernel, NdRange, u64)>,
        devices: &[DeviceId],
        trace_offset: u64,
        epoch: u64,
    ) {
        let mut agg: BTreeMap<(String, usize), (SimDuration, u64)> = BTreeMap::new();
        self.platform.with_engine(|e| {
            for r in e.trace().records_since(trace_offset) {
                let CommandKind::Kernel { name } = &r.kind else { continue };
                if !refine_index.contains_key(name.as_ref()) {
                    continue;
                }
                let Some(di) = devices.iter().position(|&d| d == r.device) else { continue };
                let entry = agg.entry((name.to_string(), di)).or_insert((SimDuration::ZERO, 0));
                entry.0 += r.stamp.end.saturating_since(r.stamp.start);
                entry.1 += 1;
            }
        });
        if agg.is_empty() {
            return;
        }
        let mut events: Vec<SchedEvent> = Vec::new();
        {
            let mut predictor = self.predictor.lock();
            for ((name, di), (sum, count)) in &agg {
                let (kernel, nd, arg_bytes) = &refine_index[name];
                let dev = devices[*di];
                let shape = kernel.effective_nd(dev, *nd).shape();
                let f = KernelFeatures::describe(&kernel.cost(), shape, *arg_bytes);
                let actual = *sum / *count;
                let prior = predictor.predict(*di, &f);
                predictor.observe(*di, &f, actual);
                if let Some(p) = prior {
                    let a = actual.as_nanos().max(1) as f64;
                    let rel_error = (p.time.as_nanos() as f64 - a).abs() / a;
                    events.push(SchedEvent::PredictorRefined {
                        epoch,
                        kernel: name.clone(),
                        device: dev,
                        predicted: p.time,
                        actual,
                        rel_error,
                        samples: predictor.samples(*di),
                    });
                }
            }
            if self.options.predictor_persist {
                // Best effort, like the device-profile cache: an unwritable
                // directory only costs the next process a cold start.
                let _ = predictor.store(self.options.profile_cache.dir());
            }
        }
        for ev in &events {
            self.emit(ev);
        }
    }

    /// Run the given kernels once per device (full or minikernel),
    /// including the input-data staging transfers, all tagged
    /// [`PROFILING_TAG`] and charged to the virtual clock. Records the
    /// measured (estimated-full) per-device rows in the kernel-profile
    /// cache.
    fn profile_kernels(
        &self,
        pending: &[&PendingKernel],
        pass: &Pass,
        need: u64,
        minikernel: bool,
    ) {
        let (epoch, devices) = (pass.epoch, &pass.devices);
        // Every profiling command runs alone and to completion.
        fn charge(engine: &mut Engine, device: DeviceId, kind: CommandKind, duration: SimDuration) {
            let waits = hwsim::WaitList::new();
            let ev =
                engine.submit(CommandDesc { device, kind, duration, waits, queue: usize::MAX });
            engine.wait(ev);
        }
        let node = self.platform.node();
        // Unique input buffers of the profiled kernels (profiling must move
        // real data).
        let mut buffers: Vec<Buffer> = Vec::new();
        let mut seen: Vec<u64> = Vec::new();
        for t in pending.iter().flat_map(|p| p.args.touched()) {
            if first_seen(&mut seen, &t.buf) {
                buffers.push(t.buf.clone());
            }
        }
        let kernel_rows = self.platform.with_engine(|engine| {
            let prev_tag = engine.tag().map(str::to_owned);
            engine.set_tag(Some(PROFILING_TAG));
            // Seed an all-zero row per kernel up front so every profiled
            // name has an entry even if *no* device is probe-able (all
            // lost): zero rows are the established "unmeasured" sentinel
            // the epoch blacklist overwrites before mapping sees them.
            let mut kernel_rows: HashMap<String, Vec<SimDuration>> = HashMap::new();
            for p in pending {
                kernel_rows
                    .entry(p.kernel.name().to_string())
                    .or_insert_with(|| vec![SimDuration::ZERO; devices.len()]);
            }
            for (di, &dev) in devices.iter().enumerate() {
                // Don't stage data to (or probe) a device that is lost — as
                // of now: earlier probes moved the clock — or too small for
                // the queue (`need`): its row stays zero, which the epoch
                // blacklist overwrites with the sentinel before any mapping
                // decision sees it.
                if engine.device_lost(dev) || !pass.eligible(di, need) {
                    continue;
                }
                // Stage the inputs onto `dev` (§V-C3). With data caching
                // off, this is the paper's brute force: every destination
                // performs a full staged D2D (D2H from the source device,
                // then H2D), n−1 times in total. With caching on, one D2H
                // populates a host staging copy reused by every destination,
                // and destinations keep their copies for the real issue.
                for b in &buffers {
                    let res = b.residency();
                    if res.valid_on(dev) {
                        continue;
                    }
                    let bytes = b.byte_len() as u64;
                    let owner = res.devices.iter().next().copied();
                    let needs_d2h = if self.options.data_caching {
                        !res.host && owner.is_some()
                    } else {
                        // Brute force re-fetches from the source device for
                        // every destination, host copy or not.
                        owner.is_some()
                    };
                    if needs_d2h {
                        let src = owner.expect("checked above");
                        let d2h = node.topology.host_transfer_time(src, bytes, &node.devices);
                        let kind =
                            CommandKind::Transfer { kind: TransferKind::DeviceToHost, bytes };
                        charge(engine, src, kind, d2h);
                        if self.options.data_caching {
                            // The staged host copy is kept and reused for
                            // every subsequent destination device.
                            b.mark_host_valid();
                        }
                    }
                    let h2d = node.topology.host_transfer_time(dev, bytes, &node.devices);
                    let kind = CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes };
                    charge(engine, dev, kind, h2d);
                    if self.options.data_caching {
                        // Destination caching: the real issue will find the
                        // data already resident.
                        b.mark_resident(dev);
                    }
                }
                // Time each kernel once on `dev` (the launch geometry is
                // the first-seen one — the paper's name-keyed cache makes
                // the same approximation for kernels re-launched with
                // different shapes).
                let spec = node.spec(dev);
                for p in pending {
                    let nd = p.kernel.effective_nd(dev, p.nd);
                    let shape = nd.shape();
                    let cost = p.kernel.cost();
                    let (charged, estimated_full) = if minikernel {
                        let mini = cost.minikernel_time(spec, shape);
                        // Scale the single-workgroup probe to a full-kernel
                        // estimate: waves × one-wave ≈ full execution.
                        let conc = u64::from(spec.concurrent_workgroups.max(1));
                        let waves = shape.workgroups().div_ceil(conc);
                        (mini, mini * waves)
                    } else {
                        let full = cost.kernel_time(spec, shape);
                        (full, full)
                    };
                    let name: Arc<str> = if minikernel {
                        Arc::from(format!("mini_{}", p.kernel.name()))
                    } else {
                        Arc::from(p.kernel.name())
                    };
                    charge(engine, dev, CommandKind::Kernel { name }, charged);
                    kernel_rows
                        .get_mut(p.kernel.name())
                        .expect("every pending kernel's row was seeded above")[di] = estimated_full;
                }
            }
            engine.set_tag(prev_tag.as_deref());
            kernel_rows
        });
        // Record and announce outside the engine lock (observers may query
        // the platform clock).
        {
            let mut kp = self.kernel_profiles.lock();
            for (name, row) in &kernel_rows {
                kp.insert(name.clone(), row.clone());
            }
        }
        // Announce in name order: the map's iteration order is not
        // deterministic, and the event stream must be bit-identical across
        // same-seed runs.
        let mut announced: Vec<_> = kernel_rows.into_iter().collect();
        announced.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, row) in announced {
            self.emit(&SchedEvent::KernelProfiled { epoch, kernel: name, minikernel, costs: row });
        }
    }

    /// Buffer bytes referenced by `pending` that are not yet resident on
    /// `dev` — the data a migration to `dev` will actually move. Reported
    /// in [`SchedEvent::QueueMigrated`].
    fn pending_nonresident_bytes(&self, pending: &[PendingKernel], dev: DeviceId) -> u64 {
        let mut seen: Vec<u64> = Vec::new();
        let mut total = 0;
        for t in pending.iter().flat_map(|p| p.args.touched()) {
            if first_seen(&mut seen, &t.buf) && !t.buf.residency().valid_on(dev) {
                total += t.buf.byte_len() as u64;
            }
        }
        total
    }

    /// Lane-aware per-device makespan estimate for an out-of-order queue's
    /// pending epoch: Johnson's-rule list schedule over the hazard DAG,
    /// simulated on the device's copy and compute lanes
    /// ([`ooo::overlap_makespan`]). `None` unless the queue carries
    /// `SCHED_OUT_OF_ORDER` *and* every pending kernel already has a cached
    /// per-device profile row — without per-launch kernel times there is
    /// nothing lane-aware to schedule, and the serial sum stands.
    fn overlap_estimate(
        &self,
        q: &QueueState,
        pending: &[PendingKernel],
        devices: &[DeviceId],
    ) -> Option<Vec<SimDuration>> {
        if !q.flags().contains(QueueSchedFlags::SCHED_OUT_OF_ORDER) || pending.is_empty() {
            return None;
        }
        let rows: Vec<Vec<SimDuration>> = {
            let kp = self.kernel_profiles.lock();
            pending.iter().map(|p| kp.get(p.kernel.name()).cloned()).collect::<Option<_>>()?
        };
        // Explicit-region queues amortize migrations over the rest of the
        // program (see `migration_vec`), so their copy lane is free here.
        let explicit = q.flags().contains(QueueSchedFlags::SCHED_EXPLICIT_REGION);
        // The hazard sets are the same on every device; the lane times and
        // the first-touch list are refilled per device.
        let mut cmds: Vec<ooo::BatchCmd> =
            pending.iter().map(|p| batch_cmd(p, SimDuration::ZERO, SimDuration::ZERO)).collect();
        let mut staged: Vec<u64> = Vec::new();
        Some(
            devices
                .iter()
                .enumerate()
                .map(|(di, &dev)| {
                    staged.clear();
                    for ((cmd, p), row) in cmds.iter_mut().zip(pending).zip(&rows) {
                        cmd.kernel = row[di];
                        if !explicit {
                            cmd.transfer = self.first_touch_transfer(p, dev, &mut staged);
                        }
                    }
                    ooo::overlap_makespan(&cmds)
                })
                .collect(),
        )
    }

    /// Copy-lane estimate of one pending launch on `dev`: the predicted
    /// transfer time of the distinct buffers it binds that are neither
    /// resident on `dev` nor already attributed to an earlier launch of
    /// this epoch (`staged` carries the first-touch bookkeeping across the
    /// batch, in emission-estimate order).
    fn first_touch_transfer(
        &self,
        p: &PendingKernel,
        dev: DeviceId,
        staged: &mut Vec<u64>,
    ) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for b in p.args.touched().iter().map(|t| &t.buf).filter(|b| first_seen(staged, b)) {
            let bytes = b.byte_len() as u64;
            total += b.with_residency(|res| {
                if res.valid_on(dev) {
                    SimDuration::ZERO
                } else if res.host {
                    self.device_profile.host_transfer_time(dev, bytes)
                } else if let Some(&owner) = res.devices.iter().next() {
                    self.device_profile.d2d_transfer_time(owner, dev, bytes)
                } else {
                    SimDuration::ZERO
                }
            });
        }
        total
    }
}

/// Whether a walk over one or more launches' access sets touches `buf` for
/// the first time (`seen` is the walk's bookkeeping).
fn first_seen(seen: &mut Vec<u64>, buf: &Buffer) -> bool {
    let first = !seen.contains(&buf.id());
    if first {
        seen.push(buf.id());
    }
    first
}

/// A pending launch as the batch reorderer sees it: the buffer ids of its
/// access set as hazard sets, and its estimated time on the two lanes.
fn batch_cmd(p: &PendingKernel, transfer: SimDuration, kernel: SimDuration) -> ooo::BatchCmd {
    let ids =
        |write| p.args.touched().iter().filter(|t| t.write == write).map(|t| t.buf.id()).collect();
    ooo::BatchCmd { reads: ids(false), writes: ids(true), transfer, kernel }
}

/// Per-device cost terms for one queue's pending epoch, as the mapper sees
/// them: the estimated execution time plus the predicted data-migration
/// penalty of choosing each device.
struct CostBreakdown {
    exec: Vec<SimDuration>,
    migration: Vec<SimDuration>,
    /// Overlap-aware per-device makespan for out-of-order queues: the
    /// Johnson two-lane list-schedule estimate ([`ooo::overlap_makespan`])
    /// of the same pending commands, which the mapper prefers over the
    /// serial `exec + migration` sum when present. `None` for in-order
    /// queues and whenever per-kernel profile rows are not yet available.
    overlap: Option<Vec<SimDuration>>,
}

impl CostBreakdown {
    /// The combined per-device cost column handed to the mapper, written
    /// into a reused row buffer. Prefers the lane-aware overlap estimate
    /// when one exists — that is how `AUTO_FIT` sees the benefit of
    /// transfer/compute overlap on out-of-order queues.
    fn totals_into(&self, row: &mut Vec<SimDuration>) {
        row.clear();
        row.extend((0..self.exec.len()).map(|i| self.total(i)));
    }

    /// The mapper-visible total for one device column.
    fn total(&self, i: usize) -> SimDuration {
        match &self.overlap {
            Some(ov) => ov[i],
            None => self.exec[i] + self.migration[i],
        }
    }
}

/// How one pool queue's cost vector will be obtained this pass (see
/// [`RtInner::classify`]). The dynamic plans carry the epoch cache key.
enum CostPlan {
    /// §V-B static hint scores — pure arithmetic over the device profile.
    Static,
    /// The epoch cache already holds this key.
    Hit(String),
    /// Every kernel name has a cached per-device row; the epoch vector is
    /// their sum (and is inserted into the epoch cache afterwards).
    Compose(String),
    /// Dynamic profiling required first — cold kernels, or (`force`) an
    /// iterative queue's periodic re-profile — with virtual-clock and
    /// residency side effects; the queue is a `Compose` afterwards.
    Profile { key: String, force: bool },
}

/// What one scheduling pass knows about the context's devices.
struct Pass {
    epoch: u64,
    devices: Vec<DeviceId>,
    /// Per device (same order): permanently lost as of this pass.
    lost: Vec<bool>,
    /// Per device (same order): memory capacity in bytes.
    capacity: Arc<[u64]>,
}

impl Pass {
    fn index_of(&self, dev: DeviceId) -> Option<usize> {
        self.devices.iter().position(|&d| d == dev)
    }

    fn is_lost(&self, dev: DeviceId) -> bool {
        self.index_of(dev).is_some_and(|i| self.lost[i])
    }

    /// Bytes of the largest buffer `pending` binds — what a device must hold
    /// to run these launches (`CommandQueue::launch` checks the same figure
    /// against the device's memory on its own).
    fn need(pending: &[PendingKernel]) -> u64 {
        pending.iter().map(|p| p.args.max_buffer_bytes()).max().unwrap_or(0)
    }

    /// Whether device `di` is eligible for a queue whose pending launches
    /// bind buffers of up to `need` bytes ([`Pass::need`]): it is not
    /// lost *and* holds every one of them. `Context::create_buffer` admits
    /// a buffer that fits the context's largest device, so fitting one
    /// device says nothing about the next.
    fn eligible(&self, di: usize, need: u64) -> bool {
        !self.lost[di] && need <= self.capacity[di]
    }

    /// Where a queue with that `need` may be bound: on its eligible
    /// devices — or, with none left, on any device that holds its buffers,
    /// lost or not. There is nothing to recover onto then, and a lost
    /// device fails the commands with the fault path's typed status, where
    /// a live one that is too small would refuse the launch outright. (Some
    /// device always holds them: the buffers come from this context.)
    fn bindable(&self, need: u64) -> impl Fn(usize) -> bool + '_ {
        let recover = (0..self.devices.len()).any(|di| self.eligible(di, need));
        move |di| need <= self.capacity[di] && !(recover && self.lost[di])
    }
}

/// Outcome of a pass's assign phase.
struct Assignment {
    /// The device each pool queue flushes to (pool order).
    devices: Vec<DeviceId>,
    /// The policy's own makespan objective for the epoch, for the
    /// predicted-vs-actual attribution emitted after the flush.
    predicted: Option<SimDuration>,
    /// Virtual time the phase spent obtaining cost vectors.
    profiling: SimDuration,
}

/// Build the epoch cache key: the multiset of kernel names (§V-C1, "the key
/// for a kernel epoch is just the set of the participating kernel names").
fn epoch_key(pending: &[PendingKernel]) -> String {
    let mut names: Vec<&str> = pending.iter().map(|p| p.kernel.name()).collect();
    names.sort_unstable();
    names.join("+")
}

/// A scheduling-aware user command queue (`clCreateCommandQueue` with the
/// proposed scheduling properties).
#[derive(Clone)]
pub struct SchedQueue {
    state: Arc<QueueState>,
    rt: Arc<RtInner>,
}

impl SchedQueue {
    /// The queue's local scheduling flags as they stand now: the creation
    /// flags, with the execution hints last set by
    /// [`Self::set_sched_hints`].
    pub fn flags(&self) -> QueueSchedFlags {
        self.state.flags()
    }

    /// Stable queue id within the context (creation order) — the id
    /// telemetry events report for this queue.
    pub fn id(&self) -> usize {
        self.state.id
    }

    /// The device the queue is currently bound to (before the first
    /// scheduling trigger this is the creation-time binding).
    pub fn device(&self) -> DeviceId {
        self.state.cl.device()
    }

    /// The id recorded in the `queue` field of engine [`hwsim::TraceRecord`]s
    /// produced by this queue's commands — lets callers attribute trace
    /// records (and thus completion times) back to the queue that issued
    /// them. Distinct from [`Self::id`], which is the telemetry-facing
    /// context-creation-order id.
    pub fn trace_id(&self) -> usize {
        self.state.cl.trace_id()
    }

    /// `clSetCommandQueueSchedProperty` (§IV-B): start (`true`) or stop
    /// (`false`) the explicit scheduling region. Stopping triggers a
    /// scheduling pass so the region's pending work is mapped before the
    /// region closes.
    pub fn set_sched_property(&self, auto: bool) -> ClResult<()> {
        if !self.state.flags().contains(QueueSchedFlags::SCHED_EXPLICIT_REGION) {
            return Err(ClError::InvalidOperation(
                "set_sched_property requires SCHED_EXPLICIT_REGION".into(),
            ));
        }
        if auto {
            self.state.region_active.store(true, Ordering::Relaxed);
        } else {
            self.rt.schedule_and_flush();
            self.state.region_active.store(false, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The run-time half of `clSetCommandQueueSchedProperty` (§IV-B: the
    /// local flags are hints a program may re-set between regions) for the
    /// two execution bits: replace the queue's `SCHED_OUT_OF_ORDER` /
    /// `SCHED_SPLITTABLE` hints with exactly `hints`, effective from the
    /// next pass. The creation flags are the initial hints.
    ///
    /// `InvalidValue` if `hints` carries any other bit; `InvalidOperation`
    /// on a queue that is not automatically scheduled, and — when the call
    /// would change a hint — on a queue with launches pending (an epoch
    /// executes under one mode) or with flushed commands still in flight
    /// ([`CommandQueue::set_out_of_order`]): synchronize first.
    pub fn set_sched_hints(&self, hints: QueueSchedFlags) -> ClResult<()> {
        let settable = QueueSchedFlags::SCHED_OUT_OF_ORDER | QueueSchedFlags::SCHED_SPLITTABLE;
        if !settable.contains(hints) {
            return Err(ClError::InvalidValue(format!(
                "set_sched_hints takes {settable} only, got {hints}"
            )));
        }
        if !self.state.flags().is_auto() {
            return Err(ClError::InvalidOperation(
                "set_sched_hints requires an automatically scheduled queue".into(),
            ));
        }
        let mut flags = self.state.flags();
        flags.remove(settable);
        flags.insert(hints);
        if flags == self.state.flags() {
            return Ok(());
        }
        // No pass may be reading this queue's flags while they change.
        let _no_pass = self.rt.pass_lock.lock();
        if !self.state.pending.lock().is_empty() {
            return Err(ClError::InvalidOperation(
                "set_sched_hints with launches pending: synchronize the queue first".into(),
            ));
        }
        self.state.cl.set_out_of_order(hints.contains(QueueSchedFlags::SCHED_OUT_OF_ORDER))?;
        self.state.flags.store(flags.bits(), Ordering::Relaxed);
        Ok(())
    }

    /// Buffer a kernel launch into the current epoch. The argument bindings
    /// are snapshotted and checked against the queue's context now; the
    /// launch is issued at the next trigger.
    pub fn enqueue_ndrange(&self, kernel: &Kernel, nd: NdRange) -> ClResult<()> {
        nd.validate()?;
        let args = kernel.snapshot_args()?;
        // A foreign kernel or buffer is an error now, not a panic at flush.
        self.state.cl.validate_launch(kernel, &args)?;
        // A queue outside the pool flushes to the device it is bound to
        // now, so a buffer that does not fit there is an error now too; a
        // pool queue is placed by the pass, on a device its buffers fit.
        if !self.state.participates() {
            self.state.cl.check_capacity(kernel, &args)?;
        }
        self.state.pending.lock().push(PendingKernel { kernel: kernel.clone(), nd, args });
        Ok(())
    }

    /// `clFlush`: trigger a scheduling pass and issue everything buffered,
    /// without blocking on the devices. Calling it after every enqueue is
    /// the per-kernel trigger granularity the paper rejects (§V-A: "that
    /// approach can cause significant runtime overhead due to potential
    /// cross-device data migration") — the `ablation` experiment does
    /// exactly that to reproduce the pathology.
    pub fn flush(&self) {
        self.rt.schedule_and_flush();
    }

    /// `clEnqueueWriteBuffer`. Writes are not scheduled: they execute on the
    /// queue's current device binding immediately (they define where the
    /// data initially lives — the "source device" of later profiling). If
    /// kernels are already pending on this queue, the write first forces an
    /// epoch boundary to preserve in-order semantics.
    pub fn enqueue_write<T: clrt::buffer::Element>(
        &self,
        buf: &Buffer,
        data: &[T],
    ) -> ClResult<()> {
        if !self.state.pending.lock().is_empty() {
            self.rt.schedule_and_flush();
        }
        self.state.cl.enqueue_write(buf, data)?;
        Ok(())
    }

    /// `clEnqueueReadBuffer` (blocking). Forces a scheduling trigger (it is
    /// a synchronization point), then reads back from wherever the data
    /// lives.
    pub fn enqueue_read<T: clrt::buffer::Element>(
        &self,
        buf: &Buffer,
        out: &mut [T],
    ) -> ClResult<()> {
        self.rt.schedule_and_flush();
        self.state.cl.enqueue_read(buf, out)?;
        Ok(())
    }

    /// `clFinish`: trigger scheduling for the context's queue pool, flush,
    /// and block until this queue drains.
    pub fn finish(&self) {
        self.rt.schedule_and_flush();
        self.state.cl.finish();
    }

    /// Number of launches currently buffered (not yet scheduled).
    pub fn pending_len(&self) -> usize {
        self.state.pending.lock().len()
    }
}

impl std::fmt::Debug for SchedQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SchedQueue(flags={}, device={})", self.state.flags(), self.device())
    }
}

#[cfg(test)]
mod tests {
    use super::env_flag_enabled;
    use std::ffi::OsStr;

    #[test]
    fn debug_env_flag_off_values_stay_off() {
        for off in [
            None,
            Some(""),
            Some("0"),
            Some("false"),
            Some("FALSE"),
            Some("off"),
            Some("Off"),
            Some("  "),
            Some(" 0 "),
        ] {
            assert!(!env_flag_enabled(off.map(OsStr::new)), "{off:?} should disable");
        }
    }

    #[test]
    fn debug_env_flag_on_values_enable() {
        for on in ["1", "true", "yes", "verbose", "2"] {
            assert!(env_flag_enabled(Some(OsStr::new(on))), "{on:?} should enable");
        }
    }
}
