//! The MultiCL runtime: scheduling-aware contexts and command queues
//! (paper §V, Figure 1).
//!
//! A [`MulticlContext`] wraps a `clrt` context with a global scheduling
//! policy. [`SchedQueue`]s created from it are *user* queues: their kernel
//! launches are buffered into the current synchronization epoch. At a
//! trigger (a `finish`, a blocking read, or an explicit-region stop), the
//! runtime collects every queue with pending work (the **queue pool**) and
//! runs one scheduling pass over it, in three phases:
//!
//! 1. **measure** — the only phase that reads device health, the profile
//!    caches or the clock: each pool queue's per-device execution row, from
//!    the kernel/epoch profile cache when warm, else by **dynamic kernel
//!    profiling** (§V-C), or from the static device profile (§V-B), and
//!    then one [`PassInput`] snapshot of the facts the rest of the pass
//!    reads — every launch's buffer accesses and kernel times, every
//!    buffer's transfer to each device — and no price;
//! 2. **decide** — [`plan::decide`], a pure function of that snapshot: the
//!    cost rows it prices (each queue's launches replayed alone, split units),
//!    the queue→device mapping (AutoFit = makespan minimization; RoundRobin
//!    = cyclic), the out-of-order issue order and the split shares;
//! 3. **issue** — announces, rebinds and enqueues what the [`Plan`] says.
//!
//! `SCHED_OFF` queues bypass all of this: their commands pass straight
//! through to the statically chosen device, exactly like stock SnuCL.
//!
//! Set the `MULTICL_DEBUG` environment variable to print each scheduling
//! decision (per-queue cost vectors and the chosen assignment) to stderr.
//! Values `0`, `false`, `off`, and the empty string leave it disabled.

use crate::flags::{ContextSchedPolicy, QueueSchedFlags};
use crate::mapper;
use crate::plan::{self, LaunchInput, PassInput, Plan, PlanScratch, QueueInput, SplitInput, Touch};
use crate::predictor::{CostPredictor, KernelFeatures};
use crate::profile::{DeviceProfile, ProfileCache, StaticHint};
use crate::split;
use crate::telemetry::event::{QueueDecision, SchedEvent};
use crate::telemetry::{SchedObserver, StderrSink};
use clrt::buffer::Source;
use clrt::error::{ClError, ClResult};
use clrt::{
    BoundArgs, Buffer, CommandQueue, Context, Kernel, KernelBody, NdRange, Platform, Program,
};
use hwsim::cost::{KernelCostSpec, NdRangeShape};
use hwsim::engine::{CommandDesc, CommandKind, Engine, EventId};
use hwsim::sync::Mutex;
use hwsim::topology::TransferKind;
use hwsim::{CommandStatus, DeviceId, FaultKind, SimDuration};
use std::collections::HashMap;
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
    /// Exact makespan minimization (the paper's dynamic-programming mapper),
    /// warm-started from the previous epoch's assignment and symmetry-pruned,
    /// under [`DEFAULT_ADAPTIVE_NODE_BUDGET`] explored nodes; past the
    /// budget, falls back to the incumbent (greedy refined by local search —
    /// never worse than greedy). Optimal in the paper's small-pool regime,
    /// bounded decision cost at serving scale.
    #[default]
    Adaptive,
    /// Longest-processing-time greedy heuristic — an ablation point showing
    /// what the optimality guarantee buys.
    Greedy,
}

/// Runtime options: the overhead-reduction strategies (all enabled by
/// default; the figure harness toggles them for the ablation experiments),
/// the mapper, and the cost predictor (off by default).
#[derive(Clone)]
pub struct SchedOptions {
    /// §V-C3: stage profiling inputs through the host once (1×D2H + (n−1)×H2D
    /// instead of (n−1)×(D2H+H2D)) and cache the destination copies.
    pub data_caching: bool,
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
            iterative_frequency: std::env::var(ITER_FREQ_ENV)
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&f| f > 0),
            profile_cache: ProfileCache::default_location(),
            mapper: MapperKind::Adaptive,
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

impl std::fmt::Debug for SchedOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedOptions")
            .field("data_caching", &self.data_caching)
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
    /// Profiling windows, despite the name: one per pool queue per pass that
    /// had kernels to profile, so a first epoch over four cold queues counts
    /// four. `perf` reads it under this name.
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
    /// Always 0: an out-of-order epoch issues in program order. Kept
    /// because benchmark reports read it (DESIGN.md §14).
    pub commands_reordered: u64,
    /// Devices detected as permanently lost and blacklisted.
    pub devices_lost: u64,
    /// Queues evacuated off lost devices (fault-driven rebinds).
    pub queues_remapped: u64,
    /// Splittable kernel launches actually partitioned into multi-device
    /// sub-ranges (launches that fell back to a whole launch don't count).
    pub kernels_split: u64,
    /// Always 0: a split chunk runs on the device it was sized for. Kept
    /// because benchmark reports read it (DESIGN.md §14).
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
    /// Whether a pass has bound this queue (ROUND_ROBIN keeps the binding
    /// it made when the queue first reached the scheduler).
    bound: AtomicBool,
}

impl QueueState {
    /// The queue's current flags. Hints change only under `pass_lock` and
    /// only while nothing is pending, so every read a pass makes of one
    /// pool queue sees the same value; the word publishes no other data.
    fn flags(&self) -> QueueSchedFlags {
        QueueSchedFlags::from_bits(self.flags.load(Ordering::Relaxed))
    }

    /// True if this queue's pending work participates in automatic
    /// scheduling at the next trigger (KERNEL_EPOCH is an auto queue's
    /// default trigger).
    fn participates(&self) -> bool {
        let flags = self.flags();
        let region = flags.contains(QueueSchedFlags::SCHED_EXPLICIT_REGION);
        flags.is_auto() && (!region || self.region_active.load(Ordering::Relaxed))
    }
}

struct RtInner {
    cl: Context,
    platform: Platform,
    policy: ContextSchedPolicy,
    options: SchedOptions,
    device_profile: DeviceProfile,
    /// Kernel-name → its profile (§V-C1), names and rows shared by
    /// reference count.
    kernel_profiles: Mutex<HashMap<Arc<str>, KernelProfile>>,
    /// Online per-device regression over kernel descriptor features: with
    /// [`SchedOptions::predictor_confidence`] positive, a confident
    /// prediction serves an unseen kernel's row without profiling.
    predictor: Mutex<CostPredictor>,
    /// Epoch-key → aggregate execution time per device (§V-C1).
    epoch_profiles: Mutex<HashMap<Arc<str>, Arc<[SimDuration]>>>,
    /// The policy and mapper names every `EpochBegin`,
    /// `MakespanAttribution` and `MappingDecision` carries, made once.
    policy_label: Arc<str>,
    mapper_label: Arc<str>,
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
    /// Serializes scheduling passes: queues may be driven from several
    /// threads, and two interleaved passes could issue a queue twice.
    pass_lock: Mutex<()>,
    /// What a pass works in, reused from one pass to the next; `finish_all`
    /// borrows its queue list between passes.
    mapper_state: Mutex<PassScratch>,
    /// Per-device in-order lanes split launches run their chunks on, by
    /// device column, made once rather than per split.
    split_lanes: Mutex<HashMap<usize, CommandQueue>>,
}

/// What a scheduling pass fills and reads back, kept from pass to pass so
/// that a steady epoch allocates only what it hands on: cost rows, event
/// payloads and the commands it issues. What holds a queue or a kernel is
/// emptied before the pass returns.
#[derive(Default)]
struct PassScratch {
    /// The pass's participating queues with pending work.
    pool: Vec<Arc<QueueState>>,
    /// What measure snapshots, decide plans, and decide works in.
    input: PassInput,
    plan: Plan,
    decide: PlanScratch,
    lanes: hwsim::report::LaneScratch,
    work: Work,
}

/// What measure and issue work in.
#[derive(Default)]
struct Work {
    /// The pass's stats, applied under one `stats` lock when it ends.
    delta: SchedStats,
    key: EpochKey,
    /// Per buffer slot of the snapshot: the buffer's id, which is how
    /// measure finds a buffer's slot again.
    buffers: Vec<u64>,
    /// The launches one issue drained, in launch order, kept for
    /// refinement until the pass ends.
    cmds: Vec<PendingKernel>,
    /// What refinement sums per kernel, device and chunk shape.
    refined: Vec<Refined>,
    /// Events a step holds until its locks drop; empty between steps.
    events: Vec<SchedEvent>,
}

/// One kernel's entry in the profile cache (§V-C1).
struct KernelProfile {
    /// Its estimated full execution time per device.
    row: Arc<[SimDuration]>,
    /// For a row predicted while a device ran degraded, the degradation in
    /// force per device then: the model learns from executed stamps, so
    /// such a row carries the slowdown, and decide divides it out before it
    /// applies the live one. A profiled row is the cost model's, and one
    /// predicted on a healthy node carries none: `None`.
    under: Option<Arc<[f64]>>,
}

/// The commands of one kernel on one device column at one geometry, whole
/// launches or split chunks, as refinement sums them: the shape they ran
/// at and the argument bytes of the launch they came from.
struct Refined {
    name: Arc<str>,
    /// Chunks or whole launches, the device column, the shape and the
    /// argument bytes.
    key: (bool, usize, NdRangeShape, u64),
    cost: KernelCostSpec,
    sum: SimDuration,
    count: u64,
}

impl Refined {
    /// Refinement's fold order: whole launches, then chunks, each by
    /// (name, device, global, local, argument bytes).
    fn order(&self) -> (bool, &str, usize, u64, u64, u64) {
        let (chunk, di, shape, bytes) = self.key;
        (chunk, &self.name, di, shape.global_items, shape.local_items, bytes)
    }
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
        let mapper_label = match options.mapper {
            MapperKind::Greedy => "greedy",
            MapperKind::Adaptive => "adaptive",
        };
        // A context's devices never change: what prices a split chunk and
        // its gather on each is read once.
        let node = platform.node();
        let input = PassInput {
            specs: cl.devices().iter().map(|&d| node.spec(d).clone()).collect(),
            links: cl.devices().iter().map(|d| device_profile.h2d[d.index()].clone()).collect(),
            ..PassInput::default()
        };
        let ctx = MulticlContext {
            rt: Arc::new(RtInner {
                cl,
                platform: platform.clone(),
                policy,
                options,
                device_profile,
                kernel_profiles: Mutex::new(HashMap::new()),
                predictor: Mutex::new(predictor),
                epoch_profiles: Mutex::new(HashMap::new()),
                policy_label: policy.to_string().into(),
                mapper_label: mapper_label.into(),
                queues: Mutex::new(Vec::new()),
                rr_next: AtomicUsize::new(0),
                created: AtomicUsize::new(0),
                queue_ids: AtomicUsize::new(0),
                stats: Mutex::new(SchedStats::default()),
                down_announced: Mutex::new(Vec::new()),
                sched_epoch: AtomicU64::new(0),
                observers: Mutex::new(observers.into()),
                pass_lock: Mutex::new(()),
                mapper_state: Mutex::new(PassScratch { input, ..PassScratch::default() }),
                split_lanes: Mutex::new(HashMap::new()),
            }),
        };
        // Announce how the static device profile was obtained (a disk cache
        // hit vs a fresh measurement charging virtual time), now that the
        // observer list exists to hear it.
        let key: Arc<str> = "device_profile".into();
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
    /// (degraded devices still count; they are slow, not gone).
    pub fn healthy_devices(&self) -> Vec<DeviceId> {
        let devices = self.rt.cl.devices().iter().copied();
        self.rt.platform.with_engine(|e| devices.filter(|&d| !e.device_lost(d)).collect())
    }

    /// How many [`Self::healthy_devices`] there are, counted under one
    /// engine lock. The serving layer scales its admission capacity by this.
    pub fn healthy_device_count(&self) -> usize {
        let devices = self.rt.cl.devices().iter();
        self.rt.platform.with_engine(|e| devices.filter(|&&d| !e.device_lost(d)).count())
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
        self.rt.kernel_profiles.lock().get(kernel_name).map(|p| p.row.to_vec())
    }

    /// Names of every kernel the profiler has measured so far (sorted).
    pub fn profiled_kernels(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.rt.kernel_profiles.lock().keys().map(|name| name.to_string()).collect();
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
    /// minikernel transformation pass (§V-C2) — which doubles the build
    /// time, "an initial setup cost that does not change the actual runtime
    /// of the program".
    pub fn create_program(&self, bodies: Vec<Arc<dyn KernelBody>>) -> ClResult<Program> {
        let program = self.rt.cl.create_program(bodies)?;
        program.build(1)?;
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
        // An OUT_OF_ORDER queue's commands wait only on their buffer-hazard
        // predecessors, not on the previous command.
        let cl = self.rt.cl.create_queue(device)?;
        cl.set_out_of_order(flags.contains(QueueSchedFlags::SCHED_OUT_OF_ORDER))?;
        let state = Arc::new(QueueState {
            id: self.rt.queue_ids.fetch_add(1, Ordering::Relaxed),
            cl,
            flags: AtomicU32::new(flags.bits()),
            pending: Mutex::new(Vec::new()),
            region_active: AtomicBool::new(false),
            epochs: AtomicU64::new(0),
            bound: AtomicBool::new(false),
        });
        self.rt.queues.lock().push(Arc::downgrade(&state));
        Ok(SchedQueue { state, rt: Arc::clone(&self.rt) })
    }

    /// Synchronize every queue of the context: trigger scheduling, flush,
    /// and block until all devices drain.
    pub fn finish_all(&self) {
        self.rt.schedule_and_flush();
        let mut queues = std::mem::take(&mut self.rt.mapper_state.lock().pool);
        self.rt.alive_queues(&mut queues);
        for q in queues.drain(..) {
            q.cl.finish();
        }
        self.rt.mapper_state.lock().pool = queues;
    }
}

impl RtInner {
    /// The context's live queues, in creation order, into `out`.
    fn alive_queues(&self, out: &mut Vec<Arc<QueueState>>) {
        let mut queues = self.queues.lock();
        queues.retain(|w| w.strong_count() > 0);
        out.clear();
        out.extend(queues.iter().filter_map(Weak::upgrade));
    }

    /// Deliver one event to every attached observer. The observer list is
    /// taken out first so no runtime lock is held while observer code runs.
    fn emit(&self, event: &SchedEvent) {
        let observers = Arc::clone(&self.observers.lock());
        for o in observers.iter() {
            o.on_event(event);
        }
    }

    /// The scheduler proper, at every synchronization trigger: queues outside
    /// the pool flush as buffered, then the pool goes through measure →
    /// decide → issue, and the epoch's attribution and refinement follow.
    /// Stats gather in the pass's delta, applied under one `stats` lock.
    fn schedule_and_flush(&self) {
        // Concurrent triggers wait here and then find the pool drained.
        let _one_pass = self.pass_lock.lock();
        let mut scratch = self.mapper_state.lock();
        let PassScratch { pool, input, plan, decide, lanes, work } = &mut *scratch;
        work.delta = SchedStats::default();
        self.alive_queues(pool);
        pool.retain(|q| !q.pending.lock().is_empty());
        // Non-participating queues flush to their current binding.
        for q in pool.extract_if(.., |q| !q.participates()) {
            self.passthrough(&q, work);
        }
        if pool.is_empty() {
            self.apply_stats(&work.delta);
            return;
        }
        work.delta.sched_invocations += 1;
        let epoch = self.sched_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let began = self.platform.now();
        self.emit(&SchedEvent::EpochBegin {
            epoch,
            at: began,
            pool: pool.len(),
            policy: Arc::clone(&self.policy_label),
        });
        let profiling = self.measure(epoch, began, pool, input, work);
        let decided = std::time::Instant::now();
        plan::decide(input, decide, plan);
        if let Some(search) = &plan.search {
            let wall = decided.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let queues = pool.iter().zip(&plan.costs).zip(&plan.device);
            self.emit(&SchedEvent::MappingDecision {
                epoch,
                at: self.platform.now(),
                mapper: Arc::clone(&self.mapper_label),
                makespan: search.mapping.makespan,
                nodes_explored: search.nodes_explored,
                budget_tripped: search.budget_tripped,
                mapper_wall: SimDuration::from_nanos(wall),
                queues: queues
                    .map(|((q, cost), &di)| QueueDecision {
                        queue: q.id,
                        cost: cost.clone(),
                        chosen: input.devices[di],
                        previous: q.cl.device(),
                    })
                    .collect(),
            });
        }
        // Trace records carry their final stamps at submit, so everything
        // pushed past this watermark is the issue's, migrations included.
        let flush_start = self.platform.now();
        let trace_offset = self.platform.with_engine(|e| e.trace().total_pushed());
        let passthrough_issued = work.delta.kernels_issued;
        self.issue(epoch, pool, input, plan, work);
        self.apply_stats(&work.delta);
        // The executed critical path of the commands just issued, and the
        // measured copy/compute lane overlap per device of the window (0.0
        // where a device saw one lane or none).
        let (executed_end, lane_overlap) = self.platform.with_engine(|e| {
            let records = e.trace().records_since(trace_offset);
            let overlap = |&d| lanes.device(records, d).map_or(0.0, |l| l.overlap_fraction());
            let lane_overlap: Vec<f64> = input.devices.iter().map(overlap).collect();
            (records.iter().map(|r| r.stamp.end).max(), lane_overlap)
        });
        // Predicted-vs-actual makespan attribution: the replayed plan against
        // that critical path.
        if let Some(end) = executed_end {
            self.emit(&SchedEvent::MakespanAttribution {
                epoch,
                at: self.platform.now(),
                policy: Arc::clone(&self.policy_label),
                predicted: plan.predicted,
                actual: end.saturating_since(flush_start),
            });
        }
        // Refinement folds the completions in before the epoch closes.
        if self.options.predictor_confidence > 0.0 {
            self.refine_predictor(work, input, plan, trace_offset, epoch);
        }
        let done = self.platform.now();
        let dp = self.platform.data_plane_stats();
        self.emit(&SchedEvent::EpochEnd {
            epoch,
            at: done,
            elapsed: done.saturating_since(began),
            profiling,
            kernels_issued: work.delta.kernels_issued - passthrough_issued,
            data_queue_depth: dp.queue_depth,
            data_peak_busy: dp.peak_busy_workers,
            lane_overlap,
        });
        pool.clear();
        work.cmds.clear();
    }

    /// Measure: the pass's one phase that reads device health, the caches
    /// and the clock. It announces lost devices, obtains each pool queue's
    /// execution row in pool order (profiling where AUTO_FIT must), and
    /// ends with one snapshot of what decide reads, into `input`. Returns
    /// the virtual time spent profiling.
    fn measure(
        &self,
        epoch: u64,
        began: hwsim::SimTime,
        pool: &[Arc<QueueState>],
        input: &mut PassInput,
        work: &mut Work,
    ) -> SimDuration {
        input.policy = self.policy;
        input.mapper = self.options.mapper;
        input.devices.clear();
        input.devices.extend_from_slice(self.cl.devices());
        input.capacity.clear();
        let node = self.platform.node();
        input.capacity.extend(input.devices.iter().map(|&d| node.spec(d).mem_capacity));
        input.rr_next = self.rr_next.load(Ordering::Relaxed);
        self.device_health(epoch, &mut input.lost, &mut work.delta);
        input.queues.clear();
        for q in pool {
            let pending = q.pending.lock();
            let need = pending_need(&pending);
            let (exec, profiled) = self.queue_costs(q, &pending, epoch, need, input, work);
            input.queues.push(QueueInput {
                out_of_order: q.flags().contains(QueueSchedFlags::SCHED_OUT_OF_ORDER),
                need,
                current: input.devices.iter().position(|&d| d == q.cl.device()),
                bound: q.bound.load(Ordering::Relaxed),
                exec,
                copies: profiled && !q.flags().contains(QueueSchedFlags::SCHED_EXPLICIT_REGION),
                tail: 0,
                launches: 0..0,
            });
        }
        // Profiling is the phase's only clock-advancing work. A device that
        // died inside a profiling window is blacklisted in this pass: its
        // row may be a probe's zero.
        let profiling = self.platform.now().saturating_since(began);
        if profiling > SimDuration::ZERO {
            self.device_health(epoch, &mut input.lost, &mut work.delta);
        }
        // The issue starts now: the lanes and queue tails are counted from here.
        let PassInput { devices, degradation, lanes, enqueue, queues, .. } = input;
        degradation.clear();
        lanes.clear();
        self.platform.with_engine(|e| {
            let from_now = |t: hwsim::SimTime| t.saturating_since(e.now()).as_nanos();
            degradation.extend(devices.iter().map(|&d| e.device_degradation(d)));
            *enqueue = e.enqueue_cost().as_nanos();
            lanes.extend(devices.iter().map(|&d| {
                let (copy, compute) = e.device_lanes(d);
                plan::Lanes { copy: from_now(copy), compute: from_now(compute) }
            }));
            for (qi, q) in queues.iter_mut().zip(pool).filter(|(qi, _)| !qi.out_of_order) {
                qi.tail = q.cl.last_command().map_or(0, |ev| from_now(e.stamp(ev).end));
            }
        });
        self.snapshot_launches(pool, input, &mut work.buffers);
        profiling
    }

    /// Device-health phase: a device is lost once the fault plan's loss
    /// instant has passed on the virtual clock. Epoch boundaries are the
    /// recovery points — the pass blacklists lost devices and evacuates
    /// their queues through the normal mapping machinery, so recovery cost
    /// is charged like any other migration. Each loss is announced once.
    fn device_health(&self, epoch: u64, lost: &mut Vec<bool>, delta: &mut SchedStats) {
        let devices = self.cl.devices();
        lost.clear();
        self.platform.with_engine(|e| lost.extend(devices.iter().map(|&d| e.device_lost(d))));
        let mut announced = self.down_announced.lock();
        for (&dev, &is_lost) in devices.iter().zip(lost.iter()) {
            if is_lost && !announced.contains(&dev) {
                announced.push(dev);
                delta.devices_lost += 1;
                self.emit(&SchedEvent::DeviceDown { epoch, device: dev, at: self.platform.now() });
            }
        }
    }

    /// Measure's last step, after every queue's profiling: each pool launch
    /// as decide sees it — its accesses, its analytic and profiled kernel
    /// times and a split candidate's shape and units — and each buffer's
    /// size, the devices it is valid on and where a copy for the others
    /// comes from ([`clrt::buffer::Residency::source`]) at the residency the
    /// issue starts from, into `input`; `buffers` holds each slot's buffer
    /// id.
    fn snapshot_launches(
        &self,
        pool: &[Arc<QueueState>],
        input: &mut PassInput,
        buffers: &mut Vec<u64>,
    ) {
        let node = self.platform.node();
        input.launches.clear();
        input.touches.clear();
        buffers.clear();
        input.bytes.clear();
        input.kernel_time.clear();
        input.profiled.clear();
        input.profiled_under.clear();
        input.valid.clear();
        input.source.clear();
        input.splits.clear();
        input.split_local.clear();
        let devices = &input.devices;
        let lost = |o| devices.iter().zip(&input.lost).any(|(&d, &lost)| d == o && lost);
        let profiles = self.kernel_profiles.lock();
        for (qi, q) in pool.iter().enumerate() {
            let first = input.launches.len();
            for p in q.pending.lock().iter() {
                let axis = split_candidate(q, p, input);
                let cost = p.kernel.cost();
                let profile = profiles.get(p.kernel.name());
                let under = profile.and_then(|p| p.under.as_deref());
                for (di, &dev) in devices.iter().enumerate() {
                    let nd = p.kernel.effective_nd(dev, p.nd);
                    input.kernel_time.push(cost.kernel_time(node.spec(dev), nd.shape()));
                    input.profiled.push(profile.map_or(SimDuration::ZERO, |p| p.row[di]));
                    if let Some(&f) = under.map(|u| &u[di]).filter(|&&f| f != 1.0) {
                        input.profiled_under.push((input.profiled.len() - 1, f));
                    }
                }
                if let Some(axis) = axis {
                    let (global, local) = (p.nd.global, p.nd.local);
                    let (launch, units) =
                        (input.launches.len(), global[axis].div_ceil(local[axis]));
                    input.splits.push(SplitInput { launch, cost, global, local, axis, units });
                    // A per-device configuration lends a chunk only its
                    // workgroup shape.
                    let local = devices.iter().map(|&dev| p.kernel.effective_nd(dev, p.nd).local);
                    input.split_local.extend(local);
                }
                let from = input.touches.len();
                for t in p.args.touched() {
                    let known = buffers.iter().position(|&b| b == t.buf.id());
                    let slot = known.unwrap_or_else(|| {
                        buffers.push(t.buf.id());
                        input.bytes.push(t.buf.byte_len() as u64);
                        let mut source = None;
                        t.buf.with_residency(|res| {
                            for &dev in devices {
                                let s = res.source(dev, false, lost);
                                input.valid.push(s == Source::Valid);
                                if let Source::Owner(o) = s {
                                    source = devices.iter().position(|&d| d == o);
                                }
                            }
                        });
                        input.source.push(source);
                        buffers.len() - 1
                    });
                    input.touches.push(Touch { buffer: slot, write: t.write });
                }
                let need = p.args.max_buffer_bytes();
                let touches = from..input.touches.len();
                input.launches.push(LaunchInput { queue: qi, need, touches });
            }
            input.queues[qi].launches = first..input.launches.len();
        }
    }

    /// Issue: do what `plan` says and nothing else. The measured launches
    /// are drained into `work.cmds`; then, queue by queue in pool order, a
    /// queue that moves is announced and rebound, and an in-order queue's
    /// launches go out in program order; the out-of-order queues' launches
    /// go out last, in the same order ([`plan::issue_order`]). A split that
    /// `clrt` refuses runs whole, and its launch's chunks leave `plan`, which
    /// is then what was issued.
    fn issue(
        &self,
        epoch: u64,
        pool: &[Arc<QueueState>],
        input: &PassInput,
        plan: &mut Plan,
        work: &mut Work,
    ) {
        let Work { delta, cmds, .. } = work;
        // Launches an unwound issue left here are dropped, not issued again.
        cmds.clear();
        for (q, qi) in pool.iter().zip(&input.queues) {
            q.epochs.fetch_add(1, Ordering::Relaxed);
            q.bound.store(true, Ordering::Relaxed);
            cmds.extend(q.pending.lock().drain(..qi.launches.len()));
        }
        self.rr_next.store(plan.rr_next, Ordering::Relaxed);
        delta.kernels_issued += cmds.len() as u64;
        // A launch's split that `clrt` refuses leaves the plan.
        let issue = |q: &QueueState, l: usize, plan: &mut Plan, delta: &mut SchedStats| {
            let chunks = &plan.chunks[plan.splits[l].clone()];
            if !self.issue_launch(q, &cmds[l], chunks, epoch, delta) {
                plan.splits[l] = 0..0;
            }
        };
        for (i, (q, qi)) in pool.iter().zip(&input.queues).enumerate() {
            let (from, to) = (q.cl.device(), input.devices[plan.device[i]]);
            if from != to {
                let bytes = nonresident_bytes(&cmds[qi.launches.clone()], to);
                let (queue, at) = (q.id, self.platform.now());
                // A fault-driven evacuation is not a cost-driven migration
                // (recovery latency is measured DeviceDown → Remapped).
                let lost = input.devices.iter().position(|&d| d == from);
                self.emit(&if lost.is_some_and(|i| input.lost[i]) {
                    delta.queues_remapped += 1;
                    SchedEvent::Remapped { epoch, queue, from, to, bytes, at }
                } else {
                    SchedEvent::QueueMigrated { epoch, queue, from, to, bytes, at }
                });
            }
            q.cl.rebind(to).expect("the plan binds a context device");
            if !qi.out_of_order {
                qi.launches.clone().for_each(|l| issue(q, l, plan, delta));
            }
        }
        for (q, qi) in pool.iter().zip(&input.queues).filter(|(_, qi)| qi.out_of_order) {
            qi.launches.clone().for_each(|l| issue(q, l, plan, delta));
        }
    }

    /// A queue outside the pool flushes exactly as buffered: program order,
    /// whole launches, on the device it is bound to.
    fn passthrough(&self, q: &QueueState, work: &mut Work) {
        work.cmds.clear();
        work.cmds.append(&mut q.pending.lock());
        q.epochs.fetch_add(1, Ordering::Relaxed);
        work.delta.kernels_issued += work.cmds.len() as u64;
        for p in work.cmds.drain(..) {
            enqueue_whole(q, &p);
        }
    }

    /// Issue one launch: as one split ([`CommandQueue::enqueue_ndrange_split`])
    /// over the planned `chunks` on per-device lanes, or whole on the queue's
    /// bound device when there are none or `clrt` refuses them — having
    /// issued nothing. Returns whether it issued the launch as planned.
    fn issue_launch(
        &self,
        q: &QueueState,
        p: &PendingKernel,
        chunks: &[split::Chunk],
        epoch: u64,
        delta: &mut SchedStats,
    ) -> bool {
        if !chunks.is_empty() {
            let devices = self.cl.devices();
            let mut wgs_per_device = vec![0u64; devices.len()];
            let mut lanes: Vec<(CommandQueue, u64)> = Vec::with_capacity(chunks.len());
            let mut cached = self.split_lanes.lock();
            for c in chunks {
                wgs_per_device[c.device] += c.wg_count;
                let lane = cached.entry(c.device).or_insert_with(|| {
                    self.cl.create_queue(devices[c.device]).expect("lane device is the context's")
                });
                lanes.push((lane.clone(), c.wg_count));
            }
            drop(cached);
            // Stamped before the split's commands.
            let at = self.platform.now();
            if q.cl.enqueue_ndrange_split(&p.kernel, p.nd, &p.args, &lanes).is_ok() {
                self.emit(&SchedEvent::KernelSplit {
                    epoch,
                    queue: q.id,
                    kernel: p.kernel.shared_name(),
                    total_wgs: chunks.iter().map(|c| c.wg_count).sum(),
                    chunks: chunks.len() as u64,
                    wgs_per_device,
                    at,
                });
                delta.kernels_split += 1;
                return true;
            }
        }
        enqueue_whole(q, p);
        chunks.is_empty()
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
        stats.devices_lost += delta.devices_lost;
        stats.queues_remapped += delta.queues_remapped;
        stats.kernels_split += delta.kernels_split;
    }

    /// One pool queue's execution row under AUTO_FIT (§V-C) and where it
    /// comes from; ROUND_ROBIN prices nothing and takes an empty row. A
    /// `SCHED_AUTO_STATIC` queue is priced by the static model (§V-B). Any
    /// other is served by the epoch cache or composed from the per-kernel
    /// rows; one the caches cannot serve — or an iterative queue due for its
    /// periodic re-profile (§V-C1) — is profiled first, charging virtual
    /// time and moving residency in pool order. The caches change under no
    /// one else: only passes write them, and `pass_lock` is held.
    fn queue_costs(
        &self,
        q: &QueueState,
        pending: &[PendingKernel],
        epoch: u64,
        need: u64,
        input: &PassInput,
        work: &mut Work,
    ) -> (Arc<[SimDuration]>, bool) {
        let devices = &input.devices;
        if self.policy == ContextSchedPolicy::RoundRobin {
            return (Arc::default(), false);
        }
        if q.flags().contains(QueueSchedFlags::SCHED_AUTO_STATIC) {
            return (self.static_costs(q, pending, devices), false);
        }
        let force = self.forced(q);
        let key = work.key.spell(pending);
        let hit = (self.epoch_profiles.lock().get_key_value(key))
            .filter(|_| !force)
            .map(|(k, r)| (Arc::clone(k), Arc::clone(r)));
        let cached = hit.is_some()
            || !force && {
                let kp = self.kernel_profiles.lock();
                pending.iter().all(|p| kp.contains_key(p.kernel.name()))
            };
        let (key, exec) = match hit {
            Some(hit) => hit,
            None => {
                let key: Arc<str> = key.into();
                if !cached {
                    self.emit(&SchedEvent::CacheMiss { epoch, key: key.clone() });
                    self.profile_missing(q, pending, epoch, need, input, &mut work.delta);
                }
                // Epoch estimate: sum the cached per-name rows over every launch.
                let kp = self.kernel_profiles.lock();
                let sum = |di: usize| pending.iter().map(|p| kp[p.kernel.name()].row[di]).sum();
                let exec: Arc<[SimDuration]> = (0..devices.len()).map(sum).collect();
                drop(kp);
                self.epoch_profiles.lock().insert(Arc::clone(&key), Arc::clone(&exec));
                (key, exec)
            }
        };
        if cached {
            work.delta.cache_hits += 1;
            self.emit(&SchedEvent::CacheHit { epoch, key });
        }
        (exec, true)
    }

    /// Whether a write on `q` can wait for the next pass to place it
    /// (DESIGN.md §9, *Write residency*): under AUTO_FIT a pass prices a
    /// pool queue's uploads and stages them on the device it binds the
    /// queue to, unless that pass may profile the queue — no pass has bound
    /// it yet, or its §V-C1 re-profile is due. ROUND_ROBIN keeps a bound
    /// queue where it is, where an eager write already lands.
    fn places_writes(&self, q: &QueueState) -> bool {
        self.policy == ContextSchedPolicy::AutoFit
            && q.participates()
            && q.bound.load(Ordering::Relaxed)
            && !self.forced(q)
    }

    /// §V-C1: whether an iterative queue is due for its periodic re-profile.
    fn forced(&self, q: &QueueState) -> bool {
        match (
            q.flags().contains(QueueSchedFlags::SCHED_ITERATIVE),
            self.options.iterative_frequency,
        ) {
            (true, Some(freq)) if freq > 0 => q.epochs.load(Ordering::Relaxed).is_multiple_of(freq),
            _ => false,
        }
    }

    /// §V-B: static selection from device profiles + queue hints only.
    fn static_costs(
        &self,
        q: &QueueState,
        pending: &[PendingKernel],
        devices: &[DeviceId],
    ) -> Arc<[SimDuration]> {
        let hint = [
            (QueueSchedFlags::SCHED_COMPUTE_BOUND, StaticHint::ComputeBound),
            (QueueSchedFlags::SCHED_MEM_BOUND, StaticHint::MemoryBound),
            (QueueSchedFlags::SCHED_IO_BOUND, StaticHint::IoBound),
        ];
        let hint = hint.into_iter().find(|(f, _)| q.flags().contains(*f));
        let hint = hint.map_or(StaticHint::ComputeBound, |(_, h)| h);
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
        epoch: u64,
        need: u64,
        input: &PassInput,
        delta: &mut SchedStats,
    ) {
        let force = self.forced(q);
        // §V-C2: a compute-bound queue's kernels are profiled on workgroup 0.
        let minikernel = q.flags().contains(QueueSchedFlags::SCHED_COMPUTE_BOUND);
        let mut missing: Vec<&PendingKernel> = Vec::new();
        let kp = self.kernel_profiles.lock();
        for p in pending {
            let name = p.kernel.name();
            if (force || !kp.contains_key(name)) && missing.iter().all(|m| m.kernel.name() != name)
            {
                missing.push(p);
            }
        }
        drop(kp);
        // Cold-start interception: the cost predictor serves the kernels it
        // is confident about; the rest are profiled. A forced re-profile
        // always measures — that is its §V-C1 contract.
        let missing =
            if force { missing } else { self.predict_missing(missing, epoch, need, input, delta) };
        if !missing.is_empty() {
            // Profiling reads residency and is wall-clock sensitive: let the
            // earlier epochs' bodies and transfers finish first.
            self.platform.quiesce_data_plane();
            self.profile_kernels(&missing, epoch, need, input, minikernel);
            delta.profiled_epochs += 1;
        }
    }

    /// Offer cold kernels to the cost predictor (the profiling bypass). A
    /// kernel whose per-device predictions *all* clear the confidence gate
    /// gets the predicted row — inflated by the model's own uncertainty, so
    /// the mapper acts only on advantages larger than the error bar — cached
    /// as a profiled row would be ([`SchedEvent::CostPredicted`]). The rest
    /// ([`SchedEvent::PredictorFallback`]) are returned in order, to profile.
    fn predict_missing<'a>(
        &self,
        missing: Vec<&'a PendingKernel>,
        epoch: u64,
        need: u64,
        input: &PassInput,
        delta: &mut SchedStats,
    ) -> Vec<&'a PendingKernel> {
        let devices = &input.devices;
        let threshold = self.options.predictor_confidence;
        if threshold <= 0.0 || missing.is_empty() {
            return missing;
        }
        // Lost as of now — profiling earlier in this pass moves the clock —
        // or too small for the queue. With none left, profiling hands out
        // its all-zero sentinel rows. A predicted row is made under the
        // degradation in force now.
        let (skip, under) = self.platform.with_engine(|e| {
            let skip: Vec<bool> = (0..devices.len())
                .map(|di| e.device_lost(devices[di]) || !plan::eligible(input, di, need))
                .collect();
            let degradation = devices.iter().map(|&d| e.device_degradation(d));
            let under: Option<Arc<[f64]>> =
                degradation.clone().any(|f| f != 1.0).then(|| degradation.collect());
            (skip, under)
        });
        if skip.iter().all(|&s| s) {
            return missing;
        }
        let mut still_missing = Vec::new();
        let mut events: Vec<SchedEvent> = Vec::new();
        {
            let predictor = self.predictor.lock();
            let mut kp = self.kernel_profiles.lock();
            for p in missing {
                let name = p.kernel.shared_name();
                let cost = p.kernel.cost();
                let arg_bytes = p.args.buffer_bytes();
                let mut row = vec![SimDuration::ZERO; devices.len()];
                let mut max_uncertainty: f64 = 0.0;
                let mut min_samples = u64::MAX;
                let mut untrained = false;
                let mut confident = true;
                for (di, &dev) in devices.iter().enumerate() {
                    if skip[di] {
                        continue; // the "unmeasured" sentinel: zero
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
                        kernel: Arc::clone(&name),
                        costs: row.clone(),
                        uncertainty: max_uncertainty,
                        samples: if min_samples == u64::MAX { 0 } else { min_samples },
                    });
                    mapper::inflate_uncertain(&mut row, max_uncertainty);
                    kp.insert(name, KernelProfile { row: row.into(), under: under.clone() });
                } else {
                    delta.predictor_fallbacks += 1;
                    events.push(SchedEvent::PredictorFallback {
                        epoch,
                        kernel: name,
                        reason: if untrained { "untrained" } else { "low_confidence" }.into(),
                        uncertainty: max_uncertainty,
                    });
                    still_missing.push(p);
                }
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
    /// predictor (online refinement): per (kernel, device) the mean executed
    /// duration of its whole launches of each geometry is one observation,
    /// and so is that of its split chunks of each shape, each at the shape
    /// it ran at and its launch's argument bytes. The kernel records past
    /// `trace_offset` are the issued plan's commands in
    /// [`plan::issue_order`]: a launch's chunks in `plan.chunks` order, or
    /// the launch whole where `plan.splits` has none. Observations fold, and
    /// a prior prediction's error is reported
    /// ([`SchedEvent::PredictorRefined`]), whole launches first, then
    /// chunks, each by (name, device, global, local, argument bytes). A warm
    /// refinement allocates nothing: it sums and emits in `work`'s lists.
    fn refine_predictor(
        &self,
        work: &mut Work,
        input: &PassInput,
        plan: &Plan,
        trace_offset: u64,
        epoch: u64,
    ) {
        let Work { cmds, refined, events, .. } = work;
        let devices = &input.devices;
        refined.clear();
        self.platform.with_engine(|e| {
            let mut kernels =
                e.trace().records_since(trace_offset).iter().filter_map(|r| match &r.kind {
                    CommandKind::Kernel { name } => Some((r, name)),
                    _ => None,
                });
            for l in plan::issue_order(input) {
                let p = &cmds[l];
                let chunks = &plan.chunks[plan.splits[l].clone()];
                let shape = |c: &split::Chunk| {
                    let axis = p.nd.split_axis()?;
                    let local = p.kernel.effective_nd(devices[c.device], p.nd).local;
                    let (global, offset, count) = (p.nd.global, c.wg_offset, c.wg_count);
                    Some(split::chunk_shape(global, p.nd.local, axis, local, offset, count))
                };
                let whole = chunks.is_empty().then_some(None);
                let arg_bytes = p.args.buffer_bytes();
                for (chunk, (r, name)) in chunks.iter().map(shape).chain(whole).zip(&mut kernels) {
                    let Some(di) = devices.iter().position(|&d| d == r.device) else { continue };
                    let shape =
                        chunk.unwrap_or_else(|| p.kernel.effective_nd(devices[di], p.nd).shape());
                    let key = (chunk.is_some(), di, shape, arg_bytes);
                    let o = match refined.iter_mut().find(|o| o.key == key && o.name == *name) {
                        Some(o) => o,
                        None => {
                            let (name, cost) = (Arc::clone(name), p.kernel.cost());
                            refined.push(Refined {
                                name,
                                key,
                                cost,
                                sum: SimDuration::ZERO,
                                count: 0,
                            });
                            refined.last_mut().expect("just pushed")
                        }
                    };
                    o.sum += r.stamp.end.saturating_since(r.stamp.start);
                    o.count += 1;
                }
            }
        });
        if refined.is_empty() {
            return;
        }
        refined.sort_unstable_by(|a, b| a.order().cmp(&b.order()));
        events.clear();
        {
            let mut predictor = self.predictor.lock();
            for o in refined.iter() {
                let (_, di, shape, arg_bytes) = o.key;
                let f = KernelFeatures::describe(&o.cost, shape, arg_bytes);
                let actual = o.sum / o.count;
                let prior = predictor.predict(di, &f);
                predictor.observe(di, &f, actual);
                if let Some(p) = prior {
                    let a = actual.as_nanos().max(1) as f64;
                    let rel_error = (p.time.as_nanos() as f64 - a).abs() / a;
                    events.push(SchedEvent::PredictorRefined {
                        epoch,
                        kernel: Arc::clone(&o.name),
                        device: devices[di],
                        predicted: p.time,
                        actual,
                        rel_error,
                        samples: predictor.samples(di),
                    });
                }
            }
            if self.options.predictor_persist {
                // Best effort, like the device-profile cache: an unwritable
                // directory only costs the next process a cold start.
                let _ = predictor.store(self.options.profile_cache.dir());
            }
        }
        for ev in events.drain(..) {
            self.emit(&ev);
        }
    }

    /// Run the given kernels (distinct names) once per device, full or
    /// minikernel, after staging their inputs there, all tagged
    /// [`PROFILING_TAG`] and charged to the virtual clock, and cache the
    /// measured (estimated-full) per-device rows.
    ///
    /// Every device is profiled at once: a device's staging uploads and
    /// probes form one chain, each command waiting on the one submitted
    /// before it for that device, and an upload that reads a host copy
    /// also waits on the download that filled it. The host waits once, for
    /// every chain and every download, so the window costs the longest
    /// chain, not the sum over devices.
    fn profile_kernels(
        &self,
        pending: &[&PendingKernel],
        epoch: u64,
        need: u64,
        input: &PassInput,
        minikernel: bool,
    ) {
        let devices = &input.devices;
        fn charge(
            engine: &mut Engine,
            device: DeviceId,
            kind: CommandKind,
            duration: SimDuration,
            after: impl IntoIterator<Item = Option<EventId>>,
        ) -> EventId {
            let waits = after.into_iter().flatten().collect();
            engine.submit(CommandDesc { device, kind, duration, waits, queue: usize::MAX })
        }
        let node = self.platform.node();
        // The profiled kernels' distinct buffers: profiling moves real data.
        // Each goes with the D2H that filled its host copy in this window
        // (with caching), which every later H2D of it waits on.
        let mut buffers: Vec<(Buffer, Option<EventId>)> = Vec::new();
        for t in pending.iter().flat_map(|p| p.args.touched()) {
            if buffers.iter().all(|(b, _)| b.id() != t.buf.id()) {
                buffers.push((t.buf.clone(), None));
            }
        }
        let mut kernel_rows = self.platform.with_engine(|engine| {
            let prev_tag = engine.tag().map(str::to_owned);
            engine.set_tag(Some(PROFILING_TAG));
            // One row per kernel (the names are distinct), all zero until
            // measured: a device no probe reaches keeps the "unmeasured"
            // sentinel, which the epoch blacklist overwrites. Each row goes
            // with the name its probes run under.
            let mut kernel_rows: Vec<(Arc<str>, Arc<str>, Vec<SimDuration>)> = pending
                .iter()
                .map(|p| {
                    let name = p.kernel.shared_name();
                    let probe = match minikernel {
                        true => format!("mini_{name}").into(),
                        false => Arc::clone(&name),
                    };
                    (name, probe, vec![SimDuration::ZERO; devices.len()])
                })
                .collect();
            // The command that ends last of every chain and every D2H: the
            // one the host waits for.
            let mut latest: Option<EventId> = None;
            let mut host_waits_for = |engine: &Engine, ev: EventId| {
                let end = engine.stamp(ev).end;
                if latest.is_none_or(|l| engine.stamp(l).end < end) {
                    latest = Some(ev);
                }
            };
            for (di, &dev) in devices.iter().enumerate() {
                // No probe on a device lost as of the window's start or too
                // small for the queue: its row stays zero.
                if engine.device_lost(dev) || !plan::eligible(input, di, need) {
                    continue;
                }
                // A chain stops at its device's loss: the command that meets
                // it fails, nothing is submitted after it, and the device
                // keeps the zero row of one lost before the window.
                let died = |e: &Engine, ev| {
                    e.event_status(ev) == CommandStatus::Failed(FaultKind::DeviceLost)
                };
                let mut alive = true;
                let mut last: Option<EventId> = None;
                // Stage the inputs onto `dev` (§V-C3) from where the runtime
                // would move them. Brute force (caching off) stages D2H + H2D
                // from a live owner for every destination; with caching, one
                // D2H fills a host copy every destination reuses, and
                // destinations keep their copies for the real issue.
                let caching = self.options.data_caching;
                for (b, filled) in buffers.iter_mut() {
                    let lost = |d| engine.device_lost(d);
                    let fetch = match b.with_residency(|r| r.source(dev, !caching, lost)) {
                        Source::Valid => continue,
                        Source::Host => None,
                        Source::Owner(src) => Some(src),
                    };
                    let bytes = b.byte_len() as u64;
                    // The download this upload reads the host copy of: its
                    // own (brute force, or the first with caching), else the
                    // one that filled the cached copy (none when the host
                    // held the data before the window).
                    let mut host_copy = *filled;
                    if let Some(src) = fetch {
                        let d2h = node.topology.host_transfer_time(src, bytes, &node.devices);
                        let kind =
                            CommandKind::Transfer { kind: TransferKind::DeviceToHost, bytes };
                        let ev = charge(engine, src, kind, d2h, []);
                        host_waits_for(engine, ev);
                        host_copy = Some(ev);
                        if caching {
                            *filled = Some(ev);
                        }
                    }
                    // The upload leaves the host copy valid, staged or, with
                    // no live owner, the canonical contents.
                    if caching {
                        b.mark_host_valid();
                    }
                    let h2d = node.topology.host_transfer_time(dev, bytes, &node.devices);
                    let kind = CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes };
                    let ev = charge(engine, dev, kind, h2d, [last, host_copy]);
                    last = Some(ev);
                    if died(engine, ev) {
                        alive = false;
                        break;
                    }
                    if caching {
                        b.mark_resident(dev);
                    }
                }
                // Time each kernel once on `dev`, at its first-seen geometry
                // (the paper's name-keyed cache makes the same approximation).
                let spec = node.spec(dev);
                for (p, (_, probe, row)) in pending.iter().zip(kernel_rows.iter_mut()) {
                    if !alive {
                        break;
                    }
                    let nd = p.kernel.effective_nd(dev, p.nd);
                    let shape = nd.shape();
                    let cost = p.kernel.cost();
                    let (charged, estimated_full) = if minikernel {
                        // One workgroup's probe, scaled by the waves.
                        let mini = cost.minikernel_time(spec, shape);
                        let conc = u64::from(spec.concurrent_workgroups.max(1));
                        let waves = shape.workgroups().div_ceil(conc);
                        (mini, mini * waves)
                    } else {
                        let full = cost.kernel_time(spec, shape);
                        (full, full)
                    };
                    let name = Arc::clone(probe);
                    let ev = charge(engine, dev, CommandKind::Kernel { name }, charged, [last]);
                    last = Some(ev);
                    alive = !died(engine, ev);
                    row[di] = estimated_full;
                }
                if !alive {
                    for (_, _, row) in kernel_rows.iter_mut() {
                        row[di] = SimDuration::ZERO;
                    }
                }
                if let Some(ev) = last {
                    host_waits_for(engine, ev);
                }
            }
            if let Some(ev) = latest {
                engine.wait(ev);
            }
            engine.set_tag(prev_tag.as_deref());
            kernel_rows
        });
        // Recorded and announced outside the engine lock.
        {
            let mut kp = self.kernel_profiles.lock();
            for (name, _, row) in &kernel_rows {
                kp.insert(
                    Arc::clone(name),
                    KernelProfile { row: row.as_slice().into(), under: None },
                );
            }
        }
        // Announce in name order.
        kernel_rows.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, _, row) in kernel_rows {
            self.emit(&SchedEvent::KernelProfiled { epoch, kernel: name, minikernel, costs: row });
        }
    }
}

/// Enqueue one buffered launch whole on its queue's bound device. It was
/// checked at enqueue time, and a pool queue is bound only where its
/// buffers fit ([`plan::bindable`]).
fn enqueue_whole(q: &QueueState, p: &PendingKernel) {
    q.cl.enqueue_ndrange_with_args(&p.kernel, p.nd, &p.args, &[])
        .expect("buffered launch was validated at enqueue time");
}

/// Buffer bytes referenced by `cmds` that are not yet resident on `dev` —
/// the data a migration to `dev` will actually move. Reported in
/// [`SchedEvent::QueueMigrated`].
fn nonresident_bytes(cmds: &[PendingKernel], dev: DeviceId) -> u64 {
    let touches = || cmds.iter().flat_map(|p| p.args.touched());
    let mut total = 0;
    for (i, t) in touches().enumerate() {
        // Each buffer once, at its first touch.
        let first = touches().take(i).all(|u| u.buf.id() != t.buf.id());
        if first && !t.buf.with_residency(|r| r.valid_on(dev)) {
            total += t.buf.byte_len() as u64;
        }
    }
    total
}

/// The axis a launch of `q` splits along, if it is a split candidate: its
/// queue carries `SCHED_SPLITTABLE`, its body honors sub-ranges, its range
/// has more than one workgroup along some axis, and two or more devices are
/// eligible for it.
fn split_candidate(q: &QueueState, p: &PendingKernel, input: &PassInput) -> Option<usize> {
    let splittable = q.flags().contains(QueueSchedFlags::SCHED_SPLITTABLE);
    let need = p.args.max_buffer_bytes();
    let eligible = (0..input.devices.len()).filter(|&di| plan::eligible(input, di, need));
    p.nd.split_axis().filter(|_| splittable && p.kernel.splittable() && eligible.count() >= 2)
}

/// Bytes of the largest buffer `pending` binds — what a device must hold to
/// run these launches.
fn pending_need(pending: &[PendingKernel]) -> u64 {
    pending.iter().map(|p| p.args.max_buffer_bytes()).max().unwrap_or(0)
}

/// The epoch cache key (§V-C1: "just the set of the participating kernel
/// names"): the names sorted and joined by `+`, each `+` and `\` inside a
/// name escaped by a `\` so that no two multisets spell alike.
#[derive(Default)]
struct EpochKey {
    /// Indices into the pending launches, in name order.
    order: Vec<usize>,
    text: String,
}

impl EpochKey {
    fn spell(&mut self, pending: &[PendingKernel]) -> &str {
        let name = |i: usize| pending[i].kernel.name();
        self.order.clear();
        self.order.extend(0..pending.len());
        self.order.sort_unstable_by(|&a, &b| name(a).cmp(name(b)));
        self.text.clear();
        for (n, &i) in self.order.iter().enumerate() {
            if n > 0 {
                self.text.push('+');
            }
            let mut rest = name(i);
            while let Some(at) = rest.find(['+', '\\']) {
                self.text.push_str(&rest[..at]);
                self.text.push('\\');
                self.text.push_str(&rest[at..at + 1]);
                rest = &rest[at + 1..];
            }
            self.text.push_str(rest);
        }
        &self.text
    }
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

    /// `clEnqueueWriteBuffer`. The store takes `data` now; where the upload
    /// goes is one of two cases (DESIGN.md §9, *Write residency*):
    ///
    /// - Under AUTO_FIT, a pool queue that a pass has bound and that is not
    ///   due for its §V-C1 re-profile leaves the buffer valid on the host
    ///   only: the next pass prices the upload per device and stages it on
    ///   the device it picks for the queue.
    /// - Any other queue — one whose next pass may profile it, above all one
    ///   no pass has bound yet — writes eagerly, with an H2D on its current
    ///   device binding: that defines where the data initially lives, the
    ///   "source device" profiling reads back from.
    ///
    /// A misjudged case costs virtual time, never data: the profiler stages
    /// a host-valid buffer like any other. If kernels are already pending
    /// on this queue, the write first forces an epoch boundary to preserve
    /// in-order semantics.
    pub fn enqueue_write<T: clrt::buffer::Element>(
        &self,
        buf: &Buffer,
        data: &[T],
    ) -> ClResult<()> {
        if !self.state.pending.lock().is_empty() {
            self.rt.schedule_and_flush();
        }
        if self.rt.places_writes(&self.state) {
            self.state.cl.enqueue_write_host(buf, data)
        } else {
            self.state.cl.enqueue_write(buf, data).map(drop)
        }
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
    use crate::predictor::{
        CostPredictor, KernelFeatures, DEFAULT_PREDICTOR_CONFIDENCE, MIN_TRAINING_SAMPLES,
    };
    use crate::telemetry::RingBufferSink;
    use crate::{
        ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedEvent, SchedOptions,
    };
    use clrt::{ArgValue, KernelBody, KernelCtx, NdRange, Platform};
    use hwsim::engine::CommandKind;
    use hwsim::{KernelCostSpec, NdRangeShape, SimDuration};
    use std::collections::BTreeMap;
    use std::ffi::OsStr;
    use std::sync::Arc;

    /// `out[i] += 1` over the sub-range one execution owns.
    struct Bump;

    impl KernelBody for Bump {
        fn name(&self) -> &str {
            "bump"
        }
        fn arity(&self) -> usize {
            1
        }
        fn cost(&self) -> KernelCostSpec {
            KernelCostSpec::compute_bound(20_000.0)
        }
        fn splittable(&self) -> bool {
            true
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let base = ctx.global_offset()[0] as usize;
            let n = ctx.nd().global_items() as usize;
            for v in &mut ctx.slice_mut::<f64>(0)[base..base + n] {
                *v += 1.0;
            }
        }
    }

    #[test]
    fn a_split_chunk_trains_the_predictor_at_its_own_shape() {
        // One splittable launch of 1 024 workgroups, split in its first
        // epoch: the model's only observations are its chunks, one per
        // device, each at that chunk's shape.
        const ITEMS: u64 = 1 << 16;
        let platform = Platform::paper_node();
        let sink = Arc::new(RingBufferSink::new(1024));
        let dir = std::env::temp_dir().join(format!("multicl-fold-{}", std::process::id()));
        let options = SchedOptions {
            predictor_confidence: DEFAULT_PREDICTOR_CONFIDENCE,
            profile_cache: ProfileCache::at(dir),
            observers: vec![sink.clone()],
            ..SchedOptions::default()
        };
        let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
            .expect("context");
        let flags = QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_SPLITTABLE;
        let queue = ctx.create_queue(flags).expect("queue");
        let buf = ctx.create_buffer_of::<f64>(ITEMS as usize).expect("buffer");
        let body = Arc::new(Bump) as Arc<dyn KernelBody>;
        let k = ctx.create_program(vec![body]).expect("program").create_kernel("bump").unwrap();
        k.set_arg(0, ArgValue::BufferMut(buf)).unwrap();
        queue.enqueue_ndrange(&k, NdRange::d1(ITEMS, 64)).expect("enqueue");
        ctx.finish_all();
        let shares = sink.drain().into_iter().find_map(|e| match e {
            SchedEvent::KernelSplit { wgs_per_device, .. } => Some(wgs_per_device),
            _ => None,
        });
        let shares = shares.expect("the launch split");
        assert!(shares.iter().filter(|&&w| w > 0).count() >= 2, "{shares:?}");
        // The same observations, folded by hand into a fresh model.
        let n = shares.len();
        let mut want = CostPredictor::new(n, platform.node().fingerprint());
        let trace = platform.take_trace();
        let chunks = trace.records.iter().filter(|r| r.tag.is_none());
        for r in
            chunks.filter(|r| matches!(&r.kind, CommandKind::Kernel { name } if &**name == "bump"))
        {
            let d = r.device.index();
            let shape = NdRangeShape::new(shares[d] * 64, 64);
            let f = KernelFeatures::describe(&Bump.cost(), shape, ITEMS * 8);
            want.observe(d, &f, r.stamp.end.saturating_since(r.stamp.start));
        }
        let folded = ctx.rt.predictor.lock().to_json() == want.to_json();
        assert!(folded, "a chunk was folded at another shape than its own");
    }

    #[test]
    fn refinement_folds_whole_launches_then_chunks_in_key_order() {
        // One real pass over a splittable queue and two others, all
        // launching `bump`: the split's chunks are issued before the whole
        // launches, out of key order. Refinement is checked against per-key
        // sums in two `BTreeMap`s, whole launches first, over the pass's own
        // trace, where a kernel is a chunk between a split's start marker and
        // its join. Each observation is made at its own launch's geometry: a
        // whole launch at its 1 024 items and 8 KiB of arguments, a chunk at
        // its shape and its launch's 512 KiB — the prior each event reports
        // and the folded model both read those features.
        const ITEMS: u64 = 1 << 16;
        let platform = Platform::paper_node();
        let sink = Arc::new(RingBufferSink::new(1024));
        let dir = std::env::temp_dir().join(format!("multicl-order-{}", std::process::id()));
        let options = SchedOptions {
            predictor_confidence: DEFAULT_PREDICTOR_CONFIDENCE,
            profile_cache: ProfileCache::at(dir),
            observers: vec![sink.clone()],
            ..SchedOptions::default()
        };
        let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
            .expect("context");
        let devices = ctx.rt.cl.devices().to_vec();
        // Every device model warm on the cost model's own times, so every
        // observation has a prior and the split is judged on fair rows.
        {
            let mut predictor = ctx.rt.predictor.lock();
            for (di, &dev) in devices.iter().enumerate() {
                for wgs in 1..=MIN_TRAINING_SAMPLES {
                    let s = shape(wgs * 128 * 64, 64);
                    let f = KernelFeatures::describe(&Bump.cost(), s, ITEMS * 8);
                    let time = Bump.cost().kernel_time(platform.node().spec(dev), s);
                    predictor.observe(di, &f, time);
                }
            }
        }
        let mut want = ctx.rt.predictor.lock().clone();
        let body = Arc::new(Bump) as Arc<dyn KernelBody>;
        let program = ctx.create_program(vec![body]).expect("program");
        let split = QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_SPLITTABLE;
        let flags =
            [split, QueueSchedFlags::SCHED_AUTO_DYNAMIC, QueueSchedFlags::SCHED_AUTO_DYNAMIC];
        let queues = flags.map(|f| ctx.create_queue(f).expect("queue"));
        // The splittable queue's launch is large; the others' are small.
        for (q, items) in queues.iter().zip([ITEMS, 1024, 1024]) {
            let buf = ctx.create_buffer_of::<f64>(items as usize).expect("buffer");
            let k = program.create_kernel("bump").unwrap();
            k.set_arg(0, ArgValue::BufferMut(buf)).unwrap();
            q.enqueue_ndrange(&k, NdRange::d1(items, 64)).expect("enqueue");
        }
        ctx.finish_all();
        let events = sink.drain();
        let mut splits = events.iter().filter_map(|e| match e {
            SchedEvent::KernelSplit { wgs_per_device, .. } => Some(wgs_per_device),
            _ => None,
        });
        let refined = |e: &SchedEvent| match e {
            SchedEvent::PredictorRefined { device, predicted, actual, samples, .. } => {
                Some((*device, *predicted, *actual, *samples))
            }
            _ => None,
        };
        let got: Vec<_> = events.iter().filter_map(refined).collect();
        // The fold by hand, on the pass's trace records.
        let mut whole: BTreeMap<usize, (SimDuration, u64)> = BTreeMap::new();
        let mut chunks: BTreeMap<(usize, u64, u64), (SimDuration, u64)> = BTreeMap::new();
        let (mut shares, mut first) = (None, None);
        for r in platform.take_trace().records.iter().filter(|r| r.tag.is_none()) {
            let di = devices.iter().position(|&d| d == r.device).expect("a context device");
            let entry = match (&r.kind, shares) {
                (CommandKind::Marker, None) => {
                    shares = Some(splits.next().expect("a split's start marker"));
                    continue;
                }
                (CommandKind::Marker, Some(_)) => {
                    shares = None;
                    continue;
                }
                (CommandKind::Kernel { .. }, None) => whole.entry(di).or_default(),
                (CommandKind::Kernel { .. }, Some(shares)) => {
                    first.get_or_insert(true);
                    chunks.entry((di, shares[di] * 64, 64)).or_default()
                }
                _ => continue,
            };
            first.get_or_insert(false);
            entry.0 += r.stamp.end.saturating_since(r.stamp.start);
            entry.1 += 1;
        }
        assert_eq!(first, Some(true), "a chunk is issued first");
        assert!(splits.next().is_none(), "a split left no trace");
        let whole_keys = whole.len();
        let whole = whole.into_iter().map(|(di, sum)| (di, shape(1024, 64), 1024 * 8, sum));
        let chunks = chunks.into_iter().map(|((di, g, l), sum)| (di, shape(g, l), ITEMS * 8, sum));
        let mut expected = Vec::new();
        for (di, s, bytes, (sum, count)) in whole.chain(chunks) {
            let f = KernelFeatures::describe(&Bump.cost(), s, bytes);
            let actual = sum / count;
            let prior = want.predict(di, &f).expect("a warm model predicts");
            want.observe(di, &f, actual);
            expected.push((devices[di], prior.time, actual, want.samples(di)));
        }
        assert!(whole_keys >= 1 && expected.len() >= whole_keys + 2, "{expected:?}");
        assert_eq!(got, expected, "refinement left the key order");
        let model = ctx.rt.predictor.lock();
        for di in 0..devices.len() {
            assert_eq!(model.samples(di), want.samples(di), "device {di}");
        }
        assert!(model.to_json() == want.to_json(), "the folded models differ");
        assert!(ctx.rt.mapper_state.lock().work.cmds.is_empty(), "the pass kept its launches");
    }

    fn shape(global: u64, local: u64) -> NdRangeShape {
        NdRangeShape::new(global, local)
    }

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
