//! The four workloads and what they share: the seeded node, the per-pass
//! record, and the digest of a platform's virtual-time trace.

pub mod npb_suite;
pub mod seismo_steady;
pub mod serve;

use crate::host::HostCost;
use crate::spans::Tracer;
use clrt::{Platform, RuntimeConfig};
use hwsim::report::lane_utilization;
use hwsim::xrand::XorShift;
use hwsim::{CommandKind, NodeConfig, TransferKind};
use multicl::{DeviceProfile, ProfileCache, SchedObserver, SchedOptions, SchedStats};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Data-plane worker threads of every platform the benchmark builds: fixed,
/// so results do not depend on the host's core count beyond its speed.
pub const DATA_PLANE_WORKERS: usize = 2;

/// The closed set of workloads; later issues refer to these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NpbSuite,
    SeismoSteady,
    ServeLight,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::NpbSuite, Workload::SeismoSteady, Workload::ServeLight, Workload::ServeMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NpbSuite => "npb_suite",
            Workload::SeismoSteady => "seismo_steady",
            Workload::ServeLight => "serve_light",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run one pass of the workload's fixed work.
    pub fn pass(self, env: &Env, scale: Scale, tracer: Option<&Arc<Tracer>>) -> Pass {
        match self {
            Workload::NpbSuite => npb_suite::pass(env, scale, tracer),
            Workload::SeismoSteady => seismo_steady::pass(env, scale, tracer),
            Workload::ServeLight => serve::pass(&serve::LIGHT, env, scale, tracer),
            Workload::ServeMix => serve::pass(&serve::MIX, env, scale, tracer),
        }
    }
}

/// How much of the fixed work a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workload as defined; the only scale whose numbers are comparable.
    Full,
    /// About a twentieth of it: the set-up warm-up and the smoke test.
    Quick,
}

/// What every pass of a run shares.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    /// The paper's node with its device rates drawn from the seed.
    pub node: NodeConfig,
    /// Profile-cache directory, warmed by [`warm_profile_cache`].
    pub cache_dir: PathBuf,
}

impl Env {
    pub fn new(seed: u64, cache_dir: PathBuf) -> Env {
        Env { seed, node: seeded_node(seed), cache_dir }
    }

    /// Default scheduler options over the warmed profile cache, with the
    /// tracer (if any) as the only observer.
    pub fn sched_options(&self, tracer: Option<&Arc<Tracer>>) -> SchedOptions {
        SchedOptions {
            profile_cache: ProfileCache::at(&self.cache_dir),
            observers: tracer.iter().map(|t| Arc::clone(t) as Arc<dyn SchedObserver>).collect(),
            ..SchedOptions::default()
        }
    }

    /// A fresh platform over the seeded node with the fixed worker count.
    pub fn platform(&self) -> Platform {
        Platform::with_config(
            self.node.clone(),
            RuntimeConfig { data_plane_workers: DATA_PLANE_WORKERS, ..RuntimeConfig::default() },
        )
    }
}

/// Widest relative deviation of a seeded device rate from its nominal value.
const CALIBRATION_JITTER: f64 = 0.0025;

/// The paper's node with calibrated rates drawn from `seed`: one factor
/// each for the CPU, the GPU model and the PCIe links, within
/// ±[`CALIBRATION_JITTER`] — two nodes of one model differ by about as
/// much. NPB and FDM-Seismology take no random input, so this is what makes
/// their virtual timeline a function of the seed; the factor is per device
/// *model* so the two GPUs stay identical, as the paper's are.
pub fn seeded_node(seed: u64) -> NodeConfig {
    let mut rng = XorShift::new(seed ^ 0x6e6f_6465);
    let mut factor = || 1.0 + rng.range_f64(-CALIBRATION_JITTER, CALIBRATION_JITTER);
    let (cpu, gpu, pcie) = (factor(), factor(), factor());
    let mut node = NodeConfig::paper_node();
    // The profile cache is keyed by the node fingerprint, which rounds the
    // rates; the name keeps differently calibrated nodes apart.
    node.name = format!("{}+cal{seed}", node.name);
    for (spec, link) in node.devices.iter_mut().zip(node.topology.device_links.iter_mut()) {
        let f = if spec.device_type == hwsim::DeviceType::Cpu { cpu } else { gpu };
        spec.peak_gflops *= f;
        spec.peak_gflops_dp *= f;
        spec.mem_bandwidth_gbs *= f;
        if spec.device_type != hwsim::DeviceType::Cpu {
            link.bandwidth_gbs *= pcie;
        }
    }
    node
}

/// Measure the node's device profile on a scratch platform and store it, so
/// no measured context pays device profiling on its own clock and a pass's
/// virtual timeline is the same whether or not the cache existed.
pub fn warm_profile_cache(node: &NodeConfig, dir: &Path) {
    let cache = ProfileCache::at(dir);
    if cache.load(&node.fingerprint()).is_none() {
        let profile = DeviceProfile::measure(&Platform::new(node.clone()));
        cache.store(&profile).expect("profile cache directory is writable");
    }
}

/// Per-layer raw material a pass collects besides its marks; the traced
/// run turns it into the per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct LayerData {
    /// Scheduler counters summed over the pass's AUTO_FIT contexts.
    pub sched: SchedStats,
    /// Data-plane counters summed (peaks: maximum) over the pass's platforms.
    pub tasks_submitted: u64,
    pub tasks_inline: u64,
    pub joins: u64,
    pub peak_busy_workers: usize,
    pub peak_queue_depth: usize,
    /// Host wall time of the AUTO_FIT runs and of their manual replays.
    pub auto_wall: Duration,
    pub replay_wall: Duration,
    /// Virtual time of the same.
    pub auto_virt_ms: f64,
    pub replay_virt_ms: f64,
    /// AUTO_FIT over replay virtual time, one factor per benchmark or layout.
    pub overhead_factors: Vec<f64>,
    /// Trace records of the manual replays (one per command).
    pub replay_commands: u64,
    /// Named extras: `npb.*`, `seismo.*`, `served.*` values.
    pub extra: BTreeMap<String, f64>,
}

impl LayerData {
    pub fn add_sched(&mut self, s: &SchedStats) {
        let t = &mut self.sched;
        t.sched_invocations += s.sched_invocations;
        t.profiled_epochs += s.profiled_epochs;
        t.cache_hits += s.cache_hits;
        t.kernels_predicted += s.kernels_predicted;
        t.predictor_fallbacks += s.predictor_fallbacks;
        t.kernels_issued += s.kernels_issued;
        t.commands_reordered += s.commands_reordered;
        t.kernels_split += s.kernels_split;
        t.chunks_stolen += s.chunks_stolen;
    }

    pub fn add_plane(&mut self, platform: &Platform) {
        let s = platform.data_plane_stats();
        self.tasks_submitted += s.submitted;
        self.tasks_inline += s.inline_tasks;
        self.joins += s.joins;
        self.peak_busy_workers = self.peak_busy_workers.max(s.peak_busy_workers);
        self.peak_queue_depth = self.peak_queue_depth.max(s.peak_queue_depth);
    }
}

/// One pass of a workload's fixed work.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host wall time of the measured window (construction excluded where
    /// the product's API lets the benchmark separate it).
    pub wall: Duration,
    /// Host costs over the same window.
    pub host: HostCost,
    /// Operations completed in the window (kernel launches or jobs).
    pub ops: u64,
    /// Operations attempted, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Virtual time to finish the fixed work.
    pub virt_makespan_ms: f64,
    /// Virtual latency of each request (job, solver iteration, AUTO_FIT
    /// benchmark run).
    pub virt_latencies_ms: Vec<f64>,
    /// Digest of every platform's virtual-time trace, in run order.
    pub digest: TraceDigest,
    /// Output checks that failed (empty = correct).
    pub errors: Vec<String>,
    pub layer: LayerData,
}

impl Pass {
    /// True when everything that must repeat exactly from pass to pass does:
    /// the trace fingerprint, the makespan, every request latency (bit for
    /// bit) and the op count.
    pub fn same_virtual_timeline(&self, other: &Pass) -> bool {
        let bits = |p: &Pass| p.virt_latencies_ms.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        self.digest.fingerprint == other.digest.fingerprint
            && self.virt_makespan_ms.to_bits() == other.virt_makespan_ms.to_bits()
            && self.ops == other.ops
            && bits(self) == bits(other)
    }
}

/// One FNV-1a step over the bytes of `v`; a running hash of 0 means nothing
/// has been hashed yet and starts from the offset basis.
fn fnv(h: u64, v: u64) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Summary of virtual-time traces: an order-normalised fingerprint plus the
/// `clrt`/`hwsim` per-layer counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDigest {
    /// FNV-1a over every record with queue ids renumbered by first
    /// appearance (the ids are process-global, so raw values differ from
    /// pass to pass while the schedule does not).
    pub fingerprint: u64,
    pub records: u64,
    pub kernels: u64,
    pub h2d: u64,
    pub d2h: u64,
    pub d2d: u64,
    pub transfer_ms: f64,
    /// Busy virtual time per device index, and the summed trace horizons.
    pub busy_ms: [f64; 3],
    pub horizon_ms: f64,
    /// Copy/compute overlap and the shorter lane's busy time, summed.
    pub overlap_ms: f64,
    pub short_lane_ms: f64,
}

impl TraceDigest {
    /// Fold `platform`'s trace into the digest.
    pub fn absorb(&mut self, platform: &Platform) {
        platform.with_engine(|engine| {
            let trace = engine.trace();
            let mut queues: HashMap<usize, u64> = HashMap::new();
            let mut h = self.fingerprint;
            let mut first = u64::MAX;
            let mut last = 0u64;
            for r in &trace.records {
                let next = queues.len() as u64;
                h = fnv(h, *queues.entry(r.queue).or_insert(next));
                h = fnv(h, r.device.index() as u64);
                let ms = r.stamp.duration().as_millis_f64();
                match &r.kind {
                    CommandKind::Kernel { name } => {
                        self.kernels += 1;
                        h = name.bytes().fold(fnv(h, 1), |h, b| fnv(h, u64::from(b)));
                    }
                    CommandKind::Transfer { kind, bytes } => {
                        let code = match kind {
                            TransferKind::HostToDevice => {
                                self.h2d += 1;
                                2
                            }
                            TransferKind::DeviceToHost => {
                                self.d2h += 1;
                                3
                            }
                            _ => {
                                self.d2d += 1;
                                4
                            }
                        };
                        self.transfer_ms += ms;
                        h = fnv(fnv(h, code), *bytes);
                    }
                    CommandKind::Marker => h = fnv(h, 5),
                }
                for t in [r.stamp.queued, r.stamp.submit, r.stamp.start, r.stamp.end] {
                    h = fnv(h, t.as_nanos());
                }
                if let Some(busy) = self.busy_ms.get_mut(r.device.index()) {
                    *busy += ms;
                }
                first = first.min(r.stamp.queued.as_nanos());
                last = last.max(r.stamp.end.as_nanos());
            }
            self.fingerprint = h;
            self.records += trace.records.len() as u64;
            self.horizon_ms += last.saturating_sub(first) as f64 / 1e6;
            for lane in lane_utilization(trace).values() {
                self.overlap_ms += lane.overlap.as_millis_f64();
                self.short_lane_ms += lane.compute_busy.min(lane.copy_busy).as_millis_f64();
            }
        });
    }
}

/// The window a pass measures: wall clock and host costs between `start`
/// and `stop`, accumulated over however many windows the pass opens.
pub struct Window {
    started: Option<(std::time::Instant, HostCost)>,
    pub wall: Duration,
    pub host: HostCost,
}

impl Window {
    pub fn new() -> Window {
        // CPU time starts at a known zero; it turns `None` with the first
        // window the host cannot time.
        let host = HostCost { cpu_us: Some(0), ..HostCost::default() };
        Window { started: None, wall: Duration::ZERO, host }
    }

    pub fn start(&mut self) {
        self.started = Some((std::time::Instant::now(), HostCost::now()));
    }

    /// Close the window opened by [`Window::start`]; returns its wall time.
    pub fn stop(&mut self) -> Duration {
        let (t0, c0) = self.started.take().expect("window was started");
        let wall = t0.elapsed();
        self.wall += wall;
        self.host = self.host.plus(&HostCost::now().since(&c0));
        wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_node_is_deterministic_bounded_and_keeps_the_gpus_identical() {
        let (a, b, c) = (seeded_node(7), seeded_node(7), seeded_node(8));
        assert_eq!(a.devices, b.devices);
        assert_ne!(a.devices, c.devices);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let nominal = NodeConfig::paper_node();
        for (s, n) in a.devices.iter().zip(&nominal.devices) {
            let ratio = s.peak_gflops / n.peak_gflops;
            assert!((ratio - 1.0).abs() <= CALIBRATION_JITTER, "{ratio}");
        }
        assert_eq!(a.devices[1].peak_gflops, a.devices[2].peak_gflops);
        assert_eq!(a.devices[1].mem_bandwidth_gbs, a.devices[2].mem_bandwidth_gbs);
    }

    /// `--quick` smoke of all four workloads: a twentieth of the work, one
    /// pass, outputs checked, and a second pass reproduces the first's
    /// virtual fingerprint exactly.
    #[test]
    fn quick_pass_of_every_workload_is_correct_and_repeats() {
        // Scratch goes where the binary's does: under the repo's ignored
        // `results/`.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../results/perf/test-{}", std::process::id()));
        let env = Env::new(11, dir.clone());
        warm_profile_cache(&env.node, &env.cache_dir);
        for w in Workload::ALL {
            let first = w.pass(&env, Scale::Quick, None);
            assert!(first.errors.is_empty(), "{}: {:?}", w.name(), first.errors);
            assert!(first.ops > 0 && first.attempted >= first.ops, "{}", w.name());
            assert_eq!(first.failed, 0, "{}", w.name());
            assert!(first.virt_makespan_ms > 0.0 && !first.virt_latencies_ms.is_empty());
            let tracer = Arc::new(Tracer::new());
            let traced = w.pass(&env, Scale::Quick, Some(&tracer));
            assert!(
                first.same_virtual_timeline(&traced),
                "{}: traced pass must reproduce the untraced virtual timeline",
                w.name()
            );
            assert!(!tracer.take().is_empty(), "{}: tracer saw nothing", w.name());
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
