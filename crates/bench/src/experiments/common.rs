//! Shared experiment helpers: timed NPB runs on fresh platforms, the
//! paper's overhead metric, and the "replay the chosen mapping manually"
//! trick used to obtain `T_ideal_map`.

use crate::harness::fresh_platform;
use hwsim::{DeviceId, SimDuration, Trace};
use multicl::ContextSchedPolicy;
use npb::{run_benchmark, Class, QueuePlan, RunResult};

/// The paper's Figure 4/8 benchmark+class pairs (largest class fitting the
/// devices).
pub const PAPER_SET: [(&str, Class); 6] = [
    ("BT", Class::B),
    ("CG", Class::C),
    ("EP", Class::D),
    ("FT", Class::A),
    ("MG", Class::B),
    ("SP", Class::C),
];

/// A smaller set with the same cross-benchmark shape, used by tests
/// (debug builds) to keep wall time low.
pub const SMALL_SET: [(&str, Class); 6] = [
    ("BT", Class::S),
    ("CG", Class::S),
    ("EP", Class::A),
    ("FT", Class::S),
    ("MG", Class::S),
    ("SP", Class::S),
];

/// Scheduler options with the process-wide scratch profile cache (so the
/// static device profile is measured once per process and warm afterwards).
pub fn bench_options(data_caching: bool) -> multicl::SchedOptions {
    multicl::SchedOptions {
        data_caching,
        profile_cache: multicl::ProfileCache::at(
            std::env::temp_dir().join(format!("multicl-bench-cache-{}", std::process::id())),
        ),
        ..multicl::SchedOptions::default()
    }
}

/// One timed run on a fresh platform; returns the result plus the trace.
pub fn run_on_fresh(
    policy: ContextSchedPolicy,
    data_caching: bool,
    name: &str,
    class: Class,
    queues: usize,
    plan: &QueuePlan,
) -> (RunResult, Trace) {
    let platform = fresh_platform();
    let result =
        run_benchmark(&platform, policy, bench_options(data_caching), name, class, queues, plan)
            .unwrap_or_else(|e| panic!("{name}.{class} failed: {e}"));
    let trace = platform.take_trace();
    (result, trace)
}

/// Run AutoFit, then replay its chosen mapping as a manual schedule to get
/// the ideal (scheduler-free) time — the denominator of the paper's
/// overhead metric. Returns `(auto, auto_trace, ideal_time)`.
pub fn auto_and_ideal(
    name: &str,
    class: Class,
    queues: usize,
    plan: &QueuePlan,
    data_caching: bool,
) -> (RunResult, Trace, SimDuration) {
    let (auto, trace) =
        run_on_fresh(ContextSchedPolicy::AutoFit, data_caching, name, class, queues, plan);
    let replay = QueuePlan::Manual(auto.final_devices.clone());
    let (ideal, _) =
        run_on_fresh(ContextSchedPolicy::AutoFit, data_caching, name, class, queues, &replay);
    (auto, trace, ideal.time)
}

/// Manual schedules used as Figure 4 baselines, given the node's devices.
/// Returns `(label, device cycle)` pairs; queue `i` goes to `cycle[i % len]`.
pub fn figure4_baselines(
    cpu: DeviceId,
    g0: DeviceId,
    g1: DeviceId,
) -> Vec<(&'static str, Vec<DeviceId>)> {
    vec![
        ("Explicit CPU only", vec![cpu]),
        ("Explicit GPU only", vec![g0]),
        ("Round Robin (GPUs only)", vec![g0, g1]),
        ("Round Robin #1", vec![g0, g1, cpu, g0]),
        ("Round Robin #2", vec![cpu, g0, g1, cpu]),
    ]
}
