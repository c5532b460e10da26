//! Table II metadata and the uniform benchmark runner used by the figure
//! harness.

use crate::class::Class;
use crate::{bt, cg, ep, ft, mg, sp};
use clrt::error::{ClError, ClResult};
use clrt::Platform;
use hwsim::{DeviceId, SimDuration};
use multicl::{
    ContextSchedPolicy, MulticlContext, QueueSchedFlags, SchedOptions, SchedQueue, SchedStats,
};

/// How a benchmark's command queues are created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueuePlan {
    /// Automatic scheduling with the benchmark's Table II options.
    Auto,
    /// Automatic scheduling with caller-supplied flags (ablations).
    AutoWith(QueueSchedFlags),
    /// Manual `SCHED_OFF` queues statically bound to the given devices
    /// (cycled if fewer devices than queues) — the Figure 4 baselines.
    Manual(Vec<DeviceId>),
}

/// Queue-count restrictions from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueRule {
    /// Square numbers (BT, SP): 1, 4, 9, …
    Square,
    /// Powers of two (CG, FT, MG): 1, 2, 4, …
    PowerOfTwo,
    /// Any count (EP).
    Any,
}

impl QueueRule {
    /// True if `n` queues are allowed under this rule.
    pub fn allows(self, n: usize) -> bool {
        if n == 0 {
            return false;
        }
        match self {
            QueueRule::Square => {
                let r = (n as f64).sqrt().round() as usize;
                r * r == n
            }
            QueueRule::PowerOfTwo => n.is_power_of_two(),
            QueueRule::Any => true,
        }
    }
}

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct BenchmarkInfo {
    /// Benchmark name ("BT", …).
    pub name: &'static str,
    /// Classes the benchmark supports.
    pub classes: &'static [Class],
    /// Queue-count restriction.
    pub queue_rule: QueueRule,
    /// Example valid queue counts, as printed in Table II.
    pub queue_examples: &'static [usize],
    /// The scheduler options chosen in the paper (Table II).
    pub scheduler_options: &'static [&'static str],
    /// The queue flags implementing those options.
    pub flags: QueueSchedFlags,
    /// Whether the code also calls `clSetKernelWorkGroupInfo`.
    pub uses_work_group_info: bool,
}

const REGION: QueueSchedFlags = QueueSchedFlags::SCHED_EXPLICIT_REGION;

/// The six SNU-NPB-MD rows of Table II.
pub fn suite() -> Vec<BenchmarkInfo> {
    use Class::*;
    let dyn_region = QueueSchedFlags::SCHED_AUTO_DYNAMIC | REGION;
    vec![
        BenchmarkInfo {
            name: "BT",
            classes: &[S, W, A, B],
            queue_rule: QueueRule::Square,
            queue_examples: &[1, 4],
            scheduler_options: &["SCHED_EXPLICIT_REGION", "clSetKernelWorkGroupInfo"],
            flags: dyn_region,
            uses_work_group_info: true,
        },
        BenchmarkInfo {
            name: "CG",
            classes: &[S, W, A, B, C],
            queue_rule: QueueRule::PowerOfTwo,
            queue_examples: &[1, 2, 4],
            scheduler_options: &["SCHED_EXPLICIT_REGION"],
            flags: dyn_region,
            uses_work_group_info: false,
        },
        BenchmarkInfo {
            name: "EP",
            classes: &[S, W, A, B, C, D],
            queue_rule: QueueRule::Any,
            queue_examples: &[1, 2, 4],
            scheduler_options: &["SCHED_KERNEL_EPOCH", "SCHED_COMPUTE_BOUND", "SCHED_SPLITTABLE"],
            flags: QueueSchedFlags::SCHED_AUTO_DYNAMIC
                .bitor(QueueSchedFlags::SCHED_KERNEL_EPOCH)
                .bitor(QueueSchedFlags::SCHED_COMPUTE_BOUND)
                .bitor(QueueSchedFlags::SCHED_SPLITTABLE),
            uses_work_group_info: false,
        },
        BenchmarkInfo {
            name: "FT",
            classes: &[S, W, A],
            queue_rule: QueueRule::PowerOfTwo,
            queue_examples: &[1, 2, 4],
            scheduler_options: &["SCHED_EXPLICIT_REGION", "clSetKernelWorkGroupInfo"],
            flags: dyn_region,
            uses_work_group_info: true,
        },
        BenchmarkInfo {
            name: "MG",
            classes: &[S, W, A, B],
            queue_rule: QueueRule::PowerOfTwo,
            queue_examples: &[1, 2, 4],
            scheduler_options: &["SCHED_EXPLICIT_REGION", "SCHED_SPLITTABLE"],
            flags: dyn_region.bitor(QueueSchedFlags::SCHED_SPLITTABLE),
            uses_work_group_info: false,
        },
        BenchmarkInfo {
            name: "SP",
            classes: &[S, W, A, B, C],
            queue_rule: QueueRule::Square,
            queue_examples: &[1, 4],
            scheduler_options: &["SCHED_EXPLICIT_REGION"],
            flags: dyn_region,
            uses_work_group_info: false,
        },
    ]
}

// `QueueSchedFlags` has a const-incompatible BitOr; a tiny helper keeps the
// table above readable.
trait BitOrExt {
    fn bitor(self, other: QueueSchedFlags) -> QueueSchedFlags;
}
impl BitOrExt for QueueSchedFlags {
    fn bitor(self, other: QueueSchedFlags) -> QueueSchedFlags {
        self | other
    }
}

/// Look up a suite row by name (case-insensitive).
pub fn info(name: &str) -> Option<BenchmarkInfo> {
    suite().into_iter().find(|b| b.name.eq_ignore_ascii_case(name))
}

/// [`info`], with an unknown name an `InvalidValue`.
fn row(name: &str) -> ClResult<BenchmarkInfo> {
    info(name).ok_or_else(|| ClError::InvalidValue(format!("unknown benchmark `{name}`")))
}

/// Check a request against Table II: `name` is a benchmark that has class
/// `class` and allows `queues` queues. Every refusal is an `InvalidValue`
/// that names the rule broken.
pub fn validate(name: &str, class: Class, queues: usize) -> ClResult<BenchmarkInfo> {
    let meta = row(name)?;
    if !meta.queue_rule.allows(queues) {
        return Err(ClError::InvalidValue(format!(
            "{name} does not allow {queues} queues ({:?})",
            meta.queue_rule
        )));
    }
    if !meta.classes.contains(&class) {
        return Err(ClError::InvalidValue(format!("{name} has no class {class}")));
    }
    Ok(meta)
}

/// Create the command queues of benchmark `name` according to `plan`.
pub(crate) fn make_queues(
    ctx: &MulticlContext,
    name: &str,
    plan: &QueuePlan,
    n: usize,
) -> ClResult<Vec<SchedQueue>> {
    let auto_flags = row(name)?.flags;
    match plan {
        QueuePlan::Auto => (0..n).map(|_| ctx.create_queue(auto_flags)).collect(),
        QueuePlan::AutoWith(flags) => (0..n).map(|_| ctx.create_queue(*flags)).collect(),
        QueuePlan::Manual(devs) => {
            if devs.is_empty() {
                return Err(ClError::InvalidValue("manual plan needs ≥1 device".into()));
            }
            (0..n).map(|i| ctx.create_queue_on(devs[i % devs.len()])).collect()
        }
    }
}

/// Run an iterative code for `iterations` (≥ 1) iterations:
/// `step(iteration, queue)` enqueues one iteration's work on one queue, and
/// every queue finishes an iteration before the next begins. Iteration 0 is
/// the warmup (Table II): on queues with `SCHED_EXPLICIT_REGION` it runs
/// inside an explicit scheduling region, closed once every queue has
/// finished it.
pub(crate) fn iterate(
    queues: &[SchedQueue],
    iterations: usize,
    mut step: impl FnMut(usize, usize) -> ClResult<()>,
) -> ClResult<()> {
    let region = |open: bool| {
        for q in queues {
            if q.flags().contains(QueueSchedFlags::SCHED_EXPLICIT_REGION) {
                let _ = q.set_sched_property(open);
            }
        }
    };
    region(true);
    for iteration in 0..iterations {
        for qi in 0..queues.len() {
            step(iteration, qi)?;
        }
        for q in queues {
            q.finish();
        }
        if iteration == 0 {
            region(false);
        }
    }
    Ok(())
}

/// Result of one benchmark run on the virtual node.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark label, e.g. `"EP.D"`.
    pub label: String,
    /// Virtual time from run start to all-queues-drained.
    pub time: SimDuration,
    /// Whether the benchmark's verification passed.
    pub verified: bool,
    /// Device each queue ended on.
    pub final_devices: Vec<DeviceId>,
    /// Scheduler counters for the run.
    pub stats: SchedStats,
}

/// Run one benchmark end to end on a fresh context over `platform`.
///
/// This is the figure harness entry point: it builds the app (per `name`),
/// runs it under `plan`, verifies, and reports the virtual makespan. The
/// caller supplies the platform so it can snapshot traces afterwards.
pub fn run_benchmark(
    platform: &Platform,
    policy: ContextSchedPolicy,
    options: SchedOptions,
    name: &str,
    class: Class,
    queues: usize,
    plan: &QueuePlan,
) -> ClResult<RunResult> {
    let meta = validate(name, class, queues)?;
    let ctx = MulticlContext::with_options(platform, policy, options)?;
    // Time only the solve loop (`run`), as NPB does: context creation
    // (device profiling), program build (minikernel transformation), and
    // initial data distribution are one-time setup outside the timed region.
    macro_rules! timed_run {
        ($app_ty:ty) => {{
            let mut app = <$app_ty>::new(&ctx, class, queues, plan)?;
            let start = platform.now();
            app.run()?;
            let time = platform.now() - start;
            (time, app.verify(), app.into_queues())
        }};
    }
    let (time, verified, queues_handles) = match meta.name {
        "BT" => timed_run!(bt::BtApp),
        "CG" => timed_run!(cg::CgApp),
        "EP" => timed_run!(ep::EpApp),
        "FT" => timed_run!(ft::FtApp),
        "MG" => timed_run!(mg::MgApp),
        "SP" => timed_run!(sp::SpApp),
        other => unreachable!("suite() listed unknown benchmark {other}"),
    };
    Ok(RunResult {
        label: format!("{}.{}", meta.name, class),
        time,
        verified,
        final_devices: queues_handles.iter().map(SchedQueue::device).collect(),
        stats: ctx.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_rules_match_table_ii() {
        assert!(QueueRule::Square.allows(1));
        assert!(QueueRule::Square.allows(4));
        assert!(!QueueRule::Square.allows(2));
        assert!(QueueRule::PowerOfTwo.allows(2));
        assert!(!QueueRule::PowerOfTwo.allows(3));
        assert!(QueueRule::Any.allows(3));
        assert!(!QueueRule::Any.allows(0));
    }

    #[test]
    fn suite_has_six_benchmarks_with_paper_options() {
        let s = suite();
        assert_eq!(s.len(), 6);
        let ep = info("ep").unwrap();
        assert!(ep.flags.contains(QueueSchedFlags::SCHED_COMPUTE_BOUND));
        assert!(ep.flags.contains(QueueSchedFlags::SCHED_KERNEL_EPOCH));
        let bt = info("BT").unwrap();
        assert!(bt.uses_work_group_info);
        assert!(bt.flags.contains(QueueSchedFlags::SCHED_EXPLICIT_REGION));
        // Classes per Table II.
        assert_eq!(info("FT").unwrap().classes, &[Class::S, Class::W, Class::A]);
        assert_eq!(info("EP").unwrap().classes.len(), 6);
    }

    #[test]
    fn every_suite_flag_combination_is_valid() {
        for b in suite() {
            assert!(b.flags.validate().is_ok(), "{}", b.name);
            assert!(b.flags.is_auto(), "{}", b.name);
        }
    }

    #[test]
    fn unknown_benchmark_is_rejected() {
        assert!(info("XX").is_none());
    }

    #[test]
    fn table_ii_work_scaling_regimes_hold() {
        // Table II distinguishes two decomposition regimes: EP divides a
        // fixed total among its queues (constant work per application),
        // while CG gives every queue its own full problem (constant work
        // per queue). Verify on a single device, where the regimes show up
        // directly in the serialized run time.
        use multicl::{ContextSchedPolicy, ProfileCache, SchedOptions};
        let options = || SchedOptions {
            profile_cache: ProfileCache::at(
                std::env::temp_dir().join(format!("npb-scaling-test-{}", std::process::id())),
            ),
            ..SchedOptions::default()
        };
        let cpu = hwsim::NodeConfig::paper_node().cpu().unwrap();
        let run = |name: &str, class: Class, queues: usize| -> f64 {
            let platform = clrt::Platform::paper_node();
            let r = run_benchmark(
                &platform,
                ContextSchedPolicy::AutoFit,
                options(),
                name,
                class,
                queues,
                &QueuePlan::Manual(vec![cpu]),
            )
            .unwrap();
            assert!(r.verified);
            r.time.as_secs_f64()
        };
        // EP: total work constant → similar time for 1 vs 4 queues. Class A
        // keeps each quarter-slice wide enough to saturate the device (at
        // class S a slice is 4 workgroups on a 16-core CPU, so utilization
        // — not work — dominates).
        let (ep1, ep4) = (run("EP", Class::A, 1), run("EP", Class::A, 4));
        let ratio = ep4 / ep1;
        assert!((0.6..1.7).contains(&ratio), "EP work should not scale with queues: {ratio:.2}");
        // CG: work per queue constant → ~2× time for 2 vs 1 queues.
        let (cg1, cg2) = (run("CG", Class::S, 1), run("CG", Class::S, 2));
        let ratio = cg2 / cg1;
        assert!((1.6..2.4).contains(&ratio), "CG work should double with queues: {ratio:.2}");
    }

    #[test]
    fn an_iterative_code_is_scheduled_once_in_its_warm_up_region() {
        // Under Auto the warm-up iteration is the one scheduled epoch: one
        // pass over the four queues, one profiled and three served from the
        // epoch cache; every later iteration runs where the region left it.
        // A region left open would schedule every iteration, one closed
        // before the warm-up is enqueued none. (Closing it after the enqueue
        // but before `finish` runs the same one pass.) A manual plan never
        // schedules.
        use multicl::ProfileCache;
        let options = || SchedOptions {
            profile_cache: ProfileCache::at(
                std::env::temp_dir().join(format!("npb-region-test-{}", std::process::id())),
            ),
            ..SchedOptions::default()
        };
        let cpu = hwsim::NodeConfig::paper_node().cpu().unwrap();
        for (name, issued) in [("BT", 600), ("CG", 1320), ("FT", 120), ("MG", 520), ("SP", 600)] {
            let run = |plan: &QueuePlan| {
                let platform = clrt::Platform::paper_node();
                let policy = ContextSchedPolicy::AutoFit;
                run_benchmark(&platform, policy, options(), name, Class::S, 4, plan).unwrap().stats
            };
            let auto = run(&QueuePlan::Auto);
            let counts = (
                auto.sched_invocations,
                auto.profiled_epochs,
                auto.cache_hits,
                auto.kernels_issued,
            );
            assert_eq!(counts, (1, 1, 3, issued), "{name}: (passes, profiled, hits, issued)");
            assert_eq!(run(&QueuePlan::Manual(vec![cpu])).sched_invocations, 0, "{name}");
        }
    }

    #[test]
    fn run_benchmark_rejects_invalid_requests() {
        use multicl::{ContextSchedPolicy, ProfileCache, SchedOptions};
        let platform = clrt::Platform::paper_node();
        let options = || SchedOptions {
            profile_cache: ProfileCache::at(
                std::env::temp_dir().join(format!("npb-suite-test-{}", std::process::id())),
            ),
            ..SchedOptions::default()
        };
        // BT requires square queue counts.
        let r = run_benchmark(
            &platform,
            ContextSchedPolicy::AutoFit,
            options(),
            "BT",
            Class::S,
            2,
            &QueuePlan::Auto,
        );
        assert!(r.is_err(), "BT with 2 queues must be rejected");
        // FT has no class D.
        let r = run_benchmark(
            &platform,
            ContextSchedPolicy::AutoFit,
            options(),
            "FT",
            Class::D,
            1,
            &QueuePlan::Auto,
        );
        assert!(r.is_err(), "FT.D is not in Table II");
        // Unknown benchmark name.
        let r = run_benchmark(
            &platform,
            ContextSchedPolicy::AutoFit,
            options(),
            "LU",
            Class::S,
            1,
            &QueuePlan::Auto,
        );
        assert!(r.is_err());
        // Manual plan with no devices.
        let r = run_benchmark(
            &platform,
            ContextSchedPolicy::AutoFit,
            options(),
            "EP",
            Class::S,
            1,
            &QueuePlan::Manual(vec![]),
        );
        assert!(r.is_err());
    }
}
