//! The mapper's regret on every Table II point (paper claim 1: MultiCL
//! "always maps command queues to the optimal device set").
//!
//! For each benchmark at classes S and W and each queue count Table II
//! lists for it (BT and SP take 1 or 4 queues, the rest 1, 2 or 4), run
//! AUTO_FIT, replay its final mapping as a `QueuePlan::Manual`, and run
//! every one of the 3^Q manual plans on the paper node. The regret is the
//! replay's virtual time over the best plan's, minus one.
//!
//! The table below is a ratchet: every point must stay at or below its
//! recorded regret, and the points above `paper_claims.rs`'s 1 % tie bound
//! must be exactly the ones [`LOSERS`] names. A mapper that gets better
//! lowers the table in the same change.
//!
//! Full size in release, which is what CI runs (about 20 s on a 2-core
//! host); in debug only class S up to two queues.

use hwsim::{DeviceId, NodeConfig};
use multicl::{ContextSchedPolicy, ProfileCache, SchedOptions};
use npb::{run_benchmark, Class, QueuePlan};

/// The tie bound of `paper_claims.rs`'s exhaustive-optimum test.
const TIE: f64 = 0.01;

/// Recorded regret per point, in percent, rounded up to 0.01 %.
const REGRET_PCT: &[(&str, Class, usize, f64)] = &[
    ("BT", Class::S, 1, 0.0),
    ("BT", Class::S, 4, 0.0),
    ("BT", Class::W, 1, 0.0),
    ("BT", Class::W, 4, 0.0),
    ("CG", Class::S, 1, 0.0),
    ("CG", Class::S, 2, 0.0),
    ("CG", Class::S, 4, 0.0),
    ("CG", Class::W, 1, 0.0),
    ("CG", Class::W, 2, 0.0),
    ("CG", Class::W, 4, 1.22),
    ("EP", Class::S, 1, 0.0),
    ("EP", Class::S, 2, 0.0),
    ("EP", Class::S, 4, 0.0),
    ("EP", Class::W, 1, 0.0),
    ("EP", Class::W, 2, 1.11),
    ("EP", Class::W, 4, 0.0),
    ("FT", Class::S, 1, 0.0),
    ("FT", Class::S, 2, 0.0),
    ("FT", Class::S, 4, 0.0),
    ("FT", Class::W, 1, 0.0),
    ("FT", Class::W, 2, 0.0),
    ("FT", Class::W, 4, 1.79),
    ("MG", Class::S, 1, 0.0),
    ("MG", Class::S, 2, 0.0),
    ("MG", Class::S, 4, 1.90),
    ("MG", Class::W, 1, 0.0),
    ("MG", Class::W, 2, 0.0),
    ("MG", Class::W, 4, 1.90),
    ("SP", Class::S, 1, 0.0),
    ("SP", Class::S, 4, 1.09),
    ("SP", Class::W, 1, 0.0),
    ("SP", Class::W, 4, 0.0),
];

/// The points whose regret is above [`TIE`] today. In four of them the best
/// plan uses the same devices as AUTO_FIT's in another order, which the
/// mapper's additive cost matrix cannot tell apart (ROADMAP item 17).
const LOSERS: &[(&str, Class, usize)] = &[
    ("CG", Class::W, 4),
    ("EP", Class::W, 2),
    ("FT", Class::W, 4),
    ("MG", Class::S, 4),
    ("MG", Class::W, 4),
    ("SP", Class::S, 4),
];

fn options() -> SchedOptions {
    SchedOptions {
        profile_cache: ProfileCache::at(
            std::env::temp_dir().join(format!("multicl-regret-{}", std::process::id())),
        ),
        ..SchedOptions::default()
    }
}

/// Virtual time of one verified run of `name` at `class` over `queues`
/// queues under `plan`, and the devices its queues ended on.
fn run(name: &str, class: Class, queues: usize, plan: &QueuePlan) -> (f64, Vec<DeviceId>) {
    let platform = clrt::Platform::paper_node();
    let r =
        run_benchmark(&platform, ContextSchedPolicy::AutoFit, options(), name, class, queues, plan)
            .unwrap_or_else(|e| panic!("{name}.{class} over {queues} queue(s), {plan:?}: {e}"));
    assert!(r.verified, "{} over {queues} queue(s), {plan:?}: verification failed", r.label);
    (r.time.as_secs_f64(), r.final_devices)
}

/// AUTO_FIT's regret at one point, and the best manual plan.
fn regret(name: &str, class: Class, queues: usize) -> (f64, Vec<DeviceId>, Vec<DeviceId>) {
    let devices: Vec<DeviceId> = NodeConfig::paper_node().device_ids().collect();
    let (_, mapped) = run(name, class, queues, &QueuePlan::Auto);
    let (replayed, _) = run(name, class, queues, &QueuePlan::Manual(mapped.clone()));
    let mut best = (f64::INFINITY, Vec::new());
    for a in multicl::mapper::enumerate_assignments(queues, devices.len()) {
        let plan: Vec<DeviceId> = a.iter().map(|d| devices[d.index()]).collect();
        let (time, _) = run(name, class, queues, &QueuePlan::Manual(plan.clone()));
        if time < best.0 {
            best = (time, plan);
        }
    }
    (replayed / best.0 - 1.0, mapped, best.1)
}

#[test]
fn autofit_regret_holds_its_ratchet_on_every_table_ii_point() {
    let full = !cfg!(debug_assertions);
    let mut broken = Vec::new();
    for &(name, class, queues, pinned) in REGRET_PCT {
        if !full && (class != Class::S || queues > 2) {
            continue;
        }
        let (r, mapped, best) = regret(name, class, queues);
        let pct = 100.0 * r;
        println!(
            "{name}.{class} {queues}q: regret {pct:.3} % (AUTO_FIT {mapped:?}, best {best:?})"
        );
        if pct > pinned + 1e-9 {
            broken.push(format!(
                "{name}.{class} {queues}q: regret {pct:.3} % above its recorded {pinned} % \
                 (AUTO_FIT {mapped:?}, best {best:?})"
            ));
        }
        let named = LOSERS.contains(&(name, class, queues));
        if (r > TIE) != named {
            broken.push(format!(
                "{name}.{class} {queues}q: regret {pct:.3} %, {} LOSERS",
                if named { "named in" } else { "not named in" }
            ));
        }
    }
    assert!(broken.is_empty(), "the mapper's regret ratchet:\n{}", broken.join("\n"));
}
