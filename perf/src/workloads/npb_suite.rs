//! `npb_suite` — the paper's Figure 4 set under `AUTO_FIT` with the Table II
//! flags, four queues, each benchmark on a fresh platform and each followed
//! by a manual replay of the mapping `AUTO_FIT` ended on.
//!
//! Why it exists: it is the paper's own evaluation. Host time is real kernel
//! math on the data plane; it is the only workload that pays first-iteration
//! profiling (minikernel, data caching) and really splits kernels (EP and MG
//! are `SCHED_SPLITTABLE`). `served` and the telemetry sinks do nothing here.
//!
//! Op = one application kernel launch, counted from the manual replay (whose
//! `SCHED_OFF` queues pass launches through one to one). Request = one
//! `AUTO_FIT` benchmark run.

use super::{Env, Pass, Scale, Window};
use crate::spans::Tracer;
use multicl::ContextSchedPolicy;
use npb::{run_benchmark, Class, QueuePlan};
use std::sync::Arc;
use std::time::Instant;

const QUEUES: usize = 4;

/// Figure 4's benchmark/class pairs (largest class fitting the devices).
const PAPER_SET: [(&str, Class); 6] = [
    ("BT", Class::B),
    ("CG", Class::C),
    ("EP", Class::D),
    ("FT", Class::A),
    ("MG", Class::B),
    ("SP", Class::C),
];

/// The same six codes at classes about twenty times lighter.
const QUICK_SET: [(&str, Class); 6] = [
    ("BT", Class::S),
    ("CG", Class::S),
    ("EP", Class::A),
    ("FT", Class::S),
    ("MG", Class::S),
    ("SP", Class::S),
];

pub fn pass(env: &Env, scale: Scale, tracer: Option<&Arc<Tracer>>) -> Pass {
    let set = match scale {
        Scale::Full => PAPER_SET,
        Scale::Quick => QUICK_SET,
    };
    let mut pass = Pass::default();
    let mut window = Window::new();
    window.start();
    for (name, class) in set {
        let run = |plan: &QueuePlan| {
            let platform = env.platform();
            if let Some(t) = tracer {
                t.enter("run_benchmark");
            }
            let began = Instant::now();
            let result = run_benchmark(
                &platform,
                ContextSchedPolicy::AutoFit,
                env.sched_options(tracer),
                name,
                class,
                QUEUES,
                plan,
            )
            .unwrap_or_else(|e| panic!("{name}.{class} failed to run: {e}"));
            let wall = began.elapsed();
            if let Some(t) = tracer {
                t.exit();
            }
            (platform, result, wall)
        };
        let (auto_platform, auto, auto_wall) = run(&QueuePlan::Auto);
        let (replay_platform, replay, replay_wall) =
            run(&QueuePlan::Manual(auto.final_devices.clone()));
        // Replays issue exactly the application's launches.
        let launches = replay.stats.kernels_issued;
        for (result, plan) in [(&auto, "AUTO_FIT"), (&replay, "manual replay")] {
            pass.attempted += launches;
            if result.verified {
                pass.ops += launches;
            } else {
                pass.failed += launches;
                pass.errors.push(format!("{} under {plan} failed verification", result.label));
            }
        }
        let (auto_ms, replay_ms) = (auto.time.as_millis_f64(), replay.time.as_millis_f64());
        pass.virt_makespan_ms += auto_ms;
        pass.virt_latencies_ms.push(auto_ms);
        pass.layer.add_sched(&auto.stats);
        pass.layer.auto_wall += auto_wall;
        pass.layer.replay_wall += replay_wall;
        pass.layer.auto_virt_ms += auto_ms;
        pass.layer.replay_virt_ms += replay_ms;
        pass.layer.overhead_factors.push(auto_ms / replay_ms);
        pass.layer.extra.insert(format!("npb.wall_ms.{name}"), auto_wall.as_secs_f64() * 1e3);
        pass.layer.extra.insert(format!("npb.virt_ms.{name}"), auto_ms);
        pass.layer
            .extra
            .insert(format!("npb.virt_overhead_pct.{name}"), 100.0 * (auto_ms / replay_ms - 1.0));
        // Digests are bookkeeping, not workload: keep them out of the window.
        window.stop();
        for platform in [&auto_platform, &replay_platform] {
            pass.layer.add_plane(platform);
            pass.digest.absorb(platform);
        }
        pass.layer.replay_commands +=
            replay_platform.with_engine(|e| e.trace().records.len() as u64);
        drop((auto_platform, replay_platform));
        window.start();
    }
    window.stop();
    pass.wall = window.wall;
    pass.host = window.host;
    pass
}
