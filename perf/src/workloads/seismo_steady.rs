//! `seismo_steady` — FDM-Seismology on the default 32×32×16 grid, column-
//! and row-major, `FdmPlan::Auto`, 400 iterations each, plus a manual replay
//! of the devices `AUTO_FIT` ended on.
//!
//! Why it exists: steady-state iterative epochs with cached profiles — 800
//! synchronization epochs per layout that hit the profile cache, and many
//! short commands, so `clrt` enqueue, the `hwsim` time plane and the
//! hazard-tracked data plane dominate per command while the mapper and the
//! profiler are almost idle: the same scheduler used the opposite way from
//! `npb_suite`.
//!
//! Op = one application kernel launch (32 per iteration). Request = one
//! `AUTO_FIT` solver iteration of both code versions (iteration *i* of the
//! column-major run plus iteration *i* of the row-major run), so the latency
//! sample is not two populations of equal size with the median on the seam.

use super::{Env, Pass, Scale, Window};
use crate::spans::Tracer;
use clrt::Platform;
use multicl::{ContextSchedPolicy, MulticlContext};
use seismo::{FdmApp, FdmConfig, FdmPlan, Layout};
use std::sync::Arc;
use std::time::Duration;

const ITERATIONS: usize = 400;
const QUICK_ITERATIONS: usize = 20;
const REGIONS: usize = 2;
const FIELDS: usize = 9;

struct Run {
    platform: Platform,
    ctx: MulticlContext,
    app: FdmApp,
    wall: Duration,
}

pub fn pass(env: &Env, scale: Scale, tracer: Option<&Arc<Tracer>>) -> Pass {
    let iterations = match scale {
        Scale::Full => ITERATIONS,
        Scale::Quick => QUICK_ITERATIONS,
    };
    let mut pass = Pass { virt_latencies_ms: vec![0.0; iterations], ..Pass::default() };
    let mut window = Window::new();
    for layout in [Layout::ColumnMajor, Layout::RowMajor] {
        // Platform, context, program build and the initial field writes
        // happen before the window opens; the window is the solver loop.
        let mut solve = |plan: &FdmPlan| {
            let platform = env.platform();
            let options = env.sched_options(tracer);
            let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
                .expect("context over the seeded node");
            let cfg = FdmConfig { layout, iterations, ..FdmConfig::default() };
            let mut app = FdmApp::new(&ctx, cfg, plan).expect("FDM application builds");
            window.start();
            for _ in 0..iterations {
                if let Some(t) = tracer {
                    t.enter("step");
                }
                app.step().expect("FDM step");
                if let Some(t) = tracer {
                    t.exit();
                }
            }
            let wall = window.stop();
            Run { platform, ctx, app, wall }
        };
        let auto = solve(&FdmPlan::Auto);
        let (d1, d2) = auto.app.devices();
        let replay = solve(&FdmPlan::Manual(d1, d2));

        let (vel, stress) = auto.app.kernel_counts();
        let launches = (iterations * (vel + stress)) as u64;
        let identical = auto.app.energy().to_bits() == replay.app.energy().to_bits()
            && (0..REGIONS).all(|r| {
                (0..FIELDS).all(|f| {
                    let (a, b) = (auto.app.field(r, f), replay.app.field(r, f));
                    a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits())
                })
            });
        let label = layout.label();
        if !identical {
            pass.errors.push(format!("{label}-major: AUTO_FIT and replay wavefields differ"));
        }
        for (run, plan) in [(&auto, "AUTO_FIT"), (&replay, "manual replay")] {
            pass.attempted += launches;
            if run.app.is_finite() && identical {
                pass.ops += launches;
            } else {
                pass.failed += launches;
                if !run.app.is_finite() {
                    pass.errors.push(format!("{label}-major under {plan}: wavefield not finite"));
                }
            }
        }
        let iter_ms = |run: &Run| -> Vec<f64> {
            run.app.iteration_times().iter().map(|t| t.total().as_millis_f64()).collect()
        };
        let auto_iters = iter_ms(&auto);
        let auto_ms: f64 = auto_iters.iter().sum();
        let replay_ms: f64 = iter_ms(&replay).iter().sum();
        pass.virt_makespan_ms += auto_ms;
        for (request, iteration) in pass.virt_latencies_ms.iter_mut().zip(&auto_iters) {
            *request += iteration;
        }
        pass.layer.add_sched(&auto.ctx.stats());
        pass.layer.auto_wall += auto.wall;
        pass.layer.replay_wall += replay.wall;
        pass.layer.auto_virt_ms += auto_ms;
        pass.layer.replay_virt_ms += replay_ms;
        pass.layer.overhead_factors.push(auto_ms / replay_ms);
        pass.layer.extra.insert(
            format!("seismo.wall_us_per_iter.{label}"),
            auto.wall.as_secs_f64() * 1e6 / iterations as f64,
        );
        pass.layer.extra.insert(
            format!("seismo.virt_iter_ms.{label}"),
            auto.app.steady_iteration_time().as_millis_f64(),
        );
        for run in [&auto, &replay] {
            pass.layer.add_plane(&run.platform);
            pass.digest.absorb(&run.platform);
        }
        pass.layer.replay_commands +=
            replay.platform.with_engine(|e| e.trace().records.len() as u64);
    }
    pass.wall = window.wall;
    pass.host = window.host;
    pass
}
