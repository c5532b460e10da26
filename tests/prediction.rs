//! The scheduler's prediction against what ran. Every scheduling epoch
//! emits a `MakespanAttribution`: the end of the replay of the plan the pass
//! issues, from the devices and queues the flush finds (`Plan::predicted`),
//! against the executed critical path. This runs the four `perf` workload
//! shapes cut small — the Fig. 4 NPB set at class S, a small FDM grid, a
//! few hundred `serve_light`-shaped jobs and about a hundred
//! `serve_mix`-shaped ones — and bounds each shape's mean
//! `|predicted − actual| / actual` over its epochs. An NPB code at class S
//! is one attributed epoch (its region), so the set takes all six codes.
//!
//! Each bound is a ratchet: the measured figure (virtual time, the same in
//! debug and release) rounded up to the next half percent. A change that
//! makes the replay a worse model of the time plane fails here; one that
//! makes it better lowers the bound. A prediction that leaves out the
//! host's enqueues fails both serving shapes (0.1104 and 0.0076): each
//! job's upload is the first command its queue issues in the epoch, and it
//! starts no sooner than the host has enqueued it and everything before.

use hwsim::xrand::XorShift;
use hwsim::{SimDuration, SimTime};
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, SchedEvent, SchedObserver, SchedOptions,
};
use npb::{run_benchmark, Class, QueuePlan};
use seismo::{Dims, FdmApp, FdmConfig, FdmPlan};
use served::loadgen::{self, Arrival, LoadgenConfig};
use served::spec::StepOp;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

/// Per shape, the most its mean relative prediction error may be: measured
/// 0.1023 (NPB), 0.0036 (FDM), 0.0592 (`serve_light`, 0.0576 before a warm
/// job's upload moved into the pass) and 0 (`serve_mix`) — the NPB and FDM
/// bounds were set before the prediction counted the host's enqueues,
/// which brought them to 0.0945 and 0.
const NPB_BOUND: f64 = 0.105;
const FDM_BOUND: f64 = 0.005;
const SERVE_LIGHT_BOUND: f64 = 0.06;
const SERVE_MIX_BOUND: f64 = 0.005;

/// Each attributed epoch's `|predicted − actual| / actual`.
#[derive(Default)]
struct Errors(Mutex<Vec<f64>>);

impl SchedObserver for Errors {
    fn on_event(&self, event: &SchedEvent) {
        if let SchedEvent::MakespanAttribution { predicted, actual, .. } = event {
            if !actual.is_zero() {
                let (p, a) = (predicted.as_nanos() as f64, actual.as_nanos() as f64);
                self.0.lock().unwrap_or_else(PoisonError::into_inner).push((p - a).abs() / a);
            }
        }
    }
}

impl Errors {
    /// The mean error over at least `epochs` attributed epochs.
    fn mean(&self, shape: &str, epochs: usize) -> f64 {
        let errors = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(errors.len() >= epochs, "{shape}: {} attributed epochs", errors.len());
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        println!(
            "{shape}: mean |predicted − actual| / actual {mean:.4} over {} epochs",
            errors.len()
        );
        mean
    }
}

/// A per-shape scratch profile-cache directory.
fn cache_dir(shape: &str) -> PathBuf {
    std::env::temp_dir().join(format!("prediction-{shape}-{}", std::process::id()))
}

fn options(errors: &Arc<Errors>, dir: &PathBuf) -> SchedOptions {
    SchedOptions {
        profile_cache: ProfileCache::at(dir),
        observers: vec![Arc::clone(errors) as Arc<dyn SchedObserver>],
        ..SchedOptions::default()
    }
}

fn check(shape: &str, mean: f64, bound: f64) {
    assert!(mean <= bound, "{shape}: mean prediction error {mean:.4} exceeds its bound {bound}");
}

#[test]
fn the_npb_set_is_predicted_within_its_bound() {
    let (errors, dir) = (Arc::new(Errors::default()), cache_dir("npb"));
    for code in ["BT", "CG", "EP", "FT", "MG", "SP"] {
        let platform = clrt::Platform::paper_node();
        let options = options(&errors, &dir);
        let run = run_benchmark(
            &platform,
            ContextSchedPolicy::AutoFit,
            options,
            code,
            Class::S,
            4,
            &QueuePlan::Auto,
        )
        .unwrap_or_else(|e| panic!("{code}.S: {e}"));
        assert!(run.verified, "{code}.S verifies");
    }
    let _ = std::fs::remove_dir_all(&dir);
    check("NPB class S", errors.mean("NPB class S", 6), NPB_BOUND);
}

#[test]
fn a_small_fdm_grid_is_predicted_within_its_bound() {
    let (errors, dir) = (Arc::new(Errors::default()), cache_dir("fdm"));
    let platform = clrt::Platform::paper_node();
    let ctx = MulticlContext::with_options(
        &platform,
        ContextSchedPolicy::AutoFit,
        options(&errors, &dir),
    )
    .expect("context builds");
    let cfg = FdmConfig { dims: Dims::new(16, 16, 8), ..FdmConfig::default() };
    let mut app = FdmApp::new(&ctx, cfg, &FdmPlan::Auto).expect("FDM application builds");
    for _ in 0..10 {
        app.step().expect("FDM step");
    }
    assert!(app.is_finite(), "the wavefield stays finite");
    let _ = std::fs::remove_dir_all(&dir);
    check("FDM 16×16×8", errors.mean("FDM 16×16×8", 20), FDM_BOUND);
}

/// Serve `arrivals` on a fresh four-tenant, four-worker AUTO_FIT service
/// whose programs are warmed from `pool`.
fn serve(shape: &str, pool: &[served::JobSpec], arrivals: &[Arrival], errors: &Arc<Errors>) {
    let dir = cache_dir(shape);
    let cfg =
        LoadgenConfig { tenants: 4, workers: 4, queue_capacity: 8, ..LoadgenConfig::default() };
    let observers = vec![Arc::clone(errors) as Arc<dyn SchedObserver>];
    let served = loadgen::build_service(&cfg, &dir, observers).expect("service builds");
    served.warm_programs(pool).expect("templates build");
    loadgen::drive_open(&served, arrivals);
    let completed: u64 = (0..4).map(|t| served.metrics().tenant(t).completed.get()).sum();
    assert!(completed > 0, "{shape}: jobs complete");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_light_shaped_jobs_are_predicted_within_their_bound() {
    // `serve_light`: the stock templates cut to one 64-item workgroup over
    // 256-element buffers, in bursts of one job per tenant at 24 000 jobs/s,
    // 60 % in order, 20 % out of order, 20 % splittable.
    let mut pool = loadgen::templates();
    for job in &mut pool {
        job.buffers.iter_mut().for_each(|b| b.elements = 256);
        for step in &mut job.steps {
            if let StepOp::Launch { global, local, .. } = &mut step.op {
                (*global, *local) = (64, 64);
            }
        }
    }
    let mut rng = XorShift::new(42);
    let mut at = SimTime::ZERO;
    let arrivals: Vec<Arrival> = (0..400)
        .map(|i| {
            if i % 4 == 0 {
                at += SimDuration::from_secs_f64(rng.exp_f64(24_000.0 / 4.0));
            }
            let mut spec = pool[rng.index(pool.len())].clone();
            match rng.index(10) {
                0..=5 => {}
                6..=7 => spec.out_of_order = true,
                _ => spec.splittable = true,
            }
            Arrival { at, tenant: i % 4, spec }
        })
        .collect();
    let errors = Arc::new(Errors::default());
    serve("serve-light", &pool, &arrivals, &errors);
    check("serve_light", errors.mean("serve_light", 50), SERVE_LIGHT_BOUND);
}

#[test]
fn serve_mix_shaped_jobs_are_predicted_within_their_bound() {
    // `serve_mix`: the stock templates, in order, one by one at 27 000
    // jobs/s — about twice capacity.
    let cfg = LoadgenConfig { seed: 42, jobs: 100, rate_hz: 27_000.0, ..LoadgenConfig::default() };
    let errors = Arc::new(Errors::default());
    serve("serve-mix", &loadgen::templates(), &loadgen::open_arrivals(&cfg), &errors);
    check("serve_mix", errors.mean("serve_mix", 10), SERVE_MIX_BOUND);
}
