//! The serving path's allocation budget, counted by this test's own global
//! allocator.
//!
//! The set-up is `perf`'s `serve_light` shape: four tenants and four worker
//! queues under `AUTO_FIT`, the stock templates cut down to one 64-item
//! workgroup over 256-element buffers, a 60/20/20 mix of in-order /
//! out-of-order / splittable jobs, and a ring buffer plus a JSONL writer
//! attached as an operator would. The platform has one data-plane worker,
//! so every kernel body and transfer runs on the submitting thread and the
//! count repeats exactly from run to run.
//!
//! Names, cost rows and every list an event holds are shared by reference
//! count from the job spec to the telemetry ring, a priced row equal to one
//! priced lately is that row, a job spec shares its template's body and the
//! body keeps its checked order and resolved names, the scheduling pass and
//! the dispatch round keep their temporaries in scratch that lives from one
//! epoch to the next (the mapper's result list included), a job borrows its
//! kernels and buffers from its program's pool of idle instances, and a
//! kernel launch's data-plane half allocates nothing, so a job makes 1.51
//! allocations here — its trace's attempt list, and one pass's decision and
//! lane-overlap lists per four jobs: 98.8 → 52.7 → 31.7 → 16.0 → 15.4 →
//! 14.5 → 14.26 → 12.93 → 4.26 → 1.51 per job on `perf`'s `serve_light` as
//! each layer stopped copying, then stopped rebuilding, then the
//! predictor's refinement and the mapper's greedy order moved into scratch,
//! a priced queue got one mapper row, a kernel context came to reuse its
//! thread's store table, a template came to be cloned by reference and
//! checked once, and an event's lists and the priced rows came to be
//! shared (4.256 → 1.506 here). Cloning every event the ring kept
//! allocates nothing. The budget is the measured figure plus 5 %: a change
//! that starts copying or rebuilding again fails here before it reaches the
//! benchmark.
//!
//! A second phase counts the steady path of an iterative application:
//! FDM-Seismology under `FdmPlan::Auto`, cache-hit epochs only, twice: on
//! a small grid at one data-plane worker, then on `perf`'s grid at its two
//! workers, where a launch is too heavy for the enqueueing thread and is
//! handed to the pool. A steady epoch reuses what the one before it built —
//! each kernel's argument snapshot (after a scalar rebind, its buffer
//! tables), every buffer's residency set, the data plane's dependent lists,
//! the pass's scratch, the queues' event lists — and a launch's data-plane
//! half allocates nothing: a pooled launch is a value in its task's node,
//! and a kernel context fills the store table the last one on its thread
//! left. And a steady epoch's scheduling pass is a lookup: its snapshot
//! equals one decided two epochs before, so it takes that plan without
//! pricing, mapping or walking, and builds no event payload when no
//! observer is attached. So a launch makes 0.066 allocations here, pooled
//! or not, where rebuilding all of them made 11.38 (12.55 → 3.66 → 2.69 →
//! 2.44 → 2.38 → 2.35 → 0.25 → 0.10 on `perf`'s `seismo_steady`; 0.379 →
//! 0.066 here when the plan came to be reused). Every phase runs inside the
//! one test: the counter is global, and a test running beside it would be
//! counted too.
//!
//! The ignored `allocations_by_site` test runs both phases again and prints
//! where their allocations come from, by call site.

use multicl::telemetry::{RingBufferSink, SchedEvent};
use multicl::{ContextSchedPolicy, MulticlContext, ProfileCache, SchedOptions};
use seismo::{Dims, FdmApp, FdmConfig, FdmPlan};
use served::loadgen::templates;
use served::service::warmed_options;
use served::spec::StepOp;
use served::{JobSpec, RetryPolicy, ServePolicy, Served, ServiceConfig, SloConfig, TenantConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// `System`, counting every call that asks for memory (`alloc`,
/// `alloc_zeroed`, `realloc`) while [`ARMED`] is set, and tagging each with
/// its call site while [`TAGGING`] is.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static TAGGING: AtomicBool = AtomicBool::new(false);
/// Allocations by call site while [`TAGGING`] is set.
static SITES: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Set while this thread tags a call: the tagging's own allocations
    /// are not counted.
    static IN_TAG: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    } else if TAGGING.load(Ordering::Relaxed) {
        tag();
    }
}

/// Count one call under its site: the first three frames of the backtrace
/// whose source is under `crates/`.
fn tag() {
    if IN_TAG.with(|t| t.replace(true)) {
        return;
    }
    let trace = Backtrace::force_capture().to_string();
    let site: Vec<&str> = trace
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("at ")?.rsplit_once("crates/").map(|p| p.1))
        .map(|at| at.rsplit_once(':').map_or(at, |p| p.0))
        .take(3)
        .collect();
    let site = if site.is_empty() { "(no product frame)".to_string() } else { site.join(" < ") };
    *SITES.lock().unwrap_or_else(PoisonError::into_inner).entry(site).or_default() += 1;
    IN_TAG.with(|t| t.set(false));
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, valid per `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's, per `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls made while `f` runs.
fn allocations(f: &mut dyn FnMut()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst) - before
}

/// Allocator calls made while `f` runs, tagged by site into [`SITES`]
/// (emptied first).
fn tagged_allocations(f: &mut dyn FnMut()) -> u64 {
    SITES.lock().unwrap_or_else(PoisonError::into_inner).clear();
    TAGGING.store(true, Ordering::SeqCst);
    f();
    TAGGING.store(false, Ordering::SeqCst);
    SITES.lock().unwrap_or_else(PoisonError::into_inner).values().sum()
}

/// Print [`SITES`], most allocations first, each divided by `ops`.
fn print_sites(what: &str, ops: usize) {
    let sites = SITES.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rows: Vec<(&String, &u64)> = sites.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    let total: u64 = sites.values().sum();
    println!(
        "{:.3} allocations per {what} ({total} over {ops}), by site:",
        total as f64 / ops as f64
    );
    for (site, n) in rows {
        println!("{:>9.3}  {site}", *n as f64 / ops as f64);
    }
}

/// The allocator's counters are global: a test counting beside another
/// would count it too, so every test here holds this lock.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const TENANTS: usize = 4;
const WORKERS: usize = 4;
const WARM_UP_JOBS: usize = 1_000;
const MEASURED_JOBS: usize = 2_000;
/// Allocations per submitted and dispatched job: the measured 1.506, plus
/// 5 %.
const BUDGET_PER_JOB: f64 = 1.58;
const WARM_UP_ITERATIONS: usize = 5;
const MEASURED_ITERATIONS: usize = 50;
/// Allocations per FDM kernel launch in a steady epoch, one data-plane
/// worker: the measured 0.066 (106 over 1 600 launches), plus 5 %.
const BUDGET_PER_LAUNCH: f64 = 0.069;
/// The same at two workers on `perf`'s grid, where a launch is handed to
/// the pool: the measured 0.067 (106 or 107 allocations over 1 600
/// launches, run to run), plus 5 %.
const BUDGET_PER_POOLED_LAUNCH: f64 = 0.070;

/// The steady phase's two settings: one data-plane worker on a small grid,
/// then `perf`'s two workers on its 32×32×16 grid, where a launch is too
/// heavy to run on the enqueueing thread.
const STEADY: [(usize, [usize; 3], f64); 2] =
    [(1, [16, 16, 8], BUDGET_PER_LAUNCH), (2, [32, 32, 16], BUDGET_PER_POOLED_LAUNCH)];

/// The stock templates at `serve_light`'s size.
fn light_templates() -> Vec<JobSpec> {
    let mut pool = templates();
    for job in &mut pool {
        for buffer in &mut job.buffers {
            buffer.elements = 256;
        }
        for step in &mut job.steps {
            if let StepOp::Launch { global, local, .. } = &mut step.op {
                (*global, *local) = (64, 64);
            }
        }
    }
    pool
}

/// `jobs` jobs in bursts of one per tenant: a seeded template each, 60 %
/// in-order, 20 % out-of-order, 20 % splittable.
fn jobs(pool: &[JobSpec], rng: &mut hwsim::xrand::XorShift, jobs: usize) -> Vec<JobSpec> {
    (0..jobs)
        .map(|_| {
            let mut job = pool[rng.index(pool.len())].clone();
            match rng.index(10) {
                0..=5 => {}
                6..=7 => job.out_of_order = true,
                _ => job.splittable = true,
            }
            job
        })
        .collect()
}

/// Submit each burst (one job per tenant, cloned from its spec as an
/// arrival stream does) and dispatch it.
fn serve(served: &Served, jobs: &[JobSpec]) {
    for burst in jobs.chunks(TENANTS) {
        for (tenant, spec) in burst.iter().enumerate() {
            served.submit(tenant, spec.clone()).expect("the light load is always admitted");
        }
        while served.backlog() > 0 {
            served.dispatch_round();
        }
    }
}

/// How a phase counts the allocations of its measured part.
type Measure = fn(&mut dyn FnMut()) -> u64;

#[test]
fn serving_a_light_job_stays_inside_its_allocation_budget() {
    let _serial = serial();
    a_template_clone_makes_no_allocation();
    let (total, events) = serving_phase(allocations);
    cloning_served_events_makes_no_allocation(&events);
    let per_job = total as f64 / MEASURED_JOBS as f64;
    println!("{per_job:.3} allocations per job ({total} over {MEASURED_JOBS} jobs)");
    assert!(
        per_job <= BUDGET_PER_JOB,
        "{per_job:.3} allocations per job exceed the budget of {BUDGET_PER_JOB}"
    );
    for (workers, dims, budget) in STEADY {
        let (total, launches) = steady_epoch_phase(allocations, workers, dims);
        let per_launch = total as f64 / launches as f64;
        println!(
            "{per_launch:.3} allocations per steady launch at {workers} workers \
             ({total} over {launches} launches)"
        );
        assert!(
            per_launch <= budget,
            "{per_launch:.3} allocations per steady launch at {workers} workers exceed the \
             budget of {budget}"
        );
    }
}

/// Where the budget test's allocations come from: both phases again, each
/// allocation tagged with the first three frames under `crates/` of its
/// backtrace. Asserts nothing; run it in release (line tables give the
/// frames their source lines) with
/// `cargo test --release --test alloc_budget -- --ignored --nocapture`.
#[test]
#[ignore = "prints a per-site table; slow, asserts nothing"]
fn allocations_by_site() {
    let _serial = serial();
    let _ = serving_phase(tagged_allocations);
    print_sites("job", MEASURED_JOBS);
    for (workers, dims, _) in STEADY {
        let (_, launches) = steady_epoch_phase(tagged_allocations, workers, dims);
        print_sites(&format!("steady launch at {workers} workers"), launches);
    }
}

fn a_template_clone_makes_no_allocation() {
    // A clone of a template shares its body: it counts a reference.
    for spec in templates() {
        let cloned = allocations(&mut || drop(std::hint::black_box(spec.clone())));
        assert_eq!(cloned, 0, "cloning template `{}` made {cloned} allocations", spec.name);
    }
}

/// Every event of a served stream — the ring's snapshot, a cost row, a
/// decision's queue list, an epoch's lane overlaps and a job's attempts
/// among them — is cloned by reference counts alone.
fn cloning_served_events_makes_no_allocation(events: &[SchedEvent]) {
    for kind in ["mapping_decision", "epoch_end", "job_trace"] {
        assert!(events.iter().any(|e| e.kind() == kind), "the stream holds no {kind}");
    }
    let cloned = allocations(&mut || {
        for event in events {
            drop(std::hint::black_box(event.clone()));
        }
    });
    assert_eq!(cloned, 0, "cloning {} served events made {cloned} allocations", events.len());
}

/// `serve_light`'s shape: the allocations of [`MEASURED_JOBS`] jobs after
/// [`WARM_UP_JOBS`], and the events the ring buffer kept.
fn serving_phase(measure: Measure) -> (u64, Vec<SchedEvent>) {
    let dir = std::env::temp_dir().join(format!("alloc-budget-{}", std::process::id()));
    let platform = clrt::Platform::paper_node_with(clrt::RuntimeConfig {
        data_plane_workers: 1,
        ..clrt::RuntimeConfig::default()
    });
    let mut options = warmed_options(&platform, &dir);
    let ring = Arc::new(RingBufferSink::new(1 << 12));
    options.observers.push(ring.clone());
    options.observers.push(Arc::new(multicl::telemetry::JsonlSink::new(std::io::sink())));
    let tenants = (0..TENANTS).map(|i| TenantConfig::new(format!("t{i}"), 1, 8)).collect();
    let config = ServiceConfig {
        policy: ServePolicy::AutoFit,
        workers: WORKERS,
        tenants,
        options,
        retry: RetryPolicy::default(),
        slo: Some(SloConfig::default()),
    };
    let served = Served::new(&platform, config).expect("service builds");
    let pool = light_templates();
    served.warm_programs(&pool).expect("templates build");
    let mut rng = hwsim::xrand::XorShift::new(42);
    serve(&served, &jobs(&pool, &mut rng, WARM_UP_JOBS));

    let measured = jobs(&pool, &mut rng, MEASURED_JOBS);
    let total = measure(&mut || serve(&served, &measured));
    let completed: u64 = (0..TENANTS).map(|t| served.metrics().tenant(t).completed.get()).sum();
    assert_eq!(completed, (WARM_UP_JOBS + MEASURED_JOBS) as u64, "every job completes");
    let _ = std::fs::remove_dir_all(&dir);
    (total, ring.snapshot())
}

/// A steady FDM epoch on an `nx`×`ny`×`nz` grid at `workers` data-plane
/// workers: the allocations of [`MEASURED_ITERATIONS`] iterations after
/// [`WARM_UP_ITERATIONS`], and the launches they made.
fn steady_epoch_phase(measure: Measure, workers: usize, [nx, ny, nz]: [usize; 3]) -> (u64, usize) {
    let dir = std::env::temp_dir().join(format!("alloc-budget-fdm-{}", std::process::id()));
    let platform = clrt::Platform::paper_node_with(clrt::RuntimeConfig {
        data_plane_workers: workers,
        ..clrt::RuntimeConfig::default()
    });
    let options = SchedOptions { profile_cache: ProfileCache::at(&dir), ..SchedOptions::default() };
    let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
        .expect("context builds");
    let cfg = FdmConfig { dims: Dims::new(nx, ny, nz), ..FdmConfig::default() };
    let mut app = FdmApp::new(&ctx, cfg, &FdmPlan::Auto).expect("FDM application builds");
    for _ in 0..WARM_UP_ITERATIONS {
        app.step().expect("FDM step");
    }
    let total = measure(&mut || {
        for _ in 0..MEASURED_ITERATIONS {
            app.step().expect("FDM step");
        }
    });
    assert!(app.is_finite(), "the wavefield stays finite");
    let _ = std::fs::remove_dir_all(&dir);
    let (vel, stress) = app.kernel_counts();
    (total, MEASURED_ITERATIONS * (vel + stress))
}
