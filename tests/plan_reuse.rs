//! A steady epoch is a lookup. FDM-Seismology under AUTO_FIT alternates a
//! velocity epoch and a stress epoch; once both are decided with their
//! caches warm, each pass's snapshot equals the one decided two passes
//! before and takes that plan (`SchedStats::plans_reused`, the
//! `mapping_decision` record's `reused`). What would change a decision
//! misses: a forced `SCHED_ITERATIVE` re-profile, a host write that leaves
//! a field on the host alone, a device lost between iterations. Through all
//! of it the wavefields equal a manual run's, bit for bit.

use clrt::Platform;
use hwsim::{DeviceId, FaultPlan, SimDuration};
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedEvent, SchedObserver,
    SchedOptions,
};
use seismo::{Dims, FdmApp, FdmConfig, FdmPlan};
use std::sync::{Arc, Mutex, PoisonError};

const ITERATIONS: usize = 24;
/// Every SCHED_ITERATIVE queue re-profiles every this many of its epochs:
/// FDM's passes 10, 20, 30 and 40 (from 0). Its first two, one per epoch
/// shape, profile cold.
const REPROFILE_EVERY: u64 = 10;
/// The host write lands before this iteration, the device loss before the
/// second; neither lands on a re-profile or the passes that settle after
/// one.
const WRITE_AT: usize = 8;
const LOSS_AT: usize = 14;
/// Passes after a change before every pass is a reuse again: the changed
/// pass, the other shape's, and each shape's first pass over the residency
/// the change left.
const SETTLE: usize = 4;

/// Per pass, in order: whether it reused its plan, and whether it profiled.
#[derive(Default)]
struct Passes(Mutex<Vec<(bool, bool)>>);

impl SchedObserver for Passes {
    fn on_event(&self, event: &SchedEvent) {
        let mut passes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        match event {
            SchedEvent::MappingDecision { reused, nodes_explored, budget_tripped, .. } => {
                let ran_no_mapper = *nodes_explored == 0 && !budget_tripped;
                assert!(!reused || ran_no_mapper, "a reused plan runs no mapper");
                passes.push((*reused, false));
            }
            SchedEvent::EpochEnd { profiling, .. } => {
                passes.last_mut().expect("a decision before its epoch's end").1 =
                    *profiling > SimDuration::ZERO;
            }
            _ => {}
        }
    }
}

/// What the host writes over region 0's `vx` before [`WRITE_AT`].
fn written(cells: usize) -> Vec<f64> {
    (0..cells).map(|i| (i % 7) as f64 * 1e-6).collect()
}

/// Run FDM on a fresh paper node under `plan`, the host write and, with
/// `lose` set, the loss of the first region's device included. Returns
/// every field's bits, the passes as [`Passes`] saw them, and the
/// context's `plans_reused`.
fn run(plan: &FdmPlan, lose: bool) -> (Vec<Vec<u64>>, Vec<(bool, bool)>, u64) {
    let platform = Platform::paper_node();
    let dir = std::env::temp_dir().join(format!(
        "multicl-plan-reuse-{}-{}",
        matches!(plan, FdmPlan::Manual(..)),
        std::process::id()
    ));
    let passes = Arc::new(Passes::default());
    let options = SchedOptions {
        profile_cache: ProfileCache::at(&dir),
        iterative_frequency: Some(REPROFILE_EVERY),
        observers: vec![Arc::clone(&passes) as Arc<dyn SchedObserver>],
        ..SchedOptions::default()
    };
    let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
        .expect("context");
    let cfg =
        FdmConfig { dims: Dims::new(12, 12, 8), iterations: ITERATIONS, ..Default::default() };
    let cells = cfg.dims.cells();
    let mut app = FdmApp::new(&ctx, cfg, plan).expect("FDM builds");
    for it in 0..ITERATIONS {
        if it == WRITE_AT {
            app.write_field(0, 0, &written(cells)).expect("host write");
        }
        if it == LOSS_AT && lose {
            let victim = app.devices().0;
            platform.with_engine(|e| {
                let now = e.now();
                e.set_fault_plan(FaultPlan::new(1).lose_device(victim, now));
            });
        }
        app.step().expect("FDM step");
    }
    let fields = (0..2)
        .flat_map(|r| (0..9).map(move |f| (r, f)))
        .map(|(r, f)| app.field(r, f).iter().map(|v| v.to_bits()).collect())
        .collect();
    let reused = ctx.stats().plans_reused;
    let _ = std::fs::remove_dir_all(&dir);
    let passes = std::mem::take(&mut *passes.0.lock().unwrap_or_else(PoisonError::into_inner));
    (fields, passes, reused)
}

#[test]
fn a_steady_fdm_epoch_reuses_its_plan_and_every_change_misses() {
    let flags = QueueSchedFlags::SCHED_AUTO_DYNAMIC
        | QueueSchedFlags::SCHED_KERNEL_EPOCH
        | QueueSchedFlags::SCHED_ITERATIVE;
    let (fields, passes, reused) = run(&FdmPlan::AutoWith(flags), true);
    let (manual, _, _) = run(&FdmPlan::Manual(DeviceId(0), DeviceId(0)), false);
    assert!(fields == manual, "the wavefields differ from the manual run's");

    assert_eq!(passes.len(), 2 * ITERATIONS, "one decision per epoch");
    assert_eq!(reused, passes.iter().filter(|p| p.0).count() as u64, "{passes:?}");
    // The passes that must miss: each re-profile, and the first after the
    // write and after the loss. Each starts a settling window.
    let reprofiled: Vec<usize> = (0..passes.len()).filter(|&p| passes[p].1).collect();
    let forced: Vec<usize> =
        (0..passes.len()).filter(|&p| p == 1 || p % REPROFILE_EVERY as usize == 0).collect();
    assert_eq!(reprofiled, forced, "the passes that profiled: {passes:?}");
    let changed: Vec<usize> = forced.iter().copied().chain([2 * WRITE_AT, 2 * LOSS_AT]).collect();
    for &p in &changed {
        assert!(!passes[p].0, "pass {p} reused a plan across a change: {passes:?}");
    }
    // Every other pass reuses, once both shapes are decided over what the
    // last change left.
    let settling = |p: usize| changed.iter().any(|&c| (c..c + SETTLE).contains(&p));
    for (p, &(reused, _)) in passes.iter().enumerate() {
        assert!(reused || settling(p), "steady pass {p} was decided anew: {passes:?}");
    }
    assert!(reused >= 20, "{reused} reuses: {passes:?}");
}
