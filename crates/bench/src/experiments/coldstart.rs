//! Cold-start experiment: feature-based cost prediction vs. the profiling
//! epoch a cold `AUTO_FIT` context pays for every unseen kernel.
//!
//! The claim under test is the PR-8 tentpole: with a persisted,
//! feature-trained predictor, a *restarted* scheduler maps kernels it has
//! never executed with **zero** profiling epochs, cutting first-epoch
//! latency by at least 5×, while the steady-state makespan stays within
//! 10% of the fully-profiled schedule. Confidence is honest: an
//! out-of-family kernel (a trait direction never seen in training) must
//! fall back to real profiling, not be mapped from a fantasy. Every arm
//! runs twice with the same seed and must reproduce its report
//! byte-for-byte.

use crate::harness::Table;
use clrt::{ArgValue, KernelBody, KernelCtx, NdRange, Platform};
use hwsim::json::Json;
use hwsim::{KernelCostSpec, KernelTraits, SimDuration};
use multicl::profile::{DeviceProfile, ProfileCache};
use multicl::telemetry::{RingBufferSink, SchedEvent};
use multicl::{
    ContextSchedPolicy, CostPredictor, MulticlContext, QueueSchedFlags, SchedOptions, SchedQueue,
    DEFAULT_PREDICTOR_CONFIDENCE,
};
use std::path::PathBuf;
use std::sync::Arc;

/// One measured arm: the cold profiling baseline or the warm predictor.
#[derive(Debug, Clone)]
pub struct ColdPoint {
    /// Arm label (table rows, JSON keys).
    pub label: String,
    /// Virtual latency of the first epoch over the unseen kernel set
    /// (enqueue to full drain).
    pub first_epoch: SimDuration,
    /// Summed virtual latency of the steady-state epochs (2..=N).
    pub steady: SimDuration,
    /// Profiling epochs charged while serving the unseen set (before the
    /// out-of-family probe).
    pub profiled_epochs: u64,
    /// Kernels whose cost row came from the predictor.
    pub kernels_predicted: u64,
    /// Kernels the confidence gate declined (including the out-of-family
    /// probe).
    pub predictor_fallbacks: u64,
    /// Online refinement observations folded into the model.
    pub refinements: u64,
    /// `(p50, p90, max)` of the prediction relative-error CDF (empty arm:
    /// all zero).
    pub rel_error: (f64, f64, f64),
    /// Sorted relative-error samples backing [`ColdPoint::rel_error`].
    pub rel_error_samples: Vec<f64>,
    /// The deterministic JSON fingerprint of this arm.
    pub report: String,
}

/// The experiment configuration: one unseen-kernel working set served for
/// a number of epochs, preceded (predictor arm only) by an off-line
/// training phase on a *different* kernel population.
#[derive(Debug, Clone, Copy)]
pub struct ColdConfig {
    /// RNG seed for both the training and the serving kernel populations.
    pub seed: u64,
    /// Unseen kernels (= queues) in the serving working set.
    pub queues: usize,
    /// Serving epochs (first + steady state).
    pub epochs: usize,
    /// Training generations (6 kernels each) for the predictor arm.
    pub generations: usize,
}

impl ColdConfig {
    /// The standard configuration; `smoke` shrinks steady state for CI.
    pub fn new(seed: u64, smoke: bool) -> ColdConfig {
        ColdConfig {
            seed,
            queues: if smoke { 4 } else { 6 },
            epochs: if smoke { 5 } else { 12 },
            generations: 12,
        }
    }
}

/// The per-process scratch cache directory shared by both arms (device
/// profile measured once; the predictor model file is reset per run).
fn cache_dir() -> PathBuf {
    std::env::temp_dir().join(format!("multicl-bench-coldstart-cache-{}", std::process::id()))
}

/// A parametric compute-dominated kernel: the family varies flops/item,
/// bytes/item, traits, and launch size smoothly, so the roofline cost
/// model is learnable from executions (same family as the `multicl`
/// predictor tests).
struct SynthKernel {
    name: String,
    cost: KernelCostSpec,
}

impl KernelBody for SynthKernel {
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        self.cost
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        for v in ctx.slice_mut::<f64>(0) {
            *v += 1.0;
        }
    }
}

fn synth_kernel(rng: &mut hwsim::xrand::XorShift, name: String) -> SynthKernel {
    let traits = KernelTraits {
        coalescing: rng.range_f64(0.7, 1.0),
        branch_divergence: rng.range_f64(0.0, 0.3),
        vector_friendliness: rng.range_f64(0.8, 1.0),
        double_precision: false,
    };
    SynthKernel {
        name,
        cost: KernelCostSpec {
            flops_per_item: rng.range_f64(2_000.0, 8_000.0),
            bytes_per_item: rng.range_f64(4.0, 16.0),
            traits,
        },
    }
}

/// Options over the shared cache dir with the device profile pre-measured
/// on a *scratch* platform, so context construction cache-hits it in every
/// arm and run — the determinism anchor for byte-identical reports.
fn warm_options(platform: &Platform) -> SchedOptions {
    let cache = ProfileCache::at(cache_dir());
    let fingerprint = platform.node().fingerprint();
    if !cache.contains(&fingerprint) {
        let scratch = Platform::new(platform.node().clone());
        let profile = DeviceProfile::measure(&scratch);
        let _ = cache.store(&profile);
    }
    SchedOptions { profile_cache: cache, ..SchedOptions::default() }
}

/// Train the predictor by *executing* a diverse kernel family across every
/// device (a `ROUND_ROBIN` context ignores kernel preferences) and persist
/// the model into the shared cache dir. Any previously persisted model is
/// removed first so training is identical across same-seed runs.
fn train(platform: &Platform, cfg: &ColdConfig) {
    let fingerprint = platform.node().fingerprint();
    let _ = std::fs::remove_file(CostPredictor::file_in(&cache_dir(), &fingerprint));
    let options = SchedOptions {
        predictor_confidence: DEFAULT_PREDICTOR_CONFIDENCE,
        predictor_persist: true,
        ..warm_options(platform)
    };
    let ctx = MulticlContext::with_options(platform, ContextSchedPolicy::RoundRobin, options)
        .expect("training context");
    let mut rng = hwsim::xrand::XorShift::new(cfg.seed ^ 0x7261_696e);
    let queues: Vec<SchedQueue> = (0..6)
        .map(|_| ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue"))
        .collect();
    for g in 0..cfg.generations {
        let bodies: Vec<Arc<dyn KernelBody>> = (0..queues.len())
            .map(|i| {
                Arc::new(synth_kernel(&mut rng, format!("train_{g}_{i}"))) as Arc<dyn KernelBody>
            })
            .collect();
        let names: Vec<String> = bodies.iter().map(|b| b.name().to_string()).collect();
        let prog = ctx.create_program(bodies).expect("program");
        for (q, name) in queues.iter().zip(&names) {
            let k = prog.create_kernel(name).expect("kernel");
            let b = ctx.create_buffer_of::<f64>(1 << 10).expect("buffer");
            k.set_arg(0, ArgValue::BufferMut(b)).expect("arg");
            let local = 64;
            let global = local * rng.range_u64(64, 512);
            q.enqueue_ndrange(&k, NdRange::d1(global, local)).expect("enqueue");
        }
        ctx.finish_all();
    }
}

/// Quantile of an already-sorted sample set (nearest-rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Run one arm once. `predictor` selects the warm-predictor arm (train,
/// restart, serve from the persisted model); otherwise the profiling
/// baseline (predictor disabled entirely).
pub fn run_arm(cfg: &ColdConfig, predictor: bool) -> ColdPoint {
    let platform = Platform::paper_node();
    if predictor {
        train(&platform, cfg);
    }
    let recorder = Arc::new(RingBufferSink::new(1 << 14));
    let mut options = if predictor {
        SchedOptions {
            predictor_confidence: DEFAULT_PREDICTOR_CONFIDENCE,
            predictor_persist: true,
            ..warm_options(&platform)
        }
    } else {
        warm_options(&platform)
    };
    options.observers.push(recorder.clone());
    let fingerprint = platform.node().fingerprint();
    assert!(
        options.profile_cache.contains(&fingerprint),
        "device profile must be pre-measured in the shared cache"
    );
    let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
        .expect("serving context");
    // Satellite proof: construction must surface the disk cache hit as a
    // telemetry event (epoch 0, before any scheduling).
    assert!(
        recorder.snapshot().iter().any(
            |e| matches!(e, SchedEvent::CacheHit { epoch: 0, key } if key == "device_profile")
        ),
        "context construction must emit the device_profile cache-hit event"
    );

    // The unseen working set: same seed in both arms, disjoint from the
    // training population by name and RNG stream.
    let mut rng = hwsim::xrand::XorShift::new(cfg.seed ^ 0x5e42);
    let bodies: Vec<Arc<dyn KernelBody>> = (0..cfg.queues)
        .map(|i| Arc::new(synth_kernel(&mut rng, format!("unseen_{i}"))) as Arc<dyn KernelBody>)
        .collect();
    let prog = ctx.create_program(bodies).expect("program");
    let queues: Vec<SchedQueue> = (0..cfg.queues)
        .map(|_| ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue"))
        .collect();
    let kernels: Vec<clrt::Kernel> = (0..cfg.queues)
        .map(|i| {
            let k = prog.create_kernel(&format!("unseen_{i}")).expect("kernel");
            let b = ctx.create_buffer_of::<f64>(1 << 10).expect("buffer");
            k.set_arg(0, ArgValue::BufferMut(b)).expect("arg");
            k
        })
        .collect();

    let mut epoch_times: Vec<SimDuration> = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let t0 = platform.now();
        for (q, k) in queues.iter().zip(&kernels) {
            q.enqueue_ndrange(k, NdRange::d1(1 << 14, 64)).expect("enqueue");
        }
        ctx.finish_all();
        epoch_times.push(platform.now().saturating_since(t0));
    }
    let stats = ctx.stats();
    let (profiled_epochs, kernels_predicted) = (stats.profiled_epochs, stats.kernels_predicted);

    // Out-of-family probe: double precision never appears in training, so
    // the gate must decline it and profiling must take over.
    if predictor {
        let probe = SynthKernel {
            name: "oof_double".into(),
            cost: KernelCostSpec {
                flops_per_item: 3_000.0,
                bytes_per_item: 8.0,
                traits: KernelTraits { double_precision: true, ..KernelTraits::IDEAL },
            },
        };
        let prog = ctx.create_program(vec![Arc::new(probe) as Arc<dyn KernelBody>]).expect("prog");
        let k = prog.create_kernel("oof_double").expect("kernel");
        let b = ctx.create_buffer_of::<f64>(1 << 10).expect("buffer");
        k.set_arg(0, ArgValue::BufferMut(b)).expect("arg");
        queues[0].enqueue_ndrange(&k, NdRange::d1(1 << 14, 64)).expect("enqueue");
        ctx.finish_all();
    }

    let events = recorder.snapshot();
    let mut rel: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            SchedEvent::PredictorRefined { rel_error, .. } => Some(*rel_error),
            _ => None,
        })
        .collect();
    rel.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    let fallbacks = ctx.stats().predictor_fallbacks;
    let first_epoch = epoch_times[0];
    let steady = epoch_times[1..].iter().fold(SimDuration::ZERO, |acc, &t| acc + t);
    let label = if predictor { "predictor_warm" } else { "profiling_baseline" };
    let report = Json::obj([
        ("arm", Json::from(label)),
        ("first_epoch_ns", Json::from(first_epoch.as_nanos())),
        ("steady_ns", Json::from(steady.as_nanos())),
        ("epochs_ns", Json::Arr(epoch_times.iter().map(|t| Json::from(t.as_nanos())).collect())),
        ("profiled_epochs", Json::from(profiled_epochs)),
        ("kernels_predicted", Json::from(kernels_predicted)),
        ("predictor_fallbacks", Json::from(fallbacks)),
        ("refinements", Json::from(rel.len())),
        ("rel_errors", Json::Arr(rel.iter().map(|&e| Json::from(e)).collect())),
        ("events", Json::from(events.len())),
    ])
    .dump();
    ColdPoint {
        label: label.into(),
        first_epoch,
        steady,
        profiled_epochs,
        kernels_predicted,
        predictor_fallbacks: fallbacks,
        refinements: rel.len() as u64,
        rel_error: (quantile(&rel, 0.50), quantile(&rel, 0.90), rel.last().copied().unwrap_or(0.0)),
        rel_error_samples: rel,
        report,
    }
}

/// Run both arms. Each arm runs **twice** with the same seed and the two
/// reports must match byte-for-byte.
pub fn run(cfg: &ColdConfig) -> Vec<ColdPoint> {
    [false, true]
        .into_iter()
        .map(|predictor| {
            let first = run_arm(cfg, predictor);
            let second = run_arm(cfg, predictor);
            assert_eq!(
                first.report, second.report,
                "arm `{}` is not bit-identical across same-seed runs",
                first.label
            );
            first
        })
        .collect()
}

/// Check the cold-start claims; returns the violations (empty = pass).
pub fn violations(points: &[ColdPoint]) -> Vec<String> {
    let mut out = Vec::new();
    if points.len() != 2 {
        out.push(format!("expected exactly two arms, got {}", points.len()));
    }
    let Some(base) = points.iter().find(|p| p.label == "profiling_baseline") else {
        return vec!["missing profiling_baseline arm".into()];
    };
    let Some(warm) = points.iter().find(|p| p.label == "predictor_warm") else {
        return vec!["missing predictor_warm arm".into()];
    };
    let speedup = base.first_epoch.as_nanos() as f64 / warm.first_epoch.as_nanos().max(1) as f64;
    if speedup < 5.0 {
        out.push(format!(
            "first-epoch speedup {speedup:.2}x < 5x ({} vs {})",
            base.first_epoch.as_nanos(),
            warm.first_epoch.as_nanos()
        ));
    }
    let ratio = warm.steady.as_nanos() as f64 / base.steady.as_nanos().max(1) as f64;
    if ratio > 1.1 {
        out.push(format!("steady-state makespan ratio {ratio:.3} > 1.1"));
    }
    if warm.profiled_epochs != 0 {
        out.push(format!(
            "warm arm charged {} profiling epoch(s) for in-family kernels",
            warm.profiled_epochs
        ));
    }
    if warm.kernels_predicted == 0 {
        out.push("warm arm predicted nothing".into());
    }
    if warm.predictor_fallbacks == 0 {
        out.push("out-of-family probe did not fall back to profiling".into());
    }
    if warm.refinements == 0 || warm.rel_error_samples.is_empty() {
        out.push("no online refinement observations".into());
    }
    if base.kernels_predicted != 0 || base.predictor_fallbacks != 0 {
        out.push("baseline arm must not touch the predictor".into());
    }
    if base.profiled_epochs == 0 {
        out.push("baseline arm did not profile (nothing to compare against)".into());
    }
    out
}

/// Render the two arms as a table.
pub fn table(points: &[ColdPoint]) -> Table {
    let mut t = Table::new(
        "Cold start: predictor vs. profiling epoch (unseen kernels)",
        &[
            "arm",
            "first epoch (ms)",
            "steady (ms)",
            "profiled",
            "predicted",
            "fallbacks",
            "refined",
            "err p50",
            "err p90",
            "err max",
        ],
    );
    for p in points {
        t.row(vec![
            p.label.clone(),
            format!("{:.3}", p.first_epoch.as_millis_f64()),
            format!("{:.3}", p.steady.as_millis_f64()),
            format!("{}", p.profiled_epochs),
            format!("{}", p.kernels_predicted),
            format!("{}", p.predictor_fallbacks),
            format!("{}", p.refinements),
            format!("{:.1}%", p.rel_error.0 * 100.0),
            format!("{:.1}%", p.rel_error.1 * 100.0),
            format!("{:.1}%", p.rel_error.2 * 100.0),
        ]);
    }
    t
}

/// Serialize the experiment as the `BENCH_coldstart.json` artifact.
pub fn to_json(points: &[ColdPoint], cfg: &ColdConfig) -> Json {
    let rows: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::obj([
                ("arm", Json::from(p.label.as_str())),
                ("first_epoch_ns", Json::from(p.first_epoch.as_nanos())),
                ("steady_ns", Json::from(p.steady.as_nanos())),
                ("profiled_epochs", Json::from(p.profiled_epochs)),
                ("kernels_predicted", Json::from(p.kernels_predicted)),
                ("predictor_fallbacks", Json::from(p.predictor_fallbacks)),
                ("refinements", Json::from(p.refinements)),
                ("rel_error_p50", Json::from(p.rel_error.0)),
                ("rel_error_p90", Json::from(p.rel_error.1)),
                ("rel_error_max", Json::from(p.rel_error.2)),
                (
                    "rel_error_cdf",
                    Json::Arr(p.rel_error_samples.iter().map(|&e| Json::from(e)).collect()),
                ),
            ])
        })
        .collect();
    let speedup = match (
        points.iter().find(|p| p.label == "profiling_baseline"),
        points.iter().find(|p| p.label == "predictor_warm"),
    ) {
        (Some(b), Some(w)) => {
            b.first_epoch.as_nanos() as f64 / w.first_epoch.as_nanos().max(1) as f64
        }
        _ => 0.0,
    };
    Json::obj([
        ("experiment", Json::from("coldstart")),
        ("seed", Json::from(cfg.seed)),
        ("queues", Json::from(cfg.queues)),
        ("epochs", Json::from(cfg.epochs)),
        ("generations", Json::from(cfg.generations)),
        ("first_epoch_speedup", Json::from(speedup)),
        ("arms", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_coldstart_meets_the_claims_and_reproduces() {
        // `run` itself asserts bit-identical same-seed reports per arm.
        let cfg = ColdConfig::new(42, true);
        let points = run(&cfg);
        assert_eq!(points.len(), 2);
        let violations = violations(&points);
        assert!(violations.is_empty(), "cold-start violations: {violations:?}");
    }
}
