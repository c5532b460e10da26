//! EP — the NPB "embarrassingly parallel" benchmark.
//!
//! Generates pairs of uniform deviates with the NPB `randdp` generator,
//! converts accepted pairs to Gaussian deviates with the Marsaglia polar
//! method, and tallies them into ten annular bins plus running sums. Each
//! command queue owns a disjoint slice of the global random sequence
//! (skip-ahead), so queues are fully independent — the paper's canonical
//! compute-bound, GPU-friendly, non-iterative workload.
//!
//! Kernels per queue: `embar` (the pair generation/tally, one launch) and
//! `ep_reduce` (partial-result reduction). Table II options:
//! `SCHED_KERNEL_EPOCH` + `SCHED_COMPUTE_BOUND` (minikernel profiling).

use crate::class::Class;
use crate::randdp::{RanDp, SEED};
use crate::suite::{make_queues, QueuePlan};
use clrt::error::ClResult;
use clrt::{Buffer, In, Kernel, KernelBody, NdRange, Out};
use hwsim::{KernelCostSpec, KernelTraits};
use multicl::{MulticlContext, SchedQueue};
use std::sync::Arc;

/// Pairs of deviates generated per work-item.
const PAIRS_PER_ITEM: u64 = 32;
/// Work-items per workgroup.
const LOCAL: u64 = 64;
/// Per-*workgroup* partial record: sx, sy, then 10 bin counts (as f64).
/// Reducing within the workgroup (as the OpenCL kernel does in local
/// memory) keeps the records buffer tiny even for class D.
const REC: usize = 12;

/// log2 of the total pair count per class. Scaled from the real NPB
/// (2^24…2^36) so class D runs in seconds; each class is 4× its predecessor,
/// preserving the paper's growth rate.
fn log2_pairs(class: Class) -> u32 {
    match class {
        Class::S => 15,
        Class::W => 17,
        Class::A => 19,
        Class::B => 21,
        Class::C => 23,
        Class::D => 25,
    }
}

/// Total Gaussian-pair budget for a class.
pub fn total_pairs(class: Class) -> u64 {
    1 << log2_pairs(class)
}

/// Serial reference implementation for one contiguous pair range.
/// Returns `(sx, sy, bins[10])`. Verification recomputes every work-item
/// with it; the kernel draws the same stream through its own `tally_next`.
pub fn gaussian_tally(seed: u64, first_pair: u64, pairs: u64) -> (f64, f64, [u64; 10]) {
    let mut rng = RanDp::new(seed);
    rng.skip(2 * first_pair);
    let (mut sx, mut sy) = (0.0f64, 0.0f64);
    let mut bins = [0u64; 10];
    for _ in 0..pairs {
        let x = 2.0 * rng.next_f64() - 1.0;
        let y = 2.0 * rng.next_f64() - 1.0;
        let t = x * x + y * y;
        if t <= 1.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            let (gx, gy) = (x * f, y * f);
            sx += gx;
            sy += gy;
            let l = gx.abs().max(gy.abs()) as usize;
            if l < 10 {
                bins[l] += 1;
            }
        }
    }
    (sx, sy, bins)
}

/// [`gaussian_tally`] over the next `pairs` pairs of a stream that is already
/// in position. This is the kernel's own copy of the loop: `EpApp::verify`
/// recomputes every item through [`gaussian_tally`] and a fresh skip-ahead,
/// so the check shares no code with what it checks.
fn tally_next(rng: &mut RanDp, pairs: u64) -> (f64, f64, [u64; 10]) {
    let (mut sx, mut sy) = (0.0f64, 0.0f64);
    let mut bins = [0u64; 10];
    for _ in 0..pairs {
        let x = 2.0 * rng.next_f64() - 1.0;
        let y = 2.0 * rng.next_f64() - 1.0;
        let t = x * x + y * y;
        if t <= 1.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            let (gx, gy) = (x * f, y * f);
            sx += gx;
            sy += gy;
            let l = gx.abs().max(gy.abs()) as usize;
            if l < 10 {
                bins[l] += 1;
            }
        }
    }
    (sx, sy, bins)
}

/// The `embar` kernel: each work-item tallies its own pair chunk into the
/// output record buffer `out`, starting at this queue's `first_pair`.
struct Embar;
clrt::kernel! {
    impl Embar as EmbarArgs {
        name: "embar",
        // ~100 flops per pair (two LCG steps, the accept test, ln/sqrt on
        // ~78% of pairs); the per-workgroup record amortizes to ~2 bytes
        // per item. Heavily compute-bound. The SNU-NPB CPU port of this
        // kernel barely vectorizes (transcendentals + data-dependent
        // branch), which is why the paper sees the GPU win by an order of
        // magnitude.
        cost: KernelCostSpec {
            flops_per_item: PAIRS_PER_ITEM as f64 * 100.0,
            bytes_per_item: (REC * 8) as f64 / LOCAL as f64,
            traits: KernelTraits {
                coalescing: 1.0,
                branch_divergence: 0.35,
                vector_friendliness: 0.08,
                double_precision: true,
            },
        },
        splittable: true,
        fn execute(&self, ctx, out: Out<f64>, first_pair: u64, items: u64) {
            // Honor sub-range launches: a split chunk owns the workgroups
            // starting at `global_offset[0] / LOCAL` and covers at most its
            // own NDRange extent, clamped to the items that actually remain.
            let item_base = ctx.global_offset()[0];
            let span = ctx.nd().global_items();
            let wg_base = (item_base / LOCAL) as usize;
            let wgs = span.min(items.saturating_sub(item_base)).div_ceil(LOCAL) as usize;
            // Each workgroup reduces its items locally (mirroring the OpenCL
            // kernel's local-memory reduction).
            let start = (wg_base * REC).min(out.len());
            let covered = (wgs * REC).min(out.len() - start);
            for (wg, rec) in out[start..start + covered].chunks_mut(REC).enumerate() {
                let first_item = (wg_base + wg) as u64 * LOCAL;
                let wg_items = LOCAL.min(items.saturating_sub(first_item));
                let (mut sx, mut sy, mut bins) = (0.0f64, 0.0f64, [0u64; 10]);
                // A workgroup's items are consecutive in the stream: one
                // skip-ahead positions it for all of them. Each item keeps
                // its own partial sums, so the additions are the per-item
                // ones.
                let mut rng = RanDp::new(SEED);
                rng.skip(2 * (first_pair + first_item * PAIRS_PER_ITEM));
                for _ in 0..wg_items {
                    let (px, py, pb) = tally_next(&mut rng, PAIRS_PER_ITEM);
                    sx += px;
                    sy += py;
                    for (b, p) in bins.iter_mut().zip(pb) {
                        *b += p;
                    }
                }
                rec[0] = sx;
                rec[1] = sy;
                for (b, r) in bins.iter().zip(rec[2..].iter_mut()) {
                    *r = *b as f64;
                }
            }
        }
    }
}

/// The `ep_reduce` kernel: sums the per-workgroup records into one record
/// (12 doubles).
struct EpReduce;
clrt::kernel! {
    impl EpReduce as EpReduceArgs {
        name: "ep_reduce",
        cost: KernelCostSpec {
            flops_per_item: REC as f64,
            bytes_per_item: (REC * 8) as f64,
            traits: KernelTraits {
                coalescing: 0.9,
                branch_divergence: 0.0,
                vector_friendliness: 0.8,
                double_precision: true,
            },
        },
        fn execute(&self, ctx, records: In<f64>, result: Out<f64>, items: u64) {
            let wgs = items.div_ceil(LOCAL) as usize;
            result.fill(0.0);
            for i in 0..wgs {
                for k in 0..REC {
                    result[k] += records[i * REC + k];
                }
            }
        }
    }
}

/// One queue's slice of the EP problem.
struct EpSlice {
    embar: Kernel,
    reduce: Kernel,
    records: Buffer,
    result: Buffer,
    first_pair: u64,
    items: u64,
}

/// The EP application: N independent queues, one epoch.
pub struct EpApp {
    queues: Vec<SchedQueue>,
    slices: Vec<EpSlice>,
    class: Class,
}

impl EpApp {
    /// Build EP for `class` over `nqueues` queues under `plan`.
    pub fn new(
        ctx: &MulticlContext,
        class: Class,
        nqueues: usize,
        plan: &QueuePlan,
    ) -> ClResult<EpApp> {
        let queues = make_queues(ctx, "EP", plan, nqueues)?;
        let program =
            ctx.create_program(vec![Arc::new(Embar) as Arc<dyn KernelBody>, Arc::new(EpReduce)])?;
        let total_items = total_pairs(class) / PAIRS_PER_ITEM;
        let per_queue = total_items.div_ceil(nqueues as u64);
        let mut slices = Vec::with_capacity(nqueues);
        for qi in 0..nqueues as u64 {
            let first_item = qi * per_queue;
            let items = per_queue.min(total_items.saturating_sub(first_item));
            let wgs = items.div_ceil(LOCAL).max(1) as usize;
            let records = ctx.create_buffer_of::<f64>(wgs * REC)?;
            let result = ctx.create_buffer_of::<f64>(REC)?;
            let first_pair = first_item * PAIRS_PER_ITEM;
            let embar = program.create_kernel("embar")?;
            EmbarArgs { out: &records, first_pair, items }.bind(&embar)?;
            let reduce = program.create_kernel("ep_reduce")?;
            EpReduceArgs { records: &records, result: &result, items }.bind(&reduce)?;
            slices.push(EpSlice { embar, reduce, records, result, first_pair, items });
        }
        Ok(EpApp { queues, slices, class })
    }

    /// Enqueue the single kernel epoch on every queue and synchronize.
    pub fn run(&mut self) -> ClResult<()> {
        for (q, s) in self.queues.iter().zip(&self.slices) {
            let nd = NdRange::d1(s.items.max(1), LOCAL);
            q.enqueue_ndrange(&s.embar, nd)?;
            q.enqueue_ndrange(&s.reduce, NdRange::d1(LOCAL, LOCAL))?;
        }
        for q in &self.queues {
            q.finish();
        }
        Ok(())
    }

    /// Verify: per-queue reduced sums and bins must match the serial
    /// reference over the same pair range.
    pub fn verify(&self) -> bool {
        for s in &self.slices {
            let got = s.result.host_snapshot::<f64>();
            let (mut sx, mut sy, mut bins) = (0.0, 0.0, [0u64; 10]);
            for i in 0..s.items {
                let (px, py, pb) =
                    gaussian_tally(SEED, s.first_pair + i * PAIRS_PER_ITEM, PAIRS_PER_ITEM);
                sx += px;
                sy += py;
                for (b, p) in bins.iter_mut().zip(pb) {
                    *b += p;
                }
            }
            if (got[0] - sx).abs() > 1e-8 * sx.abs().max(1.0) {
                return false;
            }
            if (got[1] - sy).abs() > 1e-8 * sy.abs().max(1.0) {
                return false;
            }
            for (k, b) in bins.iter().enumerate() {
                if (got[2 + k] - *b as f64).abs() > 0.5 {
                    return false;
                }
            }
        }
        true
    }

    /// Final state of queue `qi`: the per-workgroup records followed by the
    /// reduced record.
    pub fn state(&self, qi: usize) -> Vec<f64> {
        let s = &self.slices[qi];
        [s.records.host_snapshot::<f64>(), s.result.host_snapshot::<f64>()].concat()
    }

    /// The class this instance was built for.
    pub fn class(&self) -> Class {
        self.class
    }

    /// Consume the app, returning its queues (for final-device inspection).
    pub fn into_queues(self) -> Vec<SchedQueue> {
        self.queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clrt::Platform;
    use multicl::{ContextSchedPolicy, ProfileCache, SchedOptions};

    fn ctx(tag: &str) -> (Platform, MulticlContext) {
        let platform = Platform::paper_node();
        let dir = std::env::temp_dir().join(format!("npb-ep-test-{tag}-{}", std::process::id()));
        let options =
            SchedOptions { profile_cache: ProfileCache::at(dir), ..SchedOptions::default() };
        let c =
            MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options).unwrap();
        (platform, c)
    }

    #[test]
    fn ep_verifies_under_auto_scheduling() {
        let (_p, c) = ctx("auto");
        let mut app = EpApp::new(&c, Class::S, 2, &QueuePlan::Auto).unwrap();
        app.run().unwrap();
        assert!(app.verify());
    }

    #[test]
    fn ep_verifies_on_every_device_manually() {
        let (p, c) = ctx("manual");
        for dev in p.node().device_ids() {
            let mut app = EpApp::new(&c, Class::S, 1, &QueuePlan::Manual(vec![dev])).unwrap();
            app.run().unwrap();
            assert!(app.verify(), "EP wrong on {dev}");
        }
    }

    #[test]
    fn ep_autofit_prefers_gpus() {
        let (p, c) = ctx("prefers-gpu");
        let mut app = EpApp::new(&c, Class::W, 2, &QueuePlan::Auto).unwrap();
        app.run().unwrap();
        let gpus = p.node().gpus();
        for q in app.into_queues() {
            assert!(gpus.contains(&q.device()), "EP queue landed on {}", q.device());
        }
    }

    #[test]
    fn ep_work_scales_with_class() {
        assert_eq!(total_pairs(Class::W) / total_pairs(Class::S), 4);
        assert_eq!(total_pairs(Class::D) / total_pairs(Class::C), 4);
    }

    #[test]
    fn tally_is_deterministic_and_splittable() {
        // Tallying [0, 2N) must equal tallying [0, N) + [N, 2N).
        let n = 512;
        let (sx, sy, bins) = gaussian_tally(SEED, 0, 2 * n);
        let (sx1, sy1, b1) = gaussian_tally(SEED, 0, n);
        let (sx2, sy2, b2) = gaussian_tally(SEED, n, n);
        assert!((sx - (sx1 + sx2)).abs() < 1e-9);
        assert!((sy - (sy1 + sy2)).abs() < 1e-9);
        for k in 0..10 {
            assert_eq!(bins[k], b1[k] + b2[k]);
        }
    }

    #[test]
    fn acceptance_rate_is_near_pi_over_4() {
        let (_, _, bins) = gaussian_tally(SEED, 0, 20_000);
        let accepted: u64 = bins.iter().sum();
        let rate = accepted as f64 / 20_000.0;
        assert!((rate - std::f64::consts::FRAC_PI_4).abs() < 0.01, "rate={rate}");
    }
}
