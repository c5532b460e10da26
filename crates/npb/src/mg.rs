//! MG — simplified 3-D multigrid V-cycle on a periodic grid.
//!
//! Implements NPB MG's computational pattern: 27-point stencils for the
//! operator (`resid`) and the smoother (`psinv`), full-weighting restriction
//! (`rprj3`), and trilinear interpolation (`interp`), applied as V-cycles on
//! a hierarchy of periodic grids. Each command queue owns an independent
//! grid instance.
//!
//! The stencil kernels walk a 3-D array in the Fortran-derived layout of the
//! SNU-NPB port, which is why the naive GPU version is heavily uncoalesced
//! and the CPU wins by ~3× (Fig. 3). Table II options:
//! `SCHED_EXPLICIT_REGION` around the first V-cycle.

use crate::class::Class;
use crate::randdp::RanDp;
use crate::suite::{iterate, make_queues, QueuePlan};
use clrt::error::ClResult;
use clrt::{Buffer, In, Kernel, KernelBody, NdRange, Out};
use hwsim::{KernelCostSpec, KernelTraits};
use multicl::{MulticlContext, SchedQueue};
use std::sync::Arc;

/// V-cycles per run (NPB: 4–50 depending on class; scaled).
const CYCLES: usize = 10;
/// Coarsest grid edge.
const COARSEST: usize = 4;

/// Operator stencil weights (NPB's `a`): center, face, edge, corner.
const A_W: [f64; 4] = [-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0];
/// Smoother stencil weights (NPB's `c`): center, face, edge, corner.
const C_W: [f64; 4] = [-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0];

/// Grid edge length per class (power of two; scaled from NPB's 32…1024).
pub fn grid_size(class: Class) -> usize {
    match class {
        Class::S => 16,
        Class::W => 16,
        Class::A => 32,
        Class::B => 32,
        Class::C => 64,
        Class::D => 64,
    }
}

#[inline]
fn idx(i: usize, j: usize, k: usize, n: usize) -> usize {
    (k * n + j) * n + i
}

/// `[c − 1, c, c + 1]` wrapped onto `0..n`: the periodic neighbours of
/// coordinate `c` along one axis, in stencil order.
fn wrap3(c: usize, n: usize) -> [usize; 3] {
    [if c == 0 { n - 1 } else { c - 1 }, c, if c + 1 == n { 0 } else { c + 1 }]
}

/// The weight of each of a cell's 27 neighbours — `w[class]`, class = how
/// many of the three offsets are non-zero — in the order [`gather27`] visits
/// them.
fn weights27(w: [f64; 4]) -> [f64; 27] {
    let off = |d: usize| usize::from(d != 1);
    std::array::from_fn(|t| w[off(t / 9) + off(t / 3 % 3) + off(t % 3)])
}

/// Where the nine grid rows around row `(j, k)` of an `n³` periodic grid
/// start, k-offsets outermost.
fn rows9(j: usize, k: usize, n: usize) -> [usize; 9] {
    let (kw, jw) = (wrap3(k, n), wrap3(j, n));
    std::array::from_fn(|r| (kw[r / 3] * n + jw[r % 3]) * n)
}

/// `Σ wt·u` over the 27 periodic neighbours of cell `i` of the row `rows`
/// surrounds: k-offsets outermost, i-offsets innermost (every MG sum is
/// accumulated in this order), zero weights skipped.
#[inline]
fn gather27(u: &[f64], rows: &[usize; 9], iw: [usize; 3], wt: &[f64; 27]) -> f64 {
    let mut acc = 0.0;
    for (row, w3) in rows.iter().zip(wt.chunks_exact(3)) {
        for (ii, &wv) in iw.iter().zip(w3) {
            if wv != 0.0 {
                acc += wv * u[row + ii];
            }
        }
    }
    acc
}

/// Apply a 27-point stencil with class weights `w` to `u`, writing
/// `out[p] = rhs[p] - Σ w(class)·u[neighbor]` when `rhs` is given, or
/// `out[p] += Σ w·u[neighbor]` otherwise (smoother form).
fn stencil27(u: &[f64], rhs: Option<&[f64]>, out: &mut [f64], n: usize, w: [f64; 4], add: bool) {
    stencil27_planes(u, rhs, out, n, w, add, 0..n);
}

/// [`stencil27`] restricted to the k-planes in `planes`. `u`, `rhs` and
/// `out` are still the full grid — neighbor reads wrap over all of it —
/// but only the selected planes of `out` are written, which is what lets a
/// split launch hand disjoint plane spans to different devices.
fn stencil27_planes(
    u: &[f64],
    rhs: Option<&[f64]>,
    out: &mut [f64],
    n: usize,
    w: [f64; 4],
    add: bool,
    planes: std::ops::Range<usize>,
) {
    let wt = weights27(w);
    for k in planes.start.min(n)..planes.end.min(n) {
        for j in 0..n {
            let rows = rows9(j, k, n);
            for i in 0..n {
                let acc = gather27(u, &rows, wrap3(i, n), &wt);
                let p = idx(i, j, k, n);
                match (rhs, add) {
                    (Some(r), _) => out[p] = r[p] - acc,
                    (None, true) => out[p] += acc,
                    (None, false) => out[p] = acc,
                }
            }
        }
    }
}

/// Host reference for `r = v − A·u`.
pub fn resid_host(u: &[f64], v: &[f64], r: &mut [f64], n: usize) {
    stencil27(u, Some(v), r, n, A_W, false);
}

/// Full-weighting restriction from fine grid `nf` to coarse `nf/2`.
pub fn rprj3_host(fine: &[f64], coarse: &mut [f64], nf: usize) {
    let nc = nf / 2;
    let wt = weights27([0.5, 0.25, 0.125, 0.0625].map(|w| w / 8.0));
    for kc in 0..nc {
        for jc in 0..nc {
            let rows = rows9(2 * jc, 2 * kc, nf);
            for ic in 0..nc {
                coarse[idx(ic, jc, kc, nc)] = gather27(fine, &rows, wrap3(2 * ic, nf), &wt);
            }
        }
    }
}

/// The two coarse neighbours of fine coordinate `c` along one axis, each
/// with its linear weight (`nc` coarse points, periodic).
fn lerp2(c: usize, nc: usize) -> [(usize, f64); 2] {
    let (c0, frac) = (c / 2, (c % 2) as f64 / 2.0);
    [(c0, 1.0 - frac), (if c0 + 1 == nc { 0 } else { c0 + 1 }, frac)]
}

/// Trilinear prolongation: `fine += P·coarse` (fine edge = 2 × coarse edge).
pub fn interp_host(coarse: &[f64], fine: &mut [f64], nc: usize) {
    let nf = 2 * nc;
    for kf in 0..nf {
        for jf in 0..nf {
            let (kz, jy) = (lerp2(kf, nc), lerp2(jf, nc));
            for if_ in 0..nf {
                // Each fine point interpolates from its ≤8 surrounding
                // coarse points with trilinear weights.
                let mut acc = 0.0;
                for (kk, wz) in kz {
                    for (jj, wy) in jy {
                        for (ii, wx) in lerp2(if_, nc) {
                            let wv = wx * wy * wz;
                            if wv != 0.0 {
                                acc += wv * coarse[idx(ii, jj, kk, nc)];
                            }
                        }
                    }
                }
                fine[idx(if_, jf, kf, nf)] += acc;
            }
        }
    }
}

fn stencil_cost(flops_per_item: f64, bytes_per_item: f64) -> KernelCostSpec {
    // Column-major-derived 3-D indexing: badly coalesced on the GPU,
    // cache-friendly enough on the CPU.
    let traits = KernelTraits {
        coalescing: 0.28,
        branch_divergence: 0.1,
        vector_friendliness: 0.45,
        double_precision: true,
    };
    KernelCostSpec { flops_per_item, bytes_per_item, traits }
}

/// `mg_resid`: r = v − A·u.
struct MgResid;
clrt::kernel! {
    impl MgResid as MgResidArgs {
        name: "mg_resid",
        cost: stencil_cost(2.0 * 20.0, 96.0),
        splittable: true,
        fn execute(&self, ctx, u: In<f64>, v: In<f64>, r: Out<f64>, n: u64) {
            let k0 = ctx.global_offset()[2] as usize;
            let kspan = ctx.nd().global[2] as usize;
            stencil27_planes(u, Some(v), r, n as usize, A_W, false, k0..k0 + kspan);
        }
    }
}

/// `mg_psinv`: u += S·r.
struct MgPsinv;
clrt::kernel! {
    impl MgPsinv as MgPsinvArgs {
        name: "mg_psinv",
        cost: stencil_cost(2.0 * 19.0, 88.0),
        splittable: true,
        fn execute(&self, ctx, r: In<f64>, u: Out<f64>, n: u64) {
            let k0 = ctx.global_offset()[2] as usize;
            let kspan = ctx.nd().global[2] as usize;
            stencil27_planes(r, None, u, n as usize, C_W, true, k0..k0 + kspan);
        }
    }
}

/// `mg_rprj3`: coarse = restrict(fine), `nf` the fine edge.
struct MgRprj3;
clrt::kernel! {
    impl MgRprj3 as MgRprj3Args {
        name: "mg_rprj3",
        cost: stencil_cost(54.0, 232.0),
        fn execute(&self, ctx, fine: In<f64>, coarse: Out<f64>, nf: u64) {
            rprj3_host(fine, coarse, nf as usize);
        }
    }
}

/// `mg_interp`: fine += P·coarse, `nc` the coarse edge.
struct MgInterp;
clrt::kernel! {
    impl MgInterp as MgInterpArgs {
        name: "mg_interp",
        cost: stencil_cost(24.0, 80.0),
        fn execute(&self, ctx, coarse: In<f64>, fine: Out<f64>, nc: u64) {
            interp_host(coarse, fine, nc as usize);
        }
    }
}

/// `mg_zero`: zero a grid of edge `n`.
struct MgZero;
clrt::kernel! {
    impl MgZero as MgZeroArgs {
        name: "mg_zero",
        cost: KernelCostSpec {
            flops_per_item: 0.0,
            bytes_per_item: 8.0,
            traits: KernelTraits {
                coalescing: 0.95,
                branch_divergence: 0.0,
                vector_friendliness: 0.9,
                double_precision: true,
            },
        },
        fn execute(&self, ctx, grid: Out<f64>, n: u64) {
            grid.fill(0.0);
        }
    }
}

struct Level {
    n: usize,
    /// Approximate solution (correction, below the top level).
    u: Buffer,
    /// Right-hand side of this level's equation: `v` at the top, the
    /// restricted residual below.
    rhs: Buffer,
    /// Working residual `rhs − A·u`.
    r: Buffer,
}

struct MgSlice {
    levels: Vec<Level>, // levels[last] is the finest
    /// Top-level right-hand side (kept alive; levels[top].rhs aliases it).
    _v: Buffer,
    v_host: Vec<f64>,
    k_resid: Vec<Kernel>,
    k_psinv: Vec<Kernel>,
    k_rprj3: Vec<Kernel>,  // fine level index (>=1): levels[k] → levels[k-1]
    k_interp: Vec<Kernel>, // coarse level index: levels[k] → levels[k+1]
    k_zero: Vec<Kernel>,   // one per below-top level
    initial_rnorm: f64,
}

/// The MG application.
pub struct MgApp {
    queues: Vec<SchedQueue>,
    slices: Vec<MgSlice>,
}

impl MgApp {
    /// Build MG for `class` over `nqueues` queues under `plan`.
    pub fn new(
        ctx: &MulticlContext,
        class: Class,
        nqueues: usize,
        plan: &QueuePlan,
    ) -> ClResult<MgApp> {
        let queues = make_queues(ctx, "MG", plan, nqueues)?;
        let program = ctx.create_program(vec![
            Arc::new(MgResid) as Arc<dyn KernelBody>,
            Arc::new(MgPsinv),
            Arc::new(MgRprj3),
            Arc::new(MgInterp),
            Arc::new(MgZero),
        ])?;
        let n_top = grid_size(class);
        let mut slices = Vec::with_capacity(nqueues);
        for (qi, q) in queues.iter().enumerate() {
            // Sparse ±1 source, NPB-style, placed by randdp.
            let mut v_host = vec![0.0f64; n_top * n_top * n_top];
            let mut rng = RanDp::new(271_828_183 + 7 * qi as u64);
            for s in 0..20 {
                let p = (rng.next_f64() * v_host.len() as f64) as usize % v_host.len();
                v_host[p] = if s % 2 == 0 { 1.0 } else { -1.0 };
            }
            let v = ctx.create_buffer_of::<f64>(v_host.len())?;
            q.enqueue_write(&v, &v_host)?;
            let initial_rnorm = v_host.iter().map(|x| x * x).sum::<f64>().sqrt();

            // Level sizes COARSEST..n_top; the top level's rhs *is* v.
            let mut sizes = vec![];
            let mut n = COARSEST;
            while n <= n_top {
                sizes.push(n);
                n *= 2;
            }
            let mut levels = Vec::with_capacity(sizes.len());
            for (li, &n) in sizes.iter().enumerate() {
                let rhs = if li == sizes.len() - 1 {
                    v.clone()
                } else {
                    ctx.create_buffer_of::<f64>(n * n * n)?
                };
                levels.push(Level {
                    n,
                    u: ctx.create_buffer_of::<f64>(n * n * n)?,
                    rhs,
                    r: ctx.create_buffer_of::<f64>(n * n * n)?,
                });
            }

            let mut k_resid = Vec::new();
            let mut k_psinv = Vec::new();
            let mut k_rprj3 = Vec::new();
            let mut k_interp = Vec::new();
            for lev in &levels {
                let (u, r, n) = (&lev.u, &lev.r, lev.n as u64);
                let kr = program.create_kernel("mg_resid")?;
                MgResidArgs { u, v: &lev.rhs, r, n }.bind(&kr)?;
                k_resid.push(kr);

                let kp = program.create_kernel("mg_psinv")?;
                MgPsinvArgs { r, u, n }.bind(&kp)?;
                k_psinv.push(kp);
            }
            for li in 1..levels.len() {
                let k = program.create_kernel("mg_rprj3")?;
                let (fine, coarse) = (&levels[li], &levels[li - 1]);
                MgRprj3Args { fine: &fine.r, coarse: &coarse.rhs, nf: fine.n as u64 }.bind(&k)?;
                k_rprj3.push(k);
            }
            for li in 0..levels.len() - 1 {
                let k = program.create_kernel("mg_interp")?;
                let (coarse, fine) = (&levels[li], &levels[li + 1]);
                MgInterpArgs { coarse: &coarse.u, fine: &fine.u, nc: coarse.n as u64 }.bind(&k)?;
                k_interp.push(k);
            }
            // Coarse-level corrections restart from zero every cycle.
            let mut k_zero = Vec::new();
            for lev in levels.iter().take(levels.len() - 1) {
                let k = program.create_kernel("mg_zero")?;
                MgZeroArgs { grid: &lev.u, n: lev.n as u64 }.bind(&k)?;
                k_zero.push(k);
            }

            slices.push(MgSlice {
                levels,
                _v: v,
                v_host,
                k_resid,
                k_psinv,
                k_rprj3,
                k_interp,
                k_zero,
                initial_rnorm,
            });
        }
        Ok(MgApp { queues, slices })
    }

    fn enqueue_vcycle(&self, qi: usize) -> ClResult<()> {
        let s = &self.slices[qi];
        let q = &self.queues[qi];
        let top = s.levels.len() - 1;
        let nd = |n: usize| NdRange::d3([n as u64, n as u64, n as u64], [n as u64, 1, 1]);
        // Top residual.
        q.enqueue_ndrange(&s.k_resid[top], nd(s.levels[top].n))?;
        // Restrict down.
        for li in (1..=top).rev() {
            q.enqueue_ndrange(&s.k_rprj3[li - 1], nd(s.levels[li - 1].n))?;
        }
        // Coarse corrections restart from zero.
        for (li, kz) in s.k_zero.iter().enumerate() {
            q.enqueue_ndrange(kz, nd(s.levels[li].n))?;
        }
        // Bottom solve: r = rhs − A·0 = rhs, then smooth.
        q.enqueue_ndrange(&s.k_resid[0], nd(s.levels[0].n))?;
        q.enqueue_ndrange(&s.k_psinv[0], nd(s.levels[0].n))?;
        // Back up: interpolate, re-residual, smooth.
        for li in 1..=top {
            q.enqueue_ndrange(&s.k_interp[li - 1], nd(s.levels[li].n))?;
            q.enqueue_ndrange(&s.k_resid[li], nd(s.levels[li].n))?;
            q.enqueue_ndrange(&s.k_psinv[li], nd(s.levels[li].n))?;
        }
        Ok(())
    }

    /// Run `CYCLES` V-cycles; the first is the warmup region.
    pub fn run(&mut self) -> ClResult<()> {
        iterate(&self.queues, CYCLES, |_, qi| self.enqueue_vcycle(qi))
    }

    /// Verify: the final residual norm must have dropped well below the
    /// initial one and be finite.
    pub fn verify(&self) -> bool {
        for s in &self.slices {
            let top = s.levels.len() - 1;
            let n = s.levels[top].n;
            let u = s.levels[top].u.host_snapshot::<f64>();
            if u.iter().any(|x| !x.is_finite()) {
                return false;
            }
            let mut r = vec![0.0; n * n * n];
            resid_host(&u, &s.v_host, &mut r, n);
            let rnorm = r.iter().map(|x| x * x).sum::<f64>().sqrt();
            if rnorm.partial_cmp(&(0.5 * s.initial_rnorm)) != Some(std::cmp::Ordering::Less) {
                return false;
            }
        }
        true
    }

    /// Final finest-level solution `u` of queue `qi`.
    pub fn state(&self, qi: usize) -> Vec<f64> {
        self.slices[qi].levels.last().map_or(Vec::new(), |top| top.u.host_snapshot::<f64>())
    }

    /// Consume the app, returning its queues.
    pub fn into_queues(self) -> Vec<SchedQueue> {
        self.queues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clrt::Platform;
    use multicl::{ContextSchedPolicy, MulticlContext, ProfileCache, SchedOptions};

    fn ctx(tag: &str) -> (Platform, MulticlContext) {
        let platform = Platform::paper_node();
        let dir = std::env::temp_dir().join(format!("npb-mg-test-{tag}-{}", std::process::id()));
        let options =
            SchedOptions { profile_cache: ProfileCache::at(dir), ..SchedOptions::default() };
        let c =
            MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options).unwrap();
        (platform, c)
    }

    #[test]
    fn hoisted_wrap_equals_rem_euclid() {
        for n in [2usize, 4, 16] {
            for c in 0..n {
                let wrapped = wrap3(c, n);
                for (slot, d) in (-1i64..=1).enumerate() {
                    let want = (c as i64 + d).rem_euclid(n as i64) as usize;
                    assert_eq!(wrapped[slot], want, "n={n} c={c} d={d}");
                }
            }
        }
    }

    #[test]
    fn weights_follow_the_neighbour_class_in_visiting_order() {
        let wt = weights27([0.0, 1.0, 2.0, 3.0]);
        let mut t = 0;
        for dk in -1i64..=1 {
            for dj in -1i64..=1 {
                for di in -1i64..=1 {
                    assert_eq!(wt[t], (di.abs() + dj.abs() + dk.abs()) as f64, "({di},{dj},{dk})");
                    t += 1;
                }
            }
        }
    }

    #[test]
    fn interpolation_weights_equal_the_float_index_form() {
        for nc in [2usize, 4, 8] {
            for c in 0..2 * nc {
                let x = c as f64 / 2.0;
                let (c0, frac) = (x.floor() as usize, x - x.floor());
                assert_eq!(lerp2(c, nc), [(c0 % nc, 1.0 - frac), ((c0 + 1) % nc, frac)]);
            }
        }
    }

    #[test]
    fn restriction_preserves_constant_fields() {
        let nf = 8;
        let fine = vec![3.0; nf * nf * nf];
        let mut coarse = vec![0.0; 4 * 4 * 4];
        rprj3_host(&fine, &mut coarse, nf);
        // Full weighting of a constant: weights sum to
        // (0.5 + 6·0.25 + 12·0.125 + 8·0.0625)/8 = 0.5.
        for v in &coarse {
            assert!((v - 1.5).abs() < 1e-12, "{v}");
        }
    }

    #[test]
    fn interpolation_of_constant_is_constant() {
        let nc = 4;
        let coarse = vec![2.0; nc * nc * nc];
        let mut fine = vec![0.0; 8 * 8 * 8];
        interp_host(&coarse, &mut fine, nc);
        for v in &fine {
            assert!((v - 2.0).abs() < 1e-12, "{v}");
        }
    }

    #[test]
    fn resid_of_zero_solution_is_rhs() {
        let n = 8;
        let u = vec![0.0; n * n * n];
        let mut v = vec![0.0; n * n * n];
        v[37] = 1.0;
        let mut r = vec![0.0; n * n * n];
        resid_host(&u, &v, &mut r, n);
        assert_eq!(r, v);
    }

    #[test]
    fn mg_reduces_residual_under_auto_scheduling() {
        let (_p, c) = ctx("auto");
        let mut app = MgApp::new(&c, Class::S, 2, &QueuePlan::Auto).unwrap();
        app.run().unwrap();
        assert!(app.verify());
    }

    #[test]
    fn mg_prefers_cpu_under_autofit() {
        let (p, c) = ctx("prefers-cpu");
        let mut app = MgApp::new(&c, Class::A, 1, &QueuePlan::Auto).unwrap();
        app.run().unwrap();
        assert!(app.verify());
        let cpu = p.node().cpu().unwrap();
        assert_eq!(app.into_queues()[0].device(), cpu);
    }
}
