//! SP — scalar pentadiagonal ADI solver.
//!
//! Same ADI skeleton as BT (rhs → x-sweep → y-sweep → z-sweep → add), but
//! the implicit systems factor into five independent *scalar* pentadiagonal
//! solves per line (NPB's "scalar penta-diagonal" formulation), using
//! [`crate::math::penta_solve`]. Coefficients are state-dependent and
//! diagonally dominant.
//!
//! Table II: queue counts must be square (1, 4, …); options:
//! `SCHED_EXPLICIT_REGION` around the warmup timestep.

use crate::class::Class;
use crate::math::{cell, face_laplacian, lines, penta_solve};
use crate::suite::{make_queues, region_start, region_stop, QueuePlan};
use clrt::error::ClResult;
use clrt::{ArgValue, Buffer, Kernel, KernelBody, KernelCtx, NdRange};
use hwsim::{KernelCostSpec, KernelTraits};
use multicl::{MulticlContext, SchedQueue};
use std::sync::Arc;

/// Timesteps (NPB: 100–400; scaled).
const NITER: usize = 30;
const THETA: f64 = 0.2;
const PHI: f64 = 0.04;
const DT: f64 = 0.05;

/// Grid edge length per class (scaled from NPB's 12…162).
pub fn grid_size(class: Class) -> usize {
    match class {
        Class::S => 8,
        Class::W => 12,
        Class::A => 16,
        Class::B => 20,
        Class::C => 24,
        Class::D => 28,
    }
}

/// Solve the pentadiagonal systems along `axis` for every line and every
/// component, transforming `rhs` in place. Shared by kernel and reference.
pub fn sweep_axis(u: &[f64], rhs: &mut [f64], dims: (usize, usize, usize), axis: usize) {
    let (len, stride, starts) = lines(dims, axis);
    if len < 3 {
        return; // pentadiagonal solve needs at least 3 points
    }
    // The five bands and the right-hand side of one scalar system, refilled
    // for every solve: a line reads and writes only its own cells of `rhs`,
    // so each solution goes straight back.
    let [mut e, mut lo, mut di, mut up, mut f, mut d] = [(); 6].map(|()| vec![0.0f64; len]);
    for first in starts {
        // Five independent scalar solves per line.
        for comp in first..first + 5 {
            for t in 0..len {
                let s = u[comp + t * stride];
                let bend = 1.0 + 0.02 * s / (1.0 + s.abs());
                di[t] = 1.0 + 2.0 * THETA + 2.0 * PHI;
                lo[t] = if t >= 1 { -THETA * bend } else { 0.0 };
                e[t] = if t >= 2 { PHI * bend } else { 0.0 };
                up[t] = if t + 1 < len { -THETA * bend } else { 0.0 };
                f[t] = if t + 2 < len { PHI * bend } else { 0.0 };
                d[t] = rhs[comp + t * stride];
            }
            penta_solve(&mut e, &mut lo, &mut di, &mut up, &mut f, &mut d);
            for (t, v) in d.iter().enumerate() {
                rhs[comp + t * stride] = *v;
            }
        }
    }
}

/// RHS: same dissipative face-neighbor Laplacian as BT's reference.
pub fn compute_rhs_host(u: &[f64], rhs: &mut [f64], dims: (usize, usize, usize)) {
    face_laplacian(u, rhs, dims, DT);
}

fn solve_traits(coalescing: f64) -> KernelTraits {
    KernelTraits {
        coalescing,
        branch_divergence: 0.18,
        vector_friendliness: 0.25,
        double_precision: true,
    }
}

/// `sp_compute_rhs`. Args: u, rhs(mut), nx, ny, nz.
struct SpRhs;
impl KernelBody for SpRhs {
    fn name(&self) -> &str {
        "sp_compute_rhs"
    }
    fn arity(&self) -> usize {
        5
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec {
            flops_per_item: 5.0 * 8.0,
            bytes_per_item: 5.0 * 64.0,
            traits: KernelTraits {
                coalescing: 0.4,
                branch_divergence: 0.12,
                vector_friendliness: 0.5,
                double_precision: true,
            },
        }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let dims = (ctx.u64(2) as usize, ctx.u64(3) as usize, ctx.u64(4) as usize);
        let u = ctx.slice::<f64>(0);
        let rhs = ctx.slice_mut::<f64>(1);
        compute_rhs_host(u, rhs, dims);
    }
}

/// Sweep kernels, one per axis. One work-item solves one grid line, so the
/// per-item cost scales with the line length (baked in at creation).
/// Args: u, rhs(mut), nx, ny, nz.
struct SpSolve {
    axis: usize,
    name: &'static str,
    coalescing: f64,
    /// Cells per line along `axis` for this problem instance.
    line_len: usize,
}
impl KernelBody for SpSolve {
    fn name(&self) -> &str {
        self.name
    }
    fn arity(&self) -> usize {
        5
    }
    fn cost(&self) -> KernelCostSpec {
        // Five scalar pentadiagonal solves per cell: ~90 flops, ~240 bytes;
        // one item covers `line_len` cells.
        KernelCostSpec {
            flops_per_item: 90.0 * self.line_len as f64,
            bytes_per_item: 240.0 * self.line_len as f64,
            traits: solve_traits(self.coalescing),
        }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let dims = (ctx.u64(2) as usize, ctx.u64(3) as usize, ctx.u64(4) as usize);
        let u = ctx.slice::<f64>(0);
        let rhs = ctx.slice_mut::<f64>(1);
        sweep_axis(u, rhs, dims, self.axis);
    }
}

/// `sp_add`: u += rhs. Args: rhs, u(mut), n_values.
struct SpAdd;
impl KernelBody for SpAdd {
    fn name(&self) -> &str {
        "sp_add"
    }
    fn arity(&self) -> usize {
        3
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec {
            flops_per_item: 1.0,
            bytes_per_item: 24.0,
            traits: KernelTraits {
                coalescing: 0.9,
                branch_divergence: 0.0,
                vector_friendliness: 0.85,
                double_precision: true,
            },
        }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let n = ctx.u64(2) as usize;
        let rhs = ctx.slice::<f64>(0);
        let u = ctx.slice_mut::<f64>(1);
        for i in 0..n {
            u[i] += rhs[i];
        }
    }
}

struct SpSlice {
    u: Buffer,
    /// Correction buffer (kept alive; referenced by the kernel args).
    _rhs: Buffer,
    dims: (usize, usize, usize),
    seed: usize,
    k_rhs: Kernel,
    k_solve: [Kernel; 3],
    k_add: Kernel,
}

/// The SP application.
pub struct SpApp {
    queues: Vec<SchedQueue>,
    slices: Vec<SpSlice>,
}

impl SpApp {
    /// Build SP for `class` over `nqueues` (square) queues under `plan`.
    pub fn new(
        ctx: &MulticlContext,
        class: Class,
        nqueues: usize,
        plan: &QueuePlan,
    ) -> ClResult<SpApp> {
        let meta = crate::suite::info("SP").expect("SP in suite");
        let queues = make_queues(ctx, plan, nqueues, meta.flags)?;
        let n = grid_size(class);
        let tiles = (nqueues as f64).sqrt().round() as usize;
        let (tx, ty) = ((n / tiles).max(3), (n / tiles).max(3));
        let dims = (tx, ty, n);
        let program = ctx.create_program(vec![
            Arc::new(SpRhs) as Arc<dyn KernelBody>,
            Arc::new(SpSolve { axis: 0, name: "sp_x_solve", coalescing: 0.15, line_len: tx }),
            Arc::new(SpSolve { axis: 1, name: "sp_y_solve", coalescing: 0.22, line_len: ty }),
            Arc::new(SpSolve { axis: 2, name: "sp_z_solve", coalescing: 0.28, line_len: n }),
            Arc::new(SpAdd),
        ])?;
        let cells = tx * ty * n;
        let mut slices = Vec::with_capacity(nqueues);
        for (qi, q) in queues.iter().enumerate() {
            let u0 = Self::initial_state(dims, qi);
            let u = ctx.create_buffer_of::<f64>(cells * 5)?;
            let rhs = ctx.create_buffer_of::<f64>(cells * 5)?;
            q.enqueue_write(&u, &u0)?;

            let k_rhs = program.create_kernel("sp_compute_rhs")?;
            let k_solve = [
                program.create_kernel("sp_x_solve")?,
                program.create_kernel("sp_y_solve")?,
                program.create_kernel("sp_z_solve")?,
            ];
            let k_add = program.create_kernel("sp_add")?;
            for k in std::iter::once(&k_rhs).chain(k_solve.iter()) {
                k.set_arg(0, ArgValue::Buffer(u.clone()))?;
                k.set_arg(1, ArgValue::BufferMut(rhs.clone()))?;
                k.set_arg(2, ArgValue::U64(tx as u64))?;
                k.set_arg(3, ArgValue::U64(ty as u64))?;
                k.set_arg(4, ArgValue::U64(n as u64))?;
            }
            k_add.set_arg(0, ArgValue::Buffer(rhs.clone()))?;
            k_add.set_arg(1, ArgValue::BufferMut(u.clone()))?;
            k_add.set_arg(2, ArgValue::U64((cells * 5) as u64))?;
            slices.push(SpSlice { u, _rhs: rhs, dims, seed: qi, k_rhs, k_solve, k_add });
        }
        Ok(SpApp { queues, slices })
    }

    fn initial_state(dims: (usize, usize, usize), seed: usize) -> Vec<f64> {
        let (nx, ny, nz) = dims;
        let mut u0 = vec![0.0f64; nx * ny * nz * 5];
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = cell(i, j, k, nx, ny);
                    for comp in 0..5 {
                        u0[c + comp] =
                            1.0 + 0.1 * ((3 * i + j + 2 * k + comp + seed) as f64 * 0.53).cos();
                    }
                }
            }
        }
        u0
    }

    fn enqueue_step(&self, qi: usize) -> ClResult<()> {
        let s = &self.slices[qi];
        let q = &self.queues[qi];
        let (nx, ny, nz) = s.dims;
        let cells = (nx * ny * nz) as u64;
        q.enqueue_ndrange(&s.k_rhs, NdRange::d1(cells, 64))?;
        // One work-item per line orthogonal to each sweep axis.
        let lines = [ny * nz, nx * nz, nx * ny];
        for (k, &nlines) in s.k_solve.iter().zip(&lines) {
            q.enqueue_ndrange(k, NdRange::d1(nlines as u64, 32))?;
        }
        q.enqueue_ndrange(&s.k_add, NdRange::d1(cells * 5, 64))?;
        Ok(())
    }

    /// Run `NITER` ADI timesteps; the first is the warmup region.
    pub fn run(&mut self) -> ClResult<()> {
        region_start(&self.queues);
        for qi in 0..self.queues.len() {
            self.enqueue_step(qi)?;
        }
        for q in &self.queues {
            q.finish();
        }
        region_stop(&self.queues);
        for _ in 1..NITER {
            for qi in 0..self.queues.len() {
                self.enqueue_step(qi)?;
            }
            for q in &self.queues {
                q.finish();
            }
        }
        Ok(())
    }

    /// Verify: finite, bounded, and equal to the serial reference.
    pub fn verify(&self) -> bool {
        for (qi, s) in self.slices.iter().enumerate() {
            let u = s.u.host_snapshot::<f64>();
            if u.iter().any(|v| !v.is_finite()) {
                return false;
            }
            let reference = self.reference_state(qi);
            let maxerr = u.iter().zip(&reference).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            if maxerr > 1e-12 {
                return false;
            }
        }
        true
    }

    /// Serial recomputation of queue `qi`'s final state.
    pub fn reference_state(&self, qi: usize) -> Vec<f64> {
        let s = &self.slices[qi];
        let mut u = Self::initial_state(s.dims, s.seed);
        let mut rhs = vec![0.0f64; u.len()];
        for _ in 0..NITER {
            compute_rhs_host(&u, &mut rhs, s.dims);
            for axis in 0..3 {
                sweep_axis(&u, &mut rhs, s.dims, axis);
            }
            for (uv, rv) in u.iter_mut().zip(&rhs) {
                *uv += rv;
            }
        }
        u
    }

    /// Final state of queue `qi`.
    pub fn state(&self, qi: usize) -> Vec<f64> {
        self.slices[qi].u.host_snapshot::<f64>()
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
        let dir = std::env::temp_dir().join(format!("npb-sp-test-{tag}-{}", std::process::id()));
        let options =
            SchedOptions { profile_cache: ProfileCache::at(dir), ..SchedOptions::default() };
        let c =
            MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options).unwrap();
        (platform, c)
    }

    #[test]
    fn sp_runs_and_verifies_under_auto_scheduling() {
        let (_p, c) = ctx("auto");
        let mut app = SpApp::new(&c, Class::S, 4, &QueuePlan::Auto).unwrap();
        app.run().unwrap();
        assert!(app.verify());
    }

    #[test]
    fn sp_result_is_device_independent() {
        let (p, c) = ctx("device-indep");
        let cpu = p.node().cpu().unwrap();
        let gpu = p.node().gpus()[1];
        let mut a = SpApp::new(&c, Class::S, 1, &QueuePlan::Manual(vec![cpu])).unwrap();
        a.run().unwrap();
        let mut b = SpApp::new(&c, Class::S, 1, &QueuePlan::Manual(vec![gpu])).unwrap();
        b.run().unwrap();
        assert_eq!(a.state(0), b.state(0));
    }

    #[test]
    fn sweep_in_place_equals_every_line_solved_from_copies() {
        // The kernel and `verify` share `sweep_axis`; this check shares
        // nothing with it: each line's pentadiagonal system is written out
        // densely from the scheme's definition and solved by elimination.
        let dims = (5, 4, 6);
        let n = 5 * 4 * 6 * 5;
        let u: Vec<f64> = (0..n).map(|i| 1.0 + 0.3 * (i as f64 * 0.71).sin()).collect();
        let rhs0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos()).collect();
        let at = |i: usize, j: usize, k: usize| ((k * 4 + j) * 5 + i) * 5;
        for axis in 0..3 {
            let mut rhs = rhs0.clone();
            sweep_axis(&u, &mut rhs, dims, axis);
            let len = [5, 4, 6][axis];
            let (da, db) = [(4, 6), (5, 6), (5, 4)][axis];
            for (a, b) in (0..db).flat_map(|b| (0..da).map(move |a| (a, b))) {
                let line: Vec<usize> =
                    (0..len).map(|t| [at(t, a, b), at(a, t, b), at(a, b, t)][axis]).collect();
                for comp in 0..5 {
                    let mut m = vec![vec![0.0; len]; len];
                    for (t, &c) in line.iter().enumerate() {
                        let s = u[c + comp];
                        let bend = 1.0 + 0.02 * s / (1.0 + s.abs());
                        m[t][t] = 1.0 + 2.0 * THETA + 2.0 * PHI;
                        for near in [t.wrapping_sub(1), t + 1].into_iter().filter(|&x| x < len) {
                            m[t][near] = -THETA * bend;
                        }
                        for far in [t.wrapping_sub(2), t + 2].into_iter().filter(|&x| x < len) {
                            m[t][far] = PHI * bend;
                        }
                    }
                    let d = line.iter().map(|&c| rhs0[c + comp]).collect();
                    for (want, &c) in crate::math::tests::dense_solve(m, d).iter().zip(&line) {
                        let got = rhs[c + comp];
                        assert!((got - want).abs() < 1e-12, "axis {axis} line ({a},{b}): {got}");
                    }
                }
            }
        }
    }

    #[test]
    fn sp_sweep_is_a_contraction() {
        let dims = (6, 6, 6);
        let cells = 6 * 6 * 6;
        let u = vec![1.0; cells * 5];
        let mut rhs: Vec<f64> = (0..cells * 5).map(|i| ((i as f64) * 0.23).cos()).collect();
        let before: f64 = rhs.iter().map(|v| v * v).sum();
        sweep_axis(&u, &mut rhs, dims, 1);
        let after: f64 = rhs.iter().map(|v| v * v).sum();
        assert!(after < before);
    }

    #[test]
    fn sp_prefers_cpu_under_autofit() {
        let (p, c) = ctx("prefers-cpu");
        let mut app = SpApp::new(&c, Class::A, 1, &QueuePlan::Auto).unwrap();
        app.run().unwrap();
        assert!(app.verify());
        assert_eq!(app.queues[0].device(), p.node().cpu().unwrap());
    }
}
