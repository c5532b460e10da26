//! BT — block-tridiagonal ADI solver.
//!
//! NPB BT advances a CFD state of five conserved variables per cell with
//! alternating-direction-implicit sweeps: each timestep computes a
//! right-hand side, then solves block-tridiagonal systems (5×5 blocks)
//! along x, then y, then z, and adds the correction to the state. We keep
//! that exact structure with a simplified, diagonally dominant coefficient
//! construction (state-dependent coupling blocks), using the real 5×5 block
//! Thomas solver from [`crate::math`].
//!
//! Table II: queue counts must be square (1, 4, …) — the grid is tiled in
//! the x–y plane, one independent tile per queue — and BT registers
//! device-specific launch configurations via `clSetKernelWorkGroupInfo`.

use crate::class::Class;
use crate::math::{block_tridiag_solve, cell, face_laplacian, lines, Block5, Vec5};
use crate::suite::{make_queues, region_start, region_stop, QueuePlan};
use clrt::error::ClResult;
use clrt::{ArgValue, Buffer, Kernel, KernelBody, KernelCtx, NdRange};
use hwsim::{DeviceType, KernelCostSpec, KernelTraits};
use multicl::{MulticlContext, SchedQueue};
use std::sync::Arc;

/// Timesteps (NPB: 60–250; scaled).
const NITER: usize = 30;
/// Implicit weight θ of the ADI scheme.
const THETA: f64 = 0.25;
/// State-coupling strength of the off-diagonal blocks.
const EPS: f64 = 0.01;
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

/// The state-dependent coupling block `C(u)`: bounded entries derived from
/// the five conserved variables at a cell.
fn coupling(u: &[f64]) -> Block5 {
    // Entry (r, s) is a function of u[(r + s) mod 5]: five distinct values.
    let w: Vec5 = std::array::from_fn(|k| EPS * u[k] / (1.0 + u[k].abs()));
    std::array::from_fn(|r| std::array::from_fn(|s| w[(r + s) % 5]))
}

/// Diagonal block `D(u) = (1+2θ)·I + C(u)`.
fn diag_block(u: &[f64]) -> Block5 {
    let mut d = coupling(u);
    for (i, row) in d.iter_mut().enumerate() {
        row[i] += 1.0 + 2.0 * THETA;
    }
    d
}

/// Off-diagonal block `B(u) = −θ·I + C(u)`.
fn off_block(u: &[f64]) -> Block5 {
    let mut b = coupling(u);
    for (i, row) in b.iter_mut().enumerate() {
        row[i] -= THETA;
    }
    b
}

/// Solve the block-tridiagonal systems along `axis` for every grid line,
/// transforming `rhs` in place. Shared by the kernel bodies and the
/// host-side verification.
pub fn sweep_axis(u: &[f64], rhs: &mut [f64], dims: (usize, usize, usize), axis: usize) {
    let (len, stride, starts) = lines(dims, axis);
    // One line's blocks and right-hand side, refilled for every line: a line
    // reads and writes only its own cells of `rhs`, so its solution goes
    // straight back.
    const ZERO: Block5 = [[0.0; 5]; 5];
    let [mut lower, mut diag, mut upper] = [(); 3].map(|()| vec![ZERO; len]);
    let mut line_rhs: Vec<Vec5> = vec![[0.0; 5]; len];
    for first in starts {
        let at = |t: usize| first + t * stride..first + t * stride + 5;
        for t in 0..len {
            diag[t] = diag_block(&u[at(t)]);
            lower[t] = if t == 0 { ZERO } else { off_block(&u[at(t - 1)]) };
            upper[t] = if t + 1 == len { ZERO } else { off_block(&u[at(t + 1)]) };
            line_rhs[t].copy_from_slice(&rhs[at(t)]);
        }
        block_tridiag_solve(&lower, &mut diag, &mut upper, &mut line_rhs);
        for (t, v) in line_rhs.iter().enumerate() {
            rhs[at(t)].copy_from_slice(v);
        }
    }
}

/// Host reference for the RHS: `rhs = dt·(face-neighbor Laplacian of u)`,
/// reflective boundaries.
pub fn compute_rhs_host(u: &[f64], rhs: &mut [f64], dims: (usize, usize, usize)) {
    face_laplacian(u, rhs, dims, DT);
}

fn rhs_traits() -> KernelTraits {
    KernelTraits {
        coalescing: 0.4,
        branch_divergence: 0.12,
        vector_friendliness: 0.5,
        double_precision: true,
    }
}

fn solve_traits(coalescing: f64) -> KernelTraits {
    // Line-sequential solves with 5×5 LU per cell: long serial chains,
    // strided access — the worst case for the naive GPU port (BT is the
    // most CPU-favoured benchmark in Fig. 3).
    KernelTraits {
        coalescing,
        branch_divergence: 0.2,
        vector_friendliness: 0.18,
        double_precision: true,
    }
}

/// `bt_compute_rhs`. Args: u, rhs(mut), nx, ny, nz.
struct BtRhs;
impl KernelBody for BtRhs {
    fn name(&self) -> &str {
        "bt_compute_rhs"
    }
    fn arity(&self) -> usize {
        5
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec {
            flops_per_item: 5.0 * 8.0,
            bytes_per_item: 5.0 * 64.0,
            traits: rhs_traits(),
        }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let dims = (ctx.u64(2) as usize, ctx.u64(3) as usize, ctx.u64(4) as usize);
        let u = ctx.slice::<f64>(0);
        let rhs = ctx.slice_mut::<f64>(1);
        compute_rhs_host(u, rhs, dims);
    }
}

/// The three sweep kernels share a body parameterized by axis. One
/// work-item solves one grid *line*, so the per-item cost scales with the
/// line length (baked in at program creation).
/// Args: u, rhs(mut), nx, ny, nz.
struct BtSolve {
    axis: usize,
    name: &'static str,
    coalescing: f64,
    /// Cells per line along `axis` for this problem instance.
    line_len: usize,
}
impl KernelBody for BtSolve {
    fn name(&self) -> &str {
        self.name
    }
    fn arity(&self) -> usize {
        5
    }
    fn cost(&self) -> KernelCostSpec {
        // Per cell: one 5×5 inversion (~350 flops), two matmuls/matvecs
        // (~300), plus block assembly; one item covers `line_len` cells.
        KernelCostSpec {
            flops_per_item: 800.0 * self.line_len as f64,
            bytes_per_item: 420.0 * self.line_len as f64,
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

/// `bt_add`: u += rhs. Args: rhs, u(mut), n_values.
struct BtAdd;
impl KernelBody for BtAdd {
    fn name(&self) -> &str {
        "bt_add"
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

struct BtSlice {
    u: Buffer,
    rhs: Buffer,
    dims: (usize, usize, usize),
    k_rhs: Kernel,
    k_solve: [Kernel; 3],
    k_add: Kernel,
}

/// The BT application.
pub struct BtApp {
    queues: Vec<SchedQueue>,
    slices: Vec<BtSlice>,
}

impl BtApp {
    /// Build BT for `class` over `nqueues` (square) queues under `plan`.
    pub fn new(
        ctx: &MulticlContext,
        class: Class,
        nqueues: usize,
        plan: &QueuePlan,
    ) -> ClResult<BtApp> {
        let meta = crate::suite::info("BT").expect("BT in suite");
        let queues = make_queues(ctx, plan, nqueues, meta.flags)?;
        let n = grid_size(class);
        let tiles = (nqueues as f64).sqrt().round() as usize;
        let (tx, ty) = ((n / tiles).max(2), (n / tiles).max(2));
        let dims = (tx, ty, n);
        let program = ctx.create_program(vec![
            Arc::new(BtRhs) as Arc<dyn KernelBody>,
            Arc::new(BtSolve { axis: 0, name: "bt_x_solve", coalescing: 0.12, line_len: tx }),
            Arc::new(BtSolve { axis: 1, name: "bt_y_solve", coalescing: 0.2, line_len: ty }),
            Arc::new(BtSolve { axis: 2, name: "bt_z_solve", coalescing: 0.25, line_len: n }),
            Arc::new(BtAdd),
        ])?;
        let cells = tx * ty * n;
        let node = ctx.platform().node().clone();
        let mut slices = Vec::with_capacity(nqueues);
        for (qi, q) in queues.iter().enumerate() {
            // Smooth deterministic initial state, distinct per tile.
            let mut u0 = vec![0.0f64; cells * 5];
            for k in 0..n {
                for j in 0..ty {
                    for i in 0..tx {
                        let c = cell(i, j, k, tx, ty);
                        for comp in 0..5 {
                            u0[c + comp] =
                                1.0 + 0.1 * ((i + 2 * j + 3 * k + comp + qi) as f64 * 0.37).sin();
                        }
                    }
                }
            }
            let u = ctx.create_buffer_of::<f64>(cells * 5)?;
            let rhs = ctx.create_buffer_of::<f64>(cells * 5)?;
            q.enqueue_write(&u, &u0)?;

            let k_rhs = program.create_kernel("bt_compute_rhs")?;
            let k_solve = [
                program.create_kernel("bt_x_solve")?,
                program.create_kernel("bt_y_solve")?,
                program.create_kernel("bt_z_solve")?,
            ];
            let k_add = program.create_kernel("bt_add")?;
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

            // Table II: BT registers device-specific launch configurations —
            // one line per work-item with tiny workgroups on the CPU, wide
            // workgroups on the GPU.
            for dev in node.device_ids() {
                let local = match node.spec(dev).device_type {
                    DeviceType::Cpu => 1,
                    _ => 32,
                };
                for k in &k_solve {
                    k.set_work_group_info(dev, NdRange::d1((tx * ty) as u64, local))?;
                }
            }
            slices.push(BtSlice { u, rhs, dims, k_rhs, k_solve, k_add });
        }
        Ok(BtApp { queues, slices })
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

    /// Verify: the state stays finite and bounded (the implicit scheme is
    /// dissipative), and matches the serial reference recomputation.
    pub fn verify(&self) -> bool {
        for s in &self.slices {
            let u = s.u.host_snapshot::<f64>();
            if u.iter().any(|v| !v.is_finite()) {
                return false;
            }
            let max = u.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if max > 10.0 {
                return false;
            }
            let _ = &s.rhs;
        }
        true
    }

    /// Recompute the final state serially (reference for determinism tests).
    pub fn reference_state(&self, qi: usize) -> Vec<f64> {
        let s = &self.slices[qi];
        let (nx, ny, nz) = s.dims;
        let cells = nx * ny * nz;
        let mut u = vec![0.0f64; cells * 5];
        // Reconstruct the same initial state written in `new`.
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = cell(i, j, k, nx, ny);
                    for comp in 0..5 {
                        u[c + comp] =
                            1.0 + 0.1 * ((i + 2 * j + 3 * k + comp + qi) as f64 * 0.37).sin();
                    }
                }
            }
        }
        let mut rhs = vec![0.0f64; cells * 5];
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

    /// Final state of queue `qi` (for determinism tests).
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
        let dir = std::env::temp_dir().join(format!("npb-bt-test-{tag}-{}", std::process::id()));
        let options =
            SchedOptions { profile_cache: ProfileCache::at(dir), ..SchedOptions::default() };
        let c =
            MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options).unwrap();
        (platform, c)
    }

    #[test]
    fn bt_runs_and_verifies_under_auto_scheduling() {
        let (_p, c) = ctx("auto");
        let mut app = BtApp::new(&c, Class::S, 4, &QueuePlan::Auto).unwrap();
        app.run().unwrap();
        assert!(app.verify());
    }

    #[test]
    fn bt_matches_serial_reference_exactly() {
        let (p, c) = ctx("reference");
        let cpu = p.node().cpu().unwrap();
        let mut app = BtApp::new(&c, Class::S, 1, &QueuePlan::Manual(vec![cpu])).unwrap();
        app.run().unwrap();
        assert_eq!(app.state(0), app.reference_state(0));
    }

    #[test]
    fn bt_result_is_device_independent() {
        let (p, c) = ctx("device-indep");
        let cpu = p.node().cpu().unwrap();
        let gpu = p.node().gpus()[0];
        let mut a = BtApp::new(&c, Class::S, 1, &QueuePlan::Manual(vec![cpu])).unwrap();
        a.run().unwrap();
        let mut b = BtApp::new(&c, Class::S, 1, &QueuePlan::Manual(vec![gpu])).unwrap();
        b.run().unwrap();
        assert_eq!(a.state(0), b.state(0));
    }

    #[test]
    fn bt_prefers_cpu_under_autofit() {
        let (p, c) = ctx("prefers-cpu");
        let mut app = BtApp::new(&c, Class::A, 1, &QueuePlan::Auto).unwrap();
        app.run().unwrap();
        assert_eq!(app.queues[0].device(), p.node().cpu().unwrap());
    }

    #[test]
    fn sweep_in_place_equals_every_line_solved_from_copies() {
        // `verify` only bounds the state and `reference_state` shares
        // `sweep_axis` with the kernels; this check shares nothing with it:
        // each line's block-tridiagonal system is written out densely from
        // the scheme's definition and solved by elimination.
        let dims = (4, 3, 5);
        let n = 4 * 3 * 5 * 5;
        let u: Vec<f64> = (0..n).map(|i| 1.0 + 0.3 * (i as f64 * 0.37).sin()).collect();
        let rhs0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let at = |i: usize, j: usize, k: usize| ((k * 3 + j) * 4 + i) * 5;
        // Block (r, s) entry of `shift·I + C(u at cell c)`.
        let entry = |c: usize, shift: f64, r: usize, s: usize| {
            let w = u[c + (r + s) % 5];
            EPS * w / (1.0 + w.abs()) + if r == s { shift } else { 0.0 }
        };
        for axis in 0..3 {
            let mut rhs = rhs0.clone();
            sweep_axis(&u, &mut rhs, dims, axis);
            let len = [4, 3, 5][axis];
            let (da, db) = [(3, 5), (4, 5), (4, 3)][axis];
            for (a, b) in (0..db).flat_map(|b| (0..da).map(move |a| (a, b))) {
                let line: Vec<usize> =
                    (0..len).map(|t| [at(t, a, b), at(a, t, b), at(a, b, t)][axis]).collect();
                let mut m = vec![vec![0.0; 5 * len]; 5 * len];
                for (t, r, s) in (0..len).flat_map(|t| (0..25).map(move |e| (t, e / 5, e % 5))) {
                    m[5 * t + r][5 * t + s] = entry(line[t], 1.0 + 2.0 * THETA, r, s);
                    if t > 0 {
                        m[5 * t + r][5 * (t - 1) + s] = entry(line[t - 1], -THETA, r, s);
                    }
                    if t + 1 < len {
                        m[5 * t + r][5 * (t + 1) + s] = entry(line[t + 1], -THETA, r, s);
                    }
                }
                let d = line.iter().flat_map(|&c| rhs0[c..c + 5].to_vec()).collect();
                let want = crate::math::tests::dense_solve(m, d);
                for (t, &c) in line.iter().enumerate() {
                    for comp in 0..5 {
                        let (got, want) = (rhs[c + comp], want[5 * t + comp]);
                        assert!((got - want).abs() < 1e-12, "axis {axis} line ({a},{b}): {got}");
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_reduces_rhs_magnitude() {
        // The implicit solve is a contraction: ‖solve(rhs)‖ < ‖rhs‖ for the
        // diagonally dominant blocks used here.
        let dims = (6, 6, 6);
        let cells = 6 * 6 * 6;
        let u = vec![1.0; cells * 5];
        let mut rhs: Vec<f64> = (0..cells * 5).map(|i| ((i as f64) * 0.11).sin()).collect();
        let before: f64 = rhs.iter().map(|v| v * v).sum();
        sweep_axis(&u, &mut rhs, dims, 0);
        let after: f64 = rhs.iter().map(|v| v * v).sum();
        assert!(after < before, "{after} !< {before}");
    }
}
