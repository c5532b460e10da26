//! ADI — the alternating-direction-implicit app that BT and SP share.
//!
//! A timestep computes a right-hand side from a state of five conserved
//! variables per cell, solves implicit systems along x, then y, then z, and
//! adds the correction to the state. BT and SP differ in the line solver and
//! the little a [`Scheme`] states next to it; [`AdiApp`] is the rest.
//!
//! Table II: queue counts must be square (1, 4, …) — the grid is tiled in
//! the x–y plane, one independent tile per queue — and
//! `SCHED_EXPLICIT_REGION` goes around the warmup timestep.

use crate::class::Class;
use crate::math::{cell, face_laplacian};
use crate::suite::{iterate, make_queues, QueuePlan};
use clrt::error::ClResult;
use clrt::{Buffer, In, Kernel, KernelBody, NdRange, Out};
use hwsim::{KernelCostSpec, KernelTraits, NodeConfig};
use multicl::{MulticlContext, SchedQueue};
use std::marker::PhantomData;
use std::sync::Arc;

/// Timesteps (NPB: 60–400; scaled).
const NITER: usize = 30;
const DT: f64 = 0.05;

/// A line solver: solve the implicit systems along `axis` for every grid
/// line of a `dims` grid, transforming `rhs` in place.
pub type Sweep = fn(u: &[f64], rhs: &mut [f64], dims: (usize, usize, usize), axis: usize);

/// What BT and SP do differently; [`AdiApp`] does the rest.
pub trait Scheme: 'static {
    /// The code's Table II name.
    const NAME: &'static str;
    /// Kernel names: the rhs, the x, y and z solves, the add.
    const KERNELS: [&'static str; 5];
    /// Smallest tile edge in x and y.
    const MIN_TILE: usize;
    /// Memory coalescing of the x, y and z solves.
    const COALESCING: [f64; 3];
    /// Flops and bytes per cell of a line solve.
    const SOLVE_COST: (f64, f64);
    /// Branch divergence and vector friendliness of a line solve.
    const SOLVE_TRAITS: (f64, f64);
    /// The line solver; the kernels and the serial reference share it.
    const SWEEP: Sweep;

    /// Initial value of component `comp` at cell `(i, j, k)` of tile `tile`.
    fn initial(i: usize, j: usize, k: usize, comp: usize, tile: usize) -> f64;

    /// Register device-specific launch configurations for a tile's three
    /// solves (`clSetKernelWorkGroupInfo`); `items` is the tile's x–y area.
    fn set_work_group_info(_node: &NodeConfig, _solves: &[Kernel; 3], _items: u64) -> ClResult<()> {
        Ok(())
    }

    /// Whether a finite final state `u` verifies; `reference` recomputes it
    /// serially.
    fn accepts(u: &[f64], reference: impl FnOnce() -> Vec<f64>) -> bool;
}

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

/// The rhs kernel: `rhs = dt·(face-neighbor Laplacian of u)`, reflective
/// boundaries.
struct Rhs(&'static str);
clrt::kernel! {
    impl Rhs as RhsArgs {
        name: self.0,
        cost: KernelCostSpec {
            flops_per_item: 5.0 * 8.0,
            bytes_per_item: 5.0 * 64.0,
            traits: KernelTraits {
                coalescing: 0.4,
                branch_divergence: 0.12,
                vector_friendliness: 0.5,
                double_precision: true,
            },
        },
        fn execute(&self, ctx, u: In<f64>, rhs: Out<f64>, nx: u64, ny: u64, nz: u64) {
            face_laplacian(u, rhs, (nx as usize, ny as usize, nz as usize), DT);
        }
    }
}

/// The sweep kernels, one per axis. One work-item solves one grid *line*,
/// so the per-item cost scales with the line length (baked in at program
/// creation).
struct Solve<S> {
    axis: usize,
    /// Cells per line along `axis` for this problem instance.
    line_len: usize,
    scheme: PhantomData<fn() -> S>,
}
clrt::kernel! {
    impl<S: Scheme> Solve<S> as SolveArgs {
        name: S::KERNELS[1 + self.axis],
        cost: KernelCostSpec {
            flops_per_item: S::SOLVE_COST.0 * self.line_len as f64,
            bytes_per_item: S::SOLVE_COST.1 * self.line_len as f64,
            traits: KernelTraits {
                coalescing: S::COALESCING[self.axis],
                branch_divergence: S::SOLVE_TRAITS.0,
                vector_friendliness: S::SOLVE_TRAITS.1,
                double_precision: true,
            },
        },
        fn execute(&self, ctx, u: In<f64>, rhs: Out<f64>, nx: u64, ny: u64, nz: u64) {
            (S::SWEEP)(u, rhs, (nx as usize, ny as usize, nz as usize), self.axis);
        }
    }
}

/// The add kernel: u += rhs over the first `n` values.
struct Add(&'static str);
clrt::kernel! {
    impl Add as AddArgs {
        name: self.0,
        cost: KernelCostSpec {
            flops_per_item: 1.0,
            bytes_per_item: 24.0,
            traits: KernelTraits {
                coalescing: 0.9,
                branch_divergence: 0.0,
                vector_friendliness: 0.85,
                double_precision: true,
            },
        },
        fn execute(&self, ctx, rhs: In<f64>, u: Out<f64>, n: u64) {
            for i in 0..n as usize {
                u[i] += rhs[i];
            }
        }
    }
}

/// One queue's tile. Its correction buffer lives in the kernels' arguments.
struct AdiSlice {
    u: Buffer,
    dims: (usize, usize, usize),
    k_rhs: Kernel,
    k_solve: [Kernel; 3],
    k_add: Kernel,
}

/// The ADI application under scheme `S`: [`crate::bt::BtApp`] or
/// [`crate::sp::SpApp`].
pub struct AdiApp<S> {
    pub(crate) queues: Vec<SchedQueue>,
    slices: Vec<AdiSlice>,
    scheme: PhantomData<fn() -> S>,
}

impl<S: Scheme> AdiApp<S> {
    /// Build the code for `class` over `nqueues` (square) queues under `plan`.
    pub fn new(
        ctx: &MulticlContext,
        class: Class,
        nqueues: usize,
        plan: &QueuePlan,
    ) -> ClResult<AdiApp<S>> {
        let queues = make_queues(ctx, S::NAME, plan, nqueues)?;
        let n = grid_size(class);
        let tiles = (nqueues as f64).sqrt().round() as usize;
        let (tx, ty) = ((n / tiles).max(S::MIN_TILE), (n / tiles).max(S::MIN_TILE));
        let dims = (tx, ty, n);
        let solve = |axis, line_len| Arc::new(Solve::<S> { axis, line_len, scheme: PhantomData });
        let program = ctx.create_program(vec![
            Arc::new(Rhs(S::KERNELS[0])) as Arc<dyn KernelBody>,
            solve(0, tx),
            solve(1, ty),
            solve(2, n),
            Arc::new(Add(S::KERNELS[4])),
        ])?;
        let cells = tx * ty * n;
        let mut slices = Vec::with_capacity(nqueues);
        for (qi, q) in queues.iter().enumerate() {
            let u0 = initial_state::<S>(dims, qi);
            let u = ctx.create_buffer_of::<f64>(cells * 5)?;
            let rhs = ctx.create_buffer_of::<f64>(cells * 5)?;
            q.enqueue_write(&u, &u0)?;

            let kernel = |i: usize| program.create_kernel(S::KERNELS[i]);
            let k_rhs = kernel(0)?;
            let k_solve = [kernel(1)?, kernel(2)?, kernel(3)?];
            let k_add = kernel(4)?;
            let (nx, ny, nz) = (tx as u64, ty as u64, n as u64);
            RhsArgs { u: &u, rhs: &rhs, nx, ny, nz }.bind(&k_rhs)?;
            for k in &k_solve {
                SolveArgs { u: &u, rhs: &rhs, nx, ny, nz }.bind(k)?;
            }
            AddArgs { rhs: &rhs, u: &u, n: (cells * 5) as u64 }.bind(&k_add)?;
            S::set_work_group_info(ctx.platform().node(), &k_solve, (tx * ty) as u64)?;
            slices.push(AdiSlice { u, dims, k_rhs, k_solve, k_add });
        }
        Ok(AdiApp { queues, slices, scheme: PhantomData })
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
        iterate(&self.queues, NITER, |_, qi| self.enqueue_step(qi))
    }

    /// Verify: every queue's state is finite and passes the scheme's check.
    pub fn verify(&self) -> bool {
        (0..self.slices.len()).all(|qi| {
            let u = self.state(qi);
            u.iter().all(|v| v.is_finite()) && S::accepts(&u, || self.reference_state(qi))
        })
    }

    /// Recompute queue `qi`'s final state serially (reference for
    /// determinism tests).
    pub fn reference_state(&self, qi: usize) -> Vec<f64> {
        let dims = self.slices[qi].dims;
        let mut u = initial_state::<S>(dims, qi);
        let mut rhs = vec![0.0f64; u.len()];
        for _ in 0..NITER {
            face_laplacian(&u, &mut rhs, dims, DT);
            for axis in 0..3 {
                (S::SWEEP)(&u, &mut rhs, dims, axis);
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

/// The smooth, deterministic initial state of tile `tile`, distinct per tile.
fn initial_state<S: Scheme>(dims: (usize, usize, usize), tile: usize) -> Vec<f64> {
    let (nx, ny, nz) = dims;
    let mut u0 = vec![0.0f64; nx * ny * nz * 5];
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let c = cell(i, j, k, nx, ny);
                for comp in 0..5 {
                    u0[c + comp] = S::initial(i, j, k, comp, tile);
                }
            }
        }
    }
    u0
}
