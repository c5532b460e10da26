//! CG — conjugate gradient with an irregular sparse matrix.
//!
//! Each command queue owns an independent CG instance (constant work per
//! queue, one of Table II's two scaling regimes): a random symmetric
//! diagonally dominant matrix in CSR form built with the NPB `randdp`
//! generator (the spirit of NPB's `makea`), solved by outer iterations of
//! `inner_steps` CG steps each.
//!
//! All reduction scalars (ρ, p·q, new ρ) live in a small device buffer, so
//! an entire outer iteration is a single kernel epoch with no host
//! round-trips — the task-parallel structure the paper's scheduler feeds on.
//! Table II options: `SCHED_EXPLICIT_REGION` around the first (warmup)
//! outer iteration.

use crate::class::Class;
use crate::randdp::RanDp;
use crate::suite::{iterate, make_queues, QueuePlan};
use clrt::error::ClResult;
use clrt::{Buffer, In, Kernel, KernelBody, NdRange, Out};
use hwsim::{KernelCostSpec, KernelTraits};
use multicl::{MulticlContext, SchedQueue};
use std::sync::Arc;

const LOCAL: u64 = 64;
/// Off-diagonal entries added per row (before symmetrization).
const ROW_NNZ: usize = 4;
/// CG steps per outer iteration (NPB uses 25; scaled).
const INNER_STEPS: usize = 8;
/// Outer iterations (NPB uses 15–75; scaled).
const OUTER_ITERS: usize = 10;

/// Matrix dimension per class (scaled from NPB's 1400…1.5M).
pub fn problem_size(class: Class) -> usize {
    match class {
        Class::S => 2048,
        Class::W => 4096,
        Class::A => 8192,
        Class::B => 16384,
        Class::C => 32768,
        Class::D => 65536,
    }
}

/// A CSR sparse matrix.
pub struct Csr {
    /// Row start offsets, `n + 1` entries.
    pub rowptr: Vec<u32>,
    /// Column indices.
    pub cols: Vec<u32>,
    /// Values.
    pub vals: Vec<f64>,
}

/// Build the symmetric, diagonally dominant test matrix
/// `A = shift·I + B + Bᵀ` with `ROW_NNZ` random entries per row of `B`.
pub fn make_matrix(n: usize, seed: u64) -> Csr {
    let mut rng = RanDp::new(seed);
    // Every sample lands at (i, j) and (j, i).
    let mut entries: Vec<(u32, u32, f64)> = Vec::with_capacity(2 * ROW_NNZ * n);
    for i in 0..n {
        for _ in 0..ROW_NNZ {
            let j = (rng.next_f64() * n as f64) as usize % n;
            if i == j {
                continue;
            }
            let v = 0.2 * (rng.next_f64() - 0.5);
            entries.push((i as u32, j as u32, v));
            entries.push((j as u32, i as u32, v));
        }
    }
    // Row-major order; the sort is stable, so samples that hit one position
    // stay in the order they were drawn and sum to the same bits.
    entries.sort_by_key(|&(i, j, _)| (i, j));
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut cols: Vec<u32> = Vec::with_capacity(entries.len() + n);
    let mut vals: Vec<f64> = Vec::with_capacity(entries.len() + n);
    rowptr.push(0u32);
    let mut rest = entries.as_slice();
    for i in 0..n as u32 {
        let (row, tail) = rest.split_at(rest.partition_point(|e| e.0 == i));
        rest = tail;
        let first = cols.len();
        for &(_, j, v) in row {
            if cols.len() > first && cols.last() == Some(&j) {
                vals[cols.len() - 1] += v;
            } else {
                cols.push(j);
                vals.push(v);
            }
        }
        // Diagonal dominance: diag = shift + sum |off-diag| of the row, kept
        // in column order.
        let offsum: f64 = vals[first..].iter().map(|v| v.abs()).sum();
        let at = first + cols[first..].partition_point(|&j| j < i);
        cols.insert(at, i);
        vals.insert(at, 1.0 + offsum);
        rowptr.push(cols.len() as u32);
    }
    Csr { rowptr, cols, vals }
}

/// Serial CSR mat-vec: `y = A·x` (reference and kernel share this).
pub fn csr_matvec(csr: &Csr, x: &[f64], y: &mut [f64]) {
    for (i, yi) in y.iter_mut().enumerate() {
        let (lo, hi) = (csr.rowptr[i] as usize, csr.rowptr[i + 1] as usize);
        let mut acc = 0.0;
        for k in lo..hi {
            acc += csr.vals[k] * x[csr.cols[k] as usize];
        }
        *yi = acc;
    }
}

fn sparse_traits() -> KernelTraits {
    // Gather addressing: poorly coalesced, modest vectorization — the
    // pattern that makes naive GPU SpMV lose to a cached CPU (Fig. 3).
    KernelTraits {
        coalescing: 0.22,
        branch_divergence: 0.15,
        vector_friendliness: 0.3,
        double_precision: true,
    }
}

fn stream_cost(flops_per_item: f64, bytes_per_item: f64) -> KernelCostSpec {
    let traits = KernelTraits {
        coalescing: 0.9,
        branch_divergence: 0.0,
        vector_friendliness: 0.8,
        double_precision: true,
    };
    KernelCostSpec { flops_per_item, bytes_per_item, traits }
}

/// `cg_init`: x=0, r=b, p=b, scal[0]=b·b.
struct CgInit;
clrt::kernel! {
    impl CgInit as CgInitArgs {
        name: "cg_init",
        cost: stream_cost(2.0, 40.0),
        fn execute(
            &self, ctx,
            b: In<f64>, x: Out<f64>, r: Out<f64>, p: Out<f64>, scal: Out<f64>, n: u64,
        ) {
            let mut rho = 0.0;
            for i in 0..n as usize {
                x[i] = 0.0;
                r[i] = b[i];
                p[i] = b[i];
                rho += b[i] * b[i];
            }
            scal[0] = rho;
        }
    }
}

/// `cg_matvec`: q = A·p.
struct CgMatvec;
clrt::kernel! {
    impl CgMatvec as CgMatvecArgs {
        name: "cg_matvec",
        // ~2·nnz flops and ~20 bytes per nonzero per row.
        cost: KernelCostSpec {
            flops_per_item: (2 * (2 * ROW_NNZ + 1)) as f64,
            bytes_per_item: (20 * (2 * ROW_NNZ + 1)) as f64,
            traits: sparse_traits(),
        },
        fn execute(
            &self, ctx,
            rowptr: In<u32>, cols: In<u32>, vals: In<f64>, p: In<f64>, q: Out<f64>, n: u64,
        ) {
            for (i, qi) in q[..n as usize].iter_mut().enumerate() {
                let (lo, hi) = (rowptr[i] as usize, rowptr[i + 1] as usize);
                let mut acc = 0.0;
                for k in lo..hi {
                    acc += vals[k] * p[cols[k] as usize];
                }
                *qi = acc;
            }
        }
    }
}

/// `cg_dot_pq`: scal[1] = p·q.
struct CgDotPq;
clrt::kernel! {
    impl CgDotPq as CgDotPqArgs {
        name: "cg_dot_pq",
        cost: stream_cost(2.0, 16.0),
        fn execute(&self, ctx, p: In<f64>, q: In<f64>, scal: Out<f64>, n: u64) {
            scal[1] = (0..n as usize).map(|i| p[i] * q[i]).sum();
        }
    }
}

/// `cg_update`: α = scal[0]/scal[1]; x += α p; r -= α q; scal[2] = r·r.
struct CgUpdate;
clrt::kernel! {
    impl CgUpdate as CgUpdateArgs {
        name: "cg_update",
        cost: stream_cost(6.0, 48.0),
        fn execute(
            &self, ctx,
            p: In<f64>, q: In<f64>, x: Out<f64>, r: Out<f64>, scal: Out<f64>, n: u64,
        ) {
            let alpha = scal[0] / scal[1];
            let mut rho_new = 0.0;
            for i in 0..n as usize {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
                rho_new += r[i] * r[i];
            }
            scal[2] = rho_new;
        }
    }
}

/// `cg_update_p`: β = scal[2]/scal[0]; p = r + β p; scal[0] = scal[2].
struct CgUpdateP;
clrt::kernel! {
    impl CgUpdateP as CgUpdatePArgs {
        name: "cg_update_p",
        cost: stream_cost(2.0, 24.0),
        fn execute(&self, ctx, r: In<f64>, p: Out<f64>, scal: Out<f64>, n: u64) {
            let beta = scal[2] / scal[0];
            for i in 0..n as usize {
                p[i] = r[i] + beta * p[i];
            }
            scal[0] = scal[2];
        }
    }
}

struct CgSlice {
    csr: Csr,
    b: Vec<f64>,
    k_init: Kernel,
    k_matvec: Kernel,
    k_dot: Kernel,
    k_update: Kernel,
    k_update_p: Kernel,
    x: Buffer,
    n: usize,
}

/// The CG application: N independent queues, OUTER_ITERS epochs.
pub struct CgApp {
    queues: Vec<SchedQueue>,
    slices: Vec<CgSlice>,
}

impl CgApp {
    /// Build CG for `class` over `nqueues` queues under `plan`.
    pub fn new(
        ctx: &MulticlContext,
        class: Class,
        nqueues: usize,
        plan: &QueuePlan,
    ) -> ClResult<CgApp> {
        let queues = make_queues(ctx, "CG", plan, nqueues)?;
        let program = ctx.create_program(vec![
            Arc::new(CgInit) as Arc<dyn KernelBody>,
            Arc::new(CgMatvec),
            Arc::new(CgDotPq),
            Arc::new(CgUpdate),
            Arc::new(CgUpdateP),
        ])?;
        let n = problem_size(class);
        let mut slices = Vec::with_capacity(nqueues);
        for (qi, q) in queues.iter().enumerate() {
            let csr = make_matrix(n, 271_828_183 + 2 * qi as u64);
            let mut rng = RanDp::new(314_159_261 + 2 * qi as u64);
            let b: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();

            let rowptr = ctx.create_buffer_of::<u32>(csr.rowptr.len())?;
            let cols = ctx.create_buffer_of::<u32>(csr.cols.len())?;
            let vals = ctx.create_buffer_of::<f64>(csr.vals.len())?;
            let vector = || ctx.create_buffer_of::<f64>(n);
            let (buf_b, x, r, p, qv) = (vector()?, vector()?, vector()?, vector()?, vector()?);
            let scal = ctx.create_buffer_of::<f64>(4)?;
            q.enqueue_write(&rowptr, &csr.rowptr)?;
            q.enqueue_write(&cols, &csr.cols)?;
            q.enqueue_write(&vals, &csr.vals)?;
            q.enqueue_write(&buf_b, &b)?;

            let kernel = |name| program.create_kernel(name);
            let (k_init, k_matvec, k_dot, k_update, k_update_p) = (
                kernel("cg_init")?,
                kernel("cg_matvec")?,
                kernel("cg_dot_pq")?,
                kernel("cg_update")?,
                kernel("cg_update_p")?,
            );
            {
                let (rowptr, cols, vals) = (&rowptr, &cols, &vals);
                let (b, x, r, p, q, scal, n) = (&buf_b, &x, &r, &p, &qv, &scal, n as u64);
                CgInitArgs { b, x, r, p, scal, n }.bind(&k_init)?;
                CgMatvecArgs { rowptr, cols, vals, p, q, n }.bind(&k_matvec)?;
                CgDotPqArgs { p, q, scal, n }.bind(&k_dot)?;
                CgUpdateArgs { p, q, x, r, scal, n }.bind(&k_update)?;
                CgUpdatePArgs { r, p, scal, n }.bind(&k_update_p)?;
            }
            slices.push(CgSlice { csr, b, k_init, k_matvec, k_dot, k_update, k_update_p, x, n });
        }
        Ok(CgApp { queues, slices })
    }

    fn enqueue_outer_iteration(&self, qi: usize) -> ClResult<()> {
        let s = &self.slices[qi];
        let q = &self.queues[qi];
        let nd = NdRange::d1(s.n as u64, LOCAL);
        q.enqueue_ndrange(&s.k_init, nd)?;
        for _ in 0..INNER_STEPS {
            q.enqueue_ndrange(&s.k_matvec, nd)?;
            q.enqueue_ndrange(&s.k_dot, nd)?;
            q.enqueue_ndrange(&s.k_update, nd)?;
            q.enqueue_ndrange(&s.k_update_p, nd)?;
        }
        Ok(())
    }

    /// Run `OUTER_ITERS` outer iterations; the first is the warmup iteration
    /// wrapped in the explicit scheduling region (Table II).
    pub fn run(&mut self) -> ClResult<()> {
        iterate(&self.queues, OUTER_ITERS, |_, qi| self.enqueue_outer_iteration(qi))
    }

    /// Verify: the CG result must satisfy `‖b − A·x‖ ≤ tol·‖b‖` per queue.
    pub fn verify(&self) -> bool {
        for s in &self.slices {
            let x = s.x.host_snapshot::<f64>();
            if x.iter().any(|v| !v.is_finite()) {
                return false;
            }
            let mut ax = vec![0.0; s.n];
            csr_matvec(&s.csr, &x, &mut ax);
            let rnorm: f64 =
                s.b.iter().zip(&ax).map(|(b, a)| (b - a) * (b - a)).sum::<f64>().sqrt();
            let bnorm: f64 = s.b.iter().map(|b| b * b).sum::<f64>().sqrt();
            if rnorm > 1e-6 * bnorm {
                return false;
            }
        }
        true
    }

    /// Final solution vector `x` of queue `qi`.
    pub fn state(&self, qi: usize) -> Vec<f64> {
        self.slices[qi].x.host_snapshot::<f64>()
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
        let dir = std::env::temp_dir().join(format!("npb-cg-test-{tag}-{}", std::process::id()));
        let options =
            SchedOptions { profile_cache: ProfileCache::at(dir), ..SchedOptions::default() };
        let c =
            MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options).unwrap();
        (platform, c)
    }

    /// The per-row ordered-map construction `make_matrix` replaced, kept as
    /// the independent statement of what it must build.
    fn make_matrix_by_maps(n: usize, seed: u64) -> Csr {
        let mut rng = RanDp::new(seed);
        let mut rows: Vec<std::collections::BTreeMap<u32, f64>> = vec![Default::default(); n];
        for i in 0..n {
            for _ in 0..ROW_NNZ {
                let j = (rng.next_f64() * n as f64) as usize % n;
                if i == j {
                    continue;
                }
                let v = 0.2 * (rng.next_f64() - 0.5);
                *rows[i].entry(j as u32).or_insert(0.0) += v;
                *rows[j].entry(i as u32).or_insert(0.0) += v;
            }
        }
        let (mut rowptr, mut cols, mut vals) = (vec![0u32], Vec::new(), Vec::new());
        for (i, row) in rows.iter().enumerate() {
            let offsum: f64 = row.values().map(|v| v.abs()).sum();
            let mut inserted_diag = false;
            for (&j, &v) in row.iter() {
                if j as usize > i && !inserted_diag {
                    cols.push(i as u32);
                    vals.push(1.0 + offsum);
                    inserted_diag = true;
                }
                cols.push(j);
                vals.push(v);
            }
            if !inserted_diag {
                cols.push(i as u32);
                vals.push(1.0 + offsum);
            }
            rowptr.push(cols.len() as u32);
        }
        Csr { rowptr, cols, vals }
    }

    #[test]
    fn matrix_equals_the_per_row_map_construction_bit_for_bit() {
        // Small `n` forces repeated hits on one position (summed in drawing
        // order) and rows whose every entry lies left of the diagonal.
        for (n, seed) in [(2, 1), (3, 5), (16, 7), (128, 271_828_183), (2048, 271_828_185)] {
            let (got, want) = (make_matrix(n, seed), make_matrix_by_maps(n, seed));
            assert_eq!(got.rowptr, want.rowptr, "n={n}");
            assert_eq!(got.cols, want.cols, "n={n}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.vals), bits(&want.vals), "n={n}");
        }
    }

    #[test]
    fn matrix_is_symmetric_and_diagonally_dominant() {
        let n = 128;
        let csr = make_matrix(n, 7);
        // Dense reconstruction for the check.
        let mut dense = vec![vec![0.0f64; n]; n];
        for (i, row) in dense.iter_mut().enumerate() {
            for k in csr.rowptr[i] as usize..csr.rowptr[i + 1] as usize {
                row[csr.cols[k] as usize] = csr.vals[k];
            }
        }
        for (i, row) in dense.iter().enumerate() {
            let offsum: f64 = (0..n).filter(|&j| j != i).map(|j| row[j].abs()).sum();
            assert!(row[i] > offsum, "row {i} not dominant");
            for (j, v) in row.iter().enumerate() {
                assert!((v - dense[j][i]).abs() < 1e-12, "asymmetry at ({i},{j})");
            }
        }
    }

    #[test]
    fn cg_converges_under_auto_scheduling() {
        let (_p, c) = ctx("auto");
        let mut app = CgApp::new(&c, Class::S, 2, &QueuePlan::Auto).unwrap();
        app.run().unwrap();
        assert!(app.verify());
    }

    #[test]
    fn cg_result_is_identical_on_cpu_and_gpu() {
        // Scheduling must never change numerics: run manually on CPU and on
        // a GPU and compare solutions bitwise.
        let (p, c) = ctx("bitwise");
        let cpu = p.node().cpu().unwrap();
        let gpu = p.node().gpus()[0];
        let mut a = CgApp::new(&c, Class::S, 1, &QueuePlan::Manual(vec![cpu])).unwrap();
        a.run().unwrap();
        let xa = a.slices[0].x.host_snapshot::<f64>();
        let mut b = CgApp::new(&c, Class::S, 1, &QueuePlan::Manual(vec![gpu])).unwrap();
        b.run().unwrap();
        let xb = b.slices[0].x.host_snapshot::<f64>();
        assert_eq!(xa, xb);
    }

    #[test]
    fn cg_prefers_cpu_under_autofit() {
        let (p, c) = ctx("prefers-cpu");
        let mut app = CgApp::new(&c, Class::A, 2, &QueuePlan::Auto).unwrap();
        app.run().unwrap();
        assert!(app.verify());
        let cpu = p.node().cpu().unwrap();
        // The sparse-matvec-dominated epochs should favour the CPU for at
        // least one queue (Fig. 3/5: CG runs better on the CPU).
        let devices: Vec<_> = app.into_queues().iter().map(|q| q.device()).collect();
        assert!(devices.contains(&cpu), "CG queues all on GPUs: {devices:?}");
    }
}
