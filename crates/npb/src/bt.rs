//! BT — block-tridiagonal ADI solver.
//!
//! NPB BT advances a CFD state of five conserved variables per cell with
//! alternating-direction-implicit sweeps: each timestep computes a
//! right-hand side, then solves block-tridiagonal systems (5×5 blocks)
//! along x, then y, then z, and adds the correction to the state. We keep
//! that exact structure — the app is [`crate::adi`]'s, shared with SP — with
//! a simplified, diagonally dominant coefficient construction
//! (state-dependent coupling blocks), using the real 5×5 block Thomas solver
//! from [`crate::math`].
//!
//! Table II: besides the square queue counts of every ADI code, BT registers
//! device-specific launch configurations via `clSetKernelWorkGroupInfo`.

use crate::adi::{AdiApp, Scheme, Sweep};
use crate::math::{block_tridiag_solve, lines, Block5, Vec5};
use clrt::error::ClResult;
use clrt::{Kernel, NdRange};
use hwsim::{DeviceType, NodeConfig};

/// Implicit weight θ of the ADI scheme.
const THETA: f64 = 0.25;
/// State-coupling strength of the off-diagonal blocks.
const EPS: f64 = 0.01;

/// The BT application.
pub type BtApp = AdiApp<Bt>;

/// BT's [`Scheme`]: 5×5 block-tridiagonal line solves.
pub struct Bt;

impl Scheme for Bt {
    const NAME: &'static str = "BT";
    const KERNELS: [&'static str; 5] =
        ["bt_compute_rhs", "bt_x_solve", "bt_y_solve", "bt_z_solve", "bt_add"];
    const MIN_TILE: usize = 2;
    const COALESCING: [f64; 3] = [0.12, 0.2, 0.25];
    /// Per cell: one 5×5 inversion (~350 flops), two matmuls/matvecs
    /// (~300), plus block assembly.
    const SOLVE_COST: (f64, f64) = (800.0, 420.0);
    /// Line-sequential solves with 5×5 LU per cell: long serial chains,
    /// strided access — the worst case for the naive GPU port (BT is the
    /// most CPU-favoured benchmark in Fig. 3).
    const SOLVE_TRAITS: (f64, f64) = (0.2, 0.18);
    const SWEEP: Sweep = sweep_axis;

    fn initial(i: usize, j: usize, k: usize, comp: usize, tile: usize) -> f64 {
        1.0 + 0.1 * ((i + 2 * j + 3 * k + comp + tile) as f64 * 0.37).sin()
    }

    /// One line per work-item with tiny workgroups on the CPU, wide
    /// workgroups on the GPU.
    fn set_work_group_info(node: &NodeConfig, solves: &[Kernel; 3], items: u64) -> ClResult<()> {
        for dev in node.device_ids() {
            let local = match node.spec(dev).device_type {
                DeviceType::Cpu => 1,
                _ => 32,
            };
            for k in solves {
                k.set_work_group_info(dev, NdRange::d1(items, local))?;
            }
        }
        Ok(())
    }

    /// The state stays bounded: the implicit scheme is dissipative.
    fn accepts(u: &[f64], _reference: impl FnOnce() -> Vec<f64>) -> bool {
        u.iter().fold(0.0f64, |m, v| m.max(v.abs())) <= 10.0
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Class, QueuePlan};
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
