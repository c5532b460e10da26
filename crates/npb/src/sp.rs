//! SP — scalar pentadiagonal ADI solver.
//!
//! Same ADI app as BT ([`crate::adi`]: rhs → x-sweep → y-sweep → z-sweep →
//! add), but the implicit systems factor into five independent *scalar*
//! pentadiagonal solves per line (NPB's "scalar penta-diagonal"
//! formulation), using [`crate::math::penta_solve`]. Coefficients are
//! state-dependent and diagonally dominant.

use crate::adi::{AdiApp, Scheme, Sweep};
use crate::math::{lines, penta_solve};

const THETA: f64 = 0.2;
const PHI: f64 = 0.04;

/// The SP application.
pub type SpApp = AdiApp<Sp>;

/// SP's [`Scheme`]: scalar pentadiagonal line solves.
pub struct Sp;

impl Scheme for Sp {
    const NAME: &'static str = "SP";
    const KERNELS: [&'static str; 5] =
        ["sp_compute_rhs", "sp_x_solve", "sp_y_solve", "sp_z_solve", "sp_add"];
    /// A pentadiagonal solve needs at least 3 points.
    const MIN_TILE: usize = 3;
    const COALESCING: [f64; 3] = [0.15, 0.22, 0.28];
    /// Five scalar pentadiagonal solves per cell: ~90 flops, ~240 bytes.
    const SOLVE_COST: (f64, f64) = (90.0, 240.0);
    const SOLVE_TRAITS: (f64, f64) = (0.18, 0.25);
    const SWEEP: Sweep = sweep_axis;

    fn initial(i: usize, j: usize, k: usize, comp: usize, tile: usize) -> f64 {
        1.0 + 0.1 * ((3 * i + j + 2 * k + comp + tile) as f64 * 0.53).cos()
    }

    /// Within 1e-12 of the serial reference.
    fn accepts(u: &[f64], reference: impl FnOnce() -> Vec<f64>) -> bool {
        let reference = reference();
        u.iter().zip(&reference).fold(0.0f64, |m, (a, b)| m.max((a - b).abs())) <= 1e-12
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Class, QueuePlan};
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
