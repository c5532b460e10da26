//! The velocity and stress kernels of the FDM-Seismology port.
//!
//! All kernels share a [`Params`] block (geometry, layout, material,
//! timestep) fixed at program-creation time, and operate on the nine field
//! buffers of one region: velocities `vx, vy, vz` and stress components
//! `sxx, syy, szz, sxy, sxz, syz`.
//!
//! Kernel inventory (matching the paper's counts):
//!
//! * velocity phase — `vel_vx`, `vel_vy`, `vel_vz` (region 1: 3 kernels),
//!   plus `vel_taper` on region 2 (4 kernels; 7 total);
//! * stress phase — `str_sxx/syy/szz` (normal), `str_sxy/sxz/syz` (shear),
//!   `str_taper_n`, `str_taper_s`, `str_atten`, `str_free_surface`, and on
//!   region 1 the source injection `str_source` (11 kernels), on region 2
//!   four absorbing strips `str_absorb_{xlo,xhi,ylo,yhi}` (14 kernels;
//!   25 total).
//!
//! Every grid-walking body goes through one walker (`Params::walk`): it
//! visits a box of cells in the layout's storage order as affine runs, so a
//! body reads plain subslices — no per-cell index arithmetic, clamp,
//! material lookup or `exp` — and keeps the floating-point operations, and
//! their order, of the per-cell formulation (`tests/bit_identity.rs` pins
//! them).

use crate::grid::{Dims, Layout};
use crate::medium::Medium;
use crate::source::ricker;
use clrt::{KernelBody, KernelCtx};
use hwsim::{KernelCostSpec, KernelTraits};
use std::ops::Range;
use std::sync::Arc;

/// Fixed per-region parameters baked into the kernel bodies, plus the
/// per-cell constants derived from them once per program (private, so the
/// tables cannot drift from the geometry they were built for).
#[derive(Debug, Clone)]
pub struct Params {
    /// Region grid dimensions.
    dims: Dims,
    /// Memory layout of the port (column- vs row-major).
    layout: Layout,
    /// Timestep (s).
    pub(crate) dt: f64,
    /// Grid spacing (m).
    dx: f64,
    /// Sponge-taper width in cells (absorbing boundary).
    sponge: usize,
    /// Source peak frequency (Hz); source sits at the region center.
    freq: f64,
    /// The medium's constants along an innermost line: entry `line·n + c`
    /// is inner coordinate `c` of a line whose depth is `line` (column-major,
    /// where `k` is an outer axis) or of every line (row-major, `line` = 0).
    coef: Vec<Coef>,
    /// Cerjan factors: entry `e·n + c` is inner coordinate `c` of a line
    /// whose outer axes lie `e` cells from the boundary (capped at `sponge`).
    taper: Vec<f64>,
}

/// A cell's material constants, in the form the bodies multiply by (the
/// depth-layered medium of the original DISFD code, hoisted out of the
/// per-cell loop).
#[derive(Debug, Clone, Copy)]
struct Coef {
    /// `dt / ρ`.
    dt_rho: f64,
    /// λ.
    lam: f64,
    /// `2μ`.
    mu2: f64,
    /// `dt · μ`.
    dt_mu: f64,
}

/// Cells contiguous in storage: cell `t` is `start + t`, its clamped
/// neighbours along axis `a` are `lo[a] + t` and `hi[a] + t`, and its
/// constants are `coef[mat + t]` and `taper[tap + t]`.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: usize,
    len: usize,
    lo: [usize; 3],
    hi: [usize; 3],
    mat: usize,
    tap: usize,
}

impl Run {
    fn cells(&self) -> Range<usize> {
        self.start..self.start + self.len
    }

    /// `f` at the run's lower and upper neighbours along axis `a`.
    fn along<'f>(&self, f: &'f [f64], a: usize) -> (&'f [f64], &'f [f64]) {
        (&f[self.lo[a]..][..self.len], &f[self.hi[a]..][..self.len])
    }
}

/// Clamped central difference at cell `t` of a run, from [`Run::along`].
#[inline]
fn central((lo, hi): (&[f64], &[f64]), t: usize, h: f64) -> f64 {
    (hi[t] - lo[t]) / h
}

impl Params {
    /// The parameters of one program, with its constant tables.
    pub(crate) fn new(dims: Dims, layout: Layout, medium: &Medium) -> Params {
        let mut p = Params {
            dims,
            layout,
            dt: 0.05,
            dx: 1.0,
            sponge: 4,
            freq: 1.2,
            coef: Vec::new(),
            taper: Vec::new(),
        };
        let ([.., inner], _) = p.order();
        let n = p.extent(inner);
        let lines = if inner == 2 { 1 } else { dims.nz };
        p.coef = (0..lines * n)
            .map(|x| {
                let m = medium.at_depth(if inner == 2 { x } else { x / n });
                Coef { dt_rho: p.dt / m.rho, lam: m.lam, mu2: 2.0 * m.mu, dt_mu: p.dt * m.mu }
            })
            .collect();
        p.taper = (0..=p.sponge)
            .flat_map(|e| (0..n).map(move |c| e.min(c).min(n - 1 - c)))
            .map(|m| p.cerjan(m))
            .collect();
        p
    }

    fn traits(&self) -> KernelTraits {
        KernelTraits {
            coalescing: self.layout.coalescing(),
            branch_divergence: 0.08,
            vector_friendliness: 0.5,
            double_precision: true,
        }
    }

    /// Cerjan damping factor `m` cells from the boundary: 1.0 from `sponge`
    /// cells in, smoothly below 1.0 nearer.
    fn cerjan(&self, m: usize) -> f64 {
        if m >= self.sponge {
            1.0
        } else {
            let w = (self.sponge - m) as f64;
            (-0.015 * w * w).exp()
        }
    }

    fn extent(&self, axis: usize) -> usize {
        [self.dims.nx, self.dims.ny, self.dims.nz][axis]
    }

    /// Storage order: the axes outermost first, and each axis' stride.
    fn order(&self) -> ([usize; 3], [usize; 3]) {
        let Dims { nx, ny, nz } = self.dims;
        match self.layout {
            Layout::ColumnMajor => ([2, 1, 0], [1, nx, nx * ny]),
            Layout::RowMajor => ([0, 1, 2], [ny * nz, nz, 1]),
        }
    }

    /// The whole region as a box.
    fn all(&self) -> [Range<usize>; 3] {
        [0..self.dims.nx, 0..self.dims.ny, 0..self.dims.nz]
    }

    /// Visit every cell of the box `bx` once, in storage order, outermost
    /// axis first. Each innermost line yields its first cell, its interior
    /// and its last cell as separate runs (the ones the box holds), so the
    /// clamp at either end is folded into that run's `lo` / `hi`.
    fn walk(&self, bx: [Range<usize>; 3], mut body: impl FnMut(&Run)) {
        let ([outer, mid, inner], stride) = self.order();
        let n = self.extent(inner);
        let edge = |axis: usize, p: usize| p.min(self.extent(axis) - 1 - p);
        let pieces = [(0, 1), (1, (n - 1).max(1)), ((n - 1).max(1), n)];
        for a in bx[outer].clone() {
            for b in bx[mid].clone() {
                let base = a * stride[outer] + b * stride[mid];
                let (mut lo, mut hi) = ([base; 3], [base; 3]);
                for (axis, p) in [(outer, a), (mid, b)] {
                    if p > 0 {
                        lo[axis] -= stride[axis];
                    }
                    if p + 1 < self.extent(axis) {
                        hi[axis] += stride[axis];
                    }
                }
                // The line's depth row in `coef`: `k` is the outer axis
                // unless it is the inner one.
                let line = if inner == 2 { 0 } else { a };
                let e = edge(outer, a).min(edge(mid, b)).min(self.sponge);
                for (c0, c1) in pieces {
                    let (c0, c1) = (c0.max(bx[inner].start), c1.min(bx[inner].end));
                    if c0 >= c1 {
                        continue;
                    }
                    let mut run = Run {
                        start: base + c0,
                        len: c1 - c0,
                        lo: lo.map(|x| x + c0),
                        hi: hi.map(|x| x + c0),
                        mat: line * n + c0,
                        tap: e * n + c0,
                    };
                    run.lo[inner] = base + c0.saturating_sub(1);
                    run.hi[inner] = base + (c0 + 1).min(n - 1);
                    body(&run);
                }
            }
        }
    }

    /// Scale the three fields bound to `ctx` by the sponge taper wherever it
    /// is below 1.
    fn apply_taper(&self, ctx: &KernelCtx<'_>) {
        let mut fields: [&mut [f64]; 3] = std::array::from_fn(|a| ctx.slice_mut::<f64>(a));
        self.walk(self.all(), |r| {
            let f = &self.taper[r.tap..][..r.len];
            for s in fields.iter_mut() {
                for (x, &f) in s[r.cells()].iter_mut().zip(f) {
                    if f < 1.0 {
                        *x *= f;
                    }
                }
            }
        });
    }
}

/// The program's kernel bodies, one per kernel name.
pub(crate) fn bodies(p: &Arc<Params>) -> Vec<Arc<dyn KernelBody>> {
    vec![
        Arc::new(VelUpdate { comp: 0, kname: "vel_vx", p: p.clone() }),
        Arc::new(VelUpdate { comp: 1, kname: "vel_vy", p: p.clone() }),
        Arc::new(VelUpdate { comp: 2, kname: "vel_vz", p: p.clone() }),
        Arc::new(VelTaper { p: p.clone() }),
        Arc::new(StressNormal { comp: 0, kname: "str_sxx", p: p.clone() }),
        Arc::new(StressNormal { comp: 1, kname: "str_syy", p: p.clone() }),
        Arc::new(StressNormal { comp: 2, kname: "str_szz", p: p.clone() }),
        Arc::new(StressShear { axes: (0, 1), kname: "str_sxy", p: p.clone() }),
        Arc::new(StressShear { axes: (0, 2), kname: "str_sxz", p: p.clone() }),
        Arc::new(StressShear { axes: (1, 2), kname: "str_syz", p: p.clone() }),
        Arc::new(StressTaper { kname: "str_taper_n", p: p.clone() }),
        Arc::new(StressTaper { kname: "str_taper_s", p: p.clone() }),
        Arc::new(SourceInject { p: p.clone() }),
        Arc::new(FreeSurface { p: p.clone() }),
        Arc::new(Attenuate { p: p.clone() }),
        Arc::new(AbsorbStrip { side: 0, kname: "str_absorb_xlo", p: p.clone() }),
        Arc::new(AbsorbStrip { side: 1, kname: "str_absorb_xhi", p: p.clone() }),
        Arc::new(AbsorbStrip { side: 2, kname: "str_absorb_ylo", p: p.clone() }),
        Arc::new(AbsorbStrip { side: 3, kname: "str_absorb_yhi", p: p.clone() }),
    ]
}

/// Velocity update for one component.
/// Args: 0..=5 = sxx, syy, szz, sxy, sxz, syz (read); 6 = v component (mut).
pub struct VelUpdate {
    /// 0 = vx, 1 = vy, 2 = vz.
    pub comp: usize,
    /// Kernel name (`vel_vx` …).
    pub kname: &'static str,
    /// Shared parameters.
    pub p: Arc<Params>,
}

impl KernelBody for VelUpdate {
    fn name(&self) -> &str {
        self.kname
    }
    fn arity(&self) -> usize {
        7
    }
    fn cost(&self) -> KernelCostSpec {
        // Reads three stress fields at 2 neighbors each + the velocity,
        // writes the velocity: ~160 B and ~15 flops per cell.
        KernelCostSpec { flops_per_item: 15.0, bytes_per_item: 160.0, traits: self.p.traits() }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let p = &*self.p;
        // The stress differentiated along x, y and z (args sxx, syy, szz,
        // sxy, sxz, syz).
        let [fx, fy, fz] =
            [[0, 3, 4], [3, 1, 5], [4, 5, 2]][self.comp].map(|a| ctx.slice::<f64>(a));
        let v = ctx.slice_mut::<f64>(6);
        let h = 2.0 * p.dx;
        p.walk(p.all(), |r| {
            let (x, y, z) = (r.along(fx, 0), r.along(fy, 1), r.along(fz, 2));
            let m = &p.coef[r.mat..][..r.len];
            for (t, v) in v[r.cells()].iter_mut().enumerate() {
                let div = central(x, t, h) + central(y, t, h) + central(z, t, h);
                *v += m[t].dt_rho * div;
            }
        });
    }
}

/// Sponge taper on the three velocity fields (region 2's fourth velocity
/// kernel). Args: vx, vy, vz (mut).
pub struct VelTaper {
    /// Shared parameters.
    pub p: Arc<Params>,
}

impl KernelBody for VelTaper {
    fn name(&self) -> &str {
        "vel_taper"
    }
    fn arity(&self) -> usize {
        3
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec { flops_per_item: 6.0, bytes_per_item: 48.0, traits: self.p.traits() }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        self.p.apply_taper(ctx);
    }
}

/// Normal-stress update for one diagonal component.
/// Args: vx, vy, vz (read); 3 = stress component (mut).
pub struct StressNormal {
    /// 0 = sxx, 1 = syy, 2 = szz.
    pub comp: usize,
    /// Kernel name (`str_sxx` …).
    pub kname: &'static str,
    /// Shared parameters.
    pub p: Arc<Params>,
}

impl KernelBody for StressNormal {
    fn name(&self) -> &str {
        self.kname
    }
    fn arity(&self) -> usize {
        4
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec { flops_per_item: 14.0, bytes_per_item: 128.0, traits: self.p.traits() }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let p = &*self.p;
        let [vx, vy, vz] = [0, 1, 2].map(|a| ctx.slice::<f64>(a));
        let s = ctx.slice_mut::<f64>(3);
        let h = 2.0 * p.dx;
        p.walk(p.all(), |r| {
            let (x, y, z) = (r.along(vx, 0), r.along(vy, 1), r.along(vz, 2));
            let m = &p.coef[r.mat..][..r.len];
            for (t, s) in s[r.cells()].iter_mut().enumerate() {
                let e = [central(x, t, h), central(y, t, h), central(z, t, h)];
                let tr = e[0] + e[1] + e[2];
                *s += p.dt * (m[t].lam * tr + m[t].mu2 * e[self.comp]);
            }
        });
    }
}

/// Shear-stress update for one off-diagonal component.
/// Args: first velocity, second velocity (read); 2 = stress (mut).
pub struct StressShear {
    /// Differentiation axes `(a, b)`: s_ab += dt·μ·(dv_a/db + dv_b/da).
    pub axes: (usize, usize),
    /// Kernel name (`str_sxy` …).
    pub kname: &'static str,
    /// Shared parameters.
    pub p: Arc<Params>,
}

impl KernelBody for StressShear {
    fn name(&self) -> &str {
        self.kname
    }
    fn arity(&self) -> usize {
        3
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec { flops_per_item: 9.0, bytes_per_item: 96.0, traits: self.p.traits() }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let p = &*self.p;
        let (va, vb) = (ctx.slice::<f64>(0), ctx.slice::<f64>(1));
        let s = ctx.slice_mut::<f64>(2);
        let (a, b) = self.axes;
        let h = 2.0 * p.dx;
        p.walk(p.all(), |r| {
            let (da, db) = (r.along(va, b), r.along(vb, a));
            let m = &p.coef[r.mat..][..r.len];
            for (t, s) in s[r.cells()].iter_mut().enumerate() {
                *s += m[t].dt_mu * (central(da, t, h) + central(db, t, h));
            }
        });
    }
}

/// Sponge taper over the three normal (or three shear) stress fields.
/// Args: three stress fields (mut).
pub struct StressTaper {
    /// `str_taper_n` or `str_taper_s`.
    pub kname: &'static str,
    /// Shared parameters.
    pub p: Arc<Params>,
}

impl KernelBody for StressTaper {
    fn name(&self) -> &str {
        self.kname
    }
    fn arity(&self) -> usize {
        3
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec { flops_per_item: 6.0, bytes_per_item: 48.0, traits: self.p.traits() }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        self.p.apply_taper(ctx);
    }
}

/// Explosive point source at the region center: adds a Ricker wavelet to
/// the three normal stresses. Args: sxx, syy, szz (mut); 3 = t (f64).
pub struct SourceInject {
    /// Shared parameters.
    pub p: Arc<Params>,
}

impl KernelBody for SourceInject {
    fn name(&self) -> &str {
        "str_source"
    }
    fn arity(&self) -> usize {
        4
    }
    fn cost(&self) -> KernelCostSpec {
        // Touches one cell; the launch overhead dominates.
        KernelCostSpec {
            flops_per_item: 12.0,
            bytes_per_item: 48.0,
            traits: KernelTraits {
                coalescing: 1.0,
                branch_divergence: 0.0,
                vector_friendliness: 0.5,
                double_precision: true,
            },
        }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let p = &self.p;
        let t = ctx.f64(3);
        let amp = ricker(t, p.freq) * p.dt;
        let idx = p.layout.idx(p.dims.nx / 2, p.dims.ny / 2, p.dims.nz / 2, p.dims);
        ctx.slice_mut::<f64>(0)[idx] += amp;
        ctx.slice_mut::<f64>(1)[idx] += amp;
        ctx.slice_mut::<f64>(2)[idx] += amp;
    }
}

/// Free-surface condition at the top plane (k = 0): the z-normal tractions
/// vanish. Args: szz, sxz, syz (mut).
pub struct FreeSurface {
    /// Shared parameters.
    pub p: Arc<Params>,
}

impl KernelBody for FreeSurface {
    fn name(&self) -> &str {
        "str_free_surface"
    }
    fn arity(&self) -> usize {
        3
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec { flops_per_item: 1.0, bytes_per_item: 24.0, traits: self.p.traits() }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let p = &self.p;
        let mut fields: [&mut [f64]; 3] = std::array::from_fn(|a| ctx.slice_mut::<f64>(a));
        let [x, y, _] = p.all();
        p.walk([x, y, 0..1], |r| fields.iter_mut().for_each(|s| s[r.cells()].fill(0.0)));
    }
}

/// Intrinsic attenuation: uniform Q damping of all six stresses.
/// Args: six stress fields (mut).
pub struct Attenuate {
    /// Shared parameters.
    pub p: Arc<Params>,
}

impl KernelBody for Attenuate {
    fn name(&self) -> &str {
        "str_atten"
    }
    fn arity(&self) -> usize {
        6
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec { flops_per_item: 6.0, bytes_per_item: 96.0, traits: self.p.traits() }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        const Q: f64 = 0.9995;
        for a in 0..6 {
            for v in ctx.slice_mut::<f64>(a).iter_mut() {
                *v *= Q;
            }
        }
    }
}

/// One absorbing side strip (region 2's extra boundary handling): extra
/// damping within the sponge on one lateral face.
/// Args: six stress fields (mut).
pub struct AbsorbStrip {
    /// 0 = x-low, 1 = x-high, 2 = y-low, 3 = y-high.
    pub side: usize,
    /// Kernel name (`str_absorb_xlo` …).
    pub kname: &'static str,
    /// Shared parameters.
    pub p: Arc<Params>,
}

impl KernelBody for AbsorbStrip {
    fn name(&self) -> &str {
        self.kname
    }
    fn arity(&self) -> usize {
        6
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec { flops_per_item: 3.0, bytes_per_item: 48.0, traits: self.p.traits() }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let p = &self.p;
        let d = p.dims;
        let w = p.sponge.min(d.nx).min(d.ny);
        let damp = 0.985f64;
        let mut strip = p.all();
        match self.side {
            0 => strip[0] = 0..w,
            1 => strip[0] = d.nx - w..d.nx,
            2 => strip[1] = 0..w,
            _ => strip[1] = d.ny - w..d.ny,
        }
        let mut fields: [&mut [f64]; 6] = std::array::from_fn(|a| ctx.slice_mut::<f64>(a));
        p.walk(strip, |r| {
            for s in fields.iter_mut() {
                s[r.cells()].iter_mut().for_each(|x| *x *= damp);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The clamped central difference every stencil cell computed before
    /// the bodies walked runs: the oracle for [`Run::along`].
    fn diff(f: &[f64], i: usize, j: usize, k: usize, axis: usize, p: &Params) -> f64 {
        let d = p.dims;
        let (lo, hi) = match axis {
            0 => (
                p.layout.idx(i.saturating_sub(1), j, k, d),
                p.layout.idx((i + 1).min(d.nx - 1), j, k, d),
            ),
            1 => (
                p.layout.idx(i, j.saturating_sub(1), k, d),
                p.layout.idx(i, (j + 1).min(d.ny - 1), k, d),
            ),
            _ => (
                p.layout.idx(i, j, k.saturating_sub(1), d),
                p.layout.idx(i, j, (k + 1).min(d.nz - 1), d),
            ),
        };
        (f[hi] - f[lo]) / (2.0 * p.dx)
    }

    /// The Cerjan factor every taper cell computed before the table: the
    /// oracle for `Params`' `taper` table.
    fn taper(p: &Params, i: usize, j: usize, k: usize) -> f64 {
        let d = p.dims;
        let edge = |p: usize, n: usize| -> usize { p.min(n - 1 - p) };
        let m = edge(i, d.nx).min(edge(j, d.ny)).min(edge(k, d.nz));
        if m >= p.sponge {
            1.0
        } else {
            let w = (p.sponge - m) as f64;
            (-0.015 * w * w).exp()
        }
    }

    fn params(dims: Dims, layout: Layout, medium: Medium) -> Params {
        Params::new(dims, layout, &medium)
    }

    fn homogeneous() -> Medium {
        Medium::homogeneous(1.0, 1.0, 1.0)
    }

    /// `n` values in [-1, 1) from an xorshift64 stream seeded with `seed`.
    fn seeded(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    #[test]
    fn taper_is_one_in_the_interior_and_below_one_at_edges() {
        let p = params(Dims::new(24, 24, 12), Layout::ColumnMajor, homogeneous());
        let c = (p.dims.nx / 2, p.dims.ny / 2, p.dims.nz / 2);
        assert_eq!(taper(&p, c.0, c.1, c.2), 1.0);
        assert!(taper(&p, 0, c.1, c.2) < 1.0);
        assert!(taper(&p, 0, 0, 0) < taper(&p, 1, c.1, c.2));
    }

    #[test]
    fn diff_of_linear_field_is_constant() {
        let p = params(Dims::new(8, 8, 8), Layout::ColumnMajor, homogeneous());
        let d = p.dims;
        let mut f = vec![0.0; d.cells()];
        for i in 0..d.nx {
            for j in 0..d.ny {
                for k in 0..d.nz {
                    f[p.layout.idx(i, j, k, d)] = 3.0 * i as f64;
                }
            }
        }
        // Interior central difference of 3x is exactly 3.
        let g = diff(&f, 4, 4, 4, 0, &p);
        assert!((g - 3.0).abs() < 1e-12);
        // Orthogonal axes see zero gradient.
        assert_eq!(diff(&f, 4, 4, 4, 1, &p), 0.0);
    }

    /// The walker visits every cell exactly once, in storage order, and a
    /// run's `lo` / `hi` neighbours, material and taper factor are the ones
    /// the per-cell formulation computed — on shapes whose 1- and 2-wide
    /// axes make a whole region out of length-1 and length-2 lines.
    #[test]
    fn walker_runs_match_the_per_cell_oracle() {
        let medium = Medium::two_layer(6);
        for (nx, ny, nz) in [(32, 32, 16), (5, 2, 1), (1, 3, 4), (2, 1, 9)] {
            for layout in [Layout::ColumnMajor, Layout::RowMajor] {
                let p = params(Dims::new(nx, ny, nz), layout, medium.clone());
                let d = p.dims;
                let f = seeded(7, d.cells());
                let mut at = vec![(0, 0, 0); d.cells()];
                for (i, j, k) in
                    (0..nx).flat_map(|i| (0..ny).flat_map(move |j| (0..nz).map(move |k| (i, j, k))))
                {
                    at[layout.idx(i, j, k, d)] = (i, j, k);
                }
                let mut next = 0;
                p.walk(p.all(), |r| {
                    assert_eq!(r.start, next, "{layout:?} {d:?}: runs leave storage order");
                    next += r.len;
                    for t in 0..r.len {
                        let (i, j, k) = at[r.start + t];
                        for a in 0..3 {
                            let (lo, hi) = r.along(&f, a);
                            assert_eq!(
                                ((hi[t] - lo[t]) / (2.0 * p.dx)).to_bits(),
                                diff(&f, i, j, k, a, &p).to_bits(),
                                "{layout:?} {d:?}: neighbours of ({i},{j},{k}) along axis {a}"
                            );
                        }
                        let m = medium.at_depth(k);
                        let c = p.coef[r.mat + t];
                        assert_eq!(
                            [c.dt_rho, c.lam, c.mu2, c.dt_mu].map(f64::to_bits),
                            [p.dt / m.rho, m.lam, 2.0 * m.mu, p.dt * m.mu].map(f64::to_bits),
                            "{layout:?} {d:?}: material at ({i},{j},{k})"
                        );
                        assert_eq!(p.taper[r.tap + t].to_bits(), taper(&p, i, j, k).to_bits());
                    }
                });
                assert_eq!(next, d.cells(), "{layout:?} {d:?}: every cell once");
            }
        }
    }

    #[test]
    fn kernel_costs_reflect_layout_coalescing() {
        let dims = Dims::new(24, 24, 12);
        let col = params(dims, Layout::ColumnMajor, homogeneous());
        let row = params(dims, Layout::RowMajor, homogeneous());
        let kc = VelUpdate { comp: 0, kname: "vel_vx", p: Arc::new(col) };
        let kr = VelUpdate { comp: 0, kname: "vel_vx", p: Arc::new(row) };
        assert!(kc.cost().traits.coalescing < kr.cost().traits.coalescing);
    }

    /// `(layout, medium, (nx, ny, nz), one digest per body in [`bodies`]
    /// order)`.
    type BodyRow = (&'static str, &'static str, (usize, usize, usize), [u64; 19]);

    /// Printed by [`every_body_is_pinned_on_seeded_fields`] against the
    /// bodies of commit c73c385, the parent of the change that made them walk
    /// affine runs (its `params` spelled the struct literal, and the body
    /// list sat in `FdmApp::new`). Never regenerate these from the current
    /// code; they must read the same in debug and release builds.
    #[rustfmt::skip]
    const PINNED_BODIES: &[BodyRow] = &[
    ("col", "homogeneous", (12, 11, 10), [
        0xa130_9eb8_a0dd_b1f0, 0xa469_e1e6_5ef6_5bb9, 0x7ea4_9de4_47c4_463c, 0x0986_c433_f9fa_b75a, 0xa7f3_5c73_3e02_7941,
        0x3d13_ecc1_9bb1_436b, 0x954d_e9be_ca8d_1545, 0x3585_af84_112e_da14, 0x5f46_e003_4d67_119b, 0xaf31_1f02_eb0f_96f6,
        0xb85a_f5a5_900e_3724, 0x22e7_fcf6_0965_6ec9, 0xe2c7_751f_27e4_f9bf, 0x661d_84e4_181a_23ad, 0x136f_351c_7a3a_0b7b,
        0xff37_8969_7cfb_7007, 0xc864_de29_cb8e_01ab, 0xcf43_95e3_625a_0473, 0xe24e_c5a0_282f_a14d,
    ]),
    ("col", "two_layer(6)", (12, 11, 10), [
        0xa66c_439c_2493_a38e, 0x1513_7d97_fc53_8348, 0xb6c0_4feb_bf9a_c8da, 0x0986_c433_f9fa_b75a, 0x242c_ebaa_d0ef_acb0,
        0x76c2_34cb_4a7e_8834, 0xb122_ca09_7186_02a4, 0x9fc5_f257_8de0_075c, 0x5a73_7d17_d543_6ee0, 0xe039_828e_5e7e_4009,
        0xb85a_f5a5_900e_3724, 0x22e7_fcf6_0965_6ec9, 0xe2c7_751f_27e4_f9bf, 0x661d_84e4_181a_23ad, 0x136f_351c_7a3a_0b7b,
        0xff37_8969_7cfb_7007, 0xc864_de29_cb8e_01ab, 0xcf43_95e3_625a_0473, 0xe24e_c5a0_282f_a14d,
    ]),
    ("row", "homogeneous", (12, 11, 10), [
        0xd0f4_540d_bf84_fecd, 0x6208_18b5_d6ee_e310, 0x90e4_8b84_1921_1b6b, 0xff4a_38cd_596e_4e62, 0x6af3_6978_75b6_5b32,
        0x852d_0c7e_1b72_2c03, 0xb504_cab2_2504_f89d, 0x6218_4d25_b6ed_fdbf, 0x44eb_8e6f_ea09_3247, 0x4058_2dc1_4da9_abfc,
        0x50bc_ba56_622f_e0bb, 0x7719_dceb_6e03_6a6b, 0xb429_0f4e_4515_0599, 0xce58_4648_7e9e_d174, 0x136f_351c_7a3a_0b7b,
        0x668a_f794_b9a5_ebc3, 0xc04d_2923_731f_4076, 0xfafc_381e_71ed_773d, 0x1de3_1a09_6c92_2d7c,
    ]),
    ("row", "two_layer(6)", (12, 11, 10), [
        0x565f_a746_1da9_048a, 0x9af7_94ea_b30e_098e, 0xc7cd_3779_16f5_e16a, 0xff4a_38cd_596e_4e62, 0xb5d6_2731_f513_6d6f,
        0x47f9_c189_d2fe_f935, 0x2a4d_3e91_3562_adaa, 0xf751_a7dd_b565_59d4, 0x82eb_895a_b62f_60f0, 0x1056_7614_991e_9dc5,
        0x50bc_ba56_622f_e0bb, 0x7719_dceb_6e03_6a6b, 0xb429_0f4e_4515_0599, 0xce58_4648_7e9e_d174, 0x136f_351c_7a3a_0b7b,
        0x668a_f794_b9a5_ebc3, 0xc04d_2923_731f_4076, 0xfafc_381e_71ed_773d, 0x1de3_1a09_6c92_2d7c,
    ]),
    ("col", "homogeneous", (5, 2, 1), [
        0x3b95_005d_2879_c81d, 0x693a_0961_9f6f_4db2, 0xd90d_8c43_af9b_46d6, 0xc032_77ca_1bbe_5c0a, 0x50fa_8f9e_398e_0506,
        0x1dc4_fcb1_46dd_ea7c, 0xc05a_d163_967d_53b1, 0xfd53_0a2c_f2d9_9322, 0x5856_f0c6_73d1_4570, 0x5b64_98bf_bdbf_3b88,
        0x811e_371f_6dcc_544c, 0x5100_8fb1_2b80_6e1e, 0xbc3a_18fb_1707_5b13, 0xe7f6_c4b0_9523_c5e5, 0xddfb_d778_42b9_cc6e,
        0xfdbe_a3d2_1169_56d0, 0xa198_3243_adbc_f317, 0x426e_0bc0_0167_50a1, 0xca1b_fdd5_8e70_46d2,
    ]),
    ("col", "two_layer(6)", (5, 2, 1), [
        0x3b95_005d_2879_c81d, 0x693a_0961_9f6f_4db2, 0xd90d_8c43_af9b_46d6, 0xc032_77ca_1bbe_5c0a, 0x50fa_8f9e_398e_0506,
        0x1dc4_fcb1_46dd_ea7c, 0xc05a_d163_967d_53b1, 0xfd53_0a2c_f2d9_9322, 0x5856_f0c6_73d1_4570, 0x5b64_98bf_bdbf_3b88,
        0x811e_371f_6dcc_544c, 0x5100_8fb1_2b80_6e1e, 0xbc3a_18fb_1707_5b13, 0xe7f6_c4b0_9523_c5e5, 0xddfb_d778_42b9_cc6e,
        0xfdbe_a3d2_1169_56d0, 0xa198_3243_adbc_f317, 0x426e_0bc0_0167_50a1, 0xca1b_fdd5_8e70_46d2,
    ]),
    ("row", "homogeneous", (5, 2, 1), [
        0xa57b_6cc5_0ee5_c900, 0x9513_7530_a37e_2ddf, 0x27de_b5a0_60ed_3f7d, 0xc032_77ca_1bbe_5c0a, 0x8347_19d3_3227_d8eb,
        0x84a5_5fc8_f67f_9930, 0xfd81_28f3_2f6f_850e, 0x6faa_7943_0e9a_0e47, 0x3c3b_9e52_f92a_70c4, 0x44c8_bf50_cfd3_730a,
        0x811e_371f_6dcc_544c, 0x5100_8fb1_2b80_6e1e, 0xa380_a039_460e_e4fc, 0xe7f6_c4b0_9523_c5e5, 0xddfb_d778_42b9_cc6e,
        0x78f8_1768_eb1c_af57, 0xf54a_0f1a_f1ee_2979, 0x426e_0bc0_0167_50a1, 0xca1b_fdd5_8e70_46d2,
    ]),
    ("row", "two_layer(6)", (5, 2, 1), [
        0xa57b_6cc5_0ee5_c900, 0x9513_7530_a37e_2ddf, 0x27de_b5a0_60ed_3f7d, 0xc032_77ca_1bbe_5c0a, 0x8347_19d3_3227_d8eb,
        0x84a5_5fc8_f67f_9930, 0xfd81_28f3_2f6f_850e, 0x6faa_7943_0e9a_0e47, 0x3c3b_9e52_f92a_70c4, 0x44c8_bf50_cfd3_730a,
        0x811e_371f_6dcc_544c, 0x5100_8fb1_2b80_6e1e, 0xa380_a039_460e_e4fc, 0xe7f6_c4b0_9523_c5e5, 0xddfb_d778_42b9_cc6e,
        0x78f8_1768_eb1c_af57, 0xf54a_0f1a_f1ee_2979, 0x426e_0bc0_0167_50a1, 0xca1b_fdd5_8e70_46d2,
    ]),
    ("col", "homogeneous", (1, 3, 4), [
        0xd582_c3b1_d8c4_27ca, 0x48e6_77df_ec81_a6a1, 0x141a_540a_204e_1b5f, 0xd532_3809_ed44_6bd2, 0x83e3_46c3_7f41_4832,
        0xa8c2_2d72_fa06_6892, 0xae7a_cd81_ab3f_2848, 0xce38_dc1f_7742_6256, 0x3498_db50_c9bd_51c4, 0x49c5_6a32_038e_48ef,
        0x5609_87a4_a276_2574, 0x969b_732f_72fa_bb55, 0x3108_867b_7f66_4b00, 0xc98d_2553_474b_3a40, 0xc90e_85d6_3ebd_459f,
        0x95c0_7d04_fbb0_9f6d, 0x96e8_5083_559a_1522, 0xc6ed_5421_f852_cc99, 0x4578_4a67_002e_f8d0,
    ]),
    ("col", "two_layer(6)", (1, 3, 4), [
        0xd582_c3b1_d8c4_27ca, 0x48e6_77df_ec81_a6a1, 0x141a_540a_204e_1b5f, 0xd532_3809_ed44_6bd2, 0x83e3_46c3_7f41_4832,
        0xa8c2_2d72_fa06_6892, 0xae7a_cd81_ab3f_2848, 0xce38_dc1f_7742_6256, 0x3498_db50_c9bd_51c4, 0x49c5_6a32_038e_48ef,
        0x5609_87a4_a276_2574, 0x969b_732f_72fa_bb55, 0x3108_867b_7f66_4b00, 0xc98d_2553_474b_3a40, 0xc90e_85d6_3ebd_459f,
        0x95c0_7d04_fbb0_9f6d, 0x96e8_5083_559a_1522, 0xc6ed_5421_f852_cc99, 0x4578_4a67_002e_f8d0,
    ]),
    ("row", "homogeneous", (1, 3, 4), [
        0xe059_5371_f546_572e, 0xbcfd_1e5d_a026_0b57, 0xcd0e_22dd_b476_8c7e, 0xd532_3809_ed44_6bd2, 0xd593_5cc9_9c33_24bb,
        0xa046_4338_faec_5e0d, 0xa2cf_a7c3_7249_dbf7, 0x6f3b_b7a1_998f_2960, 0x4e5e_29ce_5ba7_017a, 0x8924_2f36_6796_834d,
        0x5609_87a4_a276_2574, 0x969b_732f_72fa_bb55, 0xbe7f_4416_f417_81fc, 0xb54d_52ae_21a5_5d16, 0xc90e_85d6_3ebd_459f,
        0x95c0_7d04_fbb0_9f6d, 0x96e8_5083_559a_1522, 0x8355_b190_0fb0_1cb6, 0x7b07_d17f_d67a_09bd,
    ]),
    ("row", "two_layer(6)", (1, 3, 4), [
        0xe059_5371_f546_572e, 0xbcfd_1e5d_a026_0b57, 0xcd0e_22dd_b476_8c7e, 0xd532_3809_ed44_6bd2, 0xd593_5cc9_9c33_24bb,
        0xa046_4338_faec_5e0d, 0xa2cf_a7c3_7249_dbf7, 0x6f3b_b7a1_998f_2960, 0x4e5e_29ce_5ba7_017a, 0x8924_2f36_6796_834d,
        0x5609_87a4_a276_2574, 0x969b_732f_72fa_bb55, 0xbe7f_4416_f417_81fc, 0xb54d_52ae_21a5_5d16, 0xc90e_85d6_3ebd_459f,
        0x95c0_7d04_fbb0_9f6d, 0x96e8_5083_559a_1522, 0x8355_b190_0fb0_1cb6, 0x7b07_d17f_d67a_09bd,
    ]),
    ("col", "homogeneous", (2, 1, 9), [
        0x603e_016d_bd5d_3008, 0xa590_6ea2_65e5_99c3, 0x9fe6_cdd7_638f_675e, 0x8eed_3322_315e_d6b7, 0x9581_274e_6d4c_50d7,
        0x058f_2da2_fdcb_6549, 0xb782_6aa3_89eb_b1ac, 0xca28_e61f_5f31_9c29, 0xd9b2_468d_c901_30b9, 0xb41d_dba1_2c61_0f75,
        0xd403_b63e_e44a_6cd2, 0x0153_e117_9869_fa3b, 0x5a6b_65ba_7180_8ce1, 0x4d5f_f612_d971_5da3, 0xdea5_2381_f5f1_0e89,
        0x4fae_22e9_2a45_b67e, 0x85b9_b793_9a72_4d4f, 0x5333_d3fb_78f1_cb56, 0x3c24_58cf_9331_a581,
    ]),
    ("col", "two_layer(6)", (2, 1, 9), [
        0xabec_29a5_f487_8170, 0x2f29_ef59_5678_480b, 0xd951_56b7_5b11_3dbd, 0x8eed_3322_315e_d6b7, 0xe5cd_e572_e056_381b,
        0x5221_430b_e858_c8e1, 0xb4b6_f023_1a07_27e9, 0x5897_a8e6_92f6_4f5b, 0x5075_e1d9_69f8_d0c4, 0x9b93_fa19_7879_cffa,
        0xd403_b63e_e44a_6cd2, 0x0153_e117_9869_fa3b, 0x5a6b_65ba_7180_8ce1, 0x4d5f_f612_d971_5da3, 0xdea5_2381_f5f1_0e89,
        0x4fae_22e9_2a45_b67e, 0x85b9_b793_9a72_4d4f, 0x5333_d3fb_78f1_cb56, 0x3c24_58cf_9331_a581,
    ]),
    ("row", "homogeneous", (2, 1, 9), [
        0x1ad6_e018_4bd9_16a8, 0xc827_803d_e99b_171f, 0x6dff_933f_fdca_0fb2, 0x8eed_3322_315e_d6b7, 0xc7ec_eca7_36e9_81be,
        0x0417_e30f_1a80_30bd, 0xe1aa_4cc0_90f9_5be0, 0xe28a_71f9_f817_e4b4, 0x9f7c_b3be_f590_d4fa, 0x5ec0_ec68_6ce4_4ce2,
        0xd403_b63e_e44a_6cd2, 0x0153_e117_9869_fa3b, 0x2ce6_3451_12e2_460b, 0x5a45_1bdb_c56d_d70e, 0xdea5_2381_f5f1_0e89,
        0x267c_8ec2_c995_4824, 0xa1b1_cade_dfb3_cc6f, 0x5333_d3fb_78f1_cb56, 0x3c24_58cf_9331_a581,
    ]),
    ("row", "two_layer(6)", (2, 1, 9), [
        0x0854_a9cf_76a4_d712, 0xdab3_ea58_e84e_69c4, 0x0f98_d1f1_0140_3dde, 0x8eed_3322_315e_d6b7, 0x9bc8_00ac_e163_297d,
        0x835a_ae41_1df7_8898, 0xee70_6ccc_8e63_24a6, 0xa939_6dce_f7be_17ea, 0xdb5f_b728_ab67_a277, 0xc636_5d92_a2a0_49b6,
        0xd403_b63e_e44a_6cd2, 0x0153_e117_9869_fa3b, 0x2ce6_3451_12e2_460b, 0x5a45_1bdb_c56d_d70e, 0xdea5_2381_f5f1_0e89,
        0x267c_8ec2_c995_4824, 0xa1b1_cade_dfb3_cc6f, 0x5333_d3fb_78f1_cb56, 0x3c24_58cf_9331_a581,
    ]),
    ];

    fn fnv1a(h: u64, state: &[f64]) -> u64 {
        state
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    }

    /// One launch of body `b` over buffers filled, in argument order, from
    /// one stream seeded with `seed`: the digest of every buffer argument
    /// afterwards, in argument order.
    fn run_body(p: &Arc<Params>, b: usize, seed: u64) -> u64 {
        let bodies = bodies(p);
        let (name, arity) = (bodies[b].name().to_string(), bodies[b].arity());
        let platform = clrt::Platform::paper_node();
        let ctx = platform.create_context_all().expect("context");
        let queue = ctx.create_queue(platform.node().cpu().expect("a CPU")).expect("queue");
        let program = ctx.create_program(bodies).expect("program");
        program.build(0).expect("build");
        let kernel = program.create_kernel(&name).expect("kernel");
        let cells = p.dims.cells();
        let data = seeded(seed, arity * cells);
        let mut buffers = Vec::new();
        for a in 0..arity {
            if name == "str_source" && a == 3 {
                kernel.set_arg(a, clrt::ArgValue::F64(0.7)).expect("bind t");
                continue;
            }
            let buf = ctx.create_buffer_of::<f64>(cells).expect("buffer");
            queue.enqueue_write(&buf, &data[buffers.len() * cells..][..cells]).expect("write");
            kernel.set_arg(a, clrt::ArgValue::BufferMut(buf.clone())).expect("bind");
            buffers.push(buf);
        }
        queue.enqueue_ndrange(&kernel, clrt::NdRange::d1(cells as u64, 1), &[]).expect("launch");
        queue.finish();
        buffers.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| fnv1a(h, &b.host_snapshot::<f64>()))
    }

    /// Rows the way [`PINNED_BODIES`] spells them.
    fn render(rows: &[BodyRow]) -> String {
        let mut text = String::new();
        for (layout, medium, (nx, ny, nz), digests) in rows {
            text += &format!("    (\"{layout}\", \"{medium}\", ({nx}, {ny}, {nz}), [");
            for (n, d) in digests.iter().enumerate() {
                let h = format!("{d:016x}");
                let sep = if n % 5 == 0 { "\n        " } else { " " };
                text += &format!("{sep}0x{}_{}_{}_{},", &h[..4], &h[4..8], &h[8..12], &h[12..]);
            }
            text += "\n    ]),\n";
        }
        text
    }

    /// Every body, launched once on seeded fields, leaves the buffers it
    /// left before the rewrite — including region 2's own bodies
    /// (`vel_taper`, the absorbing strips), whose fields stay zero in a
    /// whole run and so are not pinned by `tests/bit_identity.rs`. On a
    /// mismatch the message is the whole table as computed, in the
    /// constants' own format.
    #[test]
    fn every_body_is_pinned_on_seeded_fields() {
        let mut computed: Vec<BodyRow> = Vec::new();
        for (nx, ny, nz) in [(12, 11, 10), (5, 2, 1), (1, 3, 4), (2, 1, 9)] {
            for (layout_name, layout) in [("col", Layout::ColumnMajor), ("row", Layout::RowMajor)] {
                for (medium_name, medium) in
                    [("homogeneous", homogeneous()), ("two_layer(6)", Medium::two_layer(6))]
                {
                    let p = Arc::new(params(Dims::new(nx, ny, nz), layout, medium));
                    let digests = std::array::from_fn(|b| run_body(&p, b, 1 + b as u64));
                    computed.push((layout_name, medium_name, (nx, ny, nz), digests));
                }
            }
        }
        assert!(
            computed == PINNED_BODIES,
            "body outputs moved; computed:\n{}pinned:\n{}",
            render(&computed),
            render(PINNED_BODIES)
        );
    }
}
