//! FT — 3-D FFT-based spectral PDE solver.
//!
//! NPB FT solves `∂u/∂t = α∇²u` spectrally: FFT the initial state once,
//! multiply by Gaussian decay factors each timestep, inverse-FFT, and
//! checksum. The SNU-NPB-MD version distributes the grid among command
//! queues; following the paper's task-parallel structure we give each queue
//! an independent z-slab (grid planes `nz/Q`), so the per-queue data volume
//! *halves as the queue count doubles* — the property Figure 6 sweeps.
//!
//! Kernels: `ft_init` (randdp initial state), `ft_fft_x/y/z` (batched
//! radix-2 passes; y and z are strided, which is what makes a naive GPU
//! port lose), `ft_evolve` (pointwise spectral decay), `ft_checksum`.
//! Table II options: `SCHED_EXPLICIT_REGION` + `clSetKernelWorkGroupInfo`
//! (CPU runs the FFT passes with one line per work-item and local size 1;
//! the GPU configuration uses 64-item workgroups).

use crate::class::Class;
use crate::math::fft_radix2;
use crate::randdp::RanDp;
use crate::suite::{iterate, make_queues, QueuePlan};
use clrt::error::ClResult;
use clrt::{Buffer, In, Kernel, KernelBody, NdRange, Out};
use hwsim::{DeviceType, KernelCostSpec, KernelTraits};
use multicl::{MulticlContext, SchedQueue};
use std::sync::Arc;

/// Timesteps (NPB: 6–25; scaled).
const NITER: usize = 6;
const ALPHA: f64 = 1e-6;

/// Grid dimensions per class (scaled from NPB's 64³…2048²×1024).
pub fn grid(class: Class) -> (usize, usize, usize) {
    match class {
        Class::S => (16, 16, 16),
        Class::W => (32, 32, 16),
        Class::A => (32, 32, 32),
        Class::B => (64, 64, 32),
        Class::C => (64, 64, 64),
        Class::D => (128, 64, 64),
    }
}

/// Deterministic initial condition for one slab: NPB fills `u0` with
/// `randdp` deviates; the seed offset makes queue slabs disjoint streams.
fn fill_initial(data: &mut [f64], seed: u64) {
    let mut rng = RanDp::new(seed);
    for v in data.iter_mut() {
        *v = rng.next_f64() - 0.5;
    }
}

/// Spectral decay factor for mode `(kx,ky,kz)` at timestep `t`.
fn evolve_factor(kx: usize, ky: usize, kz: usize, n: (usize, usize, usize), t: f64) -> f64 {
    let fold = |k: usize, n: usize| -> f64 {
        let s = if k > n / 2 { k as isize - n as isize } else { k as isize };
        (s * s) as f64
    };
    let k2 = fold(kx, n.0) + fold(ky, n.1) + fold(kz, n.2);
    (-4.0 * ALPHA * std::f64::consts::PI * std::f64::consts::PI * k2 * t).exp()
}

/// Serial reference: evolve + inverse 3-D FFT + checksum for one slab.
/// Mirrors exactly what the kernel pipeline computes per timestep.
pub fn reference_step(u_hat: &[f64], dims: (usize, usize, usize), t: f64) -> (f64, f64) {
    let (nx, ny, nz) = dims;
    let mut w = u_hat.to_vec();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let idx = 2 * ((z * ny + y) * nx + x);
                let f = evolve_factor(x, y, z, dims, t);
                w[idx] *= f;
                w[idx + 1] *= f;
            }
        }
    }
    ifft3d(&mut w, dims);
    checksum(&w, dims)
}

/// Forward 3-D FFT in place (x, then y, then z passes).
pub fn fft3d(data: &mut [f64], dims: (usize, usize, usize)) {
    fft_pass_x(data, dims, -1.0);
    fft_pass_y(data, dims, -1.0);
    fft_pass_z(data, dims, -1.0);
}

/// Inverse 3-D FFT in place, normalized.
pub fn ifft3d(data: &mut [f64], dims: (usize, usize, usize)) {
    fft_pass_x(data, dims, 1.0);
    fft_pass_y(data, dims, 1.0);
    fft_pass_z(data, dims, 1.0);
    let scale = 1.0 / (dims.0 * dims.1 * dims.2) as f64;
    for v in data.iter_mut() {
        *v *= scale;
    }
}

fn fft_pass_x(data: &mut [f64], (nx, ny, nz): (usize, usize, usize), sign: f64) {
    let covered = (2 * nx * ny * nz).min(data.len());
    for line in data[..covered].chunks_mut(2 * nx) {
        fft_radix2(line, sign);
    }
}

fn fft_pass_y(data: &mut [f64], (nx, ny, nz): (usize, usize, usize), sign: f64) {
    // Gather strided lines into a scratch, FFT, scatter back.
    let mut line = vec![0.0f64; 2 * ny];
    for z in 0..nz {
        for x in 0..nx {
            for y in 0..ny {
                let idx = 2 * ((z * ny + y) * nx + x);
                line[2 * y] = data[idx];
                line[2 * y + 1] = data[idx + 1];
            }
            fft_radix2(&mut line, sign);
            for y in 0..ny {
                let idx = 2 * ((z * ny + y) * nx + x);
                data[idx] = line[2 * y];
                data[idx + 1] = line[2 * y + 1];
            }
        }
    }
}

fn fft_pass_z(data: &mut [f64], (nx, ny, nz): (usize, usize, usize), sign: f64) {
    let mut line = vec![0.0f64; 2 * nz];
    for y in 0..ny {
        for x in 0..nx {
            for z in 0..nz {
                let idx = 2 * ((z * ny + y) * nx + x);
                line[2 * z] = data[idx];
                line[2 * z + 1] = data[idx + 1];
            }
            fft_radix2(&mut line, sign);
            for z in 0..nz {
                let idx = 2 * ((z * ny + y) * nx + x);
                data[idx] = line[2 * z];
                data[idx + 1] = line[2 * z + 1];
            }
        }
    }
}

/// NPB-style checksum: sum of a strided subset of complex elements.
pub fn checksum(data: &[f64], (nx, ny, nz): (usize, usize, usize)) -> (f64, f64) {
    let total = nx * ny * nz;
    let (mut re, mut im) = (0.0, 0.0);
    for j in 1..=1024.min(total) {
        let q = (j * 17) % total;
        re += data[2 * q];
        im += data[2 * q + 1];
    }
    (re, im)
}

fn fft_traits(coalescing: f64) -> KernelTraits {
    KernelTraits {
        coalescing,
        branch_divergence: 0.1,
        vector_friendliness: 0.5,
        double_precision: true,
    }
}

/// An FFT pass kernel, one per axis: `data`'s lines along that axis are
/// transformed with `sign` (+1 inverse, -1 forward), and a nonzero
/// `normalize` applies the 1/N scale afterwards (the z pass of an inverse
/// transform).
struct FtFft {
    name: &'static str,
    pass: fn(&mut [f64], (usize, usize, usize), f64),
    coalescing: f64,
}
clrt::kernel! {
    impl FtFft as FtFftArgs {
        name: self.name,
        // Per element: 5·log2(axis) flops (butterflies for its share of the
        // pass), one read+write of a complex.
        cost: KernelCostSpec {
            flops_per_item: 5.0 * 8.0,
            bytes_per_item: 32.0,
            traits: fft_traits(self.coalescing),
        },
        fn execute(
            &self, ctx,
            data: Out<f64>, nx: u64, ny: u64, nz: u64, sign: f64, normalize: u64,
        ) {
            let dims = (nx as usize, ny as usize, nz as usize);
            (self.pass)(data, dims, sign);
            if normalize != 0 {
                let scale = 1.0 / (dims.0 * dims.1 * dims.2) as f64;
                for v in data.iter_mut() {
                    *v *= scale;
                }
            }
        }
    }
}

/// `ft_evolve`: w = u_hat ⊙ decay(t).
struct FtEvolve;
clrt::kernel! {
    impl FtEvolve as FtEvolveArgs {
        name: "ft_evolve",
        cost: KernelCostSpec {
            flops_per_item: 20.0,
            bytes_per_item: 32.0,
            traits: KernelTraits {
                coalescing: 0.9,
                branch_divergence: 0.05,
                vector_friendliness: 0.7,
                double_precision: true,
            },
        },
        fn execute(&self, ctx, u_hat: In<f64>, w: Out<f64>, nx: u64, ny: u64, nz: u64, t: f64) {
            let dims = (nx as usize, ny as usize, nz as usize);
            let (nx, ny, nz) = dims;
            for z in 0..nz {
                for y in 0..ny {
                    for x in 0..nx {
                        let idx = 2 * ((z * ny + y) * nx + x);
                        let f = evolve_factor(x, y, z, dims, t);
                        w[idx] = u_hat[idx] * f;
                        w[idx + 1] = u_hat[idx + 1] * f;
                    }
                }
            }
        }
    }
}

/// `ft_checksum`: stores `(re, im)` of timestep `step` into `sums`.
struct FtChecksum;
clrt::kernel! {
    impl FtChecksum as FtChecksumArgs {
        name: "ft_checksum",
        cost: KernelCostSpec {
            flops_per_item: 2.0,
            bytes_per_item: 16.0,
            traits: KernelTraits {
                coalescing: 0.3,
                branch_divergence: 0.1,
                vector_friendliness: 0.4,
                double_precision: true,
            },
        },
        fn execute(&self, ctx, w: In<f64>, sums: Out<f64>, nx: u64, ny: u64, nz: u64, step: u64) {
            let (re, im) = checksum(w, (nx as usize, ny as usize, nz as usize));
            sums[2 * step as usize] = re;
            sums[2 * step as usize + 1] = im;
        }
    }
}

struct FtSlice {
    u0: Vec<f64>,
    dims: (usize, usize, usize),
    buf_u: Buffer,
    buf_w: Buffer,
    sums: Buffer,
    k_fft: [Kernel; 3],
    k_evolve: Kernel,
    k_checksum: Kernel,
}

/// The FT application.
pub struct FtApp {
    queues: Vec<SchedQueue>,
    slices: Vec<FtSlice>,
}

impl FtApp {
    /// Build FT for `class` over `nqueues` queues under `plan`. The global
    /// grid's z extent is split evenly among queues.
    pub fn new(
        ctx: &MulticlContext,
        class: Class,
        nqueues: usize,
        plan: &QueuePlan,
    ) -> ClResult<FtApp> {
        let queues = make_queues(ctx, "FT", plan, nqueues)?;
        let fft = |name, pass, coalescing| -> Arc<dyn KernelBody> {
            Arc::new(FtFft { name, pass, coalescing })
        };
        let program = ctx.create_program(vec![
            fft("ft_fft_x", fft_pass_x, 0.85),
            fft("ft_fft_y", fft_pass_y, 0.25),
            fft("ft_fft_z", fft_pass_z, 0.15),
            Arc::new(FtEvolve),
            Arc::new(FtChecksum),
        ])?;
        let (nx, ny, nz) = grid(class);
        let nz_q = (nz / nqueues).max(1);
        let node = ctx.platform().node().clone();
        let mut slices = Vec::with_capacity(nqueues);
        for (qi, q) in queues.iter().enumerate() {
            let dims = (nx, ny, nz_q);
            let elems = nx * ny * nz_q;
            let mut u0 = vec![0.0f64; 2 * elems];
            fill_initial(&mut u0, 271_828_183 + 100 * qi as u64 + 1);
            // Precompute the spectral state: NPB performs the forward FFT
            // once at startup (outside the timed loop in spirit).
            let mut u_hat = u0.clone();
            fft3d(&mut u_hat, dims);

            let buf_u = ctx.create_buffer_of::<f64>(2 * elems)?;
            let buf_w = ctx.create_buffer_of::<f64>(2 * elems)?;
            let sums = ctx.create_buffer_of::<f64>(2 * NITER)?;
            q.enqueue_write(&buf_u, &u_hat)?;

            let mk = |name: &str| program.create_kernel(name);
            let k_fft = [mk("ft_fft_x")?, mk("ft_fft_y")?, mk("ft_fft_z")?];
            for (axis, k) in k_fft.iter().enumerate() {
                let (nx, ny, nz) = (nx as u64, ny as u64, nz_q as u64);
                // Inverse passes in the loop; the z pass applies the 1/N scale.
                let normalize = u64::from(axis == 2);
                FtFftArgs { data: &buf_w, nx, ny, nz, sign: 1.0, normalize }.bind(k)?;
                // Table II: FT registers device-specific launch geometry.
                for dev in node.device_ids() {
                    let local = match node.spec(dev).device_type {
                        DeviceType::Cpu => 1,
                        _ => 64,
                    };
                    k.set_work_group_info(dev, NdRange::d1(elems as u64, local))?;
                }
            }
            // `enqueue_step` binds these two: a timestep's time is an argument.
            let k_evolve = program.create_kernel("ft_evolve")?;
            let k_checksum = program.create_kernel("ft_checksum")?;
            slices.push(FtSlice { u0, dims, buf_u, buf_w, sums, k_fft, k_evolve, k_checksum });
        }
        Ok(FtApp { queues, slices })
    }

    fn enqueue_step(&self, qi: usize, step: usize) -> ClResult<()> {
        let s = &self.slices[qi];
        let q = &self.queues[qi];
        let elems = (s.dims.0 * s.dims.1 * s.dims.2) as u64;
        let nd = NdRange::d1(elems, 64);
        let (nx, ny, nz) = (s.dims.0 as u64, s.dims.1 as u64, s.dims.2 as u64);
        let (u_hat, w, sums) = (&s.buf_u, &s.buf_w, &s.sums);
        FtEvolveArgs { u_hat, w, nx, ny, nz, t: (step + 1) as f64 }.bind(&s.k_evolve)?;
        q.enqueue_ndrange(&s.k_evolve, nd)?;
        for k in &s.k_fft {
            q.enqueue_ndrange(k, nd)?;
        }
        FtChecksumArgs { w, sums, nx, ny, nz, step: step as u64 }.bind(&s.k_checksum)?;
        q.enqueue_ndrange(&s.k_checksum, nd)?;
        Ok(())
    }

    /// Run `NITER` timesteps; the first is the warmup region.
    pub fn run(&mut self) -> ClResult<()> {
        iterate(&self.queues, NITER, |step, qi| self.enqueue_step(qi, step))
    }

    /// Verify every timestep's checksum against the serial reference.
    pub fn verify(&self) -> bool {
        for s in &self.slices {
            let mut u_hat = s.u0.clone();
            fft3d(&mut u_hat, s.dims);
            let sums = s.sums.host_snapshot::<f64>();
            for step in 0..NITER {
                let (re, im) = reference_step(&u_hat, s.dims, (step + 1) as f64);
                let (gre, gim) = (sums[2 * step], sums[2 * step + 1]);
                let tol = 1e-7 * re.abs().max(1.0);
                if (gre - re).abs() > tol || (gim - im).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Final state of queue `qi`: the last timestep's spatial field followed
    /// by every timestep's `(re, im)` checksum.
    pub fn state(&self, qi: usize) -> Vec<f64> {
        let s = &self.slices[qi];
        [s.buf_w.host_snapshot::<f64>(), s.sums.host_snapshot::<f64>()].concat()
    }

    /// Bytes of spectral state per queue (the Figure 6 x-axis companion).
    pub fn bytes_per_queue(&self) -> u64 {
        self.slices.first().map_or(0, |s| (s.dims.0 * s.dims.1 * s.dims.2 * 16) as u64)
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
        let dir = std::env::temp_dir().join(format!("npb-ft-test-{tag}-{}", std::process::id()));
        let options =
            SchedOptions { profile_cache: ProfileCache::at(dir), ..SchedOptions::default() };
        let c =
            MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options).unwrap();
        (platform, c)
    }

    #[test]
    fn fft3d_roundtrip() {
        let dims = (8, 8, 4);
        let mut data = vec![0.0f64; 2 * 8 * 8 * 4];
        fill_initial(&mut data, 42);
        let orig = data.clone();
        fft3d(&mut data, dims);
        ifft3d(&mut data, dims);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn evolve_factor_is_one_at_t_zero_and_decays() {
        let dims = (16, 16, 16);
        assert_eq!(evolve_factor(3, 5, 7, dims, 0.0), 1.0);
        let f1 = evolve_factor(3, 5, 7, dims, 1.0);
        let f2 = evolve_factor(3, 5, 7, dims, 2.0);
        assert!(f1 < 1.0 && f2 < f1);
        // Negative frequencies fold symmetrically.
        assert_eq!(evolve_factor(1, 0, 0, dims, 1.0), evolve_factor(15, 0, 0, dims, 1.0));
    }

    #[test]
    fn ft_verifies_under_auto_scheduling() {
        let (_p, c) = ctx("auto");
        let mut app = FtApp::new(&c, Class::S, 2, &QueuePlan::Auto).unwrap();
        app.run().unwrap();
        assert!(app.verify());
    }

    #[test]
    fn ft_verifies_manually_on_gpu() {
        let (p, c) = ctx("manual");
        let gpu = p.node().gpus()[0];
        let mut app = FtApp::new(&c, Class::S, 1, &QueuePlan::Manual(vec![gpu])).unwrap();
        app.run().unwrap();
        assert!(app.verify());
    }

    #[test]
    fn per_queue_data_halves_with_queue_count() {
        let (_p, c) = ctx("data-scaling");
        let a1 = FtApp::new(&c, Class::A, 1, &QueuePlan::Auto).unwrap();
        let a2 = FtApp::new(&c, Class::A, 2, &QueuePlan::Auto).unwrap();
        let a4 = FtApp::new(&c, Class::A, 4, &QueuePlan::Auto).unwrap();
        assert_eq!(a1.bytes_per_queue(), 2 * a2.bytes_per_queue());
        assert_eq!(a2.bytes_per_queue(), 2 * a4.bytes_per_queue());
    }

    #[test]
    fn ft_registers_per_device_launch_configs() {
        let (p, c) = ctx("wgi");
        let app = FtApp::new(&c, Class::S, 1, &QueuePlan::Auto).unwrap();
        let cpu = p.node().cpu().unwrap();
        for k in &app.slices[0].k_fft {
            assert!(k.has_work_group_info(cpu));
        }
    }
}
