//! The two-region FDM-Seismology application driver.

use crate::grid::{Dims, Layout};
use crate::kernels::{
    bodies, AbsorbStripArgs, AttenuateArgs, FreeSurfaceArgs, Params, SourceInjectArgs,
    StressNormalArgs, StressShearArgs, StressTaperArgs, VelTaperArgs, VelUpdateArgs,
};
use clrt::error::{ClError, ClResult};
use clrt::{Buffer, Kernel, NdRange};
use hwsim::{DeviceId, SimDuration};
use multicl::{MulticlContext, QueueSchedFlags, SchedQueue};
use std::sync::Arc;

/// How the two region queues are created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdmPlan {
    /// Automatic scheduling with the paper's choice for this app:
    /// `SCHED_AUTO_DYNAMIC | SCHED_KERNEL_EPOCH` (§VI-B2).
    Auto,
    /// Automatic scheduling with custom flags.
    AutoWith(QueueSchedFlags),
    /// Manual static mapping: `(region-1 device, region-2 device)` — the
    /// nine Figure 9 baselines.
    Manual(DeviceId, DeviceId),
}

/// Application configuration.
#[derive(Debug, Clone)]
pub struct FdmConfig {
    /// Grid dimensions of each region.
    pub dims: Dims,
    /// Memory layout variant (the paper's two code versions).
    pub layout: Layout,
    /// Number of velocity+stress iterations.
    pub iterations: usize,
    /// Receiver positions in region 1 (grid coordinates); the vertical
    /// velocity `vz` is sampled there after every iteration, producing the
    /// seismograms a real survey records.
    pub receivers: Vec<(usize, usize, usize)>,
    /// The elastic medium (homogeneous by default; layered models mirror
    /// DISFD's Earth-velocity-structure input).
    pub medium: crate::medium::Medium,
}

impl Default for FdmConfig {
    fn default() -> Self {
        // Large enough that a kernel fills the GPU (≥ 14 SMs × 8 workgroups
        // of 64 items); tiny grids are launch-overhead-bound and favour the
        // CPU on any layout, which is realistic but not the paper's regime.
        FdmConfig {
            dims: Dims::new(32, 32, 16),
            layout: Layout::ColumnMajor,
            iterations: 5,
            receivers: Vec::new(),
            medium: crate::medium::Medium::homogeneous(1.0, 1.0, 1.0),
        }
    }
}

/// Virtual time spent in one iteration's two epochs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterTime {
    /// Velocity-phase makespan (including any profiling that iteration).
    pub velocity: SimDuration,
    /// Stress-phase makespan.
    pub stress: SimDuration,
}

impl IterTime {
    /// Total iteration time.
    pub fn total(&self) -> SimDuration {
        self.velocity + self.stress
    }
}

/// One region's wavefield: three velocity and six stress components.
struct Fields {
    vx: Buffer,
    vy: Buffer,
    vz: Buffer,
    sxx: Buffer,
    syy: Buffer,
    szz: Buffer,
    sxy: Buffer,
    sxz: Buffer,
    syz: Buffer,
}

impl Fields {
    /// Every component, in [`FdmApp::field`]'s numbering.
    fn all(&self) -> [&Buffer; 9] {
        let Fields { vx, vy, vz, sxx, syy, szz, sxy, sxz, syz } = self;
        [vx, vy, vz, sxx, syy, szz, sxy, sxz, syz]
    }
}

struct Region {
    fields: Fields,
    vel_kernels: Vec<Kernel>,
    stress_kernels: Vec<Kernel>,
    /// The source kernel (region 1 only) — [`FdmApp::step`] binds it, its
    /// time argument being the step's.
    source: Option<Kernel>,
}

/// A recorded waveform: one `vz` sample per iteration at one receiver.
#[derive(Debug, Clone, Default)]
pub struct Seismogram {
    /// Receiver grid position.
    pub position: (usize, usize, usize),
    /// `vz` at the receiver after each completed iteration.
    pub samples: Vec<f64>,
}

impl Seismogram {
    /// Index of the first sample whose magnitude exceeds `threshold` — the
    /// wave's arrival time in iterations, if it arrived.
    pub fn arrival(&self, threshold: f64) -> Option<usize> {
        self.samples.iter().position(|v| v.abs() > threshold)
    }

    /// Peak absolute amplitude over the recording.
    pub fn peak(&self) -> f64 {
        self.samples.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

/// The FDM-Seismology application: two independent wavefield regions on two
/// command queues.
pub struct FdmApp {
    queues: [SchedQueue; 2],
    regions: [Region; 2],
    params: Arc<Params>,
    cfg: FdmConfig,
    iter_times: Vec<IterTime>,
    seismograms: Vec<Seismogram>,
    ctx: MulticlContext,
    step: usize,
}

impl FdmApp {
    /// Build the application. A grid with a zero extent, or a receiver
    /// outside the grid, is `InvalidValue`.
    pub fn new(ctx: &MulticlContext, cfg: FdmConfig, plan: &FdmPlan) -> ClResult<FdmApp> {
        let d = cfg.dims;
        if let Some(&(i, j, k)) =
            cfg.receivers.iter().find(|r| r.0 >= d.nx || r.1 >= d.ny || r.2 >= d.nz)
        {
            return Err(ClError::InvalidValue(format!(
                "receiver ({i}, {j}, {k}) lies outside the {}x{}x{} grid",
                d.nx, d.ny, d.nz
            )));
        }
        let params = Arc::new(Params::new(cfg.dims, cfg.layout, &cfg.medium));
        let queues = match plan {
            FdmPlan::Auto => {
                let flags =
                    QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_KERNEL_EPOCH;
                [ctx.create_queue(flags)?, ctx.create_queue(flags)?]
            }
            FdmPlan::AutoWith(flags) => [ctx.create_queue(*flags)?, ctx.create_queue(*flags)?],
            FdmPlan::Manual(d1, d2) => [ctx.create_queue_on(*d1)?, ctx.create_queue_on(*d2)?],
        };
        // One program serves both regions (same kernel bodies and params).
        let program = ctx.create_program(bodies(&params))?;
        let cells = cfg.dims.cells();
        let zeros = vec![0.0f64; cells];

        let region = |ri: usize| -> ClResult<Region> {
            let q = &queues[ri];
            let field = || ctx.create_buffer_of::<f64>(cells);
            let fields = Fields {
                vx: field()?,
                vy: field()?,
                vz: field()?,
                sxx: field()?,
                syy: field()?,
                szz: field()?,
                sxy: field()?,
                sxz: field()?,
                syz: field()?,
            };
            // Fields start at zero (quiescent medium); make them resident
            // on the queue's initial device like the real app's setup phase.
            for f in fields.all() {
                q.enqueue_write(f, &zeros)?;
            }
            let Fields { vx, vy, vz, sxx, syy, szz, sxy, sxz, syz } = &fields;

            // --- Velocity phase kernels ---
            let mut vel_kernels = Vec::new();
            for (v, name) in [(vx, "vel_vx"), (vy, "vel_vy"), (vz, "vel_vz")] {
                let k = program.create_kernel(name)?;
                VelUpdateArgs { sxx, syy, szz, sxy, sxz, syz, v }.bind(&k)?;
                vel_kernels.push(k);
            }
            if ri == 1 {
                // Region 2's fourth velocity kernel (paper: 3 + 4 = 7).
                let k = program.create_kernel("vel_taper")?;
                VelTaperArgs { vx, vy, vz }.bind(&k)?;
                vel_kernels.push(k);
            }

            // --- Stress phase kernels ---
            let mut stress_kernels = Vec::new();
            for (s, name) in [(sxx, "str_sxx"), (syy, "str_syy"), (szz, "str_szz")] {
                let k = program.create_kernel(name)?;
                StressNormalArgs { vx, vy, vz, s }.bind(&k)?;
                stress_kernels.push(k);
            }
            for (va, vb, s, name) in
                [(vx, vy, sxy, "str_sxy"), (vx, vz, sxz, "str_sxz"), (vy, vz, syz, "str_syz")]
            {
                let k = program.create_kernel(name)?;
                StressShearArgs { va, vb, s }.bind(&k)?;
                stress_kernels.push(k);
            }
            for (name, [s0, s1, s2]) in
                [("str_taper_n", [sxx, syy, szz]), ("str_taper_s", [sxy, sxz, syz])]
            {
                let k = program.create_kernel(name)?;
                StressTaperArgs { s0, s1, s2 }.bind(&k)?;
                stress_kernels.push(k);
            }
            let free = program.create_kernel("str_free_surface")?;
            FreeSurfaceArgs { szz, sxz, syz }.bind(&free)?;
            stress_kernels.push(free);
            let atten = program.create_kernel("str_atten")?;
            AttenuateArgs { sxx, syy, szz, sxy, sxz, syz }.bind(&atten)?;
            stress_kernels.push(atten);

            let mut source = None;
            if ri == 0 {
                // Region 1 hosts the source (paper: 11 stress kernels).
                source = Some(program.create_kernel("str_source")?);
            } else {
                // Region 2 handles the outer absorbing strips (14 kernels).
                for name in ["str_absorb_xlo", "str_absorb_xhi", "str_absorb_ylo", "str_absorb_yhi"]
                {
                    let k = program.create_kernel(name)?;
                    AbsorbStripArgs { sxx, syy, szz, sxy, sxz, syz }.bind(&k)?;
                    stress_kernels.push(k);
                }
            }
            Ok(Region { fields, vel_kernels, stress_kernels, source })
        };
        let regions = [region(0)?, region(1)?];
        let seismograms = cfg
            .receivers
            .iter()
            .map(|&position| Seismogram { position, samples: Vec::new() })
            .collect();
        Ok(FdmApp {
            queues,
            regions,
            params,
            cfg,
            iter_times: Vec::new(),
            seismograms,
            ctx: ctx.clone(),
            step: 0,
        })
    }

    /// Kernel launches in the velocity / stress phases (7 and 25 across the
    /// two regions, matching the paper).
    pub fn kernel_counts(&self) -> (usize, usize) {
        let vel = self.regions.iter().map(|r| r.vel_kernels.len()).sum();
        let stress = self
            .regions
            .iter()
            .map(|r| r.stress_kernels.len() + usize::from(r.source.is_some()))
            .sum();
        (vel, stress)
    }

    fn nd(&self) -> NdRange {
        NdRange::d1(self.cfg.dims.cells() as u64, 64)
    }

    /// Advance one iteration: a velocity epoch then a stress epoch, each
    /// synchronized across both queues; records the per-phase makespans.
    pub fn step(&mut self) -> ClResult<()> {
        let platform = self.ctx.platform().clone();
        let nd = self.nd();
        let t = self.step as f64 * self.params.dt;

        let t0 = platform.now();
        for (q, r) in self.queues.iter().zip(&self.regions) {
            for k in &r.vel_kernels {
                q.enqueue_ndrange(k, nd)?;
            }
        }
        for q in &self.queues {
            q.finish();
        }
        let t1 = platform.now();
        for (q, r) in self.queues.iter().zip(&self.regions) {
            for k in &r.stress_kernels {
                q.enqueue_ndrange(k, nd)?;
            }
            if let Some(src) = &r.source {
                let Fields { sxx, syy, szz, .. } = &r.fields;
                SourceInjectArgs { sxx, syy, szz, t }.bind(src)?;
                q.enqueue_ndrange(src, NdRange::d1(1, 1))?;
            }
        }
        for q in &self.queues {
            q.finish();
        }
        let t2 = platform.now();
        self.iter_times.push(IterTime { velocity: t1 - t0, stress: t2 - t1 });
        // Sample the receivers (diagnostic data-plane read; a real survey
        // would batch these reads, so no virtual time is charged).
        if !self.seismograms.is_empty() {
            let vz = self.regions[0].fields.vz.host_snapshot::<f64>();
            let d = self.cfg.dims;
            for s in &mut self.seismograms {
                let (i, j, k) = s.position;
                s.samples.push(vz[self.cfg.layout.idx(i, j, k, d)]);
            }
        }
        self.step += 1;
        Ok(())
    }

    /// Run the configured number of iterations.
    pub fn run(&mut self) -> ClResult<()> {
        for _ in 0..self.cfg.iterations {
            self.step()?;
        }
        Ok(())
    }

    /// Per-iteration phase times (Figure 10's series).
    pub fn iteration_times(&self) -> &[IterTime] {
        &self.iter_times
    }

    /// Mean iteration time over all iterations (Figure 9's metric).
    pub fn mean_iteration_time(&self) -> SimDuration {
        if self.iter_times.is_empty() {
            return SimDuration::ZERO;
        }
        let total: SimDuration = self.iter_times.iter().map(IterTime::total).sum();
        total / self.iter_times.len() as u64
    }

    /// Mean iteration time excluding the first (profiling-bearing)
    /// iteration — the steady-state metric.
    pub fn steady_iteration_time(&self) -> SimDuration {
        if self.iter_times.len() <= 1 {
            return self.mean_iteration_time();
        }
        let total: SimDuration = self.iter_times[1..].iter().map(IterTime::total).sum();
        total / (self.iter_times.len() - 1) as u64
    }

    /// Wavefield energy proxy: Σ(v²) + Σ(σ²) over both regions.
    pub fn energy(&self) -> f64 {
        self.regions
            .iter()
            .flat_map(|r| r.fields.all())
            .map(|f| f.host_snapshot::<f64>().iter().map(|v| v * v).sum::<f64>())
            .sum()
    }

    /// True if every field value is finite.
    pub fn is_finite(&self) -> bool {
        self.regions
            .iter()
            .flat_map(|r| r.fields.all())
            .all(|f| f.host_snapshot::<f64>().iter().all(|v| v.is_finite()))
    }

    /// Snapshot of one region's field (testing), numbered from 0 as `vx, vy,
    /// vz, sxx, syy, szz, sxy, sxz, syz`.
    pub fn field(&self, region: usize, field: usize) -> Vec<f64> {
        self.regions[region].fields.all()[field].host_snapshot::<f64>()
    }

    /// Write `values` over one region's field (numbered as in
    /// [`FdmApp::field`]) through that region's queue, as a host-side
    /// update between iterations would.
    pub fn write_field(&self, region: usize, field: usize, values: &[f64]) -> ClResult<()> {
        self.queues[region].enqueue_write(self.regions[region].fields.all()[field], values)
    }

    /// The devices the two queues are currently mapped to.
    pub fn devices(&self) -> (DeviceId, DeviceId) {
        (self.queues[0].device(), self.queues[1].device())
    }

    /// The configuration.
    pub fn config(&self) -> &FdmConfig {
        &self.cfg
    }

    /// Recorded seismograms, one per configured receiver.
    pub fn seismograms(&self) -> &[Seismogram] {
        &self.seismograms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clrt::Platform;
    use multicl::{ContextSchedPolicy, ProfileCache, SchedOptions};

    fn ctx(tag: &str) -> (Platform, MulticlContext) {
        let platform = Platform::paper_node();
        let dir = std::env::temp_dir().join(format!("seismo-test-{tag}-{}", std::process::id()));
        let options =
            SchedOptions { profile_cache: ProfileCache::at(dir), ..SchedOptions::default() };
        let c =
            MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options).unwrap();
        (platform, c)
    }

    fn small(layout: Layout) -> FdmConfig {
        FdmConfig { dims: Dims::new(12, 12, 8), layout, iterations: 4, ..FdmConfig::default() }
    }

    #[test]
    fn kernel_counts_match_the_paper() {
        let (_p, c) = ctx("counts");
        let app = FdmApp::new(&c, small(Layout::ColumnMajor), &FdmPlan::Auto).unwrap();
        assert_eq!(app.kernel_counts(), (7, 25));
    }

    #[test]
    fn a_grid_with_a_zero_extent_is_an_error_not_a_panic() {
        let (_p, c) = ctx("zero-extent");
        for layout in [Layout::ColumnMajor, Layout::RowMajor] {
            for dims in [Dims::new(0, 8, 8), Dims::new(8, 0, 8), Dims::new(8, 8, 0)] {
                let cfg = FdmConfig { dims, ..small(layout) };
                let err = FdmApp::new(&c, cfg, &FdmPlan::Auto).err();
                assert!(matches!(err, Some(ClError::InvalidValue(_))), "{dims:?}: {err:?}");
            }
        }
    }

    #[test]
    fn a_receiver_outside_the_grid_is_refused_in_both_layouts() {
        let (_p, c) = ctx("receivers-outside");
        for layout in [Layout::ColumnMajor, Layout::RowMajor] {
            // Column-major (12, 0, 0) would alias cell (0, 1, 0), row-major
            // (0, 0, 8) cell (0, 1, 0); (11, 11, 8) lies past the last cell.
            for outside in [(12, 0, 0), (0, 12, 0), (0, 0, 8), (11, 11, 8)] {
                let cfg = FdmConfig { receivers: vec![(6, 6, 4), outside], ..small(layout) };
                let err = FdmApp::new(&c, cfg, &FdmPlan::Auto).err();
                assert!(matches!(err, Some(ClError::InvalidValue(_))), "{layout:?} {outside:?}");
            }
            // The last cell is inside.
            let cfg = FdmConfig { receivers: vec![(11, 11, 7)], ..small(layout) };
            let mut app = FdmApp::new(&c, cfg, &FdmPlan::Auto).unwrap();
            app.step().unwrap();
            assert_eq!(app.seismograms()[0].samples.len(), 1);
        }
    }

    #[test]
    fn source_injects_energy_and_fields_stay_finite() {
        let (p, c) = ctx("energy");
        let cpu = p.node().cpu().unwrap();
        let mut app =
            FdmApp::new(&c, small(Layout::ColumnMajor), &FdmPlan::Manual(cpu, cpu)).unwrap();
        assert_eq!(app.energy(), 0.0);
        app.run().unwrap();
        assert!(app.is_finite());
        assert!(app.energy() > 0.0, "source must inject energy into region 1");
    }

    #[test]
    fn wave_propagates_away_from_the_source() {
        let (p, c) = ctx("wave");
        let cpu = p.node().cpu().unwrap();
        let cfg = FdmConfig {
            dims: Dims::new(12, 12, 8),
            layout: Layout::ColumnMajor,
            iterations: 12,
            ..FdmConfig::default()
        };
        let mut app = FdmApp::new(&c, cfg, &FdmPlan::Manual(cpu, cpu)).unwrap();
        app.run().unwrap();
        let vx = app.field(0, 0);
        let nonzero = vx.iter().filter(|v| v.abs() > 1e-12).count();
        assert!(nonzero > 50, "wavefield should spread: {nonzero} cells");
    }

    #[test]
    fn layouts_produce_identical_physics() {
        // The two ports store fields differently but compute identical
        // cell updates; region-1 vx must agree cell-by-cell.
        let (p, c) = ctx("layouts");
        let cpu = p.node().cpu().unwrap();
        let mut col =
            FdmApp::new(&c, small(Layout::ColumnMajor), &FdmPlan::Manual(cpu, cpu)).unwrap();
        col.run().unwrap();
        let mut row = FdmApp::new(&c, small(Layout::RowMajor), &FdmPlan::Manual(cpu, cpu)).unwrap();
        row.run().unwrap();
        let d = col.config().dims;
        let a = col.field(0, 0);
        let b = row.field(0, 0);
        for i in 0..d.nx {
            for j in 0..d.ny {
                for k in 0..d.nz {
                    let va = a[Layout::ColumnMajor.idx(i, j, k, d)];
                    let vb = b[Layout::RowMajor.idx(i, j, k, d)];
                    assert!((va - vb).abs() < 1e-14, "mismatch at ({i},{j},{k})");
                }
            }
        }
    }

    #[test]
    fn column_major_autofit_lands_on_cpu_row_major_on_gpus() {
        // Each code version gets its own context: the kernel-profile cache
        // is keyed by kernel name, and the two layouts share names (they are
        // the same program source) — as separate application runs they never
        // share a runtime in the paper either.
        let full = |layout| FdmConfig { layout, iterations: 3, ..FdmConfig::default() };

        let (p, c) = ctx("fig9-col");
        let cpu = p.node().cpu().unwrap();
        let mut col = FdmApp::new(&c, full(Layout::ColumnMajor), &FdmPlan::Auto).unwrap();
        col.run().unwrap();
        let (d1, d2) = col.devices();
        assert_eq!((d1, d2), (cpu, cpu), "column-major prefers (CPU, CPU)");

        let (p2, c2) = ctx("fig9-row");
        let gpus = p2.node().gpus();
        let mut row = FdmApp::new(&c2, full(Layout::RowMajor), &FdmPlan::Auto).unwrap();
        row.run().unwrap();
        let (d1, d2) = row.devices();
        assert!(
            gpus.contains(&d1) && gpus.contains(&d2) && d1 != d2,
            "row-major prefers the two GPUs, got ({d1}, {d2})"
        );
    }

    #[test]
    fn seismograms_show_travel_time_ordering() {
        // Physics: the wave reaches a near receiver before a far one, and
        // both record nonzero amplitude eventually.
        let (p, c) = ctx("receivers");
        let cpu = p.node().cpu().unwrap();
        let dims = Dims::new(24, 24, 12);
        let near = (14, 12, 6); // 2 cells from the source
        let far = (21, 12, 6); // 9 cells from the source
        let cfg = FdmConfig {
            dims,
            layout: Layout::ColumnMajor,
            iterations: 30,
            receivers: vec![near, far],
            ..FdmConfig::default()
        };
        let mut app = FdmApp::new(&c, cfg, &FdmPlan::Manual(cpu, cpu)).unwrap();
        app.run().unwrap();
        let sg = app.seismograms();
        assert_eq!(sg.len(), 2);
        // First-arrival picking: threshold at 1% of each trace's own peak
        // (the Ricker source ramps smoothly, so absolute thresholds are
        // meaningless early in the ramp).
        let pick = |s: &Seismogram| s.arrival(0.01 * s.peak());
        assert!(sg.iter().all(|s| s.peak() > 0.0), "both receivers record energy");
        let near_arrival = pick(&sg[0]).expect("near receiver records the wave");
        let far_arrival = pick(&sg[1]).expect("far receiver records the wave");
        assert!(
            near_arrival < far_arrival,
            "travel time must increase with distance: near {near_arrival} vs far {far_arrival}"
        );
        assert!(sg[0].peak() > sg[1].peak(), "geometric spreading attenuates the far trace");
    }

    #[test]
    fn layered_medium_changes_the_wavefield_and_stays_stable() {
        let (p, c) = ctx("layered");
        let cpu = p.node().cpu().unwrap();
        let base = FdmConfig {
            dims: Dims::new(16, 16, 12),
            layout: Layout::ColumnMajor,
            iterations: 20,
            ..FdmConfig::default()
        };
        let mut homo = FdmApp::new(&c, base.clone(), &FdmPlan::Manual(cpu, cpu)).unwrap();
        homo.run().unwrap();
        let layered_cfg = FdmConfig { medium: crate::medium::Medium::two_layer(6), ..base };
        let mut layered = FdmApp::new(&c, layered_cfg, &FdmPlan::Manual(cpu, cpu)).unwrap();
        layered.run().unwrap();
        assert!(layered.is_finite(), "layered run must stay stable");
        assert!(layered.energy() > 0.0);
        // The interface reflects/refracts: the wavefields differ.
        let a = homo.field(0, 2);
        let b = layered.field(0, 2);
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-12, "two-layer medium must alter the wavefield");
    }

    #[test]
    fn first_iteration_bears_the_profiling_overhead() {
        let (_p, c) = ctx("amortize");
        let mut app = FdmApp::new(&c, small(Layout::RowMajor), &FdmPlan::Auto).unwrap();
        app.run().unwrap();
        let times = app.iteration_times();
        assert!(
            times[0].total() > times[1].total() * 2,
            "iteration 0 should dominate: {:?}",
            times.iter().map(|t| t.total()).collect::<Vec<_>>()
        );
        // Steady state is stable.
        assert!(times[2].total().ratio(times[1].total()) < 1.5);
    }
}
