//! Device micro-benchmarks (SHOC-style), run *inside* the simulator.
//!
//! MultiCL's device profiler (paper §V-A) runs data-bandwidth and
//! instruction-throughput benchmarks once per node configuration and caches
//! the results. Our versions submit real commands to an [`Engine`] and read
//! back the event timestamps — i.e. they *measure* the simulated node the
//! same way SHOC measures a physical one, for data sizes ranging from
//! latency-bound to bandwidth-bound.

use crate::cost::{KernelCostSpec, NdRangeShape};
use crate::device::DeviceId;
use crate::engine::{CommandDesc, CommandKind, Engine};
use crate::json::Json;
use crate::node::NodeConfig;
use crate::time::SimDuration;
use crate::topology::TransferKind;
use std::sync::Arc;

/// Transfer sizes swept by the bandwidth benchmarks: 1 KiB (latency-bound)
/// through 256 MiB (bandwidth-bound), in powers of four.
pub const BANDWIDTH_SIZES: [u64; 10] =
    [1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24, 1 << 26, 1 << 28];

/// One measured (size → effective GB/s) curve.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BandwidthCurve {
    sizes: Vec<u64>,
    gbs: Vec<f64>,
    /// `log2` of each size — the interpolation grid, computed once here
    /// rather than on every [`Self::interpolate_gbs`].
    log2_sizes: Vec<f64>,
}

impl BandwidthCurve {
    /// A curve through `gbs[i]` GB/s at `sizes[i]` bytes, sizes ascending.
    pub fn new(sizes: Vec<u64>, gbs: Vec<f64>) -> BandwidthCurve {
        assert_eq!(sizes.len(), gbs.len(), "one bandwidth per size");
        let log2_sizes = sizes.iter().map(|&s| (s as f64).log2()).collect();
        BandwidthCurve { sizes, gbs, log2_sizes }
    }

    /// Transfer sizes in bytes, ascending.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Effective bandwidth at each size, GB/s.
    pub fn gbs(&self) -> &[f64] {
        &self.gbs
    }

    /// Encode as a JSON object `{"sizes":[...],"gbs":[...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("sizes", Json::num_arr(self.sizes.iter().map(|&s| s as f64))),
            ("gbs", Json::num_arr(self.gbs.iter().copied())),
        ])
    }

    /// Decode from the [`Self::to_json`] representation.
    pub fn from_json(value: &Json) -> Option<BandwidthCurve> {
        let sizes =
            value.get("sizes")?.as_arr()?.iter().map(Json::as_u64).collect::<Option<Vec<u64>>>()?;
        let gbs =
            value.get("gbs")?.as_arr()?.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>()?;
        (sizes.len() == gbs.len()).then(|| BandwidthCurve::new(sizes, gbs))
    }

    /// Effective bandwidth for an arbitrary size by piecewise-linear
    /// interpolation in log2(size) (paper: "bandwidth numbers for unknown
    /// data sizes are computed by using simple interpolation techniques").
    /// Sizes outside the measured range clamp to the nearest endpoint.
    pub fn interpolate_gbs(&self, bytes: u64) -> f64 {
        assert!(!self.sizes.is_empty(), "empty bandwidth curve");
        let x = (bytes.max(1) as f64).log2();
        let xs = &self.log2_sizes;
        if x <= xs[0] {
            return self.gbs[0];
        }
        if x >= *xs.last().unwrap() {
            return *self.gbs.last().unwrap();
        }
        let hi = xs.partition_point(|&v| v < x);
        let lo = hi - 1;
        let t = (x - xs[lo]) / (xs[hi] - xs[lo]);
        self.gbs[lo] + t * (self.gbs[hi] - self.gbs[lo])
    }

    /// Predicted transfer time for `bytes` using the interpolated bandwidth.
    pub fn predict_time(&self, bytes: u64) -> SimDuration {
        let gbs = self.interpolate_gbs(bytes);
        if gbs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / (gbs * 1e9))
    }
}

/// Measure the host↔device bandwidth curve for `dev` by timing transfers.
///
/// The engine's clock advances; callers normally use a scratch engine.
pub fn measure_host_bandwidth(
    engine: &mut Engine,
    node: &NodeConfig,
    dev: DeviceId,
) -> BandwidthCurve {
    let mut gbs = Vec::with_capacity(BANDWIDTH_SIZES.len());
    for &bytes in &BANDWIDTH_SIZES {
        let duration = node.topology.host_transfer_time(dev, bytes, &node.devices);
        let ev = engine.submit(CommandDesc {
            device: dev,
            kind: CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes },
            duration,
            waits: crate::waitlist::WaitList::new(),
            queue: usize::MAX,
        });
        engine.wait(ev);
        let measured = engine.stamp(ev).duration();
        gbs.push(bytes as f64 / measured.as_secs_f64().max(1e-12) / 1e9);
    }
    BandwidthCurve::new(BANDWIDTH_SIZES.to_vec(), gbs)
}

/// Measure the device→device bandwidth curve for the pair `(src, dst)`.
pub fn measure_d2d_bandwidth(
    engine: &mut Engine,
    node: &NodeConfig,
    src: DeviceId,
    dst: DeviceId,
) -> BandwidthCurve {
    let mut gbs = Vec::with_capacity(BANDWIDTH_SIZES.len());
    for &bytes in &BANDWIDTH_SIZES {
        let duration = node.topology.device_transfer_time(src, dst, bytes, &node.devices);
        let ev = engine.submit(CommandDesc {
            device: dst,
            kind: CommandKind::Transfer { kind: TransferKind::DeviceToDevice, bytes },
            duration,
            waits: crate::waitlist::WaitList::new(),
            queue: usize::MAX,
        });
        engine.wait(ev);
        let measured = engine.stamp(ev).duration();
        gbs.push(bytes as f64 / measured.as_secs_f64().max(1e-12) / 1e9);
    }
    BandwidthCurve::new(BANDWIDTH_SIZES.to_vec(), gbs)
}

/// Measure sustained instruction throughput (GFLOP/s) of `dev` with a
/// MaxFlops-style synthetic kernel: wide, coalesced, divergence-free FMA
/// chains.
pub fn measure_instruction_throughput(
    engine: &mut Engine,
    node: &NodeConfig,
    dev: DeviceId,
    double_precision: bool,
) -> f64 {
    let mut traits = crate::cost::KernelTraits::IDEAL;
    traits.double_precision = double_precision;
    let spec = KernelCostSpec { flops_per_item: 4096.0, bytes_per_item: 4.0, traits };
    let nd = NdRangeShape::new(1 << 22, 256);
    let duration = spec.kernel_time(node.spec(dev), nd);
    let ev = engine.submit(CommandDesc {
        device: dev,
        kind: CommandKind::Kernel { name: Arc::from("shoc_maxflops") },
        duration,
        waits: crate::waitlist::WaitList::new(),
        queue: usize::MAX,
    });
    engine.wait(ev);
    let t = engine.stamp(ev).duration().as_secs_f64().max(1e-12);
    spec.total_flops(nd) / t / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Engine, NodeConfig) {
        let node = NodeConfig::paper_node();
        let engine = Engine::new(node.device_count());
        (engine, node)
    }

    #[test]
    fn host_bandwidth_curve_rises_with_size() {
        let (mut e, node) = setup();
        let gpu = node.gpus()[0];
        let curve = measure_host_bandwidth(&mut e, &node, gpu);
        assert_eq!(curve.sizes.len(), BANDWIDTH_SIZES.len());
        assert!(curve.gbs.first().unwrap() < curve.gbs.last().unwrap());
        // Large transfers should approach but not exceed the link peak
        // (PCIe gen2, derated for the cross-socket hop: 6 * 0.75 = 4.5 GB/s).
        let peak = *curve.gbs.last().unwrap();
        assert!(peak > 3.5 && peak <= 4.5 + 1e-9, "peak={peak}");
    }

    #[test]
    fn interpolation_brackets_measured_points() {
        let (mut e, node) = setup();
        let gpu = node.gpus()[0];
        let curve = measure_host_bandwidth(&mut e, &node, gpu);
        // Exactly at a measured size: must match the measurement.
        let idx = 4;
        let at = curve.interpolate_gbs(curve.sizes[idx]);
        assert!((at - curve.gbs[idx]).abs() < 1e-9);
        // Between two sizes: must lie between the two measurements.
        let mid = (curve.sizes[4] + curve.sizes[5]) / 2;
        let v = curve.interpolate_gbs(mid);
        let (lo, hi) = (curve.gbs[4].min(curve.gbs[5]), curve.gbs[4].max(curve.gbs[5]));
        assert!(v >= lo && v <= hi, "{lo} <= {v} <= {hi}");
    }

    #[test]
    fn interpolation_clamps_out_of_range() {
        let curve = BandwidthCurve::new(vec![1024, 4096], vec![1.0, 4.0]);
        assert_eq!(curve.interpolate_gbs(1), 1.0);
        assert_eq!(curve.interpolate_gbs(1 << 30), 4.0);
    }

    #[test]
    fn d2d_is_slower_than_h2d() {
        let (mut e, node) = setup();
        let (g0, g1) = (node.gpus()[0], node.gpus()[1]);
        let h2d = measure_host_bandwidth(&mut e, &node, g0);
        let d2d = measure_d2d_bandwidth(&mut e, &node, g0, g1);
        // Staging through the host halves the effective bandwidth.
        assert!(d2d.gbs.last().unwrap() < h2d.gbs.last().unwrap());
    }

    #[test]
    fn gpu_instruction_throughput_beats_cpu() {
        let (mut e, node) = setup();
        let cpu = node.cpu().unwrap();
        let gpu = node.gpus()[0];
        let tc = measure_instruction_throughput(&mut e, &node, cpu, false);
        let tg = measure_instruction_throughput(&mut e, &node, gpu, false);
        assert!(tg > tc, "gpu={tg} cpu={tc}");
        // Sanity: measured throughput cannot exceed the spec peak.
        assert!(tg <= node.spec(gpu).peak_gflops + 1e-6);
    }

    #[test]
    fn predict_time_roundtrips_measured_bandwidth() {
        let (mut e, node) = setup();
        let gpu = node.gpus()[0];
        let curve = measure_host_bandwidth(&mut e, &node, gpu);
        let bytes = 1 << 24;
        let predicted = curve.predict_time(bytes);
        let actual = node.topology.host_transfer_time(gpu, bytes, &node.devices);
        let err = (predicted.as_secs_f64() - actual.as_secs_f64()).abs() / actual.as_secs_f64();
        assert!(err < 0.05, "prediction error {err}");
    }
}
