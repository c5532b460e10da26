//! Node interconnect topology: sockets, PCIe links, and transfer times.
//!
//! The paper's testbed has nonuniform host–device distances: both Tesla C2050
//! GPUs hang off socket 1 while the host thread typically runs on socket 0,
//! so every H2D/D2H transfer from socket 0 crosses the inter-socket
//! HyperTransport link and pays a bandwidth/latency penalty. MultiCL's device
//! profiler measures exactly these (socket, device) bandwidths and the device
//! mapper folds them into its cost metric.
//!
//! Device-to-device transfers go through host memory (one D2H then one H2D),
//! mirroring the paper's observation that cross-vendor direct D2D is
//! unavailable (GPUDirect has "markedly limited OpenCL support").

use crate::device::{DeviceId, DeviceSpec};
use crate::time::SimDuration;

/// A point-to-point link: fixed latency plus a bandwidth-proportional term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Per-transfer fixed cost (driver + DMA setup).
    pub latency: SimDuration,
    /// Asymptotic bandwidth in GB/s.
    pub bandwidth_gbs: f64,
}

impl LinkSpec {
    /// A link with the given latency in microseconds and bandwidth in GB/s.
    pub fn new(latency_us: u64, bandwidth_gbs: f64) -> Self {
        LinkSpec { latency: SimDuration::from_micros(latency_us), bandwidth_gbs }
    }

    /// Time to move `bytes` across this link.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        let wire = SimDuration::from_secs_f64(bytes as f64 / (self.bandwidth_gbs * 1e9));
        self.latency + wire
    }
}

/// Which direction a transfer moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Host memory to device memory.
    HostToDevice,
    /// Device memory to host memory.
    DeviceToHost,
    /// Device to device (staged through the host).
    DeviceToDevice,
}

/// The node's interconnect: per-(socket, device) PCIe links plus the
/// inter-socket penalty.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of CPU sockets.
    pub sockets: usize,
    /// The socket the host (control) thread is pinned to.
    pub host_socket: usize,
    /// Base PCIe link for each device when accessed from its own socket.
    /// Indexed by device id.
    pub device_links: Vec<LinkSpec>,
    /// Multiplicative bandwidth derate when a transfer crosses sockets
    /// (e.g. HyperTransport hop). 1.0 = no penalty.
    pub cross_socket_derate: f64,
    /// Additional latency per cross-socket hop.
    pub cross_socket_latency: SimDuration,
    /// Host memcpy bandwidth (used for host-side staging copies).
    pub host_memcpy: LinkSpec,
}

impl Topology {
    /// Effective link between the host thread (on `host_socket`) and `dev`.
    ///
    /// If the device sits on a different socket than the host thread, the
    /// bandwidth is derated and extra latency added.
    pub fn host_link(&self, dev: DeviceId, specs: &[DeviceSpec]) -> LinkSpec {
        let base = self.device_links[dev.index()];
        let dev_socket = specs[dev.index()].socket;
        match dev_socket {
            // CPU device "transfers" are host-memory copies.
            None => self.host_memcpy,
            Some(s) if s == self.host_socket => base,
            Some(_) => LinkSpec {
                latency: base.latency + self.cross_socket_latency,
                bandwidth_gbs: base.bandwidth_gbs * self.cross_socket_derate,
            },
        }
    }

    /// Time to move `bytes` between host and `dev` in either direction.
    /// H2D and D2H are symmetric in this model (true to within a few percent
    /// on the paper's PCIe gen-2 parts).
    pub fn host_transfer_time(
        &self,
        dev: DeviceId,
        bytes: u64,
        specs: &[DeviceSpec],
    ) -> SimDuration {
        self.host_link(dev, specs).transfer_time(bytes)
    }

    /// Time to move `bytes` from `src` device to `dst` device, staged through
    /// host memory (D2H + H2D). Same-device copies use device memory bandwidth.
    pub fn device_transfer_time(
        &self,
        src: DeviceId,
        dst: DeviceId,
        bytes: u64,
        specs: &[DeviceSpec],
    ) -> SimDuration {
        if src == dst {
            // Intra-device copy at device memory bandwidth (read + write).
            let spec = &specs[src.index()];
            return SimDuration::from_secs_f64(2.0 * bytes as f64 / (spec.mem_bandwidth_gbs * 1e9));
        }
        self.host_transfer_time(src, bytes, specs) + self.host_transfer_time(dst, bytes, specs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;

    #[test]
    fn link_transfer_time_is_latency_plus_wire() {
        let link = LinkSpec::new(10, 8.0);
        // 80 MB at 8 GB/s = 10 ms, plus 10 µs latency.
        let t = link.transfer_time(80 << 20);
        let expect =
            SimDuration::from_micros(10) + SimDuration::from_secs_f64((80 << 20) as f64 / 8e9);
        assert_eq!(t, expect);
    }

    #[test]
    fn cross_socket_transfer_is_slower() {
        let node = NodeConfig::paper_node();
        let gpu0 = DeviceId(1);
        // Paper node: host thread on socket 0, GPUs on socket 1.
        let cross = node.topology.host_transfer_time(gpu0, 64 << 20, &node.devices);
        let mut near = node.clone();
        near.topology.host_socket = 1;
        let local = near.topology.host_transfer_time(gpu0, 64 << 20, &near.devices);
        assert!(cross > local, "cross={cross} local={local}");
    }

    #[test]
    fn d2d_equals_d2h_plus_h2d() {
        let node = NodeConfig::paper_node();
        let (g0, g1) = (DeviceId(1), DeviceId(2));
        let bytes = 32 << 20;
        let d2d = node.topology.device_transfer_time(g0, g1, bytes, &node.devices);
        let staged = node.topology.host_transfer_time(g0, bytes, &node.devices)
            + node.topology.host_transfer_time(g1, bytes, &node.devices);
        assert_eq!(d2d, staged);
    }

    #[test]
    fn same_device_copy_uses_device_bandwidth() {
        let node = NodeConfig::paper_node();
        let g0 = DeviceId(1);
        let t = node.topology.device_transfer_time(g0, g0, 1 << 20, &node.devices);
        // 2 MB of traffic at 144 GB/s ≈ 14.5 µs — far below any PCIe trip.
        assert!(t < SimDuration::from_micros(100), "{t}");
    }

    #[test]
    fn cpu_device_transfers_run_at_memcpy_speed() {
        let node = NodeConfig::paper_node();
        let cpu = DeviceId(0);
        let gpu = DeviceId(1);
        let bytes = 64 << 20;
        let t_cpu = node.topology.host_transfer_time(cpu, bytes, &node.devices);
        let t_gpu = node.topology.host_transfer_time(gpu, bytes, &node.devices);
        assert!(t_cpu < t_gpu, "host<->CPU-device should beat PCIe: {t_cpu} vs {t_gpu}");
    }
}
