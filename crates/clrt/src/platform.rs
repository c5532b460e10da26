//! The unified platform: one handle over all devices of a node and the
//! shared virtual-time engine. Equivalent to SnuCL's single platform over
//! multiple vendor drivers.

use crate::exec::{DataPlane, DataPlaneStats, PlaneHandle};
use hwsim::sync::Mutex;
use hwsim::{DeviceId, DeviceSpec, DeviceType, Engine, FaultPlan, NodeConfig, SimTime, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic ids for contexts/buffers/kernels (diagnostics + membership
/// checks).
static NEXT_OBJECT_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_object_id() -> u64 {
    NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Runtime construction options (the `ClRuntime` knobs).
#[derive(Debug, Clone, Default)]
pub struct RuntimeConfig {
    /// Data-plane worker threads executing kernel bodies and transfers.
    /// `0` (the default) uses the host's available parallelism; `1` runs
    /// every body on the enqueueing thread — the degenerate case of the
    /// executor's caller-run path (see [`crate::exec`]), so a panicking
    /// body still surfaces at the next blocking point, not at the enqueue.
    /// The worker count never affects buffer contents or virtual time —
    /// only wall-clock throughput.
    pub data_plane_workers: usize,
    /// Opt-in deterministic fault injection (see [`hwsim::fault`]): transfer
    /// failures, device degradation, and device loss, all from a fixed seed.
    /// `None` (the default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
}

/// Shared runtime state: the node description plus the discrete-event engine
/// (time plane) and the task executor (data plane).
pub(crate) struct RuntimeInner {
    pub node: NodeConfig,
    pub engine: Mutex<Engine>,
    pub plane: Arc<DataPlane>,
    /// Keeps the plane's worker threads; joined when the runtime drops.
    _plane_handle: PlaneHandle,
}

/// The OpenCL platform (`clGetPlatformIds`): entry point to devices and the
/// virtual clock.
#[derive(Clone)]
pub struct Platform {
    pub(crate) rt: Arc<RuntimeInner>,
}

impl Platform {
    /// Create a platform over an arbitrary simulated node with default
    /// runtime options (data-plane workers = available parallelism).
    pub fn new(node: NodeConfig) -> Platform {
        Platform::with_config(node, RuntimeConfig::default())
    }

    /// Create a platform with explicit runtime options.
    pub fn with_config(node: NodeConfig, cfg: RuntimeConfig) -> Platform {
        let mut engine = Engine::new(node.device_count());
        if let Some(plan) = cfg.fault_plan.clone() {
            engine.set_fault_plan(plan);
        }
        let plane = Arc::new(DataPlane::new(cfg.data_plane_workers));
        Platform {
            rt: Arc::new(RuntimeInner {
                node,
                engine: Mutex::new(engine),
                plane: Arc::clone(&plane),
                _plane_handle: PlaneHandle(plane),
            }),
        }
    }

    /// Create a platform over the paper's testbed (1 CPU + 2 GPUs).
    pub fn paper_node() -> Platform {
        Platform::new(NodeConfig::paper_node())
    }

    /// The paper's testbed with explicit runtime options.
    pub fn paper_node_with(cfg: RuntimeConfig) -> Platform {
        Platform::with_config(NodeConfig::paper_node(), cfg)
    }

    /// All devices of the node (`clGetDeviceIDs` with `CL_DEVICE_TYPE_ALL`).
    pub fn devices(&self) -> Vec<Device> {
        self.rt.node.device_ids().map(|id| Device { rt: Arc::clone(&self.rt), id }).collect()
    }

    /// Devices of a specific type.
    pub fn devices_of_type(&self, ty: DeviceType) -> Vec<Device> {
        self.devices().into_iter().filter(|d| d.spec().device_type == ty).collect()
    }

    /// The node description.
    pub fn node(&self) -> &NodeConfig {
        &self.rt.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.rt.engine.lock().now()
    }

    /// Run a closure with exclusive access to the engine. Used by the
    /// MultiCL layer (profiling, tagging) and the experiment harness.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        f(&mut self.rt.engine.lock())
    }

    /// Take (and clear) the accumulated execution trace.
    pub fn take_trace(&self) -> Trace {
        self.rt.engine.lock().take_trace()
    }

    /// Snapshot of the accumulated execution trace.
    pub fn trace_snapshot(&self) -> Trace {
        self.rt.engine.lock().trace().clone()
    }

    /// Data-plane worker threads of this runtime.
    pub fn data_plane_workers(&self) -> usize {
        self.rt.plane.workers()
    }

    /// Block until the data plane is fully idle: every submitted kernel
    /// body, write, and copy has executed. Scheduler layers call this
    /// before wall-clock-sensitive measurements (profiling epochs).
    pub fn quiesce_data_plane(&self) {
        self.rt.plane.quiesce();
    }

    /// Snapshot of the data-plane executor counters.
    pub fn data_plane_stats(&self) -> DataPlaneStats {
        self.rt.plane.stats()
    }
}

/// One OpenCL device of the platform.
#[derive(Clone)]
pub struct Device {
    pub(crate) rt: Arc<RuntimeInner>,
    /// Stable index of the device within the node.
    pub id: DeviceId,
}

impl Device {
    /// The device's static specification.
    pub fn spec(&self) -> &DeviceSpec {
        self.rt.node.spec(self.id)
    }

    /// Convenience: the device's architecture family.
    pub fn device_type(&self) -> DeviceType {
        self.spec().device_type
    }

    /// Convenience: the device's name.
    pub fn name(&self) -> &str {
        &self.spec().name
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Device({}, {:?})", self.id, self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_exposes_three_devices() {
        let p = Platform::paper_node();
        assert_eq!(p.devices().len(), 3);
        assert_eq!(p.devices_of_type(DeviceType::Gpu).len(), 2);
        assert_eq!(p.devices_of_type(DeviceType::Cpu).len(), 1);
    }

    #[test]
    fn clock_starts_at_zero() {
        let p = Platform::paper_node();
        assert_eq!(p.now(), SimTime::ZERO);
    }

    #[test]
    fn device_spec_accessors() {
        let p = Platform::paper_node();
        let devs = p.devices();
        assert_eq!(devs[0].device_type(), DeviceType::Cpu);
        assert!(devs[1].name().contains("C2050"));
    }
}
