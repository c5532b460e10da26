#![warn(missing_docs)]

//! # clrt — an OpenCL-style runtime executing on the `hwsim` node simulator
//!
//! This crate plays the role SnuCL plays in the paper: a single unified
//! platform over all devices of a node, with the standard OpenCL object
//! model and *manual, static* queue→device binding. The MultiCL scheduler
//! (crate `multicl`) layers automatic queue scheduling on top.
//!
//! Two planes are deliberately separated:
//!
//! * **Data plane** — buffers have real host-backed storage and kernels are
//!   Rust closures ([`KernelBody`]) that actually compute, so application
//!   results are verifiable. Kernel bodies run exactly once per enqueued
//!   launch.
//! * **Time plane** — every command (transfer or kernel) is costed by the
//!   `hwsim` models and submitted to the discrete-event engine, producing an
//!   exact virtual timeline with OpenCL-style event profiling info.
//!
//! The split keeps the simulation honest where it matters for the paper
//! (scheduling decisions see only times, never results) while keeping the
//! workloads real computations.
//!
//! ## Object model
//!
//! [`Platform`] → [`Context`] (shares [`Buffer`]s and [`Program`]s) →
//! [`CommandQueue`] (bound to one [`Device`]; rebindable, which is the hook
//! MultiCL uses) → [`Event`]s with `queued/submit/start/end` timestamps.
//!
//! Buffer coherence follows OpenCL: within a context the runtime migrates
//! buffers to whichever device a kernel runs on, tracking residency and
//! charging transfer time (D2D is staged through the host, as on the paper's
//! testbed).

pub mod buffer;
pub mod context;
pub mod error;
pub mod event;
pub mod exec;
pub mod hazard;
pub mod kernel;
pub mod ndrange;
pub mod platform;
pub mod program;
pub mod queue;

pub use buffer::Buffer;
pub use context::Context;
pub use error::{ClError, ClResult};
pub use event::Event;
pub use exec::DataPlaneStats;
pub use hazard::Access;
pub use kernel::{ArgValue, BoundArgs, Kernel, KernelBody, KernelCtx};
pub use ndrange::NdRange;
pub use platform::{Device, Platform, RuntimeConfig};
pub use program::Program;
pub use queue::CommandQueue;

pub use hwsim::{
    DeviceId, DeviceType, KernelCostSpec, KernelTraits, NodeConfig, SimDuration, SimTime,
};
