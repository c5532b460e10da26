#![warn(missing_docs)]

//! # hwsim — deterministic simulator of a heterogeneous compute node
//!
//! This crate is the hardware substrate for the MultiCL reproduction. The
//! original paper ran on a dual-socket AMD Opteron 6134 node with two NVIDIA
//! Tesla C2050 GPUs; we reproduce that node (and arbitrary others) as a
//! *discrete-event simulation* with an exact virtual clock.
//!
//! The pieces:
//!
//! * [`time`] — `SimTime` / `SimDuration` newtypes (nanosecond resolution).
//! * [`device`] — device specifications (CPU/GPU compute and memory models)
//!   and the efficiency model that maps kernel characteristics to sustained
//!   rates on a given device.
//! * [`topology`] — sockets, PCIe links, NUMA affinity, and transfer-time
//!   computation for host–device and device–device movement.
//! * [`cost`] — the roofline kernel cost model: a kernel declares per-item
//!   flops/bytes and qualitative traits; the model produces execution times
//!   per device, including *minikernel* (single-workgroup) times.
//! * [`engine`] — per-device timelines with eager dependency resolution for
//!   in-order command streams; produces timestamped command records.
//! * [`node`] — prebuilt node configurations, including the paper's testbed.
//! * [`microbench`] — bandwidth and instruction-throughput benchmarks run
//!   *against the simulator*, used by MultiCL's device profiler.
//! * [`trace`] — execution traces (who ran what, when) used to regenerate the
//!   paper's kernel-distribution and per-iteration figures.
//! * [`stats`] — small numeric helpers (geomean, normalization, percentiles).
//! * [`json`] — a minimal JSON value/parser/writer (the workspace builds
//!   offline with no external crates; this replaces `serde_json`).
//! * [`sync`] — `parking_lot`-style locking over `std::sync`.
//! * [`xrand`] — a seeded xorshift64* generator (replaces `rand` for
//!   deterministic tests and load generation).
//!
//! Everything is deterministic: the same program produces the same virtual
//! timeline on every run, which makes the paper's figures exactly
//! reproducible.

pub mod cost;
pub mod device;
pub mod engine;
pub mod fault;
pub mod json;
pub mod microbench;
pub mod node;
pub mod report;
pub mod stats;
pub mod sync;
pub mod time;
pub mod topology;
pub mod trace;
pub mod waitlist;
pub mod xrand;

pub use cost::{KernelCostSpec, KernelTraits, NdRangeShape};
pub use device::{DeviceId, DeviceSpec, DeviceType};
pub use engine::{CommandDesc, CommandKind, Engine, EventId, EventStamp};
pub use fault::{CommandStatus, FailureRecord, FaultKind, FaultPlan};
pub use node::NodeConfig;
pub use time::{SimDuration, SimTime};
pub use topology::{LinkSpec, Topology, TransferKind};
pub use trace::{Trace, TraceRecord};
pub use waitlist::WaitList;
