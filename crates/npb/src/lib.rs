#![warn(missing_docs)]

//! # npb — SNU-NPB-MD-style task-parallel benchmarks on `clrt`/`multicl`
//!
//! Compact-but-real Rust ports of the six SNU-NPB-MD benchmarks the paper
//! evaluates (§VI-B1): **BT, CG, EP, FT, MG, SP**. Each benchmark
//!
//! * performs its actual computation (scaled-down grids, real math) so
//!   results are verifiable — each kernel body is a plain loop on the
//!   data-plane worker that took the launch: host parallelism comes from the
//!   independent queues and, for EP and MG, the chunks of a split launch,
//! * decomposes work across `N` command queues exactly as Table II allows
//!   (BT/SP: square counts; CG/FT/MG: powers of two; EP: any) — BT and SP
//!   are one ADI app, [`adi`], with two line solvers,
//! * attaches calibrated cost descriptors to every kernel so the simulated
//!   CPU-vs-GPU behaviour matches Figure 3 (most benchmarks favour the CPU
//!   because the OpenCL ports are naive; EP strongly favours the GPU), and
//! * uses the paper's scheduler options from Table II
//!   (`SCHED_EXPLICIT_REGION` around the warmup iteration for the iterative
//!   codes, `SCHED_KERNEL_EPOCH` + `SCHED_COMPUTE_BOUND` for EP, plus
//!   `clSetKernelWorkGroupInfo` for BT and FT).
//!
//! The [`suite`](mod@suite) module exposes Table II metadata and a uniform runner used
//! by the figure-regeneration harness.

pub mod adi;
pub mod bt;
pub mod cg;
pub mod class;
pub mod ep;
pub mod ft;
pub mod math;
pub mod mg;
pub mod randdp;
pub mod sp;
pub mod suite;

pub use class::Class;
pub use suite::{info, run_benchmark, suite, BenchmarkInfo, QueuePlan, QueueRule, RunResult};
