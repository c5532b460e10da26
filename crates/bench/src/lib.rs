#![warn(missing_docs)]

//! # multicl-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VI) on the
//! simulated testbed. Each `experiments::figN` module exposes a `run*`
//! function returning structured data (so tests can assert the *shape* of
//! each result) and a `print` function producing the paper-style rows; the
//! `src/bin/figN` binaries are thin wrappers.
//!
//! | Target | Paper content |
//! |---|---|
//! | `table1` | proposed OpenCL extensions |
//! | `table2` | SNU-NPB-MD requirements + scheduler options |
//! | `fig3` | CPU vs GPU relative time per benchmark |
//! | `fig4` | manual schedules vs AutoFit (4 queues) |
//! | `fig5` | kernel→device distribution |
//! | `fig6` | FT profiling (data-transfer) overhead vs queue count |
//! | `fig7` | data-caching effect on FT profiling overhead |
//! | `fig8` | minikernel vs full-kernel profiling (EP classes) |
//! | `fig9` | FDM-Seismology mapping sweep + RR + AutoFit |
//! | `fig10` | FDM-Seismology per-iteration profile amortization |
//!
//! The *wall-clock* cost of the runtime machinery itself (device mapper,
//! DES engine, clrt enqueue, telemetry sinks) — the paper's "negligible
//! scheduling overhead" claim in host terms — is measured by the repo's
//! one benchmark, the `perf/` package declared in `BENCHMARK.json`.

pub mod experiments;
pub mod harness;

pub use harness::{
    bench_args_or_exit, fresh_context, fresh_platform, print_table, read_events_or_exit,
    write_report, Table,
};
