//! Data-plane scaling: wall-clock throughput of the capacity workload as
//! the runtime's hazard-tracked executor grows from 1 worker (the
//! synchronous path) to 8.
//!
//! This is the repo's first *bench-trajectory* artifact: it measures host
//! wall-clock time, not virtual time. The virtual timeline is asserted
//! bit-identical across worker counts (same fingerprint), so any wall
//! clock difference is pure executor parallelism, never a semantic
//! change. Kernel bodies carry flop-scaled host work and *declare*
//! flop-scaled device time (see `served`'s `SpecKernel`): the pool
//! overlaps the former, the latter overlaps across queues at any worker
//! count — so on this workload, whose wall time is mostly device time,
//! the sweep is flat, and the synchronous point is as fast as the rest.

use crate::harness::Table;
use hwsim::json::Json;
use served::loadgen::{self, LoadgenConfig};
use std::path::PathBuf;

/// One worker-count measurement.
#[derive(Debug, Clone)]
pub struct DataplanePoint {
    /// Data-plane worker threads (1 = synchronous).
    pub workers: usize,
    /// Host wall-clock seconds from end of warm-up to drain.
    pub wall_s: f64,
    /// Jobs completed per wall-clock second.
    pub wall_jobs_per_s: f64,
    /// Virtual serving time (must be identical across points).
    pub virtual_ms: f64,
    /// Jobs completed (must be identical across points).
    pub completed: u64,
    /// Peak concurrently-busy data-plane workers during the run — direct
    /// evidence of body/transfer overlap.
    pub peak_busy: usize,
    /// Order-normalized FNV hash of the virtual-time trace (queue ids
    /// mapped to first-appearance indices; must be identical across
    /// points).
    pub trace_fingerprint: u64,
}

/// The shared per-process profile-cache directory.
fn cache_dir() -> PathBuf {
    std::env::temp_dir().join(format!("multicl-bench-dataplane-cache-{}", std::process::id()))
}

/// The capacity workload pinned at a saturating offered rate, with the
/// data-plane pool as the only variable.
fn config(seed: u64, jobs: usize, dp_workers: usize) -> LoadgenConfig {
    LoadgenConfig {
        seed,
        jobs,
        tenants: 4,
        workers: 4,
        queue_capacity: 8,
        rate_hz: 64_000.0,
        runtime: clrt::RuntimeConfig {
            data_plane_workers: dp_workers,
            ..clrt::RuntimeConfig::default()
        },
        ..LoadgenConfig::default()
    }
}

/// Fingerprint the platform's virtual-time trace, independent of
/// process-global queue-id allocation: FNV-1a over records with queue ids
/// renumbered by first appearance.
fn trace_fingerprint(served: &served::Served) -> u64 {
    let mut qmap: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let trace = served.context().platform().trace_snapshot();
    for r in &trace.records {
        let next = qmap.len();
        let q = *qmap.entry(r.queue).or_insert(next);
        mix(q as u64);
        mix(r.device.index() as u64);
        for b in format!("{:?}", r.kind).bytes() {
            mix(b as u64);
        }
        mix(r.stamp.queued.as_nanos());
        mix(r.stamp.submit.as_nanos());
        mix(r.stamp.start.as_nanos());
        mix(r.stamp.end.as_nanos());
    }
    h
}

/// Run one point: the full load run at `dp_workers`, measured in wall
/// clock from warm-up to drain.
pub fn run_point(seed: u64, jobs: usize, dp_workers: usize) -> DataplanePoint {
    let cfg = config(seed, jobs, dp_workers);
    let (served, _) = loadgen::run(&cfg, &cache_dir()).expect("load run");
    let wall_s = served.wall_elapsed().map(|d| d.as_secs_f64()).unwrap_or(0.0);
    let completed: u64 =
        (0..served.tenant_count()).map(|i| served.metrics().tenant(i).completed.get()).sum();
    let virtual_ms = served.now().saturating_since(served.serving_since()).as_millis_f64();
    DataplanePoint {
        workers: served.data_plane_workers(),
        wall_s,
        wall_jobs_per_s: if wall_s > 0.0 { completed as f64 / wall_s } else { 0.0 },
        virtual_ms,
        completed,
        peak_busy: served.data_plane_stats().peak_busy_workers,
        trace_fingerprint: trace_fingerprint(&served),
    }
}

/// Sweep the worker counts over the same seeded workload.
pub fn run(seed: u64, jobs: usize, worker_counts: &[usize]) -> Vec<DataplanePoint> {
    worker_counts.iter().map(|&w| run_point(seed, jobs, w)).collect()
}

/// The default sweep: synchronous baseline through an 8-wide pool.
pub fn default_workers() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// True when every point has the same virtual timeline, completion count,
/// and trace fingerprint — the invariant that makes the wall-clock column
/// meaningful.
pub fn identical_timelines(points: &[DataplanePoint]) -> bool {
    points.windows(2).all(|w| {
        w[0].virtual_ms == w[1].virtual_ms
            && w[0].completed == w[1].completed
            && w[0].trace_fingerprint == w[1].trace_fingerprint
    })
}

/// Wall-clock speedup of the point at `workers` relative to the 1-worker
/// (synchronous) baseline. `None` when either point is missing.
pub fn speedup_vs_sequential(points: &[DataplanePoint], workers: usize) -> Option<f64> {
    let base = points.iter().find(|p| p.workers == 1)?;
    let p = points.iter().find(|p| p.workers == workers)?;
    (p.wall_s > 0.0).then(|| base.wall_s / p.wall_s)
}

/// Render the sweep as a table.
pub fn table(points: &[DataplanePoint]) -> Table {
    let mut t = Table::new(
        "Data-plane scaling: wall-clock throughput vs worker count (identical virtual time)",
        &["workers", "wall s", "wall jobs/s", "speedup", "peak busy", "virtual ms", "completed"],
    );
    for p in points {
        let speedup = speedup_vs_sequential(points, p.workers).unwrap_or(0.0);
        t.row(vec![
            format!("{}", p.workers),
            format!("{:.3}", p.wall_s),
            format!("{:.0}", p.wall_jobs_per_s),
            format!("{speedup:.2}x"),
            format!("{}", p.peak_busy),
            format!("{:.2}", p.virtual_ms),
            format!("{}", p.completed),
        ]);
    }
    t
}

/// The `BENCH_dataplane.json` payload.
pub fn to_json(seed: u64, jobs: usize, points: &[DataplanePoint]) -> Json {
    Json::obj([
        ("experiment", Json::from("dataplane")),
        ("seed", Json::from(seed)),
        ("jobs", Json::from(jobs)),
        ("identical_virtual_time", Json::Bool(identical_timelines(points))),
        ("speedup_4_vs_1", Json::from(speedup_vs_sequential(points, 4).unwrap_or(0.0))),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("workers", Json::from(p.workers)),
                            ("wall_s", Json::from(p.wall_s)),
                            ("wall_jobs_per_s", Json::from(p.wall_jobs_per_s)),
                            ("virtual_ms", Json::from(p.virtual_ms)),
                            ("completed", Json::from(p.completed)),
                            ("peak_busy_workers", Json::from(p.peak_busy)),
                            ("trace_fingerprint", Json::from(p.trace_fingerprint)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_semantically_invariant() {
        let points = run(7, 8, &[1, 2]);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.completed > 0));
        assert!(
            identical_timelines(&points),
            "virtual timeline must not depend on worker count: {points:?}"
        );
        let json = to_json(7, 8, &points);
        assert_eq!(json.get("identical_virtual_time").and_then(Json::as_bool), Some(true));
    }
}
