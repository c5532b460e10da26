//! Cluster scaling sweep: offered capacity at fixed tail latency as the
//! fleet grows 1 → 16 nodes, plus a shard-kill recovery scenario.
//!
//! SnuCL's promise — and the reason the paper's command-queue abstraction
//! matters — is that the same task-parallel program scales from one node
//! to a cluster. This experiment makes the cluster-tier claim
//! quantitative for the serving stack:
//!
//! * **Scaling**: each fleet size runs the same saturating per-node
//!   offered load (tenant count and arrival rate scale with the node
//!   count), so achieved throughput measures capacity. Bounded per-tenant
//!   admission queues pin the tail: p99 must stay within a constant
//!   factor of the single-node point while capacity grows near-linearly
//!   (`>= 0.7x` linear at 8 nodes for `AUTO_FIT`).
//! * **Shard kill**: one node loses all its devices mid-schedule. The
//!   routing tier must degrade it, migrate its tenants, and recover
//!   fleet goodput to `>= 90%` of the pre-fault rate.
//! * **Determinism**: every point runs twice with the same seed and the
//!   two fleet reports must match byte for byte.

use crate::harness::Table;
use clrt::Fleet;
use hwsim::json::Json;
use hwsim::{ClusterConfig, FaultPlan, SimDuration, SimTime};
use served::cluster::{ClusterService, ClusterServiceConfig};
use served::loadgen::{self, Arrival, LoadgenConfig};
use served::{JobResult, TenantConfig};
use std::path::PathBuf;

/// Tenants per node: matches the single-node serving experiments' four.
const TENANTS_PER_NODE: usize = 4;

/// One fleet-size measurement.
#[derive(Debug, Clone)]
pub struct ClusterPoint {
    /// Fleet size (nodes = shards).
    pub nodes: usize,
    /// Offered arrival rate (virtual jobs/s, fleet-wide).
    pub offered_hz: f64,
    /// Achieved completion rate (virtual jobs/s, fleet-wide).
    pub achieved_hz: f64,
    /// Fleet-wide p99 job latency (virtual ms).
    pub p99_ms: f64,
    /// Jobs completed across the fleet.
    pub completed: u64,
    /// Jobs bounced by per-shard admission control.
    pub rejected: u64,
    /// The full deterministic fleet report (byte-compared across runs).
    pub report: String,
}

/// The shard-kill recovery measurement.
#[derive(Debug, Clone)]
pub struct KillPoint {
    /// Fleet size.
    pub nodes: usize,
    /// The killed shard.
    pub victim: usize,
    /// Shards marked degraded by the run.
    pub degraded: Vec<usize>,
    /// Tenant migrations performed.
    pub migrations: u64,
    /// State bytes moved over the interconnect.
    pub migrated_bytes: u64,
    /// Queued jobs drained off the dead shard and re-admitted elsewhere.
    pub migrated_jobs: u64,
    /// Healthy-fleet goodput over the post-kill window, from a fault-free
    /// run of the identical schedule (virtual jobs/s) — the "pre-fault"
    /// reference the recovered fleet is held to.
    pub pre_fault_hz: f64,
    /// Faulted-run goodput over the same window, after the kill settled
    /// (virtual jobs/s).
    pub post_fault_hz: f64,
    /// `ShardDegraded` / `TenantMigrated` events seen on the stream.
    pub degrade_events: u64,
    /// `TenantMigrated` events seen on the stream.
    pub migrate_events: u64,
    /// The full deterministic fleet report (byte-compared across runs).
    pub report: String,
}

/// The shared per-process profile-cache directory (one cold warm-up per
/// process; every fleet after that starts cache-hot).
fn cache_dir() -> PathBuf {
    std::env::temp_dir().join(format!("multicl-bench-cluster-cache-{}", std::process::id()))
}

/// Per-node tenant set for an `n`-node fleet.
fn tenants(n: usize) -> Vec<TenantConfig> {
    (0..TENANTS_PER_NODE * n).map(|i| TenantConfig::new(format!("t{i}"), 1, 16)).collect()
}

/// The arrival schedule for an `n`-node fleet: the single-node schedule
/// with tenant count and rate scaled by `n`, so per-node offered load is
/// constant across the sweep.
fn arrivals(n: usize, seed: u64, jobs_per_node: usize, per_node_hz: f64) -> Vec<Arrival> {
    let cfg = LoadgenConfig {
        seed,
        tenants: TENANTS_PER_NODE * n,
        jobs: jobs_per_node * n,
        rate_hz: per_node_hz * n as f64,
        ..LoadgenConfig::default()
    };
    loadgen::open_arrivals(&cfg)
}

/// Build an `n`-node cluster service, optionally with a fault plan that
/// loses every device of shard `victim` at `at`.
fn build(n: usize, fault: Option<(usize, SimTime)>) -> ClusterService {
    let config = ClusterConfig::paper_cluster(n);
    let fleet = match fault {
        Some((victim, at)) => {
            let devices = config.nodes[victim].devices.len();
            let mut plan = FaultPlan::new(0xc1u64);
            for d in 0..devices {
                plan = plan.lose_device(hwsim::DeviceId(d), at);
            }
            let mut rts = vec![clrt::RuntimeConfig::default(); n];
            rts[victim].fault_plan = Some(plan);
            Fleet::with_configs(config, rts)
        }
        None => Fleet::new(config),
    };
    ClusterService::new(fleet, ClusterServiceConfig::new(4, tenants(n)), &cache_dir(), Vec::new())
        .expect("cluster builds")
}

/// Run one fleet size once.
pub fn run_point(n: usize, seed: u64, jobs_per_node: usize, per_node_hz: f64) -> ClusterPoint {
    let cluster = build(n, None);
    cluster.warm(&loadgen::templates()).expect("warm-up");
    let arrivals = arrivals(n, seed, jobs_per_node, per_node_hz);
    cluster.drive_open(&arrivals);
    let report = cluster.report();
    let achieved =
        report.get("achieved_throughput_jobs_per_s").and_then(Json::as_f64).unwrap_or(0.0);
    let p99 =
        report.get("latency_ms").and_then(|l| l.get("p99")).and_then(Json::as_f64).unwrap_or(0.0);
    ClusterPoint {
        nodes: n,
        offered_hz: per_node_hz * n as f64,
        achieved_hz: achieved,
        p99_ms: p99,
        completed: report.get("jobs_completed").and_then(Json::as_u64).unwrap_or(0),
        rejected: report.get("jobs_rejected").and_then(Json::as_u64).unwrap_or(0),
        report: report.dump(),
    }
}

/// Run the scaling sweep. Every point runs **twice** with the same seed
/// and the two fleet reports must match byte for byte.
pub fn run(seed: u64, jobs_per_node: usize, per_node_hz: f64, smoke: bool) -> Vec<ClusterPoint> {
    let sizes: &[usize] = if smoke { &[1, 2, 4, 8] } else { &[1, 2, 4, 8, 16] };
    sizes
        .iter()
        .map(|&n| {
            let first = run_point(n, seed, jobs_per_node, per_node_hz);
            let second = run_point(n, seed, jobs_per_node, per_node_hz);
            assert_eq!(
                first.report, second.report,
                "{n}-node fleet is not byte-identical across same-seed runs"
            );
            first
        })
        .collect()
}

/// Run the shard-kill scenario once (deterministic). `per_node_hz` here
/// should leave headroom below saturation: recovering ≥ 90% of pre-fault
/// goodput on `n-1` survivors requires the fleet to run below `(n-1)/n`
/// of capacity — exactly how an SLO-driven deployment is provisioned.
pub fn run_kill(n: usize, seed: u64, jobs_per_node: usize, per_node_hz: f64) -> KillPoint {
    // The fault-free baseline run doubles as the probe for where warm-up
    // ends (both fleets start cache-hot, so their timelines agree until
    // the kill). The kill lands mid-arrival-schedule; goodput in the
    // post-kill window is compared against the *same window* of the
    // baseline, so Poisson clumping of the arrival process cancels out.
    let baseline = build(n, None);
    baseline.warm(&loadgen::templates()).expect("warm-up");
    let serving_from = baseline.shard(0).now();
    let schedule = arrivals(n, seed, jobs_per_node, per_node_hz);
    let span = schedule.last().expect("nonempty schedule").at.saturating_since(SimTime::ZERO);
    let kill_at = serving_from + SimDuration::from_nanos(span.as_nanos() / 2);
    baseline.drive_open(&schedule);

    let victim = 0;
    let recorder = std::sync::Arc::new(multicl::telemetry::RingBufferSink::new(1 << 16));
    let cluster = {
        let config = ClusterConfig::paper_cluster(n);
        let devices = config.nodes[victim].devices.len();
        let mut plan = FaultPlan::new(0xc1u64);
        for d in 0..devices {
            plan = plan.lose_device(hwsim::DeviceId(d), kill_at);
        }
        let mut rts = vec![clrt::RuntimeConfig::default(); n];
        rts[victim].fault_plan = Some(plan);
        // A realistic (non-instant) health-probe period: arrivals keep
        // routing to the dead shard until the next probe, so the
        // migration has actual queued jobs to drain, not just state.
        let mut service = ClusterServiceConfig::new(4, tenants(n));
        service.health_check_every = 12;
        ClusterService::new(
            Fleet::with_configs(config, rts),
            service,
            &cache_dir(),
            vec![recorder.clone()],
        )
        .expect("cluster builds")
    };
    cluster.warm(&loadgen::templates()).expect("warm-up");
    cluster.drive_open(&schedule);

    // Goodput over the post-kill window: completions after a settle gap
    // (10% of the schedule span, for migration + re-warm), over the time
    // to each run's final completion. Both runs see the same arrivals, so
    // the ratio isolates what the kill cost.
    let settle = SimDuration::from_nanos(span.as_nanos() / 10);
    let post_from = kill_at + settle;
    let windowed = |c: &ClusterService| {
        let mut done = 0u64;
        let mut last = post_from;
        for i in 0..c.shard_count() {
            for o in c.shard(i).outcomes() {
                if o.result == JobResult::Completed && o.completed_at >= post_from {
                    done += 1;
                    last = last.max(o.completed_at);
                }
            }
        }
        done as f64 / last.saturating_since(post_from).as_secs_f64().max(1e-12)
    };
    let events = recorder.snapshot();
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count() as u64;
    let report = cluster.report();
    KillPoint {
        nodes: n,
        victim,
        degraded: cluster.degraded_shards(),
        migrations: cluster.migrations().len() as u64,
        migrated_bytes: cluster.migrations().iter().map(|m| m.bytes).sum(),
        migrated_jobs: cluster.migrations().iter().map(|m| m.jobs).sum(),
        pre_fault_hz: windowed(&baseline),
        post_fault_hz: windowed(&cluster),
        degrade_events: count("shard_degraded"),
        migrate_events: count("tenant_migrated"),
        report: report.dump(),
    }
}

/// Check the acceptance properties; returns violations (empty = pass).
pub fn violations(points: &[ClusterPoint], kill: &KillPoint) -> Vec<String> {
    let mut out = Vec::new();
    let Some(base) = points.iter().find(|p| p.nodes == 1) else {
        return vec!["sweep is missing the 1-node baseline".into()];
    };
    if base.achieved_hz <= 0.0 {
        out.push("1-node baseline achieved zero throughput".into());
    }
    if !points.iter().any(|p| p.nodes == 8) {
        out.push("sweep is missing the 8-node point".into());
    }
    for p in points {
        let linear = base.achieved_hz * p.nodes as f64;
        if p.achieved_hz < 0.7 * linear {
            out.push(format!(
                "{} nodes: capacity {:.0} jobs/s is below 0.7x linear ({:.0} of {:.0})",
                p.nodes,
                p.achieved_hz,
                0.7 * linear,
                linear
            ));
        }
        // "Fixed p99": bounded admission queues must keep the fleet tail
        // within a constant factor of the single-node tail.
        if p.p99_ms > 4.0 * base.p99_ms {
            out.push(format!(
                "{} nodes: p99 {:.3}ms blew past 4x the 1-node tail ({:.3}ms)",
                p.nodes, p.p99_ms, base.p99_ms
            ));
        }
    }
    if kill.degraded != vec![kill.victim] {
        out.push(format!(
            "shard kill: expected shard {} degraded, saw {:?}",
            kill.victim, kill.degraded
        ));
    }
    if kill.migrations == 0 || kill.migrate_events == 0 {
        out.push("shard kill: no tenant migration happened".into());
    }
    if kill.degrade_events == 0 {
        out.push("shard kill: no ShardDegraded event on the stream".into());
    }
    if kill.post_fault_hz < 0.9 * kill.pre_fault_hz {
        out.push(format!(
            "shard kill: post-fault goodput {:.0} jobs/s is below 90% of pre-fault ({:.0})",
            kill.post_fault_hz, kill.pre_fault_hz
        ));
    }
    out
}

/// Render the sweep as a table.
pub fn table(points: &[ClusterPoint], kill: &KillPoint) -> Table {
    let mut t = Table::new(
        "Cluster scaling: fleet capacity at fixed p99 (AUTO_FIT)",
        &["nodes", "offered/s", "achieved/s", "x linear", "p99 ms", "completed", "rejected"],
    );
    let base = points.first().map_or(1.0, |p| p.achieved_hz.max(1e-12));
    for p in points {
        t.row(vec![
            format!("{}", p.nodes),
            format!("{:.0}", p.offered_hz),
            format!("{:.0}", p.achieved_hz),
            format!("{:.2}", p.achieved_hz / (base * p.nodes as f64)),
            format!("{:.3}", p.p99_ms),
            format!("{}", p.completed),
            format!("{}", p.rejected),
        ]);
    }
    t.row(vec![
        format!("kill@{}", kill.nodes),
        format!("victim {}", kill.victim),
        format!("{} migration(s)", kill.migrations),
        format!("{} B", kill.migrated_bytes),
        String::new(),
        format!("pre {:.0}/s", kill.pre_fault_hz),
        format!("post {:.0}/s", kill.post_fault_hz),
    ]);
    t
}

/// Serialize the sweep as the `BENCH_cluster.json` artifact.
pub fn to_json(
    points: &[ClusterPoint],
    kill: &KillPoint,
    seed: u64,
    jobs_per_node: usize,
    per_node_hz: f64,
) -> Json {
    let rows: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::obj([
                ("nodes", Json::from(p.nodes)),
                ("offered_jobs_per_s", Json::from(p.offered_hz)),
                ("achieved_jobs_per_s", Json::from(p.achieved_hz)),
                ("p99_ms", Json::from(p.p99_ms)),
                ("completed", Json::from(p.completed)),
                ("rejected", Json::from(p.rejected)),
            ])
        })
        .collect();
    Json::obj([
        ("experiment", Json::from("cluster")),
        ("seed", Json::from(seed)),
        ("jobs_per_node", Json::from(jobs_per_node)),
        ("per_node_offered_hz", Json::from(per_node_hz)),
        ("policy", Json::from("AUTO_FIT")),
        ("points", Json::Arr(rows)),
        (
            "shard_kill",
            Json::obj([
                ("nodes", Json::from(kill.nodes)),
                ("victim", Json::from(kill.victim)),
                ("degraded", Json::num_arr(kill.degraded.iter().map(|d| *d as f64))),
                ("migrations", Json::from(kill.migrations)),
                ("migrated_bytes", Json::from(kill.migrated_bytes)),
                ("migrated_jobs", Json::from(kill.migrated_jobs)),
                ("pre_fault_jobs_per_s", Json::from(kill.pre_fault_hz)),
                ("post_fault_jobs_per_s", Json::from(kill.post_fault_hz)),
                ("shard_degraded_events", Json::from(kill.degrade_events)),
                ("tenant_migrated_events", Json::from(kill.migrate_events)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_node_fleet_outperforms_one_node_and_reproduces() {
        // `run` itself asserts byte-identity per point.
        let a = run_point(1, 42, 16, 400.0);
        let b = run_point(2, 42, 16, 400.0);
        assert!(a.achieved_hz > 0.0);
        assert!(
            b.achieved_hz >= 1.4 * a.achieved_hz,
            "2-node fleet ({:.0}/s) not near-linear over 1 node ({:.0}/s)",
            b.achieved_hz,
            a.achieved_hz
        );
    }

    #[test]
    fn shard_kill_recovers() {
        let kill = run_kill(3, 42, 24, 240.0);
        assert_eq!(kill.degraded, vec![0]);
        assert!(kill.migrations > 0, "no migration after shard kill");
        assert!(kill.degrade_events > 0 && kill.migrate_events > 0);
        assert!(
            kill.post_fault_hz >= 0.9 * kill.pre_fault_hz,
            "goodput did not recover: pre {:.0}/s post {:.0}/s",
            kill.pre_fault_hz,
            kill.post_fault_hz
        );
    }
}
