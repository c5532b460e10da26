//! Cluster-scale serving: consistent-hash tenant routing over a sharded
//! fleet, with cross-shard rebalancing away from degraded shards.
//!
//! The paper's substrate, SnuCL, schedules OpenCL work across the devices
//! of a *cluster*; our reproduction has so far served one node. This
//! module scales the serving tier out the same way a production system
//! would:
//!
//! * one node-local scheduler per shard — each shard is a full [`Served`]
//!   instance on its own [`Platform`](clrt::Platform) with its own engine
//!   and virtual clock (built from a [`Fleet`]);
//! * a **routing tier** placing tenants onto shards by consistent hashing
//!   ([`HashRing`]) — stable under shard add/remove: joining or leaving a
//!   shard moves only the expected `K/N` of `K` tenants;
//! * per-shard **admission control** unchanged from the single-node
//!   service: each shard's bounded tenant queues and load shedding apply
//!   to whatever the router sends it;
//! * **cross-shard rebalancing**: when a shard's healthy-device fraction
//!   drops below the degrade threshold, [`ClusterService::check_health`]
//!   pulls it from the ring, re-routes its tenants to their new ring
//!   successors, drains each tenant's admitted backlog, re-submits it at
//!   the destination, and charges the tenant's state bytes to both
//!   endpoints at interconnect cost via [`Fleet::charge_transfer`].
//!   [`SchedEvent::ShardDegraded`] and [`SchedEvent::TenantMigrated`]
//!   record every step on the fleet-wide telemetry stream.
//!
//! Everything is deterministic: the ring hash is a fixed seeded function
//! (never `std`'s per-process `RandomState`), shards are visited in index
//! order, and all times are per-node virtual clocks — the same seed
//! reproduces the same fleet report byte for byte.

use crate::loadgen::Arrival;
use crate::service::{warmed_options, RetryPolicy, ServePolicy, Served, ServiceConfig};
use crate::slo::SloConfig;
use crate::spec::JobSpec;
use crate::tenant::{RejectReason, TenantConfig};
use clrt::error::ClResult;
use clrt::Fleet;
use hwsim::json::Json;
use hwsim::stats;
use hwsim::sync::Mutex;
use hwsim::SimTime;
use multicl::telemetry::{SchedEvent, SchedObserver};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// `splitmix64` finalizer: a fixed, well-mixed 64-bit permutation. The
/// ring must hash identically in every process — `std`'s `RandomState`
/// is seeded per process and would re-place every tenant on restart.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the key bytes, then mixed: cheap, deterministic, and
/// well-spread over the ring's 64-bit keyspace.
fn hash_key(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// A consistent-hash ring placing string keys (tenant names) onto shard
/// ids. Each shard contributes `replicas` virtual points; a key maps to
/// the first shard point at or after its hash, wrapping around. Adding or
/// removing one shard of `N` therefore moves only ~`1/N` of the keys —
/// the property that keeps tenant placement stable as the fleet changes.
#[derive(Debug, Clone)]
pub struct HashRing {
    replicas: usize,
    /// Ring position → shard id. `BTreeMap` gives ordered successor
    /// lookup and deterministic iteration.
    points: BTreeMap<u64, usize>,
    shards: Vec<usize>,
}

impl HashRing {
    /// An empty ring with `replicas` virtual points per shard (floored
    /// at 1; 64 is a good default — placement variance shrinks as
    /// `1/sqrt(replicas)`).
    pub fn new(replicas: usize) -> HashRing {
        HashRing { replicas: replicas.max(1), points: BTreeMap::new(), shards: Vec::new() }
    }

    /// A ring pre-populated with shards `0..n`.
    pub fn with_shards(n: usize, replicas: usize) -> HashRing {
        let mut ring = HashRing::new(replicas);
        for shard in 0..n {
            ring.add_shard(shard);
        }
        ring
    }

    /// Virtual ring point `r` of `shard`. Collisions across shards are
    /// resolved by the map insert order in practice; with a mixed 64-bit
    /// hash they are vanishingly rare.
    fn point(shard: usize, replica: usize) -> u64 {
        hash_key(&format!("shard{shard}#{replica}"))
    }

    /// Add `shard`'s virtual points to the ring. Idempotent.
    pub fn add_shard(&mut self, shard: usize) {
        if self.contains(shard) {
            return;
        }
        for r in 0..self.replicas {
            self.points.insert(HashRing::point(shard, r), shard);
        }
        self.shards.push(shard);
        self.shards.sort_unstable();
    }

    /// Remove `shard`'s virtual points; its keys fall to their ring
    /// successors. Idempotent.
    pub fn remove_shard(&mut self, shard: usize) {
        self.points.retain(|_, s| *s != shard);
        self.shards.retain(|s| *s != shard);
    }

    /// Whether `shard` is currently on the ring.
    pub fn contains(&self, shard: usize) -> bool {
        self.shards.binary_search(&shard).is_ok()
    }

    /// Shards currently on the ring, ascending.
    pub fn shards(&self) -> &[usize] {
        &self.shards
    }

    /// Number of shards on the ring.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key`: the first ring point at or after the key's
    /// hash, wrapping. `None` on an empty ring.
    pub fn assign(&self, key: &str) -> Option<usize> {
        let h = hash_key(key);
        self.points.range(h..).next().or_else(|| self.points.iter().next()).map(|(_, shard)| *shard)
    }
}

/// Configuration of a [`ClusterService`], applied uniformly per shard.
#[derive(Debug, Clone)]
pub struct ClusterServiceConfig {
    /// Backend scheduling policy of every shard.
    pub policy: ServePolicy,
    /// Worker queues per shard (dispatch slots per round).
    pub workers: usize,
    /// The tenants. Every shard is configured with the full list so
    /// tenant indexes are fleet-uniform; the router decides which shard
    /// actually receives a tenant's jobs.
    pub tenants: Vec<TenantConfig>,
    /// Per-shard retry policy for fault-failed dispatches.
    pub retry: RetryPolicy,
    /// Per-tenant latency SLO (`None` disables burn-rate tracking).
    pub slo: Option<SloConfig>,
    /// Virtual ring points per shard.
    pub replicas: usize,
    /// Healthy-device fraction at or below which a shard is degraded and
    /// drained (e.g. `0.5`: degrade once half the devices are gone). A
    /// shard with zero healthy devices is always degraded.
    pub degrade_below: f64,
    /// Fixed per-tenant state bytes charged on migration, on top of the
    /// drained backlog's buffer bytes (model state, caches).
    pub tenant_state_bytes: u64,
    /// [`ClusterService::drive_open`] re-evaluates shard health every
    /// this many arrivals (floored at 1). Health probes are periodic in
    /// real deployments; a larger period means arrivals keep routing to a
    /// dead shard until the next probe, piling up backlog that the
    /// migration must then drain across the interconnect.
    pub health_check_every: usize,
}

impl ClusterServiceConfig {
    /// Serving defaults: AUTO_FIT shards, 64 ring replicas, degrade below
    /// half the devices, 8 MiB of tenant state.
    pub fn new(workers: usize, tenants: Vec<TenantConfig>) -> ClusterServiceConfig {
        ClusterServiceConfig {
            policy: ServePolicy::AutoFit,
            workers,
            tenants,
            retry: RetryPolicy::default(),
            slo: Some(SloConfig::default()),
            replicas: 64,
            degrade_below: 0.5,
            tenant_state_bytes: 8 << 20,
            health_check_every: 1,
        }
    }
}

/// One recorded tenant migration (for the fleet report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// Tenant index.
    pub tenant: usize,
    /// Degraded source shard.
    pub from: usize,
    /// Healthy destination shard.
    pub to: usize,
    /// Backlog jobs drained and re-submitted.
    pub jobs: u64,
    /// State bytes charged to the interconnect.
    pub bytes: u64,
}

/// The sharded serving tier: a [`Served`] per fleet node plus the
/// consistent-hash routing and rebalancing layer. See the module docs.
pub struct ClusterService {
    fleet: Fleet,
    shards: Vec<Served>,
    config: ClusterServiceConfig,
    ring: Mutex<HashRing>,
    degraded: Mutex<Vec<bool>>,
    migrations: Mutex<Vec<Migration>>,
}

impl ClusterService {
    /// Build one shard per fleet node. Every shard gets the full tenant
    /// list, a profile cache warmed at `cache_dir` (shared across shards
    /// of identical node config), and `observers` attached to its
    /// context — one shared sink therefore captures the fleet-wide event
    /// stream, shard-local events interleaved.
    pub fn new(
        fleet: Fleet,
        config: ClusterServiceConfig,
        cache_dir: &Path,
        observers: Vec<Arc<dyn SchedObserver>>,
    ) -> ClResult<ClusterService> {
        let mut shards = Vec::with_capacity(fleet.node_count());
        for i in 0..fleet.node_count() {
            let platform = fleet.node(i);
            let mut options = warmed_options(platform, cache_dir);
            options.observers = observers.clone();
            shards.push(Served::new(
                platform,
                ServiceConfig {
                    policy: config.policy,
                    workers: config.workers,
                    tenants: config.tenants.clone(),
                    options,
                    retry: config.retry,
                    slo: config.slo.clone(),
                },
            )?);
        }
        let ring = HashRing::with_shards(shards.len(), config.replicas);
        let degraded = vec![false; shards.len()];
        Ok(ClusterService {
            fleet,
            shards,
            config,
            ring: Mutex::new(ring),
            degraded: Mutex::new(degraded),
            migrations: Mutex::new(Vec::new()),
        })
    }

    /// The underlying fleet (interconnect, per-node clocks).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Number of shards (= fleet nodes).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The node-local service of shard `i`.
    pub fn shard(&self, i: usize) -> &Served {
        &self.shards[i]
    }

    /// Number of tenants (fleet-uniform indexes).
    pub fn tenant_count(&self) -> usize {
        self.config.tenants.len()
    }

    /// Shards currently marked degraded, ascending.
    pub fn degraded_shards(&self) -> Vec<usize> {
        self.degraded.lock().iter().enumerate().filter_map(|(i, d)| d.then_some(i)).collect()
    }

    /// Every tenant migration so far, in order.
    pub fn migrations(&self) -> Vec<Migration> {
        self.migrations.lock().clone()
    }

    /// The shard currently owning `tenant`, per the routing ring. `None`
    /// when every shard is degraded, or `tenant` names no tenant.
    pub fn shard_for(&self, tenant: usize) -> Option<usize> {
        self.ring.lock().assign(&self.config.tenants.get(tenant)?.name)
    }

    /// Warm every shard's program/profile caches (service start-up).
    pub fn warm(&self, specs: &[JobSpec]) -> ClResult<()> {
        for shard in &self.shards {
            shard.warm_programs(specs)?;
        }
        Ok(())
    }

    /// Route and submit: the consistent-hash owner of `tenant` admits the
    /// job under its own bounded-queue admission control. Returns
    /// `(shard, job_id)`. Fails with the shard's rejection when admission
    /// sheds the job, or [`RejectReason::QueueFull`] with zero capacity
    /// when the whole fleet is degraded.
    pub fn submit(&self, tenant: usize, spec: JobSpec) -> Result<(usize, u64), RejectReason> {
        self.submit_with_deadline(tenant, spec, None)
    }

    /// [`Self::submit`] with a completion deadline (shard-local virtual
    /// time).
    pub fn submit_with_deadline(
        &self,
        tenant: usize,
        spec: JobSpec,
        deadline: Option<SimTime>,
    ) -> Result<(usize, u64), RejectReason> {
        let tenants = self.config.tenants.len();
        if tenant >= tenants {
            return Err(RejectReason::UnknownTenant { tenant, tenants });
        }
        let Some(shard) = self.shard_for(tenant) else {
            return Err(RejectReason::QueueFull { depth: 0, capacity: 0 });
        };
        let job = self.shards[shard].submit_with_deadline(tenant, spec, deadline)?;
        Ok((shard, job))
    }

    /// Total admitted-but-undispatched jobs across the fleet.
    pub fn backlog(&self) -> usize {
        self.shards.iter().map(Served::backlog).sum()
    }

    /// One dispatch round on every live shard (index order). Returns the
    /// fleet-wide count of jobs reaching a terminal outcome.
    pub fn dispatch_all(&self) -> usize {
        let degraded = self.degraded.lock().clone();
        self.shards.iter().zip(degraded).filter(|(_, d)| !d).map(|(s, _)| s.dispatch_round()).sum()
    }

    /// Evaluate every live shard's health and rebalance away from any
    /// that degraded: a shard whose healthy-device fraction is at or
    /// below `degrade_below` (or zero) leaves the routing ring, and each
    /// tenant it owned migrates to its new ring successor — backlog
    /// drained and re-submitted, state bytes charged to the interconnect,
    /// `ShardDegraded` / `TenantMigrated` events emitted. Returns the
    /// shards degraded by this call.
    pub fn check_health(&self) -> Vec<usize> {
        let mut newly = Vec::new();
        for i in 0..self.shards.len() {
            if self.degraded.lock()[i] {
                continue;
            }
            let ctx = self.shards[i].context();
            let total = ctx.cl().devices().len().max(1);
            let healthy = ctx.healthy_devices().len();
            let fraction = healthy as f64 / total as f64;
            if healthy == 0 || fraction <= self.config.degrade_below {
                self.degrade(i, healthy, total);
                newly.push(i);
            }
        }
        newly
    }

    /// Pull shard `from` out of the ring and migrate its tenants.
    fn degrade(&self, from: usize, healthy: usize, total: usize) {
        let source = &self.shards[from];
        source.context().emit_event(&SchedEvent::ShardDegraded {
            epoch: source.context().current_epoch(),
            shard: from,
            healthy,
            total,
            at: source.now(),
        });
        // Ownership *before* the removal decides who migrates; the ring
        // *after* decides where to. Consistent hashing guarantees only
        // the removed shard's tenants move.
        let owned: Vec<usize> = {
            let mut ring = self.ring.lock();
            let owned = (0..self.config.tenants.len())
                .filter(|t| ring.assign(&self.config.tenants[*t].name) == Some(from))
                .collect();
            ring.remove_shard(from);
            owned
        };
        self.degraded.lock()[from] = true;
        for tenant in owned {
            let Some(to) = self.shard_for(tenant) else {
                // Whole fleet degraded: backlog has nowhere to go; it
                // stays on the dead shard and fails there.
                continue;
            };
            self.migrate(tenant, from, to);
        }
    }

    /// Move one tenant `from → to`: drain the source backlog, charge the
    /// interconnect, re-admit at the destination (its admission control
    /// applies — overflow is shed, exactly like fresh load), emit the
    /// telemetry record.
    fn migrate(&self, tenant: usize, from: usize, to: usize) {
        let drained = self.shards[from].drain_tenant_backlog(tenant);
        let jobs = drained.len() as u64;
        let bytes = self.config.tenant_state_bytes
            + drained.iter().map(|(spec, _)| spec.buffer_bytes()).sum::<u64>();
        let transfer = self.fleet.charge_transfer(from, to, bytes);
        let dest = &self.shards[to];
        for (spec, deadline) in drained {
            let _ = dest.submit_with_deadline(tenant, spec, deadline);
        }
        dest.context().emit_event(&SchedEvent::TenantMigrated {
            epoch: dest.context().current_epoch(),
            tenant: self.config.tenants[tenant].name.clone(),
            from_shard: from,
            to_shard: to,
            jobs,
            bytes,
            transfer,
            at: dest.now(),
        });
        self.migrations.lock().push(Migration { tenant, from, to, jobs, bytes });
    }

    /// Drive a time-sorted arrival schedule through the fleet. Shards
    /// serve concurrently on one shared wall-clock timeline: at each
    /// arrival instant *every* live shard's clock advances to it
    /// (dispatching its backlog along the way), health is re-evaluated on
    /// the configured probe period — so mid-run device losses degrade and
    /// drain their shard at the next probe — and the job is submitted to
    /// its tenant's current ring owner. Fully drains every live shard at the end. Arrival times are
    /// relative to each shard's clock at entry.
    pub fn drive_open(&self, arrivals: &[Arrival]) {
        let bases: Vec<SimTime> = self.shards.iter().map(Served::now).collect();
        let probe_every = self.config.health_check_every.max(1);
        for (idx, a) in arrivals.iter().enumerate() {
            let offset = a.at.saturating_since(SimTime::ZERO);
            let degraded = self.degraded.lock().clone();
            for (i, s) in self.shards.iter().enumerate() {
                if degraded[i] {
                    continue;
                }
                let due = bases[i] + offset;
                // Work off backlog until the shard's clock reaches the
                // arrival. Rounds that only produce retries advance the
                // clock via the earliest backoff expiry, so this always
                // terminates.
                while s.backlog() > 0 && s.now() < due {
                    if s.dispatch_round() == 0 {
                        match s.next_ready_at() {
                            Some(t) if t < due => s.advance_to(t),
                            _ => break,
                        }
                    }
                }
                s.advance_to(due);
            }
            if idx % probe_every == 0 {
                self.check_health();
            }
            let Some(shard) = self.shard_for(a.tenant) else {
                continue; // whole fleet degraded: the arrival is lost load
            };
            let _ = self.shards[shard].submit(a.tenant, a.spec.clone());
        }
        self.check_health();
        let degraded = self.degraded.lock().clone();
        for (s, d) in self.shards.iter().zip(degraded) {
            if !d {
                s.run_until_drained();
            }
        }
    }

    /// The deterministic fleet report: per-shard and per-tenant rollups
    /// plus fleet totals. Latency percentiles aggregate every tenant's
    /// samples across all shards. Byte-identical across same-seed runs —
    /// no wall-clock fields.
    pub fn report(&self) -> Json {
        let cluster = self.fleet.config();
        let mut total_submitted = 0u64;
        let mut total_completed = 0u64;
        let mut total_rejected = 0u64;
        let mut total_failed = 0u64;
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let degraded = self.degraded.lock().clone();
        for (i, s) in self.shards.iter().enumerate() {
            let mut submitted = 0u64;
            let mut completed = 0u64;
            let mut rejected = 0u64;
            let mut failed = 0u64;
            for t in 0..s.tenant_count() {
                let m = s.metrics().tenant(t);
                submitted += m.submitted.get();
                completed += m.completed.get();
                rejected += m.rejected.get();
                failed += m.failed.get();
            }
            total_submitted += submitted;
            total_completed += completed;
            total_rejected += rejected;
            total_failed += failed;
            per_shard.push(Json::obj([
                ("shard", Json::from(i)),
                ("degraded", Json::Bool(degraded[i])),
                ("submitted", Json::from(submitted)),
                ("completed", Json::from(completed)),
                ("rejected", Json::from(rejected)),
                ("failed", Json::from(failed)),
                (
                    "elapsed_virtual_ms",
                    Json::from(s.now().saturating_since(s.serving_since()).as_millis_f64()),
                ),
            ]));
        }
        let mut per_tenant = Vec::with_capacity(self.tenant_count());
        let mut all_latencies: Vec<f64> = Vec::new();
        for t in 0..self.tenant_count() {
            let mut submitted = 0u64;
            let mut completed = 0u64;
            let mut rejected = 0u64;
            let mut failed = 0u64;
            let mut latencies: Vec<f64> = Vec::new();
            for s in &self.shards {
                let m = s.metrics().tenant(t);
                submitted += m.submitted.get();
                completed += m.completed.get();
                rejected += m.rejected.get();
                failed += m.failed.get();
                latencies.extend(s.metrics().latencies_ms(t));
            }
            latencies.sort_by(f64::total_cmp);
            all_latencies.extend_from_slice(&latencies);
            per_tenant.push(Json::obj([
                ("name", Json::from(self.config.tenants[t].name.as_str())),
                ("shard", self.shard_for(t).map_or(Json::Null, Json::from)),
                ("submitted", Json::from(submitted)),
                ("completed", Json::from(completed)),
                ("rejected", Json::from(rejected)),
                ("failed", Json::from(failed)),
                (
                    "latency_ms",
                    Json::obj([
                        ("p50", Json::from(stats::percentile(&latencies, 50.0))),
                        ("p95", Json::from(stats::percentile(&latencies, 95.0))),
                        ("p99", Json::from(stats::percentile(&latencies, 99.0))),
                    ]),
                ),
            ]));
        }
        all_latencies.sort_by(f64::total_cmp);
        // Fleet elapsed: the per-shard serving window frontier. Offered
        // capacity scales with nodes because shards serve concurrently in
        // their own virtual time.
        let elapsed_s = self
            .shards
            .iter()
            .map(|s| s.now().saturating_since(s.serving_since()).as_secs_f64())
            .fold(0.0f64, f64::max)
            .max(1e-12);
        let migrations = self.migrations.lock();
        Json::obj([
            ("cluster", Json::from(cluster.name.as_str())),
            ("nodes", Json::from(cluster.node_count())),
            ("devices", Json::from(cluster.device_count())),
            ("interconnect_gbs", Json::from(self.fleet.interconnect().link.bandwidth_gbs)),
            ("policy", Json::from(self.config.policy.label())),
            ("degraded_shards", Json::num_arr(self.degraded_shards().iter().map(|s| *s as f64))),
            ("migrations", Json::from(migrations.len())),
            ("migrated_bytes", Json::from(migrations.iter().map(|m| m.bytes).sum::<u64>())),
            ("jobs_submitted", Json::from(total_submitted)),
            ("jobs_completed", Json::from(total_completed)),
            ("jobs_rejected", Json::from(total_rejected)),
            ("jobs_failed", Json::from(total_failed)),
            ("elapsed_virtual_s", Json::from(elapsed_s)),
            ("achieved_throughput_jobs_per_s", Json::from(total_completed as f64 / elapsed_s)),
            (
                "latency_ms",
                Json::obj([
                    ("p50", Json::from(stats::percentile(&all_latencies, 50.0))),
                    ("p95", Json::from(stats::percentile(&all_latencies, 95.0))),
                    ("p99", Json::from(stats::percentile(&all_latencies, 99.0))),
                ]),
            ),
            ("per_shard", Json::Arr(per_shard)),
            ("per_tenant", Json::Arr(per_tenant)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{open_arrivals, templates, LoadgenConfig};
    use hwsim::{ClusterConfig, DeviceId, FaultPlan, SimDuration};

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("tenant-{i}")).collect()
    }

    #[test]
    fn ring_assignment_is_deterministic_across_builds() {
        let a = HashRing::with_shards(5, 64);
        let b = HashRing::with_shards(5, 64);
        for k in keys(100) {
            assert_eq!(a.assign(&k), b.assign(&k));
            // The fixed hash pins assignments across processes too: they
            // depend only on the key and the ring contents.
        }
        // Spot-pin a few values so a hash change cannot slip by unnoticed.
        assert!(a.assign("tenant-0").is_some());
        assert_eq!(a.assign("tenant-0"), a.assign("tenant-0"));
    }

    #[test]
    fn ring_spreads_keys_over_all_shards() {
        let ring = HashRing::with_shards(4, 64);
        let mut counts = [0usize; 4];
        for k in keys(400) {
            counts[ring.assign(&k).unwrap()] += 1;
        }
        for (shard, c) in counts.iter().enumerate() {
            assert!(*c > 0, "shard {shard} got no keys: {counts:?}");
        }
    }

    #[test]
    fn shard_join_moves_at_most_its_expected_share() {
        let k = 400;
        let before = HashRing::with_shards(4, 64);
        let mut after = before.clone();
        after.add_shard(4);
        let mut moved = 0;
        for key in keys(k) {
            let (a, b) = (before.assign(&key).unwrap(), after.assign(&key).unwrap());
            if a != b {
                moved += 1;
                // Consistent hashing: a join only *steals* keys — every
                // moved key lands on the new shard.
                assert_eq!(b, 4, "key {key} moved {a}→{b}, not to the joining shard");
            }
        }
        // Expected movement is K/N = 80 of 400; allow 2x slack for hash
        // variance at 64 replicas.
        assert!(moved > 0, "a joining shard must receive keys");
        assert!(moved <= 2 * k / 5, "moved {moved} of {k} keys on join");
    }

    #[test]
    fn shard_leave_moves_only_its_own_keys() {
        let k = 400;
        let before = HashRing::with_shards(5, 64);
        let mut after = before.clone();
        after.remove_shard(2);
        let mut moved = 0;
        for key in keys(k) {
            let a = before.assign(&key).unwrap();
            let b = after.assign(&key).unwrap();
            assert_ne!(b, 2, "removed shard still owns {key}");
            if a != b {
                moved += 1;
                assert_eq!(a, 2, "key {key} moved {a}→{b} but its shard never left");
            }
        }
        assert!(moved <= 2 * k / 5, "moved {moved} of {k} keys on leave");
    }

    #[test]
    fn every_key_has_exactly_one_owner_on_the_ring() {
        let ring = HashRing::with_shards(6, 32);
        for key in keys(200) {
            let owner = ring.assign(&key).unwrap();
            assert!(ring.contains(owner), "owner {owner} of {key} is off-ring");
            // `assign` is a function of (ring, key): re-asking cannot
            // yield a different shard, so no two shards claim the key.
            assert_eq!(ring.assign(&key), Some(owner));
        }
        assert_eq!(HashRing::new(8).assign("anything"), None);
    }

    #[test]
    fn ring_ops_are_idempotent() {
        let mut ring = HashRing::with_shards(3, 16);
        let points = ring.points.len();
        ring.add_shard(1);
        assert_eq!(ring.points.len(), points);
        ring.remove_shard(7);
        assert_eq!(ring.shard_count(), 3);
        ring.remove_shard(0);
        ring.remove_shard(0);
        assert_eq!(ring.shard_count(), 2);
        assert_eq!(ring.points.len(), 2 * points / 3);
    }

    fn test_cluster(tag: &str, n: usize, victim_fault: Option<(usize, SimTime)>) -> ClusterService {
        let fleet = match victim_fault {
            Some((victim, at)) => {
                let mut rts = vec![clrt::RuntimeConfig::default(); n];
                let mut plan = FaultPlan::new(7);
                for d in 0..3 {
                    plan = plan.lose_device(DeviceId(d), at);
                }
                rts[victim].fault_plan = Some(plan);
                Fleet::with_configs(ClusterConfig::paper_cluster(n), rts)
            }
            None => Fleet::new(ClusterConfig::paper_cluster(n)),
        };
        let tenants = (0..4).map(|i| TenantConfig::new(format!("t{i}"), 1, 16)).collect();
        let dir = std::env::temp_dir()
            .join(format!("multicl_cluster_test_{tag}_{}_{n}", std::process::id()));
        ClusterService::new(fleet, ClusterServiceConfig::new(3, tenants), &dir, Vec::new())
            .expect("cluster builds")
    }

    #[test]
    fn cluster_routes_and_serves_across_shards() {
        let cluster = test_cluster("routes", 3, None);
        cluster.warm(&templates()).unwrap();
        let cfg = LoadgenConfig { jobs: 24, tenants: 4, ..LoadgenConfig::default() };
        cluster.drive_open(&open_arrivals(&cfg));
        let report = cluster.report();
        assert_eq!(report.get("jobs_submitted").unwrap().as_u64(), Some(24));
        let completed = report.get("jobs_completed").unwrap().as_u64().unwrap();
        assert!(completed > 0);
        assert!(cluster.degraded_shards().is_empty());
        assert!(cluster.migrations().is_empty());
        // Every tenant is routed to the shard the ring names.
        for t in 0..cluster.tenant_count() {
            let shard = cluster.shard_for(t).unwrap();
            assert!(shard < cluster.shard_count());
        }
        // An index that names no tenant is routed nowhere and refused.
        assert_eq!(cluster.shard_for(4), None);
        assert_eq!(
            cluster.submit(4, templates()[0].clone()),
            Err(RejectReason::UnknownTenant { tenant: 4, tenants: 4 })
        );
    }

    #[test]
    fn degraded_shard_leaves_ring_and_its_tenants_migrate() {
        // Losses must land *after* warm-up and *inside* the arrival
        // schedule. Warm-up's virtual cost is deterministic but config-
        // dependent, so measure it: one throwaway cluster populates the
        // profile cache, a second (now cache-hot, like the real one
        // below) reports where warm-up ends.
        let prewarm = test_cluster("degrade", 3, None);
        prewarm.warm(&templates()).unwrap();
        let probe = test_cluster("degrade", 3, None);
        probe.warm(&templates()).unwrap();
        let loss_at = probe.shard(0).now() + SimDuration::from_millis(40);
        drop((prewarm, probe));

        let cluster = test_cluster("degrade", 3, Some((0, loss_at)));
        cluster.warm(&templates()).unwrap();
        // Find a tenant owned by the victim shard and park backlog on it.
        let victim_tenant = (0..cluster.tenant_count()).find(|t| cluster.shard_for(*t) == Some(0));
        let cfg = LoadgenConfig { jobs: 36, tenants: 4, ..LoadgenConfig::default() };
        cluster.drive_open(&open_arrivals(&cfg));
        assert_eq!(cluster.degraded_shards(), vec![0], "victim shard must degrade");
        assert!(cluster.shard_for(0).is_some(), "survivors keep serving");
        for t in 0..cluster.tenant_count() {
            assert_ne!(cluster.shard_for(t), Some(0), "no tenant may stay on the dead shard");
        }
        if victim_tenant.is_some() {
            let migs = cluster.migrations();
            assert!(!migs.is_empty(), "owned tenants must migrate");
            for m in &migs {
                assert_eq!(m.from, 0);
                assert_ne!(m.to, 0);
            }
        }
        let report = cluster.report();
        assert!(report.get("jobs_completed").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn migration_drains_queued_backlog_to_the_destination_shard() {
        // Kill the victim's devices almost immediately, park jobs on its
        // queues *before* any health probe, then advance its clock past
        // the loss and probe: the migration must carry the queued jobs to
        // the new owner, where they are re-admitted and complete.
        let loss_at = SimTime::ZERO + SimDuration::from_micros(1);
        let cluster = test_cluster("drain", 2, Some((0, loss_at)));
        let Some(tenant) = (0..cluster.tenant_count()).find(|t| cluster.shard_for(*t) == Some(0))
        else {
            panic!("no tenant hashed onto shard 0; pick different tenant names");
        };
        let spec = templates()[0].clone();
        for _ in 0..3 {
            cluster.submit(tenant, spec.clone()).expect("victim admits before the probe");
        }
        assert_eq!(cluster.shard(0).backlog(), 3);
        cluster.shard(0).advance_to(loss_at + SimDuration::from_micros(1));
        assert_eq!(cluster.check_health(), vec![0]);
        let migs = cluster.migrations();
        let moved = migs.iter().find(|m| m.tenant == tenant).expect("owned tenant migrated");
        assert_eq!(moved.jobs, 3, "queued backlog must ride the migration");
        assert!(
            moved.bytes > 3 * spec.buffer_bytes(),
            "migration bytes must include job state on top of tenant state"
        );
        assert_eq!(cluster.shard(0).backlog(), 0, "source queue must be drained");
        assert_eq!(cluster.shard(moved.to).backlog(), 3, "destination re-admits the jobs");
        cluster.shard(moved.to).run_until_drained();
        assert_eq!(cluster.shard(moved.to).metrics().tenant(tenant).completed.get(), 3);
    }

    #[test]
    fn same_seed_cluster_reports_are_byte_identical() {
        let run = || {
            let cluster = test_cluster("bytes", 2, None);
            cluster.warm(&templates()).unwrap();
            let cfg = LoadgenConfig { jobs: 16, tenants: 4, ..LoadgenConfig::default() };
            cluster.drive_open(&open_arrivals(&cfg));
            cluster.report().dump()
        };
        assert_eq!(run(), run());
    }
}
