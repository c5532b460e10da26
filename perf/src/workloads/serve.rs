//! `serve_light` and `serve_mix` — open-loop Poisson load on `served`:
//! 4 tenants × capacity 8, 4 workers, `AUTO_FIT`, seeded arrivals scheduled
//! on the *virtual* clock (so the generator is never late in host time).
//!
//! `serve_light` shrinks the three `loadgen::templates()` to one-workgroup
//! launches over 256-element buffers, so kernel bodies cost next to nothing
//! and wall time *is* the runtime's own per-job cost. It offers 24 000
//! virtual jobs/s (about a third of the node's capacity: no refusals), mixes
//! in-order / `out_of_order` / `splittable` jobs 60/20/20 so all three flush
//! paths run, and attaches the product's telemetry as an operator would (a
//! ring buffer and a JSONL writer). It is where a cheaper scheduler pass,
//! flush path or sink must show.
//!
//! `serve_light`'s arrivals come in bursts of one job per tenant. With
//! independent arrivals most rounds hold a single job, which always lands on
//! worker slot 0, and the whole run then turns on which device that one
//! queue happens to be bound to — bindings are sticky (a job's input is
//! written to the queue's current device before the mapper runs) and flip a
//! handful of times in 12 000 jobs, so median latency came out at 23 µs or
//! 65 µs depending on the seed, and host cost per job moved 10 % with it.
//! Bursts fill all four slots every round and take that coin toss out.
//!
//! `serve_mix` keeps the templates as they are (each kernel carries a
//! 0.07–10 ms device-latency stand-in), in-order only, no sinks, offered at
//! 27 000 virtual jobs/s — about twice capacity, so admission refuses about
//! half and every round is a full batch. Wall time is bound by kernel-body
//! waits that only data-plane overlap can hide, so a `serve_light`
//! optimisation predicts *no change* here, while executor and dispatcher
//! changes do; its goodput is the capacity plateau.
//!
//! Op = request = one completed job. Latency is counted from the instant
//! the arrival was due, not from when `submit` ran.

use super::{Env, Pass, Scale, Window};
use crate::spans::Tracer;
use hwsim::xrand::XorShift;
use hwsim::{SimDuration, SimTime};
use multicl::telemetry::{JsonlSink, RingBufferSink};
use multicl::SchedObserver;
use served::loadgen::{templates, Arrival};
use served::service::warmed_options;
use served::spec::StepOp;
use served::{
    JobResult, JobSpec, RetryPolicy, ServePolicy, Served, ServiceConfig, SloConfig, TenantConfig,
};
use std::collections::HashMap;
use std::sync::Arc;

const TENANTS: usize = 4;
const TENANT_CAPACITY: usize = 8;
const WORKERS: usize = 4;
/// Events the operator's ring buffer keeps (`serve_light` only).
const RING_CAPACITY: usize = 1 << 16;

/// What distinguishes the two serving workloads.
pub struct ServeSpec {
    pub jobs: usize,
    pub rate_hz: f64,
    /// Jobs per arrival instant: 1 = independent arrivals to a random
    /// tenant, `TENANTS` = bursts of one job for each tenant.
    pub burst: usize,
    /// Shrunk templates, the 60/20/20 mode mix and the telemetry sinks.
    pub light: bool,
}

pub const LIGHT: ServeSpec =
    ServeSpec { jobs: 24_000, rate_hz: 24_000.0, burst: TENANTS, light: true };
pub const MIX: ServeSpec = ServeSpec { jobs: 2_000, rate_hz: 27_000.0, burst: 1, light: false };

/// The job templates: `loadgen::templates()`, for `serve_light` cut down to
/// one 64-item workgroup per launch over 256-element buffers.
pub fn pool(spec: &ServeSpec) -> Vec<JobSpec> {
    let mut pool = templates();
    if spec.light {
        for job in &mut pool {
            for buffer in &mut job.buffers {
                buffer.elements = 256;
            }
            for step in &mut job.steps {
                if let StepOp::Launch { global, local, .. } = &mut step.op {
                    (*global, *local) = (64, 64);
                }
            }
        }
    }
    pool
}

/// The seeded arrival schedule: a Poisson process of arrival instants
/// conditioned on its count — exponential gaps, rescaled so the last of
/// `jobs` arrivals is due at `jobs / rate_hz` and every seed offers exactly
/// the stated load — each instant bringing `burst` jobs (one per tenant, or
/// one for a random tenant), with a uniform template and for `serve_light`
/// a 60/20/20 draw of in-order / out-of-order / splittable execution.
pub fn arrivals(spec: &ServeSpec, seed: u64, jobs: usize) -> Vec<Arrival> {
    let mut rng = XorShift::new(seed);
    let pool = pool(spec);
    let mut at_s = 0.0;
    let mut arrivals: Vec<(f64, Arrival)> = (0..jobs)
        .map(|i| {
            if i % spec.burst == 0 {
                at_s += rng.exp_f64(spec.rate_hz / spec.burst as f64);
            }
            let tenant = if spec.burst == 1 { rng.index(TENANTS) } else { i % spec.burst };
            let mut job = pool[rng.index(pool.len())].clone();
            if spec.light {
                match rng.index(10) {
                    0..=5 => {}
                    6..=7 => job.out_of_order = true,
                    _ => job.splittable = true,
                }
            }
            (at_s, Arrival { at: SimTime::ZERO, tenant, spec: job })
        })
        .collect();
    let scale = jobs as f64 / spec.rate_hz / at_s;
    for (drawn_s, arrival) in &mut arrivals {
        arrival.at = SimTime::ZERO + SimDuration::from_secs_f64(*drawn_s * scale);
    }
    arrivals.into_iter().map(|(_, arrival)| arrival).collect()
}

/// What the drive loop saw from outside.
struct Driven {
    /// Job id `submit` returned per arrival (`None` = refused).
    ids: Vec<Option<u64>>,
    /// `dispatch_round` calls that dispatched something.
    rounds: u64,
}

/// `loadgen::drive_open`, with the calls into `served` wrapped for the
/// tracer: admit everything due, dispatch while there is backlog, jump the
/// virtual clock to the next arrival (or retry) when idle, drain at the end.
fn drive(served: &Served, arrivals: &[Arrival], tracer: Option<&Arc<Tracer>>) -> Driven {
    let mut driven = Driven { ids: Vec::with_capacity(arrivals.len()), rounds: 0 };
    let base = served.now();
    let due = |a: &Arrival| base + a.at.saturating_since(SimTime::ZERO);
    let round = |driven: &mut Driven| {
        if let Some(t) = tracer {
            t.enter("dispatch_round");
        }
        let terminal = served.dispatch_round();
        if let Some(t) = tracer {
            t.exit();
        }
        driven.rounds += u64::from(terminal > 0);
        terminal
    };
    let mut next = 0;
    while next < arrivals.len() {
        while next < arrivals.len() && due(&arrivals[next]) <= served.now() {
            let a = &arrivals[next];
            if let Some(t) = tracer {
                t.enter("submit");
            }
            let id = served.submit(a.tenant, a.spec.clone()).ok();
            if let Some(t) = tracer {
                t.exit();
            }
            driven.ids.push(id);
            next += 1;
        }
        if served.backlog() > 0 {
            if round(&mut driven) == 0 {
                // Everything queued is inside a retry backoff window.
                let mut target = served.next_ready_at();
                if let Some(a) = arrivals.get(next) {
                    target = Some(target.map_or(due(a), |t| t.min(due(a))));
                }
                if let Some(t) = target {
                    served.advance_to(t);
                }
            }
        } else if let Some(a) = arrivals.get(next) {
            served.advance_to(due(a));
        }
    }
    while served.backlog() > 0 {
        round(&mut driven);
        if let Some(t) = served.next_ready_at() {
            served.advance_to(t);
        }
    }
    driven
}

pub fn pass(spec: &ServeSpec, env: &Env, scale: Scale, tracer: Option<&Arc<Tracer>>) -> Pass {
    pass_observed(spec, env, scale, tracer, None)
}

/// [`pass`] with one more observer attached after the workload's own (the
/// telemetry probes capture their replay stream this way).
pub fn pass_observed(
    spec: &ServeSpec,
    env: &Env,
    scale: Scale,
    tracer: Option<&Arc<Tracer>>,
    capture: Option<Arc<dyn SchedObserver>>,
) -> Pass {
    let jobs = match scale {
        Scale::Full => spec.jobs,
        Scale::Quick => spec.jobs / 20,
    };
    let platform = env.platform();
    let mut options = warmed_options(&platform, &env.cache_dir);
    let ring = spec.light.then(|| Arc::new(RingBufferSink::new(RING_CAPACITY)));
    if let Some(ring) = &ring {
        options.observers.push(Arc::clone(ring) as Arc<dyn SchedObserver>);
        options.observers.push(Arc::new(JsonlSink::new(std::io::sink())));
    }
    if let Some(t) = tracer {
        options.observers.push(Arc::clone(t) as Arc<dyn SchedObserver>);
    }
    options.observers.extend(capture);
    let tenants =
        (0..TENANTS).map(|i| TenantConfig::new(format!("t{i}"), 1, TENANT_CAPACITY)).collect();
    let served = Served::new(
        &platform,
        ServiceConfig {
            policy: ServePolicy::AutoFit,
            workers: WORKERS,
            tenants,
            options,
            retry: RetryPolicy::default(),
            slo: Some(SloConfig::default()),
        },
    )
    .expect("service over the seeded node");
    served.warm_programs(&pool(spec)).expect("template programs build");
    // Warm-up events are start-up, not serving: the tracer starts clean.
    if let Some(t) = tracer {
        t.take();
    }
    let arrivals = arrivals(spec, env.seed, jobs);
    let base = served.now();

    let mut window = Window::new();
    window.start();
    let driven = drive(&served, &arrivals, tracer);
    window.stop();

    let mut pass = Pass { wall: window.wall, host: window.host, ..Pass::default() };
    let outcomes = served.outcomes();
    let arrival_of: HashMap<u64, usize> =
        driven.ids.iter().enumerate().filter_map(|(i, id)| id.map(|id| (id, i))).collect();
    let refused = driven.ids.iter().filter(|id| id.is_none()).count() as u64;
    let mut terminal = vec![0u32; arrivals.len()];
    let mut lag_ms = 0.0;
    let mut failed = 0u64;
    for o in &outcomes {
        let Some(&i) = arrival_of.get(&o.id) else {
            pass.errors.push(format!("outcome for job {} that was never admitted", o.id));
            continue;
        };
        terminal[i] += 1;
        let due = base + arrivals[i].at.saturating_since(SimTime::ZERO);
        match o.result {
            JobResult::Completed => {
                pass.ops += 1;
                pass.virt_latencies_ms.push(o.completed_at.saturating_since(due).as_millis_f64());
                lag_ms += o.submitted_at.saturating_since(due).as_millis_f64();
            }
            JobResult::Failed(_) => failed += 1,
        }
    }
    // Conservation: every submission is refused or reaches exactly one
    // terminal outcome.
    let wrong = driven
        .ids
        .iter()
        .zip(&terminal)
        .filter(|(id, &outcomes)| outcomes != u32::from(id.is_some()))
        .count();
    if wrong > 0 {
        pass.errors.push(format!("{wrong} job(s) without exactly one terminal outcome"));
    }
    if pass.ops + failed + refused != arrivals.len() as u64 {
        pass.errors.push(format!(
            "conservation: {} submitted != {} completed + {failed} failed + {refused} refused",
            arrivals.len(),
            pass.ops
        ));
    }
    let tenant_metrics = || (0..TENANTS).map(|i| served.metrics().tenant(i));
    let rejected: u64 = tenant_metrics().map(|m| m.rejected.get()).sum();
    let retried: u64 = tenant_metrics().map(|m| m.retried.get()).sum();
    if rejected != refused {
        pass.errors.push(format!("service counted {rejected} rejections, driver saw {refused}"));
    }
    pass.attempted = arrivals.len() as u64;
    // `serve_light` is sized for zero refusals; on `serve_mix` refusal is
    // the designed answer to overload and shows in goodput instead.
    pass.failed = failed + if spec.light { refused } else { 0 };
    pass.virt_makespan_ms = served.now().saturating_since(served.serving_since()).as_millis_f64();

    pass.layer.add_sched(&served.context().stats());
    pass.layer.add_plane(&platform);
    pass.digest.absorb(&platform);
    let completed = pass.ops.max(1) as f64;
    let extra = &mut pass.layer.extra;
    extra.insert("served.rounds".into(), driven.rounds as f64);
    extra.insert("served.jobs_per_round".into(), completed / driven.rounds.max(1) as f64);
    extra.insert("served.rejected".into(), rejected as f64);
    extra.insert("served.retried".into(), retried as f64);
    extra.insert("bench.loadgen_lag_virt_ms".into(), lag_ms / completed);
    if let Some(ring) = &ring {
        extra.insert("telemetry.ring_dropped".into(), ring.dropped() as f64);
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modes(arrivals: &[Arrival]) -> (usize, usize, usize) {
        let ooo = arrivals.iter().filter(|a| a.spec.out_of_order).count();
        let split = arrivals.iter().filter(|a| a.spec.splittable).count();
        (arrivals.len() - ooo - split, ooo, split)
    }

    #[test]
    fn same_seed_same_arrivals_and_mode_mix() {
        assert_eq!(arrivals(&LIGHT, 7, 500), arrivals(&LIGHT, 7, 500));
        assert_eq!(arrivals(&MIX, 7, 500), arrivals(&MIX, 7, 500));
    }

    #[test]
    fn different_seeds_diverge() {
        let (a, b) = (arrivals(&LIGHT, 7, 500), arrivals(&LIGHT, 8, 500));
        assert_ne!(a, b);
        assert_ne!(a[0].at, b[0].at);
    }

    #[test]
    fn light_mix_is_sixty_twenty_twenty_and_mix_is_in_order_only() {
        let (plain, ooo, split) = modes(&arrivals(&LIGHT, 3, 10_000));
        assert!((5_800..6_200).contains(&plain), "{plain}");
        assert!((1_800..2_200).contains(&ooo), "{ooo}");
        assert!((1_800..2_200).contains(&split), "{split}");
        assert_eq!(modes(&arrivals(&MIX, 3, 1_000)), (1_000, 0, 0));
    }

    #[test]
    fn light_templates_are_one_workgroup_and_every_job_validates() {
        for a in arrivals(&LIGHT, 5, 200) {
            a.spec.validate().expect("generated job is valid");
            assert!(a.spec.buffers.iter().all(|b| b.elements == 256));
            for step in &a.spec.steps {
                if let StepOp::Launch { global, local, .. } = &step.op {
                    assert_eq!((*global, *local), (64, 64));
                }
            }
        }
        assert_eq!(pool(&MIX), templates());
    }

    #[test]
    fn arrival_times_follow_the_offered_rate() {
        let a = arrivals(&LIGHT, 9, 10_000);
        let span_s = a.last().unwrap().at.saturating_since(SimTime::ZERO).as_secs_f64();
        let rate = a.len() as f64 / span_s;
        assert!(
            (rate / LIGHT.rate_hz - 1.0).abs() < 1e-6,
            "every seed offers exactly the rate: {rate}"
        );
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn light_arrives_in_bursts_of_one_job_per_tenant_and_mix_one_by_one() {
        for burst in arrivals(&LIGHT, 4, 400).chunks(TENANTS) {
            assert!(burst.iter().all(|a| a.at == burst[0].at));
            let tenants: Vec<usize> = burst.iter().map(|a| a.tenant).collect();
            assert_eq!(tenants, [0, 1, 2, 3]);
        }
        let mix = arrivals(&MIX, 4, 400);
        assert!(mix.windows(2).all(|w| w[0].at < w[1].at));
        assert!((0..TENANTS).all(|t| mix.iter().any(|a| a.tenant == t)));
    }
}
