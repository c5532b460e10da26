//! End-to-end tests of the job service: determinism, admission control,
//! weighted fairness, telemetry coverage, and thread-safe submission.

use clrt::{Platform, RuntimeConfig};
use hwsim::{FaultPlan, SimDuration};
use multicl::telemetry::{RingBufferSink, SchedEvent, SegmentKind, SegmentSet};
use served::loadgen::{self, LoadgenConfig};
use served::service::warmed_options;
use served::{
    FailReason, JobResult, RejectReason, ServePolicy, Served, ServiceConfig, TenantConfig,
};
use std::path::PathBuf;
use std::sync::Arc;

/// A per-test scratch profile-cache directory.
fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("served-test-{tag}-{}", std::process::id()))
}

/// A small service with uniform tenants, for direct-submission tests.
fn small_service(tag: &str, workers: usize, tenants: Vec<TenantConfig>) -> Served {
    let platform = Platform::paper_node();
    let options = warmed_options(&platform, scratch_dir(tag));
    Served::new(
        &platform,
        ServiceConfig {
            policy: ServePolicy::AutoFit,
            workers,
            tenants,
            options,
            retry: served::RetryPolicy::default(),
            slo: Some(served::SloConfig::default()),
        },
    )
    .expect("service builds")
}

/// One per-tenant counter summed over every tenant of `served`.
fn tenant_total(served: &Served, get: fn(&served::metrics::TenantMetrics) -> u64) -> u64 {
    (0..served.tenant_count()).map(|i| get(served.metrics().tenant(i))).sum()
}

#[test]
fn open_loop_runs_are_identical_across_cache_states() {
    let cfg = LoadgenConfig {
        seed: 11,
        tenants: 3,
        jobs: 18,
        rate_hz: 3000.0,
        workers: 3,
        ..LoadgenConfig::default()
    };
    let dir = scratch_dir("det");
    // Cold cache: the device profile is measured on a scratch platform.
    let _ = std::fs::remove_dir_all(&dir);
    let (first, arrivals_a) = loadgen::run(&cfg, &dir).expect("cold run");
    // Warm cache: the profile loads from disk. The virtual timeline and
    // every outcome must be unchanged.
    let (second, arrivals_b) = loadgen::run(&cfg, &dir).expect("warm run");
    assert_eq!(arrivals_a, arrivals_b, "arrival schedule is seed-determined");
    assert_eq!(first.outcomes(), second.outcomes(), "outcomes identical cold vs warm");
    assert_eq!(
        loadgen::report_json(&first, &cfg).dump(),
        loadgen::report_json(&second, &cfg).dump(),
        "reports identical cold vs warm"
    );
    assert!(!first.outcomes().is_empty());
}

#[test]
fn different_seeds_change_the_schedule() {
    let dir = scratch_dir("seeds");
    let a = loadgen::open_arrivals(&LoadgenConfig { seed: 1, ..LoadgenConfig::default() });
    let b = loadgen::open_arrivals(&LoadgenConfig { seed: 2, ..LoadgenConfig::default() });
    assert_ne!(a, b);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn queue_full_submissions_are_rejected_with_reason() {
    let served = small_service("reject", 2, vec![TenantConfig::new("a", 1, 2)]);
    let spec = loadgen::templates()[0].clone();
    assert!(served.submit(0, spec.clone()).is_ok());
    assert!(served.submit(0, spec.clone()).is_ok());
    match served.submit(0, spec.clone()) {
        Err(RejectReason::QueueFull { depth, capacity }) => {
            assert_eq!((depth, capacity), (2, 2));
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let m = served.metrics().tenant(0);
    assert_eq!(m.submitted.get(), 3);
    assert_eq!(m.admitted.get(), 2);
    assert_eq!(m.rejected.get(), 1);
    assert_eq!(m.depth.get(), 2.0);
    // Draining frees capacity again.
    served.run_until_drained();
    assert_eq!(m.completed.get(), 2);
    assert!(served.submit(0, spec).is_ok());
}

#[test]
fn invalid_specs_are_rejected_before_queueing() {
    let served = small_service("invalid", 1, vec![TenantConfig::new("a", 1, 4)]);
    let mut spec = loadgen::templates()[0].clone();
    spec.buffers.clear(); // steps now reference unknown buffers
    match served.submit(0, spec) {
        Err(RejectReason::InvalidSpec(_)) => {}
        other => panic!("expected InvalidSpec, got {other:?}"),
    }
    assert_eq!(served.metrics().tenant(0).rejected.get(), 1);
    assert_eq!(served.backlog(), 0);
}

/// A job spec shares its template's body, which keeps what its first check
/// found. A clone written into a cycle, or to name a buffer the template
/// does not declare, is a body of its own: admission checks it and refuses
/// it after the original's check was kept, and the original is still
/// admitted and runs.
#[test]
fn a_mutated_clone_of_a_checked_template_is_checked_anew() {
    use served::spec::{SpecError, StepOp};
    let served = small_service("mutated-clone", 1, vec![TenantConfig::new("a", 1, 4)]);
    let template = loadgen::templates().into_iter().find(|t| &*t.name == "svc_mixed").unwrap();
    served.submit(0, template.clone()).expect("the template is admitted");
    let mut cyclic = template.clone();
    let last = cyclic.steps[3].id.clone();
    cyclic.steps[0].after.push(last);
    let mut unknown = template.clone();
    if let StepOp::Launch { args, .. } = &mut unknown.steps[2].op {
        args[1] = "ghost".into();
    }
    let invalid = |e| Err(RejectReason::InvalidSpec(e));
    assert_eq!(served.submit(0, cyclic), invalid(SpecError::Cycle("in_u".into())));
    let ghost = SpecError::UnknownRef { step: "g".into(), name: "ghost".into() };
    assert_eq!(served.submit(0, unknown), invalid(ghost));
    served.submit(0, template).expect("the original is still admitted");
    served.run_until_drained();
    let m = served.metrics().tenant(0);
    assert_eq!((m.completed.get(), m.rejected.get()), (2, 2));
}

/// A one-launch job of `global` items declaring `flops` and `bytes` per
/// item.
fn work_spec(flops: f64, bytes: f64, global: u64) -> String {
    format!(
        r#"{{"name": "work",
            "buffers": [{{"name": "a", "elements": 1024}}],
            "kernels": [{{"name": "work_k", "flops_per_item": {flops:?}, "bytes_per_item": {bytes:?}}}],
            "steps": [{{"op": "launch", "kernel": "work_k", "global": {global}, "local": 64,
                        "args": ["a"]}}]}}"#
    )
}

#[test]
fn a_launch_declaring_more_work_than_its_bound_is_refused_and_issues_nothing() {
    use served::spec::{SpecError, StepOp, MAX_LAUNCH_BYTES, MAX_LAUNCH_FLOPS};
    let served = small_service("huge-work", 1, vec![TenantConfig::new("a", 1, 8)]);
    let issued = || served.context().stats().kernels_issued;
    let before = issued();
    // 1e300 in each field, each bound over 1 024 items just past it, and a
    // launch of no declared work whose items alone (one flop each, as the
    // kernel counts them) pass the flop bound.
    let past = |most: f64| most / 1024.0 * (1.0 + 1e-9);
    let huge = [
        (1e300, 8.0, 1024),
        (8.0, 1e300, 1024),
        (past(MAX_LAUNCH_FLOPS), 8.0, 1024),
        (8.0, past(MAX_LAUNCH_BYTES), 1024),
        (0.0, 0.0, MAX_LAUNCH_FLOPS as u64 + 64),
    ];
    for (flops, bytes, global) in huge {
        let err = served::JobSpec::parse_str(&work_spec(flops, bytes, global));
        assert!(matches!(err, Err(SpecError::Invalid(_))), "{flops} {bytes} {global}: {err:?}");
        // A spec built in code reaches admission without parsing.
        let mut spec =
            served::JobSpec::parse_str(&work_spec(8.0, 8.0, 1024)).expect("a small launch");
        (spec.kernels[0].cost.flops_per_item, spec.kernels[0].cost.bytes_per_item) = (flops, bytes);
        if let StepOp::Launch { global: g, .. } = &mut spec.steps[0].op {
            *g = global;
        }
        match served.submit(0, spec) {
            Err(RejectReason::InvalidSpec(SpecError::Invalid(_))) => {}
            other => panic!("{flops} {bytes} {global}: expected InvalidSpec, got {other:?}"),
        }
    }
    served.run_until_drained();
    assert_eq!(served.metrics().tenant(0).rejected.get(), huge.len() as u64);
    assert_eq!((served.backlog(), issued()), (0, before));
    // At the bounds themselves, and every stock template, admitted.
    for (flops, bytes) in [(MAX_LAUNCH_FLOPS / 1024.0, 8.0), (8.0, MAX_LAUNCH_BYTES / 1024.0)] {
        let at = served::JobSpec::parse_str(&work_spec(flops, bytes, 1024));
        assert!(at.is_ok(), "{at:?}");
    }
    for spec in loadgen::templates() {
        served.submit(0, spec).expect("a stock template is admitted");
    }
    served.run_until_drained();
    assert_eq!(served.metrics().tenant(0).completed.get(), 3);
}

/// A one-launch job over one buffer of `elements` f64s.
fn one_buffer_spec(elements: u64) -> Result<served::JobSpec, served::spec::SpecError> {
    served::JobSpec::parse_str(&format!(
        r#"{{"name": "big",
            "buffers": [{{"name": "a", "elements": {elements}}}],
            "kernels": [{{"name": "big_k", "flops_per_item": 8.0, "bytes_per_item": 8.0}}],
            "steps": [{{"op": "launch", "kernel": "big_k", "global": 64, "local": 64,
                        "args": ["a"]}}]}}"#
    ))
}

#[test]
fn buffers_no_device_can_hold_are_rejected_at_admission() {
    let recorder = Arc::new(RingBufferSink::new(256));
    let platform = Platform::paper_node();
    let mut options = warmed_options(&platform, scratch_dir("oversize"));
    options.observers = vec![recorder.clone()];
    let config = ServiceConfig {
        options,
        ..ServiceConfig::new(ServePolicy::AutoFit, 1, vec![TenantConfig::new("a", 1, 4)])
    };
    let served = Served::new(&platform, config).expect("service builds");
    // 64 GiB: twice the CPU's memory, the node's largest. And an element
    // count whose byte size does not fit a `usize` at all.
    for elements in [8_589_934_592, 1 << 62] {
        let spec = one_buffer_spec(elements).expect("the spec itself is well-formed");
        match served.submit(0, spec) {
            Err(RejectReason::BufferTooLarge { buffer, elements: e, limit }) => {
                assert_eq!((buffer.as_str(), e as u64, limit), ("a", elements, 32 << 30));
            }
            other => panic!("expected BufferTooLarge for {elements} elements, got {other:?}"),
        }
    }
    // Counted and announced like any other rejection; nothing queued, so
    // nothing is left for a dispatch round to trip over.
    let m = served.metrics().tenant(0);
    assert_eq!((m.submitted.get(), m.admitted.get(), m.rejected.get()), (2, 0, 2));
    assert_eq!(served.backlog(), 0);
    assert_eq!(served.dispatch_round(), 0);
    let rejected: Vec<std::sync::Arc<str>> = recorder
        .snapshot()
        .iter()
        .filter_map(|e| match e {
            multicl::SchedEvent::JobRejected { reason, .. } => Some(reason.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(rejected.len(), 2);
    assert!(rejected.iter().all(|r| r.starts_with("buffer_too_large `a`")), "{rejected:?}");
    // The largest buffer the node does hold is admitted.
    let fits = one_buffer_spec((32u64 << 30) / 8).unwrap();
    assert_eq!(served.submit(0, fits).map(|_| ()), Ok(()));
}

#[test]
fn unknown_tenant_index_is_a_typed_rejection() {
    let served = small_service("no-tenant", 1, vec![TenantConfig::new("a", 1, 4)]);
    let spec = loadgen::templates()[0].clone();
    assert_eq!(
        served.submit(7, spec.clone()),
        Err(RejectReason::UnknownTenant { tenant: 7, tenants: 1 })
    );
    assert_eq!(
        served.submit_with_deadline(1, spec.clone(), Some(served.now())),
        Err(RejectReason::UnknownTenant { tenant: 1, tenants: 1 })
    );
    // No job id was spent, nothing was counted against a real tenant.
    assert_eq!(served.metrics().tenant(0).submitted.get(), 0);
    assert_eq!(served.submit(0, spec), Ok(1));
}

#[test]
fn jobs_that_fit_the_cpu_only_complete_there_and_static_gpu_slots_fail_typed() {
    // The paper node with 1 KiB GPUs: the templates' 16 KiB buffers fit the
    // CPU alone, and every template's kernel would rather run on a GPU.
    let small_gpu_node = || {
        let mut node = hwsim::NodeConfig::paper_node();
        for gpu in [1, 2] {
            node.devices[gpu].mem_capacity = 1024;
        }
        Platform::new(node)
    };
    let serve = |policy: ServePolicy, tag: &str| {
        let platform = small_gpu_node();
        let options = warmed_options(&platform, scratch_dir(tag));
        let config = ServiceConfig {
            options,
            ..ServiceConfig::new(policy, 3, vec![TenantConfig::new("a", 1, 16)])
        };
        let served = Served::new(&platform, config).expect("service builds");
        for spec in loadgen::templates().into_iter().cycle().take(9) {
            served.submit(0, spec).expect("16 KiB fits the node");
        }
        served.run_until_drained();
        served
    };
    // The scheduling policies place every worker where its job fits.
    for (policy, tag) in [(ServePolicy::AutoFit, "cpu-af"), (ServePolicy::RoundRobin, "cpu-rr")] {
        let served = serve(policy, tag);
        let m = served.metrics().tenant(0);
        assert_eq!((m.completed.get(), m.failed.get()), (9, 0), "{policy}");
        assert_eq!(served.worker_devices(), [hwsim::DeviceId(0); 3], "{policy}");
    }
    // Static binding cannot move: the slot on the CPU serves its jobs, the
    // two on the GPUs end theirs with the typed failure — still exactly one
    // terminal outcome per admitted job, and no panic in the dispatcher.
    let served = serve(ServePolicy::Off, "cpu-off");
    let outcomes = served.outcomes();
    assert_eq!(outcomes.len(), 9);
    let refused = |o: &served::JobOutcome| match &o.result {
        JobResult::Failed(FailReason::IssueError(e)) => {
            assert!(e.contains("CL_MEM_OBJECT_ALLOCATION_FAILURE"), "{e}");
            true
        }
        JobResult::Completed => false,
        other => panic!("unexpected outcome {other:?}"),
    };
    assert_eq!(outcomes.iter().filter(|o| refused(o)).count(), 6);
    let m = served.metrics().tenant(0);
    assert_eq!((m.completed.get(), m.failed.get()), (3, 6));
}

/// `spec` with the two execution modes set as given.
fn with_modes(mut spec: served::JobSpec, out_of_order: bool, splittable: bool) -> served::JobSpec {
    (spec.out_of_order, spec.splittable) = (out_of_order, splittable);
    spec
}

#[test]
fn a_failed_split_chunk_never_leaves_its_job_completed() {
    // A split's chunks and gathers run on the scheduler's per-device lanes,
    // recorded under the job's worker queue: the job sees a failed chunk
    // directly and through the split's join, which completes failed on the
    // worker queue.
    let spec = with_modes(loadgen::templates()[1].clone(), false, true);
    let mut faulted_rounds = 0;
    for victim_rank in 0..2 {
        for k in 0..12u64 {
            let platform = Platform::paper_node();
            let options = warmed_options(&platform, scratch_dir("split-fault"));
            let tenants = vec![TenantConfig::new("a", 1, 4)];
            let config =
                ServiceConfig { options, ..ServiceConfig::new(ServePolicy::AutoFit, 1, tenants) };
            let served = Served::new(&platform, config).expect("service builds");
            served.warm_programs(std::slice::from_ref(&spec)).expect("warm-up");
            // One healthy job settles the worker where the mapper wants it.
            served.submit(0, spec.clone()).expect("admit");
            served.run_until_drained();
            let home = served.worker_devices()[0];
            let victim = [0, 1, 2].map(hwsim::DeviceId).into_iter().filter(|&d| d != home);
            let victim = victim.collect::<Vec<_>>()[victim_rank];
            // Lost 5–80 µs into the round: the pass still splits over it.
            let at = served.now() + SimDuration::from_micros(5 + k * 75 / 11);
            let failures = platform.with_engine(|e| {
                e.set_fault_plan(FaultPlan::new(5).lose_device(victim, at));
                e.failure_count()
            });
            served.submit(0, spec.clone()).expect("admit");
            served.dispatch_round();
            let split = served.context().stats().kernels_split;
            let faulted = platform.with_engine(|e| e.failure_count()) > failures;
            if faulted {
                faulted_rounds += 1;
                let outcomes = served.outcomes();
                let completed = outcomes.iter().filter(|o| o.result == JobResult::Completed);
                let case = format!("{victim:?} lost at {at:?}, {split} splits");
                assert_eq!(completed.count(), 1, "{case}: the faulted job completed");
            }
            served.run_until_drained();
            let outcomes = served.outcomes();
            assert_eq!(outcomes.len(), 2, "one terminal outcome per job");
            for o in &outcomes {
                assert!(matches!(o.result, JobResult::Completed | JobResult::Failed(_)));
            }
        }
    }
    assert!(faulted_rounds > 0, "no case failed a command");
}

#[test]
fn a_split_jobs_trace_attributes_its_compute_to_the_job() {
    // A split's chunks and gathers run on the scheduler's per-device lanes;
    // they are recorded under the job's worker queue, so the job's trace
    // sees them as compute and transfers, not as time waiting to dispatch.
    let spec = with_modes(loadgen::templates()[1].clone(), false, true);
    let platform = Platform::paper_node();
    let recorder = Arc::new(RingBufferSink::new(1 << 12));
    let mut options = warmed_options(&platform, scratch_dir("split-trace"));
    options.observers.push(recorder.clone());
    let tenants = vec![TenantConfig::new("a", 1, 4)];
    let config = ServiceConfig { options, ..ServiceConfig::new(ServePolicy::AutoFit, 1, tenants) };
    let served = Served::new(&platform, config).expect("service builds");
    served.warm_programs(std::slice::from_ref(&spec)).expect("warm-up");
    served.submit(0, spec).expect("admit");
    served.run_until_drained();
    assert!(served.context().stats().kernels_split > 0, "the job did not split");
    let events = recorder.snapshot();
    let mut traces = events.iter().filter_map(|e| match e {
        SchedEvent::JobTrace { attempts, .. } => Some(attempts),
        _ => None,
    });
    let attempts = traces.next().expect("the job has a trace");
    assert!(traces.next().is_none(), "one job, one trace");
    let mut segments = SegmentSet::default();
    attempts.iter().for_each(|a| segments.merge(&a.segments));
    let compute = segments.get(SegmentKind::Compute);
    let wait = segments.get(SegmentKind::DispatchWait);
    assert!(compute > SimDuration::ZERO, "no compute in {segments:?}");
    assert!(wait < compute, "dispatch wait {wait} not under compute {compute}");
}

#[test]
fn mixed_mode_jobs_are_served_on_the_one_worker_set() {
    const WORKERS: usize = 3;
    // Seeded arrivals over the stock templates (256 or more workgroups a
    // launch), each job drawing one of the four mode combinations.
    let cfg = |data_plane_workers| LoadgenConfig {
        seed: 29,
        tenants: 3,
        jobs: 36,
        rate_hz: 4000.0,
        workers: WORKERS,
        queue_capacity: 16,
        runtime: RuntimeConfig { data_plane_workers, ..RuntimeConfig::default() },
        ..LoadgenConfig::default()
    };
    let mut modes = hwsim::xrand::XorShift::new(0x40DE5);
    let arrivals: Vec<loadgen::Arrival> = loadgen::open_arrivals(&cfg(1))
        .into_iter()
        .map(|a| {
            let draw = modes.index(4);
            loadgen::Arrival { spec: with_modes(a.spec, draw & 1 != 0, draw & 2 != 0), ..a }
        })
        .collect();
    for (ooo, split) in [(false, false), (true, false), (false, true), (true, true)] {
        let drawn =
            |a: &&loadgen::Arrival| (a.spec.out_of_order, a.spec.splittable) == (ooo, split);
        assert!(arrivals.iter().filter(drawn).count() >= 3, "mode ({ooo}, {split}) barely drawn");
    }

    let dir = scratch_dir("modes");
    let run = |data_plane_workers| {
        let recorder = Arc::new(RingBufferSink::new(1 << 14));
        let cfg = cfg(data_plane_workers);
        let served = loadgen::build_service(&cfg, &dir, vec![recorder.clone()]).expect("service");
        // Warm-up takes moded templates too, wrapping around the slots.
        let mut library = loadgen::templates();
        library.push(with_modes(library[2].clone(), true, true));
        served.warm_programs(&library).expect("warm-up");
        loadgen::drive_open(&served, &arrivals);
        // The report names the data-plane worker count; nothing else in it
        // may depend on it.
        let report = match loadgen::report_json(&served, &cfg) {
            hwsim::json::Json::Obj(fields) => fields
                .into_iter()
                .filter(|(key, _)| key != "data_plane_workers")
                .map(|(key, value)| format!("{key}={}", value.dump()))
                .collect::<Vec<_>>(),
            other => panic!("report is an object, got {other:?}"),
        };
        (served, recorder.snapshot(), report)
    };
    let (served, events, report) = run(1);

    // Conservation: every admitted job reached exactly one terminal outcome.
    let admitted: u64 = (0..3).map(|t| served.metrics().tenant(t).admitted.get()).sum();
    let outcomes = served.outcomes();
    let mut ids: Vec<u64> = outcomes.iter().map(|o| o.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!((ids.len() as u64, outcomes.len() as u64), (admitted, admitted));
    assert!(admitted >= 24, "admission refused most of the load: {admitted} of 36");
    assert!(outcomes.iter().all(|o| o.result == JobResult::Completed));

    // One worker set: W scheduler queues, and every job dispatched on one.
    let dispatched_on: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            multicl::SchedEvent::JobDispatched { queue, .. } => Some(*queue),
            _ => None,
        })
        .collect();
    assert_eq!(dispatched_on.len() as u64, admitted);
    assert!(dispatched_on.iter().all(|&q| q < WORKERS), "{dispatched_on:?}");

    // The modes are served, not just accepted.
    let stats = served.context().stats();
    assert!(stats.kernels_split > 0, "no splittable job's launch was split: {stats:?}");

    // And the data-plane worker count changes nothing observable.
    let (parallel, _, parallel_report) = run(4);
    assert_eq!(parallel.data_plane_workers(), 4);
    assert_eq!(parallel.outcomes(), outcomes);
    assert_eq!(parallel_report, report);
    assert_eq!(parallel.context().stats().kernels_split, stats.kernels_split);
}

#[test]
fn execution_hints_do_not_leak_to_the_slots_next_job() {
    // One slot, so consecutive jobs share the worker queue. The job: two
    // independent launches over buffers still on the host, the first over
    // a big one (long transfer, short kernel), the second over a small one
    // (short transfer, long kernel) — out of order, the second's transfer
    // runs beside the first's kernel, so the job ends sooner — the second
    // heavy enough that its split pays.
    let spec = served::JobSpec::parse_str(
        r#"{"name": "two",
            "buffers": [{"name": "big", "elements": 262144}, {"name": "small", "elements": 16384}],
            "kernels": [{"name": "two_light", "flops_per_item": 2.0, "bytes_per_item": 8.0},
                        {"name": "two_heavy", "flops_per_item": 40000.0, "bytes_per_item": 8.0}],
            "steps": [{"op": "launch", "kernel": "two_light", "global": 1024, "local": 64,
                       "args": ["big"]},
                      {"op": "launch", "kernel": "two_heavy", "global": 16384, "local": 64,
                       "args": ["small"]}]}"#,
    )
    .expect("spec parses");
    let served = small_service("leak", 1, vec![TenantConfig::new("a", 1, 8)]);
    served.warm_programs(std::slice::from_ref(&spec)).expect("warm-up");
    // (split, latency): the launches the scheduler split for one job served
    // alone, and the job's latency.
    let serve_one = |out_of_order: bool, splittable: bool| {
        let before = served.context().stats();
        served.submit(0, with_modes(spec.clone(), out_of_order, splittable)).expect("admit");
        assert_eq!(served.dispatch_round(), 1);
        let after = served.context().stats();
        let latency = served.outcomes().last().expect("an outcome").latency;
        (after.kernels_split - before.kernels_split, latency)
    };
    let plain = serve_one(false, false);
    assert_eq!(plain.0, 0, "plain job on a fresh slot");
    let (split, _) = serve_one(true, true);
    assert!(split > 0, "the split acts on this job");
    assert_eq!(serve_one(false, false), plain, "plain job right after a both-flag job");
    assert_eq!(serve_one(false, true).0, split, "splittable only");
    let out_of_order = serve_one(true, false);
    assert_eq!(out_of_order.0, 0, "out-of-order only");
    assert!(out_of_order.1 < plain.1, "hazard-only waits act on this job: {out_of_order:?}");
    assert_eq!(serve_one(false, false), plain, "and plain again");
}

#[test]
fn weighted_round_robin_grants_weight_proportional_slots() {
    let served = small_service(
        "weights",
        4,
        vec![TenantConfig::new("heavy", 3, 16), TenantConfig::new("light", 1, 16)],
    );
    let spec = loadgen::templates()[1].clone();
    for _ in 0..8 {
        served.submit(0, spec.clone()).expect("admit heavy");
        served.submit(1, spec.clone()).expect("admit light");
    }
    // One round, 4 slots: the sweep grants heavy its weight (3), light 1.
    assert_eq!(served.dispatch_round(), 4);
    assert_eq!(served.metrics().tenant(0).completed.get(), 3);
    assert_eq!(served.metrics().tenant(1).completed.get(), 1);
    served.run_until_drained();
    assert_eq!(served.metrics().tenant(0).completed.get(), 8);
    assert_eq!(served.metrics().tenant(1).completed.get(), 8);
}

#[test]
fn starved_tenants_are_counted_and_eventually_served() {
    let served = small_service(
        "starve",
        1,
        vec![TenantConfig::new("a", 1, 8), TenantConfig::new("b", 1, 8)],
    );
    let spec = loadgen::templates()[0].clone();
    served.submit(0, spec.clone()).expect("admit a");
    served.submit(1, spec.clone()).expect("admit b");
    // One worker slot: the round starting at tenant a serves a, starves b.
    assert_eq!(served.dispatch_round(), 1);
    assert_eq!(served.starvation_rounds(1), 1);
    assert_eq!(served.metrics().tenant(1).starved_rounds.get(), 1);
    // The rotating start serves b next round; nobody starves.
    assert_eq!(served.dispatch_round(), 1);
    assert_eq!(served.metrics().tenant(1).completed.get(), 1);
    assert_eq!(served.starvation_rounds(1), 1);
}

#[test]
fn job_lifecycle_events_interleave_with_scheduler_events() {
    let recorder = Arc::new(RingBufferSink::new(4096));
    let cfg = LoadgenConfig {
        seed: 5,
        tenants: 2,
        jobs: 10,
        rate_hz: 50_000.0, // overload a little to get rejections
        queue_capacity: 2,
        workers: 2,
        ..LoadgenConfig::default()
    };
    let (served, _) =
        loadgen::run_with(&cfg, &scratch_dir("events"), vec![recorder.clone()]).expect("run");
    let kinds: std::collections::HashSet<&'static str> =
        recorder.snapshot().iter().map(|e| e.kind()).collect();
    for kind in ["job_submitted", "job_admitted", "job_dispatched", "job_completed"] {
        assert!(kinds.contains(kind), "missing {kind} in {kinds:?}");
    }
    for kind in ["epoch_begin", "mapping_decision", "epoch_end"] {
        assert!(kinds.contains(kind), "missing scheduler event {kind} in {kinds:?}");
    }
    let total: u64 =
        (0..served.tenant_count()).map(|i| served.metrics().tenant(i).completed.get()).sum();
    assert_eq!(total as usize, served.outcomes().len());
}

#[test]
fn concurrent_submitters_are_accounted_exactly() {
    const PER_TENANT: usize = 25;
    let served = Arc::new(small_service(
        "threads",
        4,
        (0..4).map(|i| TenantConfig::new(format!("t{i}"), 1, PER_TENANT)).collect(),
    ));
    let spec = loadgen::templates()[2].clone();
    let handles: Vec<_> = (0..4)
        .map(|tenant| {
            let served = Arc::clone(&served);
            let spec = spec.clone();
            std::thread::spawn(move || {
                for _ in 0..PER_TENANT {
                    served.submit(tenant, spec.clone()).expect("capacity is sufficient");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter thread");
    }
    assert_eq!(served.backlog(), 4 * PER_TENANT);
    for i in 0..4 {
        assert_eq!(served.metrics().tenant(i).admitted.get(), PER_TENANT as u64);
    }
    served.run_until_drained();
    assert_eq!(served.outcomes().len(), 4 * PER_TENANT);
    let ids: std::collections::HashSet<u64> = served.outcomes().iter().map(|o| o.id).collect();
    assert_eq!(ids.len(), 4 * PER_TENANT, "job ids are unique across threads");
}

#[test]
fn data_plane_worker_count_never_changes_service_results() {
    let base = LoadgenConfig {
        seed: 17,
        tenants: 2,
        jobs: 12,
        rate_hz: 1500.0,
        workers: 2,
        ..LoadgenConfig::default()
    };
    let seq = LoadgenConfig {
        runtime: RuntimeConfig { data_plane_workers: 1, ..RuntimeConfig::default() },
        ..base.clone()
    };
    let par = LoadgenConfig {
        runtime: RuntimeConfig { data_plane_workers: 4, ..RuntimeConfig::default() },
        ..base
    };
    let dir = scratch_dir("dp-workers");
    let (a, _) = loadgen::run(&seq, &dir).expect("synchronous run");
    let (b, _) = loadgen::run(&par, &dir).expect("parallel run");
    assert_eq!(a.data_plane_workers(), 1);
    assert_eq!(b.data_plane_workers(), 4);
    assert_eq!(a.outcomes(), b.outcomes(), "outcomes identical for any worker count");
    assert_eq!(a.now(), b.now(), "virtual clock identical for any worker count");
    // The parallel run actually routed work through the executor.
    assert!(b.data_plane_stats().executed > 0, "stats: {:?}", b.data_plane_stats());
}

#[test]
fn device_loss_mid_run_recovers_without_panics() {
    let recorder = Arc::new(RingBufferSink::new(8192));
    let platform = Platform::paper_node();
    let mut options = warmed_options(&platform, scratch_dir("loss"));
    options.observers = vec![recorder.clone()];
    let served = Served::new(
        &platform,
        ServiceConfig {
            policy: ServePolicy::AutoFit,
            workers: 3,
            tenants: vec![TenantConfig::new("a", 1, 64)],
            options,
            retry: served::RetryPolicy::default(),
            slo: Some(served::SloConfig::default()),
        },
    )
    .expect("service builds");
    served.warm_programs(&loadgen::templates()).expect("warm-up");
    let spec = loadgen::templates()[2].clone();
    // Healthy rounds first, so worker queues are mapped across devices.
    for _ in 0..6 {
        served.submit(0, spec.clone()).expect("admit");
    }
    served.run_until_drained();
    assert_eq!(served.metrics().tenant(0).completed.get(), 6);
    // Kill a device the service is actively using, mid-run.
    let victim = served.worker_devices()[0];
    let now = served.now();
    platform.with_engine(|e| e.set_fault_plan(FaultPlan::new(3).lose_device(victim, now)));
    for _ in 0..9 {
        served.submit(0, spec.clone()).expect("admit");
    }
    served.run_until_drained();
    let m = served.metrics().tenant(0);
    assert_eq!(m.completed.get() + m.failed.get(), 15, "every job reached a terminal outcome");
    assert!(m.completed.get() > 6, "goodput continued after the loss");
    // The scheduler blacklisted the device and evacuated its queues, and
    // said so in telemetry.
    let kinds: std::collections::HashSet<&'static str> =
        recorder.snapshot().iter().map(|e| e.kind()).collect();
    assert!(kinds.contains("device_down"), "missing device_down in {kinds:?}");
    assert!(kinds.contains("remapped"), "missing remapped in {kinds:?}");
    let stats = served.context().stats();
    assert_eq!(stats.devices_lost, 1);
    assert!(stats.queues_remapped > 0, "stats: {stats:?}");
    assert_eq!(served.context().device_health(victim), multicl::DeviceHealth::Down);
    assert!(!served.context().healthy_devices().contains(&victim));
    assert!(!served.worker_devices().contains(&victim), "no worker still bound to the dead device");
}

#[test]
fn past_deadline_jobs_fail_with_typed_reason() {
    let served = small_service("deadline", 1, vec![TenantConfig::new("a", 1, 4)]);
    let spec = loadgen::templates()[0].clone();
    let deadline = served.now();
    served.submit_with_deadline(0, spec, Some(deadline)).expect("admitted");
    served.advance_to(deadline + SimDuration::from_millis(1));
    assert_eq!(served.dispatch_round(), 1, "the doomed job is a terminal outcome");
    let outcomes = served.outcomes();
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].result, JobResult::Failed(FailReason::DeadlineExceeded));
    let m = served.metrics().tenant(0);
    assert_eq!((m.failed.get(), m.completed.get(), m.dispatched.get()), (1, 0, 0));
}

#[test]
fn dead_node_sheds_load_and_fails_typed() {
    let served = small_service("dead-node", 2, vec![TenantConfig::new("a", 1, 8)]);
    let spec = loadgen::templates()[0].clone();
    served.submit(0, spec.clone()).expect("admit 1");
    served.submit(0, spec.clone()).expect("admit 2");
    // Every device dies before the backlog dispatches.
    let now = served.now();
    let devices = served.context().cl().devices().to_vec();
    served.context().platform().with_engine(|e| {
        let mut plan = FaultPlan::new(7);
        for &d in &devices {
            plan = plan.lose_device(d, now);
        }
        e.set_fault_plan(plan);
    });
    assert!(served.context().healthy_devices().is_empty());
    // Admission sheds everything: the effective capacity is zero.
    match served.submit(0, spec) {
        Err(RejectReason::QueueFull { capacity, .. }) => assert_eq!(capacity, 0),
        other => panic!("expected shed rejection, got {other:?}"),
    }
    // Already-admitted jobs fail with the typed reason — no panic, no hang.
    assert_eq!(served.dispatch_round(), 2);
    served.run_until_drained();
    let outcomes = served.outcomes();
    assert_eq!(outcomes.len(), 2);
    for o in &outcomes {
        assert_eq!(o.result, JobResult::Failed(FailReason::NoHealthyDevices));
    }
    assert_eq!(served.metrics().tenant(0).failed.get(), 2);
}

/// The whole node dies halfway through an open-loop arrival schedule:
/// every device lost *under load*, where
/// `dead_node_sheds_load_and_fails_typed` loses them before the first
/// dispatch and `device_loss_mid_run_recovers_without_panics` loses one.
#[test]
fn whole_node_loss_mid_run_sheds_and_fails_typed() {
    let run = |seed: u64| {
        let cfg = LoadgenConfig { seed, jobs: 96, rate_hz: 4000.0, ..LoadgenConfig::default() };
        let recorder = Arc::new(RingBufferSink::new(16384));
        let served =
            loadgen::build_service(&cfg, &scratch_dir("node-loss"), vec![recorder.clone()])
                .expect("service builds");
        served.warm_programs(&loadgen::templates()).expect("warm-up");
        let arrivals = loadgen::open_arrivals(&cfg);
        let span = arrivals.last().expect("nonempty schedule").at.as_nanos();
        let kill_at = served.now() + SimDuration::from_nanos(span / 2);
        let devices = served.context().cl().devices().to_vec();
        served.context().platform().with_engine(|e| {
            let plan = devices.iter().fold(FaultPlan::new(seed), |p, &d| p.lose_device(d, kill_at));
            e.set_fault_plan(plan);
        });
        loadgen::drive_open(&served, &arrivals);

        // Every arrival reached exactly one outcome, and nothing is left.
        let (completed, failed, rejected) = (
            tenant_total(&served, |m| m.completed.get()),
            tenant_total(&served, |m| m.failed.get()),
            tenant_total(&served, |m| m.rejected.get()),
        );
        assert_eq!(
            completed + failed + rejected,
            96,
            "seed {seed}: {completed}/{failed}/{rejected}"
        );
        assert_eq!(served.backlog(), 0, "seed {seed}");
        let outcomes = served.outcomes();
        assert_eq!(outcomes.len() as u64, completed + failed, "seed {seed}");
        // Goodput until the loss; after it, load is shed at admission and
        // what was already admitted fails with the device-fault reasons.
        assert!(
            outcomes.iter().any(|o| o.result == JobResult::Completed && o.completed_at < kill_at),
            "seed {seed}: nothing completed before the loss"
        );
        for o in &outcomes {
            assert!(
                matches!(
                    o.result,
                    JobResult::Completed
                        | JobResult::Failed(
                            FailReason::NoHealthyDevices | FailReason::RetryExhausted { .. }
                        )
                ),
                "seed {seed}: job {} ended {:?}",
                o.id,
                o.result
            );
        }
        let events = recorder.snapshot();
        let refusals: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                SchedEvent::JobRejected { reason, .. } => Some(&**reason),
                _ => None,
            })
            .collect();
        assert_eq!(refusals.len() as u64, rejected, "seed {seed}");
        assert!(refusals.iter().all(|r| r.starts_with("queue_full")), "seed {seed}: {refusals:?}");
        assert!(served.context().healthy_devices().is_empty(), "seed {seed}");
        match served.submit(0, loadgen::templates()[0].clone()) {
            Err(RejectReason::QueueFull { capacity: 0, .. }) => {}
            other => panic!("seed {seed}: expected shed rejection, got {other:?}"),
        }
        loadgen::report_json(&served, &cfg).dump()
    };
    for seed in [1, 42, 1007] {
        assert_eq!(run(seed), run(seed), "seed {seed}: same-seed reports differ");
    }
}

#[test]
fn transient_faults_retry_with_backoff_and_stay_deterministic() {
    let cfg = LoadgenConfig {
        seed: 13,
        tenants: 2,
        jobs: 16,
        rate_hz: 2000.0,
        workers: 2,
        queue_capacity: 16,
        runtime: RuntimeConfig {
            fault_plan: Some(FaultPlan::new(99).with_transfer_failure_rate(0.4)),
            ..RuntimeConfig::default()
        },
        ..LoadgenConfig::default()
    };
    let dir = scratch_dir("faulty");
    let (a, _) = loadgen::run(&cfg, &dir).expect("first faulty run");
    let (b, _) = loadgen::run(&cfg, &dir).expect("second faulty run");
    assert_eq!(a.outcomes(), b.outcomes(), "fault injection is seed-deterministic");
    let sum = |get| tenant_total(&a, get);
    let (admitted, completed, failed) =
        (sum(|m| m.admitted.get()), sum(|m| m.completed.get()), sum(|m| m.failed.get()));
    assert!(sum(|m| m.retried.get()) > 0, "a 40% transfer-failure rate must trigger retries");
    assert!(completed > 0, "goodput stays above zero under transient faults");
    assert_eq!(admitted, completed + failed, "every admitted job reached a terminal outcome");
}

#[test]
fn segment_sums_equal_latency_exactly_across_random_runs() {
    use multicl::telemetry::{RingBufferSink, SchedEvent};

    // Property: for every terminal job of every run — random seed, worker
    // count, offered rate, and fault plan — the critical-path segments of
    // its attempts sum *exactly* (nanosecond-equal) to the observed
    // end-to-end latency, and every terminal job has a JobTrace.
    let mut rng = hwsim::xrand::XorShift::new(0xD15C0);
    for trial in 0..6u64 {
        let seed = rng.next_u64();
        let workers = 1 + rng.index(4);
        let rate_hz = rng.range_f64(500.0, 8_000.0);
        let fault_rate = if trial % 2 == 1 { 0.3 } else { 0.0 };
        let cfg = LoadgenConfig {
            seed,
            tenants: 3,
            jobs: 14,
            rate_hz,
            workers,
            queue_capacity: 6,
            runtime: RuntimeConfig {
                fault_plan: (fault_rate > 0.0)
                    .then(|| FaultPlan::new(seed ^ 0xbad).with_transfer_failure_rate(fault_rate)),
                ..RuntimeConfig::default()
            },
            ..LoadgenConfig::default()
        };
        let recorder = Arc::new(RingBufferSink::new(1 << 15));
        let (served, _) =
            loadgen::run_with(&cfg, &scratch_dir("prop"), vec![recorder.clone()]).expect("run");
        let mut traced = 0u64;
        for e in recorder.snapshot().iter() {
            let SchedEvent::JobTrace { job, submitted_at, completed_at, attempts, .. } = e else {
                continue;
            };
            traced += 1;
            let latency = completed_at.saturating_since(*submitted_at);
            let sum: SimDuration = attempts.iter().map(|a| a.segments.total()).sum();
            assert_eq!(
                sum, latency,
                "trial {trial} (seed {seed}, {workers} workers, fault {fault_rate}): job {job} \
                 segments {sum} != latency {latency}"
            );
            assert!(!attempts.is_empty(), "trial {trial}: job {job} has no attempts");
        }
        let terminal: u64 = (0..3)
            .map(|i| {
                let m = served.metrics().tenant(i);
                m.completed.get() + m.failed.get()
            })
            .sum();
        assert_eq!(traced, terminal, "trial {trial}: every terminal job carries a JobTrace");
        assert!(traced > 0, "trial {trial}: nothing reached a terminal outcome");
    }
}

/// A single-launch compute-dominated template from the kernel family the
/// scheduler's cost predictor learns cleanly (mirrors the training family
/// in the `multicl` predictor tests).
fn synth_template(rng: &mut hwsim::xrand::XorShift, name: &str) -> served::JobSpec {
    let flops = rng.range_f64(2_000.0, 8_000.0);
    let bytes = rng.range_f64(4.0, 16.0);
    let coalescing = rng.range_f64(0.7, 1.0);
    let divergence = rng.range_f64(0.0, 0.3);
    let vector = rng.range_f64(0.8, 1.0);
    let global = 64 * rng.range_u64(64, 512);
    served::JobSpec::parse_str(&format!(
        r#"{{
          "name": "{name}",
          "buffers": [{{"name": "a", "elements": 1024}}],
          "kernels": [{{"name": "{name}_k", "flops_per_item": {flops},
                       "bytes_per_item": {bytes}, "coalescing": {coalescing},
                       "branch_divergence": {divergence},
                       "vector_friendliness": {vector}}}],
          "steps": [
            {{"id": "in", "op": "write", "buffer": "a"}},
            {{"op": "launch", "kernel": "{name}_k", "global": {global},
             "local": 64, "args": ["a"], "after": ["in"]}}
          ]
        }}"#
    ))
    .expect("synthetic template parses")
}

#[test]
fn persisted_predictor_lets_warm_up_skip_confident_templates() {
    let dir = scratch_dir("warmskip");
    let _ = std::fs::remove_dir_all(&dir);
    let platform = Platform::paper_node();

    // Phase 1: train the predictor through real service traffic under
    // ROUND_ROBIN (spreads the diverse kernels across every device), with
    // persistence on so the model survives the restart below.
    let mut options = warmed_options(&platform, &dir);
    options.predictor_persist = true;
    let trainer = Served::new(
        &platform,
        ServiceConfig {
            policy: ServePolicy::RoundRobin,
            workers: 6,
            tenants: vec![TenantConfig::new("train", 1, 64)],
            options,
            retry: served::RetryPolicy::default(),
            slo: None,
        },
    )
    .expect("trainer builds");
    let mut rng = hwsim::xrand::XorShift::new(4242);
    for g in 0..12 {
        for i in 0..6 {
            let spec = synth_template(&mut rng, &format!("train_{g}_{i}"));
            trainer.submit(0, spec).expect("admit training job");
        }
        trainer.run_until_drained();
    }

    // Phase 2: a restarted service loads the persisted model. Warm-up
    // still compiles every program but skips the throwaway instance for
    // the in-family template; an out-of-family one (double precision —
    // never seen in training) still pays the warm-up.
    let mut options = warmed_options(&platform, &dir);
    options.predictor_persist = true;
    let restarted = Served::new(
        &platform,
        ServiceConfig {
            policy: ServePolicy::AutoFit,
            workers: 3,
            tenants: vec![TenantConfig::new("t", 1, 16)],
            options,
            retry: served::RetryPolicy::default(),
            slo: None,
        },
    )
    .expect("restarted service builds");
    let confident = synth_template(&mut rng, "warm_confident");
    let unfamiliar = served::JobSpec::parse_str(
        r#"{
          "name": "warm_unfamiliar",
          "buffers": [{"name": "a", "elements": 1024}],
          "kernels": [{"name": "warm_unfamiliar_k", "flops_per_item": 3000.0,
                       "bytes_per_item": 8.0, "double_precision": true}],
          "steps": [
            {"id": "in", "op": "write", "buffer": "a"},
            {"op": "launch", "kernel": "warm_unfamiliar_k", "global": 16384,
             "local": 64, "args": ["a"], "after": ["in"]}
          ]
        }"#,
    )
    .expect("unfamiliar template parses");
    restarted.warm_programs(&[confident.clone(), unfamiliar]).expect("warm-up runs");
    assert_eq!(
        restarted.metrics().warmups_skipped.get(),
        1,
        "exactly the confident template skips its warm-up instance"
    );

    // The first real job of the skipped template completes without any
    // profiling-epoch warm-up having run for it, and pins the tenant's
    // cold-start latency gauge.
    restarted.submit(0, confident).expect("admit first job");
    restarted.run_until_drained();
    assert_eq!(restarted.metrics().tenant(0).completed.get(), 1);
    let prom = restarted.metrics().registry().to_prometheus();
    assert!(prom.contains("served_warmups_skipped_total 1"), "{prom}");
    let first = restarted.metrics().tenant(0).first_job_latency_ns.get();
    assert!(first > 0.0, "first-job latency gauge pinned ({first})");
}
