//! Layer probes: one public entry point of each layer, timed in isolation
//! for a fixed length of time. They run as the last phase of a traced run
//! and do not depend on the workload; each says what one call costs when
//! nothing else contends for the machine, which is the most a faster layer
//! can save per call.
//!
//! The telemetry probes replay a real event stream: the one a
//! `RingBufferSink` captures from a quick `serve_light` pass.

use crate::metrics::Values;
use crate::workloads::{serve, Env, Scale, DATA_PLANE_WORKERS};
use clrt::{ArgValue, KernelBody, KernelCtx, NdRange, Platform, RuntimeConfig};
use hwsim::json::Json;
use hwsim::xrand::XorShift;
use hwsim::{
    CommandDesc, CommandKind, DeviceId, Engine, KernelCostSpec, SimDuration, TransferKind, WaitList,
};
use multicl::mapper::{self, CostMatrix, MapperScratch};
use multicl::telemetry::{JsonlSink, MetricsRegistry, RingBufferSink};
use multicl::{SchedEvent, SchedObserver, DEFAULT_ADAPTIVE_NODE_BUDGET};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Call `batch` (which performs `units` units of work per call) until
/// `length` has passed; returns nanoseconds per unit.
fn ns_per_unit(length: Duration, units: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazy state outside the timed calls
    let began = Instant::now();
    let mut calls = 0u64;
    while began.elapsed() < length {
        batch();
        calls += 1;
    }
    began.elapsed().as_nanos() as f64 / (calls * units) as f64
}

/// A fixed pseudo-random `queues × devices` cost matrix.
fn cost_matrix(queues: usize, devices: usize) -> CostMatrix {
    let mut rng = XorShift::new(0x9e37_79b9_7f4a_7c15);
    (0..queues)
        .map(|_| {
            (0..devices).map(|_| SimDuration::from_micros(rng.range_u64(100, 10_100))).collect()
        })
        .collect()
}

struct Nop;

impl KernelBody for Nop {
    fn name(&self) -> &str {
        "nop"
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::compute_bound(1.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        black_box(ctx.slice::<f64>(0));
    }
}

/// A plain `clrt` queue with a bound nop kernel over `workers` data-plane
/// threads (1 = inline).
fn nop_queue(workers: usize) -> (Platform, clrt::CommandQueue, clrt::Kernel) {
    let platform = Platform::paper_node_with(RuntimeConfig {
        data_plane_workers: workers,
        ..RuntimeConfig::default()
    });
    let ctx = platform.create_context_all().expect("context over all devices");
    let program = ctx.create_program(vec![Arc::new(Nop) as Arc<dyn KernelBody>]).expect("program");
    program.build(0).expect("program builds");
    let kernel = program.create_kernel("nop").expect("nop kernel");
    let buffer = ctx.create_buffer_of::<f64>(64).expect("buffer");
    kernel.set_arg(0, ArgValue::Buffer(buffer)).expect("argument binds");
    let queue = ctx.create_queue(DeviceId(1)).expect("queue on GPU 0");
    (platform, queue, kernel)
}

/// Run every probe for `length` each.
pub fn run(env: &Env, length: Duration) -> Values {
    let mut v = Values::new();

    // core: the adaptive mapper on the paper's pool size, a serving pool
    // and a pool far past exhaustive search.
    let mut scratch = MapperScratch::new();
    for (queues, devices) in [(4, 3), (12, 3), (64, 16)] {
        let costs = cost_matrix(queues, devices);
        let ns = ns_per_unit(length, 1, || {
            black_box(mapper::adaptive(
                black_box(&costs),
                None,
                DEFAULT_ADAPTIVE_NODE_BUDGET,
                &mut scratch,
            ));
        });
        v.insert(format!("core.probe_adaptive_us.{queues}x{devices}"), ns / 1e3);
    }

    // clrt: enqueue on the inline plane (no hand-off), then one launch plus
    // `finish` through the worker pool (the thread hand-off round trip).
    const BATCH: u64 = 256;
    let (_inline_platform, queue, kernel) = nop_queue(1);
    let ns = ns_per_unit(length, BATCH, || {
        for _ in 0..BATCH {
            queue.enqueue_ndrange(&kernel, NdRange::d1(64, 64), &[]).expect("enqueue");
        }
        queue.finish();
    });
    v.insert("clrt.probe_enqueue_ns".into(), ns);
    let (_pool_platform, queue, kernel) = nop_queue(DATA_PLANE_WORKERS);
    let ns = ns_per_unit(length, 1, || {
        queue.enqueue_ndrange(&kernel, NdRange::d1(64, 64), &[]).expect("enqueue");
        queue.finish();
    });
    v.insert("clrt.probe_handoff_us".into(), ns / 1e3);

    // hwsim: the time plane alone — kernels, transfers and markers over
    // three devices, every third command waiting on the two before it.
    const COMMANDS: u64 = 100_000;
    let ns = ns_per_unit(length, COMMANDS, || {
        let mut engine = Engine::new(3);
        let mut recent = [None, None];
        for i in 0..COMMANDS {
            let kind = match i % 4 {
                0 => CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes: 4096 },
                3 => CommandKind::Marker,
                _ => CommandKind::Kernel { name: Arc::from("probe") },
            };
            let mut waits = WaitList::new();
            if i % 3 == 0 {
                recent.iter().flatten().for_each(|&ev| waits.push(ev));
            }
            let ev = engine.submit(CommandDesc {
                device: DeviceId((i % 3) as usize),
                kind,
                duration: SimDuration::from_micros(5),
                waits,
                queue: (i % 4) as usize,
            });
            recent = [recent[1], Some(ev)];
        }
        engine.finish_all();
        black_box(engine.now());
    });
    v.insert("hwsim.probe_submit_ns".into(), ns);

    // telemetry: replay the stream a quick serve_light pass emits.
    let events = capture_events(env);
    let n = events.len() as u64;
    let lines: Vec<String> = events.iter().map(|e| e.to_json().dump()).collect();
    let ns = ns_per_unit(length, n, || {
        for e in &events {
            black_box(e.to_json().dump());
        }
    });
    v.insert("telemetry.probe_encode_ns_per_event".into(), ns);
    let ns = ns_per_unit(length, n, || {
        for line in &lines {
            black_box(Json::parse(line).and_then(|j| SchedEvent::from_json(&j)));
        }
    });
    v.insert("telemetry.probe_decode_ns_per_event".into(), ns);
    let sink = RingBufferSink::new(1 << 12);
    let ns = ns_per_unit(length, n, || events.iter().for_each(|e| sink.on_event(e)));
    v.insert("telemetry.probe_ring_ns_per_event".into(), ns);
    let sink = JsonlSink::new(std::io::sink());
    let ns = ns_per_unit(length, n, || events.iter().for_each(|e| sink.on_event(e)));
    v.insert("telemetry.probe_jsonl_ns_per_event".into(), ns);
    let registry = MetricsRegistry::new();
    let counter = registry.counter("perf_probe_total", "probe counter");
    let ns = ns_per_unit(length, BATCH, || (0..BATCH).for_each(|_| counter.inc()));
    v.insert("telemetry.probe_counter_inc_ns".into(), ns);
    let histogram = registry.histogram("perf_probe_ns", "probe histogram");
    let ns = ns_per_unit(length, BATCH, || (0..BATCH).for_each(|i| histogram.observe(i * 977)));
    v.insert("telemetry.probe_histogram_observe_ns".into(), ns);
    v
}

/// The event stream of one quick `serve_light` pass, as a ring buffer
/// attached beside the workload's own sinks captures it.
fn capture_events(env: &Env) -> Vec<SchedEvent> {
    let ring = Arc::new(RingBufferSink::new(1 << 16));
    let observer = Arc::clone(&ring) as Arc<dyn SchedObserver>;
    let pass = serve::pass_observed(&serve::LIGHT, env, Scale::Quick, None, Some(observer));
    assert!(pass.errors.is_empty(), "probe capture pass failed: {:?}", pass.errors);
    ring.snapshot()
}
