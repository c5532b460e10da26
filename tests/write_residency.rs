//! Where `SchedQueue::enqueue_write` leaves a buffer (DESIGN.md §9, *Write
//! residency*). A queue whose next pass may profile it writes eagerly, on
//! its current device: that copy is what the profiler reads back and what
//! the paper's data-caching figure (Fig. 7) stages. Under AUTO_FIT, a pool
//! queue a pass has bound and that is not due for a re-profile leaves the
//! buffer valid on the host only, and the next pass prices the upload per
//! device like any host-valid buffer.

use clrt::{ArgValue, Buffer, KernelBody, KernelCtx, NdRange, Platform};
use hwsim::{DeviceId, KernelCostSpec, SimDuration};
use multicl::telemetry::RingBufferSink;
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedEvent, SchedOptions,
    SchedQueue,
};
use std::sync::Arc;

const N: usize = 4096;

/// `x[i] = 2 x[i] + 1`.
struct Twice;

impl KernelBody for Twice {
    fn name(&self) -> &str {
        "twice"
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(16.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        ctx.slice_mut::<f64>(0).iter_mut().for_each(|v| *v = 2.0 * *v + 1.0);
    }
}

fn context(tag: &str, policy: ContextSchedPolicy, options: SchedOptions) -> MulticlContext {
    let dir = std::env::temp_dir().join(format!("write-residency-{tag}-{}", std::process::id()));
    let options = SchedOptions { profile_cache: ProfileCache::at(dir), ..options };
    MulticlContext::with_options(&Platform::paper_node(), policy, options).expect("context")
}

/// One epoch on `q`: write `buf`, run `twice` over it, synchronize.
fn epoch(ctx: &MulticlContext, q: &SchedQueue, buf: &Buffer, value: f64) {
    q.enqueue_write(buf, &vec![value; N]).expect("write");
    launch(ctx, q, buf);
    q.finish();
}

fn launch(ctx: &MulticlContext, q: &SchedQueue, buf: &Buffer) {
    let program = ctx.create_program(vec![Arc::new(Twice)]).expect("program");
    let kernel = program.create_kernel("twice").expect("kernel");
    kernel.set_arg(0, ArgValue::BufferMut(buf.clone())).expect("arg");
    q.enqueue_ndrange(&kernel, NdRange::d1(N as u64, 64)).expect("launch");
}

/// Whether `buf` is valid on `dev` alone: not on the host, nowhere else.
fn valid_on_only(buf: &Buffer, dev: DeviceId) -> bool {
    let res = buf.residency();
    !res.host
        && res.devices.first() == Some(dev)
        && res.valid_on(dev)
        && (0..3).map(DeviceId).filter(|&d| res.valid_on(d)).count() == 1
}

/// A write whose next pass may profile stays eager: on a new AUTO queue
/// (no pass has bound it), on an iterative queue due for its §V-C1
/// re-profile, and on any queue under ROUND_ROBIN, which keeps a bound
/// queue where it is. Each leaves the buffer valid on the queue's device
/// only — what Fig. 7's data caching starts from.
#[test]
fn a_write_that_may_be_profiled_stays_on_its_device() {
    let ctx = context("fresh", ContextSchedPolicy::AutoFit, SchedOptions::default());
    let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue");
    let buf = ctx.create_buffer_of::<f64>(N).expect("buffer");
    q.enqueue_write(&buf, &vec![1.0; N]).expect("write");
    assert!(valid_on_only(&buf, q.device()), "new queue: {:?}", buf.residency());

    let every_second = SchedOptions { iterative_frequency: Some(2), ..SchedOptions::default() };
    let ctx = context("iterative", ContextSchedPolicy::AutoFit, every_second);
    let flags = QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_ITERATIVE;
    let q = ctx.create_queue(flags).expect("queue");
    let buf = ctx.create_buffer_of::<f64>(N).expect("buffer");
    epoch(&ctx, &q, &buf, 1.0);
    // One epoch in: the next is not due for a re-profile.
    q.enqueue_write(&buf, &vec![2.0; N]).expect("write");
    assert!(buf.residency().host && buf.residency().devices.is_empty());
    launch(&ctx, &q, &buf);
    q.finish();
    // Two epochs in: the next re-profiles.
    q.enqueue_write(&buf, &vec![3.0; N]).expect("write");
    assert!(valid_on_only(&buf, q.device()), "re-profile due: {:?}", buf.residency());

    let ctx = context("rr", ContextSchedPolicy::RoundRobin, SchedOptions::default());
    let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue");
    let buf = ctx.create_buffer_of::<f64>(N).expect("buffer");
    epoch(&ctx, &q, &buf, 1.0);
    q.enqueue_write(&buf, &vec![2.0; N]).expect("write");
    assert!(valid_on_only(&buf, q.device()), "round robin: {:?}", buf.residency());
}

/// A write on a warm AUTO_FIT queue leaves the buffer on the host only, and
/// the pass that follows prices its upload: the queue's migration row is
/// each device's H2D time for the buffer, not the zero of a buffer already
/// resident. The data is the write's either way.
#[test]
fn a_warm_write_stays_on_the_host_and_the_pass_prices_its_upload() {
    let ring = Arc::new(RingBufferSink::new(1 << 12));
    let options = SchedOptions { observers: vec![ring.clone()], ..SchedOptions::default() };
    let ctx = context("warm", ContextSchedPolicy::AutoFit, options);
    let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue");
    let buf = ctx.create_buffer_of::<f64>(N).expect("buffer");
    epoch(&ctx, &q, &buf, 1.0);
    assert_eq!(buf.host_snapshot::<f64>(), vec![3.0; N]);

    q.enqueue_write(&buf, &vec![5.0; N]).expect("write");
    let res = buf.residency();
    assert!(res.host && res.devices.is_empty(), "warm write: {res:?}");
    ring.drain();
    launch(&ctx, &q, &buf);
    q.finish();
    assert_eq!(buf.host_snapshot::<f64>(), vec![11.0; N]);

    let events = ring.drain();
    assert!(events.iter().any(|e| matches!(e, SchedEvent::CacheHit { .. })), "nothing profiled");
    let row = events.iter().find_map(|e| match e {
        SchedEvent::MappingDecision { queues, .. } => Some(queues[0].cost.migration.clone()),
        _ => None,
    });
    let row = row.expect("a mapping decision");
    let bytes = (N * std::mem::size_of::<f64>()) as u64;
    let h2d: Vec<SimDuration> = (ctx.cl().devices().iter())
        .map(|&d| ctx.device_profile().host_transfer_time(d, bytes))
        .collect();
    assert_eq!(&*row, &h2d[..]);
    assert!(row.iter().all(|t| *t > SimDuration::ZERO), "{row:?}");
}
