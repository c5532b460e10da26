//! Data-plane executor properties, end to end through the public API.
//!
//! The worker count of the hazard-tracked executor is a pure wall-clock
//! knob, and so is where each task runs: for any seeded random command DAG
//! mixing light commands (run on the enqueueing thread when nothing blocks
//! them) and heavy ones (always pooled), running with many workers must
//! produce bit-identical buffer contents, read results, and virtual-time
//! trace as running synchronously (`data_plane_workers: 1`). A light
//! command behind an unfinished predecessor is queued, never run early; a
//! panicking body is re-raised exactly once at the next blocking point on
//! either path; and no blocking point ever misses its wake-up.
//!
//! A body may *declare* device time (`KernelCtx::occupy_device`) instead of
//! sitting through it. Its command then completes at a deadline — body end
//! plus declared time — for everyone who can ask: dependents through any
//! kind of edge, `finish`, `Event::wait`, blocking reads, `host_snapshot`.
//! Meanwhile no thread and no buffer lock is held, so the enqueue returns
//! at once and independent queues overlap their device time at any worker
//! count — none of which may show in contents, reads, or virtual time.

use clrt::{
    ArgValue, Buffer, CommandQueue, Event, KernelBody, KernelCtx, NdRange, Platform, RuntimeConfig,
};
use hwsim::xrand::XorShift;
use hwsim::{DeviceId, KernelCostSpec};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// `y[i] = 1.5 * x[i] + y[i]` — a two-argument kernel with a genuine
/// read-only operand, so the generator exercises RAW/WAR edges.
struct Saxpy;
impl KernelBody for Saxpy {
    fn name(&self) -> &str {
        "saxpy"
    }
    fn arity(&self) -> usize {
        2
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(24.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let x: Vec<f64> = ctx.slice::<f64>(0).to_vec();
        let y = ctx.slice_mut::<f64>(1);
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += 1.5 * xi;
        }
    }
}

/// `v[i] = 0.5 * v[i] + 1.0` — in-place and contracting, so values stay
/// bounded over arbitrarily long random programs.
struct Damp;
impl KernelBody for Damp {
    fn name(&self) -> &str {
        "damp"
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(16.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        for v in ctx.slice_mut::<f64>(0) {
            *v = 0.5 * *v + 1.0;
        }
    }
}

/// `v[i] += 1.0` — exact and commutative, so a buffer bumped from many
/// threads ends at the bump count whatever order the hazard DAG chose.
struct Bump;
impl KernelBody for Bump {
    fn name(&self) -> &str {
        "bump"
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(16.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        for v in ctx.slice_mut::<f64>(0) {
            *v += 1.0;
        }
    }
}

/// [`Damp`]'s arithmetic, then the microseconds of device time argument 1
/// says: the same contents as `damp`, completing later.
struct Cool;
impl KernelBody for Cool {
    fn name(&self) -> &str {
        "cool"
    }
    fn arity(&self) -> usize {
        2
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(16.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        for v in ctx.slice_mut::<f64>(0) {
            *v = 0.5 * *v + 1.0;
        }
        ctx.occupy_device(Duration::from_micros(ctx.u64(1)));
    }
}

const N: usize = 256;
/// Elements of a *big* buffer: copying one moves 256 KiB, above the
/// executor's caller-run threshold (2^17 nominal work units).
const BIG: usize = 32 * 1024;

/// Launch geometry of a kernel the executor runs on the caller when
/// unblocked (`light`: 64 items × ≤ 24 units) or always pools (`heavy`:
/// 2^14 items × ≥ 16 units = 2^18). The test bodies sweep their whole
/// buffers whatever the geometry, so only cost and placement differ.
fn nd(heavy: bool) -> NdRange {
    NdRange::d1(if heavy { 1 << 14 } else { 64 }, 64)
}

/// One trace record: queue, device, command kind, and its four stamps.
type TraceDigest = Vec<(usize, usize, String, u64, u64, u64, u64)>;

/// A trace digest that is stable across processes and runs: queue ids are
/// process-global counters, so they are normalized to first-appearance
/// order before comparison.
fn trace_digest(p: &Platform) -> TraceDigest {
    let mut qmap: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    p.trace_snapshot()
        .records
        .iter()
        .map(|r| {
            let next = qmap.len();
            let q = *qmap.entry(r.queue).or_insert(next);
            (
                q,
                r.device.index(),
                format!("{:?}", r.kind),
                r.stamp.queued.as_nanos(),
                r.stamp.submit.as_nanos(),
                r.stamp.start.as_nanos(),
                r.stamp.end.as_nanos(),
            )
        })
        .collect()
}

/// Everything observable about one run: final buffer contents, every
/// mid-stream blocking-read result, and the virtual-time trace digest.
type Observed = (Vec<Vec<f64>>, Vec<Vec<f64>>, TraceDigest);

/// Run one seeded random command DAG over shared buffers. Kernels are light
/// or heavy by launch geometry, copies by buffer size (small ↔ small is
/// light, big ↔ big heavy), writes always qualify for the caller.
fn run_workload(seed: u64, workers: usize) -> Observed {
    let p = Platform::paper_node_with(RuntimeConfig {
        data_plane_workers: workers,
        ..RuntimeConfig::default()
    });
    let ctx = p.create_context_all().unwrap();
    let prog = ctx
        .create_program(vec![
            Arc::new(Saxpy) as Arc<dyn KernelBody>,
            Arc::new(Damp) as Arc<dyn KernelBody>,
            Arc::new(Cool) as Arc<dyn KernelBody>,
        ])
        .unwrap();
    prog.build(0).unwrap();
    let saxpy = prog.create_kernel("saxpy").unwrap();
    let damp = prog.create_kernel("damp").unwrap();
    let cool = prog.create_kernel("cool").unwrap();

    // Four small buffers, then two big ones.
    const SMALL: usize = 4;
    let buffers: Vec<Buffer> = (0..SMALL + 2)
        .map(|i| ctx.create_buffer_of::<f64>(if i < SMALL { N } else { BIG }).unwrap())
        .collect();
    // One in-order queue per device plus an out-of-order queue, so both
    // chain-dependency and explicit-wait ordering are exercised.
    let mut queues: Vec<CommandQueue> =
        (0..3).map(|d| ctx.create_queue(DeviceId(d)).unwrap()).collect();
    queues.push(ctx.create_queue_ooo(DeviceId(1)).unwrap());

    let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut events: Vec<Event> = Vec::new();
    let mut reads: Vec<Vec<f64>> = Vec::new();

    // Deterministic initial contents through the normal write path.
    for (i, b) in buffers.iter().enumerate() {
        let init: Vec<f64> = (0..b.len::<f64>()).map(|j| (i * N + j) as f64 * 0.001).collect();
        events.push(queues[i % queues.len()].enqueue_write(b, &init).unwrap());
    }

    const STEPS: u64 = 80;
    for step in 0..STEPS {
        let q = &queues[rng.index(queues.len())];
        // Cross-queue DAG edges: sometimes wait on an arbitrary earlier event.
        let waits: Vec<Event> = if !events.is_empty() && rng.index(3) == 0 {
            vec![events[rng.index(events.len())].clone()]
        } else {
            Vec::new()
        };
        let ev = match rng.index(9) {
            0 => {
                let b = &buffers[rng.index(buffers.len())];
                let data: Vec<f64> =
                    (0..b.len::<f64>()).map(|j| (step * 7 + j as u64) as f64 * 0.01).collect();
                q.enqueue_write(b, &data).unwrap()
            }
            1 => {
                // Same-size pairs only: small ↔ small, or the two big ones.
                let (s, d) = if rng.index(3) == 0 {
                    let s = SMALL + rng.index(2);
                    (s, 2 * SMALL + 1 - s)
                } else {
                    let s = rng.index(SMALL);
                    (s, (s + 1 + rng.index(SMALL - 1)) % SMALL)
                };
                q.enqueue_copy(&buffers[s], &buffers[d]).unwrap()
            }
            2 => {
                let b = &buffers[rng.index(buffers.len())];
                let mut out = vec![0.0f64; b.len::<f64>()];
                let ev = q.enqueue_read(b, &mut out).unwrap();
                reads.push(out);
                ev
            }
            3 => q.enqueue_barrier(),
            4 | 5 => {
                let x = rng.index(buffers.len());
                let y = (x + 1 + rng.index(buffers.len() - 1)) % buffers.len();
                saxpy.set_arg(0, ArgValue::Buffer(buffers[x].clone())).unwrap();
                saxpy.set_arg(1, ArgValue::BufferMut(buffers[y].clone())).unwrap();
                q.enqueue_ndrange(&saxpy, nd(rng.index(2) == 0), &waits).unwrap()
            }
            6 => {
                // Device time short enough to be waited out where the next
                // command is enqueued, long enough to be queued behind, or
                // long enough to be slept on.
                let micros = [20, 120, 400][rng.index(3)];
                cool.set_arg(0, ArgValue::BufferMut(buffers[rng.index(buffers.len())].clone()))
                    .unwrap();
                cool.set_arg(1, ArgValue::U64(micros)).unwrap();
                q.enqueue_ndrange(&cool, nd(rng.index(2) == 0), &waits).unwrap()
            }
            _ => {
                damp.set_arg(0, ArgValue::BufferMut(buffers[rng.index(buffers.len())].clone()))
                    .unwrap();
                q.enqueue_ndrange(&damp, nd(rng.index(2) == 0), &waits).unwrap()
            }
        };
        events.push(ev);
    }
    for q in &queues {
        q.finish();
    }
    // Every command was one data-plane task, run on the caller or handed
    // off — never both, never neither — and nothing handed off is left.
    let stats = p.data_plane_stats();
    assert_eq!(
        stats.inline_tasks + stats.submitted,
        buffers.len() as u64 + STEPS,
        "seed {seed}, {workers} workers: {stats:?}"
    );
    assert_eq!(stats.submitted, stats.executed, "seed {seed}, {workers} workers: {stats:?}");
    if workers > 1 {
        assert!(stats.inline_tasks > 0 && stats.submitted > 0, "one-sided mix: {stats:?}");
    }
    assert!(stats.timed_tasks > 0, "seed {seed}: no command declared device time: {stats:?}");
    assert_eq!(stats.queue_depth, 0, "seed {seed}, {workers} workers: {stats:?}");
    let contents = buffers.iter().map(|b| b.host_snapshot::<f64>()).collect();
    (contents, reads, trace_digest(&p))
}

/// The tentpole invariant, property-tested over seeded random DAGs:
/// execution is bit-identical to synchronous execution whatever the worker
/// count and wherever each task ran — same buffer contents, same
/// blocking-read results, same virtual timeline.
#[test]
fn random_dags_are_bit_identical_across_worker_counts() {
    for seed in 0..6u64 {
        let (seq_bufs, seq_reads, seq_trace) = run_workload(seed, 1);
        for workers in [2, 4, 8] {
            let (par_bufs, par_reads, par_trace) = run_workload(seed, workers);
            let at = format!("seed {seed}, {workers} workers");
            assert_eq!(seq_bufs, par_bufs, "buffer contents diverged ({at})");
            assert_eq!(seq_reads, par_reads, "blocking-read results diverged ({at})");
            assert_eq!(seq_trace, par_trace, "virtual-time trace diverged ({at})");
        }
    }
}

/// A kernel whose body appends its tag to a shared order log; the `gated`
/// one first blocks until the test releases it, so the interleaving under
/// test is forced, not slept for.
struct Logged {
    name: &'static str,
    log: Arc<Mutex<Vec<&'static str>>>,
    gate: Option<Mutex<mpsc::Receiver<()>>>,
}
impl KernelBody for Logged {
    fn name(&self) -> &str {
        self.name
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(16.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        if let Some(gate) = &self.gate {
            gate.lock().unwrap().recv().expect("the test releases the gate");
        }
        self.log.lock().unwrap().push(self.name);
        ctx.slice_mut::<f64>(0)[0] += 1.0;
    }
}

/// How the light command of the ordering test is tied to the heavy one.
#[derive(Debug, Clone, Copy)]
enum Edge {
    /// Same in-order queue: the implicit chain.
    QueueChain,
    /// Another queue, same buffer: a RAW/WAW hazard.
    Hazard,
    /// Another queue, another buffer: an explicit event wait.
    EventWait,
}

/// A light command enqueued behind an unfinished heavy predecessor is
/// queued — `enqueue` returns while the predecessor still runs — and never
/// run early, whichever kind of edge orders it.
#[test]
fn light_command_behind_an_unfinished_heavy_one_is_queued_not_run_early() {
    for edge in [Edge::QueueChain, Edge::Hazard, Edge::EventWait] {
        let p = Platform::paper_node_with(RuntimeConfig {
            data_plane_workers: 2,
            ..RuntimeConfig::default()
        });
        let ctx = p.create_context_all().unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (release, gate) = mpsc::channel();
        let prog = ctx
            .create_program(vec![
                Arc::new(Logged { name: "heavy", log: Arc::clone(&log), gate: Some(gate.into()) })
                    as Arc<dyn KernelBody>,
                Arc::new(Logged { name: "light", log: Arc::clone(&log), gate: None })
                    as Arc<dyn KernelBody>,
            ])
            .unwrap();
        prog.build(0).unwrap();
        let (heavy, light) =
            (prog.create_kernel("heavy").unwrap(), prog.create_kernel("light").unwrap());
        let a = ctx.create_buffer_of::<f64>(N).unwrap();
        let b = ctx.create_buffer_of::<f64>(N).unwrap();
        let q1 = ctx.create_queue(DeviceId(1)).unwrap();
        let q2 = ctx.create_queue(DeviceId(2)).unwrap();

        heavy.set_arg(0, ArgValue::BufferMut(a.clone())).unwrap();
        let heavy_ev = q1.enqueue_ndrange(&heavy, nd(true), &[]).unwrap();
        let (q, target, waits) = match edge {
            Edge::QueueChain => (&q1, &b, vec![]),
            Edge::Hazard => (&q2, &a, vec![]),
            Edge::EventWait => (&q2, &b, vec![heavy_ev]),
        };
        light.set_arg(0, ArgValue::BufferMut(target.clone())).unwrap();
        q.enqueue_ndrange(&light, nd(false), &waits).unwrap();
        // The enqueue returned with the heavy body still parked at its
        // gate: the light body cannot have run, here or on a worker.
        assert!(log.lock().unwrap().is_empty(), "{edge:?}: ran early");
        let stats = p.data_plane_stats();
        assert_eq!((stats.inline_tasks, stats.submitted), (0, 2), "{edge:?}: {stats:?}");
        release.send(()).unwrap();
        q.finish();
        assert_eq!(*log.lock().unwrap(), ["heavy", "light"], "{edge:?}");
        // Unblocked, the same light command runs on the caller.
        q.enqueue_ndrange(&light, nd(false), &[]).unwrap();
        assert_eq!(p.data_plane_stats().inline_tasks, 1, "{edge:?}");
        assert_eq!(log.lock().unwrap().len(), 3, "{edge:?}: complete on return");
    }
}

/// A kernel body that always panics, for the isolation regression test.
struct Explode;
impl KernelBody for Explode {
    fn name(&self) -> &str {
        "explode"
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(8.0)
    }
    fn execute(&self, _ctx: &mut KernelCtx<'_>) {
        panic!("injected kernel-body panic");
    }
}

/// Regression: a panicking kernel body reported via `finish` must surface
/// the *original* panic message exactly once and leave the platform usable —
/// no `PoisonError` cascade, no stale re-panic on the next blocking call.
/// The contract is the same wherever the body ran: pooled (heavy), or on
/// the enqueueing thread (light, or any body with one worker), where the
/// enqueue itself returns normally and `finish` finds nothing outstanding.
#[test]
fn panicking_kernel_body_reported_via_finish_leaves_platform_usable() {
    for (workers, heavy) in [(4, true), (4, false), (1, true)] {
        let at = format!("{workers} workers, heavy={heavy}");
        let p = Platform::paper_node_with(RuntimeConfig {
            data_plane_workers: workers,
            ..RuntimeConfig::default()
        });
        let ctx = p.create_context_all().unwrap();
        let prog = ctx
            .create_program(vec![
                Arc::new(Explode) as Arc<dyn KernelBody>,
                Arc::new(Damp) as Arc<dyn KernelBody>,
            ])
            .unwrap();
        prog.build(0).unwrap();
        let boom = prog.create_kernel("explode").unwrap();
        let damp = prog.create_kernel("damp").unwrap();
        let buf = ctx.create_buffer_of::<f64>(N).unwrap();
        let q = ctx.create_queue(DeviceId(0)).unwrap();
        q.enqueue_write(&buf, &vec![4.0f64; N]).unwrap();

        boom.set_arg(0, ArgValue::BufferMut(buf.clone())).unwrap();
        q.enqueue_ndrange(&boom, nd(heavy), &[]).unwrap();
        if workers == 1 || !heavy {
            // Caught on this thread: counted, complete, nothing to join.
            let stats = p.data_plane_stats();
            assert_eq!((stats.panics, stats.queue_depth, stats.submitted), (1, 0, 0), "{at}");
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.finish()))
            .expect_err("finish must re-raise the body panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("injected kernel-body panic"), "wrong panic propagated ({at}): {msg}");

        // Same queue, same buffer, fresh work: everything still functions.
        damp.set_arg(0, ArgValue::BufferMut(buf.clone())).unwrap();
        q.enqueue_ndrange(&damp, nd(heavy), &[]).unwrap();
        q.finish(); // must not re-panic
        let out = buf.host_snapshot::<f64>();
        assert!(out.iter().all(|v| v.is_finite()));
        assert_eq!(p.data_plane_stats().panics, 1, "{at}");
        p.quiesce_data_plane(); // and the plane is drained + healthy
    }
}

/// `finish` called concurrently from many threads over shared buffers and
/// queues: snapshot-joining the outstanding task set means every finisher
/// blocks until the work it saw is done, and nobody deadlocks.
#[test]
fn concurrent_finish_from_many_threads_does_not_deadlock() {
    let p = Platform::paper_node_with(RuntimeConfig {
        data_plane_workers: 4,
        ..RuntimeConfig::default()
    });
    let ctx = p.create_context_all().unwrap();
    let prog = ctx.create_program(vec![Arc::new(Damp) as Arc<dyn KernelBody>]).unwrap();
    prog.build(0).unwrap();
    let shared = ctx.create_buffer_of::<f64>(N).unwrap();
    let queues: Vec<CommandQueue> =
        (0..3).map(|d| ctx.create_queue(DeviceId(d)).unwrap()).collect();
    queues[0].enqueue_write(&shared, &vec![4.0f64; N]).unwrap();
    queues[0].finish();

    let handles: Vec<_> = (0..6)
        .map(|t: usize| {
            let q = queues[t % queues.len()].clone();
            let k = prog.create_kernel("damp").unwrap();
            let buf = shared.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    k.set_arg(0, ArgValue::BufferMut(buf.clone())).unwrap();
                    q.enqueue_ndrange(&k, NdRange::d1(N as u64, 64), &[]).unwrap();
                    q.finish();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("finisher thread");
    }
    for q in &queues {
        q.finish();
    }
    p.quiesce_data_plane();
    let stats = p.data_plane_stats();
    assert_eq!(stats.queue_depth, 0, "plane drained: {stats:?}");
    // Damp is contracting with fixed point 2.0 from above: after 120
    // applications in *some* order the values sit in (2.0, 4.0] and finite.
    let out = shared.host_snapshot::<f64>();
    assert!(out.iter().all(|v| v.is_finite() && *v > 2.0 - 1e-9 && *v <= 4.0));
}

/// Run `body` on its own thread and fail — rather than hang CI — if it has
/// not returned within `limit`: a blocking point that missed its wake-up
/// never returns.
fn with_watchdog(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => runner.join().expect("stress body"),
        // The sender dropped without sending: the body panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("body panicked"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("no progress within {limit:?}: a thread is blocked for good (a lost wake-up?)")
        }
    }
}

/// Wake-ups are targeted (one worker per released task, joiners only while
/// one waits), so a single missed signal would park a thread for good.
/// Shake that out: four submitters drive thousands of short chains of
/// light and heavy commands at four workers — over a private buffer each,
/// a shared read-only one (readers released together) and a shared counter
/// every thread bumps (tasks queued behind another thread's live
/// caller-run task or blocking read, released from that thread) — each
/// cycling through every kind of blocking point — `finish`, `Event::wait`,
/// blocking reads, a whole-plane quiesce — while the others keep
/// submitting. Results stay exact and nobody hangs.
#[test]
fn targeted_wake_ups_lose_no_signal_under_concurrent_blocking_points() {
    const THREADS: usize = 4;
    const CHAINS: usize = 600;
    with_watchdog(Duration::from_secs(120), || {
        let p = Platform::paper_node_with(RuntimeConfig {
            data_plane_workers: 4,
            ..RuntimeConfig::default()
        });
        let ctx = p.create_context_all().unwrap();
        let prog = ctx
            .create_program(vec![
                Arc::new(Saxpy) as Arc<dyn KernelBody>,
                Arc::new(Damp) as Arc<dyn KernelBody>,
                Arc::new(Bump) as Arc<dyn KernelBody>,
                Arc::new(Cool) as Arc<dyn KernelBody>,
            ])
            .unwrap();
        prog.build(0).unwrap();
        // Read by everyone, written by no one after this.
        let shared = ctx.create_buffer_of::<f64>(N).unwrap();
        // Bumped by everyone.
        let counter = ctx.create_buffer_of::<f64>(N).unwrap();
        let q0 = ctx.create_queue(DeviceId(0)).unwrap();
        q0.enqueue_write(&shared, &vec![2.0f64; N]).unwrap();
        q0.enqueue_write(&counter, &vec![0.0f64; N]).unwrap();
        q0.finish();

        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (p, ctx, prog, shared, counter) = (&p, &ctx, &prog, &shared, &counter);
                s.spawn(move || {
                    let q = ctx.create_queue(DeviceId(t % 3)).unwrap();
                    let saxpy = prog.create_kernel("saxpy").unwrap();
                    let damp = prog.create_kernel("damp").unwrap();
                    let bump = prog.create_kernel("bump").unwrap();
                    let cool = prog.create_kernel("cool").unwrap();
                    let mine = ctx.create_buffer_of::<f64>(N).unwrap();
                    q.enqueue_write(&mine, &vec![t as f64; N]).unwrap();
                    saxpy.set_arg(0, ArgValue::Buffer(shared.clone())).unwrap();
                    saxpy.set_arg(1, ArgValue::BufferMut(mine.clone())).unwrap();
                    damp.set_arg(0, ArgValue::BufferMut(mine.clone())).unwrap();
                    bump.set_arg(0, ArgValue::BufferMut(counter.clone())).unwrap();
                    cool.set_arg(0, ArgValue::BufferMut(mine.clone())).unwrap();
                    let mut expect = t as f64;
                    let mut out = vec![0.0f64; N];
                    for chain in 0..CHAINS {
                        // Pooled tasks with light dependents queued behind
                        // them, and light ones that run right here.
                        q.enqueue_ndrange(&damp, nd(true), &[]).unwrap();
                        q.enqueue_ndrange(&saxpy, nd(false), &[]).unwrap();
                        q.enqueue_ndrange(&bump, nd(chain % 3 == 0), &[]).unwrap();
                        // The chain ends in device time every blocking
                        // point below has to see out: short enough for the
                        // next enqueue to wait out, or long enough for it
                        // to queue behind (and for a joiner to sleep on).
                        cool.set_arg(1, ArgValue::U64([10, 90, 300][chain % 3])).unwrap();
                        let last = q.enqueue_ndrange(&cool, nd(chain % 2 == 0), &[]).unwrap();
                        expect = 0.5 * (0.5 * expect + 1.0 + 1.5 * 2.0) + 1.0;
                        match (chain + t) % 4 {
                            0 => q.finish(),
                            1 => last.wait(),
                            2 => {
                                q.enqueue_read(&mine, &mut out).unwrap();
                                assert!(out.iter().all(|&v| v == expect), "thread {t} #{chain}");
                                // Other threads' bumps queue behind this
                                // read; each lands whole or not at all.
                                q.enqueue_read(counter, &mut out).unwrap();
                                assert!(out.iter().all(|&v| v == out[0]), "torn bump: {out:?}");
                            }
                            _ => p.quiesce_data_plane(),
                        }
                    }
                    q.finish();
                    assert!(mine.host_snapshot::<f64>().iter().all(|&v| v == expect), "thread {t}");
                });
            }
        });
        p.quiesce_data_plane();
        let bumps = (THREADS * CHAINS) as f64;
        assert!(counter.host_snapshot::<f64>().iter().all(|&v| v == bumps));
        let stats = p.data_plane_stats();
        assert_eq!(stats.queue_depth, 0, "plane drained: {stats:?}");
        assert_eq!(stats.submitted, stats.executed, "{stats:?}");
        // Per thread: its write, four launches a chain, two reads every
        // fourth chain; plus the two shared writes.
        let commands = 2 + THREADS * (1 + 4 * CHAINS + 2 * (CHAINS / 4));
        assert_eq!(stats.inline_tasks + stats.submitted, commands as u64, "{stats:?}");
        assert_eq!(stats.timed_tasks, (THREADS * CHAINS) as u64, "{stats:?}");
    });
}

/// When each execution of a [`Timed`] body started and — the last thing it
/// did — ended: its command's deadline is no earlier than that end plus the
/// device time it declared.
type Spans = Arc<Mutex<Vec<(Instant, Instant)>>>;

/// `dst[i] = src[i] + 1.0`, then declares `time` on its device.
struct Timed {
    time: Duration,
    spans: Spans,
}
impl KernelBody for Timed {
    fn name(&self) -> &str {
        "timed"
    }
    fn arity(&self) -> usize {
        2
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(16.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let start = Instant::now();
        let src = ctx.slice::<f64>(0);
        for (d, s) in ctx.slice_mut::<f64>(1).iter_mut().zip(src) {
            *d = s + 1.0;
        }
        ctx.occupy_device(self.time);
        self.spans.lock().unwrap().push((start, Instant::now()));
    }
}

/// A platform of `workers` data-plane workers with one [`Timed`] kernel
/// declaring `time`, `buffers` zeroed buffers, and one queue per device.
struct TimedRig {
    p: Platform,
    kernel: clrt::Kernel,
    spans: Spans,
    bufs: Vec<Buffer>,
    queues: Vec<CommandQueue>,
}

fn timed_rig(workers: usize, time: Duration, buffers: usize) -> TimedRig {
    let p = Platform::paper_node_with(RuntimeConfig {
        data_plane_workers: workers,
        ..RuntimeConfig::default()
    });
    let ctx = p.create_context_all().unwrap();
    let spans = Spans::default();
    let body = Timed { time, spans: Arc::clone(&spans) };
    let prog = ctx.create_program(vec![Arc::new(body) as Arc<dyn KernelBody>]).unwrap();
    prog.build(0).unwrap();
    let kernel = prog.create_kernel("timed").unwrap();
    let bufs = (0..buffers).map(|_| ctx.create_buffer_of::<f64>(N).unwrap()).collect();
    let queues = (0..3).map(|d| ctx.create_queue(DeviceId(d)).unwrap()).collect();
    TimedRig { p, kernel, spans, bufs, queues }
}

impl TimedRig {
    /// Enqueue `timed(src → dst)` on queue `q`.
    fn launch(&self, q: usize, src: usize, dst: usize, heavy: bool, waits: &[Event]) -> Event {
        self.kernel.set_arg(0, ArgValue::Buffer(self.bufs[src].clone())).unwrap();
        self.kernel.set_arg(1, ArgValue::BufferMut(self.bufs[dst].clone())).unwrap();
        self.queues[q].enqueue_ndrange(&self.kernel, nd(heavy), waits).unwrap()
    }

    fn spans(&self) -> Vec<(Instant, Instant)> {
        self.spans.lock().unwrap().clone()
    }
}

/// Device times on either side of both executor thresholds: shorter than a
/// hand-off (50 µs), between that and the sleep overshoot (200 µs), beyond.
const DEVICE_TIMES: [Duration; 3] =
    [Duration::from_micros(25), Duration::from_micros(120), Duration::from_millis(2)];

/// Completion is "body returned and deadline passed": three launches on one
/// in-order queue take at least three device times to finish, and none
/// starts inside its predecessor's — whatever the worker count, whichever
/// side of the thresholds the device time falls, wherever the bodies run.
#[test]
fn chained_launches_finish_no_earlier_than_their_summed_device_time() {
    for workers in [1, 2, 4] {
        for d in DEVICE_TIMES {
            for heavy in [false, true] {
                let at = format!("{workers} workers, {d:?}, heavy={heavy}");
                let rig = timed_rig(workers, d, 2);
                for _ in 0..3 {
                    rig.launch(0, 0, 1, heavy, &[]);
                }
                rig.queues[0].finish();
                let finished = Instant::now();
                let spans = rig.spans();
                assert_eq!(spans.len(), 3, "{at}");
                for (pred, succ) in spans.iter().zip(&spans[1..]) {
                    assert!(succ.0 >= pred.1 + d, "a body beat its predecessor's deadline: {at}");
                }
                assert!(finished >= spans[2].1 + d, "finish returned before the deadline: {at}");
                assert!(finished - spans[0].0 >= 3 * d, "{at}");
                let stats = rig.p.data_plane_stats();
                assert_eq!((stats.timed_tasks, stats.queue_depth), (3, 0), "{at}: {stats:?}");
                if workers == 1 || (!heavy && d < Duration::from_micros(50)) {
                    // Nothing to hand off: alone, or light behind device
                    // time shorter than a hand-off.
                    assert_eq!((stats.inline_tasks, stats.submitted), (3, 0), "{at}: {stats:?}");
                }
                assert!(rig.bufs[1].host_snapshot::<f64>().iter().all(|&v| v == 1.0), "{at}");
            }
        }
    }
}

/// The same across queues: a dependent on another queue is held until the
/// deadline whichever edge orders it — a RAW or a WAR hazard on a shared
/// buffer, or an explicit event wait.
#[test]
fn dependents_on_other_queues_wait_for_the_deadline_through_every_kind_of_edge() {
    #[derive(Debug, Clone, Copy)]
    enum Via {
        Raw,
        War,
        EventWait,
    }
    for workers in [1, 2, 4] {
        for d in DEVICE_TIMES {
            for via in [Via::Raw, Via::War, Via::EventWait] {
                let at = format!("{workers} workers, {d:?}, {via:?}");
                let rig = timed_rig(workers, d, 4);
                let first = rig.launch(0, 0, 1, false, &[]);
                match via {
                    Via::Raw => rig.launch(1, 1, 2, false, &[]),
                    Via::War => rig.launch(1, 2, 0, false, &[]),
                    Via::EventWait => rig.launch(1, 2, 3, false, &[first]),
                };
                rig.queues[1].finish();
                let finished = Instant::now();
                let spans = rig.spans();
                assert_eq!(spans.len(), 2, "{at}");
                assert!(
                    spans[1].0 >= spans[0].1 + d,
                    "ran inside its predecessor's device time: {at}"
                );
                assert!(finished >= spans[1].1 + d, "finish returned before the deadline: {at}");
                assert_eq!(rig.p.data_plane_stats().timed_tasks, 2, "{at}");
            }
        }
    }
}

/// Every way to ask for a command's result returns after its deadline, and
/// with what it wrote.
#[test]
fn blocking_points_return_after_the_deadline_with_the_written_contents() {
    for workers in [1, 2, 4] {
        for heavy in [false, true] {
            for ask in ["Event::wait", "enqueue_read", "host_snapshot"] {
                let at = format!("{workers} workers, heavy={heavy}, {ask}");
                let d = Duration::from_millis(5);
                let rig = timed_rig(workers, d, 2);
                let ev = rig.launch(0, 0, 1, heavy, &[]);
                let mut out = vec![0.0f64; N];
                match ask {
                    "Event::wait" => ev.wait(),
                    "enqueue_read" => drop(rig.queues[0].enqueue_read(&rig.bufs[1], &mut out)),
                    _ => out = rig.bufs[1].host_snapshot::<f64>(),
                }
                let asked = Instant::now();
                assert!(asked >= rig.spans()[0].1 + d, "returned before the deadline: {at}");
                if ask == "Event::wait" {
                    out = rig.bufs[1].host_snapshot::<f64>();
                }
                assert!(out.iter().all(|&v| v == 1.0), "{at}");
                assert_eq!(rig.p.data_plane_stats().timed_tasks, 1, "{at}");
            }
        }
    }
}

/// Device time is nobody's thread and nobody's lock: with a single worker —
/// every body on the enqueueing thread — four launches on independent
/// queues overlap their device time, each enqueue returns long before its
/// command completes, and a reader of a buffer a command in device time is
/// still "using" runs at once.
#[test]
fn device_time_holds_neither_a_thread_nor_a_store_lock() {
    let d = Duration::from_millis(150);
    let rig = timed_rig(1, d, 5);
    let ctx = rig.queues[0].context().clone();
    let queues: Vec<CommandQueue> =
        (0..4).map(|i| ctx.create_queue(DeviceId(i % 3)).unwrap()).collect();
    let began = Instant::now();
    for (i, q) in queues.iter().enumerate() {
        // All four read buffer 4; each writes its own.
        rig.kernel.set_arg(0, ArgValue::Buffer(rig.bufs[4].clone())).unwrap();
        rig.kernel.set_arg(1, ArgValue::BufferMut(rig.bufs[i].clone())).unwrap();
        q.enqueue_ndrange(&rig.kernel, nd(false), &[]).unwrap();
    }
    let enqueued = began.elapsed();
    // Readers share: each body locked buffer 4's store, none still does.
    assert_eq!(rig.spans().len(), 4, "a body waited for another's device time");
    assert!(enqueued < d, "four enqueues took {enqueued:?}: one sat through device time");
    let stats = rig.p.data_plane_stats();
    assert_eq!((stats.inline_tasks, stats.submitted, stats.queue_depth), (4, 0, 4), "{stats:?}");
    assert_eq!(rig.bufs[0].data_version(), 1);
    for q in &queues {
        q.finish();
    }
    let finished = began.elapsed();
    assert!(finished >= d, "finish returned before the deadline");
    assert!(finished < 2 * d, "device time of independent queues did not overlap: {finished:?}");
    assert_eq!(rig.p.data_plane_stats().queue_depth, 0);
}

/// An enqueue is asynchronous with the device again: a light launch — its
/// body runs right here — that declares 5 ms returns in well under 1 ms.
/// The best of a few tries is bounded, so a preempted one cannot fail it.
#[test]
fn enqueue_of_a_light_launch_returns_before_its_device_time() {
    for workers in [1, 2, 4] {
        let rig = timed_rig(workers, Duration::from_millis(5), 2);
        let best = (0..5)
            .map(|_| {
                let began = Instant::now();
                rig.launch(0, 0, 1, false, &[]);
                let took = began.elapsed();
                rig.queues[0].finish();
                took
            })
            .min()
            .unwrap();
        assert!(best < Duration::from_millis(1), "{workers} workers: enqueue took {best:?}");
        let stats = rig.p.data_plane_stats();
        assert_eq!((stats.inline_tasks, stats.timed_tasks), (5, 5), "{workers} workers: {stats:?}");
    }
}

/// A body that declares device time and then panics.
struct DoomedAfterDeclaring;
impl KernelBody for DoomedAfterDeclaring {
    fn name(&self) -> &str {
        "doomed"
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(16.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        ctx.occupy_device(Duration::from_secs(3600));
        panic!("injected panic after declaring device time");
    }
}

/// A panicking body completes at once, whatever it declared before: its
/// dependents run, `finish` re-raises the panic — once — and returns.
#[test]
fn panicking_body_that_declared_device_time_blocks_nobody() {
    for (workers, heavy) in [(1, false), (2, false), (4, true)] {
        let at = format!("{workers} workers, heavy={heavy}");
        with_watchdog(Duration::from_secs(60), move || {
            let p = Platform::paper_node_with(RuntimeConfig {
                data_plane_workers: workers,
                ..RuntimeConfig::default()
            });
            let ctx = p.create_context_all().unwrap();
            let prog = ctx
                .create_program(vec![
                    Arc::new(DoomedAfterDeclaring) as Arc<dyn KernelBody>,
                    Arc::new(Bump) as Arc<dyn KernelBody>,
                ])
                .unwrap();
            prog.build(0).unwrap();
            let (doomed, bump) =
                (prog.create_kernel("doomed").unwrap(), prog.create_kernel("bump").unwrap());
            let buf = ctx.create_buffer_of::<f64>(N).unwrap();
            let q = ctx.create_queue(DeviceId(0)).unwrap();
            doomed.set_arg(0, ArgValue::BufferMut(buf.clone())).unwrap();
            bump.set_arg(0, ArgValue::BufferMut(buf.clone())).unwrap();
            q.enqueue_ndrange(&doomed, nd(heavy), &[]).unwrap();
            q.enqueue_ndrange(&bump, nd(heavy), &[]).unwrap();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| q.finish()))
                .expect_err("finish must re-raise the body panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("after declaring device time"), "{at}: {msg}");
            q.finish(); // reported once
            assert!(buf.host_snapshot::<f64>().iter().all(|&v| v == 1.0), "{at}");
            let stats = p.data_plane_stats();
            assert_eq!((stats.panics, stats.timed_tasks, stats.queue_depth), (1, 0, 0), "{at}");
        });
    }
}

/// Dropping the runtime does not sit through device time nothing waits for.
#[test]
fn dropping_the_platform_with_commands_in_device_time_returns_promptly() {
    for workers in [1, 2, 4] {
        with_watchdog(Duration::from_secs(60), move || {
            let rig = timed_rig(workers, Duration::from_secs(3600), 4);
            rig.launch(0, 0, 1, false, &[]);
            rig.launch(1, 2, 3, workers > 1, &[]);
            // The heavy body runs on a worker: let it get into device time
            // before the drop (the watchdog bounds the wait).
            while rig.p.data_plane_stats().timed_tasks < 2 {
                std::thread::yield_now();
            }
            drop(rig);
        });
    }
}

/// Regression: a buffer's length is fixed at creation, and reading it must
/// not take the store lock a running kernel body holds. With a body parked
/// inside `execute`, everything an enqueue or a scheduling pass asks about
/// the buffer — and a dependent launch on it — returns at once.
#[test]
fn buffer_length_is_readable_while_a_body_runs_on_the_buffer() {
    with_watchdog(Duration::from_secs(20), || {
        let p = Platform::paper_node_with(RuntimeConfig {
            data_plane_workers: 2,
            ..RuntimeConfig::default()
        });
        let ctx = p.create_context_all().unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let (release, gate) = mpsc::channel();
        let (entered_tx, entered) = mpsc::channel();
        /// Says when its body is inside `execute` — the context built, the
        /// store locked — then parks at `inner`'s gate.
        struct Parked {
            inner: Logged,
            entered: Mutex<mpsc::Sender<()>>,
        }
        impl KernelBody for Parked {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn arity(&self) -> usize {
                self.inner.arity()
            }
            fn cost(&self) -> KernelCostSpec {
                self.inner.cost()
            }
            fn execute(&self, ctx: &mut KernelCtx<'_>) {
                self.entered.lock().unwrap().send(()).unwrap();
                self.inner.execute(ctx);
            }
        }
        let parked = Parked {
            inner: Logged { name: "parked", log: Arc::clone(&log), gate: Some(gate.into()) },
            entered: entered_tx.into(),
        };
        let prog = ctx
            .create_program(vec![
                Arc::new(parked) as Arc<dyn KernelBody>,
                Arc::new(Logged { name: "after", log: Arc::clone(&log), gate: None })
                    as Arc<dyn KernelBody>,
            ])
            .unwrap();
        prog.build(0).unwrap();
        let (parked, after) =
            (prog.create_kernel("parked").unwrap(), prog.create_kernel("after").unwrap());
        let buf = ctx.create_buffer_of::<f64>(N).unwrap();
        let q = ctx.create_queue(DeviceId(1)).unwrap();
        parked.set_arg(0, ArgValue::BufferMut(buf.clone())).unwrap();
        after.set_arg(0, ArgValue::BufferMut(buf.clone())).unwrap();
        q.enqueue_ndrange(&parked, nd(true), &[]).unwrap();
        entered.recv().unwrap();
        // The body holds the store lock and will until released.
        assert_eq!(buf.byte_len(), N * 8);
        assert_eq!(buf.len::<f64>(), N);
        let args = after.snapshot_args().unwrap();
        q.check_capacity(&after, &args).unwrap();
        q.enqueue_ndrange(&after, nd(false), &[]).unwrap();
        assert!(log.lock().unwrap().is_empty(), "the parked body is still parked");
        release.send(()).unwrap();
        q.finish();
        assert_eq!(*log.lock().unwrap(), ["parked", "after"]);
    });
}
