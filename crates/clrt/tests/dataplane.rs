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

use clrt::{
    ArgValue, Buffer, CommandQueue, Event, KernelBody, KernelCtx, NdRange, Platform, RuntimeConfig,
};
use hwsim::xrand::XorShift;
use hwsim::{DeviceId, KernelCostSpec};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

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
        ])
        .unwrap();
    prog.build(0).unwrap();
    let saxpy = prog.create_kernel("saxpy").unwrap();
    let damp = prog.create_kernel("damp").unwrap();

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
        let ev = match rng.index(8) {
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
            panic!("no progress within {limit:?}: a blocking point lost its wake-up")
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
                    let mine = ctx.create_buffer_of::<f64>(N).unwrap();
                    q.enqueue_write(&mine, &vec![t as f64; N]).unwrap();
                    saxpy.set_arg(0, ArgValue::Buffer(shared.clone())).unwrap();
                    saxpy.set_arg(1, ArgValue::BufferMut(mine.clone())).unwrap();
                    damp.set_arg(0, ArgValue::BufferMut(mine.clone())).unwrap();
                    bump.set_arg(0, ArgValue::BufferMut(counter.clone())).unwrap();
                    let mut expect = t as f64;
                    let mut out = vec![0.0f64; N];
                    for chain in 0..CHAINS {
                        // Pooled tasks with light dependents queued behind
                        // them, and light ones that run right here.
                        q.enqueue_ndrange(&damp, nd(true), &[]).unwrap();
                        q.enqueue_ndrange(&saxpy, nd(false), &[]).unwrap();
                        q.enqueue_ndrange(&bump, nd(chain % 3 == 0), &[]).unwrap();
                        let last = q.enqueue_ndrange(&damp, nd(chain % 2 == 0), &[]).unwrap();
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
    });
}
