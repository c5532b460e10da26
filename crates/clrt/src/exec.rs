//! The data-plane executor: a hazard-tracked host task pool.
//!
//! clrt separates two planes. The **time plane** (the hwsim engine) assigns
//! virtual timestamps to every command, eagerly, under the engine lock —
//! nothing in this module touches it. The **data plane** is the real Rust
//! computation against host-backed buffer stores: kernel bodies, buffer
//! writes, and copies. Historically the data plane ran synchronously on the
//! enqueueing thread; this module turns each data-plane action into a *task*
//! executed by a pool of worker threads, so independent commands overlap in
//! wall-clock time while producing bit-identical buffer contents.
//!
//! ## Hazard rules
//!
//! Each task declares the buffers it reads and writes. Dependencies are
//! derived per buffer from the classic hazards, captured atomically (under
//! the executor lock) in enqueue order:
//!
//! * **RAW** — a reader depends on the buffer's last writer.
//! * **WAR** — a writer depends on every reader since the last write.
//! * **WAW** — a writer depends on the last writer.
//!
//! On top of the hazard edges, tasks carry the orderings the program already
//! expressed: the in-order-queue chain and explicit event wait lists. The
//! hazard DAG therefore contains every content-affecting ordering of the
//! sequential execution, which is what makes worker count invisible to
//! results (property-tested in `tests/dataplane.rs`).
//!
//! Reader tasks of one buffer may run concurrently; they lock buffer stores
//! in canonical (buffer-id) order, so concurrent multi-buffer readers cannot
//! deadlock. Writer/writer and writer/reader pairs are ordered by the DAG
//! and never run concurrently.
//!
//! ## Where a task runs
//!
//! `DataPlane::submit` decides, under the executor lock it takes for
//! hazard capture anyway, where the task's body runs. When every
//! predecessor has already completed *and* the body is lighter than a
//! thread hand-off (`LIGHT_WORK`), the task is registered as a live
//! caller-run node — so racing submitters still order after it — and its
//! body runs on the enqueueing thread from a borrowing closure, completing
//! before `submit` returns. Otherwise the owned `'static` body is built and
//! queued for the pool. `workers == 1` is the degenerate case in which
//! every body counts as light: single-threaded use never hands a task off.
//!
//! ## Wake-ups
//!
//! Nobody is woken on spec. A completion wakes a worker only for a
//! dependent it actually released (one each, minus the one a finishing
//! worker takes itself), a submission only for a task that is ready as
//! submitted, and the blocked threads only when the very task one of them
//! marked as its blocker (`Node::watched`) completes — a joiner sleeps
//! through every other completion of the chain it waits for.
//!
//! Which worker is woken is fixed too: the *most recently parked* one
//! (`State::idle` is a stack). Its core is the one most likely still idle
//! and its cache the warmest; waking the longest-parked worker instead —
//! what a shared condition variable does — makes the OS move a worker to
//! another core at every burst of work and, with more runnable threads than
//! cores, leaves two workers sharing one core for milliseconds at a time
//! while the other idles, a different share of every run.
//!
//! ## Blocking points
//!
//! `finish`, blocking reads, and `Event::wait` join only the tasks they
//! transitively depend on (the DAG already encodes transitivity: joining a
//! task implicitly joins its ancestors, because a task only completes after
//! its dependencies). A body that panics — on a worker or on the caller —
//! is caught, and the panic is re-raised exactly once, at the next blocking
//! point, whether or not anything is left to join there.

use crate::buffer::Buffer;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar};
use std::thread::{JoinHandle, Thread};

use hwsim::sync::Mutex;

/// Monotonic identifier of a data-plane task. Never reused; an id absent
/// from the live-task table has completed.
pub type TaskId = u64;

/// The heaviest body, in nominal work units (one flop of a kernel's
/// [`hwsim::KernelCostSpec`] or one byte moved), that still runs on the
/// enqueueing thread when nothing blocks it.
///
/// Derivation: handing a task to a worker and joining it costs ≈50 µs on
/// the 2-core reference host (`clrt.probe_handoff_us` of `perf`: a futex
/// wake, a context switch, and the same again for the joiner), during which
/// the enqueueing thread mostly waits. Host bodies retire a nominal unit in
/// 0.1 ns (memcpy) to 0.25 ns (`served`'s device-latency stand-in) to
/// ≈0.5 ns (scalar kernel math), so 2^17 units are ≈13–65 µs: the largest
/// power of two whose body costs about one hand-off at the slow end, and
/// well under one everywhere else. Anything heavier is worth overlapping.
const LIGHT_WORK: u64 = 1 << 17;

/// One buffer access of a task (read or write), used to derive hazards.
pub(crate) struct Access<'a> {
    pub(crate) buf: &'a Buffer,
    pub(crate) write: bool,
}

impl<'a> Access<'a> {
    pub(crate) fn read(buf: &'a Buffer) -> Access<'a> {
        Access { buf, write: false }
    }

    pub(crate) fn write(buf: &'a Buffer) -> Access<'a> {
        Access { buf, write: true }
    }
}

/// Everything a task must run after, plus the engine event it backs.
#[derive(Default)]
pub(crate) struct Order<'a> {
    /// Buffers the task touches: the source of its hazard edges.
    pub(crate) accesses: &'a [Access<'a>],
    /// Tasks it follows outright (queue chaining, barriers).
    pub(crate) after: &'a [TaskId],
    /// Engine events whose backing tasks it follows (explicit wait lists).
    pub(crate) wait_events: &'a [usize],
    /// Engine event id this task backs, for `Event::wait` joins.
    pub(crate) event: Option<usize>,
}

/// Per-buffer hazard state (lives in `BufferInner`). `version` counts
/// data-plane writes to the buffer — a cheap coherence probe for tests and
/// diagnostics.
#[derive(Debug, Default)]
pub(crate) struct BufHazard {
    pub(crate) last_writer: Option<TaskId>,
    pub(crate) readers: Vec<TaskId>,
    pub(crate) version: u64,
}

/// Counters describing executor load (sampled by telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataPlaneStats {
    /// Worker threads the pool may use (1 = every task is caller-run).
    pub workers: usize,
    /// Tasks handed to the pool, plus blocking reads (registered like a
    /// pooled task, body on the reading thread).
    pub submitted: u64,
    /// Tasks run on the enqueueing thread before `submit` returned
    /// (workers == 1 or the caller-run fast path). Counted here only, so
    /// `submitted == executed` holds whenever the pool is idle.
    pub inline_tasks: u64,
    /// `submitted` tasks completed.
    pub executed: u64,
    /// Live (incomplete) tasks right now.
    pub queue_depth: usize,
    /// Maximum live `submitted` tasks observed.
    pub peak_queue_depth: usize,
    /// Workers executing a task right now.
    pub busy_workers: usize,
    /// Maximum concurrently-busy workers observed.
    pub peak_busy_workers: usize,
    /// Blocking joins performed (finish / blocking read / event wait) that
    /// named at least one task.
    pub joins: u64,
    /// Task bodies that panicked (each isolated and re-raised exactly once
    /// at the next blocking point).
    pub panics: u64,
}

struct Node {
    /// The pooled body: attached by the submitter, taken by the executing
    /// worker. Always `None` for caller-run nodes.
    work: Option<Box<dyn FnOnce() + Send>>,
    /// Caller-run (the fast path, blocking reads): the registering thread
    /// runs the body itself, so the node never enters the ready queue.
    caller_run: bool,
    unmet: usize,
    dependents: Vec<TaskId>,
    /// Engine event id this task backs, for `Event::wait` joins.
    event: Option<usize>,
    /// A blocked thread named this task as what it waits for: its
    /// completion signals `done_cv`.
    watched: bool,
}

#[derive(Default)]
struct State {
    next: TaskId,
    tasks: HashMap<TaskId, Node>,
    ready: VecDeque<TaskId>,
    /// Engine event id → live task backing it.
    events: HashMap<usize, TaskId>,
    threads: Vec<JoinHandle<()>>,
    /// Parked workers, most recently parked last; a wake-up takes the last.
    idle: Vec<Thread>,
    spawned: usize,
    busy: usize,
    shutdown: bool,
    /// First unreported task-body panic. *Taken* (not cloned) by the next
    /// blocking point, so exactly one caller re-raises it; later joins see a
    /// healthy plane instead of a cascade of stale re-panics.
    panic_msg: Option<String>,
    panics: u64,
    submitted: u64,
    inline_tasks: u64,
    executed: u64,
    peak_live: usize,
    peak_busy: usize,
    joins: u64,
}

impl State {
    /// Allocate the next task id and add an edge to it from every live
    /// predecessor `order` names, updating the per-buffer hazard state.
    /// Returns the id and its count of unmet dependencies. The caller holds
    /// the executor lock, which makes capture atomic across concurrent
    /// submitters; the per-buffer locks are leaves (never held across
    /// another lock acquisition).
    fn link(&mut self, order: &Order<'_>) -> (TaskId, usize) {
        let id = self.next;
        self.next += 1;
        let mut unmet = 0;
        // Completed predecessors are gone from `tasks` and add nothing. All
        // of `id`'s edges are added under this one hold of the lock, so a
        // predecessor named twice already has `id` as its newest dependent.
        let mut after = |tasks: &mut HashMap<TaskId, Node>, dep: TaskId| {
            if let Some(n) = tasks.get_mut(&dep) {
                if n.dependents.last() != Some(&id) {
                    n.dependents.push(id);
                    unmet += 1;
                }
            }
        };
        for a in order.accesses {
            let mut h = a.buf.inner.hazard.lock();
            if let Some(w) = h.last_writer {
                after(&mut self.tasks, w); // RAW, WAW
            }
            if a.write {
                for r in h.readers.drain(..) {
                    after(&mut self.tasks, r); // WAR
                }
                h.last_writer = Some(id);
                h.version += 1;
            } else {
                // Prune completed readers so read-heavy buffers stay small.
                h.readers.retain(|t| self.tasks.contains_key(t));
                h.readers.push(id);
            }
        }
        for &d in order.after {
            after(&mut self.tasks, d);
        }
        for e in order.wait_events {
            if let Some(&t) = self.events.get(e) {
                after(&mut self.tasks, t);
            }
        }
        (id, unmet)
    }

    /// Make `id` live with `unmet` open dependencies.
    fn insert(&mut self, id: TaskId, unmet: usize, caller_run: bool, event: Option<usize>) {
        let node =
            Node { work: None, caller_run, unmet, dependents: Vec::new(), event, watched: false };
        self.tasks.insert(id, node);
        if let Some(e) = event {
            self.events.insert(e, id);
        }
    }

    /// Count `id` as handed off (pool or blocking read).
    fn count_submitted(&mut self) {
        self.submitted += 1;
        self.peak_live = self.peak_live.max(self.tasks.len());
    }
}

/// The hazard-tracked task executor (see module docs). One per
/// [`crate::Platform`]; shared by every queue and buffer of the runtime.
pub struct DataPlane {
    workers: usize,
    state: Mutex<State>,
    /// Wakes the blocked threads when a task one of them watches completes.
    done_cv: Condvar,
}

impl DataPlane {
    /// A pool of `workers` threads; `0` means available parallelism and `1`
    /// means every unblocked task runs on the enqueueing thread. Threads
    /// spawn lazily, only when ready tasks outnumber idle workers.
    pub(crate) fn new(workers: usize) -> DataPlane {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map(usize::from).unwrap_or(1)
        } else {
            workers
        };
        DataPlane { workers, state: Mutex::new(State::default()), done_cv: Condvar::new() }
    }

    /// Worker threads the pool may use.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Submit a task of `work` nominal units (see [`LIGHT_WORK`]) ordered by
    /// `order`, and decide where it runs (module docs, *Where a task runs*):
    /// unblocked and light, `run` is called on this thread, the task is
    /// complete on return and `None` is returned; otherwise `owned` builds
    /// the `'static` body, the task is queued and its id returned. Exactly
    /// one of the two closures is called.
    pub(crate) fn submit(
        self: &Arc<Self>,
        order: Order<'_>,
        work: u64,
        run: impl FnOnce(),
        owned: impl FnOnce() -> Box<dyn FnOnce() + Send>,
    ) -> Option<TaskId> {
        let mut st = self.state.lock();
        let (id, unmet) = st.link(&order);
        if unmet == 0 && (self.workers <= 1 || work <= LIGHT_WORK) {
            st.insert(id, 0, true, order.event);
            st.inline_tasks += 1;
            drop(st);
            let panicked = catch_unwind(AssertUnwindSafe(run)).err().map(|e| payload_msg(&*e));
            self.retire(&mut self.state.lock(), id, panicked, 0);
            return None;
        }
        // Building the owned body stages payloads and clones arguments, so
        // it happens outside the lock: until the body is attached the
        // submitter itself holds one dependency of the task.
        st.insert(id, unmet + 1, false, order.event);
        st.count_submitted();
        drop(st);
        let work = owned();
        let mut st = self.state.lock();
        let node = st.tasks.get_mut(&id).expect("the submitter's dependency keeps the task live");
        node.work = Some(work);
        node.unmet -= 1;
        if node.unmet == 0 {
            st.ready.push_back(id);
            self.ensure_workers(&mut st);
            let worker = st.idle.pop();
            drop(st);
            if let Some(w) = worker {
                w.unpark();
            }
        }
        Some(id)
    }

    /// Register a *manual* task: it participates in hazard tracking like any
    /// other task, but its body runs on the caller thread between
    /// [`ManualTask::wait_ready`] and completion (drop). Used by blocking
    /// reads so later writers order after the host copy-out.
    pub(crate) fn begin_manual(
        self: &Arc<Self>,
        accesses: &[Access<'_>],
        after: &[TaskId],
    ) -> ManualTask {
        let mut st = self.state.lock();
        let (id, unmet) = st.link(&Order { accesses, after, ..Order::default() });
        st.insert(id, unmet, true, None);
        st.count_submitted();
        drop(st);
        ManualTask { plane: Arc::clone(self), id }
    }

    /// Spawn workers while ready tasks outnumber idle workers and the pool
    /// has room. (Comparing against *idle* rather than *busy* workers
    /// matters: a just-notified worker that has not yet claimed its task
    /// still counts as idle, and the next submission must not assume it
    /// will absorb both tasks.)
    fn ensure_workers(self: &Arc<Self>, st: &mut State) {
        while st.spawned < self.workers && st.ready.len() > st.spawned - st.busy {
            st.spawned += 1;
            let plane = Arc::clone(self);
            st.threads.push(
                std::thread::Builder::new()
                    .name(format!("clrt-dp-{}", st.spawned))
                    .spawn(move || plane.worker_loop())
                    .expect("spawn data-plane worker"),
            );
        }
    }

    fn worker_loop(self: Arc<Self>) {
        let me = std::thread::current();
        let mut st = self.state.lock();
        loop {
            let Some(id) = st.ready.pop_front() else {
                if st.shutdown {
                    return;
                }
                st.idle.push(me.clone());
                drop(st);
                std::thread::park();
                st = self.state.lock();
                // A waker popped this worker off the stack; after a
                // spurious return from `park` it is still there.
                st.idle.retain(|w| w.id() != me.id());
                continue;
            };
            let work = st.tasks.get_mut(&id).and_then(|n| n.work.take());
            st.busy += 1;
            st.peak_busy = st.peak_busy.max(st.busy);
            drop(st);
            let panicked = work
                .and_then(|f| catch_unwind(AssertUnwindSafe(f)).err().map(|e| payload_msg(&*e)));
            st = self.state.lock();
            st.busy -= 1;
            st.executed += 1;
            // This worker loops straight into one released task itself.
            self.retire(&mut st, id, panicked, 1);
        }
    }

    /// Retire task `id` under the lock: record a body panic, release the
    /// dependents, and wake exactly who has something to do — one parked
    /// worker per released task beyond the `taken` the caller will run
    /// itself, and the blocked threads only if one of them waits for this.
    fn retire(
        self: &Arc<Self>,
        st: &mut State,
        id: TaskId,
        panicked: Option<String>,
        taken: usize,
    ) {
        if let Some(msg) = panicked {
            st.panics += 1;
            st.panic_msg.get_or_insert(msg);
        }
        let (released, awaited) = Self::complete_locked(st, id);
        if released > 0 {
            self.ensure_workers(st);
        }
        for _ in taken..released {
            if let Some(w) = st.idle.pop() {
                w.unpark();
            }
        }
        if awaited {
            self.done_cv.notify_all();
        }
    }

    /// Remove a completed task; returns how many dependents it made ready
    /// for the pool, and whether a blocked thread waits for this: one that
    /// watches the task, or the owner of a caller-run dependent it made
    /// ready (who claims it from `done_cv`).
    fn complete_locked(st: &mut State, id: TaskId) -> (usize, bool) {
        let Some(node) = st.tasks.remove(&id) else { return (0, false) };
        if let Some(e) = node.event {
            st.events.remove(&e);
        }
        let mut released = 0;
        let mut awaited = node.watched;
        for d in node.dependents {
            if let Some(n) = st.tasks.get_mut(&d) {
                n.unmet -= 1;
                if n.unmet == 0 && n.caller_run {
                    awaited = true;
                } else if n.unmet == 0 {
                    st.ready.push_back(d);
                    released += 1;
                }
            }
        }
        (released, awaited)
    }

    /// The one blocking point: while `blocker` names a live task the caller
    /// still waits for, mark it watched and sleep until it completes; then
    /// re-raise a recorded body panic (taking it, so exactly one caller
    /// does).
    fn block_while(&self, counts_as_join: bool, blocker: impl Fn(&State) -> Option<TaskId>) {
        let mut st = self.state.lock();
        st.joins += u64::from(counts_as_join);
        while let Some(id) = blocker(&st) {
            st.tasks.get_mut(&id).expect("a blocker is a live task").watched = true;
            st = self.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let msg = st.panic_msg.take();
        drop(st);
        if let Some(m) = msg {
            panic!("data-plane task panicked: {m}");
        }
    }

    /// Block until every task in `ids` (and, transitively, everything they
    /// depend on) has completed. Ids of already-completed tasks are skipped;
    /// an empty list still is a blocking point for a recorded panic.
    pub(crate) fn join(&self, ids: &[TaskId]) {
        // The newest live id: on an in-order queue the one that completes
        // last, so the joiner is woken once.
        self.block_while(!ids.is_empty(), |st| {
            ids.iter().rev().find(|id| st.tasks.contains_key(id)).copied()
        });
    }

    /// Join the task backing engine event `ev`, if one is still live.
    pub(crate) fn join_event(&self, ev: usize) {
        self.block_while(true, |st| st.events.get(&ev).copied());
    }

    /// Drop completed ids from `ids` (bounds per-queue bookkeeping).
    pub(crate) fn retain_live(&self, ids: &mut Vec<TaskId>) {
        let st = self.state.lock();
        ids.retain(|t| st.tasks.contains_key(t));
    }

    /// Block until the executor is fully idle (no live tasks).
    pub(crate) fn quiesce(&self) {
        self.block_while(false, |st| st.tasks.keys().max().copied());
    }

    /// Snapshot of the executor counters.
    pub(crate) fn stats(&self) -> DataPlaneStats {
        let st = self.state.lock();
        DataPlaneStats {
            workers: self.workers,
            submitted: st.submitted,
            inline_tasks: st.inline_tasks,
            executed: st.executed,
            queue_depth: st.tasks.len(),
            peak_queue_depth: st.peak_live,
            busy_workers: st.busy,
            peak_busy_workers: st.peak_busy,
            joins: st.joins,
            panics: st.panics,
        }
    }

    /// Drain remaining work, stop the workers, and join their threads.
    /// Called from the owning runtime's drop (via [`PlaneHandle`]).
    pub(crate) fn shutdown(&self) {
        let mut st = self.state.lock();
        // Let in-flight DAGs drain: workers keep pulling ready tasks after
        // shutdown is set, and completions cascade until nothing is live.
        st.shutdown = true;
        let threads = std::mem::take(&mut st.threads);
        let idle = std::mem::take(&mut st.idle);
        drop(st);
        for w in idle {
            w.unpark();
        }
        for t in threads {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for DataPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "DataPlane(workers={}, live={}, executed={})",
            s.workers, s.queue_depth, s.executed
        )
    }
}

/// Owns the executor on behalf of the runtime: signals shutdown and joins
/// the worker threads when the runtime is dropped. (Workers hold `Arc`s to
/// the plane, so a `Drop` on `DataPlane` itself would never run while they
/// are alive.)
pub(crate) struct PlaneHandle(pub(crate) Arc<DataPlane>);

impl Drop for PlaneHandle {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// A registered-but-caller-executed task (blocking reads). Dropping it
/// completes the task, releasing dependents — including on panic paths.
pub(crate) struct ManualTask {
    plane: Arc<DataPlane>,
    id: TaskId,
}

impl ManualTask {
    /// Block until every dependency has completed; afterwards the caller
    /// may touch the accessed buffers (the hazard DAG orders all later
    /// conflicting tasks after this one until it is dropped).
    pub(crate) fn wait_ready(&self) {
        // Its own node stands in as the blocker: the completion that meets
        // the last dependency signals the owner of a caller-run dependent.
        self.plane.block_while(false, |st| {
            st.tasks.get(&self.id).is_some_and(|n| n.unmet > 0).then_some(self.id)
        });
    }
}

impl Drop for ManualTask {
    fn drop(&mut self) {
        let mut st = self.plane.state.lock();
        st.executed += 1;
        self.plane.retire(&mut st, self.id, None, 0);
    }
}

fn payload_msg(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn plane(workers: usize) -> Arc<DataPlane> {
        Arc::new(DataPlane::new(workers))
    }

    fn buf(bytes: usize) -> Buffer {
        Buffer::new(1, bytes).unwrap()
    }

    fn on<'a>(accesses: &'a [Access<'a>]) -> Order<'a> {
        Order { accesses, ..Order::default() }
    }

    /// Submit `f` as a body too heavy to run on the caller: always pooled
    /// when the plane has more than one worker.
    fn heavy(p: &Arc<DataPlane>, order: Order<'_>, f: impl FnOnce() + Send + 'static) -> TaskId {
        p.submit(order, u64::MAX, || unreachable!("a heavy body ran on the caller"), || Box::new(f))
            .expect("heavy tasks are queued")
    }

    /// Submit `f` as a light body; `None` means it ran on the caller.
    fn light(
        p: &Arc<DataPlane>,
        order: Order<'_>,
        f: impl FnOnce() + Send + 'static,
    ) -> Option<TaskId> {
        let f = std::cell::Cell::new(Some(f));
        let take = || f.take().expect("exactly one of the two closures runs");
        p.submit(order, 1, || take()(), || Box::new(take()))
    }

    #[test]
    fn one_worker_runs_everything_on_the_caller() {
        let p = plane(1);
        let hits = AtomicUsize::new(0);
        let b = buf(8);
        // Borrowing body, any weight: no `'static`, no `Send`, no hand-off.
        let t = p.submit(
            on(&[Access::write(&b)]),
            u64::MAX,
            || {
                hits.fetch_add(1, Ordering::SeqCst);
            },
            || unreachable!("nothing blocks the task, so it is never queued"),
        );
        assert!(t.is_none());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        let s = p.stats();
        assert_eq!((s.inline_tasks, s.submitted, s.executed, s.queue_depth), (1, 0, 0, 0));
        assert_eq!(b.data_version(), 1);
        p.shutdown();
    }

    #[test]
    fn unblocked_light_task_runs_on_the_caller_and_heavy_one_on_the_pool() {
        let p = plane(2);
        let b = buf(8);
        let me = std::thread::current().id();
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        assert!(light(&p, on(&[Access::write(&b)]), move || {
            tx.send(std::thread::current().id()).unwrap();
        })
        .is_none());
        assert_eq!(rx.recv().unwrap(), me);
        let t = heavy(&p, on(&[Access::write(&b)]), move || {
            tx2.send(std::thread::current().id()).unwrap();
        });
        p.join(&[t]);
        assert_ne!(rx.recv().unwrap(), me);
        let s = p.stats();
        assert_eq!((s.inline_tasks, s.submitted, s.executed), (1, 1, 1));
        assert_eq!(b.data_version(), 2);
        p.shutdown();
    }

    #[test]
    fn blocked_light_task_is_queued_behind_its_predecessor() {
        let p = plane(2);
        let b = buf(8);
        let log = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let (release, gate) = mpsc::channel::<()>();
        let l = Arc::clone(&log);
        let w = heavy(&p, on(&[Access::write(&b)]), move || {
            gate.recv().unwrap();
            l.lock().push("heavy");
        });
        // RAW on a live writer: light, but not unblocked, so it is queued
        // and `submit` returns while the writer still runs.
        let l = Arc::clone(&log);
        let r = light(&p, on(&[Access::read(&b)]), move || l.lock().push("light"))
            .expect("a blocked task is never run early");
        assert!(log.lock().is_empty());
        release.send(()).unwrap();
        p.join(&[r]);
        assert_eq!(*log.lock(), ["heavy", "light"]);
        p.retain_live(&mut vec![w]);
        p.shutdown();
    }

    #[test]
    fn racing_submitters_order_after_a_live_caller_run_task() {
        // Thread A's light writer is mid-body on A; B's reader of the same
        // buffer, submitted meanwhile, must wait for it (the caller-run
        // node is live in the DAG) — and is released when A's body ends.
        let p = plane(2);
        let b = buf(8);
        let log = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let (entered_tx, entered) = mpsc::channel::<()>();
        let (release, gate) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let (pa, ba, la) = (&p, &b, Arc::clone(&log));
            s.spawn(move || {
                let t = pa.submit(
                    on(&[Access::write(ba)]),
                    1,
                    || {
                        entered_tx.send(()).unwrap();
                        gate.recv().unwrap();
                        la.lock().push("writer");
                    },
                    || unreachable!("unblocked and light"),
                );
                assert!(t.is_none());
            });
            entered.recv().unwrap();
            let l = Arc::clone(&log);
            let r = light(&p, on(&[Access::read(&b)]), move || l.lock().push("reader"))
                .expect("ordered after the live caller-run writer");
            assert!(log.lock().is_empty());
            release.send(()).unwrap();
            p.join(&[r]);
        });
        assert_eq!(*log.lock(), ["writer", "reader"]);
        p.shutdown();
    }

    /// Park `n` pool workers: run `n` heavy tasks that rendezvous, so `n`
    /// threads exist, then join them, so all of them are idle.
    fn park_workers(p: &Arc<DataPlane>, n: usize) {
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let ids: Vec<TaskId> = (0..n)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                heavy(p, Order::default(), move || {
                    barrier.wait();
                })
            })
            .collect();
        p.join(&ids);
    }

    /// Generous bound on a signal that must arrive: a lost wake-up fails
    /// the test instead of hanging it.
    const SIGNAL: std::time::Duration = std::time::Duration::from_secs(20);

    #[test]
    fn completion_on_a_caller_thread_wakes_a_parked_worker_for_its_dependent() {
        let p = plane(2);
        park_workers(&p, 2);
        let b = buf(8);
        let read = p.begin_manual(&[Access::read(&b)], &[]);
        let (tx, ran) = mpsc::channel();
        // Queued behind the live read: not ready, so nobody is signalled.
        let w = heavy(&p, on(&[Access::write(&b)]), move || tx.send(()).unwrap());
        assert!(ran.try_recv().is_err());
        // No further submission follows: only the completion's own signal
        // can get the writer onto a worker.
        drop(read);
        ran.recv_timeout(SIGNAL).expect("the released writer never ran: lost wake-up");
        p.join(&[w]);
        p.shutdown();
    }

    #[test]
    fn a_finishing_worker_wakes_one_peer_per_extra_dependent_it_releases() {
        let p = plane(4);
        park_workers(&p, 4);
        let b = buf(8);
        let (release, gate) = mpsc::channel::<()>();
        let w = heavy(&p, on(&[Access::write(&b)]), move || gate.recv().unwrap());
        // Three readers that can only finish together: the worker that ran
        // `w` takes one itself and must wake two parked peers for the rest.
        let together = Arc::new(std::sync::Barrier::new(3));
        let (tx, met) = mpsc::channel();
        let readers: Vec<TaskId> = (0..3)
            .map(|_| {
                let (together, tx) = (Arc::clone(&together), tx.clone());
                heavy(&p, on(&[Access::read(&b)]), move || {
                    together.wait();
                    tx.send(()).unwrap();
                })
            })
            .collect();
        release.send(()).unwrap();
        for _ in 0..3 {
            met.recv_timeout(SIGNAL).expect("released readers never met: lost wake-up");
        }
        p.join(&readers);
        p.retain_live(&mut vec![w]);
        assert_eq!(p.stats().peak_busy_workers, 4);
        p.shutdown();
    }

    #[test]
    fn a_wake_up_goes_to_the_most_recently_parked_worker() {
        let p = plane(2);
        let (tx, ran_on) = mpsc::channel();
        let (entered_tx, entered) = mpsc::channel();
        // A task that says which worker it is on, then waits to be released.
        let gated = |p: &Arc<DataPlane>| {
            let (release, gate) = mpsc::channel::<()>();
            let (tx, entered_tx) = (tx.clone(), entered_tx.clone());
            let t = heavy(p, Order::default(), move || {
                entered_tx.send(()).unwrap();
                gate.recv().unwrap();
                tx.send(std::thread::current().id()).unwrap();
            });
            (t, release)
        };
        // Two gated tasks hold one worker each; the first one released
        // parks its worker first. (A worker parks under the same hold of
        // the lock that retires its task, so `join` returning means parked.)
        let (first, release_first) = gated(&p);
        let (last, release_last) = gated(&p);
        entered.recv().unwrap();
        entered.recv().unwrap();
        for (t, release) in [(first, release_first), (last, release_last)] {
            release.send(()).unwrap();
            p.join(&[t]);
        }
        let (_parked_first, parked_last) = (ran_on.recv().unwrap(), ran_on.recv().unwrap());
        for _ in 0..3 {
            let (t, release) = gated(&p);
            release.send(()).unwrap();
            p.join(&[t]);
            assert_eq!(ran_on.recv().unwrap(), parked_last, "woke the longer-parked worker");
        }
        assert_eq!(p.stats().peak_busy_workers, 2);
        p.shutdown();
    }

    #[test]
    fn a_joiner_watches_only_the_newest_task_it_waits_for() {
        let p = plane(2);
        let b = buf(8);
        let (release, gate) = mpsc::channel::<()>();
        let mut gate = Some(gate);
        let chain: Vec<TaskId> = (0..3)
            .map(|_| {
                // The head of the chain holds the other two back.
                let gate = gate.take();
                heavy(&p, on(&[Access::write(&b)]), move || {
                    if let Some(g) = gate {
                        g.recv().unwrap();
                    }
                })
            })
            .collect();
        let watched = std::thread::scope(|s| {
            s.spawn(|| p.join(&chain));
            // Once the joiner sleeps it has marked one task; give it time
            // to get there, then let the chain go whatever was found (a
            // failed assertion in here would leave the joiner blocked).
            let deadline = std::time::Instant::now() + SIGNAL;
            let marks = loop {
                let st = p.state.lock();
                let marks: Vec<bool> = chain.iter().map(|t| st.tasks[t].watched).collect();
                drop(st);
                if marks.contains(&true) || std::time::Instant::now() > deadline {
                    break marks;
                }
                std::thread::yield_now();
            };
            release.send(()).unwrap();
            marks
        });
        // The chain's tail, whose completion alone wakes the joiner: the
        // two before it pass unnoticed.
        assert_eq!(watched, [false, false, true]);
        assert_eq!(p.stats().queue_depth, 0);
        p.shutdown();
    }

    #[test]
    fn hazards_order_write_then_reads_then_write() {
        // With 4 workers: w1 → (r1, r2) → w2; the second write must observe
        // both reads complete. Encode order via an atomic log.
        let p = plane(4);
        let b = buf(8);
        let log = Arc::new(Mutex::new(Vec::<&'static str>::new()));
        let mk = |name: &'static str, slow: bool| {
            let log = Arc::clone(&log);
            move || {
                if slow {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                }
                log.lock().push(name);
            }
        };
        let w1 = heavy(&p, on(&[Access::write(&b)]), mk("w1", true));
        let _r1 = heavy(&p, on(&[Access::read(&b)]), mk("r1", true));
        let _r2 = heavy(&p, on(&[Access::read(&b)]), mk("r2", false));
        let w2 = heavy(&p, on(&[Access::write(&b)]), mk("w2", false));
        p.join(&[w2, w1]);
        let order = log.lock().clone();
        assert_eq!(order[0], "w1");
        assert_eq!(order[3], "w2");
        assert_eq!(b.data_version(), 2);
        p.shutdown();
    }

    #[test]
    fn independent_tasks_overlap_across_workers() {
        let p = plane(4);
        let a = buf(8);
        let b = buf(8);
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        let mut ids = Vec::new();
        for target in [&a, &b] {
            let peak = Arc::clone(&peak);
            let cur = Arc::clone(&cur);
            ids.push(heavy(&p, on(&[Access::write(target)]), move || {
                let c = cur.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(c, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(30));
                cur.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        p.join(&ids);
        assert_eq!(peak.load(Ordering::SeqCst), 2, "independent writes should overlap");
        p.shutdown();
    }

    #[test]
    fn task_deps_and_event_mapping_are_honored() {
        let p = plane(2);
        let b = buf(8);
        let c = buf(8);
        let log = Arc::new(Mutex::new(Vec::<u32>::new()));
        let l1 = Arc::clone(&log);
        let t1 = heavy(
            &p,
            Order { accesses: &[Access::write(&b)], event: Some(77), ..Order::default() },
            move || {
                std::thread::sleep(std::time::Duration::from_millis(15));
                l1.lock().push(1);
            },
        );
        // No hazard overlap (different buffer), ordered only via the event.
        let l2 = Arc::clone(&log);
        let _t2 = heavy(
            &p,
            Order { accesses: &[Access::write(&c)], wait_events: &[77], ..Order::default() },
            move || l2.lock().push(2),
        );
        // And one ordered via an explicit task dep.
        let l3 = Arc::clone(&log);
        let t3 = heavy(&p, Order { after: &[t1], ..Order::default() }, move || l3.lock().push(3));
        p.join_event(77);
        p.join(&[t3]);
        p.quiesce();
        let order = log.lock().clone();
        assert_eq!(order[0], 1);
        assert!(order.contains(&2) && order.contains(&3));
        p.shutdown();
    }

    #[test]
    fn manual_task_orders_later_writers_after_reader() {
        let p = plane(2);
        let b = buf(8);
        b.host_fill::<u64>(&[42]).unwrap();
        let m = p.begin_manual(&[Access::read(&b)], &[]);
        m.wait_ready();
        // While the manual task is live, submit a light writer; it must not
        // run — on the caller or anywhere — until the manual task drops.
        let b2 = b.clone();
        let w = light(&p, on(&[Access::write(&b)]), move || {
            b2.inner.store.lock().as_mut_slice::<u64>()[0] = 7
        })
        .expect("WAR on the live read blocks the writer");
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(b.inner.store.lock().as_slice::<u64>()[0], 42, "WAR hazard violated");
        drop(m);
        p.join(&[w]);
        assert_eq!(b.inner.store.lock().as_slice::<u64>()[0], 7);
        p.shutdown();
    }

    #[test]
    fn quiesce_waits_for_chains_and_stats_count() {
        let p = plane(3);
        let b = buf(8);
        for _ in 0..16 {
            let c = b.clone();
            heavy(&p, on(&[Access::write(&b)]), move || {
                c.inner.store.lock().as_mut_slice::<u64>()[0] += 1;
            });
        }
        p.quiesce();
        assert_eq!(b.inner.store.lock().as_slice::<u64>()[0], 16);
        let s = p.stats();
        assert_eq!(s.submitted, 16);
        assert_eq!(s.executed, 16);
        assert_eq!(s.inline_tasks, 0);
        assert_eq!(s.queue_depth, 0);
        assert!(s.peak_queue_depth >= 1);
        assert_eq!(b.data_version(), 16);
        p.shutdown();
    }

    #[test]
    fn worker_panic_propagates_at_join_without_deadlock() {
        let p = plane(2);
        let b = buf(8);
        let t = heavy(&p, on(&[Access::write(&b)]), || panic!("kernel body boom"));
        // A dependent task still completes (the DAG keeps draining).
        let t2 = heavy(&p, on(&[Access::read(&b)]), || {});
        let err = catch_unwind(AssertUnwindSafe(|| p.join(&[t, t2]))).unwrap_err();
        let msg = payload_msg(&*err);
        assert!(msg.contains("kernel body boom"), "{msg}");
        p.shutdown();
    }

    #[test]
    fn caller_run_panic_is_caught_and_raised_at_the_next_blocking_point() {
        for workers in [1, 2] {
            let p = plane(workers);
            let b = buf(8);
            // `submit` itself returns normally; the task is complete.
            assert!(light(&p, on(&[Access::write(&b)]), || panic!("light boom")).is_none());
            let s = p.stats();
            assert_eq!((s.panics, s.inline_tasks, s.submitted, s.queue_depth), (1, 1, 0, 0));
            // Nothing is live, yet the empty join is a blocking point.
            let err = catch_unwind(AssertUnwindSafe(|| p.join(&[]))).unwrap_err();
            assert!(payload_msg(&*err).contains("light boom"));
            // Reported once; the plane stays usable.
            p.join(&[]);
            p.quiesce();
            assert!(light(&p, on(&[Access::write(&b)]), || {}).is_none());
            assert_eq!(p.stats().panics, 1);
            p.shutdown();
        }
    }

    #[test]
    fn panic_is_reported_once_and_the_plane_stays_usable() {
        let p = plane(2);
        let b = buf(8);
        let t = heavy(&p, on(&[Access::write(&b)]), || panic!("first boom"));
        let err = catch_unwind(AssertUnwindSafe(|| p.join(&[t]))).unwrap_err();
        assert!(payload_msg(&*err).contains("first boom"));
        // The panic was consumed: later joins and quiesces succeed, and new
        // work runs normally (no PoisonError cascade, no stale re-panic).
        p.join(&[t]);
        p.quiesce();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let t2 = heavy(&p, on(&[Access::write(&b)]), move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        p.join(&[t2]);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(p.stats().panics, 1);
        // A second, unrelated panic is again reported exactly once.
        let t3 = heavy(&p, on(&[Access::write(&b)]), || panic!("second boom"));
        let err = catch_unwind(AssertUnwindSafe(|| p.join(&[t3]))).unwrap_err();
        assert!(payload_msg(&*err).contains("second boom"));
        p.quiesce();
        assert_eq!(p.stats().panics, 2);
        p.shutdown();
    }

    #[test]
    fn retain_live_prunes_completed_ids() {
        let p = plane(2);
        let b = buf(8);
        let t = heavy(&p, on(&[Access::write(&b)]), || {});
        p.join(&[t]);
        let mut ids = vec![t];
        p.retain_live(&mut ids);
        assert!(ids.is_empty());
        p.shutdown();
    }
}
