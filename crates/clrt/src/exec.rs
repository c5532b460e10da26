//! The data-plane executor: a hazard-tracked host task pool.
//!
//! clrt separates two planes. The **time plane** (the hwsim engine) assigns
//! virtual timestamps to every command, eagerly, under the engine lock —
//! nothing in this module touches it. The **data plane** is the real Rust
//! computation against host-backed buffer stores: kernel bodies, buffer
//! writes, and copies. Each data-plane action is a *task*: a node of a
//! hazard DAG whose body runs on the enqueueing thread when nothing blocks
//! it and it is lighter than a hand-off, and on a pool of worker threads
//! otherwise, so independent commands overlap in wall-clock time while
//! producing bit-identical buffer contents.
//!
//! ## Hazard rules
//!
//! Each task declares the buffers it reads and writes ([`Access`]). Its
//! dependencies are the RAW / WAR / WAW predecessors each buffer's
//! [`Frontier`] of tasks names, captured atomically (under the executor
//! lock) in enqueue order.
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
//! body runs on the enqueueing thread from a borrowing closure, before
//! `submit` returns. Otherwise its `Work` — a value, arguments shared by
//! reference count — is queued for the pool. `workers == 1` is the
//! degenerate case in which every body counts as light and device time is
//! no reason to queue: single-threaded use never hands a task off.
//!
//! ## Device time
//!
//! A body does not sit through the time its command occupies a device: it
//! *declares* it (every task body returns a `Duration`;
//! kernels declare through [`crate::KernelCtx::occupy_device`], writes,
//! copies and markers return zero) and returns. A task that declared time
//! is not retired with its body: it stays live, *in device time*, until
//! its deadline — body end plus declared time — and goes through the one
//! `retire` then. Completion is "body returned **and** deadline passed",
//! for everyone who can ask: hazard, chain and event-wait successors are
//! released at the deadline, and every blocking point, `quiesce` and
//! `retain_live` see the task live until then. No thread and no buffer
//! store lock is held meanwhile, so device overlap is a property of the
//! command DAG, not of the pool size. A body that declares nothing — or
//! panics — takes exactly the path it always took.
//!
//! Deadlines sit in one min-heap and are completed lazily, by whoever next
//! holds the executor lock with a reason to look: `submit` on entry (so
//! hazard capture sees expired predecessors as gone), a worker about to
//! look for work, and a blocked thread, which wakes for the heap's earliest
//! deadline whatever it waits for (*Blocking points*). The runtime acts at
//! synchronization points, on the threads that block there: no thread is
//! kept awake for a deadline. With `workers == 1` a task whose only unmet
//! predecessors are in device time is registered, then the enqueueing
//! thread blocks on it, as a blocking read does, and runs the body itself;
//! with more workers it is queued like any task that has to wait.
//!
//! ## Wake-ups
//!
//! Nobody is woken on spec. A completion wakes a worker only for a
//! dependent it actually released (one each, minus the one a finishing
//! worker takes itself), a submission only for a task that is ready as
//! submitted, and the blocked threads only when the very task one of them
//! marked as its blocker (`Node::watched`) completes or enters device time
//! — a joiner sleeps through every other completion of the chain it waits
//! for — or when a deadline earlier than every other one enters the heap,
//! a new time for them to wake at.
//!
//! Which worker is woken is fixed too: the *most recently parked* one
//! (`State::idle` is a stack). Its core is the one most likely still idle
//! and its cache the warmest; waking the longest-parked worker instead —
//! what a shared condition variable does — makes the OS move a worker to
//! another core at every burst of work and, with more runnable threads than
//! cores, leaves two workers sharing one core for milliseconds at a time
//! while the other idles, a different share of every run.
//!
//! A deadline wakes no worker: a queued task behind device time is released
//! by the next thread that looks — a blocked thread at that deadline, a
//! worker looking for work, the next `submit` — so with no thread blocked
//! it waits for the host's next call, where OpenCL's host observes anything
//! anyway. Tasks that only ever run on their callers never start a thread.
//!
//! ## Blocking points
//!
//! `finish`, blocking reads, and `Event::wait` join only the tasks they
//! transitively depend on (the DAG already encodes transitivity: joining a
//! task implicitly joins its ancestors, because a task only completes after
//! its dependencies). A blocked thread wakes at the earlier of its
//! blocker's signal and the heap's earliest deadline, expires what has
//! passed — releasing whatever was queued behind it — and checks again.
//! Where nothing else can wake it — its blocker is in device time, or is
//! its own caller-run node — the wait is exact (`wait_until`'s rule:
//! never early, late only by spin precision or a preemption, executor lock
//! not held for the spin); a blocker still to run signals, and its
//! deadline wake-ups only release queued tasks, so they are plain timed
//! waits. A body that panics — on a worker or on the caller — is caught,
//! and the panic is re-raised exactly once, at the next blocking point,
//! whether or not anything is left to join there.

use crate::buffer::Buffer;
use crate::hazard::{Access, Frontier};
use crate::kernel::{BoundArgs, KernelBody, KernelCtx};
use crate::ndrange::NdRange;
use hwsim::{engine::EventId, DeviceId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::mem;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use hwsim::sync::{Mutex, MutexGuard};

/// Monotonic identifier of a data-plane task. Never reused; an id absent
/// from the live-task table has completed.
pub type TaskId = u64;

/// What handing a task to a worker and joining it costs on the 2-core
/// reference host (`clrt.probe_handoff_us` of `perf`: a futex wake, a
/// context switch, and the same again for the joiner), during which the
/// enqueueing thread mostly waits. [`LIGHT_WORK`] derives from it: a body
/// cheaper than this runs on the enqueueing thread, because queueing the
/// task would cost it more.
const HANDOFF: Duration = Duration::from_micros(50);

/// The heaviest body, in nominal work units (one flop of a kernel's
/// [`hwsim::KernelCostSpec`] or one byte moved), that still runs on the
/// enqueueing thread when nothing blocks it.
///
/// Derivation: host bodies retire a nominal unit in 0.1 ns (memcpy) to
/// ≈0.5 ns (scalar kernel math), so one [`HANDOFF`] buys 2 units per
/// nanosecond at the slow end; rounded to a power of two that is 2^17
/// units, ≈13–65 µs of body: about one hand-off at the slow end and well
/// under one everywhere else. Anything heavier is worth overlapping.
const LIGHT_WORK: u64 = (2 * HANDOFF.as_nanos() as u64).next_power_of_two();

/// How late `std::thread::sleep` (or a timed wait) may return: the kernel's
/// 50 µs default timer slack plus a wake-up. Measured on the 2-core
/// reference sandbox for requests of 128 ns to 2 ms: 72–120 µs at the
/// median, ≈200 µs at p90.
const SLEEP_OVERSHOOT: Duration = Duration::from_micros(200);

/// Block the calling thread until `deadline`: sleep only the part of the
/// wait a late wake-up cannot overrun, then spin against the clock. Never
/// returns early, and late only by a preemption — so a remainder shorter
/// than [`SLEEP_OVERSHOOT`] costs what it says instead of a timer tick, and
/// a 10 ms one still sleeps 9.8 ms of it. Callers hold no lock.
fn wait_until(deadline: Instant) {
    let left = deadline.saturating_duration_since(Instant::now());
    if left > SLEEP_OVERSHOOT {
        std::thread::sleep(left - SLEEP_OVERSHOOT);
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Everything a task must run after, plus the engine event it backs.
#[derive(Default)]
pub(crate) struct Order<'a> {
    /// Buffers the task touches: the source of its hazard edges.
    pub(crate) accesses: &'a [Access],
    /// Tasks it follows outright (queue chaining, barriers).
    pub(crate) after: &'a [TaskId],
    /// Engine events whose backing tasks it follows (explicit wait lists).
    pub(crate) wait_events: &'a [EventId],
    /// Engine event id this task backs, for `Event::wait` joins.
    pub(crate) event: Option<usize>,
}

/// Per-buffer hazard state (lives in `BufferInner`): the frontier of live
/// tasks, and `version`, which counts data-plane writes to the buffer — a
/// cheap coherence probe for tests and diagnostics.
#[derive(Debug, Default)]
pub(crate) struct BufHazard {
    pub(crate) frontier: Frontier<TaskId>,
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
    /// Tasks whose body ran on the enqueueing thread before `submit`
    /// returned (workers == 1 or the caller-run fast path). Counted here
    /// only, so `submitted == executed` holds whenever the pool is idle.
    pub inline_tasks: u64,
    /// `submitted` tasks whose body has returned.
    pub executed: u64,
    /// Tasks, wherever they ran, whose body declared device time and that
    /// therefore completed at a deadline instead of with the body.
    pub timed_tasks: u64,
    /// Live (incomplete) tasks right now, those in device time included.
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

/// A pooled task's body, held by value in its node: one of the commands
/// `clrt` queues.
pub(crate) enum Work {
    /// A kernel launch: body and arguments over the effective range on a
    /// device, at a global offset.
    Launch(Arc<dyn KernelBody>, BoundArgs, NdRange, DeviceId, [u64; 3]),
    /// A copy of the first buffer's store into the second's.
    Copy(Buffer, Buffer),
    /// A write of the payload staged at submission, its one allocation.
    Write(Buffer, Box<[u8]>),
    /// Orders, runs nothing: a barrier, a split's join.
    Nop,
    /// A test's own body.
    #[cfg(test)]
    Closure(Box<dyn FnOnce() -> Duration + Send>),
}

impl Work {
    /// Run the body; returns the device time it declares.
    fn run(self) -> Duration {
        match self {
            Work::Launch(body, args, nd, device, offset) => {
                return KernelCtx::with_offset(nd, device, offset, &args).run(&*body);
            }
            Work::Copy(src, dst) => src.copy_store_into(&dst),
            Work::Write(dst, staged) => {
                dst.inner.store.lock().as_mut_slice().copy_from_slice(&staged)
            }
            Work::Nop => {}
            #[cfg(test)]
            Work::Closure(body) => return body(),
        }
        Duration::ZERO
    }
}

struct Node {
    /// The pooled body: attached by the submitter, taken by the executing
    /// worker. Always [`Work::Nop`] for caller-run nodes.
    work: Work,
    /// Caller-run (the fast path, blocking reads): the registering thread
    /// runs the body itself, so the node never enters the ready queue.
    caller_run: bool,
    unmet: usize,
    dependents: Vec<TaskId>,
    /// Engine event id this task backs, for `Event::wait` joins.
    event: Option<usize>,
    /// A blocked thread named this task as what it waits for: its
    /// completion, or its entering device time, signals `done_cv`.
    watched: bool,
    /// In device time: the body has returned and the task completes when
    /// this instant has passed (it is in `State::cooling` until then).
    deadline: Option<Instant>,
}

/// What [`State::link`] found a new task to depend on.
struct Linked {
    id: TaskId,
    /// Live predecessors, all told.
    unmet: usize,
    /// Those of them whose body has yet to return; the rest are in device
    /// time.
    running: usize,
}

#[derive(Default)]
struct State {
    next: TaskId,
    tasks: HashMap<TaskId, Node>,
    ready: VecDeque<TaskId>,
    /// Tasks in device time, earliest deadline first.
    cooling: BinaryHeap<Reverse<(Instant, TaskId)>>,
    /// Engine event id → live task backing it.
    events: HashMap<usize, TaskId>,
    /// Emptied dependent lists of retired tasks, reused by new ones: never
    /// more than the peak number of live tasks.
    spare: Vec<Vec<TaskId>>,
    threads: Vec<JoinHandle<()>>,
    /// Parked workers, most recently parked last; a wake-up takes the last.
    idle: Vec<Thread>,
    /// Threads asleep on `done_cv`, in [`DataPlane::wait_while`].
    waiting: usize,
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
    timed: u64,
    peak_live: usize,
    peak_busy: usize,
    joins: u64,
}

impl State {
    /// Allocate the next task id and add an edge to it from every live
    /// predecessor `order` names, updating the per-buffer hazard state.
    /// The caller holds the executor lock, which makes capture atomic
    /// across concurrent submitters; the per-buffer locks are leaves (never
    /// held across another lock acquisition).
    fn link(&mut self, order: &Order<'_>) -> Linked {
        let id = self.next;
        self.next += 1;
        let mut l = Linked { id, unmet: 0, running: 0 };
        // Completed predecessors are gone from `tasks` and add nothing. All
        // of `id`'s edges are added under this one hold of the lock, so a
        // predecessor named twice already has `id` as its newest dependent.
        let mut after = |tasks: &mut HashMap<TaskId, Node>, dep: TaskId| {
            if let Some(n) = tasks.get_mut(&dep) {
                if n.dependents.last() != Some(&id) {
                    n.dependents.push(id);
                    l.unmet += 1;
                    l.running += usize::from(n.deadline.is_none());
                }
            }
        };
        for a in order.accesses {
            let mut h = a.buf.inner.hazard.lock();
            for dep in h.frontier.predecessors(a.write) {
                after(&mut self.tasks, dep);
            }
            if a.write {
                h.version += 1;
            } else {
                // Prune completed readers so read-heavy buffers stay small.
                h.frontier.prune_readers(|t| self.tasks.contains_key(t));
            }
            h.frontier.record(id, a.write);
        }
        for &d in order.after {
            after(&mut self.tasks, d);
        }
        for e in order.wait_events {
            if let Some(&t) = self.events.get(&e.0) {
                after(&mut self.tasks, t);
            }
        }
        l
    }

    /// Make `id` live with `unmet` open dependencies.
    fn insert(&mut self, id: TaskId, unmet: usize, caller_run: bool, event: Option<usize>) {
        let node = Node {
            work: Work::Nop,
            caller_run,
            unmet,
            dependents: self.spare.pop().unwrap_or_default(),
            event,
            watched: false,
            deadline: None,
        };
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

/// Run a task body, isolating a panic. `Ok(Some(deadline))` if it declared
/// device time: the clock starts when the body returns.
fn run_body(body: impl FnOnce() -> Duration) -> Result<Option<Instant>, String> {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(declared) => Ok((!declared.is_zero()).then(|| Instant::now() + declared)),
        Err(e) => Err(payload_msg(&*e)),
    }
}

/// The hazard-tracked task executor (see module docs). One per
/// [`crate::Platform`]; shared by every queue and buffer of the runtime.
pub struct DataPlane {
    workers: usize,
    state: Mutex<State>,
    /// Wakes the blocked threads when a task one of them watches completes
    /// or enters device time.
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
    /// light and unblocked — or, with one worker, blocked only by device
    /// time — `run` is called on this thread before `submit` returns; otherwise
    /// `owned` builds the task's [`Work`] and the task is queued. Exactly
    /// one of the two closures is called; either body returns the device
    /// time it declares. Returns the task's id if it is still live —
    /// queued, or in device time — for the caller to chain after and join,
    /// and `None` if it completed here.
    pub(crate) fn submit(
        self: &Arc<Self>,
        order: Order<'_>,
        work: u64,
        run: impl FnOnce() -> Duration,
        owned: impl FnOnce() -> Work,
    ) -> Option<TaskId> {
        let mut st = self.state.lock();
        self.expire(&mut st, 0);
        let Linked { id, unmet, running } = st.link(&order);
        // Light and unblocked; with one worker, anything no running body
        // holds back (device time is waited out here).
        let here = if self.workers <= 1 { running == 0 } else { unmet == 0 && work <= LIGHT_WORK };
        if here {
            st.insert(id, unmet, true, order.event);
            st.inline_tasks += 1;
            if unmet > 0 {
                // Not a blocking point: a recorded panic stays recorded.
                st = self.wait_while(st, Self::unmet_of(id));
            }
            drop(st);
            let outcome = run_body(run);
            return self.settle(&mut self.state.lock(), id, outcome, 0).then_some(id);
        }
        // Building the work stages a write's payload and counts references
        // to arguments, so it happens outside the lock: until it is
        // attached the submitter itself holds one dependency of the task.
        st.insert(id, unmet + 1, false, order.event);
        st.count_submitted();
        drop(st);
        let work = owned();
        let mut st = self.state.lock();
        let node = st.tasks.get_mut(&id).expect("the submitter's dependency keeps the task live");
        node.work = work;
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
        accesses: &[Access],
        after: &[TaskId],
    ) -> ManualTask {
        let mut st = self.state.lock();
        self.expire(&mut st, 0);
        let l = st.link(&Order { accesses, after, ..Order::default() });
        st.insert(l.id, l.unmet, true, None);
        st.count_submitted();
        ManualTask { plane: Arc::clone(self), id: l.id }
    }

    fn spawn_worker(self: &Arc<Self>, st: &mut State) {
        st.spawned += 1;
        let plane = Arc::clone(self);
        st.threads.push(
            std::thread::Builder::new()
                .name(format!("clrt-dp-{}", st.spawned))
                .spawn(move || plane.worker_loop())
                .expect("spawn data-plane worker"),
        );
    }

    /// Spawn workers while ready tasks outnumber idle workers and the pool
    /// has room. (Comparing against *idle* rather than *busy* workers
    /// matters: a just-notified worker that has not yet claimed its task
    /// still counts as idle, and the next submission must not assume it
    /// will absorb both tasks.)
    fn ensure_workers(self: &Arc<Self>, st: &mut State) {
        while st.spawned < self.workers && st.ready.len() > st.spawned - st.busy {
            self.spawn_worker(st);
        }
    }

    fn worker_loop(self: Arc<Self>) {
        let me = std::thread::current();
        let mut st = self.state.lock();
        loop {
            // With nothing ready yet, this worker takes one released task
            // itself.
            let taken = usize::from(st.ready.is_empty());
            self.expire(&mut st, taken);
            let Some(id) = st.ready.pop_front() else {
                if st.shutdown {
                    return;
                }
                st.idle.push(me.clone());
                drop(st);
                std::thread::park();
                st = self.state.lock();
                // A waker popped this worker off the stack; after a spurious
                // return it is still there.
                st.idle.retain(|w| w.id() != me.id());
                continue;
            };
            let work =
                st.tasks.get_mut(&id).map_or(Work::Nop, |n| mem::replace(&mut n.work, Work::Nop));
            st.busy += 1;
            st.peak_busy = st.peak_busy.max(st.busy);
            drop(st);
            let outcome = run_body(|| work.run());
            st = self.state.lock();
            st.busy -= 1;
            st.executed += 1;
            self.settle(&mut st, id, outcome, 1);
        }
    }

    /// The body of `id` has returned: put the task in device time if it
    /// declared any (returns `true`: still live), retire it otherwise.
    fn settle(
        self: &Arc<Self>,
        st: &mut State,
        id: TaskId,
        outcome: Result<Option<Instant>, String>,
        taken: usize,
    ) -> bool {
        let (deadline, panicked) = match outcome {
            Ok(deadline) => (deadline, None),
            Err(msg) => (None, Some(msg)),
        };
        let Some(deadline) = deadline else {
            self.retire(st, id, panicked, taken);
            return false;
        };
        st.tasks.get_mut(&id).expect("a task is live until it is retired").deadline =
            Some(deadline);
        // Whoever sleeps on this task — or, to run a node of their own, on
        // its completion — waits for the clock from here on, not a signal;
        // and a deadline earlier than every other one is a new time for the
        // blocked threads to wake at.
        let node = &st.tasks[&id];
        let caller_run = |d| st.tasks.get(d).is_some_and(|n: &Node| n.caller_run);
        let earliest = st.cooling.peek().is_none_or(|&Reverse((t, _))| deadline < t);
        if st.waiting > 0 && (earliest || node.watched || node.dependents.iter().any(caller_run)) {
            self.done_cv.notify_all();
        }
        st.cooling.push(Reverse((deadline, id)));
        st.timed += 1;
        true
    }

    /// Retire every task in device time whose deadline has passed. Cheap
    /// enough to call wherever the lock is held with a reason to look: one
    /// branch while nothing is in device time.
    fn expire(self: &Arc<Self>, st: &mut State, taken: usize) {
        if st.cooling.is_empty() {
            return;
        }
        let now = Instant::now();
        let (mut released, mut awaited) = (0, false);
        while let Some(&Reverse((deadline, id))) = st.cooling.peek() {
            if deadline > now {
                break;
            }
            st.cooling.pop();
            let (r, a) = Self::complete_locked(st, id);
            released += r;
            awaited |= a;
        }
        self.wake(st, released, taken, awaited);
    }

    /// Retire task `id` under the lock: record a body panic, release the
    /// dependents, and wake who has something to do.
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
        self.wake(st, released, taken, awaited);
    }

    /// Wake exactly who has something to do after completions that made
    /// `released` tasks ready: one parked worker per task beyond the
    /// `taken` the caller will run itself, and the blocked threads only if
    /// one of them was `awaited`.
    fn wake(self: &Arc<Self>, st: &mut State, released: usize, taken: usize, awaited: bool) {
        if released > 0 {
            self.ensure_workers(st);
        }
        for _ in taken..released {
            if let Some(w) = st.idle.pop() {
                w.unpark();
            }
        }
        if awaited && st.waiting > 0 {
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
        let mut dependents = node.dependents;
        for d in dependents.drain(..) {
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
        if dependents.capacity() > 0 {
            st.spare.push(dependents);
        }
        (released, awaited)
    }

    /// Sleep while `blocker` names a live task the caller still waits for;
    /// returns holding the lock. The blocker is marked watched; the thread
    /// wakes at the earlier of its signal and the heap's earliest deadline,
    /// expires what has passed and checks again (module docs, *Blocking
    /// points*).
    fn wait_while<'a>(
        self: &'a Arc<Self>,
        mut st: MutexGuard<'a, State>,
        blocker: impl Fn(&State) -> Option<TaskId>,
    ) -> MutexGuard<'a, State> {
        loop {
            self.expire(&mut st, 0);
            let Some(id) = blocker(&st) else { return st };
            let due = st.cooling.peek().map(|&Reverse((t, _))| t);
            let node = st.tasks.get_mut(&id).expect("a blocker is a live task");
            node.watched = true;
            // Only a blocker still to run signals in time: one in device
            // time waits for the clock, and so does the thread's own
            // caller-run node once its predecessors are in device time.
            let exact = node.deadline.is_some() || node.caller_run;
            let slack = if exact { SLEEP_OVERSHOOT } else { Duration::ZERO };
            let nap = match due {
                Some(t) if exact && t <= Instant::now() + slack => {
                    drop(st);
                    wait_until(t);
                    st = self.state.lock();
                    continue;
                }
                due => due.map(|t| t.saturating_duration_since(Instant::now() + slack)),
            };
            st.waiting += 1;
            st = match nap {
                Some(nap) => {
                    self.done_cv.wait_timeout(st, nap).unwrap_or_else(PoisonError::into_inner).0
                }
                None => self.done_cv.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
            st.waiting -= 1;
        }
    }

    /// The blocker of a thread waiting to run caller-run node `id` itself.
    /// Its own node stands in: the completion that meets the last
    /// dependency signals the owner of a caller-run dependent.
    fn unmet_of(id: TaskId) -> impl Fn(&State) -> Option<TaskId> {
        move |st| st.tasks.get(&id).is_some_and(|n| n.unmet > 0).then_some(id)
    }

    /// The one blocking point: [`Self::wait_while`], then re-raise a
    /// recorded body panic (taking it, so exactly one caller does).
    fn block_while(
        self: &Arc<Self>,
        counts_as_join: bool,
        blocker: impl Fn(&State) -> Option<TaskId>,
    ) {
        let mut st = self.wait_while(self.state.lock(), blocker);
        st.joins += u64::from(counts_as_join);
        let msg = st.panic_msg.take();
        drop(st);
        if let Some(m) = msg {
            panic!("data-plane task panicked: {m}");
        }
    }

    /// Block until every task in `ids` (and, transitively, everything they
    /// depend on) has completed. Ids of already-completed tasks are skipped;
    /// an empty list still is a blocking point for a recorded panic.
    pub(crate) fn join(self: &Arc<Self>, ids: &[TaskId]) {
        // The newest live id: on an in-order queue the one that completes
        // last, so the joiner is woken once.
        self.block_while(!ids.is_empty(), |st| {
            ids.iter().rev().find(|id| st.tasks.contains_key(id)).copied()
        });
    }

    /// Join the task backing engine event `ev`, if one is still live.
    pub(crate) fn join_event(self: &Arc<Self>, ev: usize) {
        self.block_while(true, |st| st.events.get(&ev).copied());
    }

    /// Drop completed ids from `ids` (bounds per-queue bookkeeping).
    pub(crate) fn retain_live(&self, ids: &mut Vec<TaskId>) {
        let st = self.state.lock();
        ids.retain(|t| st.tasks.contains_key(t));
    }

    /// Block until the executor is fully idle (no live tasks).
    pub(crate) fn quiesce(self: &Arc<Self>) {
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
            timed_tasks: st.timed,
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
    pub(crate) fn shutdown(self: &Arc<Self>) {
        // Let in-flight DAGs drain: block, as a joiner does, until no pooled
        // task is left to run — this thread retires the deadlines they wait
        // behind. Tasks in device time that nothing waits for are dropped.
        let mut st = self.wait_while(self.state.lock(), |st| {
            st.tasks.iter().find(|(_, n)| !n.caller_run && n.deadline.is_none()).map(|(&id, _)| id)
        });
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
        self.plane.block_while(false, DataPlane::unmet_of(self.id));
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
    use crate::buffer::Buffer;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn plane(workers: usize) -> Arc<DataPlane> {
        Arc::new(DataPlane::new(workers))
    }

    fn buf(bytes: usize) -> Buffer {
        Buffer::new(1, bytes).unwrap()
    }

    fn on(accesses: &[Access]) -> Order<'_> {
        Order { accesses, ..Order::default() }
    }

    /// Submit `f`, a body of `work` nominal units that returns the device
    /// time it declares; `None` means it ran, and completed, on the caller.
    fn task(
        p: &Arc<DataPlane>,
        order: Order<'_>,
        work: u64,
        f: impl FnOnce() -> Duration + Send + 'static,
    ) -> Option<TaskId> {
        let f = std::cell::Cell::new(Some(f));
        let take = || f.take().expect("exactly one of the two closures runs");
        p.submit(order, work, || take()(), || Work::Closure(Box::new(take())))
    }

    /// Submit `f` as a body too heavy to run on the caller: always pooled
    /// when the plane has more than one worker.
    fn heavy(p: &Arc<DataPlane>, order: Order<'_>, f: impl FnOnce() + Send + 'static) -> TaskId {
        let owned = || {
            Work::Closure(Box::new(move || {
                f();
                Duration::ZERO
            }))
        };
        p.submit(order, u64::MAX, || unreachable!("a heavy body ran on the caller"), owned)
            .expect("heavy tasks are queued")
    }

    /// Submit `f` as a light body; `None` means it ran on the caller.
    fn light(
        p: &Arc<DataPlane>,
        order: Order<'_>,
        f: impl FnOnce() + Send + 'static,
    ) -> Option<TaskId> {
        task(p, order, 1, move || {
            f();
            Duration::ZERO
        })
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
                Duration::ZERO
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
                        Duration::ZERO
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
    const SIGNAL: Duration = Duration::from_secs(20);

    /// Join `thread`, failing — not hanging — if it is still blocked after
    /// [`SIGNAL`].
    fn join_within_signal<T>(thread: JoinHandle<T>, lost: &str) -> T {
        let give_up = Instant::now() + SIGNAL;
        while !thread.is_finished() {
            assert!(Instant::now() < give_up, "{lost}");
            std::thread::sleep(Duration::from_millis(1));
        }
        thread.join().expect("the thread panicked")
    }

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
            Order {
                accesses: &[Access::write(&c)],
                wait_events: &[EventId(77)],
                ..Order::default()
            },
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

    #[test]
    fn light_work_derives_from_one_hand_off() {
        assert_eq!(LIGHT_WORK, 1 << 17);
    }

    /// The wait every deadline ends in holds for the whole time: never less
    /// (asserted on every sample), and at the median not much more. A wait
    /// short enough to be spun out whole must beat the ≥ 55 µs by which a
    /// plain `thread::sleep` overshoots any request; one that sleeps first
    /// inherits the host's wake-up latency for the slept part, which a
    /// loaded runner stretches, so its bound only rules out a runaway. Only
    /// medians are bounded above: a preempted sample cannot fail the test.
    #[test]
    fn wait_until_never_returns_early_and_overshoots_little() {
        for micros in [1, 20, 300, 2_000] {
            let wait = Duration::from_micros(micros);
            let mut over: Vec<Duration> = (0..41)
                .map(|_| {
                    let deadline = Instant::now() + wait;
                    wait_until(deadline);
                    let now = Instant::now();
                    assert!(now >= deadline, "{micros} µs wait returned early");
                    now - deadline
                })
                .collect();
            over.sort_unstable();
            let median = over[over.len() / 2];
            let bound = if wait > SLEEP_OVERSHOOT { 2_000 } else { 40 };
            assert!(
                median < Duration::from_micros(bound),
                "{micros} µs wait: median overshoot {median:?}"
            );
        }
    }

    /// Device times a waiting thread spins out whole (25 µs, 120 µs) and
    /// one beyond the sleep overshoot, which it sleeps most of (2 ms).
    const DEVICE_TIMES: [Duration; 3] =
        [Duration::from_micros(25), Duration::from_micros(120), Duration::from_millis(2)];

    /// When each body of a test started and — the last thing it did — ended:
    /// its task's deadline is no earlier than that end plus what it declared.
    type Spans = Arc<Mutex<Vec<(Instant, Instant)>>>;

    /// A body that logs its span and declares `d`.
    fn timed(spans: &Spans, d: Duration) -> impl FnOnce() -> Duration + Send + 'static {
        let spans = Arc::clone(spans);
        move || {
            let start = Instant::now();
            spans.lock().push((start, Instant::now()));
            d
        }
    }

    #[test]
    fn a_chain_completes_no_earlier_than_its_summed_device_time() {
        for workers in [1, 2, 4] {
            for d in DEVICE_TIMES {
                for work in [1, u64::MAX] {
                    let at = format!("{workers} workers, {d:?}, work {work}");
                    let p = plane(workers);
                    let spans = Spans::default();
                    let mut chain: Vec<TaskId> = Vec::new();
                    for _ in 0..3 {
                        let prev = chain.last().copied();
                        let order = Order { after: prev.as_slice(), ..Order::default() };
                        let t = task(&p, order, work, timed(&spans, d));
                        chain.push(t.expect("a task in device time is live on return"));
                    }
                    p.join(&chain);
                    let joined = Instant::now();
                    let spans = spans.lock().clone();
                    assert_eq!(spans.len(), 3, "{at}");
                    for (pred, succ) in spans.iter().zip(&spans[1..]) {
                        assert!(
                            succ.0 >= pred.1 + d,
                            "a body beat its predecessor's deadline: {at}"
                        );
                    }
                    assert!(joined >= spans[2].1 + d, "join returned before the deadline: {at}");
                    assert!(joined - spans[0].0 >= 3 * d, "{at}");
                    let s = p.stats();
                    assert_eq!((s.timed_tasks, s.queue_depth), (3, 0), "{at}: {s:?}");
                    if workers == 1 {
                        // However long the device time, a lone thread waits
                        // it out itself.
                        assert_eq!((s.inline_tasks, s.submitted), (3, 0), "{at}: {s:?}");
                        assert_eq!(p.state.lock().spawned, 0, "{at}");
                    }
                    p.shutdown();
                }
            }
        }
    }

    #[test]
    fn a_caller_run_task_in_device_time_is_live_until_its_deadline() {
        let p = plane(2);
        let b = buf(8);
        let d = Duration::from_millis(200);
        let spans = Spans::default();
        let w = task(&p, on(&[Access::write(&b)]), 1, timed(&spans, d))
            .expect("in device time: live, for the queue to chain after and join");
        let (_, ended) = spans.lock()[0];
        assert!(ended.elapsed() < d, "submit sat through the device time");
        let s = p.stats();
        assert_eq!((s.inline_tasks, s.submitted, s.timed_tasks, s.queue_depth), (1, 0, 1, 1));
        let mut ids = vec![w];
        p.retain_live(&mut ids);
        assert_eq!(ids, [w]);
        // A hazard successor is held back — queued, with this much left —
        // and `quiesce` sees both tasks live.
        let r = task(&p, on(&[Access::read(&b)]), 1, timed(&spans, Duration::ZERO))
            .expect("behind device time");
        assert_eq!(spans.lock().len(), 1, "the reader ran inside its writer's device time");
        p.quiesce();
        assert!(Instant::now() >= ended + d, "quiesce returned before the deadline");
        assert!(spans.lock()[1].0 >= ended + d, "the reader beat its writer's deadline");
        let mut ids = vec![w, r];
        p.retain_live(&mut ids);
        assert!(ids.is_empty());
        p.shutdown();
    }

    #[test]
    fn tasks_that_only_run_on_their_callers_start_no_thread() {
        let p = plane(4);
        let bufs: Vec<Buffer> = (0..8).map(|_| buf(8)).collect();
        let spans = Spans::default();
        for b in &bufs {
            task(&p, on(&[Access::write(b)]), 1, timed(&spans, Duration::from_millis(1)))
                .expect("in device time");
        }
        p.quiesce();
        let s = p.stats();
        assert_eq!((s.inline_tasks, s.submitted, s.timed_tasks, s.queue_depth), (8, 0, 8, 0));
        assert_eq!(p.state.lock().spawned, 0, "a deadline nothing queued waits for armed a worker");
        p.shutdown();
    }

    /// `serve_mix`'s shape: the only blocked thread joins task A, far from
    /// its deadline, while a queued task C waits behind task B's nearer
    /// one. No other thread looks before the join returns, so the joiner
    /// must release C at B's deadline — never earlier, and long before A's.
    /// B is in device time before the join starts, or (with a worker to run
    /// it) still running until the joiner sleeps, so that its nearer
    /// deadline arrives under a joiner already asleep until A's.
    #[test]
    fn the_blocked_thread_releases_a_queued_task_at_an_earlier_deadline() {
        let (far, near) = (Duration::from_millis(20), Duration::from_millis(1));
        for (workers, late) in [(1, false), (2, false), (4, false), (2, true), (4, true)] {
            let at = format!("{workers} workers, B still running: {late}");
            let p = plane(workers);
            let spans = Spans::default();
            let a = task(&p, Order::default(), 1, timed(&spans, far)).expect("in device time");
            let (release, gate) = mpsc::channel::<()>();
            let body = timed(&spans, near);
            let work = if late { u64::MAX } else { 1 };
            let b = task(&p, Order::default(), work, move || {
                if late {
                    gate.recv().unwrap();
                }
                body()
            })
            .expect("live");
            let (tx, started) = mpsc::channel();
            let c = task(&p, Order { after: &[b], ..Order::default() }, u64::MAX, move || {
                tx.send(Instant::now()).unwrap();
                Duration::ZERO
            });
            // One worker: C is the submitter's to run, after B's deadline.
            assert_eq!(c.is_some(), workers > 1, "{at}");
            std::thread::scope(|s| {
                let p = &p;
                s.spawn(move || {
                    while late && p.state.lock().waiting == 0 {
                        std::thread::yield_now();
                    }
                    // Refused when B never waited for it.
                    let _ = release.send(());
                });
                p.join(&[a]);
            });
            let started = started.recv_timeout(SIGNAL).expect("C never ran");
            let spans = spans.lock().clone();
            let (a_due, b_due) = (spans[0].1 + far, spans[1].1 + near);
            assert!(started >= b_due, "{at}: C ran inside B's device time");
            assert!(started < a_due, "{at}: C waited for A's deadline");
            p.shutdown();
        }
    }

    #[test]
    fn a_joiner_of_a_running_task_goes_on_to_wait_for_its_deadline() {
        let p = plane(2);
        let d = Duration::from_millis(20);
        let spans = Spans::default();
        let (release, gate) = mpsc::channel::<()>();
        let body = timed(&spans, d);
        let t = task(&p, Order::default(), u64::MAX, move || {
            gate.recv().unwrap();
            body()
        })
        .expect("heavy tasks are queued");
        let joined = std::thread::scope(|s| {
            let joiner = s.spawn(|| {
                p.join(&[t]);
                Instant::now()
            });
            // Let the joiner go to sleep on the running task (or not: then
            // it finds the task in device time on its own).
            let deadline = Instant::now() + Duration::from_secs(1);
            while !p.state.lock().tasks[&t].watched && Instant::now() < deadline {
                std::thread::yield_now();
            }
            release.send(()).unwrap();
            joiner.join().unwrap()
        });
        assert!(joined >= spans.lock()[0].1 + d, "join returned with the body, not the deadline");
        assert_eq!(p.stats().queue_depth, 0);
        p.shutdown();
    }

    #[test]
    fn a_blocking_read_waits_out_device_time_it_alone_is_waiting_for() {
        let d = Duration::from_millis(20);
        // Behind device time alone: the reader waits for the clock itself.
        let p = plane(2);
        let (b, spans) = (buf(8), Spans::default());
        task(&p, on(&[Access::write(&b)]), 1, timed(&spans, d)).expect("in device time");
        let read = p.begin_manual(&[Access::read(&b)], &[]);
        read.wait_ready();
        assert!(Instant::now() >= spans.lock()[0].1 + d, "read inside its writer's device time");
        drop(read);
        p.shutdown();
        // Behind a running body too, which ends first: from then on no
        // signal is coming, and the reader wakes for the deadline itself.
        let p = plane(2);
        let (b, c, spans) = (buf(8), buf(8), Spans::default());
        let (release, gate) = mpsc::channel::<()>();
        heavy(&p, on(&[Access::write(&c)]), move || gate.recv().unwrap());
        task(&p, on(&[Access::write(&b)]), 1, timed(&spans, d)).expect("in device time");
        let read = p.begin_manual(&[Access::read(&b), Access::read(&c)], &[]);
        release.send(()).unwrap();
        let reader = std::thread::spawn(move || {
            read.wait_ready();
            Instant::now()
        });
        let at = join_within_signal(reader, "the reader slept through the deadline");
        assert!(at >= spans.lock()[0].1 + d, "read inside its writer's device time");
        p.quiesce();
        p.shutdown();
        // Asleep behind a body still running, with no deadline in sight:
        // the body's entering device time has to rouse the reader.
        let p = plane(2);
        let (b, spans) = (buf(8), Spans::default());
        let (release, gate) = mpsc::channel::<()>();
        let body = timed(&spans, d);
        task(&p, on(&[Access::write(&b)]), u64::MAX, move || {
            gate.recv().unwrap();
            body()
        });
        let read = p.begin_manual(&[Access::read(&b)], &[]);
        let id = read.id;
        let reader = std::thread::spawn(move || {
            read.wait_ready();
            Instant::now()
        });
        let asleep = Instant::now() + Duration::from_secs(1);
        while !p.state.lock().tasks[&id].watched && Instant::now() < asleep {
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        let at = join_within_signal(reader, "the reader slept through the deadline");
        assert!(at >= spans.lock()[0].1 + d, "read inside its writer's device time");
        p.shutdown();
    }

    #[test]
    fn shutdown_drops_device_time_nothing_waits_for_and_waits_out_the_rest() {
        let p = plane(2);
        let spans = Spans::default();
        task(&p, Order::default(), 1, timed(&spans, Duration::from_secs(3600))).unwrap();
        let began = Instant::now();
        p.shutdown();
        assert!(began.elapsed() < Duration::from_secs(60), "shutdown sat through device time");

        let p = plane(2);
        let d = Duration::from_millis(20);
        let first = task(&p, Order::default(), 1, timed(&spans, d)).unwrap();
        task(&p, Order { after: &[first], ..Order::default() }, u64::MAX, timed(&spans, d))
            .unwrap();
        p.shutdown();
        let spans = spans.lock().clone();
        assert_eq!(spans.len(), 3, "shutdown dropped a queued task");
        assert!(spans[2].0 >= spans[1].1 + d, "ran inside its predecessor's device time");
        assert_eq!(p.stats().queue_depth, 1, "its own device time is nobody's to wait for");

        // Queued work behind a body still running drains; device time that
        // happens to be pending meanwhile is still nobody's to wait for.
        let p = plane(2);
        task(&p, Order::default(), 1, || Duration::from_secs(3600)).unwrap();
        let (release, gate) = mpsc::channel::<()>();
        let running = heavy(&p, Order::default(), move || gate.recv().unwrap());
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        heavy(&p, Order { after: &[running], ..Order::default() }, move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        let plane = Arc::clone(&p);
        let shutdown = std::thread::spawn(move || plane.shutdown());
        while p.state.lock().waiting == 0 {
            std::thread::yield_now();
        }
        release.send(()).unwrap();
        join_within_signal(shutdown, "shutdown sat through device time nothing waits for");
        assert_eq!(hits.load(Ordering::SeqCst), 1, "shutdown dropped a queued task");
    }
}
