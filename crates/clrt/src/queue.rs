//! Command queues and the command executor.
//!
//! A [`CommandQueue`] is bound to one device (the OpenCL rule the paper sets
//! out to relax). The binding is *rebindable* via [`CommandQueue::rebind`] —
//! that is the single hook the MultiCL scheduler needs: it maps user queues
//! onto device queues by rebinding them at synchronization epochs, exactly
//! like Figure 1's "queues → device pool" arrow.
//!
//! Queues are in-order by default. Out-of-order queues
//! (`CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE`,
//! [`crate::Context::create_queue_ooo`], or
//! [`CommandQueue::set_out_of_order`] on an idle queue) drop the implicit
//! command chaining: a command is ordered after explicit event wait lists,
//! [`CommandQueue::enqueue_barrier`] and — unlike OpenCL, which leaves data
//! hazards between unordered commands to the application — the RAW / WAR /
//! WAW predecessors of the buffers it touches, in both planes. Independent
//! commands may overlap in virtual time (e.g. one kernel's input migration
//! running while an earlier kernel still executes) and in wall-clock time;
//! dependent ones never do, on either queue kind.
//!
//! Every enqueue operation:
//! 1. validates arguments (context membership, sizes, capacities),
//! 2. inserts the implicit data movement the command needs (buffer
//!    residency → H2D / D2H / staged D2D), charging virtual time,
//! 3. states the buffers the command touches, once ([`Access`]), and
//!    submits the command to the hwsim engine (time plane) through the one
//!    consult → submit → record sequence (`submit`), and
//! 4. submits the host-side effect (kernel body, store copy) to the
//!    hazard-tracked data-plane executor ([`crate::exec`]), ordered by the
//!    same touches, which runs it on the enqueueing thread when nothing
//!    blocks it and it is lighter than a hand-off, and on its worker pool
//!    otherwise.
//!
//! The planes see a touch the same way except in the rows of `Stamp`'s
//! table (below, and DESIGN.md §11).

use crate::buffer::{bytes_of, Buffer, Element};
use crate::context::Context;
use crate::error::{ClError, ClResult};
use crate::event::Event;
use crate::exec::{DataPlane, Order, TaskId, Work};
use crate::hazard::Access;
use crate::kernel::{BoundArgs, Kernel, KernelBody, KernelCtx};
use crate::ndrange::NdRange;
use crate::platform::next_object_id;
use hwsim::engine::{CommandDesc, CommandKind, Engine, EventId};
use hwsim::sync::Mutex;
use hwsim::topology::TransferKind;
use hwsim::{DeviceId, SimDuration, WaitList};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How the time plane sees a command's touches. The data plane always
/// orders the command's task by the touches as stated — the two planes
/// differ in exactly these rows:
///
/// | command                         | time plane              | data plane         |
/// |---------------------------------|-------------------------|--------------------|
/// | write, read, copy, whole launch | as stated               | as stated          |
/// | chunk of a split launch         | reader                  | as stated          |
/// | gather, migration               | as stated (a read)      | no task            |
/// | D2H leg of a staged migration   | consulted, not recorded | no task            |
/// | split join                      | writer                  | as stated (a read) |
/// | split start, barrier            | consulted, not recorded | touches nothing    |
///
/// Sibling chunks write disjoint sub-ranges, so in virtual time they are
/// mutually unordered readers (in wall-clock time they share the buffer's
/// store lock anyway, and serializing them keeps results exact); the join
/// then stands for the whole split's write, so that later consumers order
/// after every chunk and not after one, while its task only has to follow
/// the chunks' tasks. A marker touches nothing itself, and what follows a
/// staged migration's second leg follows its first.
#[derive(Clone, Copy, PartialEq)]
enum Stamp {
    AsStated,
    Reader,
    Writer,
    Unrecorded,
}

impl Stamp {
    fn writes(self, touch: &Access) -> bool {
        match self {
            Stamp::AsStated | Stamp::Unrecorded => touch.write,
            Stamp::Reader => false,
            Stamp::Writer => true,
        }
    }
}

/// Readers a buffer's time-plane frontier holds before the ones that have
/// completed in virtual time are pruned.
const STAMP_READERS_PRUNE: usize = 64;

struct QueueInner {
    ctx: Context,
    qid: usize,
    /// Out-of-order execution mode: no implicit chaining between commands.
    /// Switched only while the queue is idle
    /// ([`CommandQueue::set_out_of_order`]) and under the engine lock, which
    /// every time-plane read of it also holds, so the flag itself orders
    /// nothing and `Relaxed` suffices.
    ooo: AtomicBool,
    device: Mutex<DeviceId>,
    last: Mutex<Option<EventId>>,
    /// Commands submitted since the last `finish`/barrier (drives `finish`
    /// and `enqueue_barrier` for out-of-order queues).
    outstanding: Mutex<Vec<EventId>>,
    /// Data-plane mirror of `last`: the previous command's task, chained by
    /// in-order queues.
    last_task: Mutex<Option<TaskId>>,
    /// Data-plane mirror of `outstanding`: live tasks `finish` must join.
    /// Snapshot-joined (never drained) so concurrent finishers all block.
    outstanding_tasks: Mutex<Vec<TaskId>>,
    /// Where `finish` keeps its snapshot of `outstanding_tasks` while it
    /// joins (enqueues go on meanwhile): reused, so a finish allocates
    /// nothing. Concurrent finishers take turns.
    joining: Mutex<Vec<TaskId>>,
}

/// A `cl_command_queue` bound (rebindably) to one device; in-order by
/// default, out-of-order via [`crate::Context::create_queue_ooo`] or
/// [`CommandQueue::set_out_of_order`].
#[derive(Clone)]
pub struct CommandQueue {
    inner: Arc<QueueInner>,
}

impl CommandQueue {
    pub(crate) fn new(ctx: Context, device: DeviceId) -> CommandQueue {
        CommandQueue {
            inner: Arc::new(QueueInner {
                ctx,
                qid: next_object_id() as usize,
                ooo: AtomicBool::new(false),
                device: Mutex::new(device),
                last: Mutex::new(None),
                outstanding: Mutex::new(Vec::new()),
                last_task: Mutex::new(None),
                outstanding_tasks: Mutex::new(Vec::new()),
                joining: Mutex::new(Vec::new()),
            }),
        }
    }

    /// True if this queue executes out of order.
    pub fn is_out_of_order(&self) -> bool {
        self.inner.ooo.load(Ordering::Relaxed)
    }

    /// Switch the queue's ordering mode
    /// (`CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE` as a settable property).
    /// Only an idle queue can change mode — every command enqueued so far
    /// has completed in virtual time, e.g. after [`Self::finish`]: an
    /// in-order command chains behind the *last* command alone, which
    /// orders it after nothing an out-of-order predecessor still has in
    /// flight. Setting the mode the queue already has always succeeds.
    pub fn set_out_of_order(&self, ooo: bool) -> ClResult<()> {
        if self.is_out_of_order() == ooo {
            return Ok(());
        }
        let engine = self.inner.ctx.rt.engine.lock();
        let in_flight =
            self.inner.outstanding.lock().iter().filter(|&&e| !engine.event_completed(e)).count();
        if in_flight > 0 {
            return Err(ClError::InvalidOperation(format!(
                "cannot switch the ordering mode of queue {} with {in_flight} command(s) in flight",
                self.inner.qid
            )));
        }
        self.inner.ooo.store(ooo, Ordering::Relaxed);
        Ok(())
    }

    /// The device this queue currently targets.
    pub fn device(&self) -> DeviceId {
        *self.inner.device.lock()
    }

    /// Rebind the queue to another device of the same context. This is the
    /// scheduler hook: MultiCL calls it when the device mapper assigns the
    /// queue. Commands enqueued afterwards execute on the new device;
    /// commands already submitted are unaffected.
    pub fn rebind(&self, device: DeviceId) -> ClResult<()> {
        if !self.inner.ctx.contains(device) {
            return Err(ClError::InvalidDevice(format!(
                "cannot rebind queue to {device}: not in context"
            )));
        }
        *self.inner.device.lock() = device;
        Ok(())
    }

    /// The queue's context.
    pub fn context(&self) -> &Context {
        &self.inner.ctx
    }

    /// Stable queue id, as recorded in execution traces.
    pub fn trace_id(&self) -> usize {
        self.inner.qid
    }

    /// The data-plane executor shared by the runtime.
    fn plane(&self) -> &Arc<DataPlane> {
        &self.inner.ctx.rt.plane
    }

    /// Data-plane dependency from the queue's ordering mode: in-order
    /// queues chain each task after the previous one; out-of-order queues
    /// rely on buffer hazards and explicit event waits alone.
    fn chain_dep(&self) -> Option<TaskId> {
        if self.is_out_of_order() {
            None
        } else {
            *self.inner.last_task.lock()
        }
    }

    /// Record a live data-plane task — queued, or in device time — as the
    /// queue's chain head and as a `finish` obligation, pruning completed
    /// ids once the list grows. A task that completed before its `submit`
    /// returned (`None`) leaves nothing to chain after or to join.
    fn record_task(&self, id: Option<TaskId>) {
        let Some(id) = id else { return };
        *self.inner.last_task.lock() = Some(id);
        let mut live = self.inner.outstanding_tasks.lock();
        live.push(id);
        if live.len() >= 128 {
            self.plane().retain_live(&mut live);
        }
    }

    /// Hand one command's data-plane half — `work` nominal units, see
    /// [`DataPlane::submit`] — to the executor: ordered by the hazards of
    /// `accesses`, the queue's chain and the tasks behind `wait_events`,
    /// backing engine event `ev`; recorded if it is live on return.
    fn submit_task(
        &self,
        accesses: &[Access],
        wait_events: &[usize],
        ev: EventId,
        work: u64,
        run: impl FnOnce() -> Duration,
        owned: impl FnOnce() -> Work,
    ) {
        let chain = self.chain_dep();
        let order = Order { accesses, after: chain.as_slice(), wait_events, event: Some(ev.0) };
        self.record_task(self.plane().submit(order, work, run, owned));
    }

    /// The one time-plane sequence: consult → submit → record. Submit one
    /// command on `device` that touches `touches` (seen through `stamp`)
    /// and waits on `waits`. An in-order queue chains it after the queue's
    /// previous command; an out-of-order queue *consults* the touched
    /// buffers' frontiers instead and waits on their RAW / WAR / WAW
    /// predecessors. Every queue then *records* the command in them, so
    /// out-of-order commands elsewhere order after it. The wait list stays
    /// inline (no heap allocation) for the common ≤4-dependency case.
    #[allow(clippy::too_many_arguments)]
    fn submit(
        &self,
        engine: &mut Engine,
        device: DeviceId,
        kind: CommandKind,
        duration: SimDuration,
        mut waits: WaitList,
        touches: &[Access],
        stamp: Stamp,
    ) -> EventId {
        if self.is_out_of_order() {
            for t in touches {
                waits.extend(t.buf.inner.stamp_hazard.lock().predecessors(stamp.writes(t)));
            }
        } else if let Some(last) = (*self.inner.last.lock()).filter(|l| !waits.contains(l)) {
            waits.push(last);
        }
        let id =
            engine.submit(CommandDesc { device, kind, duration, waits, queue: self.inner.qid });
        if stamp != Stamp::Unrecorded {
            for t in touches {
                let mut h = t.buf.inner.stamp_hazard.lock();
                h.record(id, stamp.writes(t));
                if h.reader_count() >= STAMP_READERS_PRUNE {
                    h.prune_readers(|&e| !engine.event_completed(e));
                }
            }
        }
        *self.inner.last.lock() = Some(id);
        self.inner.outstanding.lock().push(id);
        id
    }

    /// Insert the transfers needed to make `buf` valid on `dev`, updating
    /// residency. Returns the final transfer event, if any movement happened.
    ///
    /// A migration is a *read* of the buffer's contents in the time plane
    /// (the contents must be final before they move, and later writers
    /// order after the move) and has no data-plane task: the canonical
    /// store is the host's.
    fn migrate_to(&self, engine: &mut Engine, buf: &Buffer, dev: DeviceId) -> Option<EventId> {
        let node = &self.inner.ctx.rt.node;
        let mut res = buf.inner.residency.lock();
        if res.valid_on(dev) {
            return None;
        }
        let touches = [Access::read(buf)];
        let bytes = buf.byte_len() as u64;
        // Never stage from a lost device: its copy engine is gone, and a
        // D2H issued there would fail instantly (corrupting the staged
        // timeline) while leaving the stale residency entry in place.
        // Evacuated copies are purged here; when no healthy owner remains,
        // the host-backed canonical contents are the fallback source.
        if !res.host {
            res.devices.retain(|d| !engine.device_lost(*d));
            if res.devices.is_empty() {
                res.host = true;
            }
        }
        let h2d = CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes };
        let ev = if res.host {
            let d = node.topology.host_transfer_time(dev, bytes, &node.devices);
            let ev = self.submit(engine, dev, h2d, d, WaitList::new(), &touches, Stamp::AsStated);
            res.devices.insert(dev);
            ev
        } else {
            // Valid only on some other device: stage through the host
            // (cross-vendor D2D is unavailable, paper §V-C3).
            let owner =
                *res.devices.iter().next().expect("buffer valid neither on host nor any device");
            let d = node.topology.host_transfer_time(owner, bytes, &node.devices);
            let d2h = CommandKind::Transfer { kind: TransferKind::DeviceToHost, bytes };
            let ev1 =
                self.submit(engine, owner, d2h, d, WaitList::new(), &touches, Stamp::Unrecorded);
            let d = node.topology.host_transfer_time(dev, bytes, &node.devices);
            let ev2 =
                self.submit(engine, dev, h2d, d, WaitList::one(ev1), &touches, Stamp::AsStated);
            res.host = true;
            res.devices.insert(dev);
            ev2
        };
        Some(ev)
    }

    fn check_buffer(&self, buf: &Buffer) -> ClResult<()> {
        if !self.inner.ctx.owns_buffer(buf) {
            return Err(ClError::InvalidMemObject(format!(
                "buffer id={} belongs to a different context",
                buf.id()
            )));
        }
        Ok(())
    }

    /// `clEnqueueWriteBuffer`: copy `data` from the host into the buffer and
    /// charge an H2D transfer to this queue's device. After the write the
    /// contents are valid on this device only — the runtime does not retain
    /// a staging copy of the user's host array, exactly as in OpenCL.
    pub fn enqueue_write<T: Element>(&self, buf: &Buffer, data: &[T]) -> ClResult<Event> {
        self.check_buffer(buf)?;
        let expected = buf.len::<T>();
        if data.len() != expected {
            return Err(ClError::InvalidValue(format!(
                "enqueue_write length mismatch: buffer holds {expected} elements, got {}",
                data.len()
            )));
        }
        let dev = self.device();
        let node = &self.inner.ctx.rt.node;
        let bytes = buf.byte_len() as u64;
        let duration = node.topology.host_transfer_time(dev, bytes, &node.devices);
        // The upload overwrites the contents.
        let touches = [Access::write(buf)];
        let ev = self.submit(
            &mut self.inner.ctx.rt.engine.lock(),
            dev,
            CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes },
            duration,
            WaitList::new(),
            &touches,
            Stamp::AsStated,
        );
        // Data plane: the store update is a hazard-tracked task. A queued
        // write must stage the user's slice (the call may return before a
        // worker runs the copy, and OpenCL does not retain the host
        // pointer) — a memcpy of the whole payload on this thread — so an
        // unblocked write of any size is cheaper copied straight into the
        // store: it declares no work.
        self.submit_task(
            &touches,
            &[],
            ev,
            0,
            || {
                buf.inner.store.lock().as_mut_slice::<T>().copy_from_slice(data);
                Duration::ZERO
            },
            || {
                let staged: Box<[u8]> = bytes_of(data).into();
                let dst = buf.clone();
                Box::new(move || {
                    dst.inner.store.lock().as_mut_slice::<u8>().copy_from_slice(&staged);
                    Duration::ZERO
                })
            },
        );
        let mut res = buf.inner.residency.lock();
        res.devices.clear();
        res.devices.insert(dev);
        res.host = false;
        Ok(Event::new(Arc::clone(&self.inner.ctx.rt), ev))
    }

    /// `clEnqueueReadBuffer` (blocking): make the buffer valid on this
    /// queue's device if needed, transfer it back, block, and copy the
    /// contents into `out`.
    pub fn enqueue_read<T: Element>(&self, buf: &Buffer, out: &mut [T]) -> ClResult<Event> {
        self.check_buffer(buf)?;
        let expected = buf.len::<T>();
        if out.len() != expected {
            return Err(ClError::InvalidValue(format!(
                "enqueue_read length mismatch: buffer holds {expected} elements, got {}",
                out.len()
            )));
        }
        let dev = self.device();
        let node_devices_len = self.inner.ctx.rt.node.devices.len();
        debug_assert!(dev.index() < node_devices_len);
        let bytes = buf.byte_len() as u64;
        // Data plane: register the host copy-out as a *manual* task before
        // blocking, so its RAW edge on the buffer's last writer is captured
        // in enqueue order and later writers gain a WAR edge on the read.
        let touches = [Access::read(buf)];
        let bracket = self.plane().begin_manual(&touches, self.chain_dep().as_slice());
        let ev = {
            let mut engine = self.inner.ctx.rt.engine.lock();
            let mig = self.migrate_to(&mut engine, buf, dev);
            let node = &self.inner.ctx.rt.node;
            let duration = node.topology.host_transfer_time(dev, bytes, &node.devices);
            let id = self.submit(
                &mut engine,
                dev,
                CommandKind::Transfer { kind: TransferKind::DeviceToHost, bytes },
                duration,
                mig.into_iter().collect(),
                &touches,
                Stamp::AsStated,
            );
            engine.wait(id);
            id
        };
        buf.inner.residency.lock().host = true;
        bracket.wait_ready();
        out.copy_from_slice(buf.inner.store.lock().as_slice::<T>());
        drop(bracket); // completes the manual task, releasing blocked writers
        Ok(Event::new(Arc::clone(&self.inner.ctx.rt), ev))
    }

    /// `clEnqueueCopyBuffer`: device-side copy of `src` into `dst`
    /// (whole-buffer; lengths must match).
    pub fn enqueue_copy(&self, src: &Buffer, dst: &Buffer) -> ClResult<Event> {
        self.check_buffer(src)?;
        self.check_buffer(dst)?;
        if src.byte_len() != dst.byte_len() {
            return Err(ClError::InvalidValue(format!(
                "enqueue_copy size mismatch: {} vs {} bytes",
                src.byte_len(),
                dst.byte_len()
            )));
        }
        let dev = self.device();
        let bytes = src.byte_len() as u64;
        let touches = [Access::read(src), Access::write(dst)];
        let ev = {
            let mut engine = self.inner.ctx.rt.engine.lock();
            let mig = self.migrate_to(&mut engine, src, dev);
            let node = &self.inner.ctx.rt.node;
            let duration = node.topology.device_transfer_time(dev, dev, bytes, &node.devices);
            self.submit(
                &mut engine,
                dev,
                CommandKind::Transfer { kind: TransferKind::DeviceToDevice, bytes },
                duration,
                mig.into_iter().collect(),
                &touches,
                Stamp::AsStated,
            )
        };
        // Data plane: copy the canonical stores (a self-copy is a data-plane
        // no-op). The task locks both stores in canonical buffer-id order —
        // the global order every multi-buffer task uses — so concurrent
        // readers of overlapping buffer sets cannot deadlock.
        if !src.same_object(dst) {
            let copy_stores = |s: &Buffer, d: &Buffer| {
                if s.inner.id < d.inner.id {
                    let sg = s.inner.store.lock();
                    let mut dg = d.inner.store.lock();
                    dg.as_mut_slice::<u8>().copy_from_slice(sg.as_slice::<u8>());
                } else {
                    let mut dg = d.inner.store.lock();
                    let sg = s.inner.store.lock();
                    dg.as_mut_slice::<u8>().copy_from_slice(sg.as_slice::<u8>());
                }
                Duration::ZERO
            };
            self.submit_task(
                &touches,
                &[],
                ev,
                bytes,
                || copy_stores(src, dst),
                || {
                    let (s, d) = (src.clone(), dst.clone());
                    Box::new(move || copy_stores(&s, &d))
                },
            );
        }
        let mut res = dst.inner.residency.lock();
        res.devices.clear();
        res.devices.insert(dev);
        res.host = false;
        Ok(Event::new(Arc::clone(&self.inner.ctx.rt), ev))
    }

    /// The device-independent half of launch validation: the kernel and
    /// every buffer argument must belong to this queue's context. Layers
    /// that buffer launches for a later flush call this at enqueue time, so
    /// a foreign object is a typed error there and never reaches the flush.
    pub fn validate_launch(&self, kernel: &Kernel, args: &BoundArgs) -> ClResult<()> {
        if kernel.ctx_id() != self.inner.ctx.id {
            return Err(ClError::InvalidContext(format!(
                "kernel `{}` belongs to a different context",
                kernel.name()
            )));
        }
        args.touched().iter().try_for_each(|t| self.check_buffer(&t.buf))
    }

    /// The device-dependent half of launch validation: every buffer
    /// argument must fit in the memory of the device the queue is bound to
    /// *now*. A layer that buffers launches for a queue it will not rebind
    /// calls this at enqueue time; one that picks the device later has to
    /// pick one the buffers fit.
    pub fn check_capacity(&self, kernel: &Kernel, args: &BoundArgs) -> ClResult<()> {
        let dev = self.device();
        if args.max_buffer_bytes() > self.inner.ctx.rt.node.spec(dev).mem_capacity {
            return Err(ClError::MemObjectAllocationFailure(format!(
                "kernel `{}`: a buffer of {} bytes exceeds device {dev} memory",
                kernel.name(),
                args.max_buffer_bytes(),
            )));
        }
        Ok(())
    }

    /// `clEnqueueNDRangeKernel`: migrate buffer arguments to this queue's
    /// device, charge the kernel's modeled execution time, and run the body.
    ///
    /// If the kernel has a per-device launch configuration registered for
    /// this device (the paper's `clSetKernelWorkGroupInfo`), it overrides
    /// `nd`.
    pub fn enqueue_ndrange(
        &self,
        kernel: &Kernel,
        nd: NdRange,
        waits: &[Event],
    ) -> ClResult<Event> {
        let args = kernel.snapshot_args()?;
        self.enqueue_ndrange_with_args(kernel, nd, &args, waits)
    }

    /// Like [`Self::enqueue_ndrange`], but with an explicit argument
    /// snapshot, decoupled from the kernel object's current bindings.
    /// Scheduler layers that buffer launches use this so each buffered
    /// launch runs with the arguments it carried at enqueue time.
    pub fn enqueue_ndrange_with_args(
        &self,
        kernel: &Kernel,
        nd: NdRange,
        args: &BoundArgs,
        waits: &[Event],
    ) -> ClResult<Event> {
        self.launch(kernel, nd, None, args, waits)
    }

    /// Sub-range launch of a splittable kernel (the split scheduler's
    /// workhorse): execute the `chunk` extent of the kernel's logical range
    /// starting at `global_offset`, on this queue's device.
    ///
    /// A per-device launch configuration registered via
    /// [`Kernel::set_work_group_info`] contributes its *workgroup shape*
    /// (the chunk keeps its own global extent). The kernel body receives
    /// the offset through [`KernelCtx::global_offset`] and must confine its
    /// writes to the sub-range it owns ([`crate::KernelBody::splittable`]).
    ///
    /// Hazard and residency handling differ from a whole launch, because
    /// sibling chunks of one logical launch write *disjoint* sub-ranges:
    /// the chunk is a time-plane **reader** of every buffer it touches (so
    /// sibling chunks never serialize against each other in virtual time),
    /// and written buffers' residency is left untouched. The caller
    /// finalizes both via [`CommandQueue::enqueue_split_join`] once every
    /// chunk has been issued.
    pub fn enqueue_ndrange_chunk(
        &self,
        kernel: &Kernel,
        chunk: NdRange,
        global_offset: [u64; 3],
        args: &BoundArgs,
        waits: &[Event],
    ) -> ClResult<Event> {
        self.launch(kernel, chunk, Some(global_offset), args, waits)
    }

    /// The one kernel-launch body. `chunk_offset` is `None` for a whole
    /// launch and the sub-range's global offset for a chunk; everything a
    /// chunk does differently (see [`Self::enqueue_ndrange_chunk`]) keys on
    /// it.
    fn launch(
        &self,
        kernel: &Kernel,
        nd: NdRange,
        chunk_offset: Option<[u64; 3]>,
        args: &BoundArgs,
        waits: &[Event],
    ) -> ClResult<Event> {
        self.validate_launch(kernel, args)?;
        nd.validate()?;
        let dev = self.device();
        let whole = chunk_offset.is_none();
        let effective = if whole {
            kernel.effective_nd(dev, nd)
        } else if kernel.has_work_group_info(dev) {
            NdRange::d3(nd.global, kernel.effective_nd(dev, nd).local)
        } else {
            nd
        };
        effective.validate()?;
        self.check_capacity(kernel, args)?;
        let spec = self.inner.ctx.rt.node.spec(dev);
        let cost = kernel.cost();
        let duration = cost.kernel_time(spec, effective.shape());
        // What the launch touches, for both planes.
        let touches = args.touched();
        let ev = {
            let mut engine = self.inner.ctx.rt.engine.lock();
            let mut chain: WaitList = waits.iter().map(Event::raw).collect();
            // In first-touch order: the migrations' stamps depend on it.
            for t in touches {
                chain.extend(self.migrate_to(&mut engine, &t.buf, dev));
            }
            self.submit(
                &mut engine,
                dev,
                CommandKind::Kernel { name: kernel.shared_name() },
                duration,
                chain,
                touches,
                if whole { Stamp::AsStated } else { Stamp::Reader },
            )
        };
        // Data plane: run the body exactly once, outside the engine lock.
        // Explicit event waits order the task after the tasks backing those
        // events.
        let global_offset = chunk_offset.unwrap_or_default();
        // The context — and the store locks it holds — goes with the body;
        // the device time the body declared outlives both.
        let execute = move |body: &dyn KernelBody, args: &BoundArgs| {
            let mut ctx = KernelCtx::with_offset(effective, dev, global_offset, args);
            body.execute(&mut ctx);
            ctx.device_time()
        };
        // The body's nominal work: what the cost model charges per item —
        // compute or traffic, whichever dominates — over the launch.
        let work = effective.global_items() as f64 * cost.flops_per_item.max(cost.bytes_per_item);
        let wait_events: Vec<usize> = waits.iter().map(|e| e.raw().0).collect();
        self.submit_task(
            touches,
            &wait_events,
            ev,
            work as u64,
            || execute(&**kernel.body(), args),
            || {
                let (body, args) = (Arc::clone(kernel.body()), args.clone());
                Box::new(move || execute(&*body, &args))
            },
        );
        // Residency: written buffers are now valid only on this device. A
        // chunk leaves residency to `enqueue_split_join`.
        if whole {
            for t in touches.iter().filter(|t| t.write) {
                let mut res = t.buf.inner.residency.lock();
                res.devices.clear();
                res.devices.insert(dev);
                res.host = false;
            }
        }
        Ok(Event::new(Arc::clone(&self.inner.ctx.rt), ev))
    }

    /// Charge the partial D2H that pulls one chunk's output sub-range
    /// (`bytes` of `buf`) back from this queue's device — the gather step
    /// of a split launch. Residency is not updated; the caller finalizes
    /// the logical buffer via [`CommandQueue::enqueue_split_join`].
    pub fn enqueue_gather(&self, buf: &Buffer, bytes: u64, waits: &[Event]) -> ClResult<Event> {
        self.check_buffer(buf)?;
        let bytes = bytes.min(buf.byte_len() as u64).max(1);
        let dev = self.device();
        let mut engine = self.inner.ctx.rt.engine.lock();
        let node = &self.inner.ctx.rt.node;
        let duration = node.topology.host_transfer_time(dev, bytes, &node.devices);
        let id = self.submit(
            &mut engine,
            dev,
            CommandKind::Transfer { kind: TransferKind::DeviceToHost, bytes },
            duration,
            waits.iter().map(Event::raw).collect(),
            &[Access::read(buf)],
            Stamp::AsStated,
        );
        Ok(Event::new(Arc::clone(&self.inner.ctx.rt), id))
    }

    /// Rejoin a split launch into this queue's program order: a
    /// zero-duration marker waiting on `waits` (every chunk's gather).
    /// Each written buffer's time-plane writer stamp becomes the marker
    /// (so later out-of-order consumers order after the *whole* split, not
    /// one chunk) and its contents are declared valid on the host alone —
    /// the reassembled result of the gathers.
    pub fn enqueue_split_join(&self, waits: &[Event], written: &[Buffer]) -> Event {
        // Stated as the data plane sees it: a no-op task ordered after
        // every chunk's write hazard, so the home queue's chain observes the
        // completed split.
        let touches: Vec<Access> = written.iter().map(Access::read).collect();
        let id = self.submit(
            &mut self.inner.ctx.rt.engine.lock(),
            self.device(),
            CommandKind::Marker,
            SimDuration::ZERO,
            waits.iter().map(Event::raw).collect(),
            &touches,
            Stamp::Writer,
        );
        for b in written {
            b.mark_host_only();
        }
        let nop = || Duration::ZERO;
        self.submit_task(&touches, &[], id, 0, nop, || Box::new(nop));
        Event::new(Arc::clone(&self.inner.ctx.rt), id)
    }

    /// `clEnqueueMarker`: a zero-duration command that completes when all
    /// previously enqueued commands on this queue complete (on both queue
    /// kinds the marker waits for everything outstanding).
    pub fn enqueue_marker(&self) -> Event {
        self.enqueue_barrier()
    }

    /// `clEnqueueBarrierWithWaitList` (empty list): a zero-duration command
    /// ordered after every previously enqueued command; subsequent commands
    /// on an out-of-order queue are ordered after it.
    pub fn enqueue_barrier(&self) -> Event {
        self.barrier_after(&[])
    }

    /// Open a split launch on its home queue: a marker like
    /// [`Self::enqueue_marker`] — the tail of the queue's prior work, which
    /// every chunk orders after — that on an out-of-order queue also waits
    /// on the RAW/WAR/WAW stamp predecessors of the launch's buffer
    /// arguments, with whole-launch semantics (a written buffer consults as
    /// a write). The chunks run on in-order lanes, which consult no stamp
    /// hazards themselves, so this marker is the one place a producer on
    /// *another* queue of the same out-of-order batch is waited for. An
    /// in-order home queue waits on nothing extra: like a whole launch
    /// there, it is ordered by its queue's chain alone.
    pub fn enqueue_split_start(&self, args: &BoundArgs) -> Event {
        self.barrier_after(args.touched())
    }

    /// The one barrier body: a marker after everything outstanding on this
    /// queue and, on an out-of-order queue, after the time-plane hazard
    /// predecessors of a command touching `touches` — consulted, never
    /// recorded: the marker touches nothing itself.
    fn barrier_after(&self, touches: &[Access]) -> Event {
        let id = {
            let mut engine = self.inner.ctx.rt.engine.lock();
            let waits: Vec<EventId> = std::mem::take(&mut *self.inner.outstanding.lock());
            self.submit(
                &mut engine,
                self.device(),
                CommandKind::Marker,
                SimDuration::ZERO,
                waits.into(),
                touches,
                Stamp::Unrecorded,
            )
        };
        // Data plane: a no-op task ordered after everything outstanding on
        // this queue. Subsequent commands chain after it (in-order) or wait
        // on its event explicitly (out-of-order), mirroring the time plane.
        let mut deps: Vec<TaskId> = std::mem::take(&mut *self.inner.outstanding_tasks.lock());
        deps.extend(self.chain_dep());
        let order = Order { after: &deps, event: Some(id.0), ..Order::default() };
        let nop = || Duration::ZERO;
        self.record_task(self.plane().submit(order, 0, nop, || Box::new(nop)));
        Event::new(Arc::clone(&self.inner.ctx.rt), id)
    }

    /// `clFinish`: block the host until every command enqueued on this queue
    /// has completed, in both planes: the virtual clock advances past every
    /// outstanding command, and every data-plane task this queue submitted
    /// (plus, transitively, everything those tasks depend on) has executed.
    pub fn finish(&self) {
        let outstanding: Vec<EventId> = std::mem::take(&mut *self.inner.outstanding.lock());
        if !outstanding.is_empty() {
            let mut engine = self.inner.ctx.rt.engine.lock();
            for id in outstanding {
                engine.wait(id);
            }
            // With retirement enabled, a finish is a natural compaction
            // point: everything this queue submitted has now completed.
            engine.retire_completed();
        }
        // A blocking point even with nothing outstanding: a caller-run
        // body's panic is re-raised here (one plane lock, no allocation).
        let mut tasks = self.inner.joining.lock();
        tasks.clear();
        tasks.extend_from_slice(&self.inner.outstanding_tasks.lock());
        self.plane().join(&tasks);
        if !tasks.is_empty() {
            let mut live = self.inner.outstanding_tasks.lock();
            self.plane().retain_live(&mut live);
        }
    }

    /// The completion event of the most recently enqueued command, if any.
    pub fn last_event(&self) -> Option<Event> {
        self.inner.last.lock().map(|id| Event::new(Arc::clone(&self.inner.ctx.rt), id))
    }
}

impl std::fmt::Debug for CommandQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CommandQueue(qid={}, device={})", self.inner.qid, self.device())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ArgValue, KernelBody};
    use crate::Platform;
    use hwsim::KernelCostSpec;

    struct Scale(f64);
    impl KernelBody for Scale {
        fn name(&self) -> &str {
            "scale"
        }
        fn arity(&self) -> usize {
            1
        }
        fn cost(&self) -> KernelCostSpec {
            KernelCostSpec::memory_bound(16.0)
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let n = ctx.nd().global_items() as usize;
            let data = ctx.slice_mut::<f64>(0);
            for v in data.iter_mut().take(n) {
                *v *= self.0;
            }
        }
    }

    fn setup() -> (Platform, Context, Kernel, Buffer) {
        let p = Platform::paper_node();
        let ctx = p.create_context_all().unwrap();
        let prog = ctx.create_program(vec![Arc::new(Scale(2.0)) as Arc<dyn KernelBody>]).unwrap();
        prog.build(0).unwrap();
        let k = prog.create_kernel("scale").unwrap();
        let b = ctx.create_buffer_of::<f64>(1024).unwrap();
        (p, ctx, k, b)
    }

    #[test]
    fn write_kernel_read_roundtrip() {
        let (_p, ctx, k, b) = setup();
        let q = ctx.create_queue(DeviceId(1)).unwrap();
        q.enqueue_write(&b, &vec![3.0f64; 1024]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        q.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        let mut out = vec![0.0f64; 1024];
        q.enqueue_read(&b, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 6.0));
    }

    #[test]
    fn kernel_on_written_device_needs_no_migration() {
        let (p, ctx, k, b) = setup();
        let q = ctx.create_queue(DeviceId(1)).unwrap();
        q.enqueue_write(&b, &vec![1.0f64; 1024]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        q.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        q.finish();
        let trace = p.trace_snapshot();
        // One H2D for the write; the kernel triggered no extra transfers.
        assert_eq!(trace.transfers_where(|_| true), 1);
    }

    #[test]
    fn kernel_on_other_device_stages_through_host() {
        let (p, ctx, k, b) = setup();
        let q1 = ctx.create_queue(DeviceId(1)).unwrap();
        q1.enqueue_write(&b, &vec![1.0f64; 1024]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        q1.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        // Buffer now valid only on GPU 1; running on GPU 2 needs D2H + H2D.
        let q2 = ctx.create_queue(DeviceId(2)).unwrap();
        q2.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        q2.finish();
        let trace = p.trace_snapshot();
        let d2h = trace.transfers_where(|r| {
            matches!(r.kind, CommandKind::Transfer { kind: TransferKind::DeviceToHost, .. })
        });
        assert_eq!(d2h, 1);
        assert_eq!(trace.transfers_where(|_| true), 3); // write H2D + D2H + H2D
    }

    #[test]
    fn rebind_switches_execution_device() {
        let (p, ctx, k, b) = setup();
        let q = ctx.create_queue(DeviceId(0)).unwrap();
        q.enqueue_write(&b, &vec![1.0f64; 1024]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        q.rebind(DeviceId(2)).unwrap();
        q.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        q.finish();
        let dist = p.trace_snapshot().kernel_distribution();
        assert_eq!(dist.get(&DeviceId(2)), Some(&1));
        assert_eq!(dist.get(&DeviceId(0)), None);
    }

    #[test]
    fn rebind_to_foreign_device_fails() {
        let p = Platform::paper_node();
        let gpus = p.devices_of_type(hwsim::DeviceType::Gpu);
        let ctx = p.create_context(&gpus).unwrap();
        let q = ctx.create_queue(DeviceId(1)).unwrap();
        assert!(q.rebind(DeviceId(0)).is_err());
    }

    #[test]
    fn in_order_queue_serializes_commands() {
        let (_p, ctx, k, b) = setup();
        let q = ctx.create_queue(DeviceId(1)).unwrap();
        let e1 = q.enqueue_write(&b, &vec![1.0f64; 1024]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        let e2 = q.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        assert!(e2.stamp().start >= e1.stamp().end);
    }

    #[test]
    fn cross_queue_waits_are_honored() {
        let (_p, ctx, k, b) = setup();
        let q1 = ctx.create_queue(DeviceId(1)).unwrap();
        let q2 = ctx.create_queue(DeviceId(2)).unwrap();
        let b2 = ctx.create_buffer_of::<f64>(1024).unwrap();
        let e1 = q1.enqueue_write(&b, &vec![1.0f64; 1024]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b2.clone())).unwrap();
        let e2 = q2.enqueue_ndrange(&k, NdRange::d1(1024, 128), std::slice::from_ref(&e1)).unwrap();
        assert!(e2.stamp().start >= e1.stamp().end);
    }

    #[test]
    fn finish_blocks_until_queue_drains() {
        let (p, ctx, k, b) = setup();
        let q = ctx.create_queue(DeviceId(0)).unwrap();
        q.enqueue_write(&b, &vec![1.0f64; 1024]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        let ev = q.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        q.finish();
        assert!(p.now() >= ev.stamp().end);
    }

    #[test]
    fn write_length_mismatch_is_rejected() {
        let (_p, ctx, _k, b) = setup();
        let q = ctx.create_queue(DeviceId(0)).unwrap();
        assert!(q.enqueue_write(&b, &[1.0f64; 7]).is_err());
    }

    #[test]
    fn copy_duplicates_contents() {
        let (_p, ctx, _k, b) = setup();
        let q = ctx.create_queue(DeviceId(1)).unwrap();
        let dst = ctx.create_buffer_of::<f64>(1024).unwrap();
        q.enqueue_write(&b, &vec![5.0f64; 1024]).unwrap();
        q.enqueue_copy(&b, &dst).unwrap();
        assert_eq!(dst.host_snapshot::<f64>(), vec![5.0f64; 1024]);
        assert!(dst.residency().valid_on(DeviceId(1)));
        assert!(!dst.residency().host);
    }

    #[test]
    fn per_device_workgroup_info_changes_duration() {
        let (_p, ctx, k, b) = setup();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        // Register a CPU-specific single-item-per-group configuration.
        k.set_work_group_info(DeviceId(0), NdRange::d1(1024, 1)).unwrap();
        let q_cpu = ctx.create_queue(DeviceId(0)).unwrap();
        let e_cpu = q_cpu.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        let q_gpu = ctx.create_queue(DeviceId(1)).unwrap();
        let e_gpu = q_gpu.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        // The CPU launch used 1024 workgroups of 1 item; the GPU launch used
        // the requested 8 workgroups of 128. Durations must differ from the
        // device models *and* the differing geometry.
        assert_ne!(e_cpu.duration(), e_gpu.duration());
    }

    #[test]
    fn marker_completes_after_preceding_commands() {
        let (_p, ctx, _k, b) = setup();
        let q = ctx.create_queue(DeviceId(1)).unwrap();
        let w = q.enqueue_write(&b, &vec![0.0f64; 1024]).unwrap();
        let m = q.enqueue_marker();
        assert!(m.stamp().end >= w.stamp().end);
    }

    /// Build the out-of-order overlap scenario: kernel A runs on GPU1 with
    /// resident data; kernel B's buffer lives on GPU2 and must be staged
    /// over before B can run on GPU1. Returns (A's event, B's event).
    fn overlap_scenario(ooo: bool) -> (Event, Event) {
        let p = Platform::paper_node();
        let ctx = p.create_context_all().unwrap();
        let prog = ctx.create_program(vec![Arc::new(Scale(2.0)) as Arc<dyn KernelBody>]).unwrap();
        prog.build(0).unwrap();
        let q = if ooo {
            ctx.create_queue_ooo(DeviceId(1)).unwrap()
        } else {
            ctx.create_queue(DeviceId(1)).unwrap()
        };
        // Buffer A resident on GPU1 (this queue's device).
        let a = ctx.create_buffer_of::<f64>(1 << 20).unwrap();
        q.enqueue_write(&a, &vec![1.0f64; 1 << 20]).unwrap();
        // Buffer B resident on GPU2 (written via a throwaway queue).
        let staging = ctx.create_queue(DeviceId(2)).unwrap();
        let b = ctx.create_buffer_of::<f64>(1 << 20).unwrap();
        staging.enqueue_write(&b, &vec![1.0f64; 1 << 20]).unwrap();
        staging.finish();

        let ka = prog.create_kernel("scale").unwrap();
        ka.set_arg(0, ArgValue::BufferMut(a)).unwrap();
        let ea = q.enqueue_ndrange(&ka, NdRange::d1(1 << 20, 128), &[]).unwrap();
        let kb = prog.create_kernel("scale").unwrap();
        kb.set_arg(0, ArgValue::BufferMut(b)).unwrap();
        let eb = q.enqueue_ndrange(&kb, NdRange::d1(1 << 20, 128), &[]).unwrap();
        q.finish();
        (ea, eb)
    }

    #[test]
    fn out_of_order_queue_overlaps_independent_commands() {
        let (a_in, b_in) = overlap_scenario(false);
        let (a_ooo, b_ooo) = overlap_scenario(true);
        // Kernel A costs the same either way.
        assert_eq!(a_in.duration(), a_ooo.duration());
        // In order, B's staging waits for A; out of order it starts at once,
        // so B completes strictly earlier.
        assert!(
            b_ooo.stamp().end < b_in.stamp().end,
            "ooo B {} !< in-order B {}",
            b_ooo.stamp().end,
            b_in.stamp().end
        );
    }

    #[test]
    fn barrier_restores_ordering_on_ooo_queues() {
        let p = Platform::paper_node();
        let ctx = p.create_context_all().unwrap();
        let prog = ctx.create_program(vec![Arc::new(Scale(2.0)) as Arc<dyn KernelBody>]).unwrap();
        prog.build(0).unwrap();
        let q = ctx.create_queue_ooo(DeviceId(1)).unwrap();
        let b1 = ctx.create_buffer_of::<f64>(4096).unwrap();
        let b2 = ctx.create_buffer_of::<f64>(4096).unwrap();
        let k1 = prog.create_kernel("scale").unwrap();
        k1.set_arg(0, ArgValue::BufferMut(b1)).unwrap();
        let e1 = q.enqueue_ndrange(&k1, NdRange::d1(4096, 64), &[]).unwrap();
        let bar = q.enqueue_barrier();
        let k2 = prog.create_kernel("scale").unwrap();
        k2.set_arg(0, ArgValue::BufferMut(b2)).unwrap();
        // No explicit waits — but the barrier orders everything before it,
        // and subsequent in-flight chaining goes through `last` (the
        // barrier) only for in-order queues, so pass the barrier explicitly
        // as OpenCL requires on OOO queues.
        let e2 = q.enqueue_ndrange(&k2, NdRange::d1(4096, 64), std::slice::from_ref(&bar)).unwrap();
        assert!(bar.stamp().end >= e1.stamp().end);
        assert!(e2.stamp().start >= bar.stamp().end);
        q.finish();
    }

    #[test]
    fn ooo_queue_overlaps_transfer_with_kernel_on_one_device() {
        // Dual-lane devices: with no event ordering, a buffer upload rides
        // the copy engine while a kernel occupies the compute engine.
        let p = Platform::paper_node();
        let ctx = p.create_context_all().unwrap();
        let prog = ctx.create_program(vec![Arc::new(Scale(2.0)) as Arc<dyn KernelBody>]).unwrap();
        prog.build(0).unwrap();
        let q = ctx.create_queue_ooo(DeviceId(1)).unwrap();
        let a = ctx.create_buffer_of::<f64>(1 << 20).unwrap();
        q.enqueue_write(&a, &vec![1.0f64; 1 << 20]).unwrap();
        let k = prog.create_kernel("scale").unwrap();
        k.set_arg(0, ArgValue::BufferMut(a)).unwrap();
        let write_ev = q.last_event().unwrap();
        let kernel_ev = q
            .enqueue_ndrange(&k, NdRange::d1(1 << 20, 128), std::slice::from_ref(&write_ev))
            .unwrap();
        // A second, unrelated upload overlaps the kernel on the same device.
        let b = ctx.create_buffer_of::<f64>(1 << 20).unwrap();
        let upload_ev = q.enqueue_write(&b, &vec![2.0f64; 1 << 20]).unwrap();
        assert!(
            upload_ev.stamp().start < kernel_ev.stamp().end,
            "copy engine should run during the kernel: upload {} vs kernel end {}",
            upload_ev.stamp().start,
            kernel_ev.stamp().end
        );
        q.finish();
    }

    #[test]
    fn ooo_queue_orders_raw_hazards_without_explicit_waits() {
        // The time-plane hazard tracker supplies the RAW edge: a kernel
        // consuming a just-uploaded buffer must start after the upload even
        // with an empty wait list on an out-of-order queue.
        let p = Platform::paper_node();
        let ctx = p.create_context_all().unwrap();
        let prog = ctx.create_program(vec![Arc::new(Scale(2.0)) as Arc<dyn KernelBody>]).unwrap();
        prog.build(0).unwrap();
        let q = ctx.create_queue_ooo(DeviceId(1)).unwrap();
        let b = ctx.create_buffer_of::<f64>(1 << 16).unwrap();
        let w = q.enqueue_write(&b, &vec![3.0f64; 1 << 16]).unwrap();
        let k = prog.create_kernel("scale").unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        let e = q.enqueue_ndrange(&k, NdRange::d1(1 << 16, 128), &[]).unwrap();
        assert!(
            e.stamp().start >= w.stamp().end,
            "kernel {} must start after its input upload ends {}",
            e.stamp().start,
            w.stamp().end
        );
        let mut out = vec![0.0f64; 1 << 16];
        let r = q.enqueue_read(&b, &mut out).unwrap();
        assert!(r.stamp().start >= e.stamp().end, "D2H must wait the producing kernel");
        assert!(out.iter().all(|&v| v == 6.0));
    }

    #[test]
    fn ooo_queue_orders_waw_and_war_hazards() {
        let p = Platform::paper_node();
        let ctx = p.create_context_all().unwrap();
        let prog = ctx.create_program(vec![Arc::new(Scale(2.0)) as Arc<dyn KernelBody>]).unwrap();
        prog.build(0).unwrap();
        let q = ctx.create_queue_ooo(DeviceId(1)).unwrap();
        let b = ctx.create_buffer_of::<f64>(1 << 16).unwrap();
        q.enqueue_write(&b, &vec![1.0f64; 1 << 16]).unwrap();
        let k = prog.create_kernel("scale").unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        let e = q.enqueue_ndrange(&k, NdRange::d1(1 << 16, 128), &[]).unwrap();
        // WAW/WAR: a second upload of the same buffer orders after the
        // kernel writing it — without any explicit event wait.
        let w2 = q.enqueue_write(&b, &vec![9.0f64; 1 << 16]).unwrap();
        assert!(
            w2.stamp().start >= e.stamp().end,
            "overwrite {} must wait for the kernel to end {}",
            w2.stamp().start,
            e.stamp().end
        );
        let mut out = vec![0.0f64; 1 << 16];
        q.enqueue_read(&b, &mut out).unwrap();
        assert!(out.iter().all(|&v| v == 9.0));
    }

    #[test]
    fn ooo_finish_drains_every_command() {
        let p = Platform::paper_node();
        let ctx = p.create_context_all().unwrap();
        let prog = ctx.create_program(vec![Arc::new(Scale(1.5)) as Arc<dyn KernelBody>]).unwrap();
        prog.build(0).unwrap();
        let q = ctx.create_queue_ooo(DeviceId(0)).unwrap();
        let mut events = Vec::new();
        for _ in 0..5 {
            let b = ctx.create_buffer_of::<f64>(1024).unwrap();
            let k = prog.create_kernel("scale").unwrap();
            k.set_arg(0, ArgValue::BufferMut(b)).unwrap();
            events.push(q.enqueue_ndrange(&k, NdRange::d1(1024, 64), &[]).unwrap());
        }
        q.finish();
        let now = p.now();
        for e in events {
            assert!(e.stamp().end <= now, "finish returned before {e:?} completed");
        }
        assert!(q.is_out_of_order());
    }

    #[test]
    fn ordering_mode_switches_on_an_idle_queue_only() {
        let (_p, ctx, k, b) = setup();
        let q = ctx.create_queue(DeviceId(1)).unwrap();
        assert!(!q.is_out_of_order());
        let w = q.enqueue_write(&b, &vec![3.0f64; 1024]).unwrap();
        // The upload is in flight: the mode cannot change under it, though
        // re-stating the current mode is a no-op.
        let err = q.set_out_of_order(true).unwrap_err();
        assert!(matches!(err, ClError::InvalidOperation(_)), "{err:?}");
        q.set_out_of_order(false).unwrap();
        assert!(!q.is_out_of_order());
        q.finish();
        q.set_out_of_order(true).unwrap();
        assert!(q.is_out_of_order());
        // Now out of order: an unrelated upload no longer chains behind the
        // kernel, while the kernel still waits for its own input.
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        let e = q.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        let other = ctx.create_buffer_of::<f64>(1024).unwrap();
        let u = q.enqueue_write(&other, &vec![0.0f64; 1024]).unwrap();
        assert!(e.stamp().start >= w.stamp().end);
        assert!(u.stamp().start < e.stamp().end, "upload {u:?} chained behind kernel {e:?}");
        q.finish();
        // And back: in order again, everything chains.
        q.set_out_of_order(false).unwrap();
        let e2 = q.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        let u2 = q.enqueue_write(&other, &vec![0.0f64; 1024]).unwrap();
        assert!(u2.stamp().start >= e2.stamp().end);
        assert_eq!(b.host_snapshot::<f64>(), vec![12.0f64; 1024]);
    }

    #[test]
    fn oversized_buffer_launch_is_rejected_per_device() {
        let p = Platform::paper_node();
        let ctx = p.create_context_all().unwrap();
        let prog = ctx.create_program(vec![Arc::new(Scale(1.0)) as Arc<dyn KernelBody>]).unwrap();
        prog.build(0).unwrap();
        let k = prog.create_kernel("scale").unwrap();
        // 4 GiB: fits the CPU (32 GB) but not a C2050 (3 GB).
        let big = ctx.create_buffer(4 << 30).unwrap();
        k.set_arg(0, ArgValue::BufferMut(big)).unwrap();
        let q_gpu = ctx.create_queue(DeviceId(1)).unwrap();
        let err = q_gpu.enqueue_ndrange(&k, NdRange::d1(16, 1), &[]);
        assert!(matches!(err, Err(ClError::MemObjectAllocationFailure(_))));
    }
}
