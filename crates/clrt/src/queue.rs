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
//! command chaining. On every queue a command is ordered after explicit
//! event wait lists, [`CommandQueue::enqueue_barrier`] and — unlike OpenCL,
//! which leaves data hazards between unordered commands to the application
//! — the RAW / WAR / WAW predecessors of the buffers it touches, whichever
//! queue issued them, in both planes; an in-order queue's previous command
//! is one more predecessor. Independent commands of an out-of-order queue
//! may overlap in virtual time (e.g. one kernel's input migration running
//! while an earlier kernel still executes) and in wall-clock time;
//! dependent commands never do, on any queue.
//!
//! Every enqueue operation:
//! 1. validates arguments (context membership, sizes, capacities),
//! 2. inserts the implicit data movement the command needs (buffer
//!    residency → H2D / D2H / staged D2D), charging virtual time,
//! 3. states the buffers the command touches, once ([`Access`]), and
//!    consults their frontiers once, under the engine lock, for both planes
//!    (`consult`): the command goes to the hwsim engine (time plane) after
//!    the predecessor that ends latest, and its host-side effect (kernel
//!    body, store copy) is linked as a task of the data-plane executor
//!    ([`crate::exec`]) after every live predecessor task, and
//! 4. once the locks are dropped, runs that task on the enqueueing thread
//!    when nothing blocks it and it is lighter than a hand-off, and on the
//!    worker pool otherwise.
//!
//! How each command is recorded in the frontiers, and whether it has a
//! task, is `Stamp`'s table (below, and DESIGN.md §11).

use crate::buffer::{bytes_of, Buffer, Element, Source};
use crate::context::Context;
use crate::error::{ClError, ClResult};
use crate::event::Event;
use crate::exec::{DataPlane, Link, TaskId, Work};
use crate::hazard::{Access, Command};
use crate::kernel::{BoundArgs, Kernel, KernelCtx};
use crate::ndrange::NdRange;
use crate::platform::next_object_id;
use hwsim::engine::{CommandDesc, CommandKind, Engine, EventId};
use hwsim::sync::Mutex;
use hwsim::topology::TransferKind;
use hwsim::{CommandStatus, DeviceId, SimDuration, WaitList};
use std::slice;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a command is recorded in the frontiers of the buffers it touches —
/// one rule per command, for both planes — and whether it has a
/// data-plane task:
///
/// | command                         | frontier                | task                                |
/// |---------------------------------|-------------------------|-------------------------------------|
/// | write, read, copy, whole launch | as stated               | yes (a self-copy's runs nothing)    |
/// | chunk of a split launch         | reader                  | yes, after its previous sibling's   |
/// | split gather, migration         | as stated (a read)      | none                                |
/// | D2H leg of a staged migration   | consulted, not recorded | none                                |
/// | split join                      | writer                  | runs nothing, after the chunks'     |
/// | split start, barrier            | consulted, not recorded | runs nothing, after what it found   |
/// | `enqueue_write_host`            | the writer's task half  | yes, and no event                   |
///
/// The split rows are [`CommandQueue::enqueue_ndrange_split`]'s. Sibling
/// chunks write disjoint sub-ranges, so they are mutually unordered
/// readers, and the join stands for the whole split's write: later
/// consumers order after every chunk. Chunks that write one store would
/// take its lock in turn anyway, so each follows its previous sibling. The
/// start marker's task follows what its consult found, so the chunks still
/// follow the readers a write must (WAR). What follows a staged migration's
/// second leg follows its first. A command with no task leaves the data
/// plane to the writer it read. `enqueue_write_host`, the one task with no
/// event, replaces the writer's task half alone: the time plane never sees
/// it.
#[derive(Clone, Copy, PartialEq)]
enum Stamp {
    AsStated,
    Reader,
    Writer,
    Unrecorded,
    HostWrite,
}

impl Stamp {
    fn writes(self, touch: &Access) -> bool {
        match self {
            Stamp::AsStated | Stamp::Unrecorded => touch.write,
            Stamp::Reader => false,
            Stamp::Writer | Stamp::HostWrite => true,
        }
    }
}

/// Readers a buffer's frontier holds before the ones that order nothing any
/// more are pruned.
const READERS_PRUNE: usize = 64;

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
    /// The queue's last command, written under the engine lock: `event`, of
    /// every command submitted here, the one that ends last (in order, the
    /// last one, which the next chains behind; `finish`, a barrier and a
    /// mode switch wait on it alone), and `task`, the last one that has a
    /// task — a migration or gather moves `event` alone.
    last: Mutex<Command>,
    /// Live data-plane tasks `finish` must join.
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
                last: Mutex::new(Command::default()),
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
    /// Only an idle queue can change mode — its [`Self::last_command`], the
    /// command that ends last, has completed in virtual time, e.g. after
    /// [`Self::finish`]: an in-order command chains behind the *last*
    /// command and its own buffers' hazards, which orders it after nothing
    /// else an out-of-order predecessor still has in flight. Setting the
    /// mode the queue already has always succeeds.
    pub fn set_out_of_order(&self, ooo: bool) -> ClResult<()> {
        if self.is_out_of_order() == ooo {
            return Ok(());
        }
        let engine = self.inner.ctx.rt.engine.lock();
        if self.inner.last.lock().event.is_some_and(|e| !engine.event_completed(e)) {
            return Err(ClError::InvalidOperation(format!(
                "cannot switch the ordering mode of queue {} with a command in flight",
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

    /// The engine event of the command submitted here that ends last, if
    /// any. In order it is the last one submitted, which the next command
    /// waits behind; out of order it is what `finish` waits for and a
    /// barrier starts after.
    pub fn last_command(&self) -> Option<EventId> {
        self.inner.last.lock().event
    }

    /// The data-plane executor shared by the runtime.
    fn plane(&self) -> &Arc<DataPlane> {
        &self.inner.ctx.rt.plane
    }

    /// Run or queue a linked task's body ([`Link::dispatch`]), keeping it
    /// as a `finish` obligation if it is live on return and pruning
    /// completed ids once the list grows. Returns the task's id.
    fn dispatch(
        &self,
        link: Link<'_>,
        work: u64,
        run: impl FnOnce() -> Duration,
        owned: impl FnOnce() -> Work,
    ) -> TaskId {
        let id = link.id();
        if link.dispatch(work, run, owned).is_some() {
            let mut live = self.inner.outstanding_tasks.lock();
            live.push(id);
            if live.len() >= 128 {
                self.plane().retain_live(&mut live);
            }
        }
        id
    }

    /// Consult and record → submit: one command on `device` that touches
    /// `touches` (recorded as `stamp` says) and waits on `waits`, traced
    /// under `queue` (this queue's id, or on a split lane the issuing
    /// queue's), with task `link` if it has one. The predecessor that ends
    /// latest joins `waits` only if it ends after every wait there: the
    /// engine reads a wait list through its latest end alone, so this is
    /// exact and the list stays inline for up to four explicit waits.
    #[allow(clippy::too_many_arguments)]
    fn submit(
        &self,
        engine: &mut Engine,
        queue: usize,
        device: DeviceId,
        kind: CommandKind,
        duration: SimDuration,
        mut waits: WaitList,
        touches: &[Access],
        stamp: Stamp,
        link: Option<&mut Link<'_>>,
    ) -> EventId {
        let id = engine.next_event();
        let latest = self.consult(engine, touches, stamp, Some(id), link);
        let end = |e: &EventId| engine.stamp(*e).end;
        if latest.is_some_and(|l| waits.iter().all(|w| end(w) < end(&l))) {
            waits.extend(latest);
        }
        let submitted = engine.submit(CommandDesc { device, kind, duration, waits, queue });
        debug_assert_eq!(submitted, id, "the engine numbers events in submission order");
        let mut last = self.inner.last.lock();
        if last.event.is_none_or(|l| engine.stamp(l).end <= engine.stamp(id).end) {
            last.event = Some(id);
        }
        id
    }

    /// The one consult of both planes, under the engine lock, of a command
    /// backing `event` that touches `touches`: the RAW / WAR / WAW
    /// predecessors in the buffers' frontiers, and an in-order queue's last
    /// command. The time plane's is the one that ends latest, returned; the
    /// data plane's are the live tasks, linked to `link`'s. The command is
    /// recorded under the same locks (a self-copy's write skips its read).
    /// A reader whose event has ended at the host clock and whose task is
    /// not live orders nothing: pruned, it moves no stamp, since every later
    /// command is ready at or after the host clock.
    fn consult(
        &self,
        engine: &Engine,
        touches: &[Access],
        stamp: Stamp,
        event: Option<EventId>,
        mut link: Option<&mut Link<'_>>,
    ) -> Option<EventId> {
        let me = Command { event, task: link.as_ref().map(|l| l.id()) };
        let mut last = self.inner.last.lock();
        let chain = Some(*last).filter(|_| !self.is_out_of_order());
        last.task = me.task.or(last.task);
        drop(last);
        let (mut latest, end) = (None, |e: &EventId| engine.stamp(*e).end);
        let mut follow = |p: Command, link: &mut Option<&mut Link<'_>>| {
            latest = latest.into_iter().chain(p.event).max_by_key(end);
            if let (Some(l), Some(t)) = (link.as_deref_mut(), p.task) {
                l.after(t);
            }
        };
        chain.into_iter().for_each(|p| follow(p, &mut link));
        for t in touches {
            let write = stamp.writes(t);
            let mut f = t.buf.inner.frontier.lock();
            f.predecessors(write).filter(|&p| p != me).for_each(|p| follow(p, &mut link));
            match stamp {
                Stamp::Unrecorded => {}
                Stamp::HostWrite => {
                    f.rewrite_writer(|w| Command { event: w.and_then(|w| w.event), ..me })
                }
                _ => f.record(me, write),
            }
            if f.reader_count() >= READERS_PRUNE {
                // Without the executor locked, a task counts as live.
                let live = |t: TaskId| link.as_deref().is_none_or(|l| l.is_live(t));
                f.prune_readers(|c| {
                    !c.event.is_none_or(|e| engine.event_completed(e)) || c.task.is_some_and(live)
                });
            }
        }
        latest
    }

    /// Insert the transfers needed to make `buf` valid on `dev`, updating
    /// residency, recorded under the trace id `queue` ([`Self::submit`]).
    /// Returns the final transfer event, if any movement happened.
    ///
    /// A migration is a *read* of the buffer's contents in the time plane
    /// (the contents must be final before they move, and later writers
    /// order after the move) and has no data-plane task: the canonical
    /// store is the host's.
    fn migrate_to(
        &self,
        engine: &mut Engine,
        queue: usize,
        buf: &Buffer,
        dev: DeviceId,
    ) -> Option<EventId> {
        let node = &self.inner.ctx.rt.node;
        let mut res = buf.inner.residency.lock();
        // Never stage from a lost device: its copy engine is gone, and a
        // D2H issued there would fail instantly (corrupting the staged
        // timeline) while leaving the stale residency entry in place.
        let source = res.source(dev, false, |d| engine.device_lost(d));
        if source == Source::Valid {
            return None;
        }
        // Evacuated copies are purged; after the move the host copy is
        // valid, staged or the fallback source.
        if !res.host {
            res.devices.retain(|d| !engine.device_lost(*d));
        }
        res.host = true;
        let touches = [Access::read(buf)];
        let bytes = buf.byte_len() as u64;
        // A leg to or from `on`: a read of the contents.
        let leg = |engine: &mut Engine, on, kind, waits, stamp| {
            let d = node.topology.host_transfer_time(on, bytes, &node.devices);
            let kind = CommandKind::Transfer { kind, bytes };
            self.submit(engine, queue, on, kind, d, waits, &touches, stamp, None)
        };
        let waits = match source {
            Source::Owner(owner) => {
                let d2h = TransferKind::DeviceToHost;
                WaitList::one(leg(engine, owner, d2h, WaitList::new(), Stamp::Unrecorded))
            }
            _ => WaitList::new(),
        };
        let ev = leg(engine, dev, TransferKind::HostToDevice, waits, Stamp::AsStated);
        res.devices.insert(dev);
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
    /// a staging copy of the user's host array, exactly as in OpenCL. A
    /// caller that does not yet know where the buffer will be read writes
    /// it with [`Self::enqueue_write_host`] instead.
    pub fn enqueue_write<T: Element>(&self, buf: &Buffer, data: &[T]) -> ClResult<Event> {
        self.check_write(buf, data)?;
        let dev = self.device();
        let node = &self.inner.ctx.rt.node;
        let bytes = buf.byte_len() as u64;
        let duration = node.topology.host_transfer_time(dev, bytes, &node.devices);
        // The upload overwrites the contents.
        let touches = [Access::write(buf)];
        let mut engine = self.inner.ctx.rt.engine.lock();
        let mut link = self.plane().link();
        let ev = self.submit(
            &mut engine,
            self.inner.qid,
            dev,
            CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes },
            duration,
            WaitList::new(),
            &touches,
            Stamp::AsStated,
            Some(&mut link),
        );
        drop(engine);
        let task = self.write_store(link, buf, data);
        buf.inner.residency.lock().written_on(dev);
        Ok(Event::new(Arc::clone(&self.inner.ctx.rt), ev, Some(task)))
    }

    /// A write that stays on the host: the store takes `data` exactly as
    /// [`Self::enqueue_write`] would, but no H2D is charged and the buffer
    /// is left valid on the host only — the residency a renewed buffer has.
    /// The first command that reads it on a device stages it there, as any
    /// host-valid buffer is staged.
    pub fn enqueue_write_host<T: Element>(&self, buf: &Buffer, data: &[T]) -> ClResult<()> {
        self.check_write(buf, data)?;
        let engine = self.inner.ctx.rt.engine.lock();
        let mut link = self.plane().link();
        self.consult(&engine, &[Access::write(buf)], Stamp::HostWrite, None, Some(&mut link));
        drop(engine);
        self.write_store(link, buf, data);
        buf.mark_host_only();
        Ok(())
    }

    fn check_write<T: Element>(&self, buf: &Buffer, data: &[T]) -> ClResult<()> {
        self.check_buffer(buf)?;
        let expected = buf.len::<T>();
        if data.len() != expected {
            return Err(ClError::InvalidValue(format!(
                "enqueue_write length mismatch: buffer holds {expected} elements, got {}",
                data.len()
            )));
        }
        Ok(())
    }

    /// A write's data-plane half, the linked task `link`: the store update
    /// is a hazard-tracked task. A queued write must stage the user's slice
    /// (the call may return before a worker runs the copy, and OpenCL does
    /// not retain the host pointer) — a memcpy of the whole payload on this
    /// thread — so an unblocked write of any size is cheaper copied straight
    /// into the store: it declares no work.
    fn write_store<T: Element>(&self, link: Link<'_>, buf: &Buffer, data: &[T]) -> TaskId {
        self.dispatch(
            link,
            0,
            || {
                buf.inner.store.write().as_mut_slice::<T>().copy_from_slice(data);
                Duration::ZERO
            },
            || Work::Write(buf.clone(), bytes_of(data).into()),
        )
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
        // Data plane: the host copy-out is a *manual* task, registered by the
        // download's consult, so its RAW edge on the buffer's last writer is
        // captured in enqueue order and later writers gain a WAR edge on the
        // read.
        let touches = [Access::read(buf)];
        let mut engine = self.inner.ctx.rt.engine.lock();
        let mig = self.migrate_to(&mut engine, self.inner.qid, buf, dev);
        let node = &self.inner.ctx.rt.node;
        let duration = node.topology.host_transfer_time(dev, bytes, &node.devices);
        let mut link = self.plane().link();
        let ev = self.submit(
            &mut engine,
            self.inner.qid,
            dev,
            CommandKind::Transfer { kind: TransferKind::DeviceToHost, bytes },
            duration,
            mig.into_iter().collect(),
            &touches,
            Stamp::AsStated,
            Some(&mut link),
        );
        let task = link.id();
        let bracket = link.manual();
        engine.wait(ev);
        drop(engine);
        buf.inner.residency.lock().host = true;
        bracket.wait_ready();
        out.copy_from_slice(buf.inner.store.read().as_slice::<T>());
        drop(bracket); // completes the manual task, releasing blocked writers
        Ok(Event::new(Arc::clone(&self.inner.ctx.rt), ev, Some(task)))
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
        // Data plane: copy the canonical stores. A self-copy moves nothing;
        // its task stands in the frontier for the write it records.
        let moves = !src.same_object(dst);
        let mut engine = self.inner.ctx.rt.engine.lock();
        let mig = self.migrate_to(&mut engine, self.inner.qid, src, dev);
        let node = &self.inner.ctx.rt.node;
        let duration = node.topology.device_transfer_time(dev, dev, bytes, &node.devices);
        let mut link = self.plane().link();
        let ev = self.submit(
            &mut engine,
            self.inner.qid,
            dev,
            CommandKind::Transfer { kind: TransferKind::DeviceToDevice, bytes },
            duration,
            mig.into_iter().collect(),
            &touches,
            Stamp::AsStated,
            Some(&mut link),
        );
        drop(engine);
        let task = self.dispatch(
            link,
            if moves { bytes } else { 0 },
            || {
                if moves {
                    src.copy_store_into(dst);
                }
                Duration::ZERO
            },
            || if moves { Work::Copy(src.clone(), dst.clone()) } else { Work::Nop },
        );
        dst.inner.residency.lock().written_on(dev);
        Ok(Event::new(Arc::clone(&self.inner.ctx.rt), ev, Some(task)))
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
        self.validate_launch(kernel, args)?;
        nd.validate()?;
        let dev = self.device();
        let effective = kernel.effective_nd(dev, nd);
        effective.validate()?;
        self.check_capacity(kernel, args)?;
        let (ev, task) = self.launch(kernel, dev, effective, None, args, waits);
        Ok(Event::new(Arc::clone(&self.inner.ctx.rt), ev, Some(task)))
    }

    /// Co-execute one splittable launch on several devices: `nd` cut along
    /// [`NdRange::split_axis`] into contiguous sub-ranges, one per chunk in
    /// range order. A chunk names its *lane* — an in-order queue of this
    /// context, bound to the chunk's device — and its workgroup count along the
    /// axis; the counts are non-zero and sum to the launch's. Bad input is a
    /// typed error, found before anything is issued on either plane.
    ///
    /// Issued in order: a start marker here (after the tail of this queue's
    /// prior work and the launch's hazard predecessors); per chunk, the
    /// sub-range launch on its lane, a *reader* after the marker (a
    /// per-device configuration lends it only its workgroup shape), then a
    /// share-sized D2H gather per written buffer; and the join here, after
    /// every gather: each written buffer's writer, valid on the host alone.
    /// Returns the join's event. Every command the call issues is recorded
    /// under this queue's trace id, the lanes' included (chunks, their input
    /// migrations, gathers): the trace's queue is the logical queue, while
    /// the lanes still chain the commands per device. When a chunk or gather
    /// fails, the join completes failed on this queue with the kind of the
    /// first that did (OpenCL's error-for-events-in-wait-list status), so
    /// whoever watches this queue sees the failure.
    pub fn enqueue_ndrange_split(
        &self,
        kernel: &Kernel,
        nd: NdRange,
        args: &BoundArgs,
        chunks: &[(CommandQueue, u64)],
    ) -> ClResult<Event> {
        self.validate_launch(kernel, args)?;
        nd.validate()?;
        let name = kernel.name();
        if !kernel.splittable() {
            return Err(ClError::InvalidOperation(format!("kernel `{name}` is not splittable")));
        }
        let axis = nd.split_axis().ok_or_else(|| {
            ClError::InvalidWorkGroupSize(format!("kernel `{name}`: {nd:?} has no split axis"))
        })?;
        let units = nd.global[axis].div_ceil(nd.local[axis]);
        let sum = chunks.iter().try_fold(0u64, |sum, c| sum.checked_add(c.1).filter(|_| c.1 > 0));
        if sum != Some(units) {
            let shares: Vec<u64> = chunks.iter().map(|c| c.1).collect();
            return Err(ClError::InvalidValue(format!(
                "kernel `{name}`: split shares {shares:?} must be non-zero and sum to {units}"
            )));
        }
        let mut plan = Vec::with_capacity(chunks.len());
        let mut wg_offset = 0;
        for (lane, wgs) in chunks {
            if lane.is_out_of_order() {
                return Err(ClError::InvalidOperation("a split lane is out of order".into()));
            }
            lane.validate_launch(kernel, args)?;
            lane.check_capacity(kernel, args)?;
            let dev = lane.device();
            let mut offset = [0u64; 3];
            offset[axis] = wg_offset * nd.local[axis];
            let mut sub = nd;
            sub.global[axis] =
                wgs.saturating_mul(nd.local[axis]).min(nd.global[axis] - offset[axis]);
            let effective = NdRange::d3(sub.global, kernel.effective_nd(dev, sub).local);
            effective.validate()?;
            plan.push((lane, dev, effective, offset, *wgs));
            wg_offset += wgs;
        }
        // Written buffers, stated as the join's data-plane task sees them.
        let written: Vec<Access> =
            args.touched().iter().filter(|t| t.write).map(|t| Access::read(&t.buf)).collect();
        let start = self.barrier_after(args.touched());
        let node = &self.inner.ctx.rt.node;
        let mut gathers = WaitList::new();
        // Every chunk and gather, in issue order: the join fails with the
        // first of them that failed, and its data-plane task waits on the
        // chunks' tasks, so `finish` and a wait on the join see their bodies
        // run even when the launch writes nothing.
        let mut issued: Vec<(EventId, Option<TaskId>)> =
            Vec::with_capacity(plan.len() * (written.len() + 1));
        let mut sibling = None;
        for &(lane, dev, effective, offset, wgs) in &plan {
            // Chunks writing one store would hold its lock in turn anyway:
            // each waits for its sibling instead of blocking a worker.
            let at = (self.inner.qid, offset, sibling.filter(|_| !written.is_empty()));
            let (chunk, task) =
                lane.launch(kernel, dev, effective, Some(at), args, slice::from_ref(&start));
            sibling = Some(task);
            issued.push((chunk, sibling));
            if written.is_empty() {
                gathers.push(chunk);
            }
            for w in &written {
                let bytes = (w.buf.byte_len() as u64 * wgs / units).max(1);
                let gather = lane.submit(
                    &mut self.inner.ctx.rt.engine.lock(),
                    self.inner.qid,
                    dev,
                    CommandKind::Transfer { kind: TransferKind::DeviceToHost, bytes },
                    node.topology.host_transfer_time(dev, bytes, &node.devices),
                    WaitList::one(chunk),
                    slice::from_ref(w),
                    Stamp::AsStated,
                    None,
                );
                gathers.push(gather);
                issued.push((gather, None));
            }
        }
        let mut engine = self.inner.ctx.rt.engine.lock();
        let failed = issued.iter().find_map(|&(e, _)| match engine.event_status(e) {
            CommandStatus::Failed(kind) => Some(kind),
            CommandStatus::Complete => None,
        });
        let dev = self.device();
        let mut link = self.plane().link();
        issued.iter().filter_map(|i| i.1).for_each(|t| link.after(t));
        let join = self.submit(
            &mut engine,
            self.inner.qid,
            dev,
            CommandKind::Marker,
            SimDuration::ZERO,
            gathers,
            &written,
            Stamp::Writer,
            Some(&mut link),
        );
        if let Some(kind) = failed {
            engine.fail_dependent(join, dev, self.inner.qid, kind);
        }
        drop(engine);
        for w in &written {
            w.buf.mark_host_only();
        }
        let task = self.dispatch(link, 0, || Duration::ZERO, || Work::Nop);
        Ok(Event::new(Arc::clone(&self.inner.ctx.rt), join, Some(task)))
    }

    /// The one kernel-launch body, after validation: `kernel` over
    /// `effective` on `dev`, after `waits`, to both planes; returns its event
    /// and task. `chunk` is `None` for a whole launch; a chunk of
    /// [`Self::enqueue_ndrange_split`] names the issuing queue's trace id, its
    /// sub-range's global offset and the sibling task it follows, if any,
    /// stamps as a reader and leaves residency to the split's join.
    fn launch(
        &self,
        kernel: &Kernel,
        dev: DeviceId,
        effective: NdRange,
        chunk: Option<(usize, [u64; 3], Option<TaskId>)>,
        args: &BoundArgs,
        waits: &[Event],
    ) -> (EventId, TaskId) {
        let whole = chunk.is_none();
        let (queue, global_offset, after) = chunk.unwrap_or((self.inner.qid, [0; 3], None));
        let spec = self.inner.ctx.rt.node.spec(dev);
        let cost = kernel.cost();
        let duration = cost.kernel_time(spec, effective.shape());
        // The body's nominal work: what the cost model charges per item —
        // compute or traffic, whichever dominates — over the launch.
        let work = effective.global_items() as f64 * cost.flops_per_item.max(cost.bytes_per_item);
        // What the launch touches, for both planes.
        let touches = args.touched();
        let mut engine = self.inner.ctx.rt.engine.lock();
        let mut chain: WaitList = waits.iter().map(Event::raw).collect();
        // In first-touch order: the migrations' stamps depend on it.
        for t in touches {
            chain.extend(self.migrate_to(&mut engine, queue, &t.buf, dev));
        }
        // Explicit event waits order the task after the tasks backing
        // those events.
        let mut link = self.plane().link();
        waits.iter().filter_map(|e| e.task).for_each(|t| link.after(t));
        after.into_iter().for_each(|t| link.after(t));
        let ev = self.submit(
            &mut engine,
            queue,
            dev,
            CommandKind::Kernel { name: kernel.shared_name() },
            duration,
            chain,
            touches,
            if whole { Stamp::AsStated } else { Stamp::Reader },
            Some(&mut link),
        );
        drop(engine);
        // Data plane: run the body exactly once, outside the engine lock.
        let task = self.dispatch(
            link,
            work as u64,
            || KernelCtx::with_offset(effective, dev, global_offset, args).run(&**kernel.body()),
            || Work::Launch(Arc::clone(kernel.body()), args.clone(), effective, dev, global_offset),
        );
        // Residency: written buffers are now valid only on this device.
        if whole {
            for t in touches.iter().filter(|t| t.write) {
                t.buf.inner.residency.lock().written_on(dev);
            }
        }
        (ev, task)
    }

    /// `clEnqueueBarrierWithWaitList` (empty list; also `clEnqueueMarker`): a
    /// zero-duration command ordered after every previously enqueued
    /// command — in the time plane it waits on [`Self::last_command`], the
    /// one that ends last; subsequent commands on an out-of-order queue are
    /// ordered after it.
    pub fn enqueue_barrier(&self) -> Event {
        self.barrier_after(&[])
    }

    /// The one barrier body: a marker after the command on this queue that
    /// ends last and after the time-plane hazard predecessors of a command
    /// touching `touches` — consulted, never recorded: the marker touches
    /// nothing itself.
    fn barrier_after(&self, touches: &[Access]) -> Event {
        // Data plane: a no-op task ordered after everything outstanding on
        // this queue and what the consult finds. Subsequent commands chain
        // after it (in-order) or wait on its event explicitly
        // (out-of-order), mirroring the time plane. The list is taken before
        // the executor is locked: `dispatch` asks the executor with the list
        // locked.
        let deps: Vec<TaskId> = std::mem::take(&mut *self.inner.outstanding_tasks.lock());
        let mut engine = self.inner.ctx.rt.engine.lock();
        let waits = WaitList::from_iter(self.inner.last.lock().event);
        let mut link = self.plane().link();
        deps.iter().for_each(|&t| link.after(t));
        let id = self.submit(
            &mut engine,
            self.inner.qid,
            self.device(),
            CommandKind::Marker,
            SimDuration::ZERO,
            waits,
            touches,
            Stamp::Unrecorded,
            Some(&mut link),
        );
        drop(engine);
        let task = self.dispatch(link, 0, || Duration::ZERO, || Work::Nop);
        Event::new(Arc::clone(&self.inner.ctx.rt), id, Some(task))
    }

    /// `clFinish`: block the host until every command enqueued on this queue
    /// has completed, in both planes: the virtual clock advances to the end
    /// of [`Self::last_command`], the command that ends last, and every
    /// data-plane task this queue submitted (plus, transitively, everything
    /// those tasks depend on) has executed.
    pub fn finish(&self) {
        let last = self.inner.last.lock().event;
        if let Some(id) = last {
            self.inner.ctx.rt.engine.lock().wait(id);
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
    use crate::{Platform, RuntimeConfig};
    use hwsim::{KernelCostSpec, SimTime};

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

    /// Adds 1 to the elements its sub-range owns: safe to split.
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
            let base = ctx.global_offset()[0] as usize;
            let n = ctx.nd().global[0] as usize;
            for v in &mut ctx.slice_mut::<f64>(0)[base..base + n] {
                *v += 1.0;
            }
        }
        fn splittable(&self) -> bool {
            true
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
    fn a_host_write_issues_nothing_and_the_kernel_stages_it() {
        let (p, ctx, k, b) = setup();
        let q = ctx.create_queue(DeviceId(1)).unwrap();
        q.enqueue_write(&b, &vec![1.0f64; 1024]).unwrap();
        q.finish();
        // Over a copy on GPU 1: the store takes the data, no command runs,
        // and the host holds the only valid copy.
        q.enqueue_write_host(&b, &vec![3.0f64; 1024]).unwrap();
        assert_eq!(p.trace_snapshot().transfers_where(|_| true), 1);
        let res = b.residency();
        assert!(res.host && res.devices.is_empty(), "{res:?}");
        assert!(q.enqueue_write_host(&b, &[1.0f64; 7]).is_err());
        // The kernel on GPU 2 stages it with one H2D, no D2H.
        let q2 = ctx.create_queue(DeviceId(2)).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        q2.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        q2.finish();
        let trace = p.trace_snapshot();
        let h2d_on_2 = trace.transfers_where(|r| {
            r.device == DeviceId(2)
                && matches!(r.kind, CommandKind::Transfer { kind: TransferKind::HostToDevice, .. })
        });
        assert_eq!((trace.transfers_where(|_| true), h2d_on_2), (2, 1));
        assert_eq!(b.host_snapshot::<f64>(), vec![6.0f64; 1024]);
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
    fn barrier_completes_after_preceding_commands() {
        let (_p, ctx, _k, b) = setup();
        let q = ctx.create_queue(DeviceId(1)).unwrap();
        let w = q.enqueue_write(&b, &vec![0.0f64; 1024]).unwrap();
        let m = q.enqueue_barrier();
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
    fn an_in_order_queue_moves_a_buffer_after_another_queues_writer_ends() {
        let (p, ctx, k, x) = setup();
        // Queue A writes `x` on GPU 1 with a long kernel.
        let a = ctx.create_queue(DeviceId(1)).unwrap();
        a.enqueue_write(&x, &vec![1.0f64; 1024]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(x.clone())).unwrap();
        let writer = a.enqueue_ndrange(&k, NdRange::d1(1 << 20, 128), &[]).unwrap();
        // Queue B, in order on GPU 2, runs a kernel on it next: x stages
        // through the host.
        let b = ctx.create_queue(DeviceId(2)).unwrap();
        b.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        a.finish();
        b.finish();
        let trace = p.trace_snapshot();
        let d2h = |r: &&hwsim::trace::TraceRecord| {
            matches!(r.kind, CommandKind::Transfer { kind: TransferKind::DeviceToHost, .. })
        };
        let download = trace.records.iter().find(d2h).expect("x leaves GPU 1");
        // The download reads what A's kernel writes: it starts after it ends.
        assert!(
            download.stamp.start >= writer.stamp().end,
            "download {:?} overlaps the writer {:?}",
            download.stamp,
            writer.stamp()
        );
    }

    #[test]
    fn a_self_copy_waits_on_another_queues_writer_on_either_queue_kind() {
        for ooo in [false, true] {
            let (_p, ctx, k, x) = setup();
            let a = ctx.create_queue(DeviceId(1)).unwrap();
            a.enqueue_write(&x, &vec![1.0f64; 1024]).unwrap();
            k.set_arg(0, ArgValue::BufferMut(x.clone())).unwrap();
            let writer = a.enqueue_ndrange(&k, NdRange::d1(1 << 20, 128), &[]).unwrap();
            // A second queue on the same device copies `x` onto itself: no
            // migration orders it, only `x`'s hazards do.
            let b = if ooo {
                ctx.create_queue_ooo(DeviceId(1)).unwrap()
            } else {
                ctx.create_queue(DeviceId(1)).unwrap()
            };
            let copy = b.enqueue_copy(&x, &x).unwrap();
            b.finish();
            assert!(
                copy.stamp().start >= writer.stamp().end,
                "ooo={ooo}: self-copy {:?} overlaps the writer {:?}",
                copy.stamp(),
                writer.stamp()
            );
            let mut out = vec![0.0f64; 1024];
            b.enqueue_read(&x, &mut out).unwrap();
            assert!(out.iter().all(|&v| v == 2.0), "ooo={ooo}: the self-copy changed x");
        }
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
        let write_ev = q.enqueue_write(&a, &vec![1.0f64; 1 << 20]).unwrap();
        let k = prog.create_kernel("scale").unwrap();
        k.set_arg(0, ArgValue::BufferMut(a)).unwrap();
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

    /// An out-of-order queue whose long kernel outlives the short upload
    /// enqueued after it: the queue's one time-plane fact is the kernel, the
    /// command that ends last, not the upload, the last one submitted.
    #[test]
    fn an_out_of_order_queue_waits_for_the_command_that_ends_last() {
        let (p, ctx, k, _) = setup();
        let q = ctx.create_queue_ooo(DeviceId(1)).unwrap();
        let big = ctx.create_buffer_of::<f64>(1 << 20).unwrap();
        q.enqueue_write(&big, &vec![1.0f64; 1 << 20]).unwrap();
        q.finish();
        k.set_arg(0, ArgValue::BufferMut(big)).unwrap();
        let small = ctx.create_buffer_of::<f64>(16).unwrap();
        let round = || {
            let kernel = q.enqueue_ndrange(&k, NdRange::d1(1 << 20, 128), &[]).unwrap();
            let upload = q.enqueue_write(&small, &[0.0f64; 16]).unwrap();
            assert!(upload.stamp().end < kernel.stamp().end, "{upload:?} outlasts {kernel:?}");
            assert_eq!(q.last_command(), Some(kernel.raw()));
            (kernel, upload)
        };
        // `finish` advances the host to the kernel's end.
        let (kernel, _) = round();
        q.finish();
        assert_eq!(p.now(), kernel.stamp().end);
        // With only the kernel in flight, the mode cannot change; a barrier
        // starts after the kernel, and the switch succeeds after `finish`.
        let (kernel, upload) = round();
        upload.wait();
        assert!(!kernel.is_complete());
        let err = q.set_out_of_order(false).unwrap_err();
        assert!(matches!(err, ClError::InvalidOperation(_)), "{err:?}");
        let barrier = q.enqueue_barrier();
        assert!(barrier.stamp().start >= kernel.stamp().end, "{barrier:?} before {kernel:?}");
        assert!(q.set_out_of_order(false).is_err());
        q.finish();
        q.set_out_of_order(false).unwrap();
    }

    /// A renewed buffer is a new buffer of the same length in all but its
    /// id: contents, residency, write version, no access recorded in either
    /// plane — and the same launch on a fresh queue stamps the same.
    #[test]
    fn a_renewed_buffer_equals_a_new_one() {
        // `b`'s state, then the trace of one launch on it on a fresh
        // out-of-order queue on GPU 2, relative to the clock before it.
        let observe = |p: &Platform, ctx: &Context, k: &Kernel, b: &Buffer| {
            let recorded = b.inner.frontier.lock().predecessors(true).count();
            let state = (b.host_snapshot::<f64>(), b.residency(), b.data_version(), recorded);
            let (t0, since) = (p.now(), p.with_engine(|e| e.trace().total_pushed()));
            let q = ctx.create_queue_ooo(DeviceId(2)).unwrap();
            k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
            q.enqueue_ndrange(k, NdRange::d1(1024, 128), &[]).unwrap();
            q.finish();
            let trace = p.with_engine(|e| {
                let records = e.trace().records_since(since).iter();
                records
                    .map(|r| {
                        let at =
                            (r.stamp.start.saturating_since(t0), r.stamp.end.saturating_since(t0));
                        (r.device, r.kind.clone(), at)
                    })
                    .collect::<Vec<_>>()
            });
            (state, trace)
        };
        let (p, ctx, k, b) = setup();
        let new = observe(&p, &ctx, &k, &b);
        let (p, ctx, k, b) = setup();
        // A history on GPU 1 and the host: written, launched on, read back
        // on one queue and launched on again from another.
        let q = ctx.create_queue_ooo(DeviceId(1)).unwrap();
        q.enqueue_write(&b, &vec![3.0f64; 1024]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        q.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        q.enqueue_read(&b, &mut vec![0.0f64; 1024]).unwrap();
        q.finish();
        let other = ctx.create_queue(DeviceId(1)).unwrap();
        other.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        other.finish();
        assert_ne!(observe(&p, &ctx, &k, &b).0, new.0, "the history shows");
        ctx.renew_buffer(&b).unwrap();
        assert_eq!(observe(&p, &ctx, &k, &b), new);
    }

    /// A buffer a live command touches — in virtual time, or on the data
    /// plane alone — is refused, without waiting and without a change; a
    /// buffer of another context is refused too.
    #[test]
    fn a_buffer_in_use_is_not_renewed() {
        let (p, ctx, k, b) = setup();
        let q = ctx.create_queue(DeviceId(1)).unwrap();
        q.enqueue_write(&b, &vec![1.0f64; 1024]).unwrap();
        k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
        q.enqueue_ndrange(&k, NdRange::d1(1024, 128), &[]).unwrap();
        let refused = |what: &str| {
            let state = |b: &Buffer| (b.residency(), b.data_version());
            let before = state(&b);
            let err = ctx.renew_buffer(&b).unwrap_err();
            assert!(matches!(err, ClError::InvalidOperation(_)), "{what}: {err:?}");
            assert_eq!(state(&b), before, "{what}: a refused renew changes nothing");
        };
        refused("the launch has not ended in virtual time");
        q.finish();
        // A reader the data plane alone knows of.
        let read = {
            let link = ctx.rt.plane.link();
            let reader = Command { event: None, task: Some(link.id()) };
            b.inner.frontier.lock().record(reader, false);
            link.manual()
        };
        refused("a data-plane task reads it");
        assert_eq!(b.host_snapshot::<f64>(), vec![2.0; 1024]);
        drop(read);
        let foreign = p.create_context_all().unwrap().renew_buffer(&b).unwrap_err();
        assert!(matches!(foreign, ClError::InvalidMemObject(_)), "{foreign:?}");
        ctx.renew_buffer(&b).unwrap();
        assert_eq!(b.host_snapshot::<f64>(), vec![0.0; 1024]);
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

    /// The split fixture: `bump` (splittable) and `scale` (not), both bound
    /// to one 1024-element buffer, and lanes on both GPUs.
    fn split_setup() -> (Platform, Context, [Kernel; 2], BoundArgs, [CommandQueue; 2]) {
        split_setup_on(Platform::paper_node())
    }

    fn split_setup_on(
        p: Platform,
    ) -> (Platform, Context, [Kernel; 2], BoundArgs, [CommandQueue; 2]) {
        let ctx = p.create_context_all().unwrap();
        let bodies = vec![Arc::new(Bump) as Arc<dyn KernelBody>, Arc::new(Scale(2.0))];
        let prog = ctx.create_program(bodies).unwrap();
        prog.build(0).unwrap();
        let b = ctx.create_buffer_of::<f64>(1024).unwrap();
        let kernels = ["bump", "scale"].map(|name| {
            let k = prog.create_kernel(name).unwrap();
            k.set_arg(0, ArgValue::BufferMut(b.clone())).unwrap();
            k
        });
        let args = kernels[0].snapshot_args().unwrap();
        let lanes = [1, 2].map(|d| ctx.create_queue(DeviceId(d)).unwrap());
        (p, ctx, kernels, args, lanes)
    }

    /// A lane's one time-plane fact is the last command a split put on it,
    /// and the issuing queue's is the split's join, which ends after all.
    #[test]
    fn split_lanes_keep_no_events() {
        let (p, ctx, [bump, _], args, lanes) = split_setup();
        let home = ctx.create_queue(DeviceId(0)).unwrap();
        let chunks = lanes.clone().map(|lane| (lane, 4));
        for _ in 0..1000 {
            home.enqueue_ndrange_split(&bump, NdRange::d1(1024, 128), &args, &chunks).unwrap();
        }
        home.finish();
        let trace = p.trace_snapshot();
        let end = |q: &CommandQueue| p.with_engine(|e| e.stamp(q.last_command().unwrap()).end);
        for lane in &lanes {
            // A chunk and a gather per split: what the list would hold if
            // the call left them there. They are recorded under the home
            // queue's id, on the lane's device.
            let issued = |q: usize| {
                let on_lane = |r: &&hwsim::TraceRecord| r.device == lane.device();
                trace.records.iter().filter(on_lane).filter(|r| r.queue == q).count()
            };
            assert!(
                issued(home.trace_id()) >= 2000,
                "lane took {} commands",
                issued(home.trace_id())
            );
            assert_eq!(issued(lane.trace_id()), 0);
            let on_lane = trace.records.iter().filter(|r| r.device == lane.device());
            let lane_end = on_lane.map(|r| r.stamp.end).max();
            assert_eq!(Some(end(lane)), lane_end);
        }
        assert!(trace.records.iter().all(|r| r.stamp.end <= end(&home)));
        assert_eq!(args.touched()[0].buf.host_snapshot::<f64>(), vec![1000.0; 1024]);
    }

    #[test]
    fn a_split_whose_chunk_fails_completes_failed_on_the_issuing_queue() {
        // GPU1 is lost from the start: its chunk fails, GPU0's does not.
        let lost = RuntimeConfig {
            fault_plan: Some(hwsim::FaultPlan::new(7).lose_device(DeviceId(2), SimTime::ZERO)),
            ..RuntimeConfig::default()
        };
        for (cfg, failed) in
            [(lost, Some(hwsim::FaultKind::DeviceLost)), (RuntimeConfig::default(), None)]
        {
            let p = Platform::with_config(hwsim::NodeConfig::paper_node(), cfg);
            let (p, ctx, [bump, _], args, lanes) = split_setup_on(p);
            let home = ctx.create_queue(DeviceId(0)).unwrap();
            let chunks = lanes.clone().map(|lane| (lane, 4));
            let join = home.enqueue_ndrange_split(&bump, NdRange::d1(1024, 128), &args, &chunks);
            let join = join.unwrap().raw();
            home.finish();
            let (status, log) = p.with_engine(|e| (e.event_status(join), e.failures().to_vec()));
            let on_home: Vec<_> = log.iter().filter(|f| f.queue == home.trace_id()).collect();
            match failed {
                Some(kind) => {
                    assert_eq!(status, CommandStatus::Failed(kind));
                    // The lanes' commands are recorded under the home queue:
                    // the lost lane's failures come first, the join's last.
                    assert_eq!(on_home.len(), log.len(), "{log:?}");
                    let last = on_home.last().expect("a failure");
                    assert_eq!((last.event, last.kind), (join, kind));
                    let lane_failed = |f: &&hwsim::FailureRecord| f.device == lanes[1].device();
                    assert!(on_home[..on_home.len() - 1].iter().any(lane_failed), "{log:?}");
                }
                None => {
                    assert_eq!(status, CommandStatus::Complete);
                    assert!(log.is_empty(), "{log:?}");
                }
            }
        }
    }

    #[test]
    fn a_refused_split_issues_nothing() {
        let (p, ctx, [bump, scale], args, lanes) = split_setup();
        let home = ctx.create_queue_ooo(DeviceId(0)).unwrap();
        home.enqueue_write(&args.touched()[0].buf, &[1.0f64; 1024]).unwrap();
        let foreign = p.create_context_all().unwrap().create_queue(DeviceId(1)).unwrap();
        let ooo_lane = ctx.create_queue_ooo(DeviceId(2)).unwrap();
        let nd = NdRange::d1(1024, 128);
        let two = |a: &CommandQueue, b: &CommandQueue, n: [u64; 2]| {
            vec![(a.clone(), n[0]), (b.clone(), n[1])]
        };
        let cases = [
            (&bump, nd, two(&lanes[0], &foreign, [4, 4]), "CL_INVALID_CONTEXT"),
            (&bump, nd, two(&lanes[0], &ooo_lane, [4, 4]), "CL_INVALID_OPERATION"),
            (&bump, nd, two(&lanes[0], &lanes[1], [4, 3]), "CL_INVALID_VALUE"),
            (&bump, nd, two(&lanes[0], &lanes[1], [8, 0]), "CL_INVALID_VALUE"),
            (
                &bump,
                NdRange::d1(128, 128),
                vec![(lanes[0].clone(), 1)],
                "CL_INVALID_WORK_GROUP_SIZE",
            ),
            (&scale, nd, two(&lanes[0], &lanes[1], [4, 4]), "CL_INVALID_OPERATION"),
        ];
        let records = p.trace_snapshot().records.len();
        let last = home.last_command();
        for (kernel, nd, chunks, code) in cases {
            let err = home.enqueue_ndrange_split(kernel, nd, &args, &chunks).unwrap_err();
            assert_eq!(err.code_name(), code, "{err}");
            assert_eq!(p.trace_snapshot().records.len(), records, "{err}: commands issued");
            assert_eq!(home.last_command(), last, "{err}: the queue's last command changed");
        }
    }
}
