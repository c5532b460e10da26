//! Kernels: real Rust computation bodies plus OpenCL-style argument binding
//! and per-device launch configurations.
//!
//! A [`KernelBody`] is the Rust analogue of an OpenCL kernel function: it
//! declares its cost characteristics (used by the time plane) and implements
//! `execute`, which performs the actual computation against the buffer
//! arguments (the data plane). [`Kernel`] is the `cl_kernel` object: a body
//! plus bound arguments plus — our extension from the paper
//! (`clSetKernelWorkGroupInfo`) — optional per-device launch configurations.

use crate::buffer::{Buffer, DataStore, Element};
use crate::error::{ClError, ClResult};
use crate::hazard::Access;
use crate::ndrange::NdRange;
use crate::platform::next_object_id;
use hwsim::sync::{Mutex, RwLockReadGuard, RwLockWriteGuard};
use hwsim::{DeviceId, KernelCostSpec};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A kernel argument (`clSetKernelArg`).
#[derive(Debug, Clone)]
pub enum ArgValue {
    /// A buffer the kernel only reads.
    Buffer(Buffer),
    /// A buffer the kernel may write. Distinguishing read-only from
    /// read-write arguments lets the runtime keep residency exact: read-only
    /// arguments remain valid on every device that holds them.
    BufferMut(Buffer),
    /// Scalar arguments.
    U64(u64),
    /// 32-bit unsigned scalar.
    U32(u32),
    /// Double scalar.
    F64(f64),
}

impl ArgValue {
    /// The buffer inside this argument, if it is one.
    pub fn buffer(&self) -> Option<&Buffer> {
        match self {
            ArgValue::Buffer(b) | ArgValue::BufferMut(b) => Some(b),
            _ => None,
        }
    }

    /// True for `BufferMut`.
    pub fn is_mutable_buffer(&self) -> bool {
        matches!(self, ArgValue::BufferMut(_))
    }

    /// True if `other` binds what this does: the same buffer object with
    /// the same mutability, or a scalar of the same type with the same bits.
    fn same_binding(&self, other: &ArgValue) -> bool {
        use ArgValue::*;
        match (self, other) {
            (Buffer(a), Buffer(b)) | (BufferMut(a), BufferMut(b)) => a.same_object(b),
            (U64(a), U64(b)) => a == b,
            (U32(a), U32(b)) => a == b,
            (F64(a), F64(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

/// The arguments of one launch as they were bound when it was enqueued
/// ([`Kernel::snapshot_args`]) and, worked out once, here, what every layer
/// that handles the launch asks of them: the buffers it touches. Derefs to
/// the argument values; clones share one allocation.
#[derive(Debug, Clone)]
pub struct BoundArgs {
    inner: Arc<Bound>,
}

#[derive(Debug, Default)]
struct Bound {
    values: Vec<ArgValue>,
    touched: Vec<Access>,
    /// Slots of `touched` in ascending buffer-id order.
    lock_order: Vec<usize>,
    /// Per argument: where its buffer comes in `lock_order`, which is where
    /// a [`KernelCtx`] keeps its locked store (meaningless for a scalar).
    ranks: Vec<usize>,
    /// After scalar rebinds alone, the kernel's snapshot whose `touched`,
    /// `lock_order` and `ranks` this one shares, leaving its own empty.
    base: Option<Arc<Bound>>,
}

impl BoundArgs {
    pub(crate) fn new(values: Vec<ArgValue>) -> BoundArgs {
        let mut touched: Vec<Access> = Vec::new();
        let mut ranks: Vec<usize> = Vec::with_capacity(values.len());
        for v in &values {
            let write = v.is_mutable_buffer();
            ranks.push(v.buffer().map_or(0, |b| {
                match touched.iter().position(|t| t.buf.same_object(b)) {
                    Some(slot) => {
                        touched[slot].write |= write;
                        slot
                    }
                    None => {
                        touched.push(Access { buf: b.clone(), write });
                        touched.len() - 1
                    }
                }
            }));
        }
        let mut lock_order: Vec<usize> = (0..touched.len()).collect();
        lock_order.sort_unstable_by_key(|&slot| touched[slot].buf.id());
        for r in &mut ranks {
            let slot = *r;
            *r = lock_order.iter().position(|&s| s == slot).unwrap_or(0);
        }
        BoundArgs { inner: Arc::new(Bound { values, touched, lock_order, ranks, base: None }) }
    }

    /// The snapshot whose tables the launch's are: itself, or its `base`.
    fn tables(&self) -> &Arc<Bound> {
        self.inner.base.as_ref().unwrap_or(&self.inner)
    }

    /// The distinct buffers the launch touches, in first-touch argument
    /// order — the order their migrations are issued in, so virtual-time
    /// stamps depend on it. A buffer bound more than once appears once, and
    /// as a write if any binding is a [`ArgValue::BufferMut`].
    pub fn touched(&self) -> &[Access] {
        &self.tables().touched
    }

    /// Total bytes of the distinct buffers the launch touches.
    pub fn buffer_bytes(&self) -> u64 {
        self.touched().iter().map(|t| t.buf.byte_len() as u64).sum()
    }

    /// Bytes of the largest buffer the launch touches — what a device must
    /// hold to run it; zero without buffer arguments.
    pub fn max_buffer_bytes(&self) -> u64 {
        self.touched().iter().map(|t| t.buf.byte_len() as u64).max().unwrap_or(0)
    }

    /// The touches in canonical (ascending buffer-id) order.
    fn lock_order(&self) -> impl Iterator<Item = &Access> {
        let tables = self.tables();
        tables.lock_order.iter().map(|&slot| &tables.touched[slot])
    }
}

impl std::ops::Deref for BoundArgs {
    type Target = [ArgValue];
    fn deref(&self) -> &[ArgValue] {
        &self.inner.values
    }
}

/// The computation + cost description of a kernel function.
///
/// `execute` runs exactly once per application launch, against host-backed
/// storage, with geometry available through the [`KernelCtx`], on the
/// data-plane thread that took the launch's task. A body spawns no threads of
/// its own: the data plane is the only source of host threads, and width
/// comes from independent queues and split chunks.
pub trait KernelBody: Send + Sync {
    /// Kernel function name (unique within its program).
    fn name(&self) -> &str;

    /// Number of arguments the kernel expects.
    fn arity(&self) -> usize;

    /// Per-work-item cost description for the time plane.
    fn cost(&self) -> KernelCostSpec;

    /// Perform the computation.
    fn execute(&self, ctx: &mut KernelCtx<'_>);

    /// True if the body tolerates sub-range launches: `execute` must honor
    /// [`KernelCtx::global_offset`] and touch only the output region its
    /// sub-range owns, so disjoint chunks of one logical launch can run on
    /// different devices and be recombined. Defaults to `false`: bodies that
    /// ignore the offset are never split.
    fn splittable(&self) -> bool {
        false
    }
}

struct KernelInner {
    id: u64,
    ctx_id: u64,
    /// `body.name()`, interned once: every launch's trace record and every
    /// scheduler look-up shares it.
    name: Arc<str>,
    body: Arc<dyn KernelBody>,
    args: Mutex<Slots>,
    /// Per-device launch configuration overrides — the paper's
    /// `clSetKernelWorkGroupInfo` extension (§IV-C).
    per_device_nd: Mutex<HashMap<DeviceId, NdRange>>,
}

/// The argument slots and the snapshot last taken of them, under one lock:
/// the snapshot is the slots' values until a `set_arg` replaces one. `tables`
/// is the snapshot whose buffer tables match the slots' buffer bindings,
/// kept until a `set_arg` replaces a buffer binding.
struct Slots {
    values: Vec<Option<ArgValue>>,
    snapshot: Option<BoundArgs>,
    tables: Option<Arc<Bound>>,
}

/// A `cl_kernel`: body + bound arguments. Clones share argument state, like
/// retained OpenCL handles.
#[derive(Clone)]
pub struct Kernel {
    inner: Arc<KernelInner>,
}

impl Kernel {
    pub(crate) fn new(ctx_id: u64, body: Arc<dyn KernelBody>) -> Kernel {
        let arity = body.arity();
        Kernel {
            inner: Arc::new(KernelInner {
                id: next_object_id(),
                ctx_id,
                name: Arc::from(body.name()),
                body,
                args: Mutex::new(Slots { values: vec![None; arity], snapshot: None, tables: None }),
                per_device_nd: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Kernel function name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The interned name, for records that outlive the kernel handle: a
    /// count on the kernel's own name, not a copy.
    pub fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.inner.name)
    }

    /// Unique object id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    pub(crate) fn ctx_id(&self) -> u64 {
        self.inner.ctx_id
    }

    /// The number of arguments the kernel's body takes.
    pub fn arity(&self) -> usize {
        self.inner.body.arity()
    }

    /// The kernel's cost description.
    pub fn cost(&self) -> KernelCostSpec {
        self.inner.body.cost()
    }

    pub(crate) fn body(&self) -> &Arc<dyn KernelBody> {
        &self.inner.body
    }

    /// Bind argument `idx` (`clSetKernelArg`); rebinding its value is a no-op.
    pub fn set_arg(&self, idx: usize, value: ArgValue) -> ClResult<()> {
        let args = &mut *self.inner.args.lock();
        let arity = args.values.len();
        let Some(slot) = args.values.get_mut(idx) else {
            return Err(ClError::InvalidValue(format!(
                "kernel `{}` has {arity} args, index {idx} out of range",
                self.inner.body.name(),
            )));
        };
        if !slot.as_ref().is_some_and(|bound| bound.same_binding(&value)) {
            if value.buffer().is_some() || slot.as_ref().is_none_or(|b| b.buffer().is_some()) {
                args.tables = None;
            }
            *slot = Some(value);
            args.snapshot = None;
        }
        Ok(())
    }

    /// Snapshot the bound arguments, erroring if any is unset
    /// (`CL_INVALID_KERNEL_ARGS`). Scheduler layers use this to capture the
    /// arguments of a buffered launch at enqueue time, so later
    /// `set_arg` calls (for the next launch of the same kernel object)
    /// cannot retroactively change it.
    ///
    /// The kernel keeps the snapshot it builds and hands out clones of it
    /// (one allocation shared) until `set_arg` binds another value: a launch
    /// repeated with unchanged arguments costs a reference count. A snapshot
    /// after scalar rebinds alone shares its buffer tables with the last.
    pub fn snapshot_args(&self) -> ClResult<BoundArgs> {
        let args = &mut *self.inner.args.lock();
        if let Some(snapshot) = &args.snapshot {
            return Ok(snapshot.clone());
        }
        let values = args
            .values
            .iter()
            .enumerate()
            .map(|(i, a)| {
                a.clone().ok_or_else(|| {
                    ClError::InvalidKernelArgs(format!(
                        "kernel `{}`: argument {i} is not set",
                        self.inner.body.name()
                    ))
                })
            })
            .collect::<ClResult<Vec<ArgValue>>>()?;
        let snapshot = match args.tables.take() {
            Some(base) => BoundArgs {
                inner: Arc::new(Bound { values, base: Some(base), ..Bound::default() }),
            },
            None => BoundArgs::new(values),
        };
        args.tables = Some(Arc::clone(snapshot.tables()));
        Ok(args.snapshot.insert(snapshot).clone())
    }

    /// The paper's proposed `clSetKernelWorkGroupInfo`: register a launch
    /// configuration specific to `device`, to be used instead of the
    /// geometry passed to `enqueue_ndrange` whenever the kernel runs there.
    pub fn set_work_group_info(&self, device: DeviceId, nd: NdRange) -> ClResult<()> {
        nd.validate()?;
        self.inner.per_device_nd.lock().insert(device, nd);
        Ok(())
    }

    /// The launch configuration to use on `device`: the per-device override
    /// if one was registered, else `requested`.
    pub fn effective_nd(&self, device: DeviceId, requested: NdRange) -> NdRange {
        self.inner.per_device_nd.lock().get(&device).copied().unwrap_or(requested)
    }

    /// True if a per-device launch configuration is registered for `device`.
    pub fn has_work_group_info(&self, device: DeviceId) -> bool {
        self.inner.per_device_nd.lock().contains_key(&device)
    }

    /// True if the kernel's body declares sub-range launches safe
    /// ([`KernelBody::splittable`]).
    pub fn splittable(&self) -> bool {
        self.inner.body.splittable()
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel(`{}`)", self.inner.body.name())
    }
}

/// Per-buffer borrow state inside a [`KernelCtx`] (RefCell-like dynamic
/// checking; borrows last for the whole kernel execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Borrow {
    None,
    Shared,
    Exclusive,
}

/// A locked buffer plus the raw storage pointer captured while we held its
/// guard — exclusive if the launch may write the buffer, else shared. The
/// guard is kept alive for the context's lifetime, so the pointer remains
/// valid (and exclusive to this context where it may be viewed mutably).
struct LockedStore<'a> {
    _shared: Option<RwLockReadGuard<'a, DataStore>>,
    _exclusive: Option<RwLockWriteGuard<'a, DataStore>>,
    ptr: *mut u64,
    byte_len: usize,
    borrow: Cell<Borrow>,
}

thread_local! {
    /// The store table of the last context this thread dropped, emptied:
    /// the next context here fills it instead of allocating its own.
    static SPARE_STORES: Cell<Vec<LockedStore<'static>>> = const { Cell::new(Vec::new()) };
}

/// Execution context handed to [`KernelBody::execute`]: launch geometry,
/// target device, and typed access to the buffer arguments.
///
/// Buffer access uses dynamic borrow checking: a given buffer may be taken
/// either shared (any number of times) or exclusively (once) during one
/// execution; violations panic, flagging a kernel bug.
pub struct KernelCtx<'a> {
    nd: NdRange,
    device: DeviceId,
    global_offset: [u64; 3],
    args: &'a BoundArgs,
    /// One per distinct buffer, in lock order; the thread's spare table.
    stores: Vec<LockedStore<'a>>,
    /// Device time the body has declared so far.
    device_time: Duration,
}

impl<'a> KernelCtx<'a> {
    /// [`KernelCtx::with_offset`] at offset zero.
    #[cfg(test)]
    pub(crate) fn new(nd: NdRange, device: DeviceId, args: &'a BoundArgs) -> KernelCtx<'a> {
        KernelCtx::with_offset(nd, device, [0, 0, 0], args)
    }

    /// Lock the buffers referenced by `args` (duplicate references share
    /// one lock) and build the context. `global_offset` is
    /// `clEnqueueNDRangeKernel`'s `global_work_offset`, nonzero for a
    /// sub-range launch: splittable bodies add it to their indices.
    ///
    /// Locks are acquired in canonical (buffer-id) order, not argument
    /// order: concurrent data-plane tasks may *read* overlapping buffer
    /// sets, each store locked shared (writers are serialized by the hazard
    /// DAG), and a fixed global lock order keeps store locking deadlock-free.
    pub(crate) fn with_offset(
        nd: NdRange,
        device: DeviceId,
        global_offset: [u64; 3],
        args: &'a BoundArgs,
    ) -> KernelCtx<'a> {
        let mut stores = SPARE_STORES.try_with(Cell::take).unwrap_or_default();
        stores.extend(args.lock_order().map(|t| {
            let (mut _shared, mut _exclusive) = (None, None);
            let (ptr, byte_len) = match t.write {
                true => _exclusive.insert(t.buf.inner.store.write()).raw_parts(),
                false => _shared.insert(t.buf.inner.store.read()).shared_parts(),
            };
            LockedStore { _shared, _exclusive, ptr, byte_len, borrow: Cell::new(Borrow::None) }
        }));
        KernelCtx { nd, device, global_offset, args, stores, device_time: Duration::ZERO }
    }

    /// Run `body` in this context, a launch's data-plane body: the context and
    /// its store locks go with it; the device time it declared is returned.
    pub(crate) fn run(mut self, body: &dyn KernelBody) -> Duration {
        body.execute(&mut self);
        self.device_time
    }

    /// The effective launch geometry of this execution. For a sub-range
    /// launch this is the chunk's own extent, not the full logical range.
    pub fn nd(&self) -> NdRange {
        self.nd
    }

    /// The global work-item offset of this execution — `[0, 0, 0]` for a
    /// whole-kernel launch, the chunk's first work-item per dimension for a
    /// sub-range launch.
    pub fn global_offset(&self) -> [u64; 3] {
        self.global_offset
    }

    /// The device the kernel is (virtually) executing on.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Declare that this execution occupies its device for `time` beyond
    /// the body's own host work (calls add up; a body that never calls this
    /// declares none). The body does not sit through it: it returns, the
    /// buffer locks drop, and the data plane holds the *command* incomplete
    /// — for dependents, `finish`, event waits and blocking reads alike —
    /// until that much wall-clock time has passed since the body returned
    /// (see [`crate::exec`], *Device time*).
    pub fn occupy_device(&mut self, time: Duration) {
        self.device_time += time;
    }

    /// The locked store behind buffer argument `idx`.
    fn store(&self, idx: usize, need_mut: bool) -> &LockedStore<'a> {
        match self.args.get(idx) {
            Some(ArgValue::Buffer(_)) if need_mut => {
                panic!("kernel argument {idx} is read-only (bound with ArgValue::Buffer) but taken mutably");
            }
            Some(ArgValue::Buffer(_) | ArgValue::BufferMut(_)) => {
                &self.stores[self.args.tables().ranks[idx]]
            }
            Some(_) => panic!("kernel argument {idx} is a scalar, not a buffer"),
            None => panic!("kernel argument index {idx} out of range"),
        }
    }

    fn element_count<T: Element>(store: &LockedStore<'_>, idx: usize) -> usize {
        let size = std::mem::size_of::<T>();
        let byte_len = store.byte_len;
        assert!(
            size <= 8 && byte_len.is_multiple_of(size),
            "kernel argument {idx}: buffer length {byte_len} not a multiple of element size {size}"
        );
        byte_len / size
    }

    /// Shared typed view of buffer argument `idx`.
    pub fn slice<T: Element>(&self, idx: usize) -> &[T] {
        let store = self.store(idx, false);
        match store.borrow.get() {
            Borrow::Exclusive => panic!("kernel argument {idx}: buffer already borrowed mutably"),
            _ => store.borrow.set(Borrow::Shared),
        }
        let n = Self::element_count::<T>(store, idx);
        // SAFETY: the lock is held for the lifetime of self, the storage is
        // 8-byte aligned, and the borrow flags guarantee no exclusive view
        // coexists.
        unsafe { std::slice::from_raw_parts(store.ptr.cast::<T>(), n) }
    }

    /// Exclusive typed view of buffer argument `idx`. The argument must have
    /// been bound with [`ArgValue::BufferMut`].
    #[allow(clippy::mut_from_ref)] // dynamic borrow discipline enforced via flags
    pub fn slice_mut<T: Element>(&self, idx: usize) -> &mut [T] {
        let store = self.store(idx, true);
        match store.borrow.get() {
            Borrow::None => store.borrow.set(Borrow::Exclusive),
            Borrow::Shared => panic!("kernel argument {idx}: buffer already borrowed shared"),
            Borrow::Exclusive => panic!("kernel argument {idx}: buffer already borrowed mutably"),
        }
        let n = Self::element_count::<T>(store, idx);
        // SAFETY: as in `slice`; only a `BufferMut` binding gets here, whose
        // touch is a write, so the lock is exclusive; and the flag now records
        // an exclusive borrow, so no other view of this buffer will be handed
        // out.
        unsafe { std::slice::from_raw_parts_mut(store.ptr.cast::<T>(), n) }
    }

    fn scalar(&self, idx: usize) -> &ArgValue {
        match self.args.get(idx) {
            Some(ArgValue::Buffer(_) | ArgValue::BufferMut(_)) => {
                panic!("kernel argument {idx} is a buffer, not a scalar")
            }
            Some(v) => v,
            None => panic!("kernel argument index {idx} out of range"),
        }
    }

    /// Scalar `u64` argument.
    pub fn u64(&self, idx: usize) -> u64 {
        match self.scalar(idx) {
            ArgValue::U64(v) => *v,
            other => panic!("kernel argument {idx}: expected u64, got {other:?}"),
        }
    }

    /// Scalar `u32` argument.
    pub fn u32(&self, idx: usize) -> u32 {
        match self.scalar(idx) {
            ArgValue::U32(v) => *v,
            other => panic!("kernel argument {idx}: expected u32, got {other:?}"),
        }
    }

    /// Scalar `f64` argument.
    pub fn f64(&self, idx: usize) -> f64 {
        match self.scalar(idx) {
            ArgValue::F64(v) => *v,
            other => panic!("kernel argument {idx}: expected f64, got {other:?}"),
        }
    }
}

impl Drop for KernelCtx<'_> {
    /// Unlock the stores, a panicking body's too, and keep the emptied table
    /// for the thread's next context (collected in place, under any lifetime).
    fn drop(&mut self) {
        self.stores.clear();
        let spare = std::mem::take(&mut self.stores).into_iter().map(|_| unreachable!()).collect();
        let _ = SPARE_STORES.try_with(|s| s.set(spare));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{In, Out};
    use hwsim::KernelCostSpec;

    struct Saxpy;
    crate::kernel! {
        impl Saxpy as SaxpyArgs {
            name: "saxpy",
            cost: KernelCostSpec::memory_bound(24.0),
            fn execute(&self, ctx, a: f64, x: In<f64>, y: Out<f64>) {
                let n = ctx.nd().global_items() as usize;
                for i in 0..n {
                    y[i] += a * x[i];
                }
            }
        }
    }

    fn buffers(n: usize) -> (Buffer, Buffer) {
        let x = Buffer::new(1, n * 8).unwrap();
        let y = Buffer::new(1, n * 8).unwrap();
        x.host_fill::<f64>(&vec![2.0; n]).unwrap();
        y.host_fill::<f64>(&vec![1.0; n]).unwrap();
        (x, y)
    }

    #[test]
    fn kernel_executes_against_bound_args() {
        let (x, y) = buffers(8);
        let k = Kernel::new(1, Arc::new(Saxpy));
        k.set_arg(0, ArgValue::F64(3.0)).unwrap();
        k.set_arg(1, ArgValue::Buffer(x)).unwrap();
        k.set_arg(2, ArgValue::BufferMut(y.clone())).unwrap();
        let args = k.snapshot_args().unwrap();
        let mut ctx = KernelCtx::new(NdRange::d1(8, 4), DeviceId(0), &args);
        k.body().execute(&mut ctx);
        drop(ctx);
        assert_eq!(y.host_snapshot::<f64>(), vec![7.0; 8]);
    }

    #[test]
    fn unset_argument_is_reported() {
        let k = Kernel::new(1, Arc::new(Saxpy));
        k.set_arg(0, ArgValue::F64(1.0)).unwrap();
        let err = k.snapshot_args().unwrap_err();
        assert!(matches!(err, ClError::InvalidKernelArgs(_)));
    }

    #[test]
    fn bound_args_say_what_a_launch_touches_once() {
        // Ids ascend with creation: a < b < c.
        let (a, b) = buffers(4);
        let c = Buffer::new(1, 64).unwrap();
        let args = BoundArgs::new(vec![
            ArgValue::Buffer(c.clone()),
            ArgValue::U32(7),
            ArgValue::Buffer(a.clone()),
            ArgValue::BufferMut(c.clone()),
            ArgValue::BufferMut(b.clone()),
            ArgValue::Buffer(b.clone()),
        ]);
        // The values are all there, in argument order.
        assert_eq!(args.len(), 6);
        assert!(args[3].is_mutable_buffer() && args[1].buffer().is_none());
        // One slot per distinct buffer, in first-touch order; a write
        // binding wins whether it comes second (`c`) or first (`b`).
        let touched: Vec<(u64, bool)> =
            args.touched().iter().map(|t| (t.buf.id(), t.write)).collect();
        assert_eq!(touched, [(c.id(), true), (a.id(), false), (b.id(), true)]);
        assert_eq!(args.buffer_bytes(), 32 + 32 + 64);
        assert_eq!(args.max_buffer_bytes(), 64);
        // Stores are locked in ascending buffer id, and duplicate
        // references share the one store of their buffer.
        let order: Vec<u64> = args.lock_order().map(|t| t.buf.id()).collect();
        assert_eq!(order, [a.id(), b.id(), c.id()]);
        for (i, b) in args.iter().enumerate().filter_map(|(i, a)| Some((i, a.buffer()?))) {
            assert_eq!(order[args.inner.ranks[i]], b.id(), "argument {i}");
        }
        // A clone is the same snapshot, not a second one.
        assert!(Arc::ptr_eq(&args.inner, &args.clone().inner));
    }

    #[test]
    fn scalar_only_arguments_touch_nothing() {
        let args = BoundArgs::new(vec![ArgValue::F64(1.0), ArgValue::U64(7)]);
        assert!(args.touched().is_empty());
        assert_eq!((args.buffer_bytes(), args.max_buffer_bytes()), (0, 0));
        assert_eq!(KernelCtx::new(NdRange::d1(1, 1), DeviceId(0), &args).u64(1), 7);
    }

    #[test]
    fn a_snapshot_is_reused_until_set_arg() {
        let (x, y) = buffers(4);
        let k = Kernel::new(1, Arc::new(Saxpy));
        k.set_arg(0, ArgValue::F64(3.0)).unwrap();
        k.set_arg(1, ArgValue::Buffer(x)).unwrap();
        k.set_arg(2, ArgValue::BufferMut(y)).unwrap();
        let first = k.snapshot_args().unwrap();
        assert!(Arc::ptr_eq(&first.inner, &k.snapshot_args().unwrap().inner));
        // A refused binding changes nothing, the cached snapshot included.
        assert!(k.set_arg(3, ArgValue::F64(0.0)).is_err());
        assert!(Arc::ptr_eq(&first.inner, &k.snapshot_args().unwrap().inner));
        // A rebinding makes the next snapshot a new one; the one handed out
        // keeps the values it was taken with.
        k.set_arg(0, ArgValue::F64(5.0)).unwrap();
        let second = k.snapshot_args().unwrap();
        assert!(!Arc::ptr_eq(&first.inner, &second.inner));
        let scalar = |args: &BoundArgs| KernelCtx::new(NdRange::d1(1, 1), DeviceId(0), args).f64(0);
        assert_eq!((scalar(&first), scalar(&second)), (3.0, 5.0));
    }

    #[test]
    fn a_scalar_rebind_shares_the_buffer_tables() {
        let (x, y) = buffers(4);
        let z = Buffer::new(1, 32).unwrap();
        let k = Kernel::new(1, Arc::new(Saxpy));
        SaxpyArgs { a: 3.0, x: &x, y: &y }.bind(&k).unwrap();
        let first = k.snapshot_args().unwrap();
        let tables = |args: &BoundArgs| Arc::clone(args.tables());
        // A new snapshot with the old tables: same buffers, same order.
        SaxpyArgs { a: 5.0, x: &x, y: &y }.bind(&k).unwrap();
        let second = k.snapshot_args().unwrap();
        assert!(!Arc::ptr_eq(&first.inner, &second.inner));
        assert!(Arc::ptr_eq(&tables(&first), &tables(&second)));
        // A buffer rebind builds new tables, even back to the old buffer.
        SaxpyArgs { a: 5.0, x: &z, y: &y }.bind(&k).unwrap();
        let third = k.snapshot_args().unwrap();
        assert!(!Arc::ptr_eq(&tables(&second), &tables(&third)));
        assert_eq!(third.touched()[0].buf.id(), z.id());
        SaxpyArgs { a: 5.0, x: &x, y: &y }.bind(&k).unwrap();
        let fourth = k.snapshot_args().unwrap();
        assert!(!Arc::ptr_eq(&tables(&third), &tables(&fourth)));
        let ids = |args: &BoundArgs| args.touched().iter().map(|t| t.buf.id()).collect::<Vec<_>>();
        assert_eq!(ids(&fourth), ids(&first));
        // So does turning a scalar slot into a buffer one and back.
        k.set_arg(0, ArgValue::Buffer(z.clone())).unwrap();
        let fifth = k.snapshot_args().unwrap();
        assert_eq!(fifth.touched().len(), 3);
        k.set_arg(0, ArgValue::F64(1.0)).unwrap();
        assert_eq!(ids(&k.snapshot_args().unwrap()), ids(&first));
    }

    #[test]
    fn a_context_fills_the_store_table_the_last_one_on_its_thread_left() {
        let (x, y) = buffers(4);
        let args = BoundArgs::new(vec![ArgValue::Buffer(x), ArgValue::BufferMut(y.clone())]);
        let nd = NdRange::d1(4, 4);
        let first = KernelCtx::new(nd, DeviceId(0), &args);
        let table = first.stores.as_ptr();
        first.slice_mut::<f64>(1)[0] = 9.0;
        drop(first);
        // The stores are unlocked, and the next context gets the same table,
        // emptied: its borrows start afresh.
        assert_eq!(y.host_snapshot::<f64>()[0], 9.0);
        let second = KernelCtx::new(nd, DeviceId(0), &args);
        assert_eq!(second.stores.as_ptr(), table);
        assert_eq!(second.stores.len(), 2);
        assert_eq!(second.slice::<f64>(1)[0], 9.0);
    }

    #[test]
    fn binding_the_bound_value_keeps_the_snapshot() {
        let (x, y) = buffers(4);
        let z = Buffer::new(1, 32).unwrap();
        let k = Kernel::new(1, Arc::new(Saxpy));
        k.set_arg(0, ArgValue::F64(3.0)).unwrap();
        k.set_arg(1, ArgValue::Buffer(x.clone())).unwrap();
        k.set_arg(2, ArgValue::BufferMut(y.clone())).unwrap();
        // Whether binding `value` at `idx` kept the snapshot.
        let kept = |idx: usize, value: ArgValue| {
            let before = k.snapshot_args().unwrap();
            k.set_arg(idx, value).unwrap();
            Arc::ptr_eq(&before.inner, &k.snapshot_args().unwrap().inner)
        };
        assert!(kept(0, ArgValue::F64(3.0)));
        assert!(kept(1, ArgValue::Buffer(x.clone())));
        assert!(kept(2, ArgValue::BufferMut(y.clone())));
        // Another buffer, and back.
        assert!(!kept(1, ArgValue::Buffer(z)));
        assert!(!kept(1, ArgValue::Buffer(x)));
        // The same buffer, read-only, and back.
        assert!(!kept(2, ArgValue::Buffer(y.clone())));
        assert!(!kept(2, ArgValue::BufferMut(y)));
        // Scalars compare by type and bits: 0.0 and -0.0 differ, a NaN
        // equals itself, and a `u64` is not an `f64` with the same bits.
        assert!(!kept(0, ArgValue::F64(0.0)));
        assert!(!kept(0, ArgValue::F64(-0.0)));
        assert!(!kept(0, ArgValue::F64(f64::NAN)));
        assert!(kept(0, ArgValue::F64(f64::NAN)));
        assert!(!kept(0, ArgValue::U64(f64::NAN.to_bits())));
        assert!(!kept(0, ArgValue::U64(3)));
        assert!(kept(0, ArgValue::U64(3)));
        assert!(!kept(0, ArgValue::U64(4)));
    }

    #[test]
    fn rebinding_through_the_binder_keeps_the_snapshot() {
        let (x, y) = buffers(4);
        let k = Kernel::new(1, Arc::new(Saxpy));
        SaxpyArgs { a: 3.0, x: &x, y: &y }.bind(&k).unwrap();
        let first = k.snapshot_args().unwrap();
        // Every argument rebound with its value: the snapshot stays.
        SaxpyArgs { a: 3.0, x: &x, y: &y }.bind(&k).unwrap();
        assert!(Arc::ptr_eq(&first.inner, &k.snapshot_args().unwrap().inner));
        // One changed scalar: the next snapshot is a new one.
        SaxpyArgs { a: 5.0, x: &x, y: &y }.bind(&k).unwrap();
        assert!(!Arc::ptr_eq(&first.inner, &k.snapshot_args().unwrap().inner));
    }

    #[test]
    fn out_of_range_argument_index_is_rejected() {
        let k = Kernel::new(1, Arc::new(Saxpy));
        assert!(k.set_arg(3, ArgValue::F64(0.0)).is_err());
    }

    #[test]
    fn per_device_launch_config_overrides_requested() {
        let k = Kernel::new(1, Arc::new(Saxpy));
        let cpu_nd = NdRange::d1(64, 1);
        k.set_work_group_info(DeviceId(0), cpu_nd).unwrap();
        let requested = NdRange::d1(64, 32);
        assert_eq!(k.effective_nd(DeviceId(0), requested), cpu_nd);
        assert_eq!(k.effective_nd(DeviceId(1), requested), requested);
        assert!(k.has_work_group_info(DeviceId(0)));
        assert!(!k.has_work_group_info(DeviceId(1)));
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn mutable_take_of_readonly_arg_panics() {
        let (x, _) = buffers(4);
        let args = BoundArgs::new(vec![ArgValue::Buffer(x)]);
        let ctx = KernelCtx::new(NdRange::d1(4, 4), DeviceId(0), &args);
        let _ = ctx.slice_mut::<f64>(0);
    }

    #[test]
    #[should_panic(expected = "already borrowed")]
    fn exclusive_then_shared_panics() {
        let (x, _) = buffers(4);
        let args = BoundArgs::new(vec![ArgValue::BufferMut(x)]);
        let ctx = KernelCtx::new(NdRange::d1(4, 4), DeviceId(0), &args);
        let _m = ctx.slice_mut::<f64>(0);
        let _s = ctx.slice::<f64>(0);
    }

    #[test]
    fn same_buffer_twice_shared_is_allowed() {
        let (x, _) = buffers(4);
        let args = BoundArgs::new(vec![ArgValue::Buffer(x.clone()), ArgValue::Buffer(x)]);
        let ctx = KernelCtx::new(NdRange::d1(4, 4), DeviceId(0), &args);
        let a = ctx.slice::<f64>(0);
        let b = ctx.slice::<f64>(1);
        assert_eq!(a[0], b[0]);
    }

    #[test]
    #[should_panic(expected = "already borrowed shared")]
    fn same_buffer_shared_then_mut_panics() {
        let (x, _) = buffers(4);
        let args = BoundArgs::new(vec![ArgValue::Buffer(x.clone()), ArgValue::BufferMut(x)]);
        let ctx = KernelCtx::new(NdRange::d1(4, 4), DeviceId(0), &args);
        let _a = ctx.slice::<f64>(0);
        let _b = ctx.slice_mut::<f64>(1);
    }

    #[test]
    #[should_panic(expected = "expected u64")]
    fn a_scalar_is_read_as_the_type_it_was_bound_with() {
        let args = BoundArgs::new(vec![ArgValue::U32(7)]);
        KernelCtx::new(NdRange::d1(1, 1), DeviceId(0), &args).u64(0);
    }

    #[test]
    fn global_offset_defaults_to_zero_and_round_trips() {
        let args = BoundArgs::new(vec![ArgValue::U32(0)]);
        let ctx = KernelCtx::new(NdRange::d1(4, 4), DeviceId(0), &args);
        assert_eq!(ctx.global_offset(), [0, 0, 0]);
        let ctx = KernelCtx::with_offset(NdRange::d1(4, 4), DeviceId(0), [64, 0, 2], &args);
        assert_eq!(ctx.global_offset(), [64, 0, 2]);
    }

    #[test]
    fn bodies_default_to_unsplittable() {
        let k = Kernel::new(1, Arc::new(Saxpy));
        assert!(!k.splittable());
    }
}
