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
use hwsim::sync::{Mutex, MutexGuard};
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
    /// 64-bit signed scalar.
    I64(i64),
    /// Double scalar.
    F64(f64),
    /// Float scalar.
    F32(f32),
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
}

/// The arguments of one launch as they were bound when it was enqueued
/// ([`Kernel::snapshot_args`]) and, worked out once, here, what every layer
/// that handles the launch asks of them: the buffers it touches. Derefs to
/// the argument values; clones share one allocation.
#[derive(Debug, Clone)]
pub struct BoundArgs {
    inner: Arc<Bound>,
}

#[derive(Debug)]
struct Bound {
    values: Vec<ArgValue>,
    touched: Vec<Access>,
    /// Slots of `touched` in ascending buffer-id order.
    lock_order: Vec<usize>,
    /// Per argument: where its buffer comes in `lock_order`, which is where
    /// a [`KernelCtx`] keeps its locked store (meaningless for a scalar).
    ranks: Vec<usize>,
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
        BoundArgs { inner: Arc::new(Bound { values, touched, lock_order, ranks }) }
    }

    /// The distinct buffers the launch touches, in first-touch argument
    /// order — the order their migrations are issued in, so virtual-time
    /// stamps depend on it. A buffer bound more than once appears once, and
    /// as a write if any binding is a [`ArgValue::BufferMut`].
    pub fn touched(&self) -> &[Access] {
        &self.inner.touched
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

    /// The touched buffers in canonical (ascending buffer-id) order.
    fn lock_order(&self) -> impl Iterator<Item = &Buffer> {
        self.inner.lock_order.iter().map(|&slot| &self.inner.touched[slot].buf)
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
    args: Mutex<Vec<Option<ArgValue>>>,
    /// Per-device launch configuration overrides — the paper's
    /// `clSetKernelWorkGroupInfo` extension (§IV-C).
    per_device_nd: Mutex<HashMap<DeviceId, NdRange>>,
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
                args: Mutex::new(vec![None; arity]),
                per_device_nd: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Kernel function name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The interned name, for records that outlive the kernel handle.
    pub(crate) fn shared_name(&self) -> Arc<str> {
        Arc::clone(&self.inner.name)
    }

    /// Unique object id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    pub(crate) fn ctx_id(&self) -> u64 {
        self.inner.ctx_id
    }

    /// The kernel's cost description.
    pub fn cost(&self) -> KernelCostSpec {
        self.inner.body.cost()
    }

    pub(crate) fn body(&self) -> &Arc<dyn KernelBody> {
        &self.inner.body
    }

    /// Bind argument `idx` (`clSetKernelArg`).
    pub fn set_arg(&self, idx: usize, value: ArgValue) -> ClResult<()> {
        let mut args = self.inner.args.lock();
        if idx >= args.len() {
            return Err(ClError::InvalidValue(format!(
                "kernel `{}` has {} args, index {idx} out of range",
                self.inner.body.name(),
                args.len()
            )));
        }
        args[idx] = Some(value);
        Ok(())
    }

    /// Snapshot the bound arguments, erroring if any is unset
    /// (`CL_INVALID_KERNEL_ARGS`). Scheduler layers use this to capture the
    /// arguments of a buffered launch at enqueue time, so later
    /// `set_arg` calls (for the next launch of the same kernel object)
    /// cannot retroactively change it.
    pub fn snapshot_args(&self) -> ClResult<BoundArgs> {
        let args = self.inner.args.lock();
        let values: ClResult<Vec<ArgValue>> = args
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
            .collect();
        drop(args);
        values.map(BoundArgs::new)
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

/// A locked buffer plus the raw storage pointer captured while we held the
/// exclusive guard. The guard is kept alive for the context's lifetime, so
/// the pointer remains valid and exclusive to this context.
struct LockedStore<'a> {
    _guard: MutexGuard<'a, DataStore>,
    ptr: *mut u64,
    byte_len: usize,
    borrow: Cell<Borrow>,
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
    /// One per distinct buffer, in lock order.
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
    /// sets (writers are serialized by the hazard DAG), and a fixed global
    /// lock order keeps reader/reader store locking deadlock-free.
    pub(crate) fn with_offset(
        nd: NdRange,
        device: DeviceId,
        global_offset: [u64; 3],
        args: &'a BoundArgs,
    ) -> KernelCtx<'a> {
        let stores = args
            .lock_order()
            .map(|b| {
                let mut guard = b.inner.store.lock();
                let (ptr, byte_len) = guard.raw_parts();
                LockedStore { _guard: guard, ptr, byte_len, borrow: Cell::new(Borrow::None) }
            })
            .collect();
        KernelCtx { nd, device, global_offset, args, stores, device_time: Duration::ZERO }
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

    /// The device time declared through [`Self::occupy_device`].
    pub(crate) fn device_time(&self) -> Duration {
        self.device_time
    }

    /// The locked store behind buffer argument `idx`.
    fn store(&self, idx: usize, need_mut: bool) -> &LockedStore<'a> {
        match self.args.get(idx) {
            Some(ArgValue::Buffer(_)) if need_mut => {
                panic!("kernel argument {idx} is read-only (bound with ArgValue::Buffer) but taken mutably");
            }
            Some(ArgValue::Buffer(_) | ArgValue::BufferMut(_)) => {
                &self.stores[self.args.inner.ranks[idx]]
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
        // SAFETY: as in `slice`, and the flag now records an exclusive
        // borrow, so no other view of this buffer will be handed out.
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
            ArgValue::U32(v) => u64::from(*v),
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

    /// Scalar `i64` argument.
    pub fn i64(&self, idx: usize) -> i64 {
        match self.scalar(idx) {
            ArgValue::I64(v) => *v,
            other => panic!("kernel argument {idx}: expected i64, got {other:?}"),
        }
    }

    /// Scalar `f64` argument.
    pub fn f64(&self, idx: usize) -> f64 {
        match self.scalar(idx) {
            ArgValue::F64(v) => *v,
            ArgValue::F32(v) => f64::from(*v),
            other => panic!("kernel argument {idx}: expected f64, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::KernelCostSpec;

    struct Saxpy;
    impl KernelBody for Saxpy {
        fn name(&self) -> &str {
            "saxpy"
        }
        fn arity(&self) -> usize {
            3
        }
        fn cost(&self) -> KernelCostSpec {
            KernelCostSpec::memory_bound(24.0)
        }
        fn execute(&self, ctx: &mut KernelCtx<'_>) {
            let a = ctx.f64(0);
            let n = ctx.nd().global_items() as usize;
            let x: Vec<f64> = ctx.slice::<f64>(1)[..n].to_vec();
            let y = ctx.slice_mut::<f64>(2);
            for i in 0..n {
                y[i] += a * x[i];
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
        let order: Vec<u64> = args.lock_order().map(Buffer::id).collect();
        assert_eq!(order, [a.id(), b.id(), c.id()]);
        for (i, b) in args.iter().enumerate().filter_map(|(i, a)| Some((i, a.buffer()?))) {
            assert_eq!(order[args.inner.ranks[i]], b.id(), "argument {i}");
        }
        // A clone is the same snapshot, not a second one.
        assert!(Arc::ptr_eq(&args.inner, &args.clone().inner));
    }

    #[test]
    fn scalar_only_arguments_touch_nothing() {
        let args = BoundArgs::new(vec![ArgValue::F64(1.0), ArgValue::I64(-1)]);
        assert!(args.touched().is_empty());
        assert_eq!((args.buffer_bytes(), args.max_buffer_bytes()), (0, 0));
        assert_eq!(KernelCtx::new(NdRange::d1(1, 1), DeviceId(0), &args).i64(1), -1);
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
    fn scalar_accessors_coerce_where_sensible() {
        let args = BoundArgs::new(vec![ArgValue::U32(7), ArgValue::F32(1.5)]);
        let ctx = KernelCtx::new(NdRange::d1(1, 1), DeviceId(0), &args);
        assert_eq!(ctx.u64(0), 7);
        assert_eq!(ctx.f64(1), 1.5);
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
