//! Device memory objects with real host-backed storage and residency
//! tracking.
//!
//! A [`Buffer`] owns one canonical byte store (8-byte aligned, so it can be
//! viewed as `f64`/`f32`/`u32`/… slices) plus a residency set: which devices
//! currently hold a *valid* copy, and whether the host copy is valid. The
//! queue executor consults the residency set to decide which simulated
//! transfers (H2D / D2H / staged D2D) a command must pay for — this is the
//! machinery behind the paper's data-movement overhead analysis (Figs. 6–7).

use crate::error::{ClError, ClResult};
use crate::exec::TaskId;
use crate::hazard::{Command, Frontier};
use crate::platform::{next_object_id, RuntimeInner};
use hwsim::sync::{Mutex, RwLock};
use hwsim::DeviceId;
use std::sync::{Arc, Weak};

/// Element types a buffer can be viewed as. Implemented for the primitive
/// numeric types used by the workloads.
///
/// # Safety
/// Implementors must be plain-old-data with alignment ≤ 8 and no invalid bit
/// patterns.
pub unsafe trait Element: Copy + Send + Sync + 'static {}

unsafe impl Element for f64 {}
unsafe impl Element for f32 {}
unsafe impl Element for u64 {}
unsafe impl Element for u32 {}
unsafe impl Element for i64 {}
unsafe impl Element for i32 {}
unsafe impl Element for u8 {}

/// Reinterpret a typed slice as raw bytes (native endianness). Used by
/// scheduler layers that buffer write commands type-erased.
pub fn bytes_of<T: Element>(data: &[T]) -> &[u8] {
    // SAFETY: T is POD (Element contract), so any byte view is valid.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// 8-byte-aligned raw storage of a fixed byte length.
#[derive(Debug)]
pub(crate) struct DataStore {
    words: Vec<u64>,
    byte_len: usize,
}

impl DataStore {
    pub(crate) fn zeroed(byte_len: usize) -> DataStore {
        DataStore { words: vec![0u64; byte_len.div_ceil(8)], byte_len }
    }

    /// View as a slice of `T`. Panics if the byte length is not a multiple
    /// of `size_of::<T>()` — that is a program bug, like a misaligned
    /// OpenCL kernel argument.
    pub(crate) fn as_slice<T: Element>(&self) -> &[T] {
        let size = std::mem::size_of::<T>();
        assert!(
            size <= 8 && self.byte_len.is_multiple_of(size),
            "buffer length {} not a multiple of element size {size}",
            self.byte_len
        );
        let n = self.byte_len / size;
        // SAFETY: storage is 8-byte aligned (Vec<u64>) and T is POD with
        // alignment <= 8; n*size <= words.len()*8 by construction.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<T>(), n) }
    }

    /// Raw storage pointer + byte length, for [`crate::KernelCtx`]'s locked
    /// views. Requires `&mut self` so the caller provably holds the lock
    /// exclusively when capturing the pointer.
    pub(crate) fn raw_parts(&mut self) -> (*mut u64, usize) {
        (self.words.as_mut_ptr(), self.byte_len)
    }

    /// [`Self::raw_parts`] under a shared lock: never written through.
    pub(crate) fn shared_parts(&self) -> (*mut u64, usize) {
        (self.words.as_ptr().cast_mut(), self.byte_len)
    }

    /// Mutable view as a slice of `T`. Same preconditions as [`Self::as_slice`].
    pub(crate) fn as_mut_slice<T: Element>(&mut self) -> &mut [T] {
        let size = std::mem::size_of::<T>();
        assert!(
            size <= 8 && self.byte_len.is_multiple_of(size),
            "buffer length {} not a multiple of element size {size}",
            self.byte_len
        );
        let n = self.byte_len / size;
        // SAFETY: as above, and we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr().cast::<T>(), n) }
    }
}

/// A set of devices, kept sorted in a `Vec` and edited in place: `clear`
/// keeps the capacity, so the `clear(); insert(dev)` every write launch
/// makes allocates nothing once the set has held a device. Iteration is in
/// ascending device order.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DeviceSet(Vec<DeviceId>);

impl DeviceSet {
    /// True if `dev` is in the set.
    pub fn contains(&self, dev: DeviceId) -> bool {
        self.0.binary_search(&dev).is_ok()
    }

    /// Add `dev` (a no-op if it is there already).
    pub(crate) fn insert(&mut self, dev: DeviceId) {
        if let Err(at) = self.0.binary_search(&dev) {
            self.0.insert(at, dev);
        }
    }

    /// Remove every device, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    /// Keep only the devices `keep` accepts.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&DeviceId) -> bool) {
        self.0.retain(keep);
    }

    /// True if no device is in the set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The lowest device in the set.
    pub fn first(&self) -> Option<DeviceId> {
        self.0.first().copied()
    }

    /// The devices in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, DeviceId> {
        self.0.iter()
    }
}

impl std::fmt::Debug for DeviceSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(&self.0).finish()
    }
}

/// Which copies of the buffer are currently valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residency {
    /// Devices holding a valid copy.
    pub devices: DeviceSet,
    /// Whether the host copy is valid.
    pub host: bool,
}

/// Where a device's copy of a buffer comes from ([`Residency::source`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The device holds a valid copy: nothing moves.
    Valid,
    /// An upload of the host copy.
    Host,
    /// A download from this live owner, then an upload (cross-vendor D2D
    /// is unavailable, paper §V-C3), after which the host copy is valid.
    Owner(DeviceId),
}

impl Residency {
    fn fresh() -> Residency {
        Residency { devices: DeviceSet::default(), host: true }
    }

    /// True if `dev` holds a valid copy.
    pub fn valid_on(&self, dev: DeviceId) -> bool {
        self.devices.contains(dev)
    }

    /// Where a copy for `dev` comes from: the one rule of every move, the
    /// queue's migration, the scheduler's snapshot of it and its profiling
    /// window's staging. A lost owner (`lost`) holds nothing: with no live
    /// owner left, the host-backed canonical contents are the source, valid
    /// host copy or not. A valid host copy comes before a live owner unless
    /// `brute` (brute-force staging, caching off, ignores the host copy).
    pub fn source(&self, dev: DeviceId, brute: bool, lost: impl Fn(DeviceId) -> bool) -> Source {
        if self.valid_on(dev) {
            return Source::Valid;
        }
        match self.devices.iter().copied().find(|&d| !lost(d)) {
            Some(owner) if brute || !self.host => Source::Owner(owner),
            _ => Source::Host,
        }
    }

    /// Record a write on `dev`: its copy is now the only valid one.
    pub(crate) fn written_on(&mut self, dev: DeviceId) {
        self.devices.clear();
        self.devices.insert(dev);
        self.host = false;
    }
}

pub(crate) struct BufferInner {
    pub(crate) id: u64,
    pub(crate) ctx_id: u64,
    /// Fixed at creation, so reading it takes no lock — least of all the
    /// store's, which a running kernel body holds from start to end.
    pub(crate) byte_len: usize,
    /// Shared by the bodies that only read the contents, exclusive to one
    /// that may write them.
    pub(crate) store: RwLock<DataStore>,
    pub(crate) residency: Mutex<Residency>,
    /// The one hazard record of both planes: every command that touches
    /// the buffer, as its event and its task ([`crate::hazard`]). Read and
    /// written only under the engine lock, which every queue consults it
    /// under ([`crate::CommandQueue`]), so its own lock is never contended.
    pub(crate) frontier: Mutex<Frontier<Command>>,
    /// The owning runtime; empty for bare buffers created outside a
    /// context (unit tests). Host accessors join its data plane so
    /// snapshots always observe completed data-plane writes.
    pub(crate) rt: Weak<RuntimeInner>,
}

/// An OpenCL memory object (`clCreateBuffer`).
///
/// Cloning is cheap (reference-counted); all clones refer to the same
/// storage, like retained `cl_mem` handles.
#[derive(Clone)]
pub struct Buffer {
    pub(crate) inner: Arc<BufferInner>,
}

impl Buffer {
    /// A bare buffer outside any runtime (no data plane): unit tests only.
    #[cfg(test)]
    pub(crate) fn new(ctx_id: u64, byte_len: usize) -> ClResult<Buffer> {
        Buffer::new_in(ctx_id, byte_len, Weak::new())
    }

    pub(crate) fn new_in(ctx_id: u64, byte_len: usize, rt: Weak<RuntimeInner>) -> ClResult<Buffer> {
        if byte_len == 0 {
            return Err(ClError::InvalidValue("buffer size must be nonzero".into()));
        }
        Ok(Buffer {
            inner: Arc::new(BufferInner {
                id: next_object_id(),
                ctx_id,
                byte_len,
                store: RwLock::new(DataStore::zeroed(byte_len)),
                residency: Mutex::new(Residency::fresh()),
                frontier: Mutex::new(Frontier::default()),
                rt,
            }),
        })
    }

    /// [`crate::Context::renew_buffer`], in the runtime `rt`: refused while
    /// a recorded command is live in either plane.
    pub(crate) fn renew(&self, rt: &RuntimeInner) -> ClResult<()> {
        let engine = rt.engine.lock();
        let mut frontier = self.inner.frontier.lock();
        if frontier.predecessors(true).any(|c| c.event.is_some_and(|e| !engine.event_completed(e)))
            || rt.plane.any_live(frontier.predecessors(true).filter_map(|c| c.task))
        {
            return Err(ClError::InvalidOperation(format!("buffer id={} is in use", self.id())));
        }
        frontier.clear();
        drop((frontier, engine));
        self.inner.store.write().words.fill(0);
        self.mark_host_only();
        Ok(())
    }

    /// Join every live data-plane task this buffer's next access would
    /// follow — a write (`write`) or a read — so that access observes final
    /// contents and races no task. The frontier is read under the engine
    /// lock, as every consult reads it.
    fn sync(&self, write: bool) {
        let Some(rt) = self.inner.rt.upgrade() else { return };
        let ids: Vec<TaskId> = {
            let _engine = rt.engine.lock();
            self.inner.frontier.lock().predecessors(write).filter_map(|c| c.task).collect()
        };
        rt.plane.join(&ids);
    }

    /// Number of writes recorded against this buffer: commands that write
    /// it — kernel launches, `enqueue_write`s and `enqueue_write_host`s,
    /// copies into it — with a split launch counted once, at its join. A
    /// host fill records nothing. A cheap coherence probe for tests and
    /// diagnostics.
    pub fn data_version(&self) -> u64 {
        let rt = self.inner.rt.upgrade();
        let _engine = rt.as_ref().map(|rt| rt.engine.lock());
        self.inner.frontier.lock().writes()
    }

    /// Buffer length in bytes.
    pub fn byte_len(&self) -> usize {
        self.inner.byte_len
    }

    /// Number of elements when viewed as `T`.
    pub fn len<T: Element>(&self) -> usize {
        self.byte_len() / std::mem::size_of::<T>()
    }

    /// True when the buffer holds zero bytes — never, by construction, but
    /// included for API completeness.
    pub fn is_empty(&self) -> bool {
        self.byte_len() == 0
    }

    /// Unique object id (diagnostics).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// True if both handles refer to the same memory object.
    pub fn same_object(&self, other: &Buffer) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Snapshot of the residency state.
    pub fn residency(&self) -> Residency {
        self.inner.residency.lock().clone()
    }

    /// Read the residency state in place, under its lock: what a hot path
    /// uses instead of cloning the device set with [`Self::residency`].
    /// `f` must not touch this buffer's residency again.
    pub fn with_residency<R>(&self, f: impl FnOnce(&Residency) -> R) -> R {
        f(&self.inner.residency.lock())
    }

    /// Read the host-side storage as a `Vec<T>` **without** simulating any
    /// transfer. Use [`crate::CommandQueue::enqueue_read`] inside timed
    /// experiments; this accessor is for test assertions and host-side
    /// initialization.
    pub fn host_snapshot<T: Element>(&self) -> Vec<T> {
        self.sync(false);
        self.inner.store.read().as_slice::<T>().to_vec()
    }

    /// Overwrite the host-side storage **without** simulating any transfer,
    /// invalidating all device copies. For initialization and tests; use
    /// [`crate::CommandQueue::enqueue_write`] inside timed experiments.
    pub fn host_fill<T: Element>(&self, data: &[T]) -> ClResult<()> {
        // A host-side mutation must race no in-flight reader.
        self.sync(true);
        let mut store = self.inner.store.write();
        let slice = store.as_mut_slice::<T>();
        if slice.len() != data.len() {
            return Err(ClError::InvalidValue(format!(
                "host_fill length mismatch: buffer holds {} elements, got {}",
                slice.len(),
                data.len()
            )));
        }
        slice.copy_from_slice(data);
        drop(store);
        let mut res = self.inner.residency.lock();
        res.devices.clear();
        res.host = true;
        Ok(())
    }

    /// Mark the buffer's current contents valid on `dev` **without** moving
    /// any data. This is a scheduler-layer hook: MultiCL's data-caching
    /// optimization (paper §V-C3) performs the profiling transfers itself
    /// and then records that the destination devices now hold valid copies,
    /// so the subsequent real issue pays no further movement.
    pub fn mark_resident(&self, dev: DeviceId) {
        self.inner.residency.lock().devices.insert(dev);
    }

    /// Mark the host copy valid **without** moving any data (scheduler-layer
    /// hook, paired with [`Self::mark_resident`]): the scheduler staged it,
    /// or no live device holds a copy and the canonical contents are read.
    pub fn mark_host_valid(&self) {
        self.inner.residency.lock().host = true;
    }

    /// Copy this buffer's store into `dst`'s, of the same length, locking both
    /// in canonical (buffer-id) order as every multi-buffer task does.
    pub(crate) fn copy_store_into(&self, dst: &Buffer) {
        let src_first = self.inner.id < dst.inner.id;
        let (src_store, mut dst_store) = if src_first {
            let src = self.inner.store.read();
            (src, dst.inner.store.write())
        } else {
            let dst = dst.inner.store.write();
            (self.inner.store.read(), dst)
        };
        dst_store.as_mut_slice::<u8>().copy_from_slice(src_store.as_slice::<u8>());
    }

    /// Declare the host copy the *only* valid one **without** moving any
    /// data: after a split launch gathers each device's output sub-range,
    /// the reassembled contents exist nowhere whole except the host store.
    pub(crate) fn mark_host_only(&self) {
        let mut res = self.inner.residency.lock();
        res.devices.clear();
        res.host = true;
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Buffer(id={}, {}B)", self.inner.id, self.byte_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sized_buffer_is_rejected() {
        assert!(Buffer::new(1, 0).is_err());
    }

    #[test]
    fn fresh_buffer_is_host_valid_only() {
        let b = Buffer::new(1, 64).unwrap();
        let r = b.residency();
        assert!(r.host);
        assert!(r.devices.is_empty());
        assert!(!r.valid_on(DeviceId(0)));
    }

    #[test]
    fn typed_views_roundtrip() {
        let b = Buffer::new(1, 8 * 4).unwrap();
        b.host_fill::<f64>(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(b.host_snapshot::<f64>(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.len::<f64>(), 4);
        assert_eq!(b.len::<f32>(), 8);
    }

    #[test]
    fn host_fill_length_mismatch_is_rejected() {
        let b = Buffer::new(1, 16).unwrap();
        assert!(b.host_fill::<f64>(&[1.0]).is_err());
        assert!(b.host_fill::<f64>(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn host_writes_invalidate_device_copies() {
        let b = Buffer::new(1, 16).unwrap();
        b.inner.residency.lock().devices.insert(DeviceId(1));
        b.host_fill::<f64>(&[0.0, 0.0]).unwrap();
        assert!(b.residency().devices.is_empty());
    }

    #[test]
    fn device_set_is_ascending_and_reused_in_place() {
        let mut set = DeviceSet::default();
        for d in [2, 0, 1, 0] {
            set.insert(DeviceId(d));
        }
        assert_eq!(
            set.iter().copied().collect::<Vec<_>>(),
            [DeviceId(0), DeviceId(1), DeviceId(2)]
        );
        assert_eq!(set.first(), Some(DeviceId(0)));
        assert_eq!(format!("{set:?}"), "{DeviceId(0), DeviceId(1), DeviceId(2)}");
        // A write's `clear(); insert(dev)` reuses the same allocation.
        let (ptr, capacity) = (set.0.as_ptr(), set.0.capacity());
        let mut res = Residency { devices: set, host: true };
        res.written_on(DeviceId(1));
        assert_eq!((res.devices.0.as_ptr(), res.devices.0.capacity()), (ptr, capacity));
        assert!(res.valid_on(DeviceId(1)) && !res.valid_on(DeviceId(0)) && !res.host);
    }

    #[test]
    fn u32_view_of_f64_data_is_well_defined() {
        let b = Buffer::new(1, 8).unwrap();
        b.host_fill::<u64>(&[0x0123_4567_89ab_cdef]).unwrap();
        let v = b.host_snapshot::<u32>();
        assert_eq!(v.len(), 2);
        // Native-endian halves of the word.
        assert!(v.contains(&0x89ab_cdef));
        assert!(v.contains(&0x0123_4567));
    }

    #[test]
    fn clones_share_storage() {
        let a = Buffer::new(1, 16).unwrap();
        let b = a.clone();
        a.host_fill::<f64>(&[7.0, 8.0]).unwrap();
        assert_eq!(b.host_snapshot::<f64>(), vec![7.0, 8.0]);
        assert!(a.same_object(&b));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_view_panics() {
        let b = Buffer::new(1, 12).unwrap();
        let _ = b.host_snapshot::<f64>();
    }
}
