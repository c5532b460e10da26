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
use crate::exec::{BufHazard, DataPlane, TaskId};
use crate::hazard::Frontier;
use crate::platform::next_object_id;
use hwsim::engine::EventId;
use hwsim::sync::Mutex;
use hwsim::DeviceId;
use std::collections::BTreeSet;
use std::sync::Arc;

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

/// Which copies of the buffer are currently valid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residency {
    /// Devices holding a valid copy.
    pub devices: BTreeSet<DeviceId>,
    /// Whether the host copy is valid.
    pub host: bool,
}

impl Residency {
    fn fresh() -> Residency {
        Residency { devices: BTreeSet::new(), host: true }
    }

    /// True if `dev` holds a valid copy.
    pub fn valid_on(&self, dev: DeviceId) -> bool {
        self.devices.contains(&dev)
    }
}

pub(crate) struct BufferInner {
    pub(crate) id: u64,
    pub(crate) ctx_id: u64,
    /// Fixed at creation, so reading it takes no lock — least of all the
    /// store's, which a running kernel body holds from start to end.
    pub(crate) byte_len: usize,
    pub(crate) store: Mutex<DataStore>,
    pub(crate) residency: Mutex<Residency>,
    /// Data-plane hazard state: the frontier of tasks, and the write
    /// version counter.
    pub(crate) hazard: Mutex<BufHazard>,
    /// Time-plane hazard state: the frontier of timed commands' completion
    /// events. Every queue records its commands here; only out-of-order
    /// queues *consult* it, deriving their event wait lists in place of the
    /// implicit in-order chain. In-order queues get the same ordering from
    /// their chain, so recording alone never changes any timestamp.
    pub(crate) stamp_hazard: Mutex<Frontier<EventId>>,
    /// The executor of the owning runtime; `None` for bare buffers created
    /// outside a context (unit tests). Host accessors join through it so
    /// snapshots always observe completed data-plane writes.
    pub(crate) plane: Option<Arc<DataPlane>>,
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
        Buffer::new_on_plane(ctx_id, byte_len, None)
    }

    pub(crate) fn new_on_plane(
        ctx_id: u64,
        byte_len: usize,
        plane: Option<Arc<DataPlane>>,
    ) -> ClResult<Buffer> {
        if byte_len == 0 {
            return Err(ClError::InvalidValue("buffer size must be nonzero".into()));
        }
        Ok(Buffer {
            inner: Arc::new(BufferInner {
                id: next_object_id(),
                ctx_id,
                byte_len,
                store: Mutex::new(DataStore::zeroed(byte_len)),
                residency: Mutex::new(Residency::fresh()),
                hazard: Mutex::new(BufHazard::default()),
                stamp_hazard: Mutex::new(Frontier::default()),
                plane,
            }),
        })
    }

    /// Join every outstanding data-plane task that writes this buffer, so a
    /// subsequent read of the store observes final contents.
    pub(crate) fn sync_for_read(&self) {
        let Some(plane) = &self.inner.plane else { return };
        let ids: Vec<TaskId> = self.inner.hazard.lock().frontier.predecessors(false).collect();
        plane.join(&ids);
    }

    /// Join every outstanding task touching this buffer (writers *and*
    /// readers), so a host-side mutation cannot race an in-flight reader.
    pub(crate) fn sync_for_write(&self) {
        let Some(plane) = &self.inner.plane else { return };
        let ids: Vec<TaskId> = self.inner.hazard.lock().frontier.predecessors(true).collect();
        plane.join(&ids);
    }

    /// Number of data-plane writes this buffer has received (kernel
    /// launches writing it, `enqueue_write`s, copies into it, host fills).
    /// A cheap coherence probe for tests and diagnostics.
    pub fn data_version(&self) -> u64 {
        self.inner.hazard.lock().version
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
        self.sync_for_read();
        self.inner.store.lock().as_slice::<T>().to_vec()
    }

    /// Overwrite the host-side storage **without** simulating any transfer,
    /// invalidating all device copies. For initialization and tests; use
    /// [`crate::CommandQueue::enqueue_write`] inside timed experiments.
    pub fn host_fill<T: Element>(&self, data: &[T]) -> ClResult<()> {
        self.sync_for_write();
        let mut store = self.inner.store.lock();
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
        self.inner.hazard.lock().version += 1;
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
    /// hook, paired with [`Self::mark_resident`]): records that a D2H staging
    /// copy has been performed by the scheduler.
    pub fn mark_host_valid(&self) {
        self.inner.residency.lock().host = true;
    }

    /// Declare the host copy the *only* valid one **without** moving any
    /// data (scheduler-layer hook): after a split launch gathers each
    /// device's output sub-range, the reassembled contents exist nowhere
    /// whole except the host store.
    pub fn mark_host_only(&self) {
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
