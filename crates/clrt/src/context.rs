//! Contexts: the sharing domain for buffers, programs, and queues.

use crate::buffer::Buffer;
use crate::error::{ClError, ClResult};
use crate::kernel::KernelBody;
use crate::platform::{next_object_id, Device, Platform, RuntimeInner};
use crate::program::Program;
use crate::queue::CommandQueue;
use hwsim::DeviceId;
use std::sync::Arc;

/// A `cl_context` over a subset of the platform's devices. Objects created
/// from different contexts must not be mixed (checked at use sites, as in
/// OpenCL).
#[derive(Clone)]
pub struct Context {
    pub(crate) rt: Arc<RuntimeInner>,
    pub(crate) id: u64,
    pub(crate) devices: Vec<DeviceId>,
}

impl Platform {
    /// `clCreateContext` over an explicit device list.
    pub fn create_context(&self, devices: &[Device]) -> ClResult<Context> {
        if devices.is_empty() {
            return Err(ClError::InvalidValue("context needs at least one device".into()));
        }
        for d in devices {
            if !Arc::ptr_eq(&d.rt, &self.rt) {
                return Err(ClError::InvalidDevice(format!(
                    "device {} belongs to a different platform",
                    d.id
                )));
            }
        }
        let mut ids: Vec<DeviceId> = devices.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        Ok(Context { rt: Arc::clone(&self.rt), id: next_object_id(), devices: ids })
    }

    /// `clCreateContextFromType(CL_DEVICE_TYPE_ALL)`: context over every
    /// device of the node.
    pub fn create_context_all(&self) -> ClResult<Context> {
        let devices = self.devices();
        self.create_context(&devices)
    }
}

impl Context {
    /// Devices that belong to this context.
    pub fn devices(&self) -> &[DeviceId] {
        &self.devices
    }

    /// True if `dev` belongs to this context.
    pub fn contains(&self, dev: DeviceId) -> bool {
        self.devices.binary_search(&dev).is_ok()
    }

    /// The platform handle (shares the runtime).
    pub fn platform(&self) -> Platform {
        Platform { rt: Arc::clone(&self.rt) }
    }

    /// `clCreateBuffer`: allocate a zero-initialized buffer of `byte_len`
    /// bytes, shareable among this context's devices.
    pub fn create_buffer(&self, byte_len: usize) -> ClResult<Buffer> {
        // OpenCL would reject buffers exceeding every device's capacity.
        let max_cap = self.max_buffer_bytes();
        if byte_len as u64 > max_cap {
            return Err(ClError::MemObjectAllocationFailure(format!(
                "buffer of {byte_len} bytes exceeds the largest device memory ({max_cap} bytes)"
            )));
        }
        Buffer::new_on_plane(self.id, byte_len, Some(Arc::clone(&self.rt.plane)))
    }

    /// The largest buffer [`Self::create_buffer`] admits: the memory of the
    /// context's largest device (`CL_DEVICE_MAX_MEM_ALLOC_SIZE`, taken over
    /// the context). A buffer this size fits *some* device, not every one —
    /// a launch binding it is refused on the smaller ones.
    pub fn max_buffer_bytes(&self) -> u64 {
        self.devices.iter().map(|d| self.rt.node.spec(*d).mem_capacity).max().unwrap_or(0)
    }

    /// Typed convenience over [`Self::create_buffer`].
    pub fn create_buffer_of<T: crate::buffer::Element>(&self, elements: usize) -> ClResult<Buffer> {
        let byte_len = elements.checked_mul(std::mem::size_of::<T>()).ok_or_else(|| {
            ClError::MemObjectAllocationFailure(format!(
                "buffer of {elements} elements overflows the address space"
            ))
        })?;
        self.create_buffer(byte_len)
    }

    /// `clCreateCommandQueue`: an in-order queue bound to `device`.
    pub fn create_queue(&self, device: DeviceId) -> ClResult<CommandQueue> {
        if !self.contains(device) {
            return Err(ClError::InvalidDevice(format!(
                "device {device} is not part of this context"
            )));
        }
        Ok(CommandQueue::new(self.clone(), device))
    }

    /// `clCreateCommandQueue` with
    /// `CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE`: commands are ordered only
    /// by explicit event wait lists and barriers.
    pub fn create_queue_ooo(&self, device: DeviceId) -> ClResult<CommandQueue> {
        let queue = self.create_queue(device)?;
        queue.set_out_of_order(true)?;
        Ok(queue)
    }

    /// `clCreateProgramWithSource`: register kernel bodies as a program.
    pub fn create_program(&self, bodies: Vec<Arc<dyn KernelBody>>) -> ClResult<Program> {
        Program::new(Arc::clone(&self.rt), self.id, bodies)
    }

    /// True if `buf` was created from this context.
    pub fn owns_buffer(&self, buf: &Buffer) -> bool {
        buf.inner.ctx_id == self.id
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Context(id={}, devices={:?})", self.id, self.devices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_over_all_devices() {
        let p = Platform::paper_node();
        let ctx = p.create_context_all().unwrap();
        assert_eq!(ctx.devices().len(), 3);
        assert!(ctx.contains(DeviceId(0)));
        assert!(!ctx.contains(DeviceId(7)));
    }

    #[test]
    fn empty_device_list_is_rejected() {
        let p = Platform::paper_node();
        assert!(p.create_context(&[]).is_err());
    }

    #[test]
    fn cross_platform_device_is_rejected() {
        let p = Platform::paper_node();
        let q = Platform::paper_node();
        let foreign = q.devices();
        assert!(matches!(p.create_context(&foreign), Err(ClError::InvalidDevice(_))));
    }

    #[test]
    fn oversized_buffer_is_rejected() {
        let p = Platform::paper_node();
        let ctx = p.create_context_all().unwrap();
        // Larger than the CPU device's 32 GB.
        assert!(ctx.create_buffer(40 << 30).is_err());
        assert!(ctx.create_buffer(1024).is_ok());
    }

    #[test]
    fn queue_device_must_belong_to_context() {
        let p = Platform::paper_node();
        let gpus_only = p.devices_of_type(hwsim::DeviceType::Gpu);
        let ctx = p.create_context(&gpus_only).unwrap();
        assert!(ctx.create_queue(DeviceId(0)).is_err()); // CPU not in context
        assert!(ctx.create_queue(DeviceId(1)).is_ok());
    }

    #[test]
    fn buffer_ownership_is_tracked() {
        let p = Platform::paper_node();
        let ctx1 = p.create_context_all().unwrap();
        let ctx2 = p.create_context_all().unwrap();
        let b = ctx1.create_buffer(64).unwrap();
        assert!(ctx1.owns_buffer(&b));
        assert!(!ctx2.owns_buffer(&b));
    }
}
