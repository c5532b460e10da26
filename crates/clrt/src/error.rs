//! Error codes, mirroring the OpenCL error vocabulary where a direct
//! counterpart exists.

use std::fmt;

/// Result alias used across the runtime.
pub type ClResult<T> = Result<T, ClError>;

/// Runtime errors. Variants correspond to OpenCL error codes where one
/// exists; the payload carries human-readable context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClError {
    /// `CL_INVALID_VALUE`: a parameter is out of range or malformed.
    InvalidValue(String),
    /// `CL_INVALID_DEVICE`: the device does not belong to this context.
    InvalidDevice(String),
    /// `CL_INVALID_KERNEL_NAME`: no kernel with that name in the program.
    InvalidKernelName(String),
    /// `CL_INVALID_KERNEL_ARGS`: unset or ill-typed kernel arguments.
    InvalidKernelArgs(String),
    /// `CL_INVALID_WORK_GROUP_SIZE`: local size invalid for the launch.
    InvalidWorkGroupSize(String),
    /// `CL_MEM_OBJECT_ALLOCATION_FAILURE`: buffer exceeds device memory.
    MemObjectAllocationFailure(String),
    /// `CL_INVALID_MEM_OBJECT`: buffer does not belong to this context, or
    /// an offset/size pair exceeds the buffer.
    InvalidMemObject(String),
    /// `CL_INVALID_CONTEXT`: objects from different contexts were mixed.
    InvalidContext(String),
    /// `CL_INVALID_OPERATION`: operation not permitted in the current state
    /// (e.g. scheduler-region misuse in the MultiCL layer).
    InvalidOperation(String),
    /// `CL_INVALID_EVENT_WAIT_LIST`: a wait-list event is invalid.
    InvalidEventWaitList(String),
    /// `CL_DEVICE_NOT_AVAILABLE`: the device is permanently lost (injected
    /// device failure).
    DeviceNotAvailable(String),
    /// `CL_OUT_OF_RESOURCES`: an operation failed transiently (e.g. an
    /// injected DMA transfer failure); a retry may succeed.
    OutOfResources(String),
}

impl ClError {
    /// Short OpenCL-style error name.
    pub fn code_name(&self) -> &'static str {
        match self {
            ClError::InvalidValue(_) => "CL_INVALID_VALUE",
            ClError::InvalidDevice(_) => "CL_INVALID_DEVICE",
            ClError::InvalidKernelName(_) => "CL_INVALID_KERNEL_NAME",
            ClError::InvalidKernelArgs(_) => "CL_INVALID_KERNEL_ARGS",
            ClError::InvalidWorkGroupSize(_) => "CL_INVALID_WORK_GROUP_SIZE",
            ClError::MemObjectAllocationFailure(_) => "CL_MEM_OBJECT_ALLOCATION_FAILURE",
            ClError::InvalidMemObject(_) => "CL_INVALID_MEM_OBJECT",
            ClError::InvalidContext(_) => "CL_INVALID_CONTEXT",
            ClError::InvalidOperation(_) => "CL_INVALID_OPERATION",
            ClError::InvalidEventWaitList(_) => "CL_INVALID_EVENT_WAIT_LIST",
            ClError::DeviceNotAvailable(_) => "CL_DEVICE_NOT_AVAILABLE",
            ClError::OutOfResources(_) => "CL_OUT_OF_RESOURCES",
        }
    }

    /// The error's message, without its [`code_name`](Self::code_name).
    pub fn message(&self) -> &str {
        match self {
            ClError::InvalidValue(m)
            | ClError::InvalidDevice(m)
            | ClError::InvalidKernelName(m)
            | ClError::InvalidKernelArgs(m)
            | ClError::InvalidWorkGroupSize(m)
            | ClError::MemObjectAllocationFailure(m)
            | ClError::InvalidMemObject(m)
            | ClError::InvalidContext(m)
            | ClError::InvalidOperation(m)
            | ClError::InvalidEventWaitList(m)
            | ClError::DeviceNotAvailable(m)
            | ClError::OutOfResources(m) => m,
        }
    }
}

impl fmt::Display for ClError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code_name(), self.message())
    }
}

impl std::error::Error for ClError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_and_message() {
        let e = ClError::InvalidValue("size must be nonzero".into());
        let s = e.to_string();
        assert!(s.contains("CL_INVALID_VALUE"));
        assert!(s.contains("size must be nonzero"));
    }

    #[test]
    fn code_names_are_distinct() {
        use std::collections::HashSet;
        let all = [
            ClError::InvalidValue(String::new()).code_name(),
            ClError::InvalidDevice(String::new()).code_name(),
            ClError::InvalidKernelName(String::new()).code_name(),
            ClError::InvalidKernelArgs(String::new()).code_name(),
            ClError::InvalidWorkGroupSize(String::new()).code_name(),
            ClError::MemObjectAllocationFailure(String::new()).code_name(),
            ClError::InvalidMemObject(String::new()).code_name(),
            ClError::InvalidContext(String::new()).code_name(),
            ClError::InvalidOperation(String::new()).code_name(),
            ClError::InvalidEventWaitList(String::new()).code_name(),
            ClError::DeviceNotAvailable(String::new()).code_name(),
            ClError::OutOfResources(String::new()).code_name(),
        ];
        let set: HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }
}
