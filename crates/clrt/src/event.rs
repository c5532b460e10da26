//! Events: completion handles with OpenCL-style profiling timestamps.

use crate::error::{ClError, ClResult};
use crate::platform::RuntimeInner;
use hwsim::engine::{EventId, EventStamp};
use hwsim::{CommandStatus, SimDuration};
use std::sync::Arc;

/// A `cl_event`: handle to one submitted command's completion.
#[derive(Clone)]
pub struct Event {
    pub(crate) rt: Arc<RuntimeInner>,
    pub(crate) id: EventId,
}

impl Event {
    pub(crate) fn new(rt: Arc<RuntimeInner>, id: EventId) -> Event {
        Event { rt, id }
    }

    /// Block the host until the command completes (`clWaitForEvents`), in
    /// both planes: the virtual clock advances past the command's end, and
    /// the data-plane task backing the command (with everything it
    /// transitively depends on) has executed.
    pub fn wait(&self) {
        self.rt.engine.lock().wait(self.id);
        self.rt.plane.join_event(self.id.0);
    }

    /// Profiling timestamps (`clGetEventProfilingInfo`).
    pub fn stamp(&self) -> EventStamp {
        self.rt.engine.lock().stamp(self.id)
    }

    /// Device execution time of the command.
    pub fn duration(&self) -> SimDuration {
        self.stamp().duration()
    }

    /// True once the command has completed relative to the current host time
    /// (`CL_EVENT_COMMAND_EXECUTION_STATUS == CL_COMPLETE`).
    pub fn is_complete(&self) -> bool {
        let engine = self.rt.engine.lock();
        engine.stamp(self.id).end <= engine.now()
    }

    /// OpenCL-style execution status: `0` (`CL_COMPLETE`) for commands that
    /// completed successfully, a negative error code for commands that
    /// completed with an injected fault (`CL_DEVICE_NOT_AVAILABLE`,
    /// `CL_OUT_OF_RESOURCES`). Unlike real OpenCL there is no "still
    /// running" state: the engine resolves completion eagerly.
    pub fn execution_status(&self) -> i32 {
        self.rt.engine.lock().event_status(self.id).code()
    }

    /// The fault this command completed with, as a typed error (`None` for
    /// successful completion).
    pub fn error(&self) -> Option<ClError> {
        match self.rt.engine.lock().event_status(self.id) {
            CommandStatus::Complete => None,
            CommandStatus::Failed(kind) => {
                Some(ClError::from_fault(kind, &format!("event {}", self.id.0)))
            }
        }
    }

    /// [`Event::wait`], then surface the command's terminal status: `Ok(())`
    /// for success, the typed fault error otherwise.
    pub fn wait_checked(&self) -> ClResult<()> {
        self.wait();
        match self.error() {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    pub(crate) fn raw(&self) -> EventId {
        self.id
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Event({:?})", self.id)
    }
}

/// Block until every event in the list completes (`clWaitForEvents`).
pub fn wait_for_events(events: &[Event]) {
    for e in events {
        e.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;
    use hwsim::engine::{CommandDesc, CommandKind};
    use hwsim::{DeviceId, SimDuration};
    use std::sync::Arc as StdArc;

    fn submit(p: &Platform, ms: u64) -> Event {
        let id = p.with_engine(|e| {
            e.submit(CommandDesc {
                device: DeviceId(0),
                kind: CommandKind::Kernel { name: StdArc::from("k") },
                duration: SimDuration::from_millis(ms),
                waits: hwsim::WaitList::new(),
                queue: 0,
            })
        });
        Event::new(StdArc::clone(&p.rt), id)
    }

    #[test]
    fn wait_advances_host_to_completion() {
        let p = Platform::paper_node();
        let ev = submit(&p, 25);
        assert!(!ev.is_complete());
        ev.wait();
        assert!(ev.is_complete());
        assert_eq!(p.now(), ev.stamp().end);
    }

    #[test]
    fn duration_matches_submission() {
        let p = Platform::paper_node();
        let ev = submit(&p, 25);
        assert_eq!(ev.duration(), SimDuration::from_millis(25));
    }

    #[test]
    fn wait_for_events_waits_for_all() {
        let p = Platform::paper_node();
        let a = submit(&p, 10);
        let b = submit(&p, 30);
        wait_for_events(&[a.clone(), b.clone()]);
        assert!(a.is_complete() && b.is_complete());
    }
}
