//! Events: completion handles with OpenCL-style profiling timestamps.

use crate::platform::RuntimeInner;
use hwsim::engine::{EventId, EventStamp};
use hwsim::SimDuration;
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

    pub(crate) fn raw(&self) -> EventId {
        self.id
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Event({:?})", self.id)
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
}
