//! What a command touches and the one rule that orders it.
//!
//! An [`Access`] says a command reads or may write a buffer's contents; a
//! [`Frontier`] is what a buffer remembers of the accesses so far — the
//! last writer and the readers since — and is the only statement of the
//! RAW / WAR / WAW rule in the workspace. A buffer keeps one frontier, of
//! [`Command`]s: each entry carries both halves of a command, its engine
//! event (the time plane) and its data-plane task. A queue consults it once
//! per command, under the engine lock, and takes both planes' predecessors
//! from that one consult (`CommandQueue::submit`): the time plane the one
//! that ends latest, the data plane every live task.

use crate::buffer::Buffer;
use crate::exec::TaskId;
use hwsim::engine::EventId;

/// One distinct buffer a command touches.
#[derive(Debug, Clone)]
pub struct Access {
    /// The buffer.
    pub buf: Buffer,
    /// Whether the command may write its contents.
    pub write: bool,
}

impl Access {
    /// A touch that leaves the contents as they are.
    pub fn read(buf: &Buffer) -> Access {
        Access { buf: buf.clone(), write: false }
    }

    /// A touch that may change the contents.
    pub fn write(buf: &Buffer) -> Access {
        Access { buf: buf.clone(), write: true }
    }
}

/// One command as both planes know it. A host-side write has no event
/// (`CommandQueue::enqueue_write_host`); a migration, a split's gather and
/// the first leg of a staged migration have no task.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Command {
    /// The engine event: what the time plane waits on.
    pub event: Option<EventId>,
    /// The data-plane task: what the executor orders after.
    pub task: Option<TaskId>,
}

/// The accesses to one buffer's contents that a later access can depend
/// on: the last writer, and the readers since that write.
#[derive(Debug)]
pub struct Frontier<Id> {
    writer: Option<Id>,
    readers: Vec<Id>,
    writes: u64,
}

impl<Id> Default for Frontier<Id> {
    fn default() -> Self {
        Frontier { writer: None, readers: Vec::new(), writes: 0 }
    }
}

impl<Id: Copy> Frontier<Id> {
    /// The commands the next access must follow. A reader follows the last
    /// writer (RAW); a writer follows the last writer (WAW) and every reader
    /// since (WAR). Readers never follow each other.
    pub fn predecessors(&self, write: bool) -> impl Iterator<Item = Id> + '_ {
        let readers = if write { self.readers.as_slice() } else { &[] };
        self.writer.into_iter().chain(readers.iter().copied())
    }

    /// Record `id`'s access as the newest: a write replaces the writer and
    /// clears the readers it has ordered itself after, a read joins them.
    pub fn record(&mut self, id: Id, write: bool) {
        if write {
            self.writer = Some(id);
            self.readers.clear();
            self.writes += 1;
        } else {
            self.readers.push(id);
        }
    }

    /// Record a write by replacing the writer with what `f` makes of it,
    /// keeping the readers: a write one plane alone orders, which leaves
    /// the other plane's half of the writer and its readers as they were.
    pub fn rewrite_writer(&mut self, f: impl FnOnce(Option<Id>) -> Id) {
        self.writer = Some(f(self.writer));
        self.writes += 1;
    }

    /// Forget every access and the write count, keeping the readers'
    /// capacity for the next buffer replayed through this frontier.
    pub fn clear(&mut self) {
        self.writer = None;
        self.readers.clear();
        self.writes = 0;
    }

    /// Forget the readers `live` rejects: a reader that has completed
    /// orders nothing any more. The writer is kept whatever its state — it
    /// is what says which contents the readers read.
    pub fn prune_readers(&mut self, live: impl FnMut(&Id) -> bool) {
        self.readers.retain(live);
    }

    /// Readers since the last write (pruned ones excluded).
    pub fn reader_count(&self) -> usize {
        self.readers.len()
    }

    /// Writes recorded since the frontier was new or cleared.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replay `(id, write)` accesses; the predecessors each one was given.
    fn replay(accesses: &[(u32, bool)]) -> Vec<Vec<u32>> {
        let mut f = Frontier::default();
        accesses
            .iter()
            .map(|&(id, write)| {
                let preds = f.predecessors(write).collect();
                f.record(id, write);
                preds
            })
            .collect()
    }

    #[test]
    fn the_rule_is_raw_war_waw_and_nothing_else() {
        const R: bool = false;
        const W: bool = true;
        /// What a row checks, the accesses, the last one's predecessors.
        type Row = (&'static str, &'static [(u32, bool)], &'static [u32]);
        let table: &[Row] = &[
            ("first touch", &[(0, R)], &[]),
            ("RAW", &[(0, W), (1, R)], &[0]),
            ("WAW", &[(0, W), (1, W)], &[0]),
            ("WAR", &[(0, R), (1, W)], &[0]),
            ("read after read adds nothing", &[(0, R), (1, R)], &[]),
            ("readers share the writer", &[(0, W), (1, R), (2, R)], &[0]),
            ("WAW + WAR", &[(0, W), (1, R), (2, R), (3, W)], &[0, 1, 2]),
            ("a write clears the readers", &[(0, R), (1, W), (2, W)], &[1]),
            ("a masked writer is gone", &[(0, W), (1, W), (2, R)], &[1]),
        ];
        for (what, accesses, expected) in table {
            assert_eq!(replay(accesses).last().unwrap(), expected, "{what}");
        }
    }

    #[test]
    fn pruning_drops_readers_and_never_the_writer() {
        let mut f = Frontier::default();
        f.record(7u32, true);
        f.record(8, false);
        f.record(9, false);
        f.prune_readers(|&id| id == 9);
        assert_eq!(f.reader_count(), 1);
        assert_eq!(f.predecessors(true).collect::<Vec<_>>(), [7, 9]);
        f.prune_readers(|_| false);
        assert_eq!(f.predecessors(true).collect::<Vec<_>>(), [7]);
        assert_eq!(f.predecessors(false).collect::<Vec<_>>(), [7]);
    }

    #[test]
    fn a_rewritten_writer_keeps_the_readers_and_counts_as_a_write() {
        let mut f = Frontier::default();
        f.record(7u32, true);
        f.record(8, false);
        f.rewrite_writer(|w| w.unwrap() + 10);
        assert_eq!(f.predecessors(true).collect::<Vec<_>>(), [17, 8]);
        assert_eq!(f.predecessors(false).collect::<Vec<_>>(), [17]);
        f.record(9, false);
        assert_eq!((f.reader_count(), f.writes()), (2, 2));
        f.clear();
        assert_eq!((f.predecessors(true).count(), f.writes()), (0, 0));
    }
}
