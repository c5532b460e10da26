//! What a command touches and the one rule that orders it.
//!
//! An [`Access`] says a command reads or may write a buffer's contents; a
//! [`Frontier`] is what a buffer remembers of the accesses so far — the
//! last writer and the readers since — and is the only statement of the
//! RAW / WAR / WAW rule in the workspace. Every layer that orders commands
//! by their buffer sets keeps frontiers and differs only in what it calls
//! a command: the time plane an engine event (virtual-time wait lists, one
//! frontier per buffer), the data plane a task (executor edges, likewise),
//! `multicl`'s batch reorderer a position in the batch.

use crate::buffer::Buffer;

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

/// The accesses to one buffer's contents that a later access can depend
/// on: the last writer, and the readers since that write.
#[derive(Debug)]
pub struct Frontier<Id> {
    writer: Option<Id>,
    readers: Vec<Id>,
}

impl<Id> Default for Frontier<Id> {
    fn default() -> Self {
        Frontier { writer: None, readers: Vec::new() }
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
        } else {
            self.readers.push(id);
        }
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
}
