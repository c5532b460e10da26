//! Epoch-level command-DAG batch reordering for out-of-order queues.
//!
//! When a queue carries [`crate::QueueSchedFlags::SCHED_OUT_OF_ORDER`], the
//! epoch flush no longer has to replay its buffered launches in program
//! order: the underlying `clrt` queue derives event wait lists from the
//! buffer hazard sets (RAW/WAR/WAW), so any emission order that exists is
//! *correct* — the interesting question is which order makes the device's
//! copy lane overlap its compute lane best in virtual time.
//!
//! This module implements the batch-reordering heuristic of Lázaro-Muñoz
//! et al. (*"A dynamic command scheduling approach for OpenCL out-of-order
//! queues"*): model each command as a two-stage job — its input staging
//! transfer on the copy lane followed by its kernel on the compute lane —
//! and order the batch by **Johnson's rule** for the two-machine flow shop,
//! restricted at every step to commands whose hazard-edge predecessors have
//! already been emitted (a list schedule over the command DAG).
//!
//! This module orders; it does not clock. What an order costs — and what an
//! out-of-order queue's overlap row is — is the plan's replay
//! (`plan::replayed_end`), which runs commands on each device's two lanes.

use clrt::hazard::Frontier;
use hwsim::SimDuration;

/// One schedulable command of an epoch batch, as the reorderer sees it:
/// its hazard sets (distinct buffer ids) and its estimated time on each
/// of the device's two lanes.
#[derive(Debug, Clone, Default)]
pub struct BatchCmd {
    /// Buffer ids the command reads (excluding ones it also writes).
    pub reads: Vec<u64>,
    /// Buffer ids the command writes.
    pub writes: Vec<u64>,
    /// Estimated copy-lane time: the first-touch staging transfers this
    /// command triggers on its device (zero when everything is resident).
    pub transfer: SimDuration,
    /// Estimated compute-lane time of the kernel itself.
    pub kernel: SimDuration,
}

/// Hazard edges of a batch ([`Scratch::hazard_edges`]) in a fresh scratch.
pub fn hazard_edges(cmds: &[BatchCmd]) -> Vec<(usize, usize)> {
    Scratch::default().hazard_edges(cmds).to_vec()
}

/// What the reorderer works in, kept by its caller from batch to batch so
/// that a steady epoch allocates nothing here. It holds the hazard DAG of
/// the last [`Scratch::hazard_edges`] call, which [`Scratch::johnson_order`]
/// schedules.
#[derive(Debug, Default)]
pub struct Scratch {
    /// `(buffer, command, write)` for every access of the batch.
    accesses: Vec<(u64, usize, bool)>,
    frontier: Frontier<usize>,
    /// The DAG as flat adjacency: `edges[first[i]..first[i + 1]]` are
    /// command `i`'s out-edges.
    edges: Vec<(usize, usize)>,
    first: Vec<usize>,
    indegree: Vec<usize>,
    ready: Vec<usize>,
    order: Vec<usize>,
}

impl Scratch {
    /// Hazard edges `(i, j)` (`i` must precede `j`, `i < j`) of a batch: the
    /// RAW / WAR / WAW predecessors ([`Frontier::predecessors`]) of every
    /// command over the commands' buffer sets, a command being its position
    /// in the batch.
    ///
    /// Edges are deduplicated and returned sorted by `(i, j)`; they are the
    /// DAG [`Scratch::johnson_order`] schedules until the next call.
    pub fn hazard_edges(&mut self, cmds: &[BatchCmd]) -> &[(usize, usize)] {
        self.accesses.clear();
        for (j, cmd) in cmds.iter().enumerate() {
            self.accesses.extend(cmd.reads.iter().map(|&b| (b, j, false)));
            self.accesses.extend(cmd.writes.iter().map(|&b| (b, j, true)));
        }
        // Buffer by buffer, in batch order, a command's read before its
        // write: one that reads and writes a buffer has recorded itself as a
        // reader by the time it writes — no self-edge.
        self.accesses.sort_unstable();
        self.edges.clear();
        for run in self.accesses.chunk_by(|a, b| a.0 == b.0) {
            self.frontier.clear();
            for &(_, j, write) in run {
                let preds = self.frontier.predecessors(write).filter(|&i| i != j);
                self.edges.extend(preds.map(|i| (i, j)));
                self.frontier.record(j, write);
            }
        }
        self.edges.sort_unstable();
        self.edges.dedup();
        self.first.clear();
        self.first.extend((0..=cmds.len()).map(|i| self.edges.partition_point(|e| e.0 < i)));
        &self.edges
    }

    /// Johnson's-rule list schedule over the current hazard DAG: repeatedly
    /// emit, among the commands whose predecessors have all been emitted,
    /// the one Johnson's two-machine rule ranks first — transfer-light jobs
    /// (`transfer ≤ kernel`) ascending by transfer, then transfer-heavy jobs
    /// descending by kernel. Ties break on the original index, so the
    /// schedule is deterministic and a batch of identical jobs keeps program
    /// order.
    ///
    /// Returns the emission order as a permutation of `0..cmds.len()`.
    pub fn johnson_order(&mut self, cmds: &[BatchCmd]) -> &[usize] {
        let n = cmds.len();
        self.indegree.clear();
        self.indegree.resize(n, 0);
        for &(_, j) in &self.edges {
            self.indegree[j] += 1;
        }
        // Johnson key: class 0 jobs sort ascending by transfer, class 1 jobs
        // descending by kernel; the index tie-break keeps it a total order.
        let key = |i: usize| -> (u8, u64, usize) {
            let c = &cmds[i];
            if c.transfer <= c.kernel {
                (0, c.transfer.as_nanos(), i)
            } else {
                (1, u64::MAX - c.kernel.as_nanos(), i)
            }
        };
        self.ready.clear();
        self.ready.extend((0..n).filter(|&i| self.indegree[i] == 0));
        self.order.clear();
        while let Some(pos) = (0..self.ready.len()).min_by_key(|&p| key(self.ready[p])) {
            let i = self.ready.swap_remove(pos);
            self.order.push(i);
            for &(_, j) in &self.edges[self.first[i]..self.first[i + 1]] {
                self.indegree[j] -= 1;
                if self.indegree[j] == 0 {
                    self.ready.push(j);
                }
            }
        }
        debug_assert_eq!(self.order.len(), n, "hazard edges must form a DAG");
        &self.order
    }
}

/// Number of commands a schedule displaced from their program position —
/// the `commands_reordered` figure telemetry reports per epoch.
pub fn count_displaced(order: &[usize]) -> u64 {
    order.iter().enumerate().filter(|&(pos, &i)| pos != i).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(reads: &[u64], writes: &[u64], transfer: u64, kernel: u64) -> BatchCmd {
        BatchCmd {
            reads: reads.to_vec(),
            writes: writes.to_vec(),
            transfer: SimDuration::from_nanos(transfer),
            kernel: SimDuration::from_nanos(kernel),
        }
    }

    #[test]
    fn hazard_edges_cover_raw_war_waw() {
        // 0 writes b, 1 reads b (RAW), 2 writes b (WAW vs 0 is masked by
        // the intervening read clear — WAR vs 1 and WAW vs 0).
        let cmds = [cmd(&[], &[1], 0, 10), cmd(&[1], &[], 0, 10), cmd(&[], &[1], 0, 10)];
        let edges = hazard_edges(&cmds);
        assert!(edges.contains(&(0, 1)), "RAW: {edges:?}");
        assert!(edges.contains(&(0, 2)), "WAW: {edges:?}");
        assert!(edges.contains(&(1, 2)), "WAR: {edges:?}");
    }

    #[test]
    fn independent_commands_have_no_edges() {
        let cmds = [cmd(&[], &[1], 5, 10), cmd(&[], &[2], 5, 10), cmd(&[3], &[4], 5, 10)];
        assert!(hazard_edges(&cmds).is_empty());
    }

    #[test]
    fn johnson_puts_transfer_light_jobs_first() {
        // Classic two-machine instance: the transfer-heavy job must go
        // last so its copy time hides under the others' kernels (the plan's
        // tests replay that it ends sooner than program order).
        let cmds = [cmd(&[], &[1], 90, 10), cmd(&[], &[2], 10, 80), cmd(&[], &[3], 30, 60)];
        let mut s = Scratch::default();
        assert!(s.hazard_edges(&cmds).is_empty());
        assert_eq!(s.johnson_order(&cmds), [1, 2, 0]);
    }

    #[test]
    fn hazard_edges_constrain_johnson() {
        // Job 2 is transfer-light (Johnson would front it) but RAW-depends
        // on job 0; the list schedule must hold it back.
        let cmds = [cmd(&[], &[1], 50, 10), cmd(&[], &[2], 20, 40), cmd(&[1], &[], 5, 30)];
        let mut s = Scratch::default();
        s.hazard_edges(&cmds);
        let order = s.johnson_order(&cmds);
        let p0 = order.iter().position(|&i| i == 0).unwrap();
        let p2 = order.iter().position(|&i| i == 2).unwrap();
        assert!(p0 < p2, "dependent command emitted before its producer: {order:?}");
    }

    #[test]
    fn identity_order_counts_zero_displacements() {
        assert_eq!(count_displaced(&[0, 1, 2]), 0);
        assert_eq!(count_displaced(&[1, 0, 2]), 2);
    }
}
