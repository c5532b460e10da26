//! The device mapper (paper §V-A): assign command queues to devices so that
//! the *concurrent* completion time (makespan) is minimal.
//!
//! The paper uses "a simple dynamic programming approach" over the queue set
//! and notes it "guarantees ideal queue–device mapping \[with\] negligible
//! overhead because the number of devices in present-day nodes is not high".
//! We implement an exact branch-and-bound search (equivalent optimality,
//! same small-input regime) — and, because the serving layer pushes far more
//! queues through a scheduling epoch than the paper's node-scale regime, we
//! scale it:
//!
//! * **Warm start**: the incumbent is seeded from the greedy solution
//!   refined by local search, and optionally from the previous epoch's
//!   assignment, so the bound is tight from the first node.
//! * **Symmetric-device deduplication**: devices with identical cost
//!   columns (the paper node's twin GPUs, a serving node's k identical
//!   accelerators) are interchangeable whenever their current loads tie;
//!   only the lowest-indexed representative is branched on.
//! * **Lower-bound pruning**: a branch is cut when even a perfect spread of
//!   the remaining work (`(assigned + remaining-min) / D`) cannot beat the
//!   incumbent.
//! * **Node budget** ([`adaptive`]): exact search runs under an
//!   explored-node cap; when the cap trips, the incumbent — never worse
//!   than greedy, by construction — is returned and the trip is reported.
//! * **Tie polish**: queues whose whole cost rows are identical can trade
//!   devices freely without touching either objective; among those tied
//!   permutations the search returns one that avoids runs of pool-adjacent
//!   queues on the same device, because queues flush in pool order and
//!   such runs serialize enqueues while other devices sit idle.
//!
//! All strategies share a caller-owned [`MapperScratch`] so the epoch hot
//! path does not allocate per decision.

use hwsim::{DeviceId, SimDuration};

/// Cost matrix: `costs[q][d]` is the estimated execution time of queue `q`'s
/// pending work if mapped to device `d` (kernel time + any data-migration
/// cost).
pub type CostMatrix = Vec<Vec<SimDuration>>;

/// Sentinel cost (one virtual year) written over a blacklisted device's
/// column. Every strategy — greedy, local search, branch-and-bound —
/// minimizes cost, so a column at this level is chosen only when
/// *no* healthy device exists. Keeping the column (instead of shrinking the
/// matrix) preserves global device indexing across epochs, which explain
/// records, warm starts, and migration bookkeeping all rely on.
pub const UNAVAILABLE_COST: SimDuration = SimDuration::from_nanos(31_536_000_000_000_000);

/// Inflate a predicted cost row by its relative uncertainty margin, in
/// place: every measured entry is scaled by `1 + rel_margin` (capped at
/// [`UNAVAILABLE_COST`]). Zero entries — the "unmeasured" sentinel for lost
/// devices — and already-blacklisted entries are left untouched. The
/// scheduler applies this to rows served by the cost *predictor* rather
/// than the profiler, so a queue only wins a device when its advantage
/// exceeds the model's own error bar (uncertainty-aware mapping).
pub fn inflate_uncertain(row: &mut [SimDuration], rel_margin: f64) {
    if rel_margin.is_nan() || rel_margin <= 0.0 {
        return;
    }
    for c in row.iter_mut() {
        if c.is_zero() || *c >= UNAVAILABLE_COST {
            continue;
        }
        *c = (*c * (1.0 + rel_margin)).min(UNAVAILABLE_COST);
    }
}

/// A queue→device assignment plus its predicted objective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// Device chosen for each queue, in queue order.
    pub assignment: Vec<DeviceId>,
    /// Predicted concurrent completion time.
    pub makespan: SimDuration,
    /// Total device time (the sum of every queue's chosen cost) — the
    /// secondary, tie-breaking objective.
    pub total: SimDuration,
}

/// What one mapping computation did, for telemetry: the mapping itself plus
/// the effort spent finding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// The chosen mapping.
    pub mapping: Mapping,
    /// Branch-and-bound nodes explored (0 when no exact search ran).
    pub nodes_explored: u64,
    /// True when the node budget tripped and the incumbent (greedy + local
    /// search, or the refined warm start) was returned instead of a proven
    /// optimum.
    pub budget_tripped: bool,
}

/// Reusable buffers for the mapping strategies. One instance per scheduler
/// is enough (passes are serialized); reusing it keeps the epoch hot path
/// allocation-free once the pool size has stabilized.
#[derive(Debug, Default)]
pub struct MapperScratch {
    load: Vec<SimDuration>,
    order: Vec<usize>,
    current: Vec<DeviceId>,
    best: Vec<DeviceId>,
    seed: Vec<DeviceId>,
    /// Suffix sums of per-queue minimum costs in search order.
    rem_min: Vec<SimDuration>,
    /// Column-equivalence class id per device (identical columns share one).
    class: Vec<usize>,
    /// Row-equivalence group id per queue (identical rows share one).
    gid: Vec<usize>,
    /// Per-device multiset counts used by the tie polish.
    count: Vec<u32>,
}

impl MapperScratch {
    /// A fresh scratch; buffers grow to fit the largest instance seen.
    pub fn new() -> MapperScratch {
        MapperScratch::default()
    }
}

/// Makespan of a given assignment under `costs`: per-device load is the sum
/// of its queues' costs; the makespan is the maximum load. `load` is a
/// caller-provided scratch slice with one slot per device — the function
/// itself allocates nothing.
pub fn makespan(
    costs: &CostMatrix,
    assignment: &[DeviceId],
    load: &mut [SimDuration],
) -> SimDuration {
    load.fill(SimDuration::ZERO);
    for (q, d) in assignment.iter().enumerate() {
        load[d.index()] += costs[q][d.index()];
    }
    load.iter().copied().max().unwrap_or(SimDuration::ZERO)
}

/// Shape-check a non-empty cost matrix: every row must have the same,
/// nonzero device count. Returns that count.
fn validate(costs: &CostMatrix) -> usize {
    let devices = costs[0].len();
    assert!(devices > 0, "cost matrix must have at least one device column");
    if let Some(row) = costs.iter().position(|row| row.len() != devices) {
        panic!("ragged cost matrix at queue {row}");
    }
    devices
}

fn empty_outcome() -> SearchOutcome {
    SearchOutcome {
        mapping: Mapping {
            assignment: vec![],
            makespan: SimDuration::ZERO,
            total: SimDuration::ZERO,
        },
        nodes_explored: 0,
        budget_tripped: false,
    }
}

/// The mapper's one search: warm-started, symmetry-pruned branch-and-bound
/// under `node_budget` explored nodes (`u64::MAX` is the exact search the
/// paper's node-scale pools get). Queues are explored in descending order
/// of their best-case cost, which tightens the bound early; the incumbent
/// is seeded with the greedy solution refined by local search, and with the
/// refined `warm` start (e.g. the previous epoch's assignment) if that is
/// no worse, so even the first node prunes against a realistic bound. When
/// the budget trips, the incumbent is returned with `budget_tripped` set;
/// either way the result is never worse than [`greedy`].
///
/// Ties on makespan are broken by the *total* device time: when one queue's
/// cost dominates the makespan either way, the others are still placed on
/// their individually fastest devices. Besides being the sensible secondary
/// objective, this keeps data resident where the next epoch will want it.
/// A warm start can only tighten the initial bound — the (makespan, total)
/// objective equals a cold search's; only which of several *tied*
/// assignments wins may differ (a warm start that ties the optimum is kept,
/// avoiding migrations).
pub fn adaptive(
    costs: &CostMatrix,
    warm: Option<&[DeviceId]>,
    node_budget: u64,
    scratch: &mut MapperScratch,
) -> SearchOutcome {
    let node_budget = node_budget.max(1);
    let queues = costs.len();
    if queues == 0 {
        return empty_outcome();
    }
    let devices = validate(costs);

    // --- Incumbent: greedy refined by local search, then the warm start
    // (also refined) if it beats that.
    greedy_assign(costs, &mut scratch.seed, &mut scratch.load);
    let mut best_obj = local_search_in_place(costs, &mut scratch.seed, &mut scratch.load);
    scratch.best.clear();
    scratch.best.extend_from_slice(&scratch.seed);
    if let Some(w) = warm {
        if w.len() == queues && w.iter().all(|d| d.index() < devices) {
            scratch.seed.clear();
            scratch.seed.extend_from_slice(w);
            let warm_obj = local_search_in_place(costs, &mut scratch.seed, &mut scratch.load);
            // `<=`: on a tie the warm start wins, keeping the previous
            // epoch's assignment and avoiding pointless migrations.
            if warm_obj <= best_obj {
                best_obj = warm_obj;
                scratch.best.clear();
                scratch.best.extend_from_slice(&scratch.seed);
            }
        }
    }

    // --- Search order: descending best-case cost, big rocks first.
    scratch.order.clear();
    scratch.order.extend(0..queues);
    scratch.order.sort_by_key(|&q| std::cmp::Reverse(row_min(&costs[q])));

    // Suffix sums of minimum costs: rem_min[i] = sum of min costs of the
    // queues at order positions i.. (rem_min[queues] = 0).
    scratch.rem_min.clear();
    scratch.rem_min.resize(queues + 1, SimDuration::ZERO);
    for i in (0..queues).rev() {
        scratch.rem_min[i] = scratch.rem_min[i + 1] + row_min(&costs[scratch.order[i]]);
    }

    // Column-equivalence classes: devices whose whole cost columns are
    // identical are interchangeable. class[d] is the lowest device index
    // with the same column.
    scratch.class.clear();
    for d in 0..devices {
        let rep = (0..d)
            .find(|&e| scratch.class[e] == e && (0..queues).all(|q| costs[q][e] == costs[q][d]))
            .unwrap_or(d);
        scratch.class.push(rep);
    }

    scratch.load.clear();
    scratch.load.resize(devices, SimDuration::ZERO);
    scratch.current.clear();
    scratch.current.resize(queues, DeviceId(0));

    let mut ctx = Dfs {
        costs,
        order: &scratch.order,
        rem_min: &scratch.rem_min,
        class: &scratch.class,
        load: &mut scratch.load,
        current: &mut scratch.current,
        best: &mut scratch.best,
        best_obj,
        nodes: 0,
        budget: node_budget,
        tripped: false,
    };
    ctx.dfs(0, SimDuration::ZERO, SimDuration::ZERO);
    let (best_obj, nodes, tripped) = (ctx.best_obj, ctx.nodes, ctx.tripped);

    interleave_ties(costs, scratch);
    debug_assert_eq!(
        makespan(costs, &scratch.best, &mut scratch.load),
        best_obj.0,
        "the tie polish must not change the objective"
    );
    let mapping =
        Mapping { assignment: scratch.best.clone(), makespan: best_obj.0, total: best_obj.1 };
    SearchOutcome { mapping, nodes_explored: nodes, budget_tripped: tripped }
}

/// Polish objective-tied placements for enqueue overlap: queues with
/// identical cost rows contribute the same load to whichever device they
/// land on, so permuting the chosen devices *within such a group* leaves
/// (makespan, total) — and every migration estimate, which is part of the
/// row — untouched. Real queues flush in pool order, though, and a run of
/// pool-adjacent queues bound to one device serializes its enqueues while
/// the other devices idle. Redistribute each group's device multiset
/// most-loaded-first, avoiding the previous pool position's device, and
/// keep the result only when it strictly reduces the number of adjacent
/// same-device pairs (so already-settled tied assignments, e.g. a kept
/// warm start, are not churned).
///
/// In the steady state, per-queue residency differentiates the rows and
/// every group is a singleton — the polish is a no-op exactly where warm
/// stability matters.
fn interleave_ties(costs: &CostMatrix, scratch: &mut MapperScratch) {
    let queues = scratch.best.len();
    if queues < 2 {
        return;
    }
    let devices = costs[0].len();
    if devices < 2 {
        return;
    }
    scratch.gid.clear();
    for q in 0..queues {
        let rep = (0..q).find(|&p| scratch.gid[p] == p && costs[p] == costs[q]).unwrap_or(q);
        scratch.gid.push(rep);
    }
    if (0..queues).all(|q| scratch.gid[q] == q) {
        return;
    }
    scratch.current.clear();
    scratch.current.extend_from_slice(&scratch.best);
    for rep in 0..queues {
        if scratch.gid[rep] != rep || !scratch.gid[rep + 1..].contains(&rep) {
            continue; // not a group representative, or a singleton group
        }
        scratch.count.clear();
        scratch.count.resize(devices, 0);
        for q in rep..queues {
            if scratch.gid[q] == rep {
                scratch.count[scratch.best[q].index()] += 1;
            }
        }
        for q in rep..queues {
            if scratch.gid[q] != rep {
                continue;
            }
            let prev = (q > 0).then(|| scratch.current[q - 1].index());
            // Spend the multiset most-frequent-first (the classic
            // no-adjacent-repeats order), preferring any device other than
            // the previous pool position's; ties go to the lowest index.
            let pick = (0..devices)
                .filter(|&d| scratch.count[d] > 0)
                .max_by_key(|&d| (Some(d) != prev, scratch.count[d], std::cmp::Reverse(d)))
                .expect("group multiset is non-empty");
            scratch.count[pick] -= 1;
            scratch.current[q] = DeviceId(pick);
        }
    }
    let repeats = |a: &[DeviceId]| a.windows(2).filter(|w| w[0] == w[1]).count();
    if repeats(&scratch.current) < repeats(&scratch.best) {
        scratch.best.clear();
        scratch.best.extend_from_slice(&scratch.current);
    }
}

fn row_min(row: &[SimDuration]) -> SimDuration {
    row.iter().copied().min().expect("non-empty cost row")
}

struct Dfs<'a> {
    costs: &'a CostMatrix,
    order: &'a [usize],
    rem_min: &'a [SimDuration],
    class: &'a [usize],
    load: &'a mut Vec<SimDuration>,
    current: &'a mut Vec<DeviceId>,
    best: &'a mut Vec<DeviceId>,
    best_obj: (SimDuration, SimDuration),
    nodes: u64,
    budget: u64,
    tripped: bool,
}

impl Dfs<'_> {
    /// `cur_max` is the maximum device load so far, `sum` the total
    /// assigned time (= sum of loads). Both objectives can only be
    /// *strictly* improved, which keeps ties deterministic: the incumbent
    /// (seeded, or first-found in device order) wins them.
    fn dfs(&mut self, depth: usize, cur_max: SimDuration, sum: SimDuration) {
        if depth == self.order.len() {
            if (cur_max, sum) < self.best_obj {
                self.best_obj = (cur_max, sum);
                self.best.clone_from(self.current);
            }
            return;
        }
        let q = self.order[depth];
        let devices = self.load.len();
        let rem = self.rem_min[depth + 1];
        for d in 0..devices {
            if self.tripped {
                return;
            }
            // Symmetry: among devices with identical cost columns and equal
            // current load, branching on more than the first is redundant.
            let rep = self.class[d];
            if rep < d && (rep..d).any(|e| self.class[e] == rep && self.load[e] == self.load[d]) {
                continue;
            }
            let cost = self.costs[q][d];
            let new_load = self.load[d] + cost;
            let new_max = cur_max.max(new_load);
            let new_sum = sum + cost;
            // Lower bounds on what any completion of this branch can reach:
            // the makespan is at least the current max and at least a
            // perfect spread of all work (assigned + remaining best-case);
            // the total is at least assigned + remaining best-case.
            let total_lb = new_sum + rem;
            let spread = SimDuration::from_nanos(total_lb.as_nanos().div_ceil(devices as u64));
            let ms_lb = new_max.max(spread);
            if ms_lb > self.best_obj.0 || (ms_lb == self.best_obj.0 && total_lb >= self.best_obj.1)
            {
                continue; // cannot strictly improve (makespan, total)
            }
            if self.nodes >= self.budget {
                self.tripped = true;
                return;
            }
            self.nodes += 1;
            self.load[d] = new_load;
            self.current[q] = DeviceId(d);
            self.dfs(depth + 1, new_max, new_sum);
            self.load[d] -= cost;
        }
    }
}

/// Greedy longest-processing-time heuristic: queues in descending best-cost
/// order, each placed on the device minimizing its completion time given
/// current loads. Cheap and usually good; the starting point of
/// [`local_search`] and the quality floor [`adaptive`] guarantees.
pub fn greedy(costs: &CostMatrix) -> Mapping {
    let queues = costs.len();
    if queues == 0 {
        return empty_outcome().mapping;
    }
    validate(costs);
    let mut assignment = Vec::new();
    let mut load = Vec::new();
    greedy_assign(costs, &mut assignment, &mut load);
    let ms = load.iter().copied().max().unwrap_or(SimDuration::ZERO);
    let total = load.iter().copied().sum();
    Mapping { assignment, makespan: ms, total }
}

/// Greedy into caller buffers; `load` holds the per-device loads on return.
fn greedy_assign(costs: &CostMatrix, assignment: &mut Vec<DeviceId>, load: &mut Vec<SimDuration>) {
    let queues = costs.len();
    let devices = costs[0].len();
    let mut order: Vec<usize> = (0..queues).collect();
    order.sort_by_key(|&q| std::cmp::Reverse(row_min(&costs[q])));
    load.clear();
    load.resize(devices, SimDuration::ZERO);
    assignment.clear();
    assignment.resize(queues, DeviceId(0));
    for &q in &order {
        let d = (0..devices).min_by_key(|&d| load[d] + costs[q][d]).expect("at least one device");
        load[d] += costs[q][d];
        assignment[q] = DeviceId(d);
    }
}

/// Refine `assignment` in place by steepest-descent local search over
/// single-queue moves and pairwise swaps, accepting only strict
/// (makespan, total) improvements — so the result is never worse than the
/// input, and the search terminates (the objective strictly decreases over
/// a finite space). Returns the refined mapping.
pub fn local_search(costs: &CostMatrix, assignment: &mut [DeviceId]) -> Mapping {
    let mut load = Vec::new();
    let (ms, total) = {
        let mut owned: Vec<DeviceId> = assignment.to_vec();
        let obj = local_search_in_place(costs, &mut owned, &mut load);
        assignment.copy_from_slice(&owned);
        obj
    };
    Mapping { assignment: assignment.to_vec(), makespan: ms, total }
}

/// Local-search core over caller buffers. Returns the refined objective.
fn local_search_in_place(
    costs: &CostMatrix,
    assignment: &mut [DeviceId],
    load: &mut Vec<SimDuration>,
) -> (SimDuration, SimDuration) {
    let queues = assignment.len();
    if queues == 0 {
        return (SimDuration::ZERO, SimDuration::ZERO);
    }
    let devices = costs[0].len();
    load.clear();
    load.resize(devices, SimDuration::ZERO);
    for (q, d) in assignment.iter().enumerate() {
        load[d.index()] += costs[q][d.index()];
    }
    let mut obj = (
        load.iter().copied().max().unwrap_or(SimDuration::ZERO),
        load.iter().copied().sum::<SimDuration>(),
    );
    // First-improvement passes; each accepted step strictly improves the
    // lexicographic objective, so the loop terminates.
    loop {
        let mut improved = false;
        // Moves: relocate one queue to another device.
        for q in 0..queues {
            for to in 0..devices {
                // Re-read inside the loop: an accepted move changes where
                // `q` lives mid-scan.
                let from = assignment[q].index();
                if to == from {
                    continue;
                }
                let new_from = load[from] - costs[q][from];
                let new_to = load[to] + costs[q][to];
                let ms = peak_except(load, from, to).max(new_from).max(new_to);
                let total = obj.1 - costs[q][from] + costs[q][to];
                if (ms, total) < obj {
                    load[from] = new_from;
                    load[to] = new_to;
                    assignment[q] = DeviceId(to);
                    obj = (ms, total);
                    improved = true;
                }
            }
        }
        // Swaps: exchange the devices of two queues.
        for a in 0..queues {
            for b in (a + 1)..queues {
                let (da, db) = (assignment[a].index(), assignment[b].index());
                if da == db {
                    continue;
                }
                let new_a = load[da] - costs[a][da] + costs[b][da];
                let new_b = load[db] - costs[b][db] + costs[a][db];
                let ms = peak_except(load, da, db).max(new_a).max(new_b);
                let total = obj.1 - costs[a][da] - costs[b][db] + costs[b][da] + costs[a][db];
                if (ms, total) < obj {
                    load[da] = new_a;
                    load[db] = new_b;
                    assignment.swap(a, b);
                    obj = (ms, total);
                    improved = true;
                }
            }
        }
        if !improved {
            return obj;
        }
    }
}

/// Maximum load over all devices except `x` and `y`.
fn peak_except(load: &[SimDuration], x: usize, y: usize) -> SimDuration {
    let mut peak = SimDuration::ZERO;
    for (d, &l) in load.iter().enumerate() {
        if d != x && d != y && l > peak {
            peak = l;
        }
    }
    peak
}

/// Greedy refined by [`local_search`] — the heuristic the adaptive mapper
/// falls back to; by construction never worse than [`greedy`] alone.
pub fn greedy_refined(costs: &CostMatrix) -> Mapping {
    let queues = costs.len();
    if queues == 0 {
        return empty_outcome().mapping;
    }
    validate(costs);
    let mut assignment = Vec::new();
    let mut load = Vec::new();
    greedy_assign(costs, &mut assignment, &mut load);
    let (ms, total) = local_search_in_place(costs, &mut assignment, &mut load);
    Mapping { assignment, makespan: ms, total }
}

/// The largest `D^Q` [`enumerate_assignments`] will materialize (~4M
/// assignments); beyond it the call panics instead of exhausting memory.
pub const MAX_ENUMERATION: usize = 1 << 22;

/// Enumerate every possible assignment of `queues` to `devices` (the paper's
/// "one can schedule four queues among three devices in 3^4 ways"). Used by
/// tests and the figure harness to verify AutoFit finds the true optimum.
///
/// # Panics
///
/// The space has `D^Q` assignments; the call panics if that overflows
/// `usize` or exceeds [`MAX_ENUMERATION`] — exhaustive enumeration at such
/// sizes is a bug in the caller (use [`adaptive`] instead).
pub fn enumerate_assignments(queues: usize, devices: usize) -> Vec<Vec<DeviceId>> {
    assert!(devices > 0);
    let total = u32::try_from(queues)
        .ok()
        .and_then(|q| devices.checked_pow(q))
        .filter(|&t| t <= MAX_ENUMERATION)
        .unwrap_or_else(|| {
            panic!(
                "enumerate_assignments({queues} queues, {devices} devices): \
                 D^Q exceeds the {MAX_ENUMERATION}-assignment enumeration bound; \
                 use mapper::adaptive for instances this large"
            )
        });
    let mut out = Vec::with_capacity(total);
    for mut code in 0..total {
        let mut a = Vec::with_capacity(queues);
        for _ in 0..queues {
            a.push(DeviceId(code % devices));
            code /= devices;
        }
        out.push(a);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// The exact search, cold: no warm start, no node budget.
    fn optimal(costs: &CostMatrix) -> Mapping {
        adaptive(costs, None, u64::MAX, &mut MapperScratch::new()).mapping
    }

    fn brute_best(costs: &CostMatrix, queues: usize, devices: usize) -> SimDuration {
        let mut load = vec![SimDuration::ZERO; devices];
        enumerate_assignments(queues, devices)
            .into_iter()
            .map(|a| makespan(costs, &a, &mut load))
            .min()
            .unwrap()
    }

    #[test]
    fn single_queue_picks_fastest_device() {
        let costs = vec![vec![ms(10), ms(5), ms(7)]];
        let m = optimal(&costs);
        assert_eq!(m.assignment, vec![DeviceId(1)]);
        assert_eq!(m.makespan, ms(5));
        assert_eq!(m.total, ms(5));
    }

    #[test]
    fn optimal_balances_load_across_devices() {
        // Two identical queues, one fast device: splitting beats stacking.
        let costs = vec![vec![ms(10), ms(12)], vec![ms(10), ms(12)]];
        let m = optimal(&costs);
        assert_eq!(m.makespan, ms(12));
        assert_ne!(m.assignment[0], m.assignment[1]);
    }

    #[test]
    fn optimal_matches_exhaustive_enumeration() {
        // Pseudo-random 4-queue × 3-device instance, checked against brute
        // force over all 81 assignments.
        let costs: CostMatrix = vec![
            vec![ms(13), ms(7), ms(9)],
            vec![ms(4), ms(22), ms(6)],
            vec![ms(11), ms(11), ms(2)],
            vec![ms(8), ms(3), ms(17)],
        ];
        let m = optimal(&costs);
        assert_eq!(m.makespan, brute_best(&costs, 4, 3));
        let mut load = vec![SimDuration::ZERO; 3];
        assert_eq!(makespan(&costs, &m.assignment, &mut load), m.makespan);
    }

    #[test]
    fn greedy_never_beats_optimal() {
        let costs: CostMatrix = vec![vec![ms(5), ms(9)], vec![ms(6), ms(4)], vec![ms(7), ms(8)]];
        assert!(greedy(&costs).makespan >= optimal(&costs).makespan);
    }

    #[test]
    fn local_search_never_worsens_and_fixes_bad_seeds() {
        let costs: CostMatrix = vec![
            vec![ms(10), ms(10), ms(10)],
            vec![ms(10), ms(10), ms(10)],
            vec![ms(10), ms(10), ms(10)],
        ];
        // Worst seed: everything stacked on one device.
        let mut a = vec![DeviceId(0); 3];
        let refined = local_search(&costs, &mut a);
        assert_eq!(refined.makespan, ms(10), "local search must spread the stack");
        let used: std::collections::HashSet<usize> = a.iter().map(|d| d.index()).collect();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn adaptive_matches_optimal_under_budget() {
        let costs: CostMatrix = vec![
            vec![ms(13), ms(7), ms(9)],
            vec![ms(4), ms(22), ms(6)],
            vec![ms(11), ms(11), ms(2)],
            vec![ms(8), ms(3), ms(17)],
        ];
        let mut scratch = MapperScratch::new();
        let out = adaptive(&costs, None, 1_000_000, &mut scratch);
        assert!(!out.budget_tripped);
        assert_eq!(out.mapping.makespan, optimal(&costs).makespan);
    }

    #[test]
    fn adaptive_trips_budget_but_stays_at_most_greedy() {
        // Large instance: 24 queues × 6 devices under a 16-node budget.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let costs: CostMatrix = (0..24)
            .map(|_| (0..6).map(|_| SimDuration::from_micros(1 + next() % 5_000)).collect())
            .collect();
        let mut scratch = MapperScratch::new();
        let out = adaptive(&costs, None, 16, &mut scratch);
        assert!(out.budget_tripped, "a 16-node budget cannot close a 6^24 space");
        assert!(out.nodes_explored <= 16 + 6, "budget bounds the work");
        assert!(out.mapping.makespan <= greedy(&costs).makespan);
        let mut load = vec![SimDuration::ZERO; 6];
        assert_eq!(makespan(&costs, &out.mapping.assignment, &mut load), out.mapping.makespan);
    }

    #[test]
    fn warm_start_ties_keep_the_previous_assignment() {
        // Two devices with identical columns: both spreads tie. A warm
        // start naming the "reversed" spread must be kept (no migration),
        // while the cold search settles on the canonical one.
        let costs: CostMatrix = vec![vec![ms(4), ms(4)], vec![ms(4), ms(4)]];
        let mut scratch = MapperScratch::new();
        let warm = vec![DeviceId(1), DeviceId(0)];
        let out = adaptive(&costs, Some(&warm), u64::MAX, &mut scratch);
        assert_eq!(out.mapping.assignment, warm);
        assert_eq!(out.mapping.makespan, ms(4));
        let cold = adaptive(&costs, None, u64::MAX, &mut scratch);
        assert_eq!(cold.mapping.makespan, ms(4));
        assert_eq!(cold.mapping.total, out.mapping.total);
    }

    #[test]
    fn invalid_warm_starts_are_ignored() {
        let costs: CostMatrix = vec![vec![ms(3), ms(9)], vec![ms(5), ms(6)]];
        let mut scratch = MapperScratch::new();
        let cold = adaptive(&costs, None, u64::MAX, &mut scratch);
        for bad in [vec![], vec![DeviceId(0)], vec![DeviceId(7), DeviceId(0)]] {
            let out = adaptive(&costs, Some(&bad), u64::MAX, &mut scratch);
            assert_eq!(out.mapping.makespan, cold.mapping.makespan);
            assert_eq!(out.mapping.total, cold.mapping.total);
        }
    }

    #[test]
    fn enumerate_covers_the_full_space() {
        let all = enumerate_assignments(4, 3);
        assert_eq!(all.len(), 81);
        let unique: std::collections::HashSet<Vec<usize>> =
            all.iter().map(|a| a.iter().map(|d| d.index()).collect()).collect();
        assert_eq!(unique.len(), 81);
    }

    #[test]
    #[should_panic(expected = "enumeration bound")]
    fn enumerate_rejects_oversized_spaces() {
        let _ = enumerate_assignments(64, 16);
    }

    #[test]
    #[should_panic(expected = "enumeration bound")]
    fn enumerate_rejects_just_over_the_bound() {
        // 2^23 = 8M > MAX_ENUMERATION, but far from usize overflow: the
        // capacity bound itself must fire, not only checked_pow.
        let _ = enumerate_assignments(23, 2);
    }

    #[test]
    fn empty_pool_yields_empty_mapping() {
        let m = optimal(&vec![]);
        assert!(m.assignment.is_empty());
        assert_eq!(m.makespan, SimDuration::ZERO);
    }

    #[test]
    fn makespan_accounts_device_sharing() {
        let costs = vec![vec![ms(10), ms(1)], vec![ms(10), ms(1)]];
        // Both on device 1: loads add up.
        let mut load = vec![SimDuration::ZERO; 2];
        let ms_val = makespan(&costs, &[DeviceId(1), DeviceId(1)], &mut load);
        assert_eq!(ms_val, ms(2));
        // The scratch is reusable: a second call over stale contents is
        // self-cleaning.
        let ms_val = makespan(&costs, &[DeviceId(0), DeviceId(1)], &mut load);
        assert_eq!(ms_val, ms(10));
    }

    #[test]
    fn zero_queues_are_consistent_across_strategies() {
        assert_eq!(optimal(&vec![]), greedy(&vec![]));
        assert_eq!(optimal(&vec![]), greedy_refined(&vec![]));
        assert_eq!(enumerate_assignments(0, 3), vec![Vec::<DeviceId>::new()]);
        assert_eq!(makespan(&vec![], &[], &mut [SimDuration::ZERO; 3]), SimDuration::ZERO);
    }

    #[test]
    fn one_device_stacks_everything_on_it() {
        let costs: CostMatrix = vec![vec![ms(3)], vec![ms(5)], vec![ms(2)]];
        let m = optimal(&costs);
        assert_eq!(m.assignment, vec![DeviceId(0); 3]);
        // With a single column the makespan is simply the sum.
        assert_eq!(m.makespan, ms(10));
        let g = greedy(&costs);
        assert_eq!(g.assignment, m.assignment);
        assert_eq!(g.makespan, m.makespan);
    }

    #[test]
    fn equal_cost_ties_resolve_deterministically_and_optimally() {
        // Every queue costs the same everywhere: many assignments tie on
        // makespan. The search must (a) still achieve the optimal makespan,
        // (b) return the same assignment on every run (no iteration-order
        // nondeterminism), and (c) spread the queues (stacking would double
        // the makespan).
        let costs: CostMatrix = vec![vec![ms(4), ms(4)], vec![ms(4), ms(4)]];
        let first = optimal(&costs);
        assert_eq!(first.makespan, brute_best(&costs, 2, 2));
        assert_eq!(first.makespan, ms(4));
        assert_ne!(first.assignment[0], first.assignment[1]);
        for _ in 0..10 {
            assert_eq!(optimal(&costs), first);
        }
        // A larger symmetric tie: 3 queues × 3 identical devices.
        let costs: CostMatrix = vec![vec![ms(6); 3], vec![ms(6); 3], vec![ms(6); 3]];
        let m = optimal(&costs);
        assert_eq!(m.makespan, ms(6));
        let used: std::collections::HashSet<usize> =
            m.assignment.iter().map(|d| d.index()).collect();
        assert_eq!(used.len(), 3, "ties must still spread queues: {:?}", m.assignment);
        for _ in 0..10 {
            assert_eq!(optimal(&costs), m);
        }
    }

    #[test]
    fn tied_identical_queues_interleave_across_devices() {
        // Four identical queues on twin devices: every 2+2 split ties on
        // (makespan, total), but queues flush in pool order, so a blocked
        // split serializes enqueues. The search must return an interleaved
        // tied split.
        let costs: CostMatrix = vec![vec![ms(4), ms(4)]; 4];
        let m = optimal(&costs);
        assert_eq!(m.makespan, ms(8));
        for w in m.assignment.windows(2) {
            assert_ne!(w[0], w[1], "blocked tie survived: {:?}", m.assignment);
        }
        // Even a blocked warm start (objective-tied, so it wins the
        // incumbent seat) must come out interleaved.
        let warm = vec![DeviceId(0), DeviceId(0), DeviceId(1), DeviceId(1)];
        let mut scratch = MapperScratch::new();
        let out = adaptive(&costs, Some(&warm), u64::MAX, &mut scratch);
        assert_eq!(out.mapping.makespan, ms(8));
        for w in out.mapping.assignment.windows(2) {
            assert_ne!(w[0], w[1], "blocked warm tie survived: {:?}", out.mapping.assignment);
        }
        // Distinct rows are never regrouped: the polish only permutes
        // placements the cost model genuinely cannot tell apart.
        let costs: CostMatrix =
            vec![vec![ms(4), ms(4)], vec![ms(5), ms(5)], vec![ms(4), ms(4)], vec![ms(5), ms(5)]];
        let m = optimal(&costs);
        assert_eq!(m.makespan, ms(9));
    }

    #[test]
    fn symmetry_pruning_preserves_optimality_on_twin_devices() {
        // Paper-node shape: one distinct column + two identical columns
        // (the twin GPUs). The symmetry-pruned search must still match
        // brute force.
        let costs: CostMatrix = vec![
            vec![ms(9), ms(3), ms(3)],
            vec![ms(2), ms(8), ms(8)],
            vec![ms(5), ms(4), ms(4)],
            vec![ms(7), ms(6), ms(6)],
            vec![ms(1), ms(12), ms(12)],
        ];
        let m = optimal(&costs);
        assert_eq!(m.makespan, brute_best(&costs, 5, 3));
    }

    #[test]
    fn scratch_is_reusable_across_differently_sized_instances() {
        let mut scratch = MapperScratch::new();
        let big: CostMatrix =
            (0..8).map(|q| (0..4).map(|d| ms(1 + (q * 3 + d) % 7)).collect()).collect();
        let small: CostMatrix = vec![vec![ms(2), ms(5)]];
        let b1 = adaptive(&big, None, u64::MAX, &mut scratch).mapping;
        let s1 = adaptive(&small, None, u64::MAX, &mut scratch).mapping;
        assert_eq!(b1, optimal(&big));
        assert_eq!(s1, optimal(&small));
        // And again, to catch stale-buffer bugs.
        assert_eq!(adaptive(&big, None, u64::MAX, &mut scratch).mapping, b1);
    }

    /// Blacklist device `d` by overwriting its column with the sentinel —
    /// exactly what the scheduler does at an epoch boundary.
    fn blacklist(costs: &mut CostMatrix, d: usize) {
        for row in costs.iter_mut() {
            row[d] = UNAVAILABLE_COST;
        }
    }

    #[test]
    fn blacklisted_device_is_avoided_by_every_strategy() {
        let mut costs: CostMatrix = vec![
            vec![ms(1), ms(4), ms(6)],
            vec![ms(1), ms(5), ms(7)],
            vec![ms(1), ms(3), ms(8)],
            vec![ms(1), ms(6), ms(9)],
        ];
        // Device 0 is everyone's favourite — then it dies.
        blacklist(&mut costs, 0);
        let mut scratch = MapperScratch::new();
        let mut load = vec![SimDuration::ZERO; 3];

        let m = adaptive(&costs, None, u64::MAX, &mut scratch).mapping;
        assert!(m.assignment.iter().all(|d| d.index() != 0), "{:?}", m.assignment);
        assert!(m.makespan < UNAVAILABLE_COST);

        let mut g = vec![DeviceId(0); costs.len()];
        greedy_assign(&costs, &mut g, &mut load);
        assert!(g.iter().all(|d| d.index() != 0), "greedy chose the dead device: {g:?}");

        let a = adaptive(&costs, None, 1, &mut scratch).mapping;
        assert!(a.assignment.iter().all(|d| d.index() != 0), "{:?}", a.assignment);
    }

    #[test]
    fn warm_start_bound_to_a_blacklisted_device_is_recovered_from() {
        let mut costs: CostMatrix =
            vec![vec![ms(2), ms(4), ms(5)], vec![ms(2), ms(4), ms(5)], vec![ms(2), ms(4), ms(5)]];
        // Previous epoch mapped everything onto device 0; it then died. The
        // warm start is still index-valid (the column remains), so it is
        // refined — and the refinement must walk every queue off the
        // sentinel column.
        blacklist(&mut costs, 0);
        let warm = vec![DeviceId(0), DeviceId(0), DeviceId(0)];
        let mut scratch = MapperScratch::new();
        let out = adaptive(&costs, Some(&warm), u64::MAX, &mut scratch);
        assert!(
            out.mapping.assignment.iter().all(|d| d.index() != 0),
            "warm start pinned work to the dead device: {:?}",
            out.mapping.assignment
        );
        assert_eq!(out.mapping.makespan, ms(8), "two queues share one healthy device");
    }
}
