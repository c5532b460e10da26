//! `ooo::hazard_edges` held to the textbook statement of data dependence,
//! written here from scratch so that the rule is checked against its
//! definition and not against another incremental last-writer / readers
//! tracker like itself:
//!
//! `(i, j)` is an edge iff `i < j`, both commands touch some buffer `b`, at
//! least one of them writes `b`, and no command strictly between them
//! writes `b`.

use hwsim::xrand::XorShift;
use hwsim::SimDuration;
use multicl::ooo::{hazard_edges, BatchCmd};

const BUFFERS: u64 = 4;

fn touches(c: &BatchCmd, b: u64) -> bool {
    c.reads.contains(&b) || c.writes.contains(&b)
}

fn textbook_edges(cmds: &[BatchCmd]) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for i in 0..cmds.len() {
        for j in i + 1..cmds.len() {
            let dependent = (0..BUFFERS).any(|b| {
                touches(&cmds[i], b)
                    && touches(&cmds[j], b)
                    && (cmds[i].writes.contains(&b) || cmds[j].writes.contains(&b))
                    && !cmds[i + 1..j].iter().any(|k| k.writes.contains(&b))
            });
            if dependent {
                edges.push((i, j));
            }
        }
    }
    edges
}

/// A random subset of the buffers, each with probability 1/3.
fn subset(rng: &mut XorShift) -> Vec<u64> {
    (0..BUFFERS).filter(|_| rng.index(3) == 0).collect()
}

#[test]
fn hazard_edges_are_exactly_the_textbook_dependences() {
    for seed in 0..400u64 {
        let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let len = 1 + rng.index(14);
        let cmds: Vec<BatchCmd> = (0..len)
            .map(|_| {
                let writes = subset(&mut rng);
                let mut reads = subset(&mut rng);
                // The scheduler hands over disjoint sets (a buffer bound
                // both ways is a write); one seed in four keeps the overlap
                // to hold the self-edge guard to the same statement.
                if seed % 4 != 0 {
                    reads.retain(|b| !writes.contains(b));
                }
                BatchCmd { reads, writes, transfer: SimDuration::ZERO, kernel: SimDuration::ZERO }
            })
            .collect();
        assert_eq!(hazard_edges(&cmds), textbook_edges(&cmds), "seed {seed}: {cmds:?}");
    }
}
