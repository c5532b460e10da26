//! Out-of-order epoch execution bench: makespan reduction from
//! command-DAG reordering and transfer/compute overlap in virtual time.
//!
//! Runs the staged task-parallel batch twice — in-order and
//! `SCHED_OUT_OF_ORDER` — and gates on three invariants:
//!
//! 1. final output buffers bit-identical between the arms,
//! 2. with the flag off, a same-seed rerun replays the exact trace,
//! 3. the out-of-order arm cuts the virtual-time makespan by ≥ 15%.
//!
//! Writes `results/BENCH_overlap.json` (and a CSV of the table).
//!
//! Usage: `cargo run --release -p multicl-bench --bin overlap [SEED] [TASKS]`
//! Pass `--smoke` for the CI variant: a small batch, same gates.

use multicl_bench::experiments::overlap;
use multicl_bench::{print_table, write_report};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let seed: u64 = positional.first().and_then(|s| s.parse().ok()).unwrap_or(42);
    let tasks: usize =
        positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(if smoke { 8 } else { 24 });
    let elements: usize = if smoke { 1 << 14 } else { 1 << 19 };

    let in_order = overlap::run_arm(seed, elements, tasks, false);
    let replay = overlap::run_arm(seed, elements, tasks, false);
    let ooo = overlap::run_arm(seed, elements, tasks, true);

    let table = overlap::table(&in_order, &ooo);
    print_table(&table);

    assert_eq!(
        in_order.output_digest, ooo.output_digest,
        "out-of-order arm changed buffer contents"
    );
    println!("final buffers bit-identical across arms \u{2713}");
    assert_eq!(
        in_order.trace_fingerprint, replay.trace_fingerprint,
        "flag-off same-seed rerun did not replay byte-identically"
    );
    println!("flag-off same-seed replay byte-identical \u{2713}");

    let reduction = overlap::reduction(&in_order, &ooo);
    assert!(
        reduction >= 0.15,
        "expected \u{2265}15% virtual-time makespan reduction, got {:.1}% \
         ({:.3} ms in-order vs {:.3} ms out-of-order)",
        reduction * 100.0,
        in_order.makespan_ms,
        ooo.makespan_ms
    );
    println!("makespan reduction {:.1}% (gate: \u{2265}15%) \u{2713}", reduction * 100.0);
    assert_eq!(in_order.commands_reordered, 0, "the in-order arm reordered commands");
    assert!(ooo.commands_reordered > 0, "the out-of-order arm reordered nothing");
    assert!(
        ooo.lane_overlap.iter().any(|&(_, fraction)| fraction > 0.0),
        "no device overlapped its copy and compute lanes: {:?}",
        ooo.lane_overlap
    );

    let json = overlap::to_json(seed, elements, tasks, &[&in_order, &ooo]);
    if let Some(path) = write_report("BENCH_overlap.json", &(json.dump() + "\n")) {
        println!("wrote {}", path.display());
    }
    if let Some(path) = write_report("overlap.csv", &table.to_csv()) {
        println!("wrote {}", path.display());
    }
}
