//! Out-of-order epoch execution bench: makespan reduction from
//! command-DAG reordering and transfer/compute overlap in virtual time.
//!
//! Runs the staged task-parallel batch twice — in-order and
//! `SCHED_OUT_OF_ORDER` — and gates on three invariants (exit 1, one
//! `error:` line per violated gate):
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

    let json = overlap::to_json(seed, elements, tasks, &[&in_order, &ooo]);
    if let Some(path) = write_report("BENCH_overlap.json", &(json.dump() + "\n")) {
        println!("wrote {}", path.display());
    }
    if let Some(path) = write_report("overlap.csv", &table.to_csv()) {
        println!("wrote {}", path.display());
    }

    let violations = overlap::violations(&in_order, &replay, &ooo);
    if violations.is_empty() {
        println!(
            "final buffers bit-identical across arms, flag-off same-seed replay byte-identical, \
             makespan reduction {:.1}% (gate: \u{2265}15%) \u{2713}",
            overlap::reduction(&in_order, &ooo) * 100.0
        );
    } else {
        eprintln!("error: overlap violations:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
