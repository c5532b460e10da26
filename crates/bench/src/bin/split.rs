//! Data-parallel kernel splitting bench: multi-device speedup from
//! cutting one EP-class launch into NDRange sub-ranges.
//!
//! Runs the batch unsplit (best single device under `SCHED_AUTO_DYNAMIC`)
//! and split (`SCHED_SPLITTABLE`: one cost-proportional chunk per device),
//! and gates on four invariants (exit 1, one `error:` line per violated
//! gate):
//!
//! 1. result buffers bit-identical split vs. unsplit,
//! 2. with the flag off, a same-seed rerun replays the exact trace,
//! 3. the split arm ran kernel commands on ≥ 2 devices,
//! 4. the split arm is ≥ 1.3x faster in virtual time than the best single
//!    device.
//!
//! Writes `results/BENCH_split.json` (and a CSV of the table).
//!
//! Usage: `cargo run --release -p multicl-bench --bin split [SEED] [LAUNCHES]`
//! Pass `--smoke` for the CI variant: a small batch, same gates.

use multicl_bench::experiments::split;
use multicl_bench::{print_table, write_report};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let seed: u64 = positional.first().and_then(|s| s.parse().ok()).unwrap_or(42);
    let launches: usize =
        positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(if smoke { 2 } else { 6 });
    let elements: usize = if smoke { 1 << 14 } else { 1 << 18 };

    let unsplit = split::run_arm(seed, elements, launches, false);
    let replay = split::run_arm(seed, elements, launches, false);
    let split_arm = split::run_arm(seed, elements, launches, true);

    let table = split::table(&unsplit, &split_arm);
    print_table(&table);

    let json = split::to_json(seed, elements, launches, &unsplit, &split_arm);
    if let Some(path) = write_report("BENCH_split.json", &(json.dump() + "\n")) {
        println!("wrote {}", path.display());
    }
    if let Some(path) = write_report("split.csv", &table.to_csv()) {
        println!("wrote {}", path.display());
    }

    let violations = split::violations(&unsplit, &replay, &split_arm);
    if violations.is_empty() {
        println!(
            "result buffers bit-identical split vs. unsplit, flag-off same-seed replay \
             byte-identical, split speedup {:.2}x (gate: \u{2265}1.3x) \u{2713}",
            split::speedup(&unsplit, &split_arm)
        );
    } else {
        eprintln!("error: split violations:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
