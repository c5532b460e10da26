//! Data-parallel kernel splitting bench: multi-device speedup from
//! partitioning one EP-class launch into NDRange sub-ranges.
//!
//! Runs the batch unsplit (best single device under `SCHED_AUTO_DYNAMIC`)
//! and once per partitioner with `SCHED_SPLITTABLE`, and gates on four
//! invariants (exit 1, one `error:` line per violated gate):
//!
//! 1. result buffers bit-identical split vs. unsplit, for every
//!    partitioner,
//! 2. with the flag off, a same-seed rerun replays the exact trace,
//! 3. every split arm ran kernel commands on ≥ 2 devices,
//! 4. the best split arm is ≥ 1.3x faster in virtual time than the best
//!    single device.
//!
//! Writes `results/BENCH_split.json` (and a CSV of the table).
//!
//! Usage: `cargo run --release -p multicl-bench --bin split [SEED] [LAUNCHES]`
//! Pass `--smoke` for the CI variant: a small batch, same gates.

use multicl::SplitPartitioner;
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

    let unsplit = split::run_arm(seed, elements, launches, None);
    let replay = split::run_arm(seed, elements, launches, None);
    // Chunk granularity scales with the launch so the dynamic
    // partitioners keep per-chunk gather overhead proportional.
    let total_wgs = (elements as u64) / split::LOCAL;
    let arms: Vec<split::SplitPoint> = [
        SplitPartitioner::Static,
        SplitPartitioner::Chunked { chunk_wgs: (total_wgs / 8).max(1) },
        SplitPartitioner::HGuided { min_wgs: (total_wgs / 32).max(1) },
    ]
    .into_iter()
    .map(|p| split::run_arm(seed, elements, launches, Some(p)))
    .collect();
    let arm_refs: Vec<&split::SplitPoint> = arms.iter().collect();

    let table = split::table(&unsplit, &arm_refs);
    print_table(&table);

    let json = split::to_json(seed, elements, launches, &unsplit, &arm_refs);
    if let Some(path) = write_report("BENCH_split.json", &(json.dump() + "\n")) {
        println!("wrote {}", path.display());
    }
    if let Some(path) = write_report("split.csv", &table.to_csv()) {
        println!("wrote {}", path.display());
    }

    let violations = split::violations(&unsplit, &replay, &arm_refs);
    if violations.is_empty() {
        let best = arms.iter().map(|p| split::speedup(&unsplit, p)).fold(0.0, f64::max);
        println!(
            "result buffers bit-identical across all arms, flag-off same-seed replay \
             byte-identical, best split speedup {best:.2}x (gate: \u{2265}1.3x) \u{2713}"
        );
    } else {
        eprintln!("error: split violations:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
