//! Causal-tracing benchmark: exact critical-path attribution, per-epoch
//! predicted-vs-actual makespan error for `AUTO_FIT` and `ROUND_ROBIN`,
//! same-seed bit-identical event streams, and the ≤ 5% observer-overhead
//! gate. Exits non-zero on any violation.
//!
//! Writes, under `results/`:
//! * `BENCH_tracing.json` — the structured report,
//! * `tracing_events.jsonl` — the `AUTO_FIT` event stream (feed it to
//!   `trace_query` for waterfalls and top-K segments),
//! * `tracing_sample.trace.json` — a Perfetto trace with job tracks and
//!   dispatch flow arrows.
//!
//! Usage: `cargo run --release -p multicl-bench --bin tracing [--smoke] [SEED] [JOBS]`

use multicl::telemetry::sink::parse_jsonl;
use multicl_bench::experiments::tracing;
use multicl_bench::{print_table, write_report};

const EVENTS_FILE: &str = "tracing_events.jsonl";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let nums: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let seed: u64 = nums.first().and_then(|s| s.parse().ok()).unwrap_or(42);
    let jobs: usize =
        nums.get(1).and_then(|s| s.parse().ok()).unwrap_or(if smoke { 24 } else { 64 });

    let report = tracing::run(seed, jobs, smoke);
    print_table(&tracing::table(&report));
    println!(
        "observer overhead: {:.2}% ({:.4}s plain, {:.4}s traced)",
        100.0 * report.overhead.overhead_frac,
        report.overhead.plain_wall_s,
        report.overhead.traced_wall_s
    );

    let auto_fit_jsonl = report
        .points
        .iter()
        .find(|p| p.policy == "auto_fit")
        .map(|p| p.events_jsonl.clone())
        .unwrap_or_default();
    let mut violations = tracing::violations(&report);
    for (file, contents) in [
        ("BENCH_tracing.json", tracing::to_json(&report, seed, jobs).dump()),
        (EVENTS_FILE, auto_fit_jsonl),
        ("tracing_sample.trace.json", report.sample_trace.clone()),
    ] {
        let Some(path) = write_report(file, &contents) else { continue };
        println!("wrote {}", path.display());
        // The streamed file must be the file the replay tools read: every
        // line of it decodes, strictly, none skipped.
        if file == EVENTS_FILE {
            let reread = std::fs::read_to_string(&path).ok();
            let decoded = reread.as_deref().and_then(parse_jsonl).map_or(0, |events| events.len());
            let lines = contents.lines().count();
            if decoded == 0 || decoded != lines {
                violations.push(format!(
                    "{} does not re-parse with `parse_jsonl`: {decoded} of {lines} lines decoded",
                    path.display()
                ));
            }
        }
    }

    if violations.is_empty() {
        println!(
            "tracing holds over {} polic(ies) (seed {seed}, {jobs} jobs/policy, every stream \
             bit-identical across two same-seed runs)",
            report.points.len()
        );
    } else {
        eprintln!("error: tracing violations:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
