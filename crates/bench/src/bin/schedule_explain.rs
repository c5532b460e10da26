//! Replay one benchmark run with the telemetry layer attached and render
//! the scheduler's decision log next to the Gantt chart of what actually
//! executed — "why did queue 3 land on the CPU?" answered from the
//! recorded [`MappingDecision`](multicl::SchedEvent::MappingDecision)
//! explain records (per-device estimated times + migration costs).
//!
//! Also writes, under `results/`:
//! * `explain_<BENCH>.jsonl` — the raw event stream (re-renderable later
//!   with `--replay <file>`),
//! * `explain_<BENCH>.prom` — the scheduler metrics in Prometheus text
//!   exposition,
//! * `explain_<BENCH>.trace.json` — the extended Chrome/Perfetto trace
//!   with migration flow arrows and per-device utilization counters.
//!
//! Usage:
//! `cargo run --release -p multicl-bench --bin schedule_explain [BENCH] [CLASS] [QUEUES]`
//! `cargo run --release -p multicl-bench --bin schedule_explain -- --replay results/explain_MG.S.jsonl`

use multicl::telemetry::{self, perfetto, registry, report, RingBufferSink, SchedMetrics};
use multicl::ContextSchedPolicy;
use multicl_bench::experiments::common::bench_options;
use multicl_bench::{bench_args_or_exit, fresh_platform, read_events_or_exit, write_report};
use npb::{run_benchmark, QueuePlan};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--replay") {
        let Some(path) = args.get(1) else {
            eprintln!("usage: schedule_explain --replay <events.jsonl>");
            std::process::exit(2);
        };
        // Lenient decode: a stream written by a newer build (unknown event
        // types) still replays — skipped lines are counted, not fatal.
        let (events, events_skipped) = read_events_or_exit(path);
        println!("replaying {} event(s) from {path}", events.len());
        if events_skipped > 0 {
            println!("(events_skipped: {events_skipped} unknown/malformed line(s))");
        }
        println!();
        print!("{}", report::decision_log(&events));
        return;
    }

    let (name, class, queues) = bench_args_or_exit(&args);

    let recorder = Arc::new(RingBufferSink::new(1 << 16));
    let metrics = Arc::new(SchedMetrics::new());
    let mut options = bench_options(true);
    options.observers = vec![recorder.clone(), metrics.clone()];

    let platform = fresh_platform();
    let result = run_benchmark(
        &platform,
        ContextSchedPolicy::AutoFit,
        options,
        &name,
        class,
        queues,
        &QueuePlan::Auto,
    )
    .unwrap_or_else(|e| panic!("{name}.{class} failed: {e}"));
    let trace = platform.take_trace();

    println!("{} under AUTO_FIT ({queues} queues): {}", result.label, result.time);
    println!("queues ended on: {:?}\n", result.final_devices);

    let events = recorder.snapshot();
    if recorder.dropped() > 0 {
        println!("(decision log truncated: {} oldest event(s) dropped)\n", recorder.dropped());
    }
    println!("=== decision log ===");
    print!("{}", report::decision_log(&events));

    println!("\n=== schedule ===");
    println!("{}", hwsim::report::ascii_gantt(&trace, 100));
    let horizon = hwsim::report::horizon(&trace);
    for (dev, u) in hwsim::report::utilization(&trace) {
        println!(
            "{dev}: {:>4} commands, busy {:>10}, utilization {:>5.1}%",
            u.commands,
            u.busy.to_string(),
            100.0 * u.utilization(horizon)
        );
    }

    let prom = metrics.registry().to_prometheus();
    println!("\n=== scheduler metrics ===");
    // Histogram bucket series are for machines; show the scalar samples.
    for s in registry::parse_prometheus(&prom).expect("own exposition parses") {
        if s.labels.is_empty() {
            println!("{:<40} {}", s.name, s.value);
        }
    }

    let jsonl = telemetry::to_jsonl(&events);
    for (file, contents) in [
        (format!("explain_{}.jsonl", result.label), jsonl),
        (format!("explain_{}.prom", result.label), prom),
        (
            format!("explain_{}.trace.json", result.label),
            perfetto::chrome_trace_with_telemetry(&trace, &events),
        ),
    ] {
        if let Some(path) = write_report(&file, &contents) {
            println!("wrote {}", path.display());
        }
    }
}
