//! Export and display the execution schedule of one benchmark run:
//! an ASCII Gantt chart + per-device utilization on stdout, and a
//! Chrome-tracing JSON (`results/trace_<BENCH>.json`) loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Usage: `cargo run --release -p multicl-bench --bin schedule_trace [BENCH] [CLASS] [QUEUES]`

use multicl::ContextSchedPolicy;
use multicl_bench::experiments::common::run_on_fresh;
use multicl_bench::{bench_args_or_exit, write_report};
use npb::QueuePlan;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, class, queues) = bench_args_or_exit(&args);

    let (result, trace) =
        run_on_fresh(ContextSchedPolicy::AutoFit, true, &name, class, queues, &QueuePlan::Auto);
    println!("{} under AUTO_FIT ({queues} queues): {}", result.label, result.time);
    println!("queues ended on: {:?}\n", result.final_devices);

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
    if let Some(path) =
        write_report(&format!("trace_{}.json", result.label), &trace.to_chrome_json())
    {
        println!("\nChrome-tracing JSON written to {}", path.display());
    }
}
