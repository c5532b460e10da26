//! Query a recorded telemetry JSONL stream: per-job latency waterfalls,
//! the top-K critical-path segments, per-epoch predicted-vs-actual
//! makespan attribution, and the SLO burn-rate alert timeline.
//!
//! The decode is lenient — lines written by a newer build (unknown event
//! types) are skipped and counted, never fatal — so old binaries can read
//! new streams and vice versa.
//!
//! Usage:
//! `cargo run --release -p multicl-bench --bin trace_query -- <events.jsonl> [--job ID] [--top K] [--width N]`

use multicl::telemetry::{tracing, SchedEvent};
use multicl_bench::read_events_or_exit;

fn flag(args: &[String], name: &str) -> Option<u64> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: trace_query <events.jsonl> [--job ID] [--top K] [--width N]");
        std::process::exit(2);
    };
    let only_job = flag(&args, "--job");
    let top_k = flag(&args, "--top").unwrap_or(10) as usize;
    let width = flag(&args, "--width").unwrap_or(60) as usize;

    let (events, events_skipped) = read_events_or_exit(path);
    println!("{path}: {} event(s), events_skipped: {events_skipped}", events.len());

    println!("\n=== job waterfalls ===");
    let mut shown = 0;
    for e in &events {
        if let SchedEvent::JobTrace { job, .. } = e {
            if only_job.is_some_and(|id| id != *job) {
                continue;
            }
            if let Some(w) = tracing::waterfall(e, width) {
                print!("{w}");
                shown += 1;
            }
        }
    }
    if shown == 0 {
        println!("(no matching job_trace events)");
    }

    println!("\n=== segment totals (all jobs) ===");
    for (kind, total) in tracing::segment_totals(&events) {
        if !total.is_zero() {
            println!("{:<14} {}", kind.label(), total);
        }
    }

    println!("\n=== top {top_k} critical-path segments ===");
    for s in tracing::top_segments(&events, top_k) {
        println!(
            "{:<14} {:>12} job {} attempt {} tenant {}",
            s.kind.label(),
            s.duration.to_string(),
            s.span.job,
            s.span.attempt,
            s.tenant
        );
    }

    println!("\n=== makespan attribution ===");
    let mut attributed = 0u64;
    let mut err_sum = 0.0f64;
    for e in &events {
        if let SchedEvent::MakespanAttribution { epoch, policy, predicted, actual, .. } = e {
            let err = if actual.is_zero() {
                0.0
            } else {
                (predicted.as_nanos() as f64 - actual.as_nanos() as f64).abs()
                    / actual.as_nanos() as f64
            };
            println!(
                "epoch {epoch:>4} {policy:<12} predicted {:>12} actual {:>12} err {:>6.1}%",
                predicted.to_string(),
                actual.to_string(),
                100.0 * err
            );
            attributed += 1;
            err_sum += err;
        }
    }
    if attributed > 0 {
        println!(
            "mean |err| over {attributed} epoch(s): {:.1}%",
            100.0 * err_sum / attributed as f64
        );
    } else {
        println!("(no makespan_attribution events)");
    }

    println!("\n=== slo burn-rate timeline ===");
    let mut burns = 0;
    for e in &events {
        if let SchedEvent::SloBurn {
            tenant,
            at,
            long_window,
            short_window,
            long_burn,
            short_burn,
            threshold,
            fired,
            ..
        } = e
        {
            println!(
                "{} tenant {tenant:<10} {} long {long_burn:.2}x/{long_window} short \
                 {short_burn:.2}x/{short_window} (threshold {threshold:.1}x)",
                at,
                if *fired { "FIRED  " } else { "cleared" }
            );
            burns += 1;
        }
    }
    if burns == 0 {
        println!("(no slo_burn events)");
    }
}
