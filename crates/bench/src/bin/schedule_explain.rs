//! Explain what the scheduler did, from its event stream. Live, it runs one
//! benchmark with the telemetry layer attached; with `--replay` it reads a
//! recorded JSONL stream instead (`schedule_explain` or `loadgen` output).
//! Both modes print the same account of the stream:
//!
//! * the decision log — "why did queue 3 land on the CPU?" answered from
//!   the [`MappingDecision`](multicl::SchedEvent::MappingDecision) explain
//!   records (per-device estimated times + migration costs);
//! * per-job latency waterfalls (`--job ID` keeps one job, `--width N`
//!   sizes the bars), segment totals, the top-K critical-path segments
//!   (`--top K`), per-epoch predicted-vs-actual makespan attribution, and
//!   the SLO burn-rate alert timeline.
//!
//! A live run also prints the Gantt chart and per-device utilization of
//! what actually executed and the scalar scheduler metrics, and writes,
//! under `results/`:
//! * `explain_<BENCH>.jsonl` — the raw event stream (re-renderable later
//!   with `--replay <file>`),
//! * `explain_<BENCH>.prom` — the scheduler metrics in Prometheus text
//!   exposition,
//! * `explain_<BENCH>.trace.json` — the Chrome/Perfetto trace (one slice
//!   per executed command, plus migration flow arrows, utilization
//!   counters, engine-lane, job and split tracks).
//!
//! The replay decode is lenient: a line of a kind this build does not
//! declare (written by a newer build, or retired since) is skipped and
//! counted, never fatal. A malformed argument is a usage error (`error: …`,
//! exit 2); an unreadable stream or a failed run is `error: …`, exit 1.
//!
//! Usage:
//! `cargo run --release -p multicl-bench --bin schedule_explain -- [BENCH] [CLASS] [QUEUES] [FLAGS]`
//! `cargo run --release -p multicl-bench --bin schedule_explain -- --replay FILE [FLAGS]`
//! with FLAGS `[--job ID] [--top K] [--width N]`, before or after the rest.

use multicl::telemetry::{self, perfetto, registry, report, sink, tracing};
use multicl::telemetry::{RingBufferSink, SchedEvent, SchedMetrics};
use multicl::ContextSchedPolicy;
use multicl_bench::experiments::common::bench_options;
use multicl_bench::{fresh_platform, write_report};
use npb::{run_benchmark, Class, QueuePlan};
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Arc;

const USAGE: &str = "usage: schedule_explain [BENCH] [CLASS] [QUEUES] [--job ID] [--top K] \
                     [--width N]\n       schedule_explain --replay FILE [--job ID] [--top K] \
                     [--width N]";

/// The parsed command line.
struct Args {
    /// `--replay FILE`: read this stream instead of running a benchmark.
    replay: Option<String>,
    /// `[BENCH] [CLASS] [QUEUES]`.
    positional: Vec<String>,
    /// `--job ID`: the one job whose waterfall is shown.
    job: Option<u64>,
    /// `--top K`: critical-path segments listed.
    top: usize,
    /// `--width N`: waterfall bar width in columns.
    width: usize,
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{flag} `{value}`: {e}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args { replay: None, positional: Vec::new(), job: None, top: 10, width: 60 };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--replay" => parsed.replay = Some(value()?.clone()),
            "--job" => parsed.job = Some(number(arg, value()?)?),
            "--top" => parsed.top = number(arg, value()?)?,
            "--width" => parsed.width = number(arg, value()?)?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    if parsed.replay.is_some() && !parsed.positional.is_empty() {
        return Err("--replay takes no benchmark arguments".into());
    }
    if parsed.positional.len() > 3 {
        return Err(format!("unexpected argument `{}`", parsed.positional[3]));
    }
    Ok(parsed)
}

/// `BENCH CLASS QUEUES` (defaults `MG S 4`), checked against Table II: an
/// unknown benchmark or class, or a queue count the benchmark does not
/// allow, is the user's error.
fn bench_args(positional: &[String]) -> Result<(String, Class, usize), String> {
    let name = positional.first().map_or("MG", String::as_str).to_uppercase();
    let class: Class = positional.get(1).map_or("S", String::as_str).parse()?;
    let info = npb::info(&name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let queues = positional.get(2).map_or(Ok(4), |q| number("queue count", q))?;
    if !info.queue_rule.allows(queues) {
        return Err(format!("{name} does not allow {queues} queues ({:?})", info.queue_rule));
    }
    if !info.classes.contains(&class) {
        return Err(format!("{name} has no class {class}"));
    }
    Ok((name, class, queues))
}

/// `error: …` on stderr, then exit with `code` (2 = usage error).
fn fail(code: i32, message: impl Display) -> ! {
    eprintln!("error: {message}");
    if code == 2 {
        eprintln!("{USAGE}");
    }
    std::process::exit(code);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| fail(2, e));
    if let Some(path) = &args.replay {
        let (events, skipped) = sink::read_jsonl_lenient(path)
            .unwrap_or_else(|e| fail(1, format!("cannot read {path}: {e}")));
        println!("replaying {} event(s) from {path}, events_skipped: {skipped}\n", events.len());
        print_stream(&events, &args);
        return;
    }

    let (name, class, queues) = bench_args(&args.positional).unwrap_or_else(|e| fail(2, e));
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
    .unwrap_or_else(|e| fail(1, format!("{name}.{class} failed: {e}")));
    let trace = platform.take_trace();

    println!("{} under AUTO_FIT ({queues} queues): {}", result.label, result.time);
    println!("queues ended on: {:?}\n", result.final_devices);

    let events = recorder.snapshot();
    if recorder.dropped() > 0 {
        println!("(decision log truncated: {} oldest event(s) dropped)\n", recorder.dropped());
    }
    print_stream(&events, &args);

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

/// What both modes print for a stream: the decision log, job waterfalls,
/// segment totals, the top-K critical-path segments, makespan attribution
/// and the SLO burn timeline.
fn print_stream(events: &[SchedEvent], args: &Args) {
    println!("=== decision log ===");
    print!("{}", report::decision_log(events));

    println!("\n=== job waterfalls ===");
    let mut shown = 0;
    for e in events {
        if let SchedEvent::JobTrace { job, .. } = e {
            if args.job.is_some_and(|id| id != *job) {
                continue;
            }
            if let Some(w) = tracing::waterfall(e, args.width) {
                print!("{w}");
                shown += 1;
            }
        }
    }
    if shown == 0 {
        println!("(no matching job_trace events)");
    }

    println!("\n=== segment totals (all jobs) ===");
    for (kind, total) in tracing::segment_totals(events) {
        if !total.is_zero() {
            println!("{:<14} {}", kind.label(), total);
        }
    }

    println!("\n=== top {} critical-path segments ===", args.top);
    for s in tracing::top_segments(events, args.top) {
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
    for e in events {
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
    for e in events {
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
