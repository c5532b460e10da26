//! Run SNU-NPB-MD benchmarks under automatic scheduling.
//!
//! Usage: `cargo run --release --example npb_suite [BENCH] [CLASS] [QUEUES]`
//! e.g. `cargo run --release --example npb_suite EP C 4`
//! With no arguments, runs every benchmark at a small class with 4 queues.

use clrt::error::ClError;
use multicl::{ContextSchedPolicy, ProfileCache, SchedOptions};
use npb::{run_benchmark, suite, Class, QueuePlan};

fn options() -> SchedOptions {
    SchedOptions {
        profile_cache: ProfileCache::at(
            std::env::temp_dir().join(format!("multicl-example-{}", std::process::id())),
        ),
        ..SchedOptions::default()
    }
}

/// How a request ended: printed and verified, refused by Table II's rules
/// (a usage error), or run and wrong.
enum Outcome {
    Verified,
    Usage(String),
    Failed(String),
}

fn run_one(name: &str, class: Class, queues: usize) -> Outcome {
    let platform = clrt::Platform::paper_node();
    match run_benchmark(
        &platform,
        ContextSchedPolicy::AutoFit,
        options(),
        name,
        class,
        queues,
        &QueuePlan::Auto,
    ) {
        Ok(r) => {
            let devices: Vec<String> = r.final_devices.iter().map(|d| d.to_string()).collect();
            println!(
                "{:<6} time={:<12} verified={:<5} queues->[{}]  (profiled epochs: {})",
                r.label,
                r.time.to_string(),
                r.verified,
                devices.join(", "),
                r.stats.profiled_epochs
            );
            if r.verified {
                Outcome::Verified
            } else {
                Outcome::Failed(format!("{} failed verification", r.label))
            }
        }
        // Unknown benchmark, or a class or queue count Table II does not list.
        Err(ClError::InvalidValue(e)) => Outcome::Usage(e),
        Err(e) => Outcome::Failed(format!("{name}.{class}: {e}")),
    }
}

/// `error: …` on stderr; usage errors exit 2, a failed run exits 1.
fn exit_on_error(outcome: Outcome) {
    let (message, code) = match outcome {
        Outcome::Verified => return,
        Outcome::Usage(e) => (e, 2),
        Outcome::Failed(e) => (e, 1),
    };
    eprintln!("error: {message}");
    std::process::exit(code);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [name, class, queues] => {
            exit_on_error(match (class.parse::<Class>(), queues.parse::<usize>()) {
                (Ok(class), Ok(queues)) => run_one(name, class, queues),
                (Err(e), _) => Outcome::Usage(e),
                (_, Err(e)) => Outcome::Usage(format!("queue count `{queues}`: {e}")),
            });
        }
        [] => {
            println!("SNU-NPB-MD under MultiCL AUTO_FIT (4 queues):\n");
            for b in suite() {
                // Smallest class each benchmark supports keeps this quick.
                let queues = if b.queue_rule.allows(4) { 4 } else { 1 };
                exit_on_error(run_one(b.name, b.classes[0], queues));
            }
            println!("\n(arguments: BENCH CLASS QUEUES — e.g. `npb_suite EP C 4`)");
        }
        _ => exit_on_error(Outcome::Usage("usage: npb_suite [BENCH CLASS QUEUES]".into())),
    }
}
