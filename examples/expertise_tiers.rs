//! The paper's three user-expertise tiers (§IV-B) side by side:
//!
//! * the **advanced** user ignores the scheduler and pins queues manually
//!   (`SCHED_OFF` via `create_queue_on`);
//! * the **intermediate** user knows the program's phases and uses explicit
//!   scheduler regions + workload hints
//!   (`SCHED_EXPLICIT_REGION`, `clSetCommandQueueSchedProperty`);
//! * the **novice** "may just use SCHED_AUTO_DYNAMIC and ignore the rest"
//!   — full automation at the cost of per-epoch scheduling.
//!
//! All three produce identical results; they differ in who does the
//! thinking and when the profiling cost is paid.
//!
//! Run with: `cargo run --release --example expertise_tiers`

use clrt::{KernelBody, NdRange, Out, Platform};
use hwsim::{KernelCostSpec, KernelTraits, SimTime};
use multicl::{ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedOptions};
use std::sync::Arc;

/// An iterative stencil-ish kernel that favours the CPU.
struct Smooth;
clrt::kernel! {
    impl Smooth as SmoothArgs {
        name: "smooth",
        cost: KernelCostSpec::memory_bound(120.0).with_traits(KernelTraits {
            coalescing: 0.25,
            branch_divergence: 0.1,
            vector_friendliness: 0.5,
            double_precision: true,
        }),
        fn execute(&self, ctx, data: Out<f64>) {
            for i in 1..data.len() - 1 {
                data[i] = 0.25 * data[i - 1] + 0.5 * data[i] + 0.25 * data[i + 1];
            }
        }
    }
}

const N: usize = 1 << 15;
const ITERATIONS: usize = 12;

fn options(tag: &str) -> SchedOptions {
    SchedOptions {
        profile_cache: ProfileCache::at(
            std::env::temp_dir().join(format!("multicl-tiers-{tag}-{}", std::process::id())),
        ),
        ..SchedOptions::default()
    }
}

/// Run ITERATIONS epochs of the smoother on one queue created by `make`.
fn run_tier(
    label: &str,
    tag: &str,
    make: impl FnOnce(&MulticlContext) -> multicl::SchedQueue,
    region: bool,
) -> SimTime {
    let platform = Platform::paper_node();
    let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options(tag))
        .expect("context");
    let program =
        ctx.create_program(vec![Arc::new(Smooth) as Arc<dyn KernelBody>]).expect("program");
    let kernel = program.create_kernel("smooth").expect("kernel");
    let buf = ctx.create_buffer_of::<f64>(N).expect("buffer");
    let queue = make(&ctx);
    queue.enqueue_write(&buf, &vec![1.0; N]).expect("write");
    SmoothArgs { data: &buf }.bind(&kernel).expect("arg");

    let start = platform.now();
    for iter in 0..ITERATIONS {
        // The intermediate user opens the scheduler region only around the
        // warmup iteration (clSetCommandQueueSchedProperty).
        if region && iter == 0 {
            queue.set_sched_property(true).expect("region start");
        }
        queue.enqueue_ndrange(&kernel, NdRange::d1(N as u64, 64)).expect("launch");
        queue.finish();
        if region && iter == 0 {
            queue.set_sched_property(false).expect("region stop");
        }
    }
    let elapsed = platform.now() - start;
    let stats = ctx.stats();
    println!(
        "{label:<14} device={} time={:<10} profiled epochs={} scheduler runs={}",
        queue.device(),
        elapsed.to_string(),
        stats.profiled_epochs,
        stats.sched_invocations
    );
    start + elapsed
}

fn main() {
    println!("one queue, {ITERATIONS} iterations of an uncoalesced smoother (CPU-friendly):\n");
    // Advanced: pins the queue to the CPU — zero scheduling machinery, but
    // the user had to *know* the CPU wins.
    run_tier(
        "advanced",
        "adv",
        |ctx| {
            let cpu = hwsim::NodeConfig::paper_node().cpu().unwrap();
            ctx.create_queue_on(cpu).expect("queue")
        },
        false,
    );
    // Intermediate: explicit region around the warmup iteration only.
    run_tier(
        "intermediate",
        "mid",
        |ctx| {
            ctx.create_queue(
                QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_EXPLICIT_REGION,
            )
            .expect("queue")
        },
        true,
    );
    // Novice: kernel-epoch automatic scheduling, no further thought.
    run_tier(
        "novice",
        "nov",
        |ctx| ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue"),
        false,
    );
    println!(
        "\nAll three end on the CPU; the tiers trade user effort against\n\
         when (and whether) the profiling cost is paid."
    );
}
