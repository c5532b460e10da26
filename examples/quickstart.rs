//! Quickstart: the MultiCL programming model in ~60 lines.
//!
//! Creates a context with the `AUTO_FIT` scheduler, two auto-scheduled
//! command queues, and two kernels with opposite device affinities — then
//! lets the runtime discover the right queue–device mapping by itself.
//!
//! Run with: `cargo run --release --example quickstart`

use clrt::{KernelBody, NdRange, Out, Platform};
use hwsim::{KernelCostSpec, KernelTraits};
use multicl::{ContextSchedPolicy, MulticlContext, QueueSchedFlags};
use std::sync::Arc;

/// A wide, compute-dense kernel: a GPU's favourite food.
struct ComputeHeavy;
clrt::kernel! {
    impl ComputeHeavy as ComputeHeavyArgs {
        name: "compute_heavy",
        cost: KernelCostSpec::compute_bound(10_000.0),
        fn execute(&self, ctx, data: Out<f64>) {
            for v in data.iter_mut() {
                *v = v.mul_add(1.0000001, 1.0);
            }
        }
    }
}

/// A branchy, uncoalesced, memory-bound kernel: runs best on the CPU.
struct PointerChaser;
clrt::kernel! {
    impl PointerChaser as PointerChaserArgs {
        name: "pointer_chaser",
        cost: KernelCostSpec::memory_bound(256.0).with_traits(KernelTraits {
            coalescing: 0.05,
            branch_divergence: 0.6,
            vector_friendliness: 0.2,
            double_precision: true,
        }),
        fn execute(&self, ctx, data: Out<f64>) {
            let n = data.len();
            for i in 0..n {
                data[i] += data[(i * 7919) % n];
            }
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The simulated CLUSTER'15 testbed: 1 CPU + 2 GPUs.
    let platform = Platform::paper_node();
    println!("devices:");
    for d in platform.devices() {
        println!("  {}: {}", d.id, d.name());
    }

    // Context with the AUTO_FIT global scheduler (paper Table I).
    let ctx = MulticlContext::new(&platform, ContextSchedPolicy::AutoFit)?;
    let program = ctx.create_program(vec![
        Arc::new(ComputeHeavy) as Arc<dyn KernelBody>,
        Arc::new(PointerChaser),
    ])?;

    // Two auto-scheduled queues: the only MultiCL-specific code is the flag.
    let flags = QueueSchedFlags::SCHED_AUTO_DYNAMIC | QueueSchedFlags::SCHED_KERNEL_EPOCH;
    let q1 = ctx.create_queue(flags)?;
    let q2 = ctx.create_queue(flags)?;

    let n = 1 << 18;
    let a = ctx.create_buffer_of::<f64>(n)?;
    let b = ctx.create_buffer_of::<f64>(n)?;
    q1.enqueue_write(&a, &vec![1.0; n])?;
    q2.enqueue_write(&b, &vec![1.0; n])?;

    let kg = program.create_kernel("compute_heavy")?;
    ComputeHeavyArgs { data: &a }.bind(&kg)?;
    q1.enqueue_ndrange(&kg, NdRange::d1(n as u64, 128))?;

    let kc = program.create_kernel("pointer_chaser")?;
    PointerChaserArgs { data: &b }.bind(&kc)?;
    q2.enqueue_ndrange(&kc, NdRange::d1(n as u64, 64))?;

    // The first synchronization triggers profiling + mapping + execution.
    ctx.finish_all();

    println!("\nafter AUTO_FIT scheduling:");
    println!(
        "  compute-heavy queue  -> {} ({})",
        q1.device(),
        platform.node().spec(q1.device()).name
    );
    println!(
        "  pointer-chaser queue -> {} ({})",
        q2.device(),
        platform.node().spec(q2.device()).name
    );
    println!("\nvirtual time elapsed: {}", platform.now());
    let stats = ctx.stats();
    println!(
        "scheduler: {} invocation(s), {} profiled epoch(s), {} kernels issued",
        stats.sched_invocations, stats.profiled_epochs, stats.kernels_issued
    );
    Ok(())
}
