//! The epoch cache key names one multiset of kernel names: a `+` (or a
//! `\`) inside a name cannot make two epochs spell alike.
//!
//! The key joins the sorted names with `+`. Unescaped, the epoch {`a+b`}
//! and the epoch {`a`, `b`} would share the key `a+b`: the second would
//! hit the first one's cached row, and `a` and `b` would never be
//! profiled. A served job spec may name its kernels with any string.

use clrt::{ArgValue, KernelBody, KernelCtx, NdRange, Platform};
use hwsim::{KernelCostSpec, KernelTraits};
use multicl::telemetry::RingBufferSink;
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedEvent, SchedOptions,
};
use std::sync::Arc;

/// `x[i] += 1`, under any name.
struct Bump(&'static str);

impl KernelBody for Bump {
    fn name(&self) -> &str {
        self.0
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec { flops_per_item: 8.0, bytes_per_item: 8.0, traits: KernelTraits::IDEAL }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        for v in ctx.slice_mut::<f64>(0) {
            *v += 1.0;
        }
    }
}

#[test]
fn names_with_separators_get_their_own_epoch_key() {
    let names = ["a+b", "a", "b", "a\\"];
    let events = Arc::new(RingBufferSink::new(4096));
    let dir = std::env::temp_dir().join(format!("multicl-epoch-key-{}", std::process::id()));
    let options = SchedOptions {
        profile_cache: ProfileCache::at(dir),
        observers: vec![events.clone()],
        ..SchedOptions::default()
    };
    let platform = Platform::paper_node();
    let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
        .expect("context");
    let bodies = names.iter().map(|&n| Arc::new(Bump(n)) as Arc<dyn KernelBody>).collect();
    let program = ctx.create_program(bodies).expect("program");
    let buf = ctx.create_buffer_of::<f64>(256).expect("buffer");
    let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue");
    let run = |epoch: &[&str]| {
        for &name in epoch {
            let k = program.create_kernel(name).expect("kernel");
            k.set_arg(0, ArgValue::BufferMut(buf.clone())).expect("arg");
            q.enqueue_ndrange(&k, NdRange::d1(256, 64)).expect("enqueue");
        }
        q.finish();
    };
    // {a+b} and {a, b} spell alike unescaped; {a\, b} and {a+b} spell alike
    // when only `+` is escaped.
    for epoch in [&["a+b"][..], &["a", "b"], &["a\\", "b"]] {
        run(epoch);
    }
    let mut profiled = ctx.profiled_kernels();
    profiled.sort();
    let mut want: Vec<String> = names.iter().map(|n| n.to_string()).collect();
    want.sort();
    assert_eq!(profiled, want, "every kernel was profiled");
    let keys = |hit: bool| -> Vec<String> {
        let events = events.snapshot();
        let keys = events.iter().filter_map(|e| match e {
            SchedEvent::CacheMiss { epoch, key } if !hit && *epoch > 0 => Some(key.to_string()),
            SchedEvent::CacheHit { epoch, key } if hit && *epoch > 0 => Some(key.to_string()),
            _ => None,
        });
        keys.collect()
    };
    assert_eq!(keys(false), ["a\\+b", "a+b", "a\\\\+b"], "three cold epochs");
    assert!(keys(true).is_empty(), "no epoch hit another's row: {:?}", keys(true));
}
