//! "Nobody can tell", one layer down from `multicl`'s `pass_pipeline.rs`:
//! the command stream `clrt` itself produces — every migration, wait and
//! stamp of the time plane, every byte the data plane leaves behind —
//! pinned by fingerprint, so that a change to *where* buffer hazards and a
//! launch's buffer set are derived cannot change *what* they order.
//!
//! A seeded generator drives three in-order and two out-of-order queues
//! over six shared buffers of three sizes (so the order in which one
//! launch's inputs migrate shows in the stamps) with writes, copies,
//! blocking reads, barriers, whole launches binding their buffers in random
//! argument order (duplicates included), a launch binding one buffer as
//! `Buffer` *and* `BufferMut` in either order, and split launches
//! (`CommandQueue::enqueue_ndrange_split`: start marker, per-lane chunk +
//! gather, join) on in-order and out-of-order home queues.
//!
//! **Never regenerate [`PINNED`] from the current code**: the constants
//! were recorded from commit 7deb8eb (PR 21), the parent of the change that
//! made the access set and the hazard rule one of each, and they must read
//! the same in debug and release builds — virtual time does not depend on
//! the profile.

use clrt::{
    ArgValue, Buffer, CommandQueue, Event, KernelBody, KernelCtx, NdRange, Platform, RuntimeConfig,
};
use hwsim::xrand::XorShift;
use hwsim::{DeviceId, KernelCostSpec};
use std::fmt::Write as _;
use std::sync::Arc;

/// `(seed, trace, buffers)` fingerprints, recorded at commit 7deb8eb. The
/// trace column was re-derived once, after 3d483dc, when a split's lane
/// commands came to be recorded under the issuing queue's trace id, by one
/// stated rule: the new `trace_text` equals 3d483dc's line for line once
/// each line's queue field is dropped.
const PINNED: &[(u64, u64, u64)] = &[
    (1, 0xf1ec_ba30_392e_aa7e, 0x6e04_8941_7e5d_1392),
    (42, 0xaf78_a69b_df6b_e4c9, 0x2f2e_b22c_6967_3db9),
    (1007, 0xfd45_cc9b_64de_011b, 0x5a75_4705_94e1_02aa),
];

/// Items every kernel sweeps (each buffer holds at least this many).
const N: usize = 256;
const LOCAL: u64 = 64;

/// The sub-range of `0..N` one execution owns.
fn owned(ctx: &KernelCtx<'_>) -> std::ops::Range<usize> {
    let base = ctx.global_offset()[0] as usize;
    base..base + ctx.nd().global[0] as usize
}

/// `out[i] = 0.5 * out[i] + a[i] + 0.25 * b[i]` over the owned sub-range;
/// `a` and `b` may be the same buffer.
struct Blend;
impl KernelBody for Blend {
    fn name(&self) -> &str {
        "blend"
    }
    fn arity(&self) -> usize {
        3
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(32.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let (a, b) = (ctx.slice::<f64>(0), ctx.slice::<f64>(1));
        let out = ctx.slice_mut::<f64>(2);
        for i in owned(ctx) {
            out[i] = 0.5 * out[i] + a[i] + 0.25 * b[i];
        }
    }
    fn splittable(&self) -> bool {
        true
    }
}

/// `v[i] = 0.5 * v[i] + 1.0` in place over the owned sub-range.
struct Damp;
impl KernelBody for Damp {
    fn name(&self) -> &str {
        "damp"
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(16.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let v = ctx.slice_mut::<f64>(0);
        for i in owned(ctx) {
            v[i] = 0.5 * v[i] + 1.0;
        }
    }
    fn splittable(&self) -> bool {
        true
    }
}

/// [`Damp`]'s arithmetic on argument `ctx.u32(2)`; the other buffer
/// argument is bound and never taken — it may be the same memory object,
/// bound read-only.
struct Alias;
impl KernelBody for Alias {
    fn name(&self) -> &str {
        "alias"
    }
    fn arity(&self) -> usize {
        3
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec::memory_bound(16.0)
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        for v in &mut ctx.slice_mut::<f64>(ctx.u32(2) as usize)[..N] {
            *v = 0.5 * *v + 1.0;
        }
    }
}

fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One line per trace record. Queue ids are process-global counters, so
/// they are numbered by first appearance.
fn trace_text(p: &Platform) -> String {
    let mut qmap: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut text = String::new();
    for r in &p.trace_snapshot().records {
        let next = qmap.len();
        let q = *qmap.entry(r.queue).or_insert(next);
        let s = r.stamp;
        let (queued, start, end) = (s.queued.as_nanos(), s.start.as_nanos(), s.end.as_nanos());
        writeln!(text, "q{q} dev{} {:?} {queued} {start} {end}", r.device.index(), r.kind).unwrap();
    }
    text
}

/// The `(trace, buffers)` texts of one seeded run.
fn run(seed: u64) -> (String, String) {
    let p = Platform::paper_node_with(RuntimeConfig {
        data_plane_workers: 2,
        ..RuntimeConfig::default()
    });
    let ctx = p.create_context_all().unwrap();
    let prog = ctx
        .create_program(vec![
            Arc::new(Blend) as Arc<dyn KernelBody>,
            Arc::new(Damp) as Arc<dyn KernelBody>,
            Arc::new(Alias) as Arc<dyn KernelBody>,
        ])
        .unwrap();
    prog.build(0).unwrap();
    let blend = prog.create_kernel("blend").unwrap();
    let damp = prog.create_kernel("damp").unwrap();
    let alias = prog.create_kernel("alias").unwrap();

    // Buffers i and i + 3 are the same size (copies need equal lengths);
    // sizes differ within each triple.
    let buffers: Vec<Buffer> =
        (0..6).map(|i| ctx.create_buffer_of::<f64>(N * (1 + i % 3)).unwrap()).collect();
    let pick = |rng: &mut XorShift| buffers[rng.index(buffers.len())].clone();
    // Home queues: one in-order per device, out-of-order on both GPUs.
    let mut queues: Vec<CommandQueue> =
        (0..3).map(|d| ctx.create_queue(DeviceId(d)).unwrap()).collect();
    queues.push(ctx.create_queue_ooo(DeviceId(1)).unwrap());
    queues.push(ctx.create_queue_ooo(DeviceId(2)).unwrap());
    // The split scheduler's per-device in-order lanes.
    let lanes: Vec<CommandQueue> = (0..3).map(|d| ctx.create_queue(DeviceId(d)).unwrap()).collect();

    let mut rng = XorShift::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut events: Vec<Event> = Vec::new();
    for (i, b) in buffers.iter().enumerate() {
        let init: Vec<f64> = (0..b.len::<f64>()).map(|j| (i * N + j) as f64 * 0.001).collect();
        events.push(queues[i % queues.len()].enqueue_write(b, &init).unwrap());
    }

    let whole = NdRange::d1(N as u64, LOCAL);
    for step in 0..120u64 {
        let q = &queues[rng.index(queues.len())];
        let waits: Vec<Event> = if rng.index(3) == 0 {
            vec![events[rng.index(events.len())].clone()]
        } else {
            Vec::new()
        };
        let ev = match rng.index(12) {
            0 => {
                let b = pick(&mut rng);
                let data: Vec<f64> =
                    (0..b.len::<f64>()).map(|j| (step * 7 + j as u64) as f64 * 0.01).collect();
                q.enqueue_write(&b, &data).unwrap()
            }
            1 => {
                let s = rng.index(buffers.len());
                q.enqueue_copy(&buffers[s], &buffers[(s + 3) % 6]).unwrap()
            }
            2 => {
                let b = pick(&mut rng);
                let mut out = vec![0.0f64; b.len::<f64>()];
                q.enqueue_read(&b, &mut out).unwrap()
            }
            3 => q.enqueue_barrier(),
            4..=6 => {
                // Any argument order, `a == b` allowed; `out` is distinct.
                let o = rng.index(buffers.len());
                let others = |rng: &mut XorShift| (o + 1 + rng.index(5)) % 6;
                let (a, b) = (others(&mut rng), others(&mut rng));
                blend.set_arg(0, ArgValue::Buffer(buffers[a].clone())).unwrap();
                blend.set_arg(1, ArgValue::Buffer(buffers[b].clone())).unwrap();
                blend.set_arg(2, ArgValue::BufferMut(buffers[o].clone())).unwrap();
                q.enqueue_ndrange(&blend, whole, &waits).unwrap()
            }
            7 => {
                // One buffer bound both ways (a write, whichever comes
                // first), or two buffers of which the second is written.
                let x = pick(&mut rng);
                let y = if rng.index(2) == 0 { x.clone() } else { pick(&mut rng) };
                let m = if y.same_object(&x) { rng.index(2) } else { 1 };
                let (first, second) = if m == 0 {
                    (ArgValue::BufferMut(x), ArgValue::Buffer(y))
                } else {
                    (ArgValue::Buffer(x), ArgValue::BufferMut(y))
                };
                alias.set_arg(0, first).unwrap();
                alias.set_arg(1, second).unwrap();
                alias.set_arg(2, ArgValue::U32(m as u32)).unwrap();
                q.enqueue_ndrange(&alias, whole, &waits).unwrap()
            }
            8 => {
                damp.set_arg(0, ArgValue::BufferMut(pick(&mut rng))).unwrap();
                q.enqueue_ndrange(&damp, whole, &waits).unwrap()
            }
            _ => {
                // A split launch, as `multicl`'s scheduler issues one: one
                // call, the chunks on rotated lanes.
                let kernel = if rng.index(2) == 0 {
                    let o = rng.index(buffers.len());
                    let a = (o + 1 + rng.index(5)) % 6;
                    let b = (o + 1 + rng.index(5)) % 6;
                    blend.set_arg(0, ArgValue::Buffer(buffers[a].clone())).unwrap();
                    blend.set_arg(1, ArgValue::Buffer(buffers[b].clone())).unwrap();
                    blend.set_arg(2, ArgValue::BufferMut(buffers[o].clone())).unwrap();
                    &blend
                } else {
                    damp.set_arg(0, ArgValue::BufferMut(pick(&mut rng))).unwrap();
                    &damp
                };
                let args = kernel.snapshot_args().unwrap();
                // 2 lanes × 2 workgroups, or 3 lanes × (2, 1, 1).
                let first_lane = rng.index(3);
                let wgs: &[u64] = if rng.index(2) == 0 { &[2, 2] } else { &[2, 1, 1] };
                let chunks: Vec<(CommandQueue, u64)> = wgs
                    .iter()
                    .enumerate()
                    .map(|(k, &n)| (lanes[(first_lane + k) % 3].clone(), n))
                    .collect();
                q.enqueue_ndrange_split(kernel, whole, &args, &chunks).unwrap()
            }
        };
        events.push(ev);
    }
    for q in queues.iter().chain(&lanes) {
        q.finish();
    }
    let mut contents = String::new();
    for b in &buffers {
        for v in b.host_snapshot::<f64>() {
            write!(contents, "{:016x} ", v.to_bits()).unwrap();
        }
        contents.push('\n');
    }
    (trace_text(&p), contents)
}

#[test]
fn command_streams_match_the_recording() {
    let mut moved = Vec::new();
    for &(seed, trace_fp, buffers_fp) in PINNED {
        let (trace, buffers) = run(seed);
        let got = (fnv(&trace), fnv(&buffers));
        if got == (trace_fp, buffers_fp) {
            continue;
        }
        // Leave both texts behind: diffing them against the same dump from
        // the recorded commit shows which command or which element moved.
        let stem = std::env::temp_dir().join(format!("hazard_pin-{seed}"));
        let _ = std::fs::write(stem.with_extension("trace.txt"), &trace);
        let _ = std::fs::write(stem.with_extension("buffers.txt"), &buffers);
        moved.push(format!(
            "seed {seed}: (trace, buffers) fingerprint ({:#018x}, {:#018x}) differs from the \
             recording ({trace_fp:#018x}, {buffers_fp:#018x}); texts dumped to \
             {}.{{trace.txt,buffers.txt}}",
            got.0,
            got.1,
            stem.display(),
        ));
    }
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}
