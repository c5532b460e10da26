//! "Nobody can tell": the scheduling pass's observable behaviour, pinned by
//! fingerprint so that a restructuring of the pass cannot change it.
//!
//! Each scenario drives one context through a cold epoch and three warm
//! ones, then checks
//!
//! 1. every buffer is bit-identical to a plain sequential host reference,
//! 2. the FNV-1a fingerprint of the full `SchedEvent` JSONL stream (host
//!    wall-clock fields zeroed) and of every engine trace record equals a
//!    constant recorded from the commit *before* the pass was restructured.
//!
//! **Never regenerate [`PINNED`] from the current code** — the constants
//! exist to catch the current code drifting from that recording. A
//! deliberate behaviour change re-records them in its own PR and says so.
//!
//! Scenarios:
//! * `mixed` — one pool holding, in the same epochs, two in-order queues
//!   (one `SCHED_ITERATIVE | SCHED_COMPUTE_BOUND`, so forced re-profiling
//!   and minikernel profiling run), a `SCHED_SPLITTABLE` queue (one launch
//!   that splits, one too small to split, one whose kernel opts out), two
//!   `SCHED_OUT_OF_ORDER` queues sharing buffers, and a `SCHED_OFF`
//!   passthrough queue; epochs mix cache hits, per-kernel composition, and
//!   a cold kernel arriving in a warm epoch. Run under AUTO_FIT and
//!   ROUND_ROBIN, fault-free and with a device lost after the second
//!   epoch, and once with the cost predictor enabled.
//! * `wide` — a 12-queue AUTO_FIT pool (dynamic, static, and out-of-order
//!   queues) whose warm epochs are all cache hits or compositions: the pool
//!   size that used to be costed on scoped worker threads.

use clrt::{ArgValue, Buffer, Kernel, KernelBody, KernelCtx, NdRange, Platform, RuntimeConfig};
use hwsim::xrand::XorShift;
use hwsim::{FaultPlan, KernelCostSpec, KernelTraits, SimDuration};
use multicl::telemetry::{self, RingBufferSink};
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedEvent, SchedOptions,
    SchedQueue, SchedStats,
};
use std::collections::HashMap;
use std::sync::Arc;

const LOCAL: u64 = 64;

/// `(events, trace)` fingerprints per scenario run, recorded at commit
/// 91b905c, the parent of the single-pass refactor. The events
/// column of the `mixed` rows (the streams that hold a `kernel_split`) was
/// re-derived once since, at d315bda, by one stated rule: the fingerprint
/// of that commit's `events_text` with every `"partitioner":"static",`
/// removed, when the key left the table. The events column of the four
/// AUTO_FIT rows was re-derived once more, at 793666f, when the unbudgeted
/// mapper arm was deleted, by one stated rule: the fingerprint of that
/// commit's `events_text` with every `"mapper":"optimal"` replaced by
/// `"mapper":"adaptive"`. The trace column of the five `mixed` rows was
/// re-derived once, after 3d483dc, when a split's lane commands came to be
/// recorded under the issuing queue's trace id, by one stated rule: the new
/// `trace_text` equals 3d483dc's line for line once each line's queue
/// field is dropped. Both columns of the five `mixed` rows were recorded
/// anew after 0febcc6, when a split came to be kept only if its epoch ends
/// sooner and the scenario changed so that `sp_big`'s still does (256
/// workgroups at 20 000 flops/item, queue 2's buffers likewise, and a
/// first-epoch kernel `in_first` on queue 0 so that every device's
/// predictor model has its samples by the fourth epoch), by one stated
/// rule: they are that change's output, checked against 0febcc6 on the
/// same scenario — the AUTO_FIT clean and predictor streams hold the same
/// events in the same order and differ only in the split shares, the
/// virtual times and the predictor's refinement values; the loss and
/// ROUND_ROBIN streams also differ in which `sp_big` launches split. Both
/// columns of the four AUTO_FIT rows were recorded anew after 43dbf44,
/// when the profiler came to probe every device at once, by one stated
/// rule: diffed against 43dbf44's dumps, the streams hold the same events
/// in the same order with the same mappings, shares and cost rows, and
/// differ only in the virtual stamps (`at_ns`, `elapsed_ns`,
/// `profiling_ns`); the traces hold the same commands in the same order
/// on the same devices with the same tags, and differ only in their four
/// virtual timestamps. The events column of all six rows was re-derived
/// once more after 9cc7764, when an epoch's prediction became the replay
/// of the plan it issues, by one stated rule: each stream equals 9cc7764's
/// once every `makespan_attribution` line's `predicted_ns` is removed (the
/// trace column did not move). The events column of all six rows was
/// re-derived once more after 187282e, when
/// the prediction came to count the host's enqueue of each command, by the
/// same rule: each stream equals 187282e's once every `predicted_ns` is
/// removed. No upload moved: every write here precedes the first pass, so
/// the trace column did not move. Both columns of all six rows were
/// re-derived once more after a24175a, when an out-of-order epoch came to
/// issue in pool and program order (the batch reorder went), by one stated
/// rule: each stream equals a24175a's once every `"commands_reordered":N,`
/// is removed, except for `epoch_end`'s `lane_overlap` in the two
/// ROUND_ROBIN rows; each trace holds a24175a's commands with the same
/// durations and the same last end, and lines move only in the three rows
/// where a24175a's reorder moved a command in a warm epoch (5 lines in the
/// AUTO_FIT loss row, 24 and 14 in the ROUND_ROBIN rows). The events
/// column of the four AUTO_FIT rows was re-derived once more after
/// e155626, when every priced queue's mapper row became the replay of its
/// launches alone, by one stated rule, checked by script on both commits'
/// dumps: every line equals e155626's except `mapping_decision` queue
/// records, and in those `queue`, `exec_ns`, `chosen` and `previous` are
/// unchanged and the mapped row (`overlap_ns` if not `[]`, else `exec_ns +
/// migration_ns`) is equal on every column no earlier `device_down`
/// announced lost (322 cells); only two cells differ, both on the loss
/// row's lost device 1, where the replay prices a zero-sentinel profile
/// cell at its analytic time and the mapper blacklists the column either
/// way. The trace column did not move. Both columns were recorded anew
/// after 8f207b7, when measure came to snapshot each buffer's residency and
/// decide to price every move as `clrt` issues it (a download on the
/// holder's copy lane, then an upload on the destination's; a lost
/// holder's copy read from the host), by one stated rule, checked by
/// script on both commits' dumps. The three AUTO_FIT rows without a loss
/// (clean, predictor, wide) keep their trace fingerprints, and each stream
/// equals 8f207b7's line for line except `mapping_decision` queue records,
/// where only `migration_ns` moves, and `makespan_attribution`, where only
/// `predicted_ns` moves (mixed: 463 799 → 452 115 ns against 449 882 ns
/// executed; wide's first epoch 183 815 → 183 812 ns). The loss and
/// ROUND_ROBIN rows are this change's output; each epoch's executed end,
/// 8f207b7's → now, in ns: AUTO_FIT loss 343 570, 449 882, 613 015 →
/// 564 936, 580 572 → 531 445; ROUND_ROBIN clean 612 015 each, but epoch
/// 2 612 015 → 604 751 (one more `sp_big` split); ROUND_ROBIN loss
/// 612 015, 612 015 → 604 751, 746 437 → 722 500, 574 146 → 601 105.
const PINNED: &[(&str, u64, u64)] = &[
    ("mixed/auto_fit/clean", 0x8692_0e35_610d_feb0, 0xaf73_f427_caf8_5aae),
    ("mixed/auto_fit/loss", 0x9f13_0a66_fb9e_87f6, 0x5276_5bf5_304d_3c3d),
    ("mixed/auto_fit/predictor", 0x10ff_d354_370b_7aed, 0x83ca_b7a2_3be1_dc46),
    ("mixed/round_robin/clean", 0x27d0_cf24_3a47_671d, 0x6c3f_d4ac_fbf2_8b45),
    ("mixed/round_robin/loss", 0x2b8c_c4c0_ba91_75a8, 0x04de_ff52_d6a2_fe67),
    ("wide/auto_fit/clean", 0xc671_f62c_d8dd_ed8c, 0x09ea_dc96_1fe4_12cc),
];

/// `out[i] = out[i] * 0.5 + a[i] * scale + b[i]` over the first `n` items
/// starting at `base` — shared by the kernel body and the host reference.
fn mix(scale: f64, a: &[f64], b: &[f64], out: &mut [f64], base: usize, n: usize) {
    for i in base..base + n {
        out[i] = out[i] * 0.5 + a[i] * scale + b[i];
    }
}

struct Mix {
    name: String,
    scale: f64,
    flops: f64,
    splittable: bool,
}

impl KernelBody for Mix {
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        3
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec {
            flops_per_item: self.flops,
            bytes_per_item: 24.0,
            traits: KernelTraits::default(),
        }
    }
    fn splittable(&self) -> bool {
        self.splittable
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let base = ctx.global_offset()[0] as usize;
        let n = ctx.nd().global_items() as usize;
        let a: Vec<f64> = ctx.slice::<f64>(0).to_vec();
        let b: Vec<f64> = ctx.slice::<f64>(1).to_vec();
        mix(self.scale, &a, &b, ctx.slice_mut::<f64>(2), base, n);
    }
}

/// One kernel of a scenario: name, arithmetic scale, cost weight, and
/// whether its body accepts sub-range launches.
struct KSpec {
    name: &'static str,
    scale: f64,
    flops: f64,
    splittable: bool,
}

/// One launch: `kernel(a, b → out)` over the first `items` elements, on
/// queue `q` (indices into the scenario's tables).
#[derive(Clone, Copy)]
struct Launch {
    q: usize,
    kernel: usize,
    a: usize,
    b: usize,
    out: usize,
    items: u64,
}

struct Scenario {
    /// `None` = a `SCHED_OFF` queue pinned to the context's first device.
    queues: Vec<Option<QueueSchedFlags>>,
    /// Element count of each buffer, and the queue that uploads it.
    buffers: Vec<(usize, usize)>,
    kernels: Vec<KSpec>,
    epochs: Vec<Vec<Launch>>,
}

struct Outcome {
    /// What the fingerprints are taken over (see [`events_text`],
    /// [`trace_text`]) — kept so a mismatch can be diffed across commits.
    events_text: String,
    trace_text: String,
    stats: SchedStats,
    events: Vec<SchedEvent>,
}

fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The JSONL encoding of the stream. `mapper_wall` and the data-plane pool
/// gauges are host wall-clock observations, so they are zeroed; everything
/// else — order, virtual timestamps, cost rows — counts.
fn events_text(events: &[SchedEvent]) -> String {
    let mut events = events.to_vec();
    for e in &mut events {
        match e {
            SchedEvent::MappingDecision { mapper_wall, .. } => *mapper_wall = SimDuration::ZERO,
            SchedEvent::EpochEnd { data_queue_depth, data_peak_busy, .. } => {
                *data_queue_depth = 0;
                *data_peak_busy = 0;
            }
            _ => {}
        }
    }
    telemetry::to_jsonl(&events)
}

/// One line per engine trace record (profiling included): device, kind,
/// tag, and all four virtual timestamps. Trace queue ids come from a
/// process-global counter, so they are renumbered by first appearance.
fn trace_text(trace: &hwsim::Trace) -> String {
    let mut qmap: HashMap<usize, usize> = HashMap::new();
    let mut text = String::new();
    for r in &trace.records {
        let next = qmap.len();
        let q = *qmap.entry(r.queue).or_insert(next);
        text.push_str(&format!(
            "{q} {} {:?} {:?} {} {} {} {}\n",
            r.device.index(),
            r.kind,
            r.tag.as_deref(),
            r.stamp.queued.as_nanos(),
            r.stamp.submit.as_nanos(),
            r.stamp.start.as_nanos(),
            r.stamp.end.as_nanos(),
        ));
    }
    text
}

/// Drive `scenario` on a fresh platform; `loss_after` loses the context's
/// second device at the virtual instant that many epochs have completed.
fn run(
    label: &str,
    scenario: &Scenario,
    policy: ContextSchedPolicy,
    loss_after: Option<usize>,
    predictor_confidence: f64,
) -> Outcome {
    // Two data-plane workers: launches go through the asynchronous
    // hazard-tracked executor whatever the host's core count.
    let platform = Platform::paper_node_with(RuntimeConfig {
        data_plane_workers: 2,
        ..RuntimeConfig::default()
    });
    // A private, empty profile directory: the device profile is always
    // measured (charging the same virtual time), never read from disk.
    let dir = std::env::temp_dir().join(format!(
        "multicl-pass-pipeline-{}-{}",
        std::process::id(),
        label.replace('/', "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let sink = Arc::new(RingBufferSink::new(1 << 16));
    let options = SchedOptions {
        profile_cache: ProfileCache::at(&dir),
        iterative_frequency: Some(3),
        predictor_confidence,
        observers: vec![sink.clone()],
        ..SchedOptions::default()
    };
    let ctx = MulticlContext::with_options(&platform, policy, options).expect("context");
    let devices = ctx.cl().devices().to_vec();
    let queues: Vec<SchedQueue> = scenario
        .queues
        .iter()
        .map(|flags| match flags {
            Some(f) => ctx.create_queue(*f).expect("auto queue"),
            None => ctx.create_queue_on(devices[0]).expect("manual queue"),
        })
        .collect();

    let mut rng = XorShift::new(0x5EED);
    let mut reference: Vec<Vec<f64>> = Vec::new();
    let buffers: Vec<Buffer> = scenario
        .buffers
        .iter()
        .map(|&(len, uploader)| {
            let data: Vec<f64> = (0..len).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let buf = ctx.create_buffer_of::<f64>(len).expect("buffer");
            queues[uploader].enqueue_write(&buf, &data).expect("upload");
            reference.push(data);
            buf
        })
        .collect();

    let bodies: Vec<Arc<dyn KernelBody>> = scenario
        .kernels
        .iter()
        .map(|k| {
            Arc::new(Mix {
                name: k.name.to_string(),
                scale: k.scale,
                flops: k.flops,
                splittable: k.splittable,
            }) as Arc<dyn KernelBody>
        })
        .collect();
    let program = ctx.create_program(bodies).expect("program");
    let kernels: Vec<Kernel> =
        scenario.kernels.iter().map(|k| program.create_kernel(k.name).expect("kernel")).collect();

    for (done, epoch) in scenario.epochs.iter().enumerate() {
        if loss_after == Some(done) {
            let at = platform.now();
            platform
                .with_engine(|e| e.set_fault_plan(FaultPlan::new(7).lose_device(devices[1], at)));
        }
        for l in epoch {
            let k = &kernels[l.kernel];
            k.set_arg(0, ArgValue::Buffer(buffers[l.a].clone())).unwrap();
            k.set_arg(1, ArgValue::Buffer(buffers[l.b].clone())).unwrap();
            k.set_arg(2, ArgValue::BufferMut(buffers[l.out].clone())).unwrap();
            queues[l.q].enqueue_ndrange(k, NdRange::d1(l.items, LOCAL)).expect("enqueue");
        }
        ctx.finish_all();
        // The sequential reference: launches in queue order. Within an
        // epoch only the out-of-order queues share buffers, and the flush
        // issues them in pool (= creation) order.
        let mut ordered: Vec<Launch> = epoch.clone();
        ordered.sort_by_key(|l| l.q);
        for l in ordered {
            let a = reference[l.a].clone();
            let b = reference[l.b].clone();
            let scale = scenario.kernels[l.kernel].scale;
            mix(scale, &a, &b, &mut reference[l.out], 0, l.items as usize);
        }
    }

    for (i, (buf, want)) in buffers.iter().zip(&reference).enumerate() {
        let got: Vec<u64> = buf.host_snapshot::<f64>().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want, "{label}: buffer {i} diverged from the sequential reference");
    }
    assert_eq!(sink.dropped(), 0, "{label}: ring buffer sized for the whole run");
    let events = sink.drain();
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        events_text: events_text(&events),
        trace_text: trace_text(&platform.take_trace()),
        stats: ctx.stats(),
        events,
    }
}

fn assert_pinned(label: &str, outcome: &Outcome) {
    let &(_, events_fp, trace_fp) =
        PINNED.iter().find(|(l, _, _)| *l == label).expect("scenario has a pinned row");
    let got = (fnv(&outcome.events_text), fnv(&outcome.trace_text));
    if got == (events_fp, trace_fp) {
        return;
    }
    // Leave both texts behind: diffing them against the same dump from the
    // recorded commit shows exactly which event or command moved.
    let stem = std::env::temp_dir().join(format!("pass_pipeline-{}", label.replace('/', "-")));
    let _ = std::fs::write(stem.with_extension("events.jsonl"), &outcome.events_text);
    let _ = std::fs::write(stem.with_extension("trace.txt"), &outcome.trace_text);
    panic!(
        "{label}: (events, trace) fingerprint ({:#018x}, {:#018x}) differs from the recording \
         ({events_fp:#018x}, {trace_fp:#018x}) — the pass changed its event stream or its \
         virtual-time schedule; streams dumped to {}.{{events.jsonl,trace.txt}}",
        got.0,
        got.1,
        stem.display(),
    );
}

fn dynamic() -> QueueSchedFlags {
    QueueSchedFlags::SCHED_AUTO_DYNAMIC
}

/// The mixed pool (see the module docs). Buffers 0–2 belong to queue 0,
/// 3–5 to queue 1, 6–9 to the splittable queue 2, 10–16 to the
/// out-of-order pair 3/4 (all uploaded through queue 3), 17–19 to the
/// manual queue 5.
fn mixed() -> Scenario {
    let queues = vec![
        Some(dynamic()),
        Some(dynamic() | QueueSchedFlags::SCHED_ITERATIVE | QueueSchedFlags::SCHED_COMPUTE_BOUND),
        Some(dynamic() | QueueSchedFlags::SCHED_SPLITTABLE),
        Some(dynamic() | QueueSchedFlags::SCHED_OUT_OF_ORDER),
        Some(dynamic() | QueueSchedFlags::SCHED_OUT_OF_ORDER),
        None,
    ];
    let mut buffers: Vec<(usize, usize)> = Vec::new();
    for (q, count, len) in [(0, 3, 4096), (1, 3, 8192), (2, 4, 16384), (3, 7, 16384), (5, 3, 2048)]
    {
        buffers.extend(std::iter::repeat_n((len, q), count));
    }
    let k = |name, scale, flops, splittable| KSpec { name, scale, flops, splittable };
    let kernels = vec![
        k("in_a", 0.25, 8.0, false),
        k("in_first", 0.6, 50.0, false),  // the first epoch only
        k("in_late", 0.75, 300.0, false), // first seen in the second epoch
        k("in_later", 0.4, 120.0, false), // first seen in the fourth epoch
        k("it_a", 0.5, 600.0, false),
        k("it_b", 1.25, 40.0, false),
        k("sp_big", 1.5, 20000.0, true),    // 256 workgroups → splits
        k("sp_small", 0.125, 2000.0, true), // 4 workgroups → whole launch
        k("sp_plain", 2.0, 30.0, false),    // body opts out → whole launch
        k("oo_a", 0.3, 900.0, false),
        k("oo_b", 0.6, 4.0, false),
        k("oo_c", 0.9, 4.0, false),
        k("oo_d", 1.1, 1500.0, false),
        k("off_a", 0.2, 16.0, false),
    ];
    let kernel = |name: &str| kernels.iter().position(|k| k.name == name).expect("kernel name");
    let l = |q, name: &str, a, b, out, items| Launch { q, kernel: kernel(name), a, b, out, items };
    let epochs: Vec<Vec<Launch>> = (0..4)
        .map(|e| {
            let mut v = vec![l(0, "in_a", 0, 1, 2, 4096)];
            match e {
                // A fourth kernel on queue 0's device before the fourth
                // epoch: with sp_big's chunks every device's model has the
                // samples a prediction needs by then.
                0 => v.push(l(0, "in_first", 1, 2, 0, 4096)),
                1 => v.push(l(0, "in_late", 2, 1, 0, 4096)),
                // Same kernel twice: a new epoch key over known kernels.
                2 => v.push(l(0, "in_a", 0, 1, 2, 4096)),
                3 => v.push(l(0, "in_later", 2, 1, 0, 4096)),
                _ => {}
            }
            v.extend([l(1, "it_a", 3, 4, 5, 8192), l(1, "it_b", 5, 4, 3, 8192)]);
            v.extend([
                l(2, "sp_big", 6, 7, 8, 16384),
                l(2, "sp_small", 6, 7, 9, 256),
                l(2, "sp_plain", 8, 7, 6, 4096),
            ]);
            // Queue 3's first launch reads 13, which queue 4 wrote on its
            // own device the epoch before (a staging transfer every warm
            // epoch); its second launch is independent and resident, so it
            // need not wait for the first. Queue 4 reads 11 back — a
            // cross-queue RAW (and, on 13, WAR) hazard inside the epoch.
            v.extend([l(3, "oo_a", 13, 10, 11, 16384), l(3, "oo_b", 10, 15, 12, 16384)]);
            v.extend([l(4, "oo_c", 11, 10, 13, 16384), l(4, "oo_d", 13, 16, 14, 16384)]);
            v.push(l(5, "off_a", 17, 18, 19, 2048));
            v
        })
        .collect();
    Scenario { queues, buffers, kernels, epochs }
}

/// Twelve auto queues, each with its own three buffers; four kernel names
/// shared round-robin so epoch keys and kernel rows are shared too.
fn wide() -> Scenario {
    let queues: Vec<Option<QueueSchedFlags>> = (0..12)
        .map(|i| {
            Some(match i {
                8 | 9 => dynamic() | QueueSchedFlags::SCHED_OUT_OF_ORDER,
                10 => QueueSchedFlags::SCHED_AUTO_STATIC | QueueSchedFlags::SCHED_MEM_BOUND,
                11 => QueueSchedFlags::SCHED_AUTO_STATIC,
                _ => dynamic(),
            })
        })
        .collect();
    let buffers: Vec<(usize, usize)> =
        (0..12).flat_map(|q| std::iter::repeat_n((2048 + 512 * (q % 3), q), 3)).collect();
    let kernels = vec![
        KSpec { name: "w0", scale: 0.25, flops: 10.0, splittable: false },
        KSpec { name: "w1", scale: 0.5, flops: 400.0, splittable: false },
        KSpec { name: "w2", scale: 0.75, flops: 1200.0, splittable: false },
        KSpec { name: "w3", scale: 1.25, flops: 60.0, splittable: false },
    ];
    let epochs: Vec<Vec<Launch>> = (0..4)
        .map(|e| {
            (0..12)
                .flat_map(|q| {
                    let items = (2048 + 512 * (q % 3)) as u64;
                    let launch =
                        Launch { q, kernel: q % 4, a: 3 * q, b: 3 * q + 1, out: 3 * q + 2, items };
                    // Epoch 2 launches every kernel twice: new epoch keys,
                    // composed from the per-kernel rows.
                    std::iter::repeat_n(launch, if e == 2 { 2 } else { 1 })
                })
                .collect()
        })
        .collect();
    Scenario { queues, buffers, kernels, epochs }
}

fn count(events: &[SchedEvent], kind: &str) -> usize {
    events.iter().filter(|e| e.kind() == kind).count()
}

#[test]
fn mixed_pool_auto_fit_is_pinned() {
    let o = run("mixed/auto_fit/clean", &mixed(), ContextSchedPolicy::AutoFit, None, 0.0);
    // The scenario must keep exercising what it claims to pin.
    assert_eq!(o.stats.sched_invocations, 4);
    assert_eq!(o.stats.kernels_split, 4, "sp_big splits every epoch: {:?}", o.stats);
    assert_eq!(o.stats.kernels_issued, 4 * 11 + 4, "whole launches still count: {:?}", o.stats);
    assert!(o.stats.profiled_epochs >= 2 && o.stats.cache_hits >= 4, "{:?}", o.stats);
    assert!(count(&o.events, "kernel_profiled") > 0 && count(&o.events, "cache_hit") > 0);
    assert_pinned("mixed/auto_fit/clean", &o);
}

#[test]
fn mixed_pool_auto_fit_with_device_loss_is_pinned() {
    let o = run("mixed/auto_fit/loss", &mixed(), ContextSchedPolicy::AutoFit, Some(2), 0.0);
    assert_eq!(o.stats.devices_lost, 1, "{:?}", o.stats);
    assert_eq!(count(&o.events, "device_down"), 1);
    assert_pinned("mixed/auto_fit/loss", &o);
}

#[test]
fn mixed_pool_auto_fit_with_predictor_is_pinned() {
    let o = run("mixed/auto_fit/predictor", &mixed(), ContextSchedPolicy::AutoFit, None, 0.75);
    assert!(o.stats.kernels_predicted > 0 && o.stats.predictor_fallbacks > 0, "{:?}", o.stats);
    assert_pinned("mixed/auto_fit/predictor", &o);
}

#[test]
fn mixed_pool_round_robin_is_pinned() {
    let o = run("mixed/round_robin/clean", &mixed(), ContextSchedPolicy::RoundRobin, None, 0.0);
    assert_eq!(count(&o.events, "makespan_attribution"), 4, "attribution every epoch");
    assert_eq!(count(&o.events, "mapping_decision"), 0);
    assert_pinned("mixed/round_robin/clean", &o);
    let o = run("mixed/round_robin/loss", &mixed(), ContextSchedPolicy::RoundRobin, Some(2), 0.0);
    assert_eq!(o.stats.devices_lost, 1, "{:?}", o.stats);
    assert_pinned("mixed/round_robin/loss", &o);
}

#[test]
fn wide_warm_pool_is_pinned() {
    let o = run("wide/auto_fit/clean", &wide(), ContextSchedPolicy::AutoFit, None, 0.0);
    assert_eq!(o.stats.sched_invocations, 4);
    // Ten dynamic queues × three warm epochs, all served from the caches.
    assert_eq!(o.stats.cache_hits, 30 + 6, "{:?}", o.stats);
    assert_eq!(o.stats.profiled_epochs, 4, "one per kernel name, cold epoch only: {:?}", o.stats);
    assert_pinned("wide/auto_fit/clean", &o);
}
