//! The dynamic profiler's schedule in virtual time (paper §V-C): a cold
//! kernel is probed on every device at once. Each device's staging uploads
//! and probes form one chain; an upload that reads a host copy waits for
//! the download that filled it; the host waits once, at the end.
//!
//! The scene: the paper node, one buffer written on GPU0 (so it is valid
//! there and nowhere else, the host included) and one AUTO_FIT queue that
//! launches a kernel on it for the first time. With data caching one
//! download from GPU0 fills the host copy both uploads read; without it
//! each destination downloads its own. A device that dies inside the
//! window drops out of it at its loss.

use clrt::buffer::Residency;
use clrt::{ArgValue, Buffer, KernelBody, KernelCtx, NdRange, Platform};
use hwsim::engine::CommandKind;
use hwsim::topology::TransferKind;
use hwsim::trace::TraceRecord;
use hwsim::{
    DeviceId, FailureRecord, FaultKind, FaultPlan, KernelCostSpec, KernelTraits, SimDuration,
    SimTime,
};
use multicl::telemetry::RingBufferSink;
use multicl::{
    ContextSchedPolicy, MulticlContext, ProfileCache, QueueSchedFlags, SchedEvent, SchedObserver,
    SchedOptions, PROFILING_TAG,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const CPU: DeviceId = DeviceId(0);
const GPU0: DeviceId = DeviceId(1);
const GPU1: DeviceId = DeviceId(2);
/// 256 KiB of `f64`: 512 workgroups of 64.
const ELEMENTS: usize = 32 * 1024;
const LOCAL: u64 = 64;

/// The cold kernel's profiled row (ns per device: CPU, GPU0, GPU1) — the
/// cost model's analytic estimate, so the same whatever the schedule.
/// Recorded from the serial profiler this schedule replaced.
const ROW_NS: [u64; 3] = [59_712, 32_625, 32_625];

/// `x[i] = x[i] * 0.5 + 1` over the sub-range the launch owns.
struct Halve;

impl KernelBody for Halve {
    fn name(&self) -> &str {
        "halve"
    }
    fn arity(&self) -> usize {
        1
    }
    fn cost(&self) -> KernelCostSpec {
        KernelCostSpec { flops_per_item: 500.0, bytes_per_item: 16.0, traits: KernelTraits::IDEAL }
    }
    fn execute(&self, ctx: &mut KernelCtx<'_>) {
        let base = ctx.global_offset()[0] as usize;
        let n = ctx.nd().global_items() as usize;
        for v in &mut ctx.slice_mut::<f64>(0)[base..base + n] {
            *v = *v * 0.5 + 1.0;
        }
    }
}

/// Reads the profiled buffer's residency when the window's row is
/// announced, before the real launch moves it.
#[derive(Default)]
struct ResidencyAtProfiled {
    buffer: Mutex<Option<Buffer>>,
    seen: Mutex<Option<Residency>>,
}

impl SchedObserver for ResidencyAtProfiled {
    fn on_event(&self, event: &SchedEvent) {
        if let (SchedEvent::KernelProfiled { .. }, Some(b)) = (event, &*self.buffer.lock().unwrap())
        {
            *self.seen.lock().unwrap() = Some(b.residency());
        }
    }
}

/// What one cold epoch's profiling left behind.
struct Window {
    /// The first epoch's `EpochBegin.at`, in ns.
    began: u64,
    /// The first epoch's `EpochEnd.profiling`.
    profiling: SimDuration,
    /// Every profiling-tagged trace record, in submission order.
    records: Vec<TraceRecord>,
    /// The `KernelProfiled` row of the cold kernel, in ns.
    row: Vec<u64>,
    /// The buffer's residency when that row was announced.
    residency: Residency,
    /// Every failed command of the run.
    failures: Vec<FailureRecord>,
    /// The devices the first epoch announced lost.
    down: Vec<DeviceId>,
}

/// One cold epoch; `loss` loses a device at that instant, after the
/// buffer is written.
fn profile_cold_kernel(data_caching: bool, loss: Option<(DeviceId, SimTime)>) -> Window {
    let platform = Platform::paper_node();
    let events = Arc::new(RingBufferSink::new(1024));
    let at_profiled = Arc::new(ResidencyAtProfiled::default());
    // A cache of its own, which context creation always misses: every run
    // measures the device profile first, so runs share one timeline.
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("multicl-profile-window-{}-{run}", std::process::id()));
    let options = SchedOptions {
        profile_cache: ProfileCache::at(&dir),
        data_caching,
        observers: vec![events.clone(), at_profiled.clone()],
        ..SchedOptions::default()
    };
    let ctx = MulticlContext::with_options(&platform, ContextSchedPolicy::AutoFit, options)
        .expect("context");
    let x = ctx.create_buffer_of::<f64>(ELEMENTS).expect("buffer");
    let writer = ctx.create_queue_on(GPU0).expect("writer");
    writer.enqueue_write(&x, &vec![1.0f64; ELEMENTS]).expect("write");
    writer.finish();
    let res = x.residency();
    assert!(!res.host && res.valid_on(GPU0) && res.devices.iter().count() == 1, "{res:?}");
    *at_profiled.buffer.lock().unwrap() = Some(x.clone());
    if let Some((dev, at)) = loss {
        platform.with_engine(|e| e.set_fault_plan(FaultPlan::new(1).lose_device(dev, at)));
    }

    let program = ctx.create_program(vec![Arc::new(Halve) as Arc<dyn KernelBody>]).expect("prog");
    let k = program.create_kernel("halve").expect("kernel");
    k.set_arg(0, ArgValue::BufferMut(x.clone())).unwrap();
    let q = ctx.create_queue(QueueSchedFlags::SCHED_AUTO_DYNAMIC).expect("queue");
    q.enqueue_ndrange(&k, NdRange::d1(ELEMENTS as u64, LOCAL)).expect("enqueue");
    ctx.finish_all();
    assert!(x.host_snapshot::<f64>().iter().all(|&v| v == 1.5), "the launch ran once");
    let failures = platform.with_engine(|e| e.failures().to_vec());

    let records: Vec<TraceRecord> =
        platform.take_trace().records.into_iter().filter(|r| r.has_tag(PROFILING_TAG)).collect();
    let (mut began, mut profiling, mut row, mut down) = (None, None, None, Vec::new());
    for e in events.drain() {
        match e {
            SchedEvent::EpochBegin { epoch: 1, at, .. } => began = Some(at.as_nanos()),
            SchedEvent::EpochEnd { epoch: 1, profiling: p, .. } => profiling = Some(p),
            SchedEvent::KernelProfiled { epoch: 1, costs, .. } => {
                row = Some(costs.iter().map(|c| c.as_nanos()).collect())
            }
            SchedEvent::DeviceDown { epoch: 1, device, .. } => down.push(device),
            _ => {}
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let residency = at_profiled.seen.lock().unwrap().take();
    Window {
        began: began.expect("an EpochBegin"),
        profiling: profiling.expect("an EpochEnd"),
        records,
        row: row.expect("the kernel was profiled"),
        residency: residency.expect("a residency at the row"),
        failures,
        down,
    }
}

fn transfer(r: &TraceRecord) -> Option<TransferKind> {
    match r.kind {
        CommandKind::Transfer { kind, .. } => Some(kind),
        _ => None,
    }
}

fn count(w: &Window, kind: TransferKind) -> usize {
    w.records.iter().filter(|r| transfer(r) == Some(kind)).count()
}

#[test]
fn the_window_costs_the_longest_device_chain_not_the_sum() {
    for caching in [true, false] {
        let w = profile_cold_kernel(caching, None);
        let last_end = w.records.iter().map(|r| r.stamp.end.as_nanos()).max().expect("records");
        assert_eq!(
            w.profiling.as_nanos(),
            last_end - w.began,
            "caching {caching}: the host waits once, for the last profiling command"
        );
        let busy: u64 = w.records.iter().map(|r| r.stamp.duration().as_nanos()).sum();
        assert!(
            w.profiling.as_nanos() < busy,
            "caching {caching}: window {} ns, per-device profiling busy time {busy} ns in all — \
             the devices took turns",
            w.profiling.as_nanos()
        );
    }
}

#[test]
fn an_upload_starts_after_the_download_that_filled_its_host_copy() {
    for caching in [true, false] {
        let w = profile_cold_kernel(caching, None);
        let mut fed = 0;
        for (i, up) in w.records.iter().enumerate() {
            if transfer(up) != Some(TransferKind::HostToDevice) {
                continue;
            }
            // The host copy it reads: the newest download submitted before
            // it (one buffer, so every download fills the same copy).
            let down = w.records[..i]
                .iter()
                .rev()
                .find(|r| transfer(r) == Some(TransferKind::DeviceToHost))
                .expect("the buffer was valid on GPU0 only, so a download precedes every upload");
            assert!(
                up.stamp.start >= down.stamp.end,
                "caching {caching}: upload to {:?} starts at {} ns, before its host copy's \
                 download ends at {} ns",
                up.device,
                up.stamp.start.as_nanos(),
                down.stamp.end.as_nanos()
            );
            fed += 1;
        }
        assert_eq!(fed, 2, "caching {caching}: one upload each to the CPU and GPU1");
    }
}

#[test]
fn rows_and_transfer_counts_are_the_serial_profilers() {
    for (caching, d2h, h2d) in [(true, 1, 2), (false, 2, 2)] {
        let w = profile_cold_kernel(caching, None);
        assert_eq!(w.row, ROW_NS, "caching {caching}");
        assert_eq!(count(&w, TransferKind::DeviceToHost), d2h, "caching {caching}: downloads");
        assert_eq!(count(&w, TransferKind::HostToDevice), h2d, "caching {caching}: uploads");
        let probes = w.records.iter().filter(|r| matches!(r.kind, CommandKind::Kernel { .. }));
        assert_eq!(probes.count(), 3, "caching {caching}: one probe per device");
    }
}

#[test]
fn a_device_lost_inside_the_window_drops_out_of_it_at_its_loss() {
    for caching in [true, false] {
        let healthy = profile_cold_kernel(caching, None);
        let on_gpu1 = |pick: fn(&TraceRecord) -> bool| {
            let r = healthy.records.iter().find(|r| r.device == GPU1 && pick(r));
            let r = r.expect("GPU1 has an upload and a probe");
            // Halfway through the command.
            r.stamp.start + r.stamp.duration() / 2
        };
        let upload = on_gpu1(|r| transfer(r) == Some(TransferKind::HostToDevice));
        let probe = on_gpu1(|r| matches!(r.kind, CommandKind::Kernel { .. }));
        // Lost in its upload: no probe is submitted, and the failed upload
        // leaves nothing on GPU1. Lost in its probe: the upload landed.
        for (at, failed_upload) in [(upload, true), (probe, false)] {
            let w = profile_cold_kernel(caching, Some((GPU1, at)));
            let case = format!("caching {caching}, GPU1 lost at {} ns", at.as_nanos());
            assert_eq!(w.row, [ROW_NS[0], ROW_NS[1], 0], "{case}: GPU1 keeps the zero row");
            assert_eq!(w.down, [GPU1], "{case}: the pass blacklists GPU1 after the window");
            // The one command that met the loss, truncated at it; the real
            // launch ran elsewhere and failed nothing.
            let [f] = w.failures[..] else { panic!("{case}: failures {:?}", w.failures) };
            assert_eq!(
                (f.device, f.kind, f.queue, f.at),
                (GPU1, FaultKind::DeviceLost, usize::MAX, at)
            );
            let met = w.records.iter().rfind(|r| r.device == GPU1).expect("a GPU1 record");
            assert_eq!(met.stamp.end, at, "{case}: the chain stops at the command that met it");
            assert_eq!(transfer(met).is_some(), failed_upload, "{case}: {met:?}");
            let resident_on = |d| w.residency.valid_on(d);
            assert_eq!(resident_on(GPU1), caching && !failed_upload, "{case}: {:?}", w.residency);
            assert_eq!(resident_on(CPU), caching, "{case}: {:?}", w.residency);
        }
    }
}

/// The buffer's only holder, GPU0, lost before the window: its copy is
/// gone, and the staging reads the host's canonical contents, as the
/// runtime's migration does (`Residency::source`). Nothing is submitted on
/// GPU0 and nothing fails, with caching or without.
#[test]
fn a_holder_lost_before_the_window_is_not_staged_from() {
    for caching in [true, false] {
        let w = profile_cold_kernel(caching, Some((GPU0, SimTime::ZERO)));
        let on_gpu0: Vec<_> = w.records.iter().filter(|r| r.device == GPU0).collect();
        assert!(on_gpu0.is_empty(), "caching {caching}: {on_gpu0:?}");
        assert!(w.failures.is_empty(), "caching {caching}: {:?}", w.failures);
        assert_eq!(count(&w, TransferKind::DeviceToHost), 0, "caching {caching}: downloads");
        assert_eq!(count(&w, TransferKind::HostToDevice), 2, "caching {caching}: uploads");
        assert_eq!(w.row, [ROW_NS[0], 0, ROW_NS[2]], "caching {caching}");
        assert_eq!(w.down, [GPU0], "caching {caching}");
    }
}
