//! Extended Chrome/Perfetto export: the engine trace plus telemetry.
//!
//! [`TraceRecord::chrome_event_json`](hwsim::trace::TraceRecord::chrome_event_json)
//! renders each executed command as a complete event on its device row.
//! This module layers the scheduler's story on top:
//!
//! * **flow events** (`"ph":"s"` / `"ph":"f"`) connecting the source and
//!   destination device rows of every [`SchedEvent::QueueMigrated`], so
//!   queue rebinds show up as arrows in the Perfetto UI;
//! * **counter tracks** (`"ph":"C"`) with the number of concurrently
//!   executing commands per device — a per-device utilization curve;
//! * **engine-lane tracks**: each device's compute and copy engines as
//!   separate named rows (`D<n>/compute`, `D<n>/copy`), so transfer/compute
//!   overlap from out-of-order execution is directly visible;
//! * **job tracks** (`"ph":"X"` under a dedicated `jobs` process) from
//!   every [`SchedEvent::JobTrace`]: one row per job, the end-to-end span
//!   tiled with its critical-path segments, and a flow arrow from each
//!   dispatch to the device row that executed it.
//!
//! Times follow the trace convention: virtual nanoseconds emitted as the
//! viewer's microsecond `ts` field.

use super::event::SchedEvent;
use super::tracing::SegmentKind;
use hwsim::json::Json;
use hwsim::trace::Trace;
use hwsim::DeviceId;

/// The `pid` of the synthetic process that holds one row per job. Device
/// rows live under pid 0 (the engine trace convention).
pub const JOBS_PID: u64 = 1;

/// One flow-event pair (start on the source device row, finish on the
/// destination row) per queue migration in `events`. Returned as JSON
/// objects ready to splice into a trace array.
pub fn migration_flow_events(events: &[SchedEvent]) -> Vec<Json> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for ev in events {
        if let SchedEvent::QueueMigrated { epoch, queue, from, to, bytes, at } = ev {
            id += 1;
            let name = format!("Q{queue} migration");
            let common = |ph: &str, tid: DeviceId, ts: u64| {
                let mut obj = vec![
                    ("name".to_string(), Json::from(name.as_str())),
                    ("cat".to_string(), Json::from("migration")),
                    ("ph".to_string(), Json::from(ph)),
                    ("id".to_string(), Json::from(id)),
                    ("ts".to_string(), Json::from(ts)),
                    ("pid".to_string(), Json::from(0u64)),
                    ("tid".to_string(), Json::from(tid.index())),
                ];
                if ph == "f" {
                    // Bind the arrowhead to the enclosing slice.
                    obj.push(("bp".to_string(), Json::from("e")));
                }
                obj.push((
                    "args".to_string(),
                    Json::obj([("epoch", Json::from(*epoch)), ("bytes", Json::from(*bytes))]),
                ));
                Json::Obj(obj)
            };
            let ts = at.as_nanos();
            out.push(common("s", *from, ts));
            // The finish must be strictly after the start for the viewer
            // to draw the arrow.
            out.push(common("f", *to, ts + 1));
        }
    }
    out
}

/// Job track events from the [`SchedEvent::JobTrace`] stream: one row
/// (`tid` = job id) per job under the `jobs` process, holding
///
/// * a whole-span slice from admission to terminal outcome,
/// * one child slice per non-empty critical-path segment of every
///   attempt, tiled in canonical [`SegmentKind::ALL`] order across the
///   attempt's window (segment slices sum exactly to the job latency), and
/// * a flow arrow (`"s"` → `"f"`) from each dispatched attempt to the
///   device row that executed it, with the attempt's
///   [`flow_id`](super::tracing::SpanId::flow_id) so arrows stay stable
///   across exports.
pub fn job_span_events(events: &[SchedEvent]) -> Vec<Json> {
    let mut out = Vec::new();
    let mut named = false;
    for ev in events {
        let SchedEvent::JobTrace {
            epoch,
            tenant,
            job,
            submitted_at,
            completed_at,
            outcome,
            attempts,
        } = ev
        else {
            continue;
        };
        if !named {
            named = true;
            out.push(Json::obj([
                ("name", Json::from("process_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(JOBS_PID)),
                ("args", Json::obj([("name", Json::from("jobs"))])),
            ]));
        }
        let slice = |name: String, cat: &str, ts: u64, dur: u64, args: Json| {
            Json::obj([
                ("name", Json::from(name.as_str())),
                ("cat", Json::from(cat)),
                ("ph", Json::from("X")),
                ("ts", Json::from(ts)),
                ("dur", Json::from(dur)),
                ("pid", Json::from(JOBS_PID)),
                ("tid", Json::from(*job)),
                ("args", args),
            ])
        };
        out.push(slice(
            format!("{tenant}#{job}"),
            "job",
            submitted_at.as_nanos(),
            completed_at.saturating_since(*submitted_at).as_nanos(),
            Json::obj([
                ("outcome", Json::from(&**outcome)),
                ("epoch", Json::from(*epoch)),
                ("attempts", Json::from(attempts.len())),
            ]),
        ));
        for a in attempts.iter() {
            // Tile the attempt's window with its segments, canonical order.
            // The segments sum to the window by construction, so the tiles
            // abut exactly and nest inside the whole-span slice.
            let mut cursor = a.ended_at.as_nanos() - a.segments.total().as_nanos();
            for kind in SegmentKind::ALL {
                let d = a.segments.get(kind).as_nanos();
                if d == 0 {
                    continue;
                }
                out.push(slice(
                    kind.label().to_string(),
                    "segment",
                    cursor,
                    d,
                    Json::obj([("attempt", Json::from(u64::from(a.span.attempt)))]),
                ));
                cursor += d;
            }
            let (Some(queue), Some(device)) = (a.queue, a.device) else {
                continue;
            };
            let flow = |ph: &str, pid: u64, tid: u64, ts: u64| {
                let mut obj = vec![
                    ("name".to_string(), Json::from("dispatch")),
                    ("cat".to_string(), Json::from("dispatch")),
                    ("ph".to_string(), Json::from(ph)),
                    ("id".to_string(), Json::from(a.span.flow_id())),
                    ("ts".to_string(), Json::from(ts)),
                    ("pid".to_string(), Json::from(pid)),
                    ("tid".to_string(), Json::from(tid)),
                ];
                if ph == "f" {
                    obj.push(("bp".to_string(), Json::from("e")));
                }
                obj.push((
                    "args".to_string(),
                    Json::obj([("queue", Json::from(queue)), ("epoch", Json::from(a.epoch))]),
                ));
                Json::Obj(obj)
            };
            let ts = a.dispatched_at.as_nanos();
            out.push(flow("s", JOBS_PID, *job, ts));
            // Land on the executing device row, strictly later so the
            // viewer draws the arrow.
            out.push(flow("f", 0, device, ts + 1));
        }
    }
    out
}

/// Per-device utilization counter events: one `"ph":"C"` sample at every
/// instant the number of concurrently executing commands on a device
/// changes. Rendered as a counter track named `active/D<n>`.
pub fn utilization_counter_events(trace: &Trace) -> Vec<Json> {
    // (device, time, delta) edges for every command.
    let mut edges: Vec<(DeviceId, u64, i64)> = Vec::with_capacity(trace.records.len() * 2);
    for r in &trace.records {
        edges.push((r.device, r.stamp.start.as_nanos(), 1));
        edges.push((r.device, r.stamp.end.as_nanos(), -1));
    }
    // Per device, by time; ends before starts at the same instant so a
    // back-to-back pair reads as 1→1, not 1→2→1... ends first means
    // 1→0→1 at one timestamp, collapsed below by emitting only the final
    // value per (device, time).
    edges.sort_by_key(|&(d, t, delta)| (d, t, delta));

    let mut out = Vec::new();
    let mut i = 0;
    while i < edges.len() {
        let (dev, _, _) = edges[i];
        let mut active: i64 = 0;
        let track = format!("active/{dev}");
        while i < edges.len() && edges[i].0 == dev {
            let t = edges[i].1;
            while i < edges.len() && edges[i].0 == dev && edges[i].1 == t {
                active += edges[i].2;
                i += 1;
            }
            out.push(Json::obj([
                ("name", Json::from(track.as_str())),
                ("ph", Json::from("C")),
                ("ts", Json::from(t)),
                ("pid", Json::from(0u64)),
                ("args", Json::obj([("active", Json::from(active.max(0) as u64))])),
            ]));
        }
    }
    out
}

/// The `tid` of a device's compute-lane row (its copy lane sits at the
/// next tid). Lane rows live under pid 0 next to the per-device rows, far
/// enough up the tid space that they never collide with real device ids.
fn lane_tid(device: DeviceId, copy: bool) -> u64 {
    10_000 + 2 * device.index() as u64 + u64::from(copy)
}

/// The `tid` of the synthetic row that holds kernel-split instants. Sits
/// above the lane rows so it never collides with them or real device ids.
const SPLITS_TID: u64 = 30_000;

/// Kernel-split track events: one instant per [`SchedEvent::KernelSplit`]
/// on a dedicated `splits` row.
pub fn split_chunk_events(events: &[SchedEvent]) -> Vec<Json> {
    let mut out = Vec::new();
    for ev in events {
        let SchedEvent::KernelSplit { epoch, queue, kernel, total_wgs, chunks, at, .. } = ev else {
            continue;
        };
        if out.is_empty() {
            out.push(Json::obj([
                ("name", Json::from("thread_name")),
                ("ph", Json::from("M")),
                ("pid", Json::from(0u64)),
                ("tid", Json::from(SPLITS_TID)),
                ("args", Json::obj([("name", Json::from("splits"))])),
            ]));
        }
        out.push(Json::obj([
            ("name", Json::from(format!("split {kernel}").as_str())),
            ("cat", Json::from("split")),
            ("ph", Json::from("i")),
            ("s", Json::from("t")),
            ("ts", Json::from(at.as_nanos())),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(SPLITS_TID)),
            (
                "args",
                Json::obj([
                    ("epoch", Json::from(*epoch)),
                    ("queue", Json::from(*queue)),
                    ("total_wgs", Json::from(*total_wgs)),
                    ("chunks", Json::from(*chunks)),
                ]),
            ),
        ]));
    }
    out
}

/// Per-device engine-lane tracks: every trace record re-rendered as an
/// `"ph":"X"` slice on its device's *compute* or *copy* lane row, so the
/// two hardware engines show up as separate rows in the viewer and
/// transfer/compute overlap is visible as vertically stacked slices.
/// Kernels and markers land on `D<n>/compute`, DMA transfers on
/// `D<n>/copy`; each row carries `thread_name` metadata.
pub fn lane_track_events(trace: &Trace) -> Vec<Json> {
    use hwsim::engine::CommandKind;
    let mut out = Vec::new();
    let mut named: std::collections::BTreeSet<DeviceId> = std::collections::BTreeSet::new();
    for r in &trace.records {
        let copy = matches!(r.kind, CommandKind::Transfer { .. });
        if named.insert(r.device) {
            for lane in [false, true] {
                out.push(Json::obj([
                    ("name", Json::from("thread_name")),
                    ("ph", Json::from("M")),
                    ("pid", Json::from(0u64)),
                    ("tid", Json::from(lane_tid(r.device, lane))),
                    (
                        "args",
                        Json::obj([(
                            "name",
                            Json::from(
                                format!("{}/{}", r.device, if lane { "copy" } else { "compute" })
                                    .as_str(),
                            ),
                        )]),
                    ),
                ]));
            }
        }
        let name = match &r.kind {
            CommandKind::Kernel { name } => name.to_string(),
            CommandKind::Transfer { kind, bytes } => format!("{kind:?} {bytes}B"),
            CommandKind::Marker => "marker".to_string(),
        };
        out.push(Json::obj([
            ("name", Json::from(name.as_str())),
            ("cat", Json::from("lane")),
            ("ph", Json::from("X")),
            ("ts", Json::from(r.stamp.start.as_nanos())),
            ("dur", Json::from(r.stamp.duration().as_nanos().max(1))),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(lane_tid(r.device, copy))),
            ("args", Json::obj([("queue", Json::from(r.queue))])),
        ]));
    }
    out
}

/// The full export: every trace record (via
/// [`TraceRecord::chrome_event_json`](hwsim::trace::TraceRecord::chrome_event_json)),
/// plus migration flow events, per-device utilization counters, engine-lane
/// tracks, and job span tracks from the telemetry stream. The result is one
/// Chrome-tracing JSON array.
pub fn chrome_trace_with_telemetry(trace: &Trace, events: &[SchedEvent]) -> String {
    let mut parts: Vec<String> = trace.records.iter().map(|r| r.chrome_event_json()).collect();
    parts.extend(migration_flow_events(events).iter().map(Json::dump));
    parts.extend(utilization_counter_events(trace).iter().map(Json::dump));
    parts.extend(lane_track_events(trace).iter().map(Json::dump));
    parts.extend(job_span_events(events).iter().map(Json::dump));
    parts.extend(split_chunk_events(events).iter().map(Json::dump));
    format!("[{}]", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::engine::{CommandDesc, CommandKind, Engine};
    use hwsim::{SimDuration, SimTime};

    fn traced_engine() -> Engine {
        let mut e = Engine::new(2);
        for i in 0..3 {
            e.submit(CommandDesc {
                device: DeviceId(i % 2),
                kind: CommandKind::Marker,
                duration: SimDuration::from_millis(5),
                waits: hwsim::WaitList::new(),
                queue: i,
            });
        }
        e.finish_all();
        e
    }

    fn migration(queue: usize, at_ns: u64) -> SchedEvent {
        SchedEvent::QueueMigrated {
            epoch: 1,
            queue,
            from: DeviceId(0),
            to: DeviceId(1),
            bytes: 256,
            at: SimTime::from_nanos(at_ns),
        }
    }

    #[test]
    fn flow_events_pair_start_and_finish() {
        let flows = migration_flow_events(&[migration(0, 100), migration(1, 200)]);
        assert_eq!(flows.len(), 4);
        let phs: Vec<&str> = flows.iter().map(|f| f.get("ph").unwrap().as_str().unwrap()).collect();
        assert_eq!(phs, vec!["s", "f", "s", "f"]);
        // Pairs share an id; distinct migrations do not.
        let id = |i: usize| flows[i].get("id").unwrap().as_u64().unwrap();
        assert_eq!(id(0), id(1));
        assert_ne!(id(0), id(2));
        // Start sits on the source row, finish on the destination row,
        // strictly later.
        assert_eq!(flows[0].get("tid").unwrap().as_u64(), Some(0));
        assert_eq!(flows[1].get("tid").unwrap().as_u64(), Some(1));
        let ts = |i: usize| flows[i].get("ts").unwrap().as_u64().unwrap();
        assert!(ts(1) > ts(0));
        assert_eq!(flows[1].get("bp").unwrap().as_str(), Some("e"));
    }

    #[test]
    fn counter_events_track_concurrent_commands() {
        let e = traced_engine();
        let counters = utilization_counter_events(e.trace());
        assert!(!counters.is_empty());
        for c in &counters {
            assert_eq!(c.get("ph").unwrap().as_str(), Some("C"));
            assert!(c.get("name").unwrap().as_str().unwrap().starts_with("active/D"));
            assert!(c.get("args").unwrap().get("active").unwrap().as_u64().is_some());
        }
        // Every device's last sample returns to zero active commands.
        let last_d0 = counters
            .iter()
            .rfind(|c| c.get("name").unwrap().as_str() == Some("active/D0"))
            .unwrap();
        assert_eq!(last_d0.get("args").unwrap().get("active").unwrap().as_u64(), Some(0));
    }

    fn job_trace(job: u64) -> SchedEvent {
        use crate::telemetry::tracing::{AttemptTrace, SegmentKind, SegmentSet, SpanId};
        let mut segments = SegmentSet::zero();
        segments.add(SegmentKind::AdmissionWait, SimDuration::from_nanos(100));
        segments.add(SegmentKind::H2d, SimDuration::from_nanos(300));
        segments.add(SegmentKind::Compute, SimDuration::from_nanos(600));
        SchedEvent::JobTrace {
            epoch: 3,
            tenant: "t0".into(),
            job,
            submitted_at: SimTime::from_nanos(1_000),
            completed_at: SimTime::from_nanos(2_000),
            outcome: "completed".into(),
            attempts: vec![AttemptTrace {
                span: SpanId { job, attempt: 0 },
                queue: Some(2),
                device: Some(1),
                epoch: 3,
                dispatched_at: SimTime::from_nanos(1_100),
                ended_at: SimTime::from_nanos(2_000),
                segments,
            }]
            .into(),
        }
    }

    #[test]
    fn job_spans_tile_segments_and_point_at_the_device_row() {
        let spans = job_span_events(&[job_trace(7)]);
        // Metadata + whole-span + 3 segment tiles + flow pair.
        let ph = |p: &str| -> Vec<&Json> {
            spans.iter().filter(|o| o.get("ph").and_then(Json::as_str) == Some(p)).collect()
        };
        assert_eq!(ph("M").len(), 1);
        let slices = ph("X");
        assert_eq!(slices.len(), 4);
        // Whole span sits on the job row of the jobs process.
        let whole = slices[0];
        assert_eq!(whole.get("pid").unwrap().as_u64(), Some(JOBS_PID));
        assert_eq!(whole.get("tid").unwrap().as_u64(), Some(7));
        assert_eq!(whole.get("dur").unwrap().as_u64(), Some(1_000));
        // Segment tiles abut and sum to the attempt window.
        let tiles = &slices[1..];
        let mut cursor = 1_000u64; // 2_000 − total(1_000)
        let mut total = 0;
        for t in tiles {
            assert_eq!(t.get("ts").unwrap().as_u64(), Some(cursor));
            let d = t.get("dur").unwrap().as_u64().unwrap();
            cursor += d;
            total += d;
        }
        assert_eq!(total, 1_000);
        assert_eq!(
            tiles.iter().map(|t| t.get("name").unwrap().as_str().unwrap()).collect::<Vec<_>>(),
            vec!["admission_wait", "h2d", "compute"],
            "canonical tiling order"
        );
        // The flow arrow starts on the job row and lands on device 1.
        let (s, f) = (&ph("s")[0], &ph("f")[0]);
        assert_eq!(s.get("id").unwrap().as_u64(), f.get("id").unwrap().as_u64());
        assert_eq!(s.get("pid").unwrap().as_u64(), Some(JOBS_PID));
        assert_eq!(f.get("pid").unwrap().as_u64(), Some(0));
        assert_eq!(f.get("tid").unwrap().as_u64(), Some(1));
        assert!(f.get("ts").unwrap().as_u64() > s.get("ts").unwrap().as_u64());
    }

    #[test]
    fn lane_tracks_split_transfers_from_kernels() {
        use hwsim::topology::TransferKind;
        let mut e = Engine::new(1);
        e.submit(CommandDesc {
            device: DeviceId(0),
            kind: CommandKind::Kernel { name: std::sync::Arc::from("k") },
            duration: SimDuration::from_millis(10),
            waits: hwsim::WaitList::new(),
            queue: 0,
        });
        e.submit(CommandDesc {
            device: DeviceId(0),
            kind: CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes: 4096 },
            duration: SimDuration::from_millis(5),
            waits: hwsim::WaitList::new(),
            queue: 1,
        });
        e.finish_all();
        let lanes = lane_track_events(e.trace());
        // Two thread_name metadata rows plus two slices.
        let names: Vec<String> = lanes
            .iter()
            .filter(|o| o.get("ph").and_then(Json::as_str) == Some("M"))
            .map(|o| o.get("args").unwrap().get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["D0/compute", "D0/copy"]);
        let slices: Vec<&Json> =
            lanes.iter().filter(|o| o.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(slices.len(), 2);
        // The kernel sits on the compute row, the transfer on the copy row.
        assert_eq!(slices[0].get("name").unwrap().as_str(), Some("k"));
        assert_eq!(slices[0].get("tid").unwrap().as_u64(), Some(lane_tid(DeviceId(0), false)));
        assert_eq!(slices[1].get("tid").unwrap().as_u64(), Some(lane_tid(DeviceId(0), true)));
        // Lane rows never collide with real device rows (pid 0, small tids).
        assert!(lane_tid(DeviceId(0), false) >= 10_000);
    }

    #[test]
    fn split_events_render_one_instant_per_split_on_the_splits_row() {
        let split = SchedEvent::KernelSplit {
            epoch: 2,
            queue: 1,
            kernel: "embar".into(),
            total_wgs: 128,
            chunks: 2,
            wgs_per_device: vec![80, 48].into(),
            at: SimTime::from_nanos(5_000),
        };
        let out = split_chunk_events(&[split.clone(), migration(0, 1), split]);
        // One metadata row, then one instant per split.
        let phs: Vec<&str> = out.iter().map(|o| o.get("ph").unwrap().as_str().unwrap()).collect();
        assert_eq!(phs, ["M", "i", "i"]);
        assert_eq!(out[1].get("tid").unwrap().as_u64(), Some(SPLITS_TID));
        let args = out[1].get("args").unwrap();
        assert_eq!(args.get("chunks").unwrap().as_u64(), Some(2));
        assert_eq!(args.get("total_wgs").unwrap().as_u64(), Some(128));
    }

    #[test]
    fn full_export_roundtrips_through_the_json_parser() {
        let e = traced_engine();
        let events = [migration(0, 2_000_000)];
        let text = chrome_trace_with_telemetry(e.trace(), &events);
        let parsed = Json::parse(&text).expect("valid JSON");
        let arr = parsed.as_arr().unwrap();
        // 3 complete events (+ their 3 lane-row mirrors) + 2 flow events
        // + counters.
        let ph_count = |ph: &str| {
            arr.iter().filter(|o| o.get("ph").and_then(Json::as_str) == Some(ph)).count()
        };
        assert_eq!(ph_count("X"), 6);
        assert_eq!(ph_count("s"), 1);
        assert_eq!(ph_count("f"), 1);
        assert!(ph_count("C") >= 4, "{text}");
        // Flow events carry the migration payload through the parser.
        let flow = arr.iter().find(|o| o.get("ph").and_then(Json::as_str) == Some("s")).unwrap();
        assert_eq!(flow.get("args").unwrap().get("bytes").unwrap().as_u64(), Some(256));
    }
}
