//! Ready-made [`SchedObserver`] implementations: an in-memory ring
//! buffer, a JSONL writer, and a stderr printer.

use super::event::SchedEvent;
use super::SchedObserver;
use hwsim::json::Json;
use hwsim::sync::Mutex;
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Keeps the last `capacity` events in memory. The cheapest way to attach
/// telemetry to a run and inspect it afterwards.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    ring: Mutex<Ring>,
}

#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<SchedEvent>,
    /// Events discarded because the buffer was full.
    dropped: u64,
}

impl RingBufferSink {
    /// A sink keeping at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> RingBufferSink {
        RingBufferSink { capacity: capacity.max(1), ring: Mutex::new(Ring::default()) }
    }

    /// Copy out the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<SchedEvent> {
        self.ring.lock().events.iter().cloned().collect()
    }

    /// Remove and return the buffered events, oldest first.
    pub fn drain(&self) -> Vec<SchedEvent> {
        self.ring.lock().events.drain(..).collect()
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Number of currently buffered events.
    pub fn len(&self) -> usize {
        self.ring.lock().events.len()
    }

    /// True if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().events.is_empty()
    }
}

impl SchedObserver for RingBufferSink {
    fn on_event(&self, event: &SchedEvent) {
        let mut ring = self.ring.lock();
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event.clone());
    }
}

/// Writes one JSON object per event, newline-delimited (JSONL). Pair with
/// [`parse_jsonl`] to replay a recorded run (the `schedule_explain` binary
/// does exactly that).
pub struct JsonlSink {
    out: Mutex<LineWriter>,
    write_errors: AtomicU64,
}

/// The writer and the buffer each event's line is encoded into, under one
/// lock: the buffer is reused, so a steady stream allocates nothing.
struct LineWriter {
    writer: Box<dyn Write + Send>,
    line: String,
}

impl JsonlSink {
    /// Wrap any writer.
    pub fn new(writer: impl Write + Send + 'static) -> JsonlSink {
        let out = LineWriter { writer: Box::new(writer), line: String::new() };
        JsonlSink { out: Mutex::new(out), write_errors: AtomicU64::new(0) }
    }

    /// Create (truncating) a JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink::new(std::io::BufWriter::new(std::fs::File::create(path)?)))
    }

    /// Flush the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().writer.flush()
    }

    /// Events lost because writing them failed.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.lock().writer.flush();
    }
}

impl SchedObserver for JsonlSink {
    fn on_event(&self, event: &SchedEvent) {
        let mut out = self.out.lock();
        let LineWriter { writer, line } = &mut *out;
        line.clear();
        event.write_json(line);
        line.push('\n');
        // Telemetry must never take the runtime down: I/O errors are
        // counted, not propagated. One write per event, so a failure loses
        // that event only and leaves no half line in front of the next.
        if writer.write_all(line.as_bytes()).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Encode `events` as the JSONL text a [`JsonlSink`] writes for them.
pub fn to_jsonl(events: &[SchedEvent]) -> String {
    let mut text = String::new();
    for event in events {
        event.write_json(&mut text);
        text.push('\n');
    }
    text
}

/// Parse a JSONL event stream produced by [`JsonlSink`] back into events.
/// Blank lines are skipped; returns `None` on the first malformed line.
pub fn parse_jsonl(text: &str) -> Option<Vec<SchedEvent>> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| SchedEvent::from_json(&Json::parse(l)?))
        .collect()
}

/// Forward-compatible JSONL parse: lines that are malformed or carry an
/// event type this build does not know are *skipped and counted* instead
/// of aborting the whole stream, so an old binary can still replay a trace
/// recorded by a newer one. Returns `(events, events_skipped)`.
pub fn parse_jsonl_lenient(text: &str) -> (Vec<SchedEvent>, usize) {
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        match Json::parse(line).as_ref().and_then(SchedEvent::from_json) {
            Some(event) => events.push(event),
            None => skipped += 1,
        }
    }
    (events, skipped)
}

/// Read a JSONL event stream from a file, leniently: the file-level
/// counterpart of [`parse_jsonl_lenient`], what `schedule_explain
/// --replay` reads recorded telemetry with. Returns `(events,
/// events_skipped)`; the only error is failing to read the file itself.
pub fn read_jsonl_lenient(path: impl AsRef<Path>) -> std::io::Result<(Vec<SchedEvent>, usize)> {
    Ok(parse_jsonl_lenient(&std::fs::read_to_string(path)?))
}

/// Prints one human-readable line per event to stderr — the observer
/// behind `MULTICL_DEBUG`-style tracing.
#[derive(Debug, Default)]
pub struct StderrSink;

impl SchedObserver for StderrSink {
    fn on_event(&self, event: &SchedEvent) {
        eprintln!("[multicl:{}] {}", event.epoch(), super::report::one_line(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::{DeviceId, SimDuration, SimTime};
    use std::sync::Arc;

    fn ev(epoch: u64) -> SchedEvent {
        SchedEvent::CacheHit { epoch, key: format!("k{epoch}").into() }
    }

    /// A writer into a shared buffer; optionally every other `write` call
    /// (the 1st, 3rd, ...) fails without writing anything.
    struct Shared {
        buf: Arc<Mutex<Vec<u8>>>,
        fail_every_other: bool,
        calls: u64,
    }

    /// Drive `events` through a [`JsonlSink`]; returns the text that landed
    /// and the sink's write-error count.
    fn through_jsonl(events: &[SchedEvent], fail_every_other: bool) -> (String, u64) {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        let sink = JsonlSink::new(Shared { buf: buf.clone(), fail_every_other, calls: 0 });
        for e in events {
            sink.on_event(e);
        }
        sink.flush().unwrap();
        let text = String::from_utf8(buf.lock().clone()).unwrap();
        (text, sink.write_errors())
    }

    impl Write for Shared {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.fail_every_other && self.calls % 2 == 1 {
                return Err(std::io::Error::other("disk full"));
            }
            self.buf.lock().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn ring_buffer_keeps_the_newest_events() {
        let sink = RingBufferSink::new(3);
        for i in 0..5 {
            sink.on_event(&ev(i));
        }
        let got: Vec<u64> = sink.snapshot().iter().map(|e| e.epoch()).collect();
        assert_eq!(got, vec![2, 3, 4]);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.drain().len(), 3);
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_roundtrips_a_stream() {
        let events = vec![
            ev(1),
            SchedEvent::QueueMigrated {
                epoch: 1,
                queue: 2,
                from: DeviceId(0),
                to: DeviceId(1),
                bytes: 64,
                at: SimTime::from_nanos(9),
            },
            SchedEvent::EpochEnd {
                epoch: 1,
                at: SimTime::from_nanos(10),
                elapsed: SimDuration::from_nanos(10),
                profiling: SimDuration::ZERO,
                kernels_issued: 1,
                data_queue_depth: 0,
                data_peak_busy: 0,
                lane_overlap: Arc::default(),
            },
        ];
        let (text, _) = through_jsonl(&events, false);
        assert_eq!(text.lines().count(), 3);
        assert_eq!(parse_jsonl(&text), Some(events));
    }

    #[test]
    fn jsonl_roundtrips_every_event_variant_losslessly() {
        // The `schedule_explain --replay` path depends on JsonlSink output
        // re-parsing into identical events. Drive one sample of every
        // SchedEvent variant (the shared sample set asserts exhaustiveness)
        // through the sink and the parser.
        let events = crate::telemetry::event::sample_events();
        let (text, _) = through_jsonl(&events, false);
        assert_eq!(text.lines().count(), events.len());
        assert_eq!(parse_jsonl(&text), Some(events));
    }

    #[test]
    fn jsonl_counts_failed_writes_and_keeps_writing() {
        let events: Vec<SchedEvent> = (1..=5).map(ev).collect();
        let (text, write_errors) = through_jsonl(&events, true);
        // Events 1, 3 and 5 hit the failing calls; 2 and 4 land as whole lines.
        assert_eq!(write_errors, 3);
        assert_eq!(parse_jsonl(&text), Some(vec![ev(2), ev(4)]));
    }

    #[test]
    fn parse_jsonl_rejects_garbage_and_accepts_blank_lines() {
        assert_eq!(parse_jsonl(""), Some(vec![]));
        let good = ev(1).to_json().dump();
        assert_eq!(parse_jsonl(&format!("{good}\n\n")), Some(vec![ev(1)]));
        assert_eq!(parse_jsonl("not json"), None);
        assert_eq!(parse_jsonl(r#"{"type":"nope","epoch":1}"#), None);
    }

    #[test]
    fn read_jsonl_lenient_reads_files_and_reports_io_errors() {
        let dir = std::env::temp_dir().join(format!("multicl_sink_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let good = ev(3).to_json().dump();
        std::fs::write(&path, format!("{good}\nnot json\n")).unwrap();
        let (events, skipped) = read_jsonl_lenient(&path).unwrap();
        assert_eq!(events, vec![ev(3)]);
        assert_eq!(skipped, 1);
        assert!(read_jsonl_lenient(dir.join("missing.jsonl")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lenient_parse_skips_and_counts_unknown_or_malformed_lines() {
        let good = ev(1).to_json().dump();
        let text =
            format!("{good}\n{{\"type\":\"from_the_future\",\"epoch\":9}}\nnot json\n\n{good}\n");
        let (events, skipped) = parse_jsonl_lenient(&text);
        assert_eq!(events, vec![ev(1), ev(1)]);
        assert_eq!(skipped, 2);
        assert_eq!(parse_jsonl_lenient(""), (vec![], 0));
    }
}
