//! Execution traces: a flat, timestamped record of every command the engine
//! ran, with enough labeling to regenerate the paper's accounting figures
//! (kernel→device distribution, profiling-vs-application overhead,
//! per-iteration breakdowns).

use crate::device::DeviceId;
use crate::engine::{CommandKind, EventStamp};
use crate::time::SimDuration;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One executed command.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Device that executed the command.
    pub device: DeviceId,
    /// Logical command queue it came from.
    pub queue: usize,
    /// What it was.
    pub kind: CommandKind,
    /// When it ran.
    pub stamp: EventStamp,
    /// Free-form label active at submission (e.g. `"profiling"`).
    pub tag: Option<Arc<str>>,
}

impl TraceRecord {
    /// True if the record is a kernel execution.
    pub fn is_kernel(&self) -> bool {
        matches!(self.kind, CommandKind::Kernel { .. })
    }

    /// True if the record carries the given tag.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tag.as_deref() == Some(tag)
    }

    /// True if the record's tag starts with the given prefix.
    pub fn tag_starts_with(&self, prefix: &str) -> bool {
        self.tag.as_deref().is_some_and(|t| t.starts_with(prefix))
    }

    /// Bytes moved, for transfer records; 0 otherwise.
    pub fn transfer_bytes(&self) -> u64 {
        match self.kind {
            CommandKind::Transfer { bytes, .. } => bytes,
            _ => 0,
        }
    }

    /// This record as one Chrome-tracing complete event (`"ph":"X"`) JSON
    /// object. Categories: `kernel`, `transfer`, or `marker`; names and tags
    /// are fully escaped (including control characters). The telemetry
    /// exporter composes these with flow and counter events.
    pub fn chrome_event_json(&self) -> String {
        let name = match &self.kind {
            CommandKind::Kernel { name } => crate::json::escape(name),
            CommandKind::Transfer { kind, bytes } => format!("{kind:?} {bytes}B"),
            CommandKind::Marker => "marker".to_string(),
        };
        let cat = match self.kind {
            CommandKind::Kernel { .. } => "kernel",
            CommandKind::Transfer { .. } => "transfer",
            CommandKind::Marker => "marker",
        };
        let tag = self.tag.as_deref().unwrap_or("");
        format!(
            concat!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",",
                "\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},",
                "\"args\":{{\"queue\":{},\"tag\":\"{}\"}}}}"
            ),
            name,
            cat,
            self.stamp.start.as_nanos(),
            self.stamp.duration().as_nanos().max(1),
            self.device.index(),
            self.queue,
            crate::json::escape(tag),
        )
    }
}

/// An append-only list of [`TraceRecord`]s with aggregation helpers.
/// Consumers that walk the trace incrementally remember
/// [`Trace::total_pushed`] and read the suffix via [`Trace::records_since`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Records in submission order.
    pub records: Vec<TraceRecord>,
}

impl Trace {
    /// Append a record.
    pub fn push(&mut self, r: TraceRecord) {
        self.records.push(r);
    }

    /// Records pushed since the trace was created or last taken.
    pub fn total_pushed(&self) -> u64 {
        self.records.len() as u64
    }

    /// The records pushed at or after position `since` (as reported by
    /// [`Trace::total_pushed`]); empty for a position in the future.
    pub fn records_since(&self, since: u64) -> &[TraceRecord] {
        &self.records[(since as usize).min(self.records.len())..]
    }

    /// Drain into a fresh trace, leaving `self` empty.
    pub fn take(&mut self) -> Trace {
        std::mem::take(self)
    }

    /// Number of kernel executions per device (the quantity plotted in
    /// Figure 5).
    pub fn kernel_distribution(&self) -> BTreeMap<DeviceId, usize> {
        let mut out = BTreeMap::new();
        for r in self.records.iter().filter(|r| r.is_kernel()) {
            *out.entry(r.device).or_insert(0) += 1;
        }
        out
    }

    /// Total device time spent in records matching `pred`.
    pub fn time_where(&self, mut pred: impl FnMut(&TraceRecord) -> bool) -> SimDuration {
        self.records.iter().filter(|r| pred(r)).map(|r| r.stamp.duration()).sum()
    }

    /// Total bytes moved by transfer records matching `pred`.
    pub fn bytes_where(&self, mut pred: impl FnMut(&TraceRecord) -> bool) -> u64 {
        self.records.iter().filter(|r| pred(r)).map(|r| r.transfer_bytes()).sum()
    }

    /// Count of transfer commands matching `pred`.
    pub fn transfers_where(&self, mut pred: impl FnMut(&TraceRecord) -> bool) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.kind, CommandKind::Transfer { .. }) && pred(r))
            .count()
    }

    /// Kernel counts per device restricted to records with tags matching
    /// `pred` — used to separate profiling launches from application launches.
    pub fn kernel_distribution_where(
        &self,
        mut pred: impl FnMut(&TraceRecord) -> bool,
    ) -> BTreeMap<DeviceId, usize> {
        let mut out = BTreeMap::new();
        for r in self.records.iter().filter(|r| r.is_kernel()) {
            if pred(r) {
                *out.entry(r.device).or_insert(0) += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use crate::topology::TransferKind;

    fn rec(dev: usize, kind: CommandKind, dur_ms: u64, tag: Option<&str>) -> TraceRecord {
        let start = SimTime::ZERO;
        let end = start + SimDuration::from_millis(dur_ms);
        TraceRecord {
            device: DeviceId(dev),
            queue: 0,
            kind,
            stamp: EventStamp { queued: start, submit: start, start, end },
            tag: tag.map(Arc::from),
        }
    }

    fn kernel(name: &str) -> CommandKind {
        CommandKind::Kernel { name: Arc::from(name) }
    }

    #[test]
    fn kernel_distribution_counts_per_device() {
        let mut t = Trace::default();
        t.push(rec(0, kernel("a"), 1, None));
        t.push(rec(0, kernel("b"), 1, None));
        t.push(rec(1, kernel("c"), 1, None));
        t.push(rec(
            1,
            CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes: 8 },
            1,
            None,
        ));
        let d = t.kernel_distribution();
        assert_eq!(d[&DeviceId(0)], 2);
        assert_eq!(d[&DeviceId(1)], 1);
    }

    #[test]
    fn tagged_time_accounting() {
        let mut t = Trace::default();
        t.push(rec(0, kernel("a"), 10, Some("profiling")));
        t.push(rec(0, kernel("a"), 30, None));
        let prof = t.time_where(|r| r.has_tag("profiling"));
        let app = t.time_where(|r| r.tag.is_none());
        assert_eq!(prof, SimDuration::from_millis(10));
        assert_eq!(app, SimDuration::from_millis(30));
    }

    #[test]
    fn transfer_byte_accounting() {
        let mut t = Trace::default();
        t.push(rec(
            0,
            CommandKind::Transfer { kind: TransferKind::DeviceToHost, bytes: 100 },
            1,
            None,
        ));
        t.push(rec(
            1,
            CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes: 50 },
            1,
            None,
        ));
        assert_eq!(t.bytes_where(|_| true), 150);
        assert_eq!(t.transfers_where(|r| r.device == DeviceId(1)), 1);
    }

    /// The records as one Chrome-tracing JSON array.
    fn chrome_json(t: &Trace) -> String {
        let events: Vec<String> = t.records.iter().map(TraceRecord::chrome_event_json).collect();
        format!("[{}]", events.join(","))
    }

    #[test]
    fn chrome_json_export_is_valid_and_complete() {
        let mut t = Trace::default();
        t.push(rec(0, kernel("my \"kernel\""), 2, Some("profiling")));
        t.push(rec(
            1,
            CommandKind::Transfer { kind: TransferKind::HostToDevice, bytes: 64 },
            1,
            None,
        ));
        let json = chrome_json(&t);
        // Structure: a JSON array with one object per record.
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("HostToDevice 64B"));
        assert!(json.contains("profiling"));
        // The quote in the kernel name is escaped.
        assert!(json.contains("my \\\"kernel\\\""));
    }

    #[test]
    fn chrome_json_gives_markers_their_own_category() {
        let mut t = Trace::default();
        t.push(rec(0, CommandKind::Marker, 1, Some("barrier")));
        t.push(rec(
            0,
            CommandKind::Transfer { kind: TransferKind::DeviceToHost, bytes: 8 },
            1,
            None,
        ));
        let json = chrome_json(&t);
        assert!(json.contains("\"name\":\"marker\",\"cat\":\"marker\""), "{json}");
        assert_eq!(json.matches("\"cat\":\"transfer\"").count(), 1);
    }

    #[test]
    fn chrome_json_escapes_control_characters() {
        let mut t = Trace::default();
        t.push(rec(0, kernel("bad\nname\t"), 1, Some("tab\there")));
        let json = chrome_json(&t);
        assert!(!json.contains('\n'), "raw newline leaked: {json:?}");
        assert!(!json.contains('\t'), "raw tab leaked: {json:?}");
        // Still parseable JSON that round-trips the name.
        let parsed = crate::json::Json::parse(&json).expect("valid JSON");
        let ev = &parsed.as_arr().unwrap()[0];
        assert_eq!(ev.get("name").unwrap().as_str(), Some("bad\nname\t"));
        assert_eq!(ev.get("args").unwrap().get("tag").unwrap().as_str(), Some("tab\there"));
    }

    #[test]
    fn records_since_reads_the_suffix_from_a_position() {
        let mut t = Trace::default();
        t.push(rec(0, kernel("a"), 1, None));
        let pos = t.total_pushed();
        t.push(rec(0, kernel("b"), 1, None));
        assert!(matches!(t.records_since(pos), [r] if r.stamp == t.records[1].stamp));
        assert!(t.records_since(pos + 5).is_empty());
        assert_eq!(t.take().records.len(), 2);
        assert_eq!(t.total_pushed(), 0);
    }

    #[test]
    fn tag_prefix_matching() {
        let r = rec(0, kernel("a"), 1, Some("iter:3"));
        assert!(r.tag_starts_with("iter:"));
        assert!(!r.tag_starts_with("profiling"));
    }
}
