//! Causal job tracing: spans, critical-path segment attribution, and
//! waterfall rendering.
//!
//! Every served job carries a [`TraceContext`] from admission to its
//! terminal outcome. Each dispatch attempt becomes an [`AttemptTrace`]
//! whose end-to-end wall time is decomposed — exactly, in integer
//! nanoseconds — into the eight [`SegmentKind`] buckets. The central
//! invariant, enforced by construction in [`attribute_attempt`] and
//! checked again by `multicl-bench`'s `extension_claims` test and the
//! property tests below, is
//!
//! ```text
//! Σ segments(job) == completed_at − submitted_at
//! ```
//!
//! so a p99 miss is always fully attributable: so many nanoseconds of
//! tenant-queue wait, so many of retry backoff, so many of profiling, so
//! many on the bus, so many on the device.
//!
//! The attribution algebra is a cursor walk over the job's executed
//! command intervals (sorted by start time):
//!
//! 1. wait before the attempt splits into [`SegmentKind::Backoff`] (up to
//!    the retry's `not_before`) and [`SegmentKind::AdmissionWait`];
//! 2. gaps between dispatch and the first command, between commands, and
//!    after the last command split into [`SegmentKind::Profiling`] (the
//!    part overlapping a scheduler profiling window) and
//!    [`SegmentKind::DispatchWait`];
//! 3. busy intervals are clipped against the cursor (overlap is counted
//!    once, first-come) and credited to their own kind — H2D/D2H
//!    transfer, compute, or remap traffic.
//!
//! Everything here is pure data + arithmetic: no clocks, no locks, no
//! host time — same inputs, bit-identical output.

use super::event::{field, field_or, write_obj, SchedEvent, Wire};
use hwsim::json::Json;
use hwsim::{SimDuration, SimTime};
use std::sync::Arc;

/// Where one slice of a job's latency went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// Admitted but waiting in the tenant queue for a dispatch slot.
    AdmissionWait,
    /// Waiting out a retry backoff delay after a faulted attempt.
    Backoff,
    /// Dispatch window time stolen by scheduler cost profiling.
    Profiling,
    /// Dispatched but idle: queued behind other work, no command running.
    DispatchWait,
    /// Host-to-device transfer time.
    H2d,
    /// Device-to-host transfer time.
    D2h,
    /// Kernel execution time.
    Compute,
    /// Transfer traffic caused by a queue migration / evacuation remap.
    Remap,
}

impl SegmentKind {
    /// All kinds, in canonical (waterfall tiling) order.
    pub const ALL: [SegmentKind; 8] = [
        SegmentKind::Backoff,
        SegmentKind::AdmissionWait,
        SegmentKind::Profiling,
        SegmentKind::DispatchWait,
        SegmentKind::H2d,
        SegmentKind::Remap,
        SegmentKind::Compute,
        SegmentKind::D2h,
    ];

    /// Stable snake_case label (JSON keys, metric labels).
    pub fn label(self) -> &'static str {
        match self {
            SegmentKind::AdmissionWait => "admission_wait",
            SegmentKind::Backoff => "backoff",
            SegmentKind::Profiling => "profiling",
            SegmentKind::DispatchWait => "dispatch_wait",
            SegmentKind::H2d => "h2d",
            SegmentKind::D2h => "d2h",
            SegmentKind::Compute => "compute",
            SegmentKind::Remap => "remap",
        }
    }

    /// One-character glyph used in ASCII waterfalls.
    pub fn glyph(self) -> char {
        match self {
            SegmentKind::AdmissionWait => 'a',
            SegmentKind::Backoff => 'b',
            SegmentKind::Profiling => 'p',
            SegmentKind::DispatchWait => '.',
            SegmentKind::H2d => 'h',
            SegmentKind::D2h => 'd',
            SegmentKind::Compute => 'C',
            SegmentKind::Remap => 'r',
        }
    }

    fn index(self) -> usize {
        match self {
            SegmentKind::AdmissionWait => 0,
            SegmentKind::Backoff => 1,
            SegmentKind::Profiling => 2,
            SegmentKind::DispatchWait => 3,
            SegmentKind::H2d => 4,
            SegmentKind::D2h => 5,
            SegmentKind::Compute => 6,
            SegmentKind::Remap => 7,
        }
    }
}

/// Integer-nanosecond duration per [`SegmentKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentSet([SimDuration; 8]);

impl SegmentSet {
    /// The empty set (all segments zero).
    pub fn zero() -> SegmentSet {
        SegmentSet::default()
    }

    /// Add `d` to the `kind` bucket (saturating, like all `SimDuration`
    /// arithmetic).
    pub fn add(&mut self, kind: SegmentKind, d: SimDuration) {
        self.0[kind.index()] += d;
    }

    /// The accumulated duration of one kind.
    pub fn get(&self, kind: SegmentKind) -> SimDuration {
        self.0[kind.index()]
    }

    /// Sum over all kinds — by the attribution invariant, the wall time
    /// covered by this set.
    pub fn total(&self) -> SimDuration {
        self.0.iter().copied().sum()
    }

    /// Merge another set into this one.
    pub fn merge(&mut self, other: &SegmentSet) {
        for kind in SegmentKind::ALL {
            self.add(kind, other.get(kind));
        }
    }
}

impl Wire for SegmentSet {
    /// An object keyed by `<label>_ns`, in [`SegmentKind::ALL`] order.
    fn write(&self, out: &mut String) {
        for (i, kind) in SegmentKind::ALL.into_iter().enumerate() {
            out.push_str(if i == 0 { "{\"" } else { ",\"" });
            out.push_str(kind.label());
            out.push_str("_ns\":");
            self.get(kind).write(out);
        }
        out.push('}');
    }
    /// Missing keys default to zero so old streams stay readable.
    fn decode(value: &Json) -> Option<Self> {
        let mut set = SegmentSet::zero();
        for kind in SegmentKind::ALL {
            let ns = value.get(&format!("{}_ns", kind.label())).and_then(Json::as_u64).unwrap_or(0);
            set.add(kind, SimDuration::from_nanos(ns));
        }
        Some(set)
    }
}

/// Identity of one dispatch attempt of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId {
    /// Service-wide job id.
    pub job: u64,
    /// Zero-based dispatch attempt.
    pub attempt: u32,
}

impl SpanId {
    /// The root span of a job (attempt 0).
    pub fn root(job: u64) -> SpanId {
        SpanId { job, attempt: 0 }
    }

    /// Deterministic Perfetto flow-arrow id, unique per (job, attempt) and
    /// disjoint from the small sequential ids used by migration flows.
    pub fn flow_id(self) -> u64 {
        // Keep well clear of the sequential migration-flow id space and
        // stay exact in the f64 JSON number range for realistic job counts.
        1_000_000 + self.job.wrapping_mul(1_000) + u64::from(self.attempt)
    }
}

/// One executed command interval of an attempt, pre-classified by the
/// caller (who knows whether a transfer was payload or remap traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSlice {
    /// Which bucket the busy time belongs to.
    pub kind: SegmentKind,
    /// Command execution start (virtual time).
    pub start: SimTime,
    /// Command execution end (virtual time).
    pub end: SimTime,
}

/// The record of one dispatch attempt: where it ran and where the time
/// went.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptTrace {
    /// Job + attempt identity.
    pub span: SpanId,
    /// Scheduler queue (telemetry id) the attempt ran on; `None` when the
    /// job failed before it was ever dispatched.
    pub queue: Option<u64>,
    /// Device index the queue was bound to, when known.
    pub device: Option<u64>,
    /// Scheduler epoch that executed the attempt (0 when undispatched).
    pub epoch: u64,
    /// Virtual time the dispatch slot was taken (== `ended_at` for
    /// undispatched pseudo-attempts).
    pub dispatched_at: SimTime,
    /// Virtual time the attempt finished (success, fault, or abandonment).
    pub ended_at: SimTime,
    /// Exact latency decomposition covering
    /// `[previous attempt end, ended_at]`.
    pub segments: SegmentSet,
}

impl Wire for AttemptTrace {
    fn write(&self, out: &mut String) {
        write_obj!(out,
            "job": &self.span.job,
            "attempt": &u64::from(self.span.attempt),
            "queue": &self.queue,
            "device": &self.device,
            "epoch": &self.epoch,
            "dispatched_at_ns": &self.dispatched_at,
            "ended_at_ns": &self.ended_at,
            "segments": &self.segments,
        );
    }
    /// Only `job` is required; absent numeric fields default to zero,
    /// absent `segments` to the empty set.
    fn decode(value: &Json) -> Option<Self> {
        Some(AttemptTrace {
            span: SpanId {
                job: field(value, "job")?,
                attempt: field_or(value, "attempt", || 0u64) as u32,
            },
            queue: field_or(value, "queue", || None),
            device: field_or(value, "device", || None),
            epoch: field_or(value, "epoch", || 0),
            dispatched_at: field_or(value, "dispatched_at_ns", || SimTime::ZERO),
            ended_at: field_or(value, "ended_at_ns", || SimTime::ZERO),
            segments: field_or(value, "segments", SegmentSet::zero),
        })
    }
}

/// Split a gap `[from, to)` into profiling overlap and dispatch wait.
fn split_gap(set: &mut SegmentSet, from: SimTime, to: SimTime, profiling: &[(SimTime, SimTime)]) {
    if to <= from {
        return;
    }
    let gap = to - from;
    let mut covered = SimDuration::ZERO;
    for &(ws, we) in profiling {
        let s = ws.max(from);
        let e = we.min(to);
        if e > s {
            covered += e - s;
        }
    }
    // Windows are disjoint in a well-formed stream (epochs are
    // sequential); cap defensively so the invariant survives bad input.
    let covered = covered.min(gap);
    set.add(SegmentKind::Profiling, covered);
    set.add(SegmentKind::DispatchWait, gap - covered);
}

/// Decompose one attempt's dispatch window `[dispatched, ended]` over its
/// executed command intervals.
///
/// `slices` must be sorted by `start`; `profiling` lists the scheduler's
/// per-epoch profiling windows (used to split idle gaps). The returned
/// set's [`SegmentSet::total`] equals `ended − dispatched` exactly, by
/// construction: every nanosecond of the window lands in exactly one
/// bucket, with overlapping busy intervals counted once (first-come).
pub fn attribute_attempt(
    dispatched: SimTime,
    ended: SimTime,
    slices: &[SpanSlice],
    profiling: &[(SimTime, SimTime)],
) -> SegmentSet {
    let mut set = SegmentSet::zero();
    let ended = ended.max(dispatched);
    let mut cursor = dispatched;
    for slice in slices {
        if cursor >= ended {
            break;
        }
        let start = slice.start.max(cursor).min(ended);
        let end = slice.end.min(ended);
        if end <= start {
            continue; // fully clipped by the cursor or the window
        }
        split_gap(&mut set, cursor, start, profiling);
        set.add(slice.kind, end - start);
        cursor = end;
    }
    split_gap(&mut set, cursor, ended, profiling);
    set
}

/// A job's span store, minted at admission and carried on the pending job
/// until the terminal outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceContext {
    /// Service-wide job id.
    pub job: u64,
    /// Virtual admission time.
    pub submitted_at: SimTime,
    /// One record per dispatch attempt, in order: shared, so the
    /// terminal `JobTrace` event takes the list as it is and a sink's copy
    /// of that event copies no record. Rebuilt once per attempt.
    pub attempts: Arc<[AttemptTrace]>,
    /// End of the previous attempt (admission time before the first) —
    /// the left edge of the current wait period.
    last_end: SimTime,
}

impl TraceContext {
    /// Mint the root span at admission time.
    pub fn new(job: u64, submitted_at: SimTime) -> TraceContext {
        TraceContext { job, submitted_at, attempts: Arc::default(), last_end: submitted_at }
    }

    /// Split the wait `[last_end, dispatched)` into backoff (up to the
    /// retry's `not_before`) and tenant-queue admission wait.
    fn wait_segments(&self, not_before: SimTime, dispatched: SimTime) -> SegmentSet {
        let mut set = SegmentSet::zero();
        let dispatched = dispatched.max(self.last_end);
        let backoff_end = not_before.max(self.last_end).min(dispatched);
        set.add(SegmentKind::Backoff, backoff_end - self.last_end);
        set.add(SegmentKind::AdmissionWait, dispatched - backoff_end);
        set
    }

    /// Record a dispatched attempt: waits since the previous attempt plus
    /// the attributed dispatch window. Covers `[last_end, ended_at]`
    /// exactly.
    #[allow(clippy::too_many_arguments)]
    pub fn record_attempt(
        &mut self,
        queue: u64,
        device: Option<u64>,
        epoch: u64,
        not_before: SimTime,
        dispatched_at: SimTime,
        ended_at: SimTime,
        slices: &[SpanSlice],
        profiling: &[(SimTime, SimTime)],
    ) {
        let mut segments = self.wait_segments(not_before, dispatched_at);
        let dispatched_at = dispatched_at.max(self.last_end);
        let ended_at = ended_at.max(dispatched_at);
        segments.merge(&attribute_attempt(dispatched_at, ended_at, slices, profiling));
        let span = SpanId { job: self.job, attempt: self.attempts.len() as u32 };
        self.push(AttemptTrace {
            span,
            queue: Some(queue),
            device,
            epoch,
            dispatched_at,
            ended_at,
            segments,
        });
    }

    /// Record a terminal failure that never reached a dispatch slot
    /// (deadline missed in queue, no healthy devices): a pseudo-attempt
    /// carrying only wait segments, covering `[last_end, ended_at]`.
    pub fn record_undispatched(&mut self, epoch: u64, not_before: SimTime, ended_at: SimTime) {
        let ended_at = ended_at.max(self.last_end);
        let segments = self.wait_segments(not_before, ended_at);
        let span = SpanId { job: self.job, attempt: self.attempts.len() as u32 };
        self.push(AttemptTrace {
            span,
            queue: None,
            device: None,
            epoch,
            dispatched_at: ended_at,
            ended_at,
            segments,
        });
    }

    /// Append `attempt`, which ends the current wait period: the list is
    /// built anew in one allocation.
    fn push(&mut self, attempt: AttemptTrace) {
        self.last_end = attempt.ended_at;
        let kept = self.attempts.iter().cloned();
        self.attempts = kept.chain(std::iter::once(attempt)).collect();
    }

    /// End of the last recorded attempt (admission time when none).
    pub fn last_end(&self) -> SimTime {
        self.last_end
    }

    /// Sum of all attempts' segments. When the trace is complete this
    /// equals `last_end − submitted_at` exactly.
    pub fn total(&self) -> SegmentSet {
        let mut set = SegmentSet::zero();
        for a in self.attempts.iter() {
            set.merge(&a.segments);
        }
        set
    }
}

/// One entry of a top-K critical-path segment listing.
#[derive(Debug, Clone, PartialEq)]
pub struct TopSegment {
    /// Owning tenant.
    pub tenant: Arc<str>,
    /// Job + attempt the segment belongs to.
    pub span: SpanId,
    /// Which bucket.
    pub kind: SegmentKind,
    /// How long.
    pub duration: SimDuration,
}

/// Aggregate segment totals across all `JobTrace` events, sorted
/// longest-first.
pub fn segment_totals(events: &[SchedEvent]) -> Vec<(SegmentKind, SimDuration)> {
    let mut totals = SegmentSet::zero();
    for event in events {
        if let SchedEvent::JobTrace { attempts, .. } = event {
            for a in attempts.iter() {
                totals.merge(&a.segments);
            }
        }
    }
    let mut rows: Vec<_> = SegmentKind::ALL.iter().map(|&k| (k, totals.get(k))).collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    rows
}

/// The K largest individual segments across all `JobTrace` events.
pub fn top_segments(events: &[SchedEvent], k: usize) -> Vec<TopSegment> {
    let mut rows = Vec::new();
    for event in events {
        if let SchedEvent::JobTrace { tenant, attempts, .. } = event {
            for a in attempts.iter() {
                for kind in SegmentKind::ALL {
                    let d = a.segments.get(kind);
                    if !d.is_zero() {
                        rows.push(TopSegment {
                            tenant: tenant.clone(),
                            span: a.span,
                            kind,
                            duration: d,
                        });
                    }
                }
            }
        }
    }
    rows.sort_by(|a, b| {
        b.duration
            .cmp(&a.duration)
            .then(a.span.job.cmp(&b.span.job))
            .then(a.span.attempt.cmp(&b.span.attempt))
    });
    rows.truncate(k);
    rows
}

/// Render one `JobTrace` event as an ASCII waterfall: a header line plus
/// one bar per attempt, scaled to `width` columns over the job's
/// end-to-end latency. Segments are tiled in canonical order inside each
/// attempt (the per-kind durations are exact; ordering within an attempt
/// is canonical, not observed). Returns `None` for other event kinds.
pub fn waterfall(event: &SchedEvent, width: usize) -> Option<String> {
    let SchedEvent::JobTrace { tenant, job, submitted_at, completed_at, outcome, attempts, .. } =
        event
    else {
        return None;
    };
    let width = width.max(8);
    let total = completed_at.saturating_since(*submitted_at);
    let mut out = format!(
        "job {job} tenant={tenant} outcome={outcome} latency={total} attempts={}\n",
        attempts.len()
    );
    let col = |t: SimTime| -> usize {
        if total.is_zero() {
            0
        } else {
            let off = t.saturating_since(*submitted_at).as_nanos() as u128;
            ((off * width as u128) / total.as_nanos() as u128).min(width as u128) as usize
        }
    };
    let mut wait_start = *submitted_at;
    for a in attempts.iter() {
        let mut bar: Vec<char> = vec![' '; width];
        // The attempt covers [wait_start, ended_at]; tile its segments in
        // canonical order across that window.
        let mut t = wait_start;
        for kind in SegmentKind::ALL {
            let d = a.segments.get(kind);
            if d.is_zero() {
                continue;
            }
            let (from, to) = (col(t), col(t + d).max(col(t) + 1).min(width));
            for c in bar.iter_mut().take(to).skip(from) {
                *c = kind.glyph();
            }
            t += d;
        }
        let bar: String = bar.into_iter().collect();
        let queue = a.queue.map_or("-".to_string(), |q| format!("Q{q}"));
        let device = a.device.map_or("-".to_string(), |d| format!("D{d}"));
        out.push_str(&format!(
            "  [{bar}] attempt {} {queue} {device} epoch {}\n",
            a.span.attempt, a.epoch
        ));
        wait_start = a.ended_at;
    }
    let mut legend: Vec<String> = Vec::new();
    let job_total = {
        let mut set = SegmentSet::zero();
        for a in attempts.iter() {
            set.merge(&a.segments);
        }
        set
    };
    for kind in SegmentKind::ALL {
        let d = job_total.get(kind);
        if !d.is_zero() {
            legend.push(format!("{}={} ({})", kind.glyph(), kind.label(), d));
        }
    }
    if !legend.is_empty() {
        out.push_str(&format!("  {}\n", legend.join("  ")));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwsim::xrand::XorShift;

    fn ns(t: u64) -> SimTime {
        SimTime::from_nanos(t)
    }

    fn dur(d: u64) -> SimDuration {
        SimDuration::from_nanos(d)
    }

    /// What a reader of the stream sees of one wire value.
    fn written<T: Wire>(value: &T) -> Json {
        let mut text = String::new();
        value.write(&mut text);
        Json::parse(&text).expect("Wire::write emits valid JSON")
    }

    #[test]
    fn segment_set_roundtrips_and_defaults() {
        let mut set = SegmentSet::zero();
        set.add(SegmentKind::Compute, dur(123));
        set.add(SegmentKind::H2d, dur(7));
        let back = SegmentSet::decode(&written(&set)).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.total(), dur(130));
        // Old streams without a key decode that segment as zero.
        assert_eq!(
            SegmentSet::decode(&Json::obj([("compute_ns", Json::from(5u64))]))
                .unwrap()
                .get(SegmentKind::Compute),
            dur(5)
        );
    }

    #[test]
    fn attempt_trace_roundtrips_including_null_queue() {
        let a = AttemptTrace {
            span: SpanId { job: 9, attempt: 2 },
            queue: None,
            device: Some(1),
            epoch: 4,
            dispatched_at: ns(100),
            ended_at: ns(250),
            segments: {
                let mut s = SegmentSet::zero();
                s.add(SegmentKind::DispatchWait, dur(150));
                s
            },
        };
        let back = AttemptTrace::decode(&written(&a)).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn attribution_splits_gaps_into_profiling_and_wait() {
        // dispatch at 0, end at 100; one compute slice [40, 70];
        // profiling window [10, 30] overlaps the leading gap.
        let slices = [SpanSlice { kind: SegmentKind::Compute, start: ns(40), end: ns(70) }];
        let set = attribute_attempt(ns(0), ns(100), &slices, &[(ns(10), ns(30))]);
        assert_eq!(set.get(SegmentKind::Compute), dur(30));
        assert_eq!(set.get(SegmentKind::Profiling), dur(20));
        assert_eq!(set.get(SegmentKind::DispatchWait), dur(50));
        assert_eq!(set.total(), dur(100));
    }

    #[test]
    fn attribution_counts_overlap_once_and_clips_to_window() {
        let slices = [
            SpanSlice { kind: SegmentKind::H2d, start: ns(0), end: ns(50) },
            SpanSlice { kind: SegmentKind::Compute, start: ns(30), end: ns(90) }, // overlaps 20
            SpanSlice { kind: SegmentKind::D2h, start: ns(90), end: ns(200) },    // past window
        ];
        let set = attribute_attempt(ns(0), ns(120), &slices, &[]);
        assert_eq!(set.get(SegmentKind::H2d), dur(50));
        assert_eq!(set.get(SegmentKind::Compute), dur(40)); // clipped to [50, 90]
        assert_eq!(set.get(SegmentKind::D2h), dur(30)); // clipped to [90, 120]
        assert_eq!(set.total(), dur(120));
    }

    #[test]
    fn trace_context_splits_backoff_and_admission_wait() {
        let mut ctx = TraceContext::new(1, ns(0));
        // First attempt: no backoff (not_before == submitted), dispatch at
        // 30, compute [30, 80], fault.
        ctx.record_attempt(
            2,
            Some(0),
            1,
            ns(0),
            ns(30),
            ns(80),
            &[SpanSlice { kind: SegmentKind::Compute, start: ns(30), end: ns(80) }],
            &[],
        );
        // Retry: backoff until 100, dispatched at 130, compute [140, 200].
        ctx.record_attempt(
            2,
            Some(0),
            2,
            ns(100),
            ns(130),
            ns(200),
            &[SpanSlice { kind: SegmentKind::Compute, start: ns(140), end: ns(200) }],
            &[],
        );
        let total = ctx.total();
        assert_eq!(total.get(SegmentKind::AdmissionWait), dur(30 + 30));
        assert_eq!(total.get(SegmentKind::Backoff), dur(20));
        assert_eq!(total.get(SegmentKind::Compute), dur(50 + 60));
        assert_eq!(total.get(SegmentKind::DispatchWait), dur(10));
        assert_eq!(total.total(), dur(200));
        assert_eq!(ctx.last_end(), ns(200));
        assert_eq!(ctx.attempts[1].span, SpanId { job: 1, attempt: 1 });
    }

    #[test]
    fn undispatched_failure_is_pure_wait() {
        let mut ctx = TraceContext::new(7, ns(50));
        ctx.record_undispatched(3, ns(70), ns(120));
        let total = ctx.total();
        assert_eq!(total.get(SegmentKind::Backoff), dur(20));
        assert_eq!(total.get(SegmentKind::AdmissionWait), dur(50));
        assert_eq!(total.total(), dur(70));
        assert_eq!(ctx.attempts[0].queue, None);
    }

    /// The attribution invariant, property-style: random dispatch windows,
    /// random (sorted) busy slices, random profiling windows — the segment
    /// sum always equals the window length exactly, in integer ns.
    #[test]
    fn attribution_total_equals_window_for_random_inputs() {
        let mut rng = XorShift::new(0x7ace);
        for case in 0..500 {
            let dispatched = ns(rng.range_u64(0, 1_000_000));
            let ended = dispatched + dur(rng.range_u64(0, 500_000));
            let mut slices = Vec::new();
            let kinds =
                [SegmentKind::H2d, SegmentKind::D2h, SegmentKind::Compute, SegmentKind::Remap];
            let mut t = dispatched.as_nanos().saturating_sub(rng.range_u64(0, 1_000));
            for _ in 0..rng.index(8) {
                // Slices may touch, overlap (concurrent data plane), or
                // run past the window end.
                let start = t + rng.range_u64(0, 40_000);
                let end = start + rng.range_u64(0, 120_000);
                slices.push(SpanSlice {
                    kind: kinds[rng.index(kinds.len())],
                    start: ns(start),
                    end: ns(end),
                });
                t = start.saturating_sub(rng.range_u64(0, 30_000));
            }
            slices.sort_by_key(|s| s.start);
            let mut profiling = Vec::new();
            let mut p = rng.range_u64(0, 1_000_000);
            for _ in 0..rng.index(4) {
                let end = p + rng.range_u64(0, 50_000);
                profiling.push((ns(p), ns(end)));
                p = end + rng.range_u64(1, 10_000);
            }
            let set = attribute_attempt(dispatched, ended, &slices, &profiling);
            assert_eq!(
                set.total(),
                ended - dispatched,
                "case {case}: dispatched={dispatched:?} ended={ended:?} slices={slices:?}"
            );
        }
    }

    /// Same property one level up: a full TraceContext over random
    /// attempts covers [submitted_at, last_end] exactly.
    #[test]
    fn trace_context_total_equals_latency_for_random_attempts() {
        let mut rng = XorShift::new(0xbead);
        for case in 0..200 {
            let submitted = ns(rng.range_u64(0, 10_000));
            let mut ctx = TraceContext::new(case, submitted);
            let attempts = 1 + rng.index(4);
            for i in 0..attempts {
                let not_before = ctx.last_end() + dur(rng.range_u64(0, 5_000));
                let dispatched = not_before + dur(rng.range_u64(0, 5_000));
                let mut t = dispatched;
                let mut slices = Vec::new();
                for _ in 0..rng.index(5) {
                    let start = t + dur(rng.range_u64(0, 2_000));
                    let end = start + dur(rng.range_u64(0, 8_000));
                    slices.push(SpanSlice { kind: SegmentKind::Compute, start, end });
                    t = end;
                }
                let ended = t + dur(rng.range_u64(0, 2_000));
                if i == attempts - 1 && rng.index(4) == 0 {
                    ctx.record_undispatched(i as u64, not_before, ended);
                } else {
                    ctx.record_attempt(
                        1,
                        Some(0),
                        i as u64,
                        not_before,
                        dispatched,
                        ended,
                        &slices,
                        &[],
                    );
                }
            }
            assert_eq!(ctx.total().total(), ctx.last_end() - submitted, "case {case}");
        }
    }

    #[test]
    fn waterfall_renders_attempts_and_legend() {
        let mut ctx = TraceContext::new(11, ns(0));
        ctx.record_attempt(
            3,
            Some(1),
            5,
            ns(0),
            ns(100),
            ns(400),
            &[
                SpanSlice { kind: SegmentKind::H2d, start: ns(100), end: ns(180) },
                SpanSlice { kind: SegmentKind::Compute, start: ns(180), end: ns(360) },
                SpanSlice { kind: SegmentKind::D2h, start: ns(360), end: ns(400) },
            ],
            &[],
        );
        let event = SchedEvent::JobTrace {
            epoch: 5,
            tenant: "t0".into(),
            job: 11,
            submitted_at: ns(0),
            completed_at: ns(400),
            outcome: "completed".into(),
            attempts: ctx.attempts.clone(),
        };
        let text = waterfall(&event, 40).unwrap();
        assert!(text.contains("job 11 tenant=t0 outcome=completed"), "{text}");
        assert!(text.contains("attempt 0 Q3 D1 epoch 5"), "{text}");
        for glyph in ['a', 'h', 'C', 'd'] {
            assert!(text.lines().nth(1).unwrap().contains(glyph), "{glyph}: {text}");
        }
        assert!(text.contains("C=compute"), "{text}");
        let other =
            SchedEvent::EpochBegin { epoch: 1, at: ns(0), pool: 1, policy: "AUTO_FIT".into() };
        assert!(waterfall(&other, 40).is_none());
    }

    #[test]
    fn top_segments_and_totals_rank_longest_first() {
        let mut ctx = TraceContext::new(1, ns(0));
        ctx.record_attempt(
            0,
            Some(0),
            1,
            ns(0),
            ns(10),
            ns(110),
            &[SpanSlice { kind: SegmentKind::Compute, start: ns(10), end: ns(110) }],
            &[],
        );
        let event = SchedEvent::JobTrace {
            epoch: 1,
            tenant: "t9".into(),
            job: 1,
            submitted_at: ns(0),
            completed_at: ns(110),
            outcome: "completed".into(),
            attempts: ctx.attempts.clone(),
        };
        let events = vec![event];
        let totals = segment_totals(&events);
        assert_eq!(totals[0], (SegmentKind::Compute, dur(100)));
        let top = top_segments(&events, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].kind, SegmentKind::Compute);
        assert_eq!(&*top[0].tenant, "t9");
        assert_eq!(top[0].duration, dur(100));
        assert!(top_segments(&events, 0).is_empty());
    }

    #[test]
    fn flow_ids_are_unique_per_attempt() {
        let a = SpanId { job: 1, attempt: 0 }.flow_id();
        let b = SpanId { job: 1, attempt: 1 }.flow_id();
        let c = SpanId { job: 2, attempt: 0 }.flow_id();
        assert!(a != b && a != c && b != c);
        assert!(a >= 1_000_000);
    }
}
