//! The benchmark's tracer: spans recorded from outside the product crates.
//!
//! Two sources feed one time-ordered log of [`Mark`]s. The benchmark wraps
//! each call into a public function (`Served::submit`,
//! `Served::dispatch_round`, `FdmApp::step`, `npb::run_benchmark`) in
//! [`Tracer::enter`] / [`Tracer::exit`], and the [`Tracer`] is also a
//! [`SchedObserver`] that stamps `Instant::now()` when the runtime delivers
//! an event. Everything runs on the single driver thread, so the log is
//! strictly nested and [`build_spans`] turns it into a span tree with one
//! linear scan:
//!
//! ```text
//! dispatch_round ⊃ issue   round entry            → EpochBegin
//!                  map     EpochBegin             → MappingDecision
//!                  flush   MappingDecision        → EpochEnd
//!                  drain   EpochEnd               → first JobCompleted
//!                  account first JobCompleted     → round return
//! ```
//!
//! `step` (FDM-Seismology) splits the same way without `account`; there a
//! `drain` runs to the next `EpochBegin` and so includes the application's
//! next enqueues. `run_benchmark` keeps only `map` and `flush` children:
//! outside its scheduling region an NPB code synchronizes without epochs,
//! so the rest is the span's self time.

use hwsim::json::Json;
use hwsim::sync::Mutex;
use multicl::telemetry::SegmentKind;
use multicl::{SchedEvent, SchedObserver};
use std::time::Instant;

/// What a mark records beyond its timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MarkKind {
    /// The benchmark is about to call into the product.
    Enter(&'static str),
    /// That call returned.
    Exit,
    /// `SchedEvent::EpochBegin`.
    EpochBegin,
    /// `SchedEvent::MappingDecision` with its self-reported host time and
    /// search effort.
    Mapping { wall_ns: u64, nodes: u64 },
    /// `SchedEvent::EpochEnd`.
    EpochEnd,
    /// `SchedEvent::JobDispatched`.
    JobDispatched,
    /// `SchedEvent::JobCompleted`.
    JobCompleted,
    /// `SchedEvent::JobTrace`: virtual admission-queue wait of the job.
    JobTrace { queue_wait_ns: u64 },
    /// `SchedEvent::MakespanAttribution` (virtual nanoseconds).
    Attribution { predicted_ns: u64, actual_ns: u64 },
    /// `SchedEvent::QueueMigrated`.
    Migrated,
    /// Any other event (counted, not interpreted).
    Other,
}

/// One entry of the log: host nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    pub ns: u64,
    pub kind: MarkKind,
}

/// In-memory mark log; attach as an observer and wrap calls with
/// [`Tracer::enter`] / [`Tracer::exit`].
pub struct Tracer {
    origin: Instant,
    marks: Mutex<Vec<Mark>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), marks: Mutex::new(Vec::with_capacity(1 << 16)) }
    }

    fn push(&self, kind: MarkKind) {
        let ns = self.origin.elapsed().as_nanos() as u64;
        self.marks.lock().push(Mark { ns, kind });
    }

    pub fn enter(&self, name: &'static str) {
        self.push(MarkKind::Enter(name));
    }

    pub fn exit(&self) {
        self.push(MarkKind::Exit);
    }

    /// Take the log, leaving the tracer empty.
    pub fn take(&self) -> Vec<Mark> {
        std::mem::take(&mut *self.marks.lock())
    }
}

impl SchedObserver for Tracer {
    fn on_event(&self, event: &SchedEvent) {
        self.push(match event {
            SchedEvent::EpochBegin { .. } => MarkKind::EpochBegin,
            SchedEvent::MappingDecision { mapper_wall, nodes_explored, .. } => {
                MarkKind::Mapping { wall_ns: mapper_wall.as_nanos(), nodes: *nodes_explored }
            }
            SchedEvent::EpochEnd { .. } => MarkKind::EpochEnd,
            SchedEvent::JobDispatched { .. } => MarkKind::JobDispatched,
            SchedEvent::JobCompleted { .. } => MarkKind::JobCompleted,
            SchedEvent::JobTrace { attempts, .. } => MarkKind::JobTrace {
                queue_wait_ns: attempts
                    .iter()
                    .map(|a| a.segments.get(SegmentKind::AdmissionWait).as_nanos())
                    .sum(),
            },
            SchedEvent::MakespanAttribution { predicted, actual, .. } => MarkKind::Attribution {
                predicted_ns: predicted.as_nanos(),
                actual_ns: actual.as_nanos(),
            },
            SchedEvent::QueueMigrated { .. } => MarkKind::Migrated,
            _ => MarkKind::Other,
        });
    }
}

/// A closed span. `parent` indexes into the same span list; `group` is
/// shared by every span of one job round, solver step or benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub group: usize,
    /// `JobDispatched` events delivered while this was the innermost call.
    pub jobs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Which phase children a wrapped call gets (see the module docs).
#[derive(PartialEq)]
enum Phases {
    None,
    MapAndFlush,
    All,
}

fn phases_of(name: &str) -> Phases {
    match name {
        "dispatch_round" | "step" => Phases::All,
        "run_benchmark" => Phases::MapAndFlush,
        _ => Phases::None,
    }
}

struct Open {
    span: usize,
    /// Start and name of the phase in progress, once an epoch event has
    /// been seen inside this call.
    phase: Option<(u64, &'static str)>,
}

/// Build the span tree from a mark log.
pub fn build_spans(marks: &[Mark]) -> Vec<Span> {
    let mut spans: Vec<Span> = Vec::new();
    let mut stack: Vec<Open> = Vec::new();
    let mut groups = 0usize;
    // Close the phase in progress at `ns` and start `next`.
    fn turn(spans: &mut Vec<Span>, open: &mut Open, ns: u64, next: &'static str) {
        let kept = phases_of(spans[open.span].name);
        if kept == Phases::None {
            return;
        }
        let (start, name) = open.phase.unwrap_or((spans[open.span].start_ns, "issue"));
        if kept == Phases::All || matches!(name, "map" | "flush") {
            let group = spans[open.span].group;
            spans.push(Span {
                name,
                start_ns: start,
                end_ns: ns,
                parent: Some(open.span),
                group,
                jobs: 0,
            });
        }
        open.phase = Some((ns, next));
    }
    for m in marks {
        match m.kind {
            MarkKind::Enter(name) => {
                let parent = stack.last().map(|o| o.span);
                let group = match parent {
                    Some(p) => spans[p].group,
                    None => {
                        groups += 1;
                        groups
                    }
                };
                spans.push(Span { name, start_ns: m.ns, end_ns: m.ns, parent, group, jobs: 0 });
                stack.push(Open { span: spans.len() - 1, phase: None });
            }
            MarkKind::Exit => {
                let Some(mut open) = stack.pop() else { continue };
                if open.phase.is_some() {
                    turn(&mut spans, &mut open, m.ns, "");
                }
                spans[open.span].end_ns = m.ns;
            }
            MarkKind::EpochBegin => {
                if let Some(open) = stack.last_mut() {
                    turn(&mut spans, open, m.ns, "map");
                }
            }
            MarkKind::Mapping { .. } => {
                if let Some(open) = stack.last_mut() {
                    turn(&mut spans, open, m.ns, "flush");
                }
            }
            MarkKind::EpochEnd => {
                if let Some(open) = stack.last_mut() {
                    turn(&mut spans, open, m.ns, "drain");
                }
            }
            MarkKind::JobDispatched => {
                if let Some(open) = stack.last() {
                    spans[open.span].jobs += 1;
                }
            }
            MarkKind::JobCompleted => {
                if let Some(open) = stack.last_mut() {
                    if matches!(open.phase, Some((_, "drain"))) {
                        turn(&mut spans, open, m.ns, "account");
                    }
                }
            }
            _ => {}
        }
    }
    spans
}

/// Self time of a span: its duration minus the part of its interval that
/// the given child intervals cover (children may overlap each other and
/// may stick out of the parent).
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| e > s).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// Total duration and self time per span name, in nanoseconds.
pub fn totals_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, (u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = std::collections::BTreeMap::new();
    for (s, kids) in spans.iter().zip(&children) {
        let entry: &mut (u64, u64) = out.entry(s.name).or_default();
        entry.0 += s.dur_ns();
        entry.1 += self_time_ns((s.start_ns, s.end_ns), kids);
    }
    out
}

/// The spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::from(id)),
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::from(s.start_ns)),
                    ("end_ns", Json::from(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("group", Json::from(s.group)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(ns: u64, kind: MarkKind) -> Mark {
        Mark { ns, kind }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Overlapping children count once; parts outside the parent don't.
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        assert_eq!(self_time_ns((100, 200), &[(110, 130), (120, 150)]), 60);
        assert_eq!(self_time_ns((100, 200), &[(50, 120), (190, 300)]), 70);
        assert_eq!(self_time_ns((100, 200), &[(0, 1000)]), 0);
        assert_eq!(self_time_ns((100, 200), &[(150, 150), (10, 20)]), 100);
    }

    #[test]
    fn a_round_tiles_into_five_phases() {
        use MarkKind::*;
        let marks = [
            mark(0, Enter("submit")),
            mark(5, Exit),
            mark(10, Enter("dispatch_round")),
            mark(12, JobDispatched),
            mark(30, EpochBegin),
            mark(40, Mapping { wall_ns: 3, nodes: 7 }),
            mark(55, EpochEnd),
            mark(90, JobCompleted),
            mark(91, JobTrace { queue_wait_ns: 1 }),
            mark(95, JobCompleted),
            mark(100, Exit),
        ];
        let spans = build_spans(&marks);
        let named: Vec<(&str, u64, u64)> =
            spans.iter().map(|s| (s.name, s.start_ns, s.end_ns)).collect();
        assert_eq!(
            named,
            [
                ("submit", 0, 5),
                ("dispatch_round", 10, 100),
                ("issue", 10, 30),
                ("map", 30, 40),
                ("flush", 40, 55),
                ("drain", 55, 90),
                ("account", 90, 100),
            ]
        );
        assert!(spans[2..].iter().all(|s| s.parent == Some(1) && s.group == spans[1].group));
        assert_ne!(spans[0].group, spans[1].group);
        assert_eq!(spans[1].jobs, 1);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["dispatch_round"], (90, 0), "phases tile the round exactly");
        assert_eq!(totals["drain"], (35, 35));
    }

    #[test]
    fn a_round_without_an_epoch_has_no_children() {
        let marks = [mark(0, MarkKind::Enter("dispatch_round")), mark(4, MarkKind::Exit)];
        let spans = build_spans(&marks);
        assert_eq!(spans.len(), 1);
        assert_eq!(totals_by_name(&spans)["dispatch_round"], (4, 4));
    }

    #[test]
    fn a_step_holds_two_epochs_and_a_benchmark_run_keeps_only_map_and_flush() {
        use MarkKind::*;
        let epoch = |t: u64| {
            [
                mark(t, EpochBegin),
                mark(t + 2, Mapping { wall_ns: 1, nodes: 1 }),
                mark(t + 5, EpochEnd),
            ]
        };
        let mut marks = vec![mark(0, Enter("step"))];
        marks.extend(epoch(10));
        marks.extend(epoch(30));
        marks.push(mark(50, Exit));
        let names: Vec<&str> = build_spans(&marks).iter().map(|s| s.name).collect();
        assert_eq!(names, ["step", "issue", "map", "flush", "drain", "map", "flush", "drain"]);

        let mut marks = vec![mark(0, Enter("run_benchmark"))];
        marks.extend(epoch(10));
        marks.push(mark(500, Exit));
        let spans = build_spans(&marks);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["run_benchmark", "map", "flush"]);
        assert_eq!(totals_by_name(&spans)["run_benchmark"], (500, 495));
    }
}
