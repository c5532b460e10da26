//! Terminal rendering of the scheduler decision log.
//!
//! Turns a recorded [`SchedEvent`] stream into the human-readable account
//! the `schedule_explain` binary prints next to the Gantt chart: one line
//! per event, with [`SchedEvent::MappingDecision`]s expanded into a
//! per-queue cost table showing what every device would have cost and why
//! the mapper chose what it chose.

use super::event::{QueueDecision, SchedEvent};
use hwsim::SimDuration;
use std::fmt::Write as _;

fn ms(d: SimDuration) -> String {
    format!("{:.3}ms", d.as_millis_f64())
}

/// A compact one-line description of an event (used by
/// [`StderrSink`](super::StderrSink) and the log headers).
pub fn one_line(event: &SchedEvent) -> String {
    match event {
        SchedEvent::EpochBegin { pool, policy, at, .. } => {
            format!("epoch begin at {at}: {pool} queue(s), policy {policy}")
        }
        SchedEvent::KernelProfiled { kernel, minikernel, costs, .. } => {
            let costs = costs.iter().map(|c| ms(*c)).collect::<Vec<_>>().join(" ");
            let mk = if *minikernel { " (minikernel)" } else { "" };
            format!("profiled `{kernel}`{mk}: [{costs}]")
        }
        SchedEvent::CacheHit { key, .. } => format!("cache hit for epoch [{key}]"),
        SchedEvent::CacheMiss { key, .. } => format!("cache miss for epoch [{key}]"),
        SchedEvent::MappingDecision {
            mapper,
            makespan,
            queues,
            nodes_explored,
            budget_tripped,
            mapper_wall,
            ..
        } => {
            let assignment = queues
                .iter()
                .map(|q| format!("Q{}→{}", q.queue, q.chosen))
                .collect::<Vec<_>>()
                .join(" ");
            let tripped = if *budget_tripped { ", budget tripped" } else { "" };
            format!(
                "{mapper} mapping [{assignment}], makespan {} \
                 ({nodes_explored} node(s), {} wall{tripped})",
                ms(*makespan),
                ms(*mapper_wall),
            )
        }
        SchedEvent::QueueMigrated { queue, from, to, bytes, .. } => {
            format!("queue Q{queue} migrated {from}→{to} ({bytes}B to move)")
        }
        SchedEvent::EpochEnd { elapsed, profiling, kernels_issued, .. } => {
            format!(
                "epoch end: {} elapsed ({} profiling), {kernels_issued} kernel(s) issued",
                ms(*elapsed),
                ms(*profiling)
            )
        }
        SchedEvent::JobSubmitted { tenant, job, at, .. } => {
            format!("job #{job} submitted by `{tenant}` at {at}")
        }
        SchedEvent::JobAdmitted { tenant, job, depth, .. } => {
            format!("job #{job} admitted for `{tenant}` (queue depth {depth})")
        }
        SchedEvent::JobRejected { tenant, job, reason, .. } => {
            format!("job #{job} REJECTED for `{tenant}`: {reason}")
        }
        SchedEvent::JobDispatched { tenant, job, queue, .. } => {
            format!("job #{job} (`{tenant}`) dispatched onto Q{queue}")
        }
        SchedEvent::JobCompleted { tenant, job, latency, .. } => {
            format!("job #{job} (`{tenant}`) completed, latency {}", ms(*latency))
        }
        SchedEvent::DeviceDown { device, at, .. } => {
            format!("device {device} DOWN at {at}; blacklisted")
        }
        SchedEvent::Remapped { queue, from, to, bytes, .. } => {
            format!("queue Q{queue} evacuated {from}→{to} after failure ({bytes}B to move)")
        }
        SchedEvent::RetryExhausted { tenant, job, attempts, reason, .. } => {
            format!("job #{job} (`{tenant}`) ABANDONED after {attempts} attempt(s): {reason}")
        }
        SchedEvent::JobTrace {
            tenant, job, submitted_at, completed_at, outcome, attempts, ..
        } => {
            format!(
                "job #{job} (`{tenant}`) traced: {outcome} in {} over {} attempt(s)",
                ms(completed_at.saturating_since(*submitted_at)),
                attempts.len()
            )
        }
        SchedEvent::MakespanAttribution { policy, predicted, actual, .. } => {
            format!(
                "makespan attribution ({policy}): predicted {} vs actual {}",
                ms(*predicted),
                ms(*actual)
            )
        }
        SchedEvent::SloBurn { tenant, long_burn, short_burn, threshold, fired, .. } => {
            let state = if *fired { "FIRING" } else { "cleared" };
            format!(
                "slo burn {state} for `{tenant}`: long {long_burn:.2}x / short {short_burn:.2}x \
                 (threshold {threshold:.2}x)"
            )
        }
        SchedEvent::CostPredicted { kernel, costs, uncertainty, samples, .. } => {
            let costs = costs.iter().map(|c| ms(*c)).collect::<Vec<_>>().join(" ");
            format!(
                "predicted `{kernel}` without profiling: [{costs}] \
                 (±{:.1}%, {samples} sample(s))",
                uncertainty * 100.0
            )
        }
        SchedEvent::PredictorRefined { kernel, device, predicted, actual, rel_error, .. } => {
            format!(
                "refined `{kernel}` on {device}: predicted {} vs actual {} \
                 ({:.1}% off)",
                ms(*predicted),
                ms(*actual),
                rel_error * 100.0
            )
        }
        SchedEvent::PredictorFallback { kernel, reason, uncertainty, .. } => {
            format!(
                "predictor FELL BACK to profiling for `{kernel}`: {reason} \
                 (uncertainty {:.1}%)",
                uncertainty * 100.0
            )
        }
        SchedEvent::KernelSplit { kernel, total_wgs, chunks, wgs_per_device, .. } => {
            let shares = wgs_per_device
                .iter()
                .enumerate()
                .map(|(d, w)| format!("D{d}:{w}"))
                .collect::<Vec<_>>()
                .join(" ");
            format!("split `{kernel}`: {total_wgs} workgroup(s) into {chunks} chunk(s) [{shares}]")
        }
    }
}

/// Render one queue's explain record as table rows (one per device), with
/// `*` marking the device the mapper chose and `<` marking the queue-local
/// argmin when contention pushed the mapper elsewhere: the estimated
/// execution time, and the row the mapper read (for a priced queue, the
/// replay of its launches alone, transfers included).
fn decision_rows(out: &mut String, d: &QueueDecision) {
    let argmin = d.argmin_total();
    for (i, (&exec, &total)) in d.cost.exec.iter().zip(d.cost.total.iter()).enumerate() {
        let dev = hwsim::DeviceId(i);
        let chosen = if dev == d.chosen { '*' } else { ' ' };
        let local = if dev == argmin && argmin != d.chosen { '<' } else { ' ' };
        let (e, t) = (ms(exec), ms(total));
        let _ = writeln!(out, "    {chosen}{local} {dev:>3}  exec {e:>12}  mapped {t:>12}");
    }
}

/// Per-epoch predictor tallies accumulated while walking the stream, for
/// the summary line printed at each epoch end.
#[derive(Default)]
struct PredictorEpoch {
    predicted: usize,
    fallbacks: usize,
    refined: usize,
    rel_error_sum: f64,
}

impl PredictorEpoch {
    fn active(&self) -> bool {
        self.predicted + self.fallbacks + self.refined > 0
    }

    fn summary(&self) -> String {
        let mut parts =
            vec![format!("{} predicted, {} fallback(s)", self.predicted, self.fallbacks)];
        if self.refined > 0 {
            parts.push(format!(
                "mean |rel err| {:.1}% over {} refinement(s)",
                100.0 * self.rel_error_sum / self.refined as f64,
                self.refined
            ));
        }
        format!("  predictor: {}", parts.join(", "))
    }
}

/// Render the full decision log for an event stream. Events are grouped
/// by epoch; mapping decisions expand into per-queue cost tables, and
/// epochs with predictor activity get a predicted-vs-actual summary line.
pub fn decision_log(events: &[SchedEvent]) -> String {
    let mut out = String::new();
    let mut predictor = PredictorEpoch::default();
    for ev in events {
        match ev {
            SchedEvent::EpochBegin { .. } => {
                predictor = PredictorEpoch::default();
                let _ = writeln!(out, "=== epoch {}: {}", ev.epoch(), one_line(ev));
            }
            SchedEvent::MappingDecision { queues, .. } => {
                let _ = writeln!(out, "  {}", one_line(ev));
                for d in queues {
                    let moved = if d.chosen != d.previous {
                        format!(" (was {})", d.previous)
                    } else {
                        String::new()
                    };
                    let _ = writeln!(out, "  Q{} → {}{moved}:", d.queue, d.chosen);
                    decision_rows(&mut out, d);
                }
            }
            SchedEvent::CostPredicted { .. } => {
                predictor.predicted += 1;
                let _ = writeln!(out, "  {}", one_line(ev));
            }
            SchedEvent::PredictorFallback { .. } => {
                predictor.fallbacks += 1;
                let _ = writeln!(out, "  {}", one_line(ev));
            }
            SchedEvent::PredictorRefined { rel_error, .. } => {
                predictor.refined += 1;
                predictor.rel_error_sum += rel_error;
                let _ = writeln!(out, "  {}", one_line(ev));
            }
            SchedEvent::EpochEnd { .. } => {
                if predictor.active() {
                    let _ = writeln!(out, "{}", predictor.summary());
                    predictor = PredictorEpoch::default();
                }
                let _ = writeln!(out, "  {}", one_line(ev));
            }
            _ => {
                let _ = writeln!(out, "  {}", one_line(ev));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CostRow;
    use hwsim::{DeviceId, SimTime};

    fn ns(v: u64) -> SimDuration {
        SimDuration::from_nanos(v)
    }

    #[test]
    fn each_line_shows_the_execution_row_and_the_mapped_row() {
        let d = QueueDecision {
            queue: 0,
            cost: CostRow {
                exec: vec![ns(1_000_000), ns(2_000_000)].into(),
                total: vec![ns(1_200_000), ns(2_100_000)].into(),
            },
            chosen: DeviceId(1),
            previous: DeviceId(0),
        };
        let mut out = String::new();
        decision_rows(&mut out, &d);
        let cells: Vec<String> =
            out.lines().map(|l| l.split_whitespace().collect::<Vec<_>>().join(" ")).collect();
        // The local argmin is the mapped row's.
        assert_eq!(d.argmin_total(), DeviceId(0));
        assert_eq!(cells, ["< D0 exec 1.000ms mapped 1.200ms", "* D1 exec 2.000ms mapped 2.100ms"]);
    }

    #[test]
    fn decision_log_expands_mapping_decisions() {
        let events = vec![
            SchedEvent::EpochBegin {
                epoch: 1,
                at: SimTime::ZERO,
                pool: 2,
                policy: "AUTO_FIT".into(),
            },
            SchedEvent::MappingDecision {
                epoch: 1,
                at: SimTime::from_nanos(10),
                mapper: "optimal".into(),
                makespan: ns(2_000_000),
                nodes_explored: 42,
                budget_tripped: false,
                mapper_wall: ns(7_000),
                queues: vec![
                    QueueDecision {
                        queue: 0,
                        cost: CostRow {
                            exec: vec![ns(1_000_000), ns(3_000_000)].into(),
                            total: vec![ns(1_000_000), ns(3_500_000)].into(),
                        },
                        chosen: DeviceId(0),
                        previous: DeviceId(0),
                    },
                    QueueDecision {
                        queue: 1,
                        cost: CostRow {
                            exec: vec![ns(1_500_000), ns(2_000_000)].into(),
                            total: vec![ns(1_500_000), ns(2_000_000)].into(),
                        },
                        chosen: DeviceId(1),
                        previous: DeviceId(0),
                    },
                ],
            },
            SchedEvent::EpochEnd {
                epoch: 1,
                at: SimTime::from_nanos(100),
                elapsed: ns(100),
                profiling: ns(40),
                kernels_issued: 2,
                data_queue_depth: 0,
                data_peak_busy: 0,
                lane_overlap: vec![],
            },
        ];
        let log = decision_log(&events);
        assert!(log.contains("=== epoch 1"), "{log}");
        assert!(log.contains("optimal mapping [Q0→D0 Q1→D1]"), "{log}");
        assert!(log.contains("42 node(s)"), "{log}");
        assert!(!log.contains("budget tripped"), "{log}");
        // Q1 moved off its previous device and off its local argmin (D0),
        // so both markers appear.
        assert!(log.contains("Q1 → D1 (was D0)"), "{log}");
        assert!(log.contains('*'), "{log}");
        assert!(log.contains('<'), "{log}");
        assert!(log.contains("2 kernel(s) issued"), "{log}");
    }

    #[test]
    fn one_line_covers_every_variant() {
        let events = vec![
            SchedEvent::CacheHit { epoch: 1, key: "a".into() },
            SchedEvent::CacheMiss { epoch: 1, key: "a".into() },
            SchedEvent::KernelProfiled {
                epoch: 1,
                kernel: "k".into(),
                minikernel: true,
                costs: vec![ns(10)],
            },
            SchedEvent::QueueMigrated {
                epoch: 1,
                queue: 0,
                from: DeviceId(0),
                to: DeviceId(1),
                bytes: 8,
                at: SimTime::ZERO,
            },
        ];
        for ev in &events {
            assert!(!one_line(ev).is_empty());
        }
        assert!(one_line(&events[2]).contains("minikernel"));
        assert!(one_line(&events[3]).contains("D0→D1"));
    }

    #[test]
    fn one_line_describes_job_lifecycle_events() {
        let at = SimTime::from_nanos(5);
        let cases = vec![
            SchedEvent::JobSubmitted { epoch: 1, tenant: "t0".into(), job: 9, at },
            SchedEvent::JobAdmitted { epoch: 1, tenant: "t0".into(), job: 9, depth: 2, at },
            SchedEvent::JobRejected {
                epoch: 1,
                tenant: "t0".into(),
                job: 9,
                reason: "queue_full".into(),
                at,
            },
            SchedEvent::JobDispatched { epoch: 1, tenant: "t0".into(), job: 9, queue: 4, at },
            SchedEvent::JobCompleted {
                epoch: 1,
                tenant: "t0".into(),
                job: 9,
                latency: ns(1_000_000),
                at,
            },
        ];
        for ev in &cases {
            let line = one_line(ev);
            assert!(line.contains("#9") && line.contains("t0"), "{line}");
        }
        assert!(one_line(&cases[1]).contains("depth 2"));
        assert!(one_line(&cases[2]).contains("queue_full"));
        assert!(one_line(&cases[3]).contains("Q4"));
        assert!(one_line(&cases[4]).contains("1.000ms"));
    }

    #[test]
    fn one_line_describes_fault_recovery_events() {
        let at = SimTime::from_nanos(5);
        let down = SchedEvent::DeviceDown { epoch: 2, device: DeviceId(1), at };
        let remap = SchedEvent::Remapped {
            epoch: 2,
            queue: 3,
            from: DeviceId(1),
            to: DeviceId(0),
            bytes: 64,
            at,
        };
        let exhausted = SchedEvent::RetryExhausted {
            epoch: 3,
            tenant: "t0".into(),
            job: 9,
            attempts: 3,
            reason: "CL_OUT_OF_RESOURCES".into(),
            at,
        };
        assert!(one_line(&down).contains("D1") && one_line(&down).contains("DOWN"));
        let line = one_line(&remap);
        assert!(line.contains("Q3") && line.contains("D1→D0") && line.contains("64B"), "{line}");
        let line = one_line(&exhausted);
        assert!(line.contains("3 attempt(s)") && line.contains("CL_OUT_OF_RESOURCES"), "{line}");
    }

    #[test]
    fn one_line_describes_tracing_events() {
        let trace = SchedEvent::JobTrace {
            epoch: 3,
            tenant: "t0".into(),
            job: 9,
            submitted_at: SimTime::from_nanos(0),
            completed_at: SimTime::from_nanos(2_000_000),
            outcome: "completed".into(),
            attempts: vec![],
        };
        let line = one_line(&trace);
        assert!(line.contains("#9") && line.contains("completed in 2.000ms"), "{line}");
        let attr = SchedEvent::MakespanAttribution {
            epoch: 3,
            at: SimTime::from_nanos(10),
            policy: "AUTO_FIT".into(),
            predicted: ns(1_000_000),
            actual: ns(1_500_000),
        };
        let line = one_line(&attr);
        assert!(line.contains("predicted 1.000ms") && line.contains("actual 1.500ms"), "{line}");
        let burn = SchedEvent::SloBurn {
            epoch: 4,
            tenant: "t1".into(),
            at: SimTime::from_nanos(10),
            long_window: ns(1_000),
            short_window: ns(100),
            long_burn: 15.0,
            short_burn: 21.0,
            threshold: 14.0,
            fired: true,
        };
        let line = one_line(&burn);
        assert!(line.contains("FIRING") && line.contains("15.00x"), "{line}");
    }
}
