//! `perf compare A.json B.json`: one row per (workload, end-to-end metric),
//! judged against the bound `BENCHMARK.json` fixes for that metric.
//!
//! - `virt_*` metrics are simulator time and repeat exactly for one seed, so
//!   any difference is a real change: `better` or `worse`, never noise.
//! - A host metric is `worse` or `better` when it moved by more than the
//!   bound, else `same` — except that the wall-clock metric ([`TIMED`]) is
//!   `unresolved` when either run's pass-to-pass spread
//!   (`bench.pass_spread_pct`, measured on pass wall times) is wider than
//!   the bound: the run cannot tell a change of that size from noise.
//!
//! The process exits non-zero when any row is `worse`.

use crate::workloads::Workload;
use hwsim::json::Json;

/// The metric pass wall times speak for: the others are counts, a peak, or
/// have their own repetitions.
const TIMED: &str = "wall_ops_per_s";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of `a` by which the metric may worsen.
    pub bound: f64,
}

/// Judge `b` against `a`. `spread` is the wider of the two runs'
/// pass-to-pass spreads, as a share (not percent).
pub fn verdict(metric: &Bounded, a: f64, b: f64, spread: f64) -> Verdict {
    let worse_by = if metric.lower_is_better { (b - a) / a } else { (a - b) / a };
    if metric.name.starts_with("virt_") {
        return if a == b {
            Verdict::Same
        } else if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        };
    }
    if metric.name == TIMED && spread > metric.bound {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The end-to-end metric declarations of a `BENCHMARK.json` document.
pub fn bounded_metrics(benchmark: &Json) -> Result<Vec<Bounded>, String> {
    let list = benchmark.get("end_to_end").and_then(Json::as_arr).ok_or("no `end_to_end` list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key).and_then(Json::as_str).ok_or(format!("metric without `{key}`"))
            };
            Ok(Bounded {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without `bound`")?,
            })
        })
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).ok_or(format!("{path}: not JSON"))
}

/// Compare two `perf suite` result files; prints the rows and returns
/// whether any was `worse`.
pub fn run(a_path: &str, b_path: &str, benchmark_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let metrics = bounded_metrics(&load(benchmark_path)?)?;
    for (doc, path) in [(&a, a_path), (&b, b_path)] {
        if doc.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err(format!("{path}: a --quick run is not comparable"));
        }
    }
    if a.get("seed").and_then(Json::as_u64) != b.get("seed").and_then(Json::as_u64) {
        return Err("the two runs used different seeds: virtual metrics cannot match".into());
    }
    let mut any_worse = false;
    println!(
        "{:<14} {:<20} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for w in Workload::ALL {
        let value = |doc: &Json, group: &str, metric: &str| {
            doc.get("workloads")?.get(w.name())?.get(group)?.get(metric)?.as_f64()
        };
        let spread = |doc: &Json| value(doc, "per_layer", "bench.pass_spread_pct").unwrap_or(0.0);
        let spread = spread(&a).max(spread(&b)) / 100.0;
        for m in &metrics {
            let (Some(x), Some(y)) =
                (value(&a, "end_to_end", &m.name), value(&b, "end_to_end", &m.name))
            else {
                return Err(format!("{} {}: missing from a result file", w.name(), m.name));
            };
            let v = verdict(m, x, y, spread);
            any_worse |= v == Verdict::Worse;
            println!(
                "{:<14} {:<20} {:>16.6} {:>16.6} {:>+7.2}%  {}",
                w.name(),
                m.name,
                x,
                y,
                100.0 * (y - x) / x,
                v.label()
            );
        }
        let failed = |doc: &Json| doc.get("workloads")?.get(w.name())?.get("failed")?.as_u64();
        let (fa, fb) = (failed(&a).unwrap_or(0), failed(&b).unwrap_or(0));
        if fb > fa {
            any_worse = true;
            println!("{:<14} {:<20} {fa:>16} {fb:>16} {:>8}  worse", w.name(), "failed", "");
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, lower: bool, bound: f64) -> Bounded {
        Bounded { name: name.into(), unit: "x".into(), lower_is_better: lower, bound }
    }

    #[test]
    fn host_metrics_move_only_past_their_bound() {
        let rate = metric("wall_ops_per_s", false, 0.10);
        assert_eq!(verdict(&rate, 100.0, 95.0, 0.03), Verdict::Same);
        assert_eq!(verdict(&rate, 100.0, 85.0, 0.03), Verdict::Worse);
        assert_eq!(verdict(&rate, 100.0, 115.0, 0.03), Verdict::Better);
        let cost = metric("peak_rss_mb", true, 0.10);
        assert_eq!(verdict(&cost, 100.0, 115.0, 0.03), Verdict::Worse);
        assert_eq!(verdict(&cost, 100.0, 85.0, 0.03), Verdict::Better);
        assert_eq!(verdict(&cost, 100.0, 105.0, 0.03), Verdict::Same);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_not_unchanged() {
        let rate = metric("wall_ops_per_s", false, 0.10);
        assert_eq!(verdict(&rate, 100.0, 99.0, 0.12), Verdict::Unresolved);
        assert_eq!(verdict(&rate, 100.0, 50.0, 0.12), Verdict::Unresolved);
        // Allocation counts do not depend on how steady the clock was.
        let allocs = metric("allocs_per_op", true, 0.08);
        assert_eq!(verdict(&allocs, 100.0, 100.1, 0.12), Verdict::Same);
        assert_eq!(verdict(&allocs, 100.0, 120.0, 0.12), Verdict::Worse);
    }

    #[test]
    fn virtual_metrics_must_match_exactly_whatever_the_noise() {
        let makespan = metric("virt_makespan_ms", true, 0.005);
        assert_eq!(verdict(&makespan, 153.974, 153.974, 0.5), Verdict::Same);
        assert_eq!(verdict(&makespan, 153.974, 153.975, 0.5), Verdict::Worse);
        assert_eq!(verdict(&makespan, 153.974, 153.0, 0.5), Verdict::Better);
        let goodput = metric("virt_goodput_per_s", false, 0.005);
        assert_eq!(verdict(&goodput, 13_000.0, 12_999.0, 0.0), Verdict::Worse);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end": [
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                {"name": "wall_ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let metrics = bounded_metrics(&doc).unwrap();
        assert_eq!(metrics[0], metric_with_unit("setup_s", "s", true, 0.25));
        assert_eq!(metrics[1], metric_with_unit("wall_ops_per_s", "ops/s", false, 0.1));
        assert!(bounded_metrics(&Json::parse("{}").unwrap()).is_err());
    }

    fn metric_with_unit(name: &str, unit: &str, lower: bool, bound: f64) -> Bounded {
        Bounded { unit: unit.into(), ..metric(name, lower, bound) }
    }
}
