//! The performance history cannot be skipped or silently re-baselined.
//!
//! `BENCH_perf_history.jsonl` holds one row per measured change: its
//! `perf suite` end-to-end metrics per workload (`"source": "perf_suite"`),
//! or figures back-filled from CHANGES.md (`"source": "changes_md"`).
//! `BENCH_perf.json` is the committed baseline suite file. These tests hold
//! two rules:
//!
//! 1. every line of the history parses as JSON;
//! 2. the newest `perf_suite` row measured the baseline's virtual timeline:
//!    every `virt_*` metric bit-equal to `BENCH_perf.json`'s on all four
//!    workloads — unless the row says `"rebaseline": true` with a non-empty
//!    `"reason"`, the one way a change may move virtual time on purpose.

use hwsim::json::Json;

const WORKLOADS: [&str; 4] = ["npb_suite", "seismo_steady", "serve_light", "serve_mix"];
const VIRT: [&str; 4] = ["virt_makespan_ms", "virt_p50_ms", "virt_tail_ms", "virt_goodput_per_s"];

fn read(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Check a history text against a baseline suite file: the list of every
/// broken rule, empty when both hold.
fn violations(history: &str, baseline: &str) -> Vec<String> {
    let mut broken = Vec::new();
    let mut rows = Vec::new();
    for (i, line) in history.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        match Json::parse(line) {
            Some(row) => rows.push(row),
            None => broken.push(format!("history line {} does not parse", i + 1)),
        }
    }
    let suite = |r: &&Json| r.get("source").and_then(Json::as_str) == Some("perf_suite");
    let Some(newest) = rows.iter().rev().find(suite) else {
        broken.push("no \"source\": \"perf_suite\" row".into());
        return broken;
    };
    let reason = newest.get("reason").and_then(Json::as_str).unwrap_or("");
    if newest.get("rebaseline").and_then(Json::as_bool) == Some(true) && !reason.trim().is_empty() {
        return broken;
    }
    let Some(baseline) = Json::parse(baseline) else {
        broken.push("the baseline does not parse".into());
        return broken;
    };
    let pr = newest.get("pr").and_then(Json::as_u64);
    for w in WORKLOADS {
        for m in VIRT {
            let row = newest.get("workloads").and_then(|x| x.get(w)?.get(m)?.as_f64());
            let base = baseline
                .get("workloads")
                .and_then(|x| x.get(w)?.get("end_to_end")?.get(m)?.as_f64());
            if row.is_none() || row.map(f64::to_bits) != base.map(f64::to_bits) {
                broken.push(format!("row of PR {pr:?}: {w}.{m} = {row:?}, baseline {base:?}"));
            }
        }
    }
    broken
}

#[test]
fn the_newest_perf_suite_row_measures_the_baseline_virtual_timeline() {
    let broken = violations(&read("BENCH_perf_history.jsonl"), &read("BENCH_perf.json"));
    assert!(
        broken.is_empty(),
        "BENCH_perf_history.jsonl: {broken:#?}\nA change that moves virtual time on purpose \
         says so in its row: \"rebaseline\": true, \"reason\": \"…\""
    );
}

#[test]
fn a_moved_virtual_time_passes_only_as_a_stated_rebaseline() {
    let baseline = read("BENCH_perf.json");
    let history = read("BENCH_perf_history.jsonl");
    let newest = history.lines().rev().find(|l| l.contains("\"perf_suite\"")).expect("a row");
    // The newest row again, one workload's p50 moved (a lookup takes the
    // first of two equal keys), `extra` keys appended.
    let moved = |extra: &str| {
        let at = newest.rfind("\"virt_p50_ms\"").expect("a virt_p50_ms key");
        let row = format!("{}\"virt_p50_ms\":-1,{}", &newest[..at], &newest[at..]);
        format!("{history}{}{extra}}}\n", &row[..row.len() - 1])
    };
    assert_eq!(violations(&moved(""), &baseline).len(), 1, "a moved value must be caught");
    let unstated = moved(",\"rebaseline\":true,\"reason\":\" \"");
    assert_eq!(violations(&unstated, &baseline).len(), 1, "a blank reason exempts nothing");
    let stated = moved(",\"rebaseline\":true,\"reason\":\"split chunks priced at their size\"");
    assert!(violations(&stated, &baseline).is_empty());
    assert_eq!(violations(&format!("{history}{{\"pr\":\n"), &baseline).len(), 1);
}
