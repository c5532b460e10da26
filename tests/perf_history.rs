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
//!    workloads — except on the workloads the row names in its
//!    `"rebaseline"` list, with a non-empty `"reason"`, the one way a change
//!    may move virtual time on purpose. A re-baseline names what it moves:
//!    any other value of `"rebaseline"` is refused.

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
    let stated = !reason.trim().is_empty();
    let mut rebaselined: Vec<&str> = Vec::new();
    if let Some(list) = newest.get("rebaseline") {
        let names = list.as_arr().map(|l| l.iter().map(Json::as_str).collect::<Option<Vec<_>>>());
        match names.flatten().filter(|n| n.iter().all(|w| WORKLOADS.contains(w))) {
            Some(names) => rebaselined = names,
            None => broken.push(format!("\"rebaseline\" must list workloads: {list:?}")),
        }
    }
    let Some(baseline) = Json::parse(baseline) else {
        broken.push("the baseline does not parse".into());
        return broken;
    };
    let pr = newest.get("pr").and_then(Json::as_u64);
    for w in WORKLOADS.into_iter().filter(|w| !(stated && rebaselined.contains(w))) {
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
         says so in its row: \"rebaseline\": [\"<workload>\", …], \"reason\": \"…\""
    );
}

#[test]
fn a_moved_virtual_time_passes_only_as_a_stated_rebaseline() {
    let baseline = read("BENCH_perf.json");
    let history = read("BENCH_perf_history.jsonl");
    let newest = history.lines().rev().find(|l| l.contains("\"perf_suite\"")).expect("a row");
    // The newest row again: `keys` put first (a lookup takes the first of
    // two equal keys), and `workload`'s p50 moved the same way.
    let row = |keys: &str, workload: Option<&str>| {
        let mut row = format!("{{{keys}{}", &newest[1..]);
        if let Some(w) = workload {
            let from = row.find(&format!("\"{w}\"")).expect("the workload");
            let at = from + row[from..].find("\"virt_p50_ms\"").expect("a virt_p50_ms key");
            row.insert_str(at, "\"virt_p50_ms\":-1,");
        }
        format!("{history}{row}\n")
    };
    let reason = "\"reason\":\"split chunks priced at their size\",";
    let npb = format!("\"rebaseline\":[\"npb_suite\"],{reason}");
    assert!(violations(&row(&npb, None), &baseline).is_empty());
    assert_eq!(violations(&row("", Some("serve_light")), &baseline).len(), 1, "a moved value");
    // Re-baselining one workload exempts that one only.
    assert!(violations(&row(&npb, Some("npb_suite")), &baseline).is_empty());
    let moved = row(&npb, Some("serve_light"));
    assert_eq!(violations(&moved, &baseline).len(), 1, "npb_suite's re-baseline moved serve_light");
    // No reason, a bare flag or an unknown name exempts nothing.
    let unstated = row("\"rebaseline\":[\"npb_suite\"],\"reason\":\" \",", Some("npb_suite"));
    assert_eq!(violations(&unstated, &baseline).len(), 1, "a blank reason exempts nothing");
    let bare = row(&format!("\"rebaseline\":true,{reason}"), Some("npb_suite"));
    assert_eq!(violations(&bare, &baseline).len(), 2, "a re-baseline names its workloads");
    let unknown = row(&format!("\"rebaseline\":[\"npb\"],{reason}"), Some("npb_suite"));
    assert_eq!(violations(&unknown, &baseline).len(), 2, "an unknown workload name");
    assert_eq!(violations(&format!("{history}{{\"pr\":\n"), &baseline).len(), 1);
}
