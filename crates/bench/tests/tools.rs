//! `schedule_explain`, the one tool that takes user input, driven as a
//! process. A malformed argument — an unknown benchmark or class, a queue
//! count that is not a number or that Table II forbids, a flag without a
//! value or with a malformed one — is a usage error (`error: …` on stderr,
//! exit 2). An unreadable stream is the user's error too (`error: …`,
//! exit 1). Neither is ever a panic. A stream holding only kinds this build
//! does not declare — the retired `shard_degraded` / `tenant_migrated`
//! (cluster tier) and `chunk_stolen` (split work stealing), next to one
//! from a newer build — replays with every line skipped and counted.

use std::process::{Command, Output};

fn schedule_explain(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_schedule_explain")).args(args).output().expect("tool runs")
}

/// Assert a usage error whose message starts with `message`.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = schedule_explain(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
    assert!(stderr.starts_with(&format!("error: {message}")), "{args:?}: stderr: {stderr}");
}

/// Write `stream` to a per-process temp file named after `tag`.
fn stream_file(tag: &str, stream: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("tools-{tag}-{}.jsonl", std::process::id()));
    std::fs::write(&path, stream).expect("write stream");
    path
}

#[test]
fn an_unknown_class_is_a_usage_error_not_a_panic() {
    assert_usage_error(&["MG", "Z"], "unknown NPB class `Z`");
}

#[test]
fn an_unknown_benchmark_is_a_usage_error_not_a_panic() {
    assert_usage_error(&["XX"], "unknown benchmark `XX`");
}

#[test]
fn a_forbidden_queue_count_is_a_usage_error_not_a_panic() {
    assert_usage_error(&["MG", "S", "3"], "MG does not allow 3 queues");
}

#[test]
fn a_class_outside_table_ii_is_a_usage_error_not_a_panic() {
    assert_usage_error(&["FT", "D"], "FT has no class D");
}

#[test]
fn an_unparsable_queue_count_is_a_usage_error_not_four_queues() {
    assert_usage_error(&["MG", "S", "x"], "queue count `x`");
}

#[test]
fn a_missing_or_malformed_flag_value_is_a_usage_error() {
    assert_usage_error(&["--replay"], "--replay needs a value");
    assert_usage_error(&["--replay", "s.jsonl", "--top"], "--top needs a value");
    assert_usage_error(&["--replay", "s.jsonl", "--job", "abc"], "--job `abc`");
    assert_usage_error(&["--width", "-1", "--replay", "s.jsonl"], "--width `-1`");
    assert_usage_error(&["--replay", "s.jsonl", "MG"], "--replay takes no benchmark arguments");
    assert_usage_error(&["--frobnicate"], "unknown flag `--frobnicate`");
}

#[test]
fn a_missing_stream_is_an_error_message_not_a_panic() {
    let missing = std::env::temp_dir().join(format!("tools-missing-{}.jsonl", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp path");
    let out = schedule_explain(&["--replay", missing]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error: cannot read "), "stderr: {stderr}");
}

#[test]
fn flags_apply_before_or_after_the_stream_and_the_job_filter_filters() {
    let trace = |job: u64| {
        format!(
            r#"{{"type":"job_trace","epoch":1,"tenant":"t0","job":{job},"submitted_at_ns":0,"completed_at_ns":1000,"outcome":"completed","attempts":[{{"job":{job},"attempt":0,"queue":0,"device":1,"epoch":1,"dispatched_at_ns":0,"ended_at_ns":1000,"segments":{{"compute_ns":1000}}}}]}}"#
        )
    };
    let path = stream_file("jobs", &format!("{}\n{}\n", trace(3), trace(4)));
    let file = path.to_str().expect("utf-8 temp path");
    for args in [["--top", "5", "--replay", file], ["--replay", file, "--top", "5"]] {
        let out = schedule_explain(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains("replaying 2 event(s)"), "{stdout}");
        assert!(stdout.contains("=== top 5 critical-path segments ==="), "{stdout}");
        assert!(
            stdout.contains("job 3 tenant=t0") && stdout.contains("job 4 tenant=t0"),
            "{stdout}"
        );
    }
    let out = schedule_explain(&["--replay", file, "--job", "4"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("job 4 tenant=t0") && !stdout.contains("job 3 tenant=t0"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn retired_and_unknown_kinds_are_skipped_and_counted() {
    let stream = concat!(
        r#"{"type":"shard_degraded","epoch":6,"shard":2,"healthy":1,"total":3,"at_ns":40000}"#,
        "\n",
        r#"{"type":"tenant_migrated","epoch":7,"tenant":"t0","from_shard":2,"to_shard":0,"jobs":4,"bytes":4096,"transfer_ns":21000,"at_ns":40500}"#,
        "\n",
        r#"{"type":"chunk_stolen","epoch":8,"kernel":"ep","chunk":1,"wg_offset":4,"wg_count":4,"from":0,"to":1,"at_ns":41000}"#,
        "\n",
        r#"{"type":"from_a_newer_build","epoch":8}"#,
        "\n",
    );
    let path = stream_file("retired", stream);
    let out = schedule_explain(&["--replay", path.to_str().expect("utf-8 temp path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("replaying 0 event(s)"), "{stdout}");
    assert!(stdout.contains("events_skipped: 4"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}
