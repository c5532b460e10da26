//! The tools that take user input, driven as processes. For the two that
//! read a user-supplied event stream (`trace_query`, `schedule_explain
//! --replay`) a bad path is the user's error (`error: …` on stderr, exit 1
//! — never a panic), and a stream holding the decode-only `shard_degraded`
//! / `tenant_migrated` (cluster tier, deleted in PR 21) and `chunk_stolen`
//! (split work stealing, deleted in PR 25) kinds next to an unknown `type`
//! still replays. For
//! the two that run a named benchmark (`schedule_trace`,
//! `schedule_explain`) an unknown class or benchmark is a usage error
//! (`error: …`, exit 2).

use std::process::{Command, Output};

fn trace_query(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_query")).args(args).output().expect("tool runs")
}

fn schedule_explain(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_schedule_explain")).args(args).output().expect("tool runs")
}

fn schedule_trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_schedule_trace")).args(args).output().expect("tool runs")
}

#[test]
fn an_unknown_class_is_a_usage_error_not_a_panic() {
    for out in [schedule_trace(&["MG", "Z"]), schedule_explain(&["MG", "Z"])] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
        assert!(stderr.starts_with("error: unknown NPB class `Z`"), "stderr: {stderr}");
    }
}

#[test]
fn an_unknown_benchmark_is_a_usage_error_not_a_panic() {
    for out in [schedule_trace(&["XX"]), schedule_explain(&["XX"])] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
        assert!(stderr.starts_with("error: unknown benchmark `XX`"), "stderr: {stderr}");
    }
}

#[test]
fn a_missing_stream_is_an_error_message_not_a_panic() {
    let missing = std::env::temp_dir().join(format!("tools-missing-{}.jsonl", std::process::id()));
    let missing = missing.to_str().expect("utf-8 temp path");
    for out in [trace_query(&[missing]), schedule_explain(&["--replay", missing])] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(stderr.starts_with("error: cannot read "), "stderr: {stderr}");
    }
    let out = schedule_explain(&["--replay"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
}

#[test]
fn decode_only_kinds_replay_and_unknown_kinds_are_counted() {
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
    let path = std::env::temp_dir().join(format!("tools-stream-{}.jsonl", std::process::id()));
    std::fs::write(&path, stream).expect("write stream");
    let file = path.to_str().expect("utf-8 temp path");

    let out = schedule_explain(&["--replay", file]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("replaying 3 event(s)"), "{stdout}");
    assert!(stdout.contains("events_skipped: 1"), "{stdout}");
    assert!(stdout.contains("shard 2 DEGRADED"), "{stdout}");
    assert!(stdout.contains("tenant `t0` migrated shard 2→0"), "{stdout}");
    assert!(stdout.contains("chunk #1 of `ep` STOLEN D0→D1"), "{stdout}");

    let out = trace_query(&[file]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("3 event(s), events_skipped: 1"), "{stdout}");

    let _ = std::fs::remove_file(&path);
}
