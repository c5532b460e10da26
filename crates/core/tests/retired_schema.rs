//! What the event stream lost when the table dropped the kinds and the keys
//! nothing emits any more, stated against the recorded golden: re-encoding
//! the v1 stream gives it back minus its `shard_degraded`,
//! `tenant_migrated` and `chunk_stolen` lines, minus `kernel_split`'s
//! always-`static` `partitioner` member and minus `epoch_end`'s
//! `commands_reordered` member (the out-of-order batch reorder), and with
//! `mapping_decision`'s `migration_ns` re-derived from the one row the
//! mapper reads: the golden queue's row, `[4,7]`, falls below its `exec`,
//! `[5,9]`, on both devices, so it stays in `overlap_ns` and adds nothing
//! to `exec` (`[0,0]`, where the additive row had `[1,0]`). The one member
//! declared since, `mapping_decision`'s late `reused`, is appended at its
//! decode default, `false`. Nothing else moved. No schema version is needed for that: a lenient reader skips
//! and counts a kind it does not know, and ignores a key its table does not
//! declare.

use multicl::telemetry::sink::{parse_jsonl, parse_jsonl_lenient};
use multicl::telemetry::to_jsonl;

const GOLDEN: &str = include_str!("fixtures/events_v1.jsonl");
const RETIRED_KINDS: [&str; 3] = ["shard_degraded", "tenant_migrated", "chunk_stolen"];
const RETIRED_MEMBERS: [&str; 2] = [r#""partitioner":"static","#, r#""commands_reordered":2,"#];
const REDERIVED: (&str, &str) = (r#""migration_ns":[1,0],"#, r#""migration_ns":[0,0],"#);
/// The `mapping_decision` line's end, and that end with the late member.
const APPENDED: (&str, &str) = (r#""previous":1}]}"#, r#""previous":1}],"reused":false}"#);

fn is_retired(line: &str) -> bool {
    RETIRED_KINDS.iter().any(|kind| line.starts_with(&format!(r#"{{"type":"{kind}""#)))
}

#[test]
fn the_v1_stream_reencodes_minus_the_retired_lines_and_members() {
    let (retired, kept): (Vec<&str>, Vec<&str>) = GOLDEN.lines().partition(|l| is_retired(l));
    assert_eq!(retired.len(), 3);
    let kept = kept.join("\n") + "\n";
    for member in RETIRED_MEMBERS.into_iter().chain([REDERIVED.0, APPENDED.0]) {
        assert_eq!(kept.matches(member).count(), 1, "{member}");
    }

    let (events, skipped) = parse_jsonl_lenient(GOLDEN);
    assert_eq!(skipped, 3, "the retired kinds are skipped and counted");
    // The undeclared members are ignored, so the kept lines decode strictly.
    assert_eq!(parse_jsonl(&kept).as_ref(), Some(&events));
    let without = RETIRED_MEMBERS.iter().fold(kept, |text, member| text.replacen(member, "", 1));
    let rederived = without.replacen(REDERIVED.0, REDERIVED.1, 1);
    assert_eq!(to_jsonl(&events), rederived.replacen(APPENDED.0, APPENDED.1, 1));
}
