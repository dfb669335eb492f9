//! Property-based oracle equivalence for delta-native inference: on
//! arbitrary snapshot histories — both dialects, reverts to earlier
//! states, trailing-newline variants, unparseable states mixed in — the
//! incremental engine must dedup states exactly as a full-text dedup does,
//! classify every state's parseability exactly as the full parser does,
//! assemble identical parsed configs for parseable states, and emit stanza
//! changes identical to `diff_configs` over the full parses for every
//! adjacent parseable pair.

use mpa_config::snapshot::{Login, Snapshot, SnapshotMeta};
use mpa_config::{diff_configs, parse_config, DeltaInference, LineClasses, SnapshotArchive};
use mpa_model::device::Dialect;
use mpa_model::{DeviceId, Timestamp};
use proptest::prelude::*;
use std::collections::HashMap;

/// A config-shaped line for the block-keyword dialect: headers, bodies,
/// comments, hostname declarations (including the bare reset) and blanks.
/// Random draws produce a healthy mix of parseable states and full-parser
/// errors (orphan indents, missing hostname) — both regimes must agree.
fn arb_block_line() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u8..3).prop_map(|i| format!("hostname h{i}")),
        Just("hostname".to_string()),
        (0u8..4).prop_map(|i| format!("interface eth{i}")),
        (0u8..4).prop_map(|i| format!(" description d{i}")),
        (0u8..2).prop_map(|i| format!("ip access-list acl{i}")),
        (0u8..4).prop_map(|i| format!(" permit 10.0.0.{i}")),
        Just("!".to_string()),
        Just(String::new()),
    ]
}

/// A brace-dialect fragment: balanced stanzas most of the time, plus
/// stray open/close noise so unparseable states (unbalanced braces,
/// missing hostname) are exercised too.
fn arb_brace_fragment() -> impl Strategy<Value = Vec<String>> {
    prop_oneof![
        (0u8..6).prop_map(|i| {
            vec!["system {".to_string(), format!("host-name h{};", i % 3), "}".to_string()]
        }),
        (0u8..8, 0u8..4).prop_map(|(i, u)| {
            vec![format!("eth{} {{", i % 4), format!("unit {u};"), "}".to_string()]
        }),
        Just(vec![String::new()]),
        Just(vec!["}".to_string()]),
        Just(vec!["interfaces {".to_string()]),
    ]
}

fn join(lines: Vec<String>, trail: bool) -> String {
    let mut t = lines.join("\n");
    if trail && !t.is_empty() {
        t.push('\n');
    }
    t
}

fn arb_block_text() -> impl Strategy<Value = String> {
    (proptest::collection::vec(arb_block_line(), 0..12), any::<bool>())
        .prop_map(|(lines, trail)| join(lines, trail))
}

fn arb_brace_text() -> impl Strategy<Value = String> {
    (proptest::collection::vec(arb_brace_fragment(), 0..5), any::<bool>())
        .prop_map(|(frags, trail)| join(frags.into_iter().flatten().collect(), trail))
}

/// The oracle check: push `history` for one device, replay it through the
/// delta engine, and compare every judgement against the full parser.
fn assert_matches_oracle(dialect: Dialect, history: &[String]) {
    let mut archive = SnapshotArchive::new();
    for (i, text) in history.iter().enumerate() {
        archive
            .push(Snapshot {
                meta: SnapshotMeta {
                    device: DeviceId(1),
                    time: Timestamp(i as u64),
                    login: Login::new("p"),
                },
                text: text.clone(),
            })
            .unwrap();
    }
    let classes = LineClasses::new(&archive);
    let mut engine = DeltaInference::new(&archive, &classes);
    let replay = engine.replay_device(DeviceId(1), dialect).expect("device has snapshots");
    assert_eq!(replay.n_snapshots(), history.len());
    // State dedup on `(line ids, byte length)` equals full-text first-seen
    // dedup, so both engines count the same parse-cache hits and misses.
    let mut first_seen: HashMap<&str, u32> = HashMap::new();
    for (ix, text) in history.iter().enumerate() {
        let next = first_seen.len() as u32;
        let slot = *first_seen.entry(text).or_insert(next);
        assert_eq!(replay.slot(ix), slot, "snapshot {ix} dedup slot diverged");
    }
    assert_eq!(replay.n_distinct(), first_seen.len());

    let oracle: Vec<_> = history.iter().map(|t| parse_config(t, dialect).ok()).collect();
    for (ix, parse) in oracle.iter().enumerate() {
        let slot = replay.slot(ix);
        assert_eq!(
            replay.parseable(slot),
            parse.is_some(),
            "snapshot {ix} parseability diverged: {:?}",
            history[ix]
        );
        if let Some(parse) = parse {
            let assembled = engine.state_config(&replay, slot).expect("parseable");
            assert_eq!(&assembled, parse, "snapshot {ix} assembled config diverged");
        }
    }

    // Adjacent parseable pairs, bridging over unparseable snapshots —
    // the exact walk the pipeline's change-record loop performs.
    let mut prev: Option<usize> = None;
    for ix in 0..history.len() {
        if oracle[ix].is_none() {
            continue;
        }
        if let Some(pi) = prev {
            let expected =
                diff_configs(oracle[pi].as_ref().unwrap(), oracle[ix].as_ref().unwrap());
            let got = engine.stanza_changes(&replay, replay.slot(pi), replay.slot(ix));
            assert_eq!(got, expected, "changes {pi} -> {ix} diverged");
        }
        prev = Some(ix);
    }
}

/// Texts plus reverts to earlier states: reverts are where state dedup
/// and empty diffs between distinct snapshots actually fire.
fn with_reverts(texts: Vec<String>, reverts: Vec<usize>) -> Vec<String> {
    let mut history = texts.clone();
    history.extend(reverts.iter().map(|&r| texts[r % texts.len()].clone()));
    history
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn block_histories_match_full_parse_oracle(
        texts in proptest::collection::vec(arb_block_text(), 1..8),
        reverts in proptest::collection::vec(0usize..8, 0..5),
    ) {
        assert_matches_oracle(Dialect::BlockKeyword, &with_reverts(texts, reverts));
    }

    #[test]
    fn brace_histories_match_full_parse_oracle(
        texts in proptest::collection::vec(arb_brace_text(), 1..8),
        reverts in proptest::collection::vec(0usize..8, 0..5),
    ) {
        assert_matches_oracle(Dialect::BraceHierarchy, &with_reverts(texts, reverts));
    }

    #[test]
    fn trailing_newline_only_edits_are_no_ops(
        lines in proptest::collection::vec(arb_block_line(), 1..8),
    ) {
        // "a\nb" and "a\nb\n" are distinct states (different byte length)
        // with identical parses: the engine must keep them in separate
        // dedup slots yet report an empty diff between them.
        let bare = join(lines, false);
        let with_nl = format!("{bare}\n");
        assert_matches_oracle(Dialect::BlockKeyword, &[bare, with_nl]);
    }
}
