//! Property-based tests for the delta-encoded archive and the naming
//! helpers: delta apply/revert must be exact inverses on arbitrary line
//! sequences, arbitrary snapshot sequences must reconstruct bit-for-bit,
//! and interface names must round-trip through both dialects' renderers.

use mpa_config::render::{interface_name, parse_interface_name};
use mpa_config::snapshot::{Login, Snapshot, SnapshotMeta};
use mpa_config::{LineDelta, LineId, SnapshotArchive};
use mpa_model::device::Dialect;
use mpa_model::{DeviceId, Timestamp};
use proptest::prelude::*;

/// Arbitrary line-id sequences (small alphabet so prefixes/suffixes collide
/// often — the interesting regime for hunk trimming).
fn arb_ids() -> impl Strategy<Value = Vec<LineId>> {
    proptest::collection::vec((0u32..12).prop_map(LineId), 0..24)
}

/// Arbitrary snapshot texts from a small line alphabet, with and without a
/// trailing newline, including empty texts and blank interior lines.
fn arb_text() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        Just(String::new()),
        (0u8..8).prop_map(|i| format!("line {i}")),
        (0u8..8).prop_map(|i| format!(" indented {i}")),
    ];
    (proptest::collection::vec(line, 0..10), any::<bool>()).prop_map(|(lines, trail)| {
        let mut t = lines.join("\n");
        if trail && !t.is_empty() {
            t.push('\n');
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delta_apply_then_revert_is_identity(old in arb_ids(), new in arb_ids()) {
        let d = LineDelta::between(&old, &new);
        let mut cur = old.clone();
        d.apply(&mut cur);
        prop_assert_eq!(&cur, &new, "apply must produce the target sequence");
        d.revert(&mut cur);
        prop_assert_eq!(&cur, &old, "revert must restore the source sequence");
    }

    #[test]
    fn delta_between_identical_sequences_is_empty(ids in arb_ids()) {
        prop_assert!(LineDelta::between(&ids, &ids).is_empty());
    }

    #[test]
    fn archive_reconstructs_arbitrary_texts_exactly(
        texts in proptest::collection::vec(arb_text(), 1..12),
    ) {
        let mut archive = SnapshotArchive::new();
        for (i, text) in texts.iter().enumerate() {
            archive.push(Snapshot {
                meta: SnapshotMeta {
                    device: DeviceId(1),
                    time: Timestamp(i as u64),
                    login: Login::new("p"),
                },
                text: text.clone(),
            }).unwrap();
        }
        let back = archive.device_texts(DeviceId(1));
        prop_assert_eq!(&back, &texts, "bit-for-bit reconstruction");
        // And the random-access path agrees with the replay path.
        for (i, text) in texts.iter().enumerate() {
            let snap = archive.latest_at(DeviceId(1), Timestamp(i as u64)).unwrap();
            prop_assert_eq!(&snap.text, text);
        }
        prop_assert_eq!(archive.total_bytes(), texts.iter().map(String::len).sum::<usize>());
    }

    #[test]
    fn interface_name_round_trips_in_both_dialects(port in 0u16..u16::MAX) {
        for dialect in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
            let name = interface_name(dialect, port);
            prop_assert_eq!(
                parse_interface_name(&name),
                Some(port),
                "{:?}: {}",
                dialect,
                name
            );
        }
    }
}
