//! Decoder robustness: a damaged hand-off file must decode to `Ok` or
//! `Err`, never panic. Each case cuts a serialized tiny [`Dataset`] or a
//! small ingest batch at a random byte, overwrites one byte, or inserts
//! one, and decodes the result with `serde_json::from_str`. The replacement
//! bytes are JSON punctuation, digits and literal letters, so the damage
//! steers the decoder into its error paths rather than into string bodies
//! only. A dataset whose line ids run past its archive's line table must
//! fail to decode, since inference would index the table with them, and
//! so must a case table with a row short of the 28 metric values, since
//! every analytic indexes a row by metric.

use mpa::analytics::IngestBatch;
use mpa::metrics::Case;
use mpa::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

const DAMAGE: &[u8] = b"\"\\[]{},:-+.eE0129ntfu /";

/// The serialized tiny dataset and an ingest batch drawn from it: the tip
/// snapshot of one device and two tickets.
fn corpus() -> &'static (String, String) {
    static CORPUS: OnceLock<(String, String)> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let ds = Scenario::tiny().generate();
        let dev = ds.networks[0].devices[0].id;
        let last = ds.archive.device_metas(dev).last().expect("device has snapshots").time;
        let batch = IngestBatch {
            snapshots: vec![ds.archive.latest_at(dev, last).expect("tip snapshot")],
            tickets: ds.tickets[..2].to_vec(),
        };
        let ds_json = serde_json::to_string(&ds).expect("dataset serializes");
        (ds_json, serde_json::to_string(&batch).expect("batch serializes"))
    })
}

/// `text` cut at `at` (kind 0), with the byte at `at` overwritten (kind 1)
/// or with a byte inserted there (kind 2); `None` when the damage splits a
/// multi-byte character, which `from_str` cannot be handed.
fn damage(text: &str, kind: u8, at: usize, byte: u8) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    let at = at % bytes.len();
    match kind {
        0 => bytes.truncate(at),
        1 => bytes[at] = byte,
        _ => bytes.insert(at, byte),
    }
    String::from_utf8(bytes).ok()
}

/// Decode one damaged copy with `decodes` (true on `Ok`); a cut copy is
/// never a whole document.
fn check(text: &str, kind: u8, at: usize, byte: usize, decodes: fn(&str) -> bool) {
    if let Some(damaged) = damage(text, kind, at, DAMAGE[byte]) {
        let decoded = decodes(&damaged);
        assert!(kind != 0 || !decoded, "a cut copy decoded");
    }
}

/// The first stored line id, replaced by one past the table, is a decode
/// error at a byte offset after the damage.
#[test]
fn line_ids_past_the_table_fail_to_decode() {
    let text = &corpus().0;
    let at = text.find("\"base\":[").expect("an archived history") + "\"base\":[".len();
    let end = at + text[at..].find([',', ']']).expect("a closed id list");
    let damaged = format!("{}4000000000{}", &text[..at], &text[end..]);
    let Err(err) = serde_json::from_str::<Dataset>(&damaged) else {
        panic!("an id past the table decoded");
    };
    assert!(err.to_string().contains("past the"), "{err}");
    assert!(err.offset() > at && err.offset() <= damaged.len(), "{err}");
}

/// A case table whose fourth row carries 5 of its 28 values is a decode
/// error that names the row, not a table the analytics index past.
#[test]
fn short_case_rows_fail_to_decode() {
    let table = infer_case_table(&Scenario::tiny().generate());
    let wire = |cases: &[Case]| {
        format!("{{\"cases\":{}}}", serde_json::to_string(cases).expect("serializes"))
    };
    assert_eq!(wire(table.cases()), serde_json::to_string(&table).expect("serializes"));
    let mut cases = table.cases().to_vec();
    cases[3].values.truncate(5);
    let Err(err) = serde_json::from_str::<CaseTable>(&wire(&cases)) else {
        panic!("a short row decoded");
    };
    assert!(err.to_string().contains("row 3"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_datasets_decode_or_fail_cleanly(
        kind in 0u8..3,
        at in 0usize..usize::MAX,
        byte in 0usize..DAMAGE.len(),
    ) {
        check(&corpus().0, kind, at, byte, |s| serde_json::from_str::<Dataset>(s).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn damaged_ingest_batches_decode_or_fail_cleanly(
        kind in 0u8..3,
        at in 0usize..usize::MAX,
        byte in 0usize..DAMAGE.len(),
    ) {
        check(&corpus().1, kind, at, byte, |s| serde_json::from_str::<IngestBatch>(s).is_ok());
    }
}
