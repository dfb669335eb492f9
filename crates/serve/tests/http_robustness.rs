//! HTTP parser robustness: whatever bytes a peer sends, `read_request`
//! returns `Ok` or a typed `ReadError`, never panics, and every `Bad`
//! status is one the daemon answers with: 400, 408, 413, 431, 501 or 505.
//! Inputs are arbitrary byte strings, a valid request line followed by
//! arbitrary bytes, and copies of valid GET and POST requests that are cut
//! at a random byte, have one byte overwritten, or have one inserted. The
//! replacement bytes are the request grammar's punctuation, digits and
//! letters, so the damage steers the parser into its error paths.

use mpa_serve::http::{read_request, ReadError, MAX_HEADER_LINE};
use proptest::prelude::*;
use std::io::BufReader;

const STATUSES: [u16; 6] = [400, 408, 413, 431, 501, 505];
const DAMAGE: &[u8] = b" \t\r\n:?&=/-0129aHTPk.\x00\xc3\xff";

/// Valid requests: GETs at both versions, an ingest POST with a body, a
/// header line at the length cap and a chunked POST the parser refuses.
fn valid() -> Vec<Vec<u8>> {
    let body = r#"{"snapshots":[],"tickets":[]}"#;
    let pad = "a".repeat(MAX_HEADER_LINE - "X-Pad: \r".len());
    vec![
        b"GET /predict?network=3&month=2 HTTP/1.1\r\nHost: localhost\r\n\r\n".to_vec(),
        b"GET /rankings/mi HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_vec(),
        format!("POST /ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
            .into_bytes(),
        format!("GET /healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n").into_bytes(),
        b"POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
    ]
}

/// Parse `bytes` as one request; `true` when it is accepted.
fn parses(bytes: &[u8]) -> bool {
    match read_request(&mut BufReader::new(bytes)) {
        Ok(_) => true,
        Err(ReadError::Bad { status, reason }) => {
            assert!(STATUSES.contains(&status), "status {status} ({reason})");
            false
        }
        Err(ReadError::Closed | ReadError::Idle | ReadError::Io(_)) => false,
    }
}

#[test]
fn valid_requests_parse() {
    let accepted: Vec<bool> = valid().iter().map(|r| parses(r)).collect();
    assert_eq!(accepted, [true, true, true, true, false]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_or_fail_cleanly(
        bytes in proptest::collection::vec(0u8..=255, 0..600),
        after_request_line in any::<bool>(),
    ) {
        let mut input = Vec::new();
        if after_request_line {
            input.extend_from_slice(b"POST /ingest HTTP/1.1\r\n");
        }
        input.extend_from_slice(&bytes);
        parses(&input);
    }

    #[test]
    fn damaged_requests_parse_or_fail_cleanly(
        which in 0usize..5,
        kind in 0u8..3,
        at in 0usize..usize::MAX,
        byte in 0usize..DAMAGE.len(),
    ) {
        let mut bytes = valid().swap_remove(which);
        let at = at % bytes.len();
        match kind {
            0 => bytes.truncate(at),
            1 => bytes[at] = DAMAGE[byte],
            _ => bytes.insert(at, DAMAGE[byte]),
        }
        let accepted = parses(&bytes);
        let text = String::from_utf8_lossy(&bytes);
        prop_assert!(kind != 0 || !accepted, "a cut request parsed: {text:?}");
    }
}
