//! Work counters of the two oracles: the full-parse inference oracle
//! (`mpa_metrics::infer_full`) and the full-render generation oracle
//! (`Scenario::generate_full`). The counters are process-wide, so this
//! file holds a single test: no test running beside it can tick them
//! between the snapshots.

use mpa::metrics::{infer_full, DELTA_DEFAULT_MINUTES};
use mpa::prelude::*;
use mpa_obs::counters::{snapshot, snapshot_diff};

/// Counter deltas while `f` runs, looked up by name.
fn ticks<T>(f: impl FnOnce() -> T) -> (T, impl Fn(&str) -> u64) {
    let before = snapshot();
    let out = f();
    let diff = snapshot_diff(&before, &snapshot());
    let get = move |name: &str| {
        diff.iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no counter {name:?}"))
            .1
    };
    (out, get)
}

#[test]
fn oracles_balance_their_caches_and_skip_the_delta_counters() {
    // The full-render generator renders whole documents: no chunk cache,
    // no splices, so every gen_* counter stays untouched.
    let (dataset, generated) = ticks(|| Scenario::tiny().generate_full());
    for name in [
        "gen_chunks_rendered",
        "gen_render_cache_hits",
        "gen_render_cache_misses",
        "gen_lines_rendered",
        "gen_bytes_rendered",
        "gen_splice_ops",
    ] {
        assert_eq!(generated(name), 0, "the full-render oracle ticked {name}");
    }

    // The full-parse oracle accounts every visited snapshot as a parse-cache
    // hit or miss, and counts each distinct snapshot it parsed whole.
    let (_, inferred) = ticks(|| infer_full(&dataset, DELTA_DEFAULT_MINUTES));
    let visited = inferred("parse_snapshots_visited");
    let hits = inferred("parse_cache_hits");
    let misses = inferred("parse_cache_misses");
    assert!(visited > 0, "the oracle visited no snapshots");
    assert_eq!(hits + misses, visited, "cache accounting leak: {hits} + {misses} != {visited}");
    assert_eq!(inferred("infer_full_parses"), misses, "one full parse per distinct snapshot");
    assert!(misses > 0, "the oracle must count its full parses");
}
