//! The process-wide counter registry.
//!
//! Every counter is declared here — one static per counter, all listed in
//! [`ALL`] — and incremented from the crate that owns the instrumented
//! code path. Centralizing the declarations keeps the registry a
//! compile-time constant (no lazy registration, no locks) and makes the
//! full counter surface reviewable in one screen.
//!
//! **Invariance contract:** a counter's total must be a pure function of
//! the work performed, never of how the work was scheduled. Anything that
//! legitimately varies with the worker-thread count belongs in
//! [`crate::sched`], not here. The CLI integration tests compare these
//! totals across `--threads 1/2/8` byte for byte.
//!
//! To add a counter: declare the static, append it to [`ALL`], increment
//! it from the owning crate, and confirm the thread-invariance test still
//! passes (see DESIGN.md §9).

use std::sync::atomic::{AtomicU64, Ordering};

/// A process-wide monotonic event counter (relaxed atomic, label-free).
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Declare a counter. Use only for statics in this module.
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0) }
    }

    /// Add `n` events. Relaxed ordering: totals are read only at
    /// quiescent points (report emission), never used for synchronization.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

// --- archive interning (incremented by mpa-config) -----------------------

/// Distinct config lines stored in archive line tables.
pub static ARCHIVE_LINES_INTERNED: Counter = Counter::new("archive_lines_interned");
/// Intern lookups resolved to an already-stored line.
pub static ARCHIVE_LINE_HITS: Counter = Counter::new("archive_line_hits");
/// Bytes of config text (line + newline) not stored thanks to interning.
pub static ARCHIVE_BYTES_SAVED: Counter = Counter::new("archive_bytes_saved");
/// Line ids rewritten from shard-local to global ids. Only the pairwise
/// `SnapshotArchive::merge` remaps individual delta-stream ids, and only
/// tests call it; the sharded `merge_all` that generation uses allocates
/// ids by offset and rewrites nothing, so production runs report 0.
pub static ARCHIVE_MERGE_REMAPPED_LINES: Counter =
    Counter::new("archive_merge_remapped_lines");
/// Successor cost metric of the sharded merge: interned lines appended to
/// the global table (`SnapshotArchive::merge_all`, phase 1). This is
/// O(distinct lines per shard), versus the O(total delta-stream ids) the
/// old remap phase paid — the ≥10× reduction gated in CI.
pub static ARCHIVE_MERGE_TABLE_LINES: Counter = Counter::new("archive_merge_table_lines");

// --- delta-native generation (incremented by mpa-config / mpa-synth) -----
//
// Invariant checked by the CLI tests in both gen modes:
// `gen_render_cache_hits + gen_render_cache_misses == gen_chunks_rendered`
// (every chunk render consults the per-network render cache exactly once;
// the full-render oracle performs no chunk renders, so all three are zero
// there).

/// Chunk renders performed by the delta-native generator (= render-cache
/// lookups; dirty chunks only, hit or miss).
pub static GEN_CHUNKS_RENDERED: Counter = Counter::new("gen_chunks_rendered");
/// Chunk renders whose text was already interned for this network — the
/// per-line interning work was skipped entirely.
pub static GEN_RENDER_CACHE_HITS: Counter = Counter::new("gen_render_cache_hits");
/// Chunk renders with novel text, split and interned line by line.
pub static GEN_RENDER_CACHE_MISSES: Counter = Counter::new("gen_render_cache_misses");
/// Config lines produced by chunk renders (hit or miss). The delta path's
/// analogue of the full path's per-snapshot line count — compare against
/// `archive_line_hits + archive_lines_interned` under the full-render
/// oracle (`Scenario::generate_full`) for the cost-proportional-to-
/// changed-lines claim.
pub static GEN_LINES_RENDERED: Counter = Counter::new("gen_lines_rendered");
/// Bytes of chunk text produced by the delta-native generator. Compare
/// against the ~1.7 GB the full-render oracle produces at paper scale.
pub static GEN_BYTES_RENDERED: Counter = Counter::new("gen_bytes_rendered");
/// Dirty-chunk splices applied to live device documents (chunk slots
/// inserted, replaced or removed at snapshot-record time).
pub static GEN_SPLICE_OPS: Counter = Counter::new("gen_splice_ops");

// --- inference parse cache (incremented by mpa-metrics) ------------------

/// Snapshots walked by the inference pipeline (= parse-cache lookups).
pub static PARSE_SNAPSHOTS_VISITED: Counter = Counter::new("parse_snapshots_visited");
/// Snapshots whose text was already parsed for the same device.
pub static PARSE_CACHE_HITS: Counter = Counter::new("parse_cache_hits");
/// Snapshots with novel text, parsed and fact-extracted once.
pub static PARSE_CACHE_MISSES: Counter = Counter::new("parse_cache_misses");

// --- delta-native inference (incremented by mpa-config / mpa-metrics) ----

/// Whole-snapshot parses performed by the full-parse oracle
/// (`mpa_metrics::infer_full`); the delta-native path performs none, which
/// is exactly the point.
pub static INFER_FULL_PARSES: Counter = Counter::new("infer_full_parses");
/// Stanzas parsed by the delta-native path: stanzas of segments not
/// already present in the per-network segment cache (novel text only).
pub static INFER_STANZAS_REPARSED: Counter = Counter::new("infer_stanzas_reparsed");
/// Bytes of stanza text the delta-native path actually read and parsed
/// (novel segments only). Compare against the archive's `total_bytes`
/// (Table 2's `config_bytes`) for the cost-proportional-to-changed-bytes
/// claim.
pub static INFER_DELTA_BYTES: Counter = Counter::new("infer_delta_bytes");

// --- parallel execution (incremented by mpa-exec) ------------------------

/// Parallel regions entered (`par_map` + `par_chunk_map` calls, counted
/// before the sequential-fallback check so the total is thread-invariant).
pub static PAR_MAP_REGIONS: Counter = Counter::new("par_map_regions");
/// Work items submitted to parallel regions (input elements, not chunks).
pub static PAR_MAP_TASKS: Counter = Counter::new("par_map_tasks");

// --- discretization (incremented by mpa-metrics and mpa-core) ------------

/// Columns a §5.1.1 binner was fitted to for the analytics (percentile
/// bounds selected). A case table's binned view fits its 28 metrics and its
/// tickets once, so a daemon refresh counts 29; online prediction's encoder
/// fits 28 per month slice.
pub static BINNER_FITS: Counter = Counter::new("binner_fits");

// --- causal matching (incremented by mpa-core) ---------------------------

/// Neighbouring-bin comparisons attempted.
pub static CAUSAL_COMPARISONS: Counter = Counter::new("causal_comparisons");
/// Cases discarded for falling outside the common support.
pub static CAUSAL_SUPPORT_DROPS: Counter = Counter::new("causal_support_drops");
/// Treated cases dropped because no neighbour fell within the caliper.
pub static CAUSAL_CALIPER_DROPS: Counter = Counter::new("causal_caliper_drops");
/// Matched pairs formed across all comparisons.
pub static CAUSAL_MATCHED_PAIRS: Counter = Counter::new("causal_matched_pairs");

// --- degradation accounting (incremented by mpa-synth) -------------------
//
// Invariants checked by the CLI tests: `degrade_snapshots_kept +
// degrade_snapshots_dropped == degrade_snapshots_generated`, and the final
// ticket count equals `degrade_tickets_generated +
// degrade_tickets_duplicated`. All are summed from per-network stats on
// the (deterministic, network-ordered) merge pass, so they are
// thread-invariant like every other counter here.

/// Snapshots produced by the pristine simulation before degradation.
pub static DEGRADE_SNAPSHOTS_GENERATED: Counter =
    Counter::new("degrade_snapshots_generated");
/// Snapshots lost to missing windows, truncated histories or post-reorder
/// dedup.
pub static DEGRADE_SNAPSHOTS_DROPPED: Counter = Counter::new("degrade_snapshots_dropped");
/// Snapshots surviving into the degraded archive.
pub static DEGRADE_SNAPSHOTS_KEPT: Counter = Counter::new("degrade_snapshots_kept");
/// Adjacent snapshot pairs whose timestamps were swapped (clock skew).
pub static DEGRADE_SNAPSHOTS_REORDERED: Counter =
    Counter::new("degrade_snapshots_reordered");
/// Snapshot logins replaced with a shared account unknown to the
/// user directory.
pub static DEGRADE_LOGINS_AMBIGUATED: Counter = Counter::new("degrade_logins_ambiguated");
/// Tickets produced by the pristine simulation before degradation.
pub static DEGRADE_TICKETS_GENERATED: Counter = Counter::new("degrade_tickets_generated");
/// Duplicate ticket records appended by the degradation pass.
pub static DEGRADE_TICKETS_DUPLICATED: Counter = Counter::new("degrade_tickets_duplicated");
/// Ticket records corrupted in place (resolution cleared, symptom
/// replaced, possibly re-timestamped outside the study period).
pub static DEGRADE_TICKETS_CORRUPTED: Counter = Counter::new("degrade_tickets_corrupted");

// --- graceful inference (incremented by mpa-metrics) ----------------------

/// Device-history gaps (> ~45 days between successive snapshots) the
/// inference walk spanned without error. Gaps occur in pristine corpora
/// too (quiet devices, unlogged months), so this counts *gaps spanned*,
/// not degradations detected; it is identical across infer modes.
pub static INFER_GAPS_SPANNED: Counter = Counter::new("infer_gaps_spanned");

// --- serve daemon (incremented by mpa-serve / mpa-core session) ----------

/// HTTP requests the serve daemon accepted for dispatch (any method/path).
pub static SERVE_REQUESTS: Counter = Counter::new("serve_requests");
/// Responses sent with a 2xx status.
pub static SERVE_RESPONSES_2XX: Counter = Counter::new("serve_responses_2xx");
/// Responses sent with a 4xx status (malformed or unknown requests).
pub static SERVE_RESPONSES_4XX: Counter = Counter::new("serve_responses_4xx");
/// Responses sent with a 5xx status (should stay zero; any increment is a
/// daemon bug worth a look).
pub static SERVE_RESPONSES_5XX: Counter = Counter::new("serve_responses_5xx");
/// Snapshot events applied by accepted `/ingest` batches.
pub static SERVE_INGEST_SNAPSHOTS: Counter = Counter::new("serve_ingest_snapshots");
/// Ticket events applied by accepted `/ingest` batches.
pub static SERVE_INGEST_TICKETS: Counter = Counter::new("serve_ingest_tickets");
/// Ingest batches rejected by validation (the session was left untouched).
pub static SERVE_INGEST_REJECTED: Counter = Counter::new("serve_ingest_rejected");
/// Networks incrementally re-inferred after accepted ingest batches.
pub static SERVE_NETWORKS_REINFERRED: Counter = Counter::new("serve_networks_reinferred");

// --- learning (incremented by mpa-learn) ---------------------------------

/// AdaBoost rounds executed (trees fitted inside the boosting loop).
pub static BOOST_ROUNDS: Counter = Counter::new("boost_rounds");
/// Boosting runs that stopped before their configured iteration budget.
pub static BOOST_EARLY_STOPS: Counter = Counter::new("boost_early_stops");
/// Rows visited by the decision-tree split search, times the candidate
/// features each visit updates: the work unit of learning.
pub static LEARN_SPLIT_ROWS: Counter = Counter::new("learn_split_rows");

/// Every registered counter, in report order.
pub static ALL: &[&Counter] = &[
    &ARCHIVE_LINES_INTERNED,
    &ARCHIVE_LINE_HITS,
    &ARCHIVE_BYTES_SAVED,
    &ARCHIVE_MERGE_REMAPPED_LINES,
    &ARCHIVE_MERGE_TABLE_LINES,
    &GEN_CHUNKS_RENDERED,
    &GEN_RENDER_CACHE_HITS,
    &GEN_RENDER_CACHE_MISSES,
    &GEN_LINES_RENDERED,
    &GEN_BYTES_RENDERED,
    &GEN_SPLICE_OPS,
    &PARSE_SNAPSHOTS_VISITED,
    &PARSE_CACHE_HITS,
    &PARSE_CACHE_MISSES,
    &INFER_FULL_PARSES,
    &INFER_STANZAS_REPARSED,
    &INFER_DELTA_BYTES,
    &PAR_MAP_REGIONS,
    &PAR_MAP_TASKS,
    &BINNER_FITS,
    &CAUSAL_COMPARISONS,
    &CAUSAL_SUPPORT_DROPS,
    &CAUSAL_CALIPER_DROPS,
    &CAUSAL_MATCHED_PAIRS,
    &DEGRADE_SNAPSHOTS_GENERATED,
    &DEGRADE_SNAPSHOTS_DROPPED,
    &DEGRADE_SNAPSHOTS_KEPT,
    &DEGRADE_SNAPSHOTS_REORDERED,
    &DEGRADE_LOGINS_AMBIGUATED,
    &DEGRADE_TICKETS_GENERATED,
    &DEGRADE_TICKETS_DUPLICATED,
    &DEGRADE_TICKETS_CORRUPTED,
    &INFER_GAPS_SPANNED,
    &SERVE_REQUESTS,
    &SERVE_RESPONSES_2XX,
    &SERVE_RESPONSES_4XX,
    &SERVE_RESPONSES_5XX,
    &SERVE_INGEST_SNAPSHOTS,
    &SERVE_INGEST_TICKETS,
    &SERVE_INGEST_REJECTED,
    &SERVE_NETWORKS_REINFERRED,
    &BOOST_ROUNDS,
    &BOOST_EARLY_STOPS,
    &LEARN_SPLIT_ROWS,
];

/// Snapshot every registered counter as `(name, total)` in report order.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    ALL.iter().map(|c| (c.name(), c.get())).collect()
}

/// Pairwise difference of two snapshots taken around a region of work
/// (`after - before`, saturating). Panics if the snapshots come from
/// different registry versions.
pub fn snapshot_diff(
    before: &[(&'static str, u64)],
    after: &[(&'static str, u64)],
) -> Vec<(&'static str, u64)> {
    assert_eq!(before.len(), after.len(), "snapshots from different registries");
    before
        .iter()
        .zip(after)
        .map(|(&(bn, bv), &(an, av))| {
            assert_eq!(bn, an, "snapshots from different registries");
            (an, av.saturating_sub(bv))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let mut names: Vec<&str> = ALL.iter().map(|c| c.name()).collect();
        assert!(names.iter().all(|n| !n.is_empty()));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate counter name registered");
    }

    #[test]
    fn add_and_snapshot_diff() {
        let before = snapshot();
        PARSE_CACHE_HITS.add(3);
        PARSE_CACHE_HITS.incr();
        let after = snapshot();
        let diff = snapshot_diff(&before, &after);
        let hits = diff.iter().find(|(n, _)| *n == "parse_cache_hits").unwrap();
        // Other tests in this process may also touch the counter, so the
        // delta is at least what this test added.
        assert!(hits.1 >= 4, "expected >= 4 hits, saw {}", hits.1);
    }
}
