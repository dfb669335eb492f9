//! The rule catalog: what the determinism contract forbids, and where each
//! prohibition does not apply.
//!
//! Every rule is a line/token-level pattern over *sanitized* source text
//! (comments and string/char literals blanked out by [`crate::scan`]), so a
//! rule name appearing in documentation or in a string constant never
//! fires. Allowlists are path prefixes relative to the workspace root: the
//! few crates whose *job* is timing or scheduling (`mpa-obs`, `mpa-exec`,
//! and `mpa-serve` for its socket deadlines) may legitimately touch wall
//! clocks and thread identity, and
//! CLI binaries under `src/bin/` own argument/environment handling. Any
//! site outside an allowlist needs an inline waiver with a written
//! justification (see [`crate::scan`] for the waiver grammar).

/// A determinism-contract rule enforced by the scanner.
///
/// The two pseudo-rules `W1` (rejected waiver) and `W2` (unused waiver) are
/// emitted by the waiver machinery itself and are not listed here — they
/// can never be waived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Float comparisons finished with `unwrap`/`expect`: a single NaN
    /// panics the pipeline mid-phase. Use `f64::total_cmp`, which is a
    /// total order (NaN sorts last) and byte-identical to `partial_cmp`
    /// on the NaN-free data the pipeline produces.
    R1,
    /// Iterating a `HashMap`/`HashSet`: iteration order is randomized per
    /// process, so any order that escapes into output (or into float
    /// accumulation order) breaks run-to-run determinism. Iterate a
    /// `BTreeMap`/sorted keys instead, or waive genuinely
    /// order-insensitive reductions.
    R2,
    /// Wall-clock reads (`Instant::now`, `SystemTime`) in pipeline logic:
    /// timing may be *observed* (spans, benches) but must never influence
    /// results.
    R3,
    /// Thread-dependent values (`thread::current().id()`,
    /// `available_parallelism`): anything derived from them varies with
    /// `--threads`, violating the 1/2/8-thread invariance suite.
    R4,
    /// `unsafe` outside the two crates audited for it (the workspace
    /// denies `unsafe_code` everywhere; this is the backstop should that
    /// lint ever be locally overridden).
    R5,
    /// Environment reads (`env::var`) in pipeline logic: results must be a
    /// function of explicit inputs, not of ambient process state. CLI
    /// binaries own flag/environment handling.
    R6,
    /// Panic-safety: `unwrap`/`expect`/`panic!`/`unreachable!`/unchecked
    /// `[…]` indexing in a function *reachable* from a declared panic-free
    /// root (`audit_roots.txt`) — serve's request dispatch and the
    /// per-snapshot replay/render loops. Reachability, not path, decides.
    R7,
    /// Allocation-in-hot-path: `to_string`/`format!`/`Vec::new`/`clone()`
    /// in a function reachable from the R8 roots in `audit_roots.txt`: the
    /// `DeltaCursor::advance` replay step and the `RenderCache::slot_for`
    /// render lookup, inner loops kept allocation-free.
    R8,
    /// Lock-discipline in `crates/serve`: a `Mutex`/`RwLock` guard
    /// lexically held across an I/O call or across a second lock
    /// acquisition — the daemon's deadlock/latency hazard class.
    R9,
    /// Dead counter: an `mpa-obs` `Counter` declared in the registry but
    /// never incremented anywhere in the workspace.
    R10,
}

impl Rule {
    /// Every enforced rule, in report order.
    pub const ALL: [Rule; 10] = [
        Rule::R1,
        Rule::R2,
        Rule::R3,
        Rule::R4,
        Rule::R5,
        Rule::R6,
        Rule::R7,
        Rule::R8,
        Rule::R9,
        Rule::R10,
    ];

    /// True for the reachability-sensitive rules (R7–R10) that only the
    /// graph-mode audit evaluates; the flat line scan never fires them, so
    /// it must not flag their waivers as unused either.
    pub fn needs_graph(self) -> bool {
        matches!(self, Rule::R7 | Rule::R8 | Rule::R9 | Rule::R10)
    }

    /// Short id as written in findings and waivers (`"R1"`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::R6 => "R6",
            Rule::R7 => "R7",
            Rule::R8 => "R8",
            Rule::R9 => "R9",
            Rule::R10 => "R10",
        }
    }

    /// Human-readable slug used in reports.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::R1 => "float-total-order",
            Rule::R2 => "hash-iteration-order",
            Rule::R3 => "wall-clock-in-logic",
            Rule::R4 => "thread-dependent-value",
            Rule::R5 => "unsafe-outside-allowlist",
            Rule::R6 => "env-in-pipeline",
            Rule::R7 => "panic-in-reachable-path",
            Rule::R8 => "alloc-in-hot-path",
            Rule::R9 => "lock-across-io",
            Rule::R10 => "dead-counter",
        }
    }

    /// One-line statement of the hazard, shown next to findings.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::R1 => "float comparison unwraps partial_cmp; NaN panics — use f64::total_cmp",
            Rule::R2 => "HashMap/HashSet iteration order can escape into output",
            Rule::R3 => "wall-clock read in pipeline logic",
            Rule::R4 => "thread-dependent value in pipeline logic",
            Rule::R5 => "unsafe code outside the audited crates",
            Rule::R6 => "environment read in pipeline logic",
            Rule::R7 => "panic site reachable from a declared panic-free root",
            Rule::R8 => "allocation in a function reachable from a hot inner loop",
            Rule::R9 => "lock guard held across I/O or a second lock acquisition",
            Rule::R10 => "obs counter declared but never incremented",
        }
    }

    /// Parse a rule id from a waiver's `allow(...)` list (case-insensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim().to_ascii_uppercase().as_str() {
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "R3" => Some(Rule::R3),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
            "R6" => Some(Rule::R6),
            "R7" => Some(Rule::R7),
            "R8" => Some(Rule::R8),
            "R9" => Some(Rule::R9),
            "R10" => Some(Rule::R10),
            _ => None,
        }
    }

    /// Whether the rule is suspended for the file at workspace-relative
    /// path `rel` (forward slashes). See the module docs for the rationale
    /// behind each allowlist.
    pub fn allowed_path(self, rel: &str) -> bool {
        let under = |prefixes: &[&str]| prefixes.iter().any(|p| rel.starts_with(p));
        match self {
            // Float order and hash order are never excusable by location.
            Rule::R1 | Rule::R2 => false,
            // obs spans, exec scheduling stats and the serve daemon
            // (request latency, idle deadlines, socket timeouts) are the
            // sanctioned consumers of wall clocks.
            Rule::R3 => under(&["crates/obs/", "crates/exec/", "crates/serve/"]),
            // Scheduling stats (exec) and their reporting (obs) are
            // quarantined by design; see DESIGN.md §9.
            Rule::R4 | Rule::R5 => under(&["crates/obs/", "crates/exec/"]),
            // CLI binaries own argument and environment handling.
            Rule::R6 => rel.contains("/bin/"),
            // The audit families are not path-gated: R7/R8 are scoped by
            // call-graph reachability, R9 by the serve crate, R10 by the
            // counter registry. `allowed_path` never suspends them.
            Rule::R7 | Rule::R8 | Rule::R9 | Rule::R10 => false,
        }
    }
}

/// True when `hay` contains `word` delimited by non-identifier characters.
pub(crate) fn contains_word(hay: &str, word: &str) -> bool {
    find_word_from(hay, word, 0).is_some()
}

/// First occurrence of `word` at or after `from` with identifier
/// boundaries on both sides.
pub(crate) fn find_word_from(hay: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = hay.as_bytes();
    let mut start = from;
    while let Some(pos) = hay.get(start..).and_then(|h| h.find(word)).map(|p| p + start) {
        let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
        let after = pos + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return Some(pos);
        }
        start = pos + 1;
    }
    None
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_parse() {
        for r in Rule::ALL {
            assert_eq!(Rule::parse(r.id()), Some(r));
            assert_eq!(Rule::parse(&r.id().to_ascii_lowercase()), Some(r));
        }
        assert_eq!(Rule::parse("R11"), None);
        assert_eq!(Rule::parse(""), None);
    }

    #[test]
    fn allowlists_cover_the_sanctioned_crates() {
        assert!(Rule::R3.allowed_path("crates/obs/src/span.rs"));
        assert!(!Rule::R3.allowed_path("crates/bench/src/bin/repro.rs"));
        assert!(Rule::R3.allowed_path("crates/exec/src/lib.rs"));
        assert!(Rule::R3.allowed_path("crates/serve/src/server.rs"));
        assert!(!Rule::R3.allowed_path("crates/core/src/causal.rs"));
        assert!(!Rule::R4.allowed_path("crates/serve/src/server.rs"));
        assert!(Rule::R4.allowed_path("crates/exec/src/lib.rs"));
        assert!(!Rule::R4.allowed_path("crates/bench/src/bin/repro.rs"));
        assert!(Rule::R6.allowed_path("crates/core/src/bin/mpa-cli.rs"));
        assert!(!Rule::R6.allowed_path("crates/exec/src/lib.rs"));
        assert!(!Rule::R1.allowed_path("crates/obs/src/span.rs"));
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(contains_word("let x = unsafe { 1 };", "unsafe"));
        assert!(!contains_word("fn unsafe_rule() {}", "unsafe"));
        assert!(!contains_word("let unsafely = 1;", "unsafe"));
        assert_eq!(find_word_from("a in b, x in ab", "in", 5), Some(10));
    }
}
