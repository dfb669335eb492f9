//! Source sanitization, waiver parsing, per-file rule matching and the
//! workspace walk.
//!
//! The scanner is deliberately a line/token-level pass, not a parser: each
//! line is first *sanitized* — comments and string/char literals replaced
//! by spaces, with block comments, multi-line strings and raw strings
//! tracked across lines — and the rules then match plain substrings and
//! identifier-bounded words against the sanitized text. That keeps the
//! whole tool std-only and fast (one pass over ~100 files) while making
//! documentation, log messages and test fixtures-in-strings invisible to
//! the rules.
//!
//! # Waivers
//!
//! A finding is suppressed by an inline comment of the form
//!
//! ```text
//! // mpa-lint: allow(R4) -- why this site is genuinely harmless
//! ```
//!
//! either on the offending line itself or on the line directly above it.
//! The rule list may name several rules (`allow(R3, R4)`). The `--`
//! justification is mandatory and must be non-empty: a waiver without one
//! is *rejected* (pseudo-rule `W1`) and suppresses nothing, and a waiver
//! that suppresses no finding is itself flagged (`W2`) so stale waivers
//! cannot accumulate. Waivers are parsed only from the trailing `//`
//! line-comment portion of a line (as located by the sanitizer), so the
//! marker inside a string literal is just data — and only in plain `//`
//! comments: doc comments (`///`, `//!`) are documentation and never
//! waive anything, which is also what lets this very paragraph show the
//! syntax.

use crate::report::Finding;
use crate::rules::{contains_word, find_word_from, is_ident_byte, Rule};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Result of scanning one file.
#[derive(Debug)]
pub struct FileScan {
    /// Workspace-relative path the scan was invoked with.
    pub rel_path: String,
    /// Number of source lines in the file.
    pub lines: usize,
    /// All findings, waived ones included, in line order.
    pub findings: Vec<Finding>,
}

// --- sanitizer -----------------------------------------------------------

/// Lexer state carried across lines.
pub(crate) enum Strip {
    /// Plain code.
    Code,
    /// Inside a block comment, at the given nesting depth.
    Block(u32),
    /// Inside a `"…"` string literal (possibly spanning lines).
    Str,
    /// Inside a raw string with the given number of `#` guards.
    RawStr(usize),
}

/// Blank out comments and literals from one line, advancing the cross-line
/// lexer state. Stripped characters become spaces so that byte positions
/// within the line are preserved for the matchers. The second element is
/// the byte offset of a trailing `//` line comment, when the line has one
/// in code position (not inside a literal or block comment) — the only
/// place a waiver may live.
pub(crate) fn sanitize_line(state: &mut Strip, line: &str) -> (String, Option<usize>) {
    let chars: Vec<char> = line.chars().collect();
    let mut out = String::with_capacity(line.len());
    let mut comment_start = None;
    let mut i = 0;
    while i < chars.len() {
        match state {
            Strip::Block(depth) => {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    *depth -= 1;
                    if *depth == 0 {
                        *state = Strip::Code;
                    }
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    *depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Strip::Str => {
                if chars[i] == '\\' {
                    out.push_str(if i + 1 < chars.len() { "  " } else { " " });
                    i += 2;
                } else if chars[i] == '"' {
                    *state = Strip::Code;
                    out.push(' ');
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Strip::RawStr(hashes) => {
                let h = *hashes;
                if chars[i] == '"' && (i + 1..=i + h).all(|k| chars.get(k) == Some(&'#')) {
                    *state = Strip::Code;
                    for _ in 0..=h {
                        out.push(' ');
                    }
                    i += 1 + h;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Strip::Code => {
                let c = chars[i];
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    // Line comment: the rest of the line is invisible to
                    // the rules, but its byte offset is where the waiver
                    // parser is allowed to look.
                    comment_start = Some(chars[..i].iter().map(|c| c.len_utf8()).sum());
                    break;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    *state = Strip::Block(1);
                    out.push_str("  ");
                    i += 2;
                    continue;
                }
                // Raw / byte string openers: r"…", r#"…"#, br"…", b"…".
                let prev_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                if (c == 'r' || c == 'b') && !prev_ident {
                    let r_at = if c == 'b' && chars.get(i + 1) == Some(&'r') { i + 1 } else { i };
                    if chars.get(r_at) == Some(&'r') {
                        let mut k = r_at + 1;
                        while chars.get(k) == Some(&'#') {
                            k += 1;
                        }
                        if chars.get(k) == Some(&'"') {
                            *state = Strip::RawStr(k - r_at - 1);
                            for _ in i..=k {
                                out.push(' ');
                            }
                            i = k + 1;
                            continue;
                        }
                    }
                    if c == 'b' && chars.get(i + 1) == Some(&'"') {
                        *state = Strip::Str;
                        out.push_str("  ");
                        i += 2;
                        continue;
                    }
                }
                if c == '"' {
                    *state = Strip::Str;
                    out.push(' ');
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    if chars.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: blank through the closing quote.
                        let mut k = i + 2;
                        if matches!(chars.get(k), Some('\\') | Some('\'')) {
                            k += 1;
                        }
                        while k < chars.len() && chars[k] != '\'' {
                            k += 1;
                        }
                        let end = k.min(chars.len().saturating_sub(1));
                        for _ in i..=end {
                            out.push(' ');
                        }
                        i = k + 1;
                        continue;
                    }
                    if chars.get(i + 2) == Some(&'\'') {
                        // Plain one-character literal 'x'.
                        out.push_str("   ");
                        i += 3;
                        continue;
                    }
                    // Lifetime: blank the quote, keep going.
                    out.push(' ');
                    i += 1;
                    continue;
                }
                out.push(c);
                i += 1;
            }
        }
    }
    (out, comment_start)
}

// --- waivers -------------------------------------------------------------

/// The waiver marker, assembled from pieces so the scanner's own source
/// never contains the contiguous token and cannot waive itself.
const MARKER: &str = concat!("mpa-", "lint: allow(");

pub(crate) struct Waiver {
    /// 1-based line the waiver comment sits on.
    pub(crate) line: usize,
    pub(crate) rules: Vec<Rule>,
    pub(crate) justification: String,
    /// Why the waiver is invalid, if it is. Rejected waivers suppress
    /// nothing.
    pub(crate) rejected: Option<String>,
    pub(crate) used: bool,
}

/// Parse a waiver from the trailing `//` comment of a line. `comment` is
/// the raw text from the `//` onward, as located by the sanitizer — so a
/// marker inside a string literal or block comment never reaches here.
fn parse_waiver(line_no: usize, comment: &str) -> Option<Waiver> {
    if comment.starts_with("///") || comment.starts_with("//!") {
        return None;
    }
    let start = comment.find(MARKER)?;
    let rest = &comment[start + MARKER.len()..];
    let mut w = Waiver {
        line: line_no,
        rules: Vec::new(),
        justification: String::new(),
        rejected: None,
        used: false,
    };
    let Some(close) = rest.find(')') else {
        w.rejected = Some("unterminated rule list".to_string());
        return Some(w);
    };
    for part in rest[..close].split(',') {
        match Rule::parse(part) {
            Some(r) => w.rules.push(r),
            None => {
                w.rejected = Some(format!("unknown rule `{}`", part.trim()));
                return Some(w);
            }
        }
    }
    if w.rules.is_empty() {
        w.rejected = Some("empty rule list".to_string());
        return Some(w);
    }
    match rest[close + 1..].trim_start().strip_prefix("--") {
        Some(j) if !j.trim().is_empty() => w.justification = j.trim().to_string(),
        _ => {
            w.rejected =
                Some("missing or empty justification (`-- <why this is safe>`)".to_string())
        }
    }
    Some(w)
}

// --- rule matching -------------------------------------------------------

/// Identifiers this file binds to a `HashMap`/`HashSet` (let-bindings,
/// struct fields, typed parameters). A per-file approximation: hash
/// containers in this workspace are always declared and iterated within
/// one file.
fn hash_bound_idents(code: &[String]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in code {
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = find_word_from(line, ty, from) {
                from = pos + ty.len();
                if let Some(name) = declared_ident(line, pos) {
                    out.insert(name);
                }
            }
        }
    }
    out
}

/// The identifier a `HashMap`/`HashSet` occurrence at byte `pos` declares,
/// if the line is a declaration: `let [mut] name = …Hash…`, or
/// `name: [&][mut ]Hash…<…>` (field or parameter).
fn declared_ident(line: &str, pos: usize) -> Option<String> {
    if let Some(lp) = find_word_from(line, "let", 0) {
        if lp < pos {
            let after = line[lp + 3..].trim_start();
            let after = after.strip_prefix("mut ").unwrap_or(after).trim_start();
            let ident: String =
                after.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
            if !ident.is_empty() {
                return Some(ident);
            }
        }
    }
    let bytes = line.as_bytes();
    let mut k = pos;
    while k > 0 && (bytes[k - 1] == b' ' || bytes[k - 1] == b'&') {
        k -= 1;
    }
    if line[..k].ends_with("mut") {
        k -= 3;
        while k > 0 && (bytes[k - 1] == b' ' || bytes[k - 1] == b'&') {
            k -= 1;
        }
    }
    if k == 0 || bytes[k - 1] != b':' {
        return None;
    }
    k -= 1;
    let end = k;
    while k > 0 && is_ident_byte(bytes[k - 1]) {
        k -= 1;
    }
    (k < end).then(|| line[k..end].to_string())
}

/// Whether the sanitized line iterates the hash-bound identifier `name`.
fn iterates_hash(line: &str, name: &str) -> bool {
    const ITER_SUFFIXES: [&str; 7] =
        [".iter()", ".iter_mut()", ".into_iter()", ".keys()", ".values()", ".values_mut()", ".drain("];
    let bytes = line.as_bytes();
    for suffix in ITER_SUFFIXES {
        let pat = format!("{name}{suffix}");
        let mut from = 0;
        while let Some(pos) = line.get(from..).and_then(|h| h.find(&pat)).map(|p| p + from) {
            if pos == 0 || !is_ident_byte(bytes[pos - 1]) {
                return true;
            }
            from = pos + 1;
        }
    }
    // `for … in [&[mut ]]name` with nothing chained after the identifier,
    // or the same with a field-access operand (`for … in &s.name`).
    let mut from = 0;
    while let Some(pos) = find_word_from(line, "in", from) {
        from = pos + 2;
        let operand = line[pos + 2..].trim_start();
        let operand = operand.strip_prefix("&mut ").or_else(|| operand.strip_prefix('&')).unwrap_or(operand);
        if let Some(rest) = operand.strip_prefix(name) {
            let next = rest.bytes().next();
            if !matches!(next, Some(b) if is_ident_byte(b) || b == b'.') {
                return true;
            }
        }
        let ob = operand.as_bytes();
        let mut p = 0;
        while let Some(at) = operand.get(p..).and_then(|h| h.find(name)).map(|q| q + p) {
            p = at + 1;
            let next = ob.get(at + name.len()).copied();
            // `.name` not followed by more of the expression: a bare field
            // bound to a hash container (a call `.name(` is a method, and
            // `.name.`/`.name_x` continue past the field).
            if at > 0
                && ob[at - 1] == b'.'
                && !matches!(next, Some(b) if is_ident_byte(b) || b == b'.' || b == b'(')
            {
                return true;
            }
        }
    }
    false
}

/// Run every line rule (R1–R6) over the sanitized lines of one file.
/// `rel_path` drives the per-rule allowlists.
pub(crate) fn detect(rel_path: &str, code: &[String]) -> Vec<(Rule, usize)> {
    let mut hits = Vec::new();
    let hash_idents = if Rule::R2.allowed_path(rel_path) {
        BTreeSet::new()
    } else {
        hash_bound_idents(code)
    };
    for (ix, line) in code.iter().enumerate() {
        let line_no = ix + 1;
        // R1: `partial_cmp` finished by `.unwrap()` / `.expect(` within the
        // same statement (approximated by a three-line window).
        if !Rule::R1.allowed_path(rel_path) {
            if let Some(pos) = line.find("partial_cmp") {
                let mut window = line[pos..].to_string();
                for follow in code.iter().skip(ix + 1).take(2) {
                    window.push(' ');
                    window.push_str(follow);
                }
                if window.contains(".unwrap()") || window.contains(".expect(") {
                    hits.push((Rule::R1, line_no));
                }
            }
        }
        if !hash_idents.is_empty() && hash_idents.iter().any(|h| iterates_hash(line, h)) {
            hits.push((Rule::R2, line_no));
        }
        if !Rule::R3.allowed_path(rel_path)
            && (line.contains("Instant::now") || contains_word(line, "SystemTime"))
        {
            hits.push((Rule::R3, line_no));
        }
        if !Rule::R4.allowed_path(rel_path)
            && (line.contains("thread::current") || contains_word(line, "available_parallelism"))
        {
            hits.push((Rule::R4, line_no));
        }
        if !Rule::R5.allowed_path(rel_path) && contains_word(line, "unsafe") {
            hits.push((Rule::R5, line_no));
        }
        if !Rule::R6.allowed_path(rel_path) && line.contains("env::var") {
            hits.push((Rule::R6, line_no));
        }
    }
    hits
}

// --- per-file scan -------------------------------------------------------

pub(crate) fn excerpt_of(raw: &str) -> String {
    let trimmed = raw.trim();
    if trimmed.len() > 160 {
        let mut cut = 160;
        while !trimmed.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &trimmed[..cut])
    } else {
        trimmed.to_string()
    }
}

/// One source file, sanitized once and shared by every analysis layer:
/// the R1–R6 line rules, the symbol/call-graph audit (R7–R10) and the
/// waiver resolution that closes a scan.
pub(crate) struct SourceFile {
    pub(crate) rel_path: String,
    /// Raw source lines (for excerpts).
    pub(crate) raw: Vec<String>,
    /// Sanitized lines: comments and literals blanked, positions kept.
    pub(crate) code: Vec<String>,
    /// Waivers parsed out of trailing `//` comments, in line order.
    pub(crate) waivers: Vec<Waiver>,
}

impl SourceFile {
    pub(crate) fn parse(rel_path: &str, text: &str) -> SourceFile {
        let mut state = Strip::Code;
        let mut raw = Vec::new();
        let mut code = Vec::new();
        let mut waivers: Vec<Waiver> = Vec::new();
        for (ix, l) in text.lines().enumerate() {
            let (sanitized, comment_start) = sanitize_line(&mut state, l);
            code.push(sanitized);
            if let Some(w) = comment_start.and_then(|at| parse_waiver(ix + 1, &l[at..])) {
                waivers.push(w);
            }
            raw.push(l.to_string());
        }
        SourceFile { rel_path: rel_path.to_string(), raw, code, waivers }
    }

    /// Apply the file's waivers to a batch of rule hits and emit the final
    /// findings, including the `W1`/`W2` waiver-defect pseudo-findings.
    /// Consumes the waiver `used` state, so call it once per file with
    /// *every* hit from *every* rule family. `graph_rules_ran` says whether
    /// the batch includes R7–R10 hits (the audit); when false, a
    /// waiver naming only graph rules is left alone rather than W2-flagged,
    /// since this scan never evaluated the rules it targets.
    pub(crate) fn resolve(mut self, mut hits: Vec<(Rule, usize)>, graph_rules_ran: bool) -> FileScan {
        hits.sort_unstable_by_key(|&(r, line)| (line, r));
        hits.dedup();
        let mut findings = Vec::new();
        for (rule, line_no) in hits {
            let mut waived = false;
            let mut justification = String::new();
            for w in self.waivers.iter_mut().filter(|w| w.rejected.is_none()) {
                if (w.line == line_no || w.line + 1 == line_no) && w.rules.contains(&rule) {
                    w.used = true;
                    waived = true;
                    justification = w.justification.clone();
                    break;
                }
            }
            findings.push(Finding {
                rule: rule.id().to_string(),
                file: self.rel_path.clone(),
                line: line_no,
                excerpt: excerpt_of(&self.raw[line_no - 1]),
                waived,
                justification,
            });
        }
        for w in &self.waivers {
            if let Some(reason) = &w.rejected {
                findings.push(Finding {
                    rule: "W1".to_string(),
                    file: self.rel_path.clone(),
                    line: w.line,
                    excerpt: format!("rejected waiver: {reason}"),
                    waived: false,
                    justification: String::new(),
                });
            } else if !w.used && (graph_rules_ran || !w.rules.iter().all(|r| r.needs_graph())) {
                findings.push(Finding {
                    rule: "W2".to_string(),
                    file: self.rel_path.clone(),
                    line: w.line,
                    excerpt: "waiver suppresses no finding; delete it".to_string(),
                    waived: false,
                    justification: String::new(),
                });
            }
        }
        findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
        FileScan { rel_path: self.rel_path, lines: self.raw.len(), findings }
    }
}

/// Scan one file's source text with the line rules (R1–R6) only.
/// `rel_path` must be the workspace-relative path with forward slashes; it
/// selects the per-rule allowlists. The reachability rules need a whole
/// source *set*; see [`crate::audit_source_set`].
pub fn scan_source(rel_path: &str, text: &str) -> FileScan {
    let file = SourceFile::parse(rel_path, text);
    let hits = detect(rel_path, &file.code);
    file.resolve(hits, false)
}

// --- workspace walk ------------------------------------------------------

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Read every in-scope source file under `root` as `(rel_path, text)`
/// pairs in sorted path order: the facade's `src/` plus every
/// `crates/*/src/` tree. Vendored `compat/` shims, integration-test
/// directories and golden fixtures are intentionally out of scope — the
/// contract governs code that can reach pipeline output.
pub(crate) fn read_workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> =
            std::fs::read_dir(&crates_dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
        crate_dirs.sort();
        for c in crate_dirs {
            collect_rs(&c.join("src"), &mut files)?;
        }
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let text = std::fs::read_to_string(&path)?;
        out.push((rel, text));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sanitize_all(text: &str) -> Vec<String> {
        let mut state = Strip::Code;
        text.lines().map(|l| sanitize_line(&mut state, l).0).collect()
    }

    #[test]
    fn sanitizer_strips_comments_and_literals() {
        let code = sanitize_all(
            "let a = 1; // partial_cmp in a comment\n\
             let s = \"Instant::now\"; /* SystemTime\n\
             still SystemTime */ let b = 2;\n\
             let c = '\\'';\n\
             let r = r#\"env::var\"#;",
        );
        assert!(code[0].contains("let a = 1;"));
        assert!(!code[0].contains("partial_cmp"));
        assert!(!code[1].contains("Instant"));
        assert!(!code[2].contains("SystemTime"));
        assert!(code[2].contains("let b = 2;"));
        assert!(code[3].contains("let c ="));
        assert!(!code[4].contains("env::var"));
    }

    #[test]
    fn sanitizer_handles_escaped_quotes_in_strings() {
        // From mpa-obs json.rs: a string holding an escaped quote must not
        // desynchronize the string state.
        let code = sanitize_all("out.push_str(\"\\\\\\\"\"); let x = Instant_marker;");
        assert!(code[0].contains("let x = Instant_marker;"));
    }

    #[test]
    fn char_literal_quote_does_not_open_string() {
        let code = sanitize_all("match c { '\"' => f(), _ => g() } let y = 3;");
        assert!(code[0].contains("let y = 3;"));
    }

    #[test]
    fn declared_idents_found_for_let_field_and_param() {
        let code = sanitize_all(
            "struct S {\n\
             index: HashMap<String, u32>,\n\
             }\n\
             fn f(by_name: &HashMap<String, u64>) {\n\
             let mut seen = std::collections::HashSet::new();\n\
             let got: Vec<u32> = xs.iter().collect();\n\
             }",
        );
        let idents = hash_bound_idents(&code);
        assert!(idents.contains("index"));
        assert!(idents.contains("by_name"));
        assert!(idents.contains("seen"));
        assert_eq!(idents.len(), 3);
    }

    #[test]
    fn use_statements_do_not_register_idents() {
        let code = sanitize_all("use std::collections::{BTreeMap, HashMap};");
        assert!(hash_bound_idents(&code).is_empty());
    }

    #[test]
    fn lookup_only_hash_use_is_clean() {
        let text = "struct S { index: HashMap<String, u32> }\n\
                    fn f(s: &mut S) {\n\
                    s.index.insert(k, v);\n\
                    s.index.get(&k);\n\
                    s.index.entry(k).or_default();\n\
                    }";
        assert!(scan_source("crates/x/src/lib.rs", text).findings.is_empty());
    }

    #[test]
    fn waiver_on_same_and_previous_line_suppresses() {
        let just = "-- ordering is irrelevant here";
        let text = format!(
            "fn f(m: &HashMap<u32, u32>) -> u32 {{\n\
             // {MARKER}R2) {just}\n\
             m.values().sum()\n\
             }}"
        );
        let scan = scan_source("crates/x/src/lib.rs", &text);
        assert_eq!(scan.findings.len(), 1);
        assert!(scan.findings[0].waived);
        assert_eq!(scan.findings[0].justification, "ordering is irrelevant here");
    }

    #[test]
    fn multi_rule_waiver_covers_both() {
        let text = format!(
            "fn f() {{\n\
             // {MARKER}R3, R4) -- scheduling diagnostics, never in output\n\
             let t = (Instant::now(), std::thread::current().id());\n\
             }}"
        );
        let scan = scan_source("crates/x/src/lib.rs", &text);
        let unwaived: Vec<_> = scan.findings.iter().filter(|f| !f.waived).collect();
        assert!(unwaived.is_empty(), "{unwaived:?}");
        assert_eq!(scan.findings.len(), 2);
    }

    #[test]
    fn marker_in_string_literal_is_not_a_waiver() {
        // The marker as string data must neither suppress a finding on the
        // next line nor be flagged as an unused (W2) waiver.
        let text = format!(
            "let msg = \"{MARKER}R3) -- just data\";\n\
             let t = Instant::now();\n"
        );
        let scan = scan_source("crates/x/src/lib.rs", &text);
        assert_eq!(scan.findings.len(), 1, "{:?}", scan.findings);
        let f = &scan.findings[0];
        assert_eq!((f.rule.as_str(), f.line, f.waived), ("R3", 2, false));
    }

    #[test]
    fn for_loop_over_hash_field_fires() {
        let text = "struct S { index: HashMap<String, u32> }\n\
                    fn f(s: &S) {\n\
                    for (k, v) in &s.index {\n\
                    g(k, v);\n\
                    }\n\
                    }";
        let scan = scan_source("crates/x/src/lib.rs", text);
        assert_eq!(scan.findings.len(), 1, "{:?}", scan.findings);
        assert_eq!((scan.findings[0].rule.as_str(), scan.findings[0].line), ("R2", 3));
    }

    #[test]
    fn doc_comment_waivers_are_inert() {
        // Documentation may quote the waiver syntax without creating a
        // (then unused, hence flagged) waiver.
        let text = format!("//! {MARKER}R3) -- docs showing the syntax\nfn f() {{}}\n");
        assert!(scan_source("crates/x/src/lib.rs", &text).findings.is_empty());
    }

    #[test]
    fn r1_window_spans_statement_lines() {
        let text = "xs.max_by(|a, b| {\n\
                    a.partial_cmp(b)\n\
                    .expect(msg)\n\
                    })";
        let scan = scan_source("crates/x/src/lib.rs", text);
        assert_eq!(scan.findings.len(), 1);
        assert_eq!(scan.findings[0].rule, "R1");
        assert_eq!(scan.findings[0].line, 2);
    }

    #[test]
    fn total_cmp_and_bare_partial_cmp_are_clean() {
        let text = "xs.sort_by(|a, b| a.total_cmp(b));\n\
                    let ord = a.partial_cmp(&b);";
        assert!(scan_source("crates/x/src/lib.rs", text).findings.is_empty());
    }
}
