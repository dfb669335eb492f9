//! The audit: line rules R1–R6 plus the reachability-sensitive
//! families R7–R10, orchestrated over one shared parse of the workspace.
//!
//! Pipeline: read sources → sanitize once ([`SourceFile`]) → build the
//! symbol table and call graph → resolve the `audit_roots.txt` manifest →
//! BFS reachability per rule family → match patterns only inside the
//! functions each family governs → resolve waivers per file. Any manifest
//! or parse problem is a hard [`AuditError`] (binary exit 2) — a root that
//! matches nothing means the contract silently stopped being checked,
//! which is worse than a finding.

use crate::graph::{CallGraph, RootError, RootManifest};
use crate::report::{AuditStats, Report};
use crate::rules::{find_word_from, is_ident_byte, Rule};
use crate::scan::{detect, read_workspace_sources, SourceFile};
use crate::symbols::{SymbolError, SymbolTable};
use std::collections::BTreeSet;
use std::path::Path;

/// The roots manifest file name, resolved against the workspace root.
pub const ROOTS_FILE: &str = "audit_roots.txt";

/// Why an audit could not produce a report. All variants are
/// fatal: the binary maps them to exit 2, never to a silent skip.
#[derive(Debug)]
pub enum AuditError {
    /// Workspace walk or manifest read failed.
    Io(std::io::Error),
    /// A file failed to parse at the symbol layer (unbalanced braces).
    Symbol(SymbolError),
    /// The roots manifest is malformed or names a missing function.
    Root(RootError),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Io(e) => write!(f, "{e}"),
            AuditError::Symbol(e) => write!(f, "{e}"),
            AuditError::Root(e) => write!(f, "{e}"),
        }
    }
}

impl From<std::io::Error> for AuditError {
    fn from(e: std::io::Error) -> Self {
        AuditError::Io(e)
    }
}

/// Run the full audit over the workspace at `root`, reading the roots
/// manifest from [`ROOTS_FILE`] next to its `Cargo.toml`.
pub fn audit_workspace(root: &Path) -> Result<Report, AuditError> {
    let sources = read_workspace_sources(root)?;
    let manifest = std::fs::read_to_string(root.join(ROOTS_FILE)).map_err(|e| {
        AuditError::Io(std::io::Error::new(
            e.kind(),
            format!("{}: {e}", root.join(ROOTS_FILE).display()),
        ))
    })?;
    audit_source_set(&root.display().to_string(), &sources, &manifest)
}

/// Audit an explicit `(rel_path, text)` source set against a manifest
/// text. This is the seam the fixture tests use: a synthetic "workspace"
/// of a few strings exercises the same code path as the real tree.
pub fn audit_source_set(
    root_label: &str,
    sources: &[(String, String)],
    manifest: &str,
) -> Result<Report, AuditError> {
    let manifest = RootManifest::parse(manifest).map_err(AuditError::Root)?;
    let files: Vec<SourceFile> =
        sources.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
    let table = SymbolTable::build(&files).map_err(AuditError::Symbol)?;
    let graph = CallGraph::build(&table);
    let reach_r7 = graph.reachable(&resolve_roots(&manifest, "R7", &table)?);
    let reach_r8 = graph.reachable(&resolve_roots(&manifest, "R8", &table)?);
    let dead = dead_counters(&files);

    let mut report = Report::new(root_label.to_string());
    report.audit = AuditStats {
        fns_scanned: table.fns.iter().filter(|f| !f.is_test).count() as u64,
        edges: graph.n_edges as u64,
        reachable_r7: reach_r7.len() as u64,
        reachable_r8: reach_r8.len() as u64,
    };
    for (ix, file) in files.into_iter().enumerate() {
        let mut hits = detect(&file.rel_path, &file.code);
        audit_detect(ix, &file, &table, &reach_r7, &reach_r8, &dead, &mut hits);
        report.absorb(file.resolve(hits, true));
    }
    Ok(report)
}

/// Parse a source set to its symbol table (the call-graph test seam).
pub fn symbols_of(sources: &[(String, String)]) -> Result<SymbolTable, SymbolError> {
    let files: Vec<SourceFile> =
        sources.iter().map(|(rel, text)| SourceFile::parse(rel, text)).collect();
    SymbolTable::build(&files)
}

/// Resolve every manifest root for `rule` to fn indices. A suffix that
/// matches no non-test workspace function is an error: the most likely
/// cause is a rename that would otherwise silently shrink the audit.
fn resolve_roots(
    manifest: &RootManifest,
    rule: &str,
    table: &SymbolTable,
) -> Result<Vec<usize>, AuditError> {
    let mut out = Vec::new();
    for suffix in manifest.for_rule(rule) {
        let hits = table.find_by_suffix(suffix);
        if hits.is_empty() {
            return Err(AuditError::Root(RootError(format!(
                "{rule} root `{suffix}` matches no workspace function"
            ))));
        }
        out.extend(hits);
    }
    Ok(out)
}

/// Match the audit families over one file, appending to the line-rule
/// hits so a single waiver pass resolves everything.
fn audit_detect(
    file_ix: usize,
    file: &SourceFile,
    table: &SymbolTable,
    reach_r7: &BTreeSet<usize>,
    reach_r8: &BTreeSet<usize>,
    dead: &[(usize, usize)],
    hits: &mut Vec<(Rule, usize)>,
) {
    let layout = &table.layouts[file_ix];
    for (lx, line) in file.code.iter().enumerate() {
        let Some(fx) = layout.owner.get(lx).copied().flatten() else {
            continue;
        };
        if table.fns[fx].is_test {
            continue;
        }
        let raw = file.raw.get(lx).map(String::as_str).unwrap_or("");
        if reach_r7.contains(&fx) && has_panic_site(line, raw, &file.rel_path) {
            hits.push((Rule::R7, lx + 1));
        }
        if reach_r8.contains(&fx) && has_hot_alloc(line) {
            hits.push((Rule::R8, lx + 1));
        }
    }
    if file.rel_path.starts_with("crates/serve/") {
        detect_lock_discipline(file, file_ix, table, hits);
    }
    for &(fx, line) in dead {
        if fx == file_ix {
            hits.push((Rule::R10, line));
        }
    }
}

/// R7 line patterns: panicking calls and unchecked indexing. `line` is the
/// sanitized text, `raw` the original (to see string literals), `rel` the
/// file path (the serve boundary is held to the strictest reading).
fn has_panic_site(line: &str, raw: &str, rel: &str) -> bool {
    if line.contains(".unwrap()") || line.contains("panic!(") || line.contains("unreachable!(") {
        return true;
    }
    if line.contains(".expect(") {
        // Outside the serve boundary, `.expect("non-empty literal")` is
        // the workspace's sanctioned invariant-assert idiom and exempt;
        // serve handles untrusted input and gets no such latitude, nor do
        // computed or empty messages anywhere.
        let documented = raw.contains(".expect(\"") && !raw.contains(".expect(\"\")");
        if rel.starts_with("crates/serve/") || !documented {
            return true;
        }
    }
    // `debug_assert…` lines are stripped from release builds — the only
    // builds the panic-freedom contract covers.
    if line.trim_start().starts_with("debug_assert") {
        return false;
    }
    // Unchecked indexing: `[` directly after an identifier byte, `)` or
    // `]` (so `&[…]` slices, `#[…]` attributes, `: [u8; 4]` types and
    // `vec![…]` stay invisible).
    let bytes = line.as_bytes();
    let mut i = 1;
    while i < bytes.len() {
        if bytes[i] == b'['
            && (is_ident_byte(bytes[i - 1]) || bytes[i - 1] == b')' || bytes[i - 1] == b']')
        {
            // Find the matching `]` and judge the subscript.
            let mut depth = 1u32;
            let mut j = i + 1;
            while j < bytes.len() && depth > 0 {
                match bytes[j] {
                    b'[' => depth += 1,
                    b']' => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let subscript = if depth == 0 { &line[i + 1..j - 1] } else { &line[i + 1..] };
            if !trivially_bounded(subscript) {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Whether a subscript expression is of the locally-bounded shape the
/// audit exempts: identifiers, field accesses, integer literals, `+`/`*`
/// arithmetic, `as` casts, `..` ranges of those and nested indexing of
/// the same shape (`i`, `0`, `i * n + j`, `slot as usize`, `ids[i]`,
/// `start..end`). Everything else — map keys (`&key`), subtraction
/// (`len - 1` can underflow), call results — can take a value no local
/// bound or owning-structure invariant constrains, and is flagged.
fn trivially_bounded(subscript: &str) -> bool {
    if subscript.is_empty() {
        return false;
    }
    // `m[(i, j)]` — the workspace Matrix subscript; exempt when both
    // coordinates are plain identifiers/literals (the loop-bound idiom).
    let inner = subscript
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .unwrap_or(subscript);
    inner.bytes().all(|b| {
        is_ident_byte(b) || matches!(b, b' ' | b'+' | b'*' | b'[' | b']' | b'.' | b',')
    })
}

/// R8 line patterns: the allocation idioms the delta-native PRs removed
/// from the inner loops.
fn has_hot_alloc(line: &str) -> bool {
    line.contains(".to_string()")
        || line.contains("format!(")
        || line.contains("Vec::new()")
        || line.contains(".clone()")
}

/// Guard-acquisition patterns. `Mutex::lock`, `RwLock::read`/`write` take
/// no arguments; the I/O methods of the same names always do, so the
/// empty-paren form is unambiguous at the token level.
const ACQUIRE: [&str; 3] = [".lock()", ".read()", ".write()"];

/// I/O calls a guard must not be held across (stream writes/reads and the
/// serve request/response helpers).
const IO_CALLS: [&str; 9] = [
    ".write_all(",
    ".flush(",
    ".read_exact(",
    ".read_to_end(",
    ".read_line(",
    ".accept(",
    "write_response(",
    "read_request(",
    ".set_read_timeout(",
];

/// R9: track let-bound guards lexically (alive until their block's brace
/// depth unwinds) and flag any I/O call or second acquisition while one
/// is held.
fn detect_lock_discipline(
    file: &SourceFile,
    file_ix: usize,
    table: &SymbolTable,
    hits: &mut Vec<(Rule, usize)>,
) {
    let layout = &table.layouts[file_ix];
    // Brace depth a held guard's scope sits at; guard dies when the depth
    // at the start of a line drops below it.
    let mut held: Vec<u32> = Vec::new();
    for (lx, line) in file.code.iter().enumerate() {
        let depth_start = if lx == 0 { 0 } else { layout.depth_end[lx - 1] };
        held.retain(|&d| depth_start >= d);
        let in_code_fn = layout.owner.get(lx).copied().flatten().is_some_and(|fx| !table.fns[fx].is_test);
        if !in_code_fn {
            continue;
        }
        let acquires = ACQUIRE.iter().any(|p| line.contains(p));
        let does_io = IO_CALLS.iter().any(|p| line.contains(p));
        if !held.is_empty() && (acquires || does_io) {
            hits.push((Rule::R9, lx + 1));
        }
        if acquires && find_word_from(line, "let", 0).is_some() {
            held.push(layout.depth_end[lx]);
        }
    }
}

/// R10: `Counter` statics never incremented (`.add(`/`.incr(`) anywhere.
/// Returns `(file index, decl line)` pairs. The increment search is
/// multiline-tolerant — `NAME` at end of line, `.add(…)` on the next —
/// because that is exactly how rustfmt breaks long counter names.
fn dead_counters(files: &[SourceFile]) -> Vec<(usize, usize)> {
    let mut decls: Vec<(String, usize, usize)> = Vec::new();
    for (fx, f) in files.iter().enumerate() {
        for (lx, line) in f.code.iter().enumerate() {
            let Some(pos) = find_word_from(line, "static", 0) else {
                continue;
            };
            let rest = line[pos + "static".len()..].trim_start();
            let name: String =
                rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
            if name.is_empty() {
                continue;
            }
            let after = rest[name.len()..].trim_start();
            let Some(ty) = after.strip_prefix(':') else {
                continue;
            };
            let ty = ty.trim_start();
            let is_counter = ty.strip_prefix("Counter").is_some_and(|tail| {
                !tail.bytes().next().is_some_and(is_ident_byte)
            });
            if is_counter {
                decls.push((name, fx, lx + 1));
            }
        }
    }
    let mut alive: BTreeSet<String> = BTreeSet::new();
    for f in files {
        for (lx, line) in f.code.iter().enumerate() {
            for (name, _, _) in &decls {
                if alive.contains(name.as_str()) {
                    continue;
                }
                let mut from = 0;
                while let Some(pos) = find_word_from(line, name, from) {
                    from = pos + name.len();
                    let mut tail = line[from..].trim_start();
                    if tail.is_empty() {
                        tail = f.code.get(lx + 1).map(|l| l.trim_start()).unwrap_or("");
                    }
                    if tail.starts_with(".add(") || tail.starts_with(".incr(") {
                        alive.insert(name.clone());
                        break;
                    }
                }
            }
        }
    }
    decls
        .into_iter()
        .filter(|(name, _, _)| !alive.contains(name.as_str()))
        .map(|(_, fx, line)| (fx, line))
        .collect()
}
