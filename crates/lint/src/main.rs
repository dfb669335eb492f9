//! The `mpa-lint` binary: audit the workspace, print findings, optionally
//! write the JSON report.
//!
//! ```text
//! mpa-lint [--root DIR] [--json FILE] [--quiet]
//! ```
//!
//! Every run is the full audit: line rules R1–R6 plus the reachability
//! families R7–R10 over the workspace call graph.
//!
//! Exit-code contract (asserted end-to-end by `tests/cli_exit_codes.rs`):
//! - **0** — scan completed, zero non-waived findings;
//! - **1** — scan completed, at least one non-waived finding;
//! - **2** — the audit itself failed: bad usage, unreadable workspace,
//!   malformed `audit_roots.txt`, a root matching no function, or a file
//!   the symbol layer cannot parse. Nothing is silently skipped.
//!
//! With no `--root`, the workspace containing this crate is scanned (so
//! `cargo run -p mpa-lint` works from any directory inside the repo); a
//! relocated binary falls back to the enclosing workspace of the current
//! directory.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage(program: &str) -> String {
    format!("usage: {program} [--root DIR] [--json FILE] [--quiet]")
}

fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| t.contains("[workspace]"))
}

/// The workspace to scan when `--root` is absent: the compile-time
/// location of this crate's workspace when it still exists (the usual
/// `cargo run -p mpa-lint` case), otherwise — for a relocated or
/// CI-cache-restored binary — the nearest ancestor of the current
/// directory whose `Cargo.toml` declares a workspace.
fn default_root() -> Option<PathBuf> {
    let baked = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    if is_workspace_root(&baked) {
        return Some(baked);
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_else(|| "mpa-lint".to_string());
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => {
                    eprintln!("{program}: --root needs a directory\n{}", usage(&program));
                    return ExitCode::from(2);
                }
            },
            "--json" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => {
                    eprintln!("{program}: --json needs a file path\n{}", usage(&program));
                    return ExitCode::from(2);
                }
            },
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!("{}", usage(&program));
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("{program}: unknown argument `{other}`\n{}", usage(&program));
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root.or_else(default_root) else {
        eprintln!("{program}: no workspace found; pass --root DIR");
        return ExitCode::from(2);
    };
    let report = match mpa_lint::audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{program}: cannot audit {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if !quiet {
        print!("{}", report.render_text());
    }
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("{program}: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if report.strict_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
