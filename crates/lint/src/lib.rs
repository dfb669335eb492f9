//! `mpa-audit` (crate `mpa-lint`): a static-analysis pass enforcing the
//! workspace's determinism & correctness contract.
//!
//! The golden-file and thread-invariance suites can only *spot-check* the
//! contract dynamically — every phase byte-identical across `--threads
//! 1/2/8` and across runs. This crate checks it at the source level, in
//! two layers (both std-only, in the spirit of `mpa-obs`: no external
//! dependencies, no `unsafe`):
//!
//! - **Line rules R1–R6** — a sanitized line scanner over `src/` and every
//!   `crates/*/src/` tree: float total order (R1), hash iteration order
//!   (R2), wall clocks (R3), thread identity (R4), `unsafe` placement (R5)
//!   and environment reads (R6), gated by per-rule path allowlists.
//! - **Audit rules R7–R10** — reachability-sensitive families over a
//!   token-level symbol table ([`SymbolTable`]) and workspace call graph
//!   ([`CallGraph`]): panic-safety from declared roots (R7), allocation in
//!   hot paths (R8), lock discipline in the serve daemon (R9) and dead
//!   obs counters (R10). Roots live in the checked-in `audit_roots.txt`
//!   manifest; a root that matches nothing is a hard error, not a skip.
//!
//! See [`Rule`] for the catalog, and DESIGN.md §11/§16 for the contract,
//! the rationale and the waiver policy.
//!
//! The audit ships three ways so it cannot rot:
//! - `cargo run -p mpa-lint` — the binary: exit 0 only with zero
//!   non-waived findings, exit 2 on manifest/parse errors, `--json FILE`
//!   writes the machine-readable report;
//! - the facade's `determinism_lint` test (tier-1 `cargo test -q`) and
//!   this crate's `workspace_clean` test, which run the same audit
//!   in-process;
//! - the CI `lint` job, which uploads `lint_report.json` as an artifact and
//!   gates `audit_fns_scanned` against a committed baseline so a silently
//!   shrinking parse surface fails the build.

mod audit;
mod graph;
mod report;
mod rules;
mod scan;
mod symbols;

pub use audit::{audit_source_set, audit_workspace, symbols_of, AuditError, ROOTS_FILE};
pub use graph::{CallGraph, RootError, RootManifest};
pub use report::{AuditStats, Finding, Report};
pub use rules::Rule;
pub use scan::{scan_source, FileScan};
pub use symbols::{CallSite, CallTarget, FileLayout, FnSym, SymbolError, SymbolTable};
