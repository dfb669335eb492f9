//! End-to-end assertions of the binary's exit-code contract (stated in
//! `src/main.rs`): 0 = clean scan, 1 = non-waived findings, 2 = the audit
//! itself failed (usage, unreadable workspace, bad roots manifest).
//! Each case builds a throwaway mini-workspace under the Cargo tmpdir and
//! drives the real `mpa-lint` binary against it.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpa-lint"))
}

/// Lay out `<tmp>/<name>/crates/app/src/lib.rs` (+ an optional
/// `audit_roots.txt`) and return the workspace root.
fn mini_workspace(name: &str, lib_rs: &str, roots: Option<&str>) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/app/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(src.join("lib.rs"), lib_rs).expect("write lib.rs");
    if let Some(text) = roots {
        std::fs::write(root.join("audit_roots.txt"), text).expect("write roots");
    }
    root
}

fn run(root: &Path, extra: &[&str]) -> (i32, String, String) {
    let out = bin()
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn mpa-lint");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const CLEAN: &str = "pub fn entry(xs: &[u32]) -> u32 {\n    xs.iter().sum()\n}\n";
const PANICKY: &str = "pub fn entry(xs: &[u32]) -> u32 {\n    helper(xs)\n}\n\nfn helper(xs: &[u32]) -> u32 {\n    xs.first().copied().unwrap()\n}\n";

#[test]
fn clean_workspace_exits_zero() {
    let root = mini_workspace("exit0", CLEAN, Some("R7 entry\n"));
    let (code, stdout, _) = run(&root, &[]);
    assert_eq!(code, 0, "stdout: {stdout}");
    assert!(stdout.contains("0 violations"), "{stdout}");
    assert!(stdout.contains("mpa-audit:"), "graph stats missing: {stdout}");
}

#[test]
fn reachable_violation_exits_one_and_names_the_site() {
    let root = mini_workspace("exit1", PANICKY, Some("R7 entry\n"));
    let (code, stdout, _) = run(&root, &[]);
    assert_eq!(code, 1, "stdout: {stdout}");
    assert!(stdout.contains("R7"), "{stdout}");
    assert!(stdout.contains("crates/app/src/lib.rs:6"), "{stdout}");
}

#[test]
fn missing_roots_manifest_exits_two() {
    let root = mini_workspace("exit2_noroots", CLEAN, None);
    let (code, _, stderr) = run(&root, &[]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("audit_roots.txt"), "{stderr}");
}

#[test]
fn unresolvable_root_exits_two() {
    let root = mini_workspace("exit2_badroot", CLEAN, Some("R7 renamed_away\n"));
    let (code, _, stderr) = run(&root, &[]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("matches no workspace function"), "{stderr}");
}

#[test]
fn malformed_manifest_exits_two() {
    let root = mini_workspace("exit2_badline", CLEAN, Some("R9 entry\n"));
    let (code, _, stderr) = run(&root, &[]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("does not take reachability roots"), "{stderr}");
}

#[test]
fn unknown_flag_exits_two() {
    let (code, _, stderr) = run(Path::new("."), &["--frobnicate"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn json_report_carries_the_audit_counters() {
    let root = mini_workspace("exit0_json", CLEAN, Some("R7 entry\n"));
    let json_path = root.join("lint_report.json");
    let (code, _, _) = run(&root, &["--quiet", "--json", json_path.to_str().expect("utf8")]);
    assert_eq!(code, 0);
    let json = std::fs::read_to_string(&json_path).expect("json report");
    for counter in
        ["audit_fns_scanned", "audit_edges", "audit_reachable_r7", "audit_reachable_r8"]
    {
        assert!(json.contains(counter), "counter {counter} missing: {json}");
    }
}
