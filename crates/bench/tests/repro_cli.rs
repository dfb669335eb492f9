//! End-to-end tests of the `repro` binary's flag handling.

use serde::Value;
use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

#[test]
fn valueless_output_flags_exit_2() {
    // A trailing `--out` or `--obs-out` used to be dropped: the run exited
    // 0 and wrote nothing.
    for flag in ["--out", "--obs-out"] {
        let out = repro(&["--scale", "tiny", "table2", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag} without a value must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("flag {flag} needs a value")), "stderr: {err}");
    }
}

#[test]
fn out_dir_receives_one_file_per_experiment() {
    let dir = std::env::temp_dir().join(format!("repro-cli-test-{}", std::process::id()));
    let out = repro(&["--scale", "tiny", "--out", dir.to_str().expect("utf-8 path"), "table2"]);
    assert!(out.status.success(), "repro failed: {}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read_to_string(dir.join("table2.txt")).expect("table2.txt written");
    assert!(String::from_utf8_lossy(&out.stdout).contains(&written));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Look up a key in a JSON object, panicking with the key on a miss.
fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

#[test]
fn obs_report_carries_the_coverage_scan() {
    let path = std::env::temp_dir().join(format!("repro-cli-obs-{}.json", std::process::id()));
    let obs = path.to_str().expect("utf-8 path");
    let out = repro(&["--scale", "tiny", "--obs-out", obs, "table2"]);
    assert!(out.status.success(), "repro failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("run report written");
    let _ = std::fs::remove_file(&path);
    let report: Value = serde_json::from_str(&text).expect("run report is JSON");
    let coverage = get(&report, "coverage");
    for dim in ["dialect", "change_type", "stanza_kind", "degrade_knob"] {
        let items = get(coverage, dim).as_object().expect("dimension is an object");
        assert!(!items.is_empty(), "coverage dimension {dim:?} is empty");
    }
    let dialects = get(coverage, "dialect").as_object().expect("dialect object");
    assert_eq!(dialects.len(), 2, "{dialects:?}");
    assert!(
        dialects.iter().all(|(_, n)| matches!(n, Value::Num(serde::Number::I64(n)) if *n > 0)),
        "tiny corpus must exercise both dialects: {dialects:?}"
    );
}
