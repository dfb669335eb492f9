//! End-to-end tests of the `repro` binary's flag handling.

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
