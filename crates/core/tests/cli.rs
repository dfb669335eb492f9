//! End-to-end tests of the `mpa-cli` binary: generate → infer → analyze →
//! predict on real files in a temp directory, plus the observability
//! contract: strict flag validation (exit 2), well-formed `--obs-out` run
//! reports, and counter totals that do not depend on the thread count.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpa-cli"))
}

/// Look up a key in a JSON object (panics with context on a miss — these
/// are assertions about the report shape, not recoverable errors).
fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.as_object()
        .unwrap_or_else(|| panic!("expected object, found {}", v.kind()))
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::Num(serde::Number::U64(n)) => *n,
        Value::Num(serde::Number::I64(n)) => u64::try_from(*n).expect("non-negative"),
        other => panic!("expected unsigned integer, found {}", other.kind()),
    }
}

/// Collect every span label in the report's span forest, depth first.
fn span_labels(spans: &Value, out: &mut Vec<String>) {
    for span in spans.as_array().expect("spans array") {
        if let Value::String(label) = get(span, "label") {
            out.push(label.clone());
        }
        span_labels(get(span, "children"), out);
    }
}

fn read_report(path: &PathBuf) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpa-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

#[test]
fn full_pipeline_via_files() {
    let dataset = tmp("dataset.json");
    let table = tmp("table.json");

    let out = cli()
        .args(["generate", "--scale", "tiny", "--out", dataset.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(dataset.exists());

    let out = cli()
        .args([
            "infer",
            "--dataset",
            dataset.to_str().unwrap(),
            "--out",
            table.to_str().unwrap(),
        ])
        .output()
        .expect("run infer");
    assert!(out.status.success(), "infer failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(table.exists());

    // A dataset cut to half its bytes fails to decode, and the error says
    // where decoding stopped.
    let text = std::fs::read_to_string(&dataset).expect("read dataset");
    let half = (0..=text.len() / 2).rev().find(|&i| text.is_char_boundary(i)).unwrap();
    let cut = tmp("dataset-cut.json");
    std::fs::write(&cut, &text[..half]).expect("write cut dataset");
    let out = cli()
        .args(["infer", "--dataset", cut.to_str().unwrap(), "--out", table.to_str().unwrap()])
        .output()
        .expect("run infer on the cut dataset");
    assert_eq!(out.status.code(), Some(1), "a cut dataset must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let offset: usize = stderr
        .split_once(" at byte ")
        .and_then(|(_, rest)| rest.trim_end().parse().ok())
        .unwrap_or_else(|| panic!("stderr names no byte offset: {stderr}"));
    assert!(offset > 0 && offset <= half, "offset {offset} outside the {half}-byte file");

    // A table whose fourth row is short of its 28 values fails to decode,
    // naming the row, instead of panicking in the analytics.
    let decoded: mpa_metrics::CaseTable =
        serde_json::from_str(&std::fs::read_to_string(&table).expect("read table"))
            .expect("the inferred table decodes");
    let mut cases = decoded.cases().to_vec();
    cases[3].values.truncate(5);
    let short = tmp("table-short.json");
    let json = format!("{{\"cases\":{}}}", serde_json::to_string(&cases).expect("serializes"));
    std::fs::write(&short, json).expect("write short table");
    for command in ["analyze", "predict"] {
        let out = cli()
            .args([command, "--table", short.to_str().unwrap()])
            .output()
            .expect("run on the short table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command} on a short row must exit 1: {stderr}");
        assert!(stderr.contains("row 3"), "{command} names no row: {stderr}");
    }

    let out = cli()
        .args(["analyze", "--table", table.to_str().unwrap(), "--causal-top", "2"])
        .output()
        .expect("run analyze");
    assert!(out.status.success(), "analyze failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("dependence analysis"), "{text}");
    assert!(text.contains("causal analysis"), "{text}");
    assert!(text.contains("No. of"), "practice names expected: {text}");

    let out = cli()
        .args(["predict", "--table", table.to_str().unwrap(), "--classes", "2"])
        .output()
        .expect("run predict");
    assert!(out.status.success(), "predict failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("health prediction"), "{text}");
    assert!(text.contains("Majority"), "{text}");
    assert!(text.contains("decision tree"), "{text}");
}

#[test]
fn custom_delta_changes_inference() {
    let dataset = tmp("dataset-delta.json");
    let t5 = tmp("table-d5.json");
    let t30 = tmp("table-d30.json");

    assert!(cli()
        .args(["generate", "--scale", "tiny", "--out", dataset.to_str().unwrap()])
        .status()
        .expect("generate")
        .success());
    for (delta, path) in [("5", &t5), ("30", &t30)] {
        assert!(cli()
            .args([
                "infer",
                "--dataset",
                dataset.to_str().unwrap(),
                "--delta",
                delta,
                "--out",
                path.to_str().unwrap(),
            ])
            .status()
            .expect("infer")
            .success());
    }
    let a = std::fs::read_to_string(&t5).unwrap();
    let b = std::fs::read_to_string(&t30).unwrap();
    assert_ne!(a, b, "different δ must yield different event metrics");
}

#[test]
fn missing_arguments_fail_cleanly() {
    let out = cli().output().expect("run bare");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = cli().args(["analyze"]).output().expect("run analyze without table");
    assert!(!out.status.success());

    let out = cli().args(["frobnicate"]).output().expect("unknown command");
    assert!(!out.status.success());
}

#[test]
fn invalid_flag_values_are_rejected_with_exit_2() {
    // Regression: these used to fall back to defaults silently (e.g.
    // `--seed abc` generated the default-seed dataset). Each must now fail
    // fast with exit code 2 and name the offending flag on stderr.
    let cases: &[(&[&str], &str)] = &[
        (&["generate", "--scale", "tiny", "--seed", "abc"], "--seed"),
        (&["infer", "--delta", "ten"], "--delta"),
        (&["analyze", "--causal-top", "-1"], "--causal-top"),
        (&["report", "--threads", "1.5"], "--threads"),
        (&["predict", "--classes", "two"], "--classes"),
        (&["predict", "--classes", "3"], "--classes must be 2 or 5"),
        (&["predict", "--classes", "0"], "--classes must be 2 or 5"),
        // Malformed degradation specs: unknown knob, non-numeric rate,
        // rate outside [0, 1]. Each must exit 2 naming --degrade.
        (&["generate", "--scale", "tiny", "--degrade", "bogus=1"], "--degrade"),
        (&["generate", "--scale", "tiny", "--degrade", "miss=abc"], "--degrade"),
        (&["generate", "--scale", "tiny", "--degrade", "miss=2.0"], "--degrade"),
        (&["generate", "--scale", "tiny", "--degrade", "miss=NaN"], "--degrade"),
        // Scoping: --degrade is a generation-time knob. On any other
        // command it used to parse fine and silently do nothing; it must
        // now exit 2 naming the flag and the offending command.
        (&["infer", "--degrade", "light"], "--degrade"),
        (&["analyze", "--degrade", "light"], "--degrade"),
        (&["predict", "--degrade", "heavy"], "--degrade"),
        (&["report", "--degrade", "none"], "--degrade"),
        (&["infer", "--degrade", "light"], "generate"),
    ];
    for (args, needle) in cases {
        let out = cli().args(*args).output().expect("run cli");
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "args {args:?}: stderr {err:?} lacks {needle:?}");
    }
}

/// Generate a tiny dataset + case table once for the obs-report tests.
fn tiny_table(tag: &str) -> PathBuf {
    let dataset = tmp(&format!("{tag}-dataset.json"));
    let table = tmp(&format!("{tag}-table.json"));
    let out = cli()
        .args(["generate", "--scale", "tiny", "--out", dataset.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = cli()
        .args(["infer", "--dataset", dataset.to_str().unwrap(), "--out", table.to_str().unwrap()])
        .output()
        .expect("run infer");
    assert!(out.status.success(), "infer failed: {}", String::from_utf8_lossy(&out.stderr));
    table
}

#[test]
fn obs_report_is_well_formed_and_cache_counters_balance() {
    let dataset = tmp("obs-dataset.json");
    let table = tmp("obs-table.json");
    let generate_obs = tmp("obs-generate-run.json");
    let infer_obs = tmp("obs-infer-run.json");
    let report_obs = tmp("obs-report-run.json");

    let out = cli()
        .args([
            "generate",
            "--scale",
            "tiny",
            "--out",
            dataset.to_str().unwrap(),
            "--obs-out",
            generate_obs.to_str().unwrap(),
        ])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_phase_lines(&out.stderr, &["generate"]);

    // The generate run's report: every chunk render is a render-cache hit
    // or a miss, and the delta-native generator did real work — it hit
    // the cache, missed it on novel text, spliced live documents, and
    // rendered lines and bytes.
    let report = read_report(&generate_obs);
    let counters = get(&report, "counters");
    let rendered = as_u64(get(counters, "gen_chunks_rendered"));
    let hits = as_u64(get(counters, "gen_render_cache_hits"));
    let misses = as_u64(get(counters, "gen_render_cache_misses"));
    let splices = as_u64(get(counters, "gen_splice_ops"));
    let lines = as_u64(get(counters, "gen_lines_rendered"));
    let bytes = as_u64(get(counters, "gen_bytes_rendered"));
    assert_eq!(hits + misses, rendered, "render-cache leak: {hits} + {misses} != {rendered}");
    assert!(hits > 0 && misses > 0 && splices > 0, "render cache idle: {hits}/{misses}/{splices}");
    assert!(lines > 0 && bytes > 0, "render work counters idle: {lines} lines, {bytes} bytes");

    let out = cli()
        .args([
            "infer",
            "--dataset",
            dataset.to_str().unwrap(),
            "--out",
            table.to_str().unwrap(),
            "--obs-out",
            infer_obs.to_str().unwrap(),
        ])
        .output()
        .expect("run infer");
    assert!(out.status.success(), "infer failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_phase_lines(&out.stderr, &["infer"]);

    // The infer run's report: the parse cache must account for every
    // snapshot it visited — hits + misses == visited, and work happened —
    // and the delta-native engine re-parsed stanzas, never whole snapshots.
    let report = read_report(&infer_obs);
    let counters = get(&report, "counters");
    let visited = as_u64(get(counters, "parse_snapshots_visited"));
    let hits = as_u64(get(counters, "parse_cache_hits"));
    let misses = as_u64(get(counters, "parse_cache_misses"));
    assert!(visited > 0, "infer visited no snapshots");
    assert_eq!(hits + misses, visited, "cache accounting leak: {hits} + {misses} != {visited}");
    assert_eq!(as_u64(get(counters, "infer_full_parses")), 0, "infer must never full-parse");
    assert!(as_u64(get(counters, "infer_stanzas_reparsed")) > 0, "no stanza reparses counted");
    let mut labels = Vec::new();
    span_labels(get(&report, "spans"), &mut labels);
    assert!(labels.iter().any(|l| l == "infer"), "spans {labels:?} lack \"infer\"");

    // The report command's report: the span forest covers every phase, and
    // the envelope records the process vitals.
    let out = cli()
        .args([
            "report",
            "--table",
            table.to_str().unwrap(),
            "--causal-top",
            "2",
            "--obs-out",
            report_obs.to_str().unwrap(),
        ])
        .output()
        .expect("run report");
    assert!(out.status.success(), "report failed: {}", String::from_utf8_lossy(&out.stderr));
    let phases = ["mi_ranking", "cmi_ranking", "causal", "predict"];
    assert_phase_lines(&out.stderr, &phases);
    let report = read_report(&report_obs);
    assert_eq!(as_u64(get(&report, "version")), 1);
    if std::path::Path::new("/proc/self/status").exists() {
        assert!(as_u64(get(&report, "peak_rss_bytes")) > 0);
    }
    let mut labels = Vec::new();
    span_labels(get(&report, "spans"), &mut labels);
    for phase in phases {
        assert!(labels.iter().any(|l| l == phase), "spans {labels:?} lack {phase:?}");
    }
}

/// Every phase a command runs prints exactly one `[mpa] <phase>: <elapsed>`
/// line on stderr.
fn assert_phase_lines(stderr: &[u8], phases: &[&str]) {
    let stderr = String::from_utf8_lossy(stderr);
    for phase in phases {
        let prefix = format!("[mpa] {phase}: ");
        let n = stderr.lines().filter(|l| l.starts_with(&prefix)).count();
        assert_eq!(n, 1, "stderr must carry one {prefix:?} line:\n{stderr}");
    }
}

#[test]
fn counter_totals_do_not_depend_on_thread_count() {
    // The counter registry's contract: totals are a pure function of the
    // work, never of the scheduling. Timings and the scheduling section may
    // differ; outputs and the counters object must be identical at 1, 2
    // and 8 threads.
    let counters = |obs: &PathBuf| get(&read_report(obs), "counters").clone();
    let peak_rss = |obs: &PathBuf| as_u64(get(&read_report(obs), "peak_rss_bytes"));
    let run = |args: &[&str]| {
        let out = cli().args(args).output().expect("run cli");
        assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    };

    // generate --scale small and infer: byte-identical files, identical
    // counters, and per-worker buffers that stay bounded — the 8-thread
    // run's peak RSS is at most 20 MiB above the 1-thread run's (about
    // 7 MiB for generate and 10 MiB for infer on the small preset).
    struct Run {
        threads: &'static str,
        files: [String; 2],
        counters: [Value; 2],
        peak_rss: [u64; 2],
    }
    let mut runs: Vec<Run> = Vec::new();
    for threads in ["1", "2", "8"] {
        let dataset = tmp(&format!("invariance-dataset-{threads}.json"));
        let table = tmp(&format!("invariance-table-{threads}.json"));
        let gen_obs = tmp(&format!("invariance-generate-{threads}.json"));
        let infer_obs = tmp(&format!("invariance-infer-{threads}.json"));
        run(&[
            "generate",
            "--scale",
            "small",
            "--threads",
            threads,
            "--out",
            dataset.to_str().unwrap(),
            "--obs-out",
            gen_obs.to_str().unwrap(),
        ]);
        run(&[
            "infer",
            "--dataset",
            dataset.to_str().unwrap(),
            "--threads",
            threads,
            "--out",
            table.to_str().unwrap(),
            "--obs-out",
            infer_obs.to_str().unwrap(),
        ]);
        let read = |p: &PathBuf| std::fs::read_to_string(p).expect("read output");
        runs.push(Run {
            threads,
            files: [read(&dataset), read(&table)],
            counters: [counters(&gen_obs), counters(&infer_obs)],
            peak_rss: [peak_rss(&gen_obs), peak_rss(&infer_obs)],
        });
    }
    let one = &runs[0];
    for r in &runs[1..] {
        for (i, phase) in ["generate", "infer"].into_iter().enumerate() {
            let threads = r.threads;
            assert!(r.files[i] == one.files[i], "{phase} output differs at --threads {threads}");
            assert_eq!(
                r.counters[i], one.counters[i],
                "{phase} counters differ at --threads {threads}"
            );
            if threads == "8" && one.peak_rss[i] > 0 {
                let extra_mib = r.peak_rss[i].saturating_sub(one.peak_rss[i]) as f64 / 1048576.0;
                assert!(
                    extra_mib <= 20.0,
                    "{phase} peak RSS at 8 threads is {extra_mib:.1} MiB above the 1-thread run"
                );
            }
        }
    }

    // The analytics: report on one table at each thread count.
    let table = tiny_table("invariance");
    let mut snapshots: Vec<(String, Value)> = Vec::new();
    for threads in ["1", "2", "8"] {
        let obs = tmp(&format!("invariance-run-{threads}.json"));
        run(&[
            "report",
            "--table",
            table.to_str().unwrap(),
            "--causal-top",
            "2",
            "--threads",
            threads,
            "--obs-out",
            obs.to_str().unwrap(),
        ]);
        snapshots.push((threads.to_string(), counters(&obs)));
    }
    let (ref_threads, reference) = &snapshots[0];
    for (threads, counters) in &snapshots[1..] {
        assert_eq!(
            counters, reference,
            "counter totals differ between --threads {ref_threads} and --threads {threads}"
        );
    }
}

#[test]
fn degraded_generate_reports_balanced_counters_and_coverage() {
    let dataset = tmp("degrade-dataset.json");
    let obs = tmp("degrade-run.json");
    let out = cli()
        .args([
            "generate",
            "--scale",
            "tiny",
            "--degrade",
            "light",
            "--out",
            dataset.to_str().unwrap(),
            "--obs-out",
            obs.to_str().unwrap(),
        ])
        .output()
        .expect("run degraded generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(dataset.exists());

    // The degradation counters must account for every snapshot the
    // simulator produced: dropped + kept == generated, with real work on
    // both sides of the ledger.
    let report = read_report(&obs);
    let counters = get(&report, "counters");
    let generated = as_u64(get(counters, "degrade_snapshots_generated"));
    let dropped = as_u64(get(counters, "degrade_snapshots_dropped"));
    let kept = as_u64(get(counters, "degrade_snapshots_kept"));
    assert!(generated > 0, "degraded generate produced no snapshots");
    assert_eq!(dropped + kept, generated, "degrade accounting leak: {dropped} + {kept} != {generated}");
    assert!(kept > 0, "light degradation must keep most snapshots");
    let tickets = as_u64(get(counters, "degrade_tickets_generated"));
    let duplicated = as_u64(get(counters, "degrade_tickets_duplicated"));
    assert!(tickets > 0, "degraded generate produced no tickets");
    assert!(duplicated <= tickets, "more duplicates than source tickets");

    // The run report carries the scenario coverage scan: all four
    // dimensions present, the dialect dimension fully exercised.
    let coverage = get(&report, "coverage");
    for dim in ["dialect", "change_type", "stanza_kind", "degrade_knob"] {
        let items = get(coverage, dim)
            .as_object()
            .unwrap_or_else(|| panic!("coverage dimension {dim:?} is not an object"));
        assert!(!items.is_empty(), "coverage dimension {dim:?} is empty");
    }
    let dialects = get(coverage, "dialect").as_object().expect("dialect object");
    assert!(
        dialects.iter().all(|(_, v)| as_u64(v) > 0),
        "tiny corpus must exercise both dialects: {dialects:?}"
    );
}

#[test]
fn degraded_generate_is_deterministic_and_differs_from_pristine() {
    let pristine = tmp("degrade-det-pristine.json");
    let a = tmp("degrade-det-a.json");
    let b = tmp("degrade-det-b.json");
    for (extra, path) in [
        (None, &pristine),
        (Some("heavy"), &a),
        (Some("heavy"), &b),
    ] {
        let mut args = vec!["generate", "--scale", "tiny", "--out", path.to_str().unwrap()];
        if let Some(spec) = extra {
            args.extend(["--degrade", spec]);
        }
        let out = cli().args(&args).output().expect("run generate");
        assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    }
    let ja = std::fs::read_to_string(&a).unwrap();
    let jb = std::fs::read_to_string(&b).unwrap();
    assert_eq!(ja, jb, "same seed + same spec must produce the identical corpus");
    let jp = std::fs::read_to_string(&pristine).unwrap();
    assert_ne!(ja, jp, "heavy degradation must actually alter the corpus");
}

#[test]
fn seed_flag_changes_the_dataset() {
    let a = tmp("seed-a.json");
    let b = tmp("seed-b.json");
    for (seed, path) in [("1", &a), ("2", &b)] {
        assert!(cli()
            .args([
                "generate",
                "--scale",
                "tiny",
                "--seed",
                seed,
                "--out",
                path.to_str().unwrap(),
            ])
            .status()
            .expect("generate")
            .success());
    }
    let ja = std::fs::read_to_string(&a).unwrap();
    let jb = std::fs::read_to_string(&b).unwrap();
    assert_ne!(ja, jb);
}
