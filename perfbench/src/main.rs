//! `perfbench` — one benchmark for the MPA pipeline and `mpa-serve`.
//!
//! ```text
//! perfbench --workload infer_paper|study_paper|serve_mixed --seed N
//!           --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]
//! ```
//!
//! Builds its inputs from `--seed`, measures for `--seconds`, checks the
//! outputs, and prints one JSON line last: with `--trace 0` the end-to-end
//! metrics, with `--trace 1` the per-layer metrics, which come from spans
//! the benchmark records around its own calls into each crate. Exits 1
//! when a check fails and 3 when the load generator ran too late for the
//! run to count. `perfbench/run.py` builds everything and runs this.

mod batch;
mod serve;
mod session;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The end-to-end metrics every workload prints, with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("results_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("ok_frac", "ratio"),
];

/// The per-layer metrics a traced run prints, with their units. A layer
/// that does no work on a workload reports 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("synth.generate_s", "s"),
    ("synth.bytes_rendered", "byte"),
    ("synth.render_hit_ratio", "ratio"),
    ("config.lines_interned", "count"),
    ("config.compression", "ratio"),
    ("serde_json.encode_s", "s"),
    ("serde_json.decode_s", "s"),
    ("serde_json.dataset_mib", "MiB"),
    ("serde_json.decode_ns_per_byte", "ns/byte"),
    ("metrics.infer_s", "s"),
    ("metrics.snapshots_visited", "count"),
    ("metrics.distinct_ratio", "ratio"),
    ("metrics.stanzas_reparsed", "count"),
    ("metrics.ns_per_snapshot", "ns/snapshot"),
    ("exec.effective_parallelism", "ratio"),
    ("core.dependence.mi_s", "s"),
    ("core.dependence.cmi_s", "s"),
    ("core.causal.qed_s", "s"),
    ("core.causal.comparisons", "count"),
    ("core.causal.matched_pairs", "count"),
    ("core.causal.support_drops", "count"),
    ("core.causal.ns_per_pair", "ns/pair"),
    ("learn.cv_tree_s", "s"),
    ("learn.cv_boost_s", "s"),
    ("learn.cv_forest_s", "s"),
    ("learn.cv_svm_s", "s"),
    ("core.predict.online_s", "s"),
    ("learn.boost_rounds", "count"),
    ("learn.ns_per_boost_round", "ns/round"),
    ("core.session.build_s", "s"),
    ("core.session.ingest_ms", "ms"),
    ("core.session.refresh_ms", "ms"),
    ("core.session.changed_case_share", "ratio"),
    ("serve.healthz.p50_ms", "ms"),
    ("serve.healthz.p99_ms", "ms"),
    ("serve.practices.p50_ms", "ms"),
    ("serve.practices.p99_ms", "ms"),
    ("serve.rankings_mi.p50_ms", "ms"),
    ("serve.rankings_mi.p99_ms", "ms"),
    ("serve.causal_summary.p50_ms", "ms"),
    ("serve.causal_summary.p99_ms", "ms"),
    ("serve.predict.p50_ms", "ms"),
    ("serve.predict.p99_ms", "ms"),
    ("serve.stalled_read_frac", "ratio"),
    ("serve.conn_wait_p99_ms", "ms"),
    ("serve.queue_peak", "count"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("trace.overhead_setup_s", "s"),
    ("trace.overhead_results_s", "s"),
];

/// Output fingerprints at the default seeds, one `workload seed fnv1a64`
/// line each. A run at one of these seeds must reproduce its line.
const FINGERPRINTS: &str = include_str!("../fingerprints.txt");

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub out_dir: PathBuf,
}

impl Args {
    /// Set-ups per run: three, or four when traced so that two of them
    /// are traced and two are not.
    pub fn setups(&self) -> usize {
        if self.trace {
            4
        } else {
            3
        }
    }

    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut serve_bin = PathBuf::from(".bench_build/release/mpa-serve");
        let mut out_dir = PathBuf::from(".perfbench");
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(parse_seed(&value)?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .map_err(|_| format!("--seconds: {value:?}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    })
                }
                "--serve-bin" => serve_bin = PathBuf::from(value),
                "--out-dir" => out_dir = PathBuf::from(value),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["infer_paper", "study_paper", "serve_mixed"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], got {seconds}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            serve_bin,
            out_dir,
        })
    }
}

fn parse_seed(raw: &str) -> Result<u64, String> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    }
    .map_err(|_| format!("--seed must be an unsigned integer, got {raw:?}"))
}

/// What a workload measured.
pub struct Outcome {
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Layers,
}

/// A snapshot of every `mpa_obs` counter.
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    pub fn now() -> Counters {
        Counters(mpa_obs::counters::snapshot())
    }
}

/// Counter totals since a snapshot, per repeated unit of work.
#[derive(Default)]
pub struct Work(BTreeMap<&'static str, u64>);

impl Work {
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Add the counts of another stretch of the run.
    pub fn add(&mut self, other: Work) {
        for (name, v) in other.0 {
            *self.0.entry(name).or_insert(0) += v;
        }
    }

    /// The counts divided over `units` identical units.
    pub fn per_unit(self, units: u64) -> Work {
        Work(
            self.0
                .into_iter()
                .map(|(name, v)| (name, v / units.max(1)))
                .collect(),
        )
    }
}

/// Run `f` and, when tracing, add the counter growth it caused to the
/// traced work that per-layer self times are divided by.
pub fn with_traced_work<T>(f: impl FnOnce() -> T) -> T {
    if !trace::enabled() {
        return f();
    }
    let before = Counters::now();
    let out = f();
    for (name, v) in counter_diff(&before, 1).0 {
        trace::add_work(name, v);
    }
    out
}

/// Counter growth since `before`, divided over `units` identical units
/// (counters are deterministic, so every unit does the same work).
pub fn counter_diff(before: &Counters, units: u64) -> Work {
    let after = mpa_obs::counters::snapshot();
    Work(
        mpa_obs::counters::snapshot_diff(&before.0, &after)
            .into_iter()
            .collect(),
    )
    .per_unit(units)
}

/// Geometric mean over the five endpoints of each endpoint's median
/// latency, so that a change to any one endpoint moves it. Pooled, the
/// median read falls in the gap between the three light endpoints and the
/// two heavy ones (`/healthz` and practices render the whole fleet or a
/// network's months) and flips between them from run to run; each
/// endpoint's own median does not.
pub fn endpoint_geomean(reads: &[(usize, f64)]) -> f64 {
    let n = session::ENDPOINTS.len();
    let log_sum: f64 = (0..n)
        .map(|ep| {
            let ms: Vec<f64> = reads.iter().filter(|r| r.0 == ep).map(|r| r.1).collect();
            trace::quantile(&ms, 0.5).ln()
        })
        .sum();
    (log_sum / n as f64).exp()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metric values by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Generator and archive work of one corpus build.
    pub fn synth(&mut self, ds: &mpa_synth::Dataset, w: &Work) {
        self.set("synth.bytes_rendered", w.get("gen_bytes_rendered") as f64);
        self.set(
            "synth.render_hit_ratio",
            ratio(w.get("gen_render_cache_hits"), w.get("gen_chunks_rendered")),
        );
        self.set(
            "config.lines_interned",
            w.get("archive_lines_interned") as f64,
        );
        self.set(
            "config.compression",
            ratio(
                ds.archive.total_bytes() as u64,
                ds.archive.text_bytes() as u64,
            ),
        );
    }

    /// Inference wall time and work of one `mpa_metrics::infer` call.
    pub fn infer(&mut self, infer_s: f64, w: &Work) {
        let visited = w.get("parse_snapshots_visited");
        self.set("metrics.infer_s", infer_s);
        self.set("metrics.snapshots_visited", visited as f64);
        self.set(
            "metrics.distinct_ratio",
            ratio(w.get("parse_cache_misses"), visited),
        );
        self.set(
            "metrics.stanzas_reparsed",
            w.get("infer_stanzas_reparsed") as f64,
        );
        self.set(
            "metrics.ns_per_snapshot",
            if visited == 0 {
                0.0
            } else {
                infer_s * 1e9 / visited as f64
            },
        );
    }

    pub fn causal(&mut self, qed_s: f64, w: &Work) {
        let pairs = w.get("causal_matched_pairs");
        self.set("core.causal.qed_s", qed_s);
        self.set(
            "core.causal.comparisons",
            w.get("causal_comparisons") as f64,
        );
        self.set("core.causal.matched_pairs", pairs as f64);
        self.set(
            "core.causal.support_drops",
            w.get("causal_support_drops") as f64,
        );
        self.set(
            "core.causal.ns_per_pair",
            if pairs == 0 {
                0.0
            } else {
                qed_s * 1e9 / pairs as f64
            },
        );
    }

    /// Boosting work: `boost_s` is the wall time of the calls that boost.
    pub fn boost(&mut self, boost_s: f64, w: &Work) {
        let rounds = w.get("boost_rounds");
        self.set("learn.boost_rounds", rounds as f64);
        self.set(
            "learn.ns_per_boost_round",
            if rounds == 0 {
                0.0
            } else {
                boost_s * 1e9 / rounds as f64
            },
        );
    }

    pub fn overhead(&mut self, setup_s: f64, results_s: f64) {
        self.set("trace.overhead_setup_s", setup_s);
        self.set("trace.overhead_results_s", results_s);
    }

    pub fn session(&mut self, r: &session::Replay) {
        self.set("core.session.build_s", r.build_s);
        self.set("core.session.ingest_ms", trace::quantile(&r.ingest_ms, 0.5));
        self.set(
            "core.session.refresh_ms",
            trace::quantile(&r.refresh_ms, 0.5),
        );
        let share = r.changed_share.iter().sum::<f64>() / r.changed_share.len().max(1) as f64;
        self.set("core.session.changed_case_share", share);
    }

    /// Per-endpoint read latencies, `(endpoint index, ms)`.
    pub fn views(&mut self, reads: &[(usize, f64)]) {
        const NAMES: [(&str, &str); 5] = [
            ("serve.healthz.p50_ms", "serve.healthz.p99_ms"),
            ("serve.rankings_mi.p50_ms", "serve.rankings_mi.p99_ms"),
            ("serve.causal_summary.p50_ms", "serve.causal_summary.p99_ms"),
            ("serve.predict.p50_ms", "serve.predict.p99_ms"),
            ("serve.practices.p50_ms", "serve.practices.p99_ms"),
        ];
        for (ep, (p50, p99)) in NAMES.iter().enumerate() {
            let ms: Vec<f64> = reads.iter().filter(|r| r.0 == ep).map(|r| r.1).collect();
            self.set(p50, trace::quantile(&ms, 0.5));
            self.set(p99, trace::quantile(&ms, 0.99));
        }
    }
}

/// The work counter and unit each layer's self time is divided by; other
/// layers count their spans.
const LAYER_WORK: [(&str, &str, &str); 4] = [
    ("synth", "gen_bytes_rendered", "byte"),
    ("metrics", "parse_snapshots_visited", "snapshot"),
    ("core.causal", "causal_matched_pairs", "pair"),
    ("learn", "boost_rounds", "round"),
];

fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or("harness", |(layer, _)| layer)
}

/// Print each layer's self time over the traced units next to its work
/// and the cost per unit of work.
fn print_self_times(traced_work: &BTreeMap<String, u64>) {
    let spans = trace::spans();
    let selfs = trace::self_times(&spans);
    let mut layers: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        let e = layers.entry(layer_of(&s.name)).or_insert((0.0, 0));
        e.0 += t;
        e.1 += 1;
    }
    eprintln!("[perfbench] per-layer self time over the traced units:");
    eprintln!(
        "  {:<18} {:>10} {:>14} {:>10} {:>14}",
        "layer", "self s", "work", "unit", "ns/unit"
    );
    for (layer, (secs, spans)) in layers {
        let (work, unit) = LAYER_WORK
            .iter()
            .find(|(l, _, _)| *l == layer)
            .map_or((spans, "span"), |(_, counter, unit)| {
                (traced_work.get(*counter).copied().unwrap_or(0), *unit)
            });
        let per = if work == 0 {
            0.0
        } else {
            secs * 1e9 / work as f64
        };
        eprintln!("  {layer:<18} {secs:>10.4} {work:>14} {unit:>10} {per:>14.1}");
    }
}

/// The process-wide balance checks every run ends with.
fn balance_checks(c: &BTreeMap<String, u64>, whose: &str) -> Result<(), String> {
    let get = |n: &str| c.get(n).copied().unwrap_or(0);
    let checks = [
        (
            get("parse_cache_hits") + get("parse_cache_misses") == get("parse_snapshots_visited"),
            "parse_cache_hits + parse_cache_misses == parse_snapshots_visited",
        ),
        (
            get("gen_render_cache_hits") + get("gen_render_cache_misses")
                == get("gen_chunks_rendered"),
            "gen_render_cache_hits + gen_render_cache_misses == gen_chunks_rendered",
        ),
        (get("infer_full_parses") == 0, "infer_full_parses == 0"),
    ];
    for (ok, what) in checks {
        if !ok {
            return Err(format!("{whose} counters break {what}"));
        }
    }
    Ok(())
}

fn expected_fingerprint(workload: &str, seed: u64) -> Option<u64> {
    FINGERPRINTS
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                [w, s, h] if *w == workload && parse_seed(s).ok() == Some(seed) => {
                    u64::from_str_radix(h, 16).ok()
                }
                _ => None,
            }
        })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    trace::set_enabled(false);
    let run_id = format!(
        "{}-{:x}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(1);
    }
    let result = match args.workload.as_str() {
        "serve_mixed" => serve::run(&args),
        _ => batch::run(&args),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) if e == serve::INVALID => {
            eprintln!("perfbench: run invalid (load generator too late); no result reported");
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_file(args.out_dir.join(format!("{}-dataset.json", args.workload)));

    let mut correct = true;
    let counters: BTreeMap<String, u64> = mpa_obs::counters::snapshot()
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    if let Err(e) = balance_checks(&counters, "benchmark process") {
        eprintln!("perfbench: CHECK FAILED: {e}");
        correct = false;
    }
    let print = format!("{:016x}", outcome.fingerprint);
    match expected_fingerprint(&args.workload, args.seed) {
        Some(want) if want != outcome.fingerprint => {
            eprintln!("perfbench: CHECK FAILED: output fingerprint {print}, committed {want:016x}");
            correct = false;
        }
        Some(_) => eprintln!("[perfbench] output fingerprint {print} matches the committed one"),
        None => eprintln!(
            "[perfbench] output fingerprint {print} (no committed fingerprint for this seed)"
        ),
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, outcome.layers.get(n), u))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| {
                let value = outcome
                    .e2e
                    .iter()
                    .find(|(name, _)| *name == n)
                    .map(|&(_, v)| v);
                (
                    n,
                    value.expect("every workload measures every end-to-end metric"),
                    u,
                )
            })
            .collect()
    };
    for (name, value) in &outcome.e2e {
        eprintln!("[perfbench] {name} = {value}");
    }
    if args.trace {
        let spans_path = args.out_dir.join(format!("spans-{run_id}.json"));
        if let Err(e) = trace::write(&spans_path, &run_id) {
            eprintln!("perfbench: cannot write {}: {e}", spans_path.display());
        }
        print_self_times(&trace::work());
        for (name, value, _) in &metrics {
            eprintln!("[perfbench] {name} = {value}");
        }
        eprintln!(
            "[perfbench] tracing overhead: setup_s {:+.4} s, results_s {:+.4} s (traced minus untraced medians)",
            outcome.layers.get("trace.overhead_setup_s"),
            outcome.layers.get("trace.overhead_results_s")
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
