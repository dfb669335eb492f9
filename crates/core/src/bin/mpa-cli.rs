//! `mpa-cli` — the Management Plane Analytics tool.
//!
//! The paper ships MPA as a tool organizations can run on their own data;
//! this binary is that tool for this reproduction. It operates on JSON
//! artifacts so each stage can be run, inspected and re-run independently:
//!
//! ```text
//! mpa-cli generate --scale small --out dataset.json      # synthetic org
//! mpa-cli infer    --dataset dataset.json --out table.json
//! mpa-cli analyze  --table table.json [--causal-top 5]
//! mpa-cli predict  --table table.json [--classes 2|5]
//! mpa-cli report   --table table.json                    # everything
//! ```
//!
//! `infer` consumes a [`mpa_synth::Dataset`] JSON (an organization would
//! produce the same structure from its inventory/NMS/ticket exports);
//! `analyze`/`predict`/`report` consume the case-table JSON, which contains
//! no raw configuration data and is safe to share.

use mpa_core::predict::{
    class_distribution, cross_validation, online_accuracy, render_tree, HealthClasses, ModelKind,
};
use mpa_core::{cmi_ranking, mi_ranking, CausalConfig, TextTable, TreatmentDesign};
use mpa_metrics::{CaseTable, Metric};
use mpa_synth::{CoverageReport, Dataset, DegradeSpec, Scenario};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage_and_exit();
    };
    let opts = Opts::parse(command, &args[1..]);
    if let Some(n) = opts.threads {
        mpa_core::exec::set_threads(n);
    }
    // Spans are the only timer: every phase runs inside a root span, and
    // each root span becomes one `[mpa] <phase>: <elapsed>` stderr line.
    mpa_obs::install_collector();
    let mut coverage = Vec::new();
    match command.as_str() {
        "generate" => coverage = generate(&opts).into_obs(),
        "infer" => infer(&opts),
        "analyze" => analyze(&opts, &opts.load_table()),
        "predict" => predict(&opts, &opts.load_table()),
        "report" => {
            // One load: analyze and predict share the deserialized table.
            let table = opts.load_table();
            analyze(&opts, &table);
            predict(&opts, &table);
        }
        other => {
            eprintln!("unknown command {other:?}");
            usage_and_exit();
        }
    }
    // Gather once: the report drains the span collector.
    let mut report = mpa_obs::RunReport::gather();
    report.coverage = coverage;
    for span in &report.spans {
        eprintln!("[mpa] {}: {:.2?}", span.label, Duration::from_nanos(span.wall_nanos));
    }
    if let Some(path) = &opts.obs_out {
        report.write(path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[mpa] wrote run report {path}");
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "mpa-cli — Management Plane Analytics\n\n\
         usage:\n\
           mpa-cli generate --scale tiny|small|medium|paper [--seed N]\n\
                            [--degrade none|light|heavy|key=rate,...] --out dataset.json\n\
           mpa-cli infer    --dataset dataset.json [--delta MIN] --out table.json\n\
           mpa-cli analyze  --table table.json [--causal-top N]\n\
           mpa-cli predict  --table table.json [--classes 2|5]\n\
           mpa-cli report   --table table.json\n\n\
         every command also accepts --threads N (default: all cores; results\n\
         are identical at any thread count) and --obs-out run.json (write a\n\
         JSON run report: span tree, counters, scheduling, peak RSS)"
    );
    std::process::exit(2);
}

/// Minimal flag parser (no external CLI dependency, per DESIGN.md's crate
/// policy).
#[derive(Default)]
struct Opts {
    scale: Option<String>,
    seed: Option<u64>,
    degrade: Option<DegradeSpec>,
    out: Option<String>,
    dataset: Option<String>,
    table: Option<String>,
    delta: Option<u64>,
    causal_top: Option<usize>,
    classes: Option<u8>,
    threads: Option<usize>,
    obs_out: Option<String>,
}

/// Parse a numeric flag value or exit 2 — an invalid `--seed abc` must
/// never silently fall back to a default.
fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs an unsigned integer, got {raw:?}");
        std::process::exit(2);
    })
}

impl Opts {
    fn parse(command: &str, args: &[String]) -> Opts {
        let mut o = Opts::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next().cloned().unwrap_or_else(|| {
                    eprintln!("flag {flag} needs a value");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => o.scale = Some(value()),
                "--seed" => o.seed = Some(parse_num("--seed", &value())),
                "--degrade" => {
                    // Degradation is a *generation-time* knob; accepting it
                    // on infer/analyze/predict/report would silently do
                    // nothing and let users believe their run was degraded.
                    if command != "generate" {
                        eprintln!(
                            "--degrade only applies to the generate command \
                             (not {command:?}); generate a degraded dataset first"
                        );
                        std::process::exit(2);
                    }
                    let raw = value();
                    o.degrade = Some(DegradeSpec::parse(&raw).unwrap_or_else(|e| {
                        eprintln!("--degrade: {e}");
                        std::process::exit(2);
                    }));
                }
                "--out" => o.out = Some(value()),
                "--dataset" => o.dataset = Some(value()),
                "--table" => o.table = Some(value()),
                "--delta" => o.delta = Some(parse_num("--delta", &value())),
                "--causal-top" => o.causal_top = Some(parse_num("--causal-top", &value())),
                "--classes" => {
                    let n: u8 = parse_num("--classes", &value());
                    if n != 2 && n != 5 {
                        eprintln!("--classes must be 2 or 5, got {n}");
                        std::process::exit(2);
                    }
                    o.classes = Some(n);
                }
                "--threads" => o.threads = Some(parse_num("--threads", &value())),
                "--obs-out" => o.obs_out = Some(value()),
                other => {
                    eprintln!("unknown flag {other:?}");
                    std::process::exit(2);
                }
            }
        }
        o
    }

    fn load_table(&self) -> CaseTable {
        let path = self.table.as_deref().unwrap_or_else(|| {
            eprintln!("--table <file> is required");
            std::process::exit(2);
        });
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        serde_json::from_str(&json).unwrap_or_else(|e| {
            eprintln!("{path} is not a case-table JSON: {e}");
            std::process::exit(1);
        })
    }
}

/// Generate and write a dataset; returns its coverage scan for the run
/// report.
fn generate(opts: &Opts) -> CoverageReport {
    let mut scenario = match opts.scale.as_deref().unwrap_or("small") {
        "tiny" => Scenario::tiny(),
        "small" => Scenario::small(),
        "medium" => Scenario::medium(),
        "paper" => Scenario::paper(),
        other => {
            eprintln!("unknown scale {other:?}");
            std::process::exit(2);
        }
    };
    if let Some(seed) = opts.seed {
        scenario = scenario.with_seed(seed);
    }
    if let Some(degrade) = opts.degrade {
        scenario = scenario.with_degrade(degrade);
    }
    let dataset = mpa_obs::span("generate", || scenario.generate());
    let summary = dataset.summary();
    eprintln!(
        "generated {} networks / {} devices / {} snapshots / {} tickets",
        summary.networks, summary.devices, summary.config_snapshots, summary.tickets
    );
    if scenario.degrade.is_active() {
        let st = &dataset.degrade;
        eprintln!(
            "degraded: {} snapshots dropped / {} kept of {} generated, \
             {} reordered, {} logins ambiguated, {} tickets duplicated, {} corrupted",
            st.snapshots_dropped(),
            st.snapshots_kept(),
            st.snapshots_generated,
            st.snapshots_reordered,
            st.logins_ambiguated,
            st.tickets_duplicated,
            st.tickets_corrupted
        );
    }
    let coverage = CoverageReport::scan(&dataset);
    for dim in ["dialect", "change_type", "stanza_kind", "degrade_knob"] {
        let (ex, total) = coverage.exercised(dim);
        eprintln!("coverage: {dim} {ex}/{total}");
    }
    let out = opts.out.as_deref().unwrap_or("dataset.json");
    let json = serde_json::to_string(&dataset).expect("dataset serializes");
    std::fs::write(out, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    });
    eprintln!("wrote {out}");
    coverage
}

fn infer(opts: &Opts) {
    let path = opts.dataset.as_deref().unwrap_or_else(|| {
        eprintln!("--dataset <file> is required");
        std::process::exit(2);
    });
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let dataset: Dataset = serde_json::from_str(&json).unwrap_or_else(|e| {
        eprintln!("{path} is not a dataset JSON: {e}");
        std::process::exit(1);
    });
    drop(json); // inference needs the decoded dataset, not its text
    let delta = opts.delta.unwrap_or(mpa_metrics::DELTA_DEFAULT_MINUTES);
    let table = mpa_obs::span("infer", || mpa_metrics::infer(&dataset, delta).table);
    eprintln!("inferred {} cases", table.n_cases());
    let out = opts.out.as_deref().unwrap_or("table.json");
    std::fs::write(out, serde_json::to_string(&table).expect("table serializes"))
        .unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        });
    eprintln!("wrote {out}");
}

fn analyze(opts: &Opts, table: &CaseTable) {
    println!("== dependence analysis ({} cases) ==\n", table.n_cases());

    let mi = mpa_obs::span("mi_ranking", || mi_ranking(table, 20));
    let mut t = TextTable::new(vec!["rank", "practice", "cat", "avg monthly MI"]);
    for (i, e) in mi.iter().take(10).enumerate() {
        t.row(vec![
            (i + 1).to_string(),
            e.metric.name().to_string(),
            e.metric.category().tag().to_string(),
            format!("{:.3}", e.mi),
        ]);
    }
    println!("{t}");

    let cmi = mpa_obs::span("cmi_ranking", || cmi_ranking(table));
    let mut t = TextTable::new(vec!["practice pair", "", "CMI"]);
    for e in cmi.iter().take(10) {
        t.row(vec![e.a.name().to_string(), e.b.name().to_string(), format!("{:.3}", e.cmi)]);
    }
    println!("{t}");

    let top = opts.causal_top.unwrap_or(5);
    println!("== causal analysis (top {top} practices, 1:2 bins) ==\n");
    let cfg = CausalConfig::default();
    let mut t = TextTable::new(vec!["treatment", "pairs", "p-value", "balance", "verdict"]);
    // Matching is independent per treatment metric; fan out, render in
    // ranking order. Only the printed 1:2 point is compared.
    let top_entries: Vec<_> = mi.iter().take(top).collect();
    let comparisons = mpa_obs::span("causal", || {
        mpa_core::exec::par_map(&top_entries, |_, e| {
            TreatmentDesign::new(table, e.metric, &cfg).compare(0, &cfg)
        })
    });
    for (e, c) in top_entries.iter().zip(&comparisons) {
        t.row(vec![
            e.metric.name().to_string(),
            c.n_pairs.to_string(),
            c.p_value().map_or("-".into(), TextTable::num),
            if c.balanced(&cfg) { "ok".into() } else { format!("imbal ({})", c.n_imbalanced_covariates) },
            if c.causal(&cfg) { "CAUSAL".into() } else { "-".to_string() },
        ]);
    }
    println!("{t}");
}

fn predict(opts: &Opts, table: &CaseTable) {
    let classes = match opts.classes {
        Some(5) => HealthClasses::Five,
        _ => HealthClasses::Two,
    };
    println!("== health prediction ({:?}) ==\n", classes);

    let dist = class_distribution(table, classes);
    let names = classes.names();
    let mut t = TextTable::new(vec!["class", "cases"]);
    for (name, count) in names.iter().zip(&dist) {
        t.row(vec![name.to_string(), count.to_string()]);
    }
    println!("{t}");

    let mut t = TextTable::new(vec!["model", "5-fold CV accuracy"]);
    mpa_obs::span("predict", || {
        for kind in
            [ModelKind::Dt, ModelKind::DtAb, ModelKind::DtOs, ModelKind::DtAbOs, ModelKind::Majority]
        {
            let ev = cross_validation(table, classes, kind, 7);
            t.row(vec![kind.label().to_string(), format!("{:.3}", ev.accuracy())]);
        }
    });
    println!("{t}");

    let months = table.months().len();
    if months > 3 {
        let mut t = TextTable::new(vec!["history M", "online accuracy"]);
        for m in [1usize, 3, 6, 9] {
            if m + 1 >= months {
                continue;
            }
            let (acc, ev) = online_accuracy(table, classes, ModelKind::Dt, m);
            if ev.n > 0 {
                t.row(vec![m.to_string(), format!("{acc:.3}")]);
            }
        }
        println!("{t}");
    }

    println!("decision tree (top 2 levels):\n{}", render_tree(table, classes, ModelKind::Dt, 2));

    let _ = Metric::ALL; // keep the import tied to the public surface
}
