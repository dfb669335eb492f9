//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale tiny|small|medium|paper] [--threads N] [--out DIR] \
//!       [--obs-out FILE] [--degrade none|light|heavy|key=rate,...] \
//!       <experiment>... | all | calibrate
//! ```
//!
//! Experiment ids are the paper's table/figure numbers (`table3`, `fig8`,
//! ...) plus `comparison` (opinion vs evidence) and `calibrate` (dataset
//! health check). `all` runs everything and, with `--out`, also writes one
//! text file per experiment — the inputs EXPERIMENTS.md records.
//!
//! `--obs-out FILE` writes an [`mpa_obs::RunReport`] (span tree, counters,
//! scheduling stats, peak RSS) when the process finishes.

use mpa_bench::experiments;
use mpa_bench::fixtures::{by_scale, Fixture, FixtureScale};
use mpa_synth::{CoverageReport, DegradeSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = FixtureScale::Medium;
    let mut out_dir: Option<String> = None;
    let mut obs_out: Option<String> = None;
    let mut degrade = DegradeSpec::none();
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("flag {arg} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--degrade" => {
                degrade = DegradeSpec::parse(&value()).unwrap_or_else(|e| {
                    eprintln!("--degrade: {e}");
                    std::process::exit(2);
                });
            }
            "--scale" => {
                scale = match value().as_str() {
                    "tiny" => FixtureScale::Tiny,
                    "small" => FixtureScale::Small,
                    "medium" => FixtureScale::Medium,
                    "paper" => FixtureScale::Paper,
                    other => {
                        eprintln!("unknown scale {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => out_dir = Some(value()),
            "--obs-out" => obs_out = Some(value()),
            "--threads" => {
                let n = value().parse().unwrap_or_else(|_| {
                    eprintln!("--threads needs a number");
                    std::process::exit(2);
                });
                mpa_exec::set_threads(n);
            }
            other => targets.push(other.to_string()),
        }
    }
    if obs_out.is_some() {
        mpa_obs::install_collector();
    }
    if targets.is_empty() {
        eprintln!(
            "usage: repro [--scale tiny|small|medium|paper] [--threads N] [--out DIR] \
             [--obs-out FILE] [--degrade none|light|heavy|key=rate,...] \
             <experiment>...|all|calibrate"
        );
        eprintln!("experiments: {}", experiments::ALL_EXPERIMENTS.join(" "));
        std::process::exit(2);
    }

    // Degraded scenarios bypass the pristine per-scale cache.
    let custom: Option<Fixture> = degrade
        .is_active()
        .then(|| Fixture::custom(&scale.scenario().with_degrade(degrade)));
    let fx = custom.as_ref().unwrap_or_else(|| by_scale(scale));

    // Publish the scenario coverage scan (RunReport carries it) and print
    // the one-line exercised/total summary per dimension.
    let coverage = CoverageReport::scan(&fx.dataset);
    coverage.publish();
    let summary: Vec<String> = ["dialect", "change_type", "stanza_kind", "degrade_knob"]
        .iter()
        .map(|dim| {
            let (ex, total) = coverage.exercised(dim);
            format!("{dim} {ex}/{total}")
        })
        .collect();
    eprintln!("[mpa] scenario coverage: {}", summary.join(", "));
    let mut ids: Vec<String> = Vec::new();
    for t in targets {
        match t.as_str() {
            "all" => ids.extend(experiments::ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            "ablations" => ids.extend(experiments::ABLATIONS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    for id in &ids {
        let Some(output) = experiments::run(id, fx) else {
            eprintln!("unknown experiment {id:?} (known: {})", experiments::ALL_EXPERIMENTS.join(" "));
            std::process::exit(2);
        };
        println!("{output}");
        println!("{}", "=".repeat(78));
        if let Some(dir) = &out_dir {
            std::fs::write(format!("{dir}/{id}.txt"), &output).expect("write experiment output");
        }
    }
    if let Some(path) = &obs_out {
        let report = mpa_obs::RunReport::gather();
        report.write(path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[mpa] wrote run report {path}");
    }
}
