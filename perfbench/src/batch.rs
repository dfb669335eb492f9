//! The two batch workloads over the paper-shaped corpus.
//!
//! * `infer_paper` — the CLI hand-off: set-up generates the corpus and
//!   writes the dataset JSON (`mpa-cli generate`); each measured pass
//!   reads and decodes it, infers the case table and ranks practices by MI
//!   (`mpa-cli infer` plus Table 3).
//! * `study_paper` — the paper's §5–6 analytics: set-up generates and
//!   infers in memory; each measured pass runs the MI and CMI rankings,
//!   QED for the top-10 MI practices, the Figure 8 cross-validations and
//!   the Table 9 online accuracies.
//!
//! Between the measured passes both feed an in-process `AnalyticsSession`
//! over the same corpus the serve workload's ingest batches, reading it
//! through `mpa_serve::views` after each: the read and ingest latency of
//! the library path at this corpus size, with no HTTP and no lock.

use crate::session::{self, ENDPOINTS};
use crate::trace::{self, fnv1a64, median};
use crate::{counter_diff, Args, Counters, Layers, Outcome, Work};
use mpa_core::predict::{HealthClasses, ModelKind};
use mpa_core::CausalConfig;
use mpa_learn::ForestVariant;
use mpa_metrics::{CaseTable, DELTA_DEFAULT_MINUTES};
use mpa_synth::{Dataset, Scenario};
use std::path::Path;
use std::time::Instant;

/// Networks in the paper-shaped corpus: a quarter of the paper preset's
/// 860, over its full 17 months, so a run (three set-ups and fifteen
/// seconds of passes) stays near half a minute and under 2.5 GiB.
pub const PAPER_NETWORKS: usize = 215;
/// Ingest batches the in-process session applies in a run.
const SESSION_INGESTS: usize = 40;
/// Of those, applied before each measured pass; the rest follow the last.
const INGESTS_PER_PASS: usize = 10;
/// In-process reads after each of those ingests.
const READS_PER_INGEST: usize = 500;

/// The paper preset (its seed, 17 months, generator settings) over
/// `PAPER_NETWORKS` networks. The corpus does not vary with the workload
/// seed: corpus size swings up to 2× from one generator seed to the next,
/// far more than any bound a timing could keep.
pub fn scenario() -> Scenario {
    let mut s = Scenario::paper();
    s.org.n_networks = PAPER_NETWORKS;
    s
}

/// One repeated unit of a run (a set-up or a measured pass) and whether it
/// was traced. Traced runs alternate untraced and traced units, so the
/// difference of their medians is the tracing overhead.
struct Timed {
    secs: f64,
    traced: bool,
}

fn timed<T>(units: &mut Vec<Timed>, name: &str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = crate::with_traced_work(|| trace::span(name, f));
    units.push(Timed {
        secs: t.elapsed().as_secs_f64(),
        traced: trace::enabled(),
    });
    out
}

fn untraced_median(units: &[Timed]) -> f64 {
    median(
        &units
            .iter()
            .filter(|u| !u.traced)
            .map(|u| u.secs)
            .collect::<Vec<_>>(),
    )
}

fn traced_median(units: &[Timed]) -> f64 {
    median(
        &units
            .iter()
            .filter(|u| u.traced)
            .map(|u| u.secs)
            .collect::<Vec<_>>(),
    )
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let infer = args.workload == "infer_paper";
    // The analytics run at one thread: at two, whole runs settled into a
    // fast or a slow mode as the workers' allocator arenas happened to fill
    // (peak RSS 327–438 MiB, passes 4.0–5.0 s over ten runs).
    mpa_exec::set_threads(if infer { 2 } else { 1 });
    let scn = scenario();
    let dataset_path = args.out_dir.join(format!("{}-dataset.json", args.workload));
    let mut layers = Layers::default();

    // Set-up, several times; the last corpus is kept.
    let mut setups = Vec::new();
    let mut dataset: Option<(Dataset, Option<CaseTable>)> = None;
    let setup_counters = Counters::now();
    for i in 0..args.setups() {
        trace::set_enabled(args.trace && i % 2 == 1);
        drop(dataset.take()); // one corpus in memory at a time
        let built = timed(&mut setups, "setup", || -> Result<_, String> {
            let ds = trace::span("synth.generate", || scn.generate());
            if infer {
                let json = trace::span("serde_json.encode", || {
                    serde_json::to_string(&ds).expect("dataset serializes")
                });
                trace::span("io.write", || std::fs::write(&dataset_path, &json))
                    .map_err(|e| format!("cannot write {}: {e}", dataset_path.display()))?;
                Ok((ds, None))
            } else {
                let table = trace::span("metrics.infer", || {
                    mpa_metrics::infer(&ds, DELTA_DEFAULT_MINUTES).table
                });
                Ok((ds, Some(table)))
            }
        })?;
        dataset = Some(built);
    }
    trace::set_enabled(false);
    let setup_work = counter_diff(&setup_counters, args.setups() as u64);
    let (dataset, setup_table) = dataset.expect("at least one set-up");
    let setup_peak_mib = mpa_obs::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    layers.synth(&dataset, &setup_work);

    // The session the ingest batches go to, over the last set-up's corpus.
    let bodies = session::ingest_bodies(&dataset, args.seed, SESSION_INGESTS);
    trace::set_enabled(args.trace);
    let mut replay = trace::span("session", || session::Replay::build(dataset));
    let mut pending = bodies.iter();
    let mut apply = |replay: &mut session::Replay, n: usize| {
        trace::set_enabled(args.trace);
        let out = trace::span("session", || {
            pending
                .by_ref()
                .take(n)
                .try_for_each(|body| replay.apply(body, READS_PER_INGEST))
        });
        trace::set_enabled(false);
        out
    };

    // Measured passes, until they have taken `--seconds` (at least two),
    // every second one traced when the run is. A share of the session's
    // batches goes before each, so that its read and ingest samples spread
    // over the run as the passes do: a shared host's speed drifts within
    // seconds, and samples bunched in one stretch of a run inherit that
    // stretch's speed.
    let mut passes: Vec<Timed> = Vec::new();
    let mut prints: Vec<u64> = Vec::new();
    let mut table_print = 0u64;
    let mut last_study: Option<Study> = None;
    let mut pass_work = Work::default();
    let (mut region_wall, mut region_busy) = (0u64, 0u64);
    while passes.len() < 2 || passes.iter().map(|u| u.secs).sum::<f64>() < args.seconds {
        apply(&mut replay, INGESTS_PER_PASS)?;
        trace::set_enabled(args.trace && passes.len() % 2 == 1);
        let counters = Counters::now();
        let sched = mpa_obs::sched::snapshot();
        if infer {
            let (table, mi) = timed(&mut passes, "pass", || infer_pass(&dataset_path))?;
            let table_json = serde_json::to_string(&table).expect("case table serializes");
            table_print = fnv1a64(table_json.as_bytes());
            let mi_json = serde_json::to_string(&mi).expect("MI ranking serializes");
            prints.push(fnv1a64(format!("{table_json}{mi_json}").as_bytes()));
        } else {
            let table = setup_table.as_ref().expect("study set-up infers");
            let results = timed(&mut passes, "pass", || study_pass(table));
            prints.push(results.check(table)?);
            last_study = Some(results);
        }
        let done = mpa_obs::sched::snapshot();
        region_wall += done.region_wall_ns.saturating_sub(sched.region_wall_ns);
        region_busy += done.region_busy_ns.saturating_sub(sched.region_busy_ns);
        pass_work.add(counter_diff(&counters, 1));
    }
    trace::set_enabled(false);
    apply(&mut replay, SESSION_INGESTS)?;
    let pass_work = pass_work.per_unit(passes.len() as u64);
    let show = |units: &[Timed]| {
        units
            .iter()
            .map(|u| format!("{:.3}{}", u.secs, if u.traced { "t" } else { "" }))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "[perfbench] set-ups (s): {}; passes (s, t = traced): {}",
        show(&setups),
        show(&passes)
    );
    if prints.iter().any(|p| *p != prints[0]) {
        return Err(format!(
            "measured passes disagree: fingerprints {prints:x?}"
        ));
    }
    layers.set(
        "exec.effective_parallelism",
        if region_wall == 0 {
            1.0
        } else {
            region_busy as f64 / region_wall as f64
        },
    );

    // Set-ups, passes and the session between them.
    let peak_rss_mib = mpa_obs::peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    eprintln!(
        "[perfbench] peak RSS: {setup_peak_mib:.1} MiB after the set-ups, {peak_rss_mib:.1} MiB after the passes and the session"
    );

    // Before its first ingest the session's case table, inferred from the
    // in-memory corpus, must equal the one the passes produced (for
    // `infer_paper`, from the decoded file: the hand-off must not change
    // it).
    let expected = match &setup_table {
        Some(table) => fnv1a64(
            serde_json::to_string(table)
                .expect("case table serializes")
                .as_bytes(),
        ),
        None => table_print,
    };
    if replay.initial_table != expected {
        return Err(format!(
            "session case table {:016x} differs from the measured passes' {expected:016x}",
            replay.initial_table
        ));
    }
    if let Some(study) = &last_study {
        let pairs: usize = study
            .qed
            .iter()
            .flat_map(|a| &a.comparisons)
            .map(|c| c.n_pairs)
            .sum();
        if pass_work.get("causal_matched_pairs") != pairs as u64 {
            return Err(format!(
                "causal_matched_pairs counted {} per pass, the comparisons hold {pairs}",
                pass_work.get("causal_matched_pairs")
            ));
        }
    }

    // The passes' outputs and the session's results after the seeded
    // ingests.
    let fingerprint = fnv1a64(
        format!(
            "{:016x}{}",
            prints[0],
            session::result_views(replay.session()).concat()
        )
        .as_bytes(),
    );

    let spans = trace::spans();
    if args.trace {
        layers.set(
            "serde_json.encode_s",
            median(&trace::per_root(&spans, "setup", "serde_json.encode")),
        );
        layers.set(
            "synth.generate_s",
            median(&trace::per_root(&spans, "setup", "synth.generate")),
        );
        let infer_where = if infer { "pass" } else { "setup" };
        let infer_s = median(&trace::per_root(&spans, infer_where, "metrics.infer"));
        let infer_work = if infer { &pass_work } else { &setup_work };
        layers.infer(infer_s, infer_work);
        if infer {
            let decode_s = median(&trace::per_root(&spans, "pass", "serde_json.decode"));
            let bytes = std::fs::metadata(&dataset_path)
                .map(|m| m.len())
                .unwrap_or(0) as f64;
            layers.set("serde_json.decode_s", decode_s);
            layers.set(
                "serde_json.decode_ns_per_byte",
                decode_s * 1e9 / bytes.max(1.0),
            );
        }
        for (metric, span) in [
            ("core.dependence.mi_s", "core.dependence.mi"),
            ("core.dependence.cmi_s", "core.dependence.cmi"),
            ("learn.cv_tree_s", "learn.cv_tree"),
            ("learn.cv_boost_s", "learn.cv_boost"),
            ("learn.cv_forest_s", "learn.cv_forest"),
            ("learn.cv_svm_s", "learn.cv_svm"),
        ] {
            layers.set(metric, median(&trace::per_root(&spans, "pass", span)));
        }
        let qed_s = median(&trace::per_root(&spans, "pass", "core.causal.qed"));
        layers.causal(qed_s, &pass_work);
        let online = median(&trace::per_root(&spans, "pass", "core.predict.online"));
        let online_boost = median(&trace::per_root(
            &spans,
            "pass",
            "core.predict.online_boost",
        ));
        layers.set("core.predict.online_s", online + online_boost);
        let boost_s = layers.get("learn.cv_boost_s") + online_boost;
        layers.boost(boost_s, &pass_work);
        layers.overhead(
            traced_median(&setups) - untraced_median(&setups),
            traced_median(&passes) - untraced_median(&passes),
        );
    }
    if let Ok(meta) = std::fs::metadata(&dataset_path) {
        layers.set(
            "serde_json.dataset_mib",
            meta.len() as f64 / (1024.0 * 1024.0),
        );
    }
    layers.session(&replay);
    layers.views(&replay.reads);

    let reads: Vec<f64> = replay.reads.iter().map(|&(_, ms)| ms).collect();
    let attempted = (setups.len() + passes.len() + replay.apply_ms.len() + reads.len()) as u64;
    eprintln!(
        "[perfbench] {}: {} set-ups, {} passes, {} in-process reads over {} endpoints, {} ingests",
        args.workload,
        setups.len(),
        passes.len(),
        reads.len(),
        ENDPOINTS.len(),
        replay.apply_ms.len()
    );
    Ok(Outcome {
        fingerprint,
        attempted,
        failed: 0,
        e2e: vec![
            ("setup_s", untraced_median(&setups)),
            ("results_s", untraced_median(&passes)),
            ("peak_rss_mib", peak_rss_mib),
            ("read_p50_ms", crate::endpoint_geomean(&replay.reads)),
            ("read_p99_ms", trace::quantile(&reads, 0.99)),
            ("ingest_p50_ms", trace::quantile(&replay.apply_ms, 0.5)),
            ("ok_frac", 1.0),
        ],
        layers,
    })
}

/// Read, decode, infer and rank: what `mpa-cli infer` does, plus Table 3.
fn infer_pass(path: &Path) -> Result<(CaseTable, Vec<mpa_core::MiEntry>), String> {
    let text = trace::span("io.read", || std::fs::read_to_string(path))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut ds: Dataset = trace::span("serde_json.decode", || serde_json::from_str(&text))
        .map_err(|e| format!("dataset does not decode: {e}"))?;
    drop(text);
    ds.inventory.rebuild_index();
    let table = trace::span("metrics.infer", || {
        mpa_metrics::infer(&ds, DELTA_DEFAULT_MINUTES).table
    });
    let mi = trace::span("core.dependence.mi", || mpa_core::mi_ranking(&table, 20));
    Ok((table, mi))
}

/// Everything one `study_paper` pass computes.
struct Study {
    mi: Vec<mpa_core::MiEntry>,
    cmi: Vec<mpa_core::CmiEntry>,
    qed: Vec<mpa_core::CausalAnalysis>,
    cv: Vec<(&'static str, mpa_learn::Evaluation)>,
    online: Vec<(f64, mpa_learn::Evaluation)>,
}

/// Figure 8's cross-validations: the model ladder at 2 and 5 classes, the
/// baselines at 2, each under the span of its learner family.
const CV_RUNS: [(ModelKind, HealthClasses, &str); 13] = [
    (ModelKind::Dt, HealthClasses::Two, "learn.cv_tree"),
    (ModelKind::DtAb, HealthClasses::Two, "learn.cv_boost"),
    (ModelKind::DtOs, HealthClasses::Two, "learn.cv_tree"),
    (ModelKind::DtAbOs, HealthClasses::Two, "learn.cv_boost"),
    (ModelKind::Dt, HealthClasses::Five, "learn.cv_tree"),
    (ModelKind::DtAb, HealthClasses::Five, "learn.cv_boost"),
    (ModelKind::DtOs, HealthClasses::Five, "learn.cv_tree"),
    (ModelKind::DtAbOs, HealthClasses::Five, "learn.cv_boost"),
    (ModelKind::Majority, HealthClasses::Two, "learn.cv_majority"),
    (ModelKind::Svm, HealthClasses::Two, "learn.cv_svm"),
    (
        ModelKind::Forest(ForestVariant::Plain),
        HealthClasses::Two,
        "learn.cv_forest",
    ),
    (
        ModelKind::Forest(ForestVariant::Balanced),
        HealthClasses::Two,
        "learn.cv_forest",
    ),
    (
        ModelKind::Forest(ForestVariant::Weighted),
        HealthClasses::Two,
        "learn.cv_forest",
    ),
];

fn study_pass(table: &CaseTable) -> Study {
    let mi = trace::span("core.dependence.mi", || mpa_core::mi_ranking(table, 20));
    let cmi = trace::span("core.dependence.cmi", || mpa_core::cmi_ranking(table));
    let qed = trace::span("core.causal.qed", || {
        let cfg = CausalConfig::default();
        let top: Vec<_> = mi.iter().take(10).collect();
        mpa_exec::par_map(&top, |_, e| {
            mpa_core::analyze_treatment(table, e.metric, &cfg)
        })
    });
    let cv = CV_RUNS
        .iter()
        .map(|&(kind, classes, span)| {
            (
                kind.label(),
                trace::span(span, || mpa_core::cross_validation(table, classes, kind, 7)),
            )
        })
        .collect();
    let mut online = Vec::new();
    for m in [1usize, 3, 6, 9] {
        online.push(trace::span("core.predict.online", || {
            mpa_core::online_accuracy(table, HealthClasses::Two, ModelKind::Dt, m)
        }));
        online.push(trace::span("core.predict.online_boost", || {
            mpa_core::online_accuracy(table, HealthClasses::Five, ModelKind::DtAbOs, m)
        }));
    }
    Study {
        mi,
        cmi,
        qed,
        cv,
        online,
    }
}

impl Study {
    /// Check the results hang together and fingerprint them.
    fn check(&self, table: &CaseTable) -> Result<u64, String> {
        let n = table.n_cases();
        for (label, ev) in &self.cv {
            let total: usize = ev.confusion.iter().flatten().sum();
            if ev.n != n || total != n {
                return Err(format!(
                    "{label} CV scored {} cases ({total} in its confusion matrix) of {n}",
                    ev.n
                ));
            }
        }
        if self.mi.windows(2).any(|w| w[0].mi < w[1].mi) {
            return Err("MI ranking is not sorted".into());
        }
        if self.qed.len() != 10
            || self
                .online
                .iter()
                .any(|(acc, _)| !(0.0..=1.0).contains(acc))
        {
            return Err("QED or online accuracy results out of shape".into());
        }
        let mut text = String::new();
        text.push_str(&serde_json::to_string(&self.mi).expect("serializes"));
        text.push_str(&serde_json::to_string(&self.cmi).expect("serializes"));
        text.push_str(&serde_json::to_string(&self.qed).expect("serializes"));
        for (label, ev) in &self.cv {
            text.push_str(label);
            text.push_str(&serde_json::to_string(&ev.confusion).expect("serializes"));
        }
        for (acc, ev) in &self.online {
            text.push_str(&format!("{acc:?}"));
            text.push_str(&serde_json::to_string(&ev.confusion).expect("serializes"));
        }
        Ok(fnv1a64(text.as_bytes()))
    }
}
