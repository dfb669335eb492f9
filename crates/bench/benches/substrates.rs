//! Criterion bench: the workspace's computational primitives — config
//! rendering/parsing/diffing, event grouping, MI, propensity fitting,
//! matching, and tree induction. These are the inner loops every experiment
//! pipeline amortizes; tracking them separately localizes regressions.

use criterion::{criterion_group, criterion_main, Criterion};
use mpa_bench::fixtures;
use mpa_config::semantic::{AclRule, DeviceConfig};
use mpa_config::{diff_configs, parse_config, render_config};
use mpa_core::predict::{build_learnset, HealthClasses};
use mpa_core::CausalConfig;
use mpa_metrics::{group_events, infer_case_table, Metric};
use mpa_model::device::Dialect;

fn sample_config(dialect: Dialect) -> DeviceConfig {
    let mut c = DeviceConfig::new("bench-dev", dialect);
    for p in 1..=24 {
        c.set_description(p, format!("link to net0-sw-dev{p}"));
    }
    for v in 0..12 {
        c.assign_interface_vlan(v + 1, 10 + v * 10);
    }
    for a in 0..4 {
        for r in 0..6 {
            c.acl_add_rule(
                &format!("acl-{a}"),
                AclRule { permit: r % 2 == 0, protocol: "tcp".into(), port: 1000 + r },
            );
        }
    }
    c.bgp_add_neighbor(65_000, "10.0.1.1", 65_000);
    c.bgp_add_neighbor(65_000, "10.0.2.1", 65_000);
    c.ospf_advertise(1, "10.0.0.0/16");
    c
}

fn bench_config_substrate(c: &mut Criterion) {
    let mut g = c.benchmark_group("config-substrate");
    for dialect in [Dialect::BlockKeyword, Dialect::BraceHierarchy] {
        let cfg = sample_config(dialect);
        let text = render_config(&cfg);
        let name = format!("{dialect:?}");
        g.bench_function(format!("render/{name}"), |b| b.iter(|| render_config(&cfg)));
        g.bench_function(format!("parse/{name}"), |b| {
            b.iter(|| parse_config(&text, dialect).expect("parses"))
        });
        let old = parse_config(&text, dialect).expect("parses");
        let mut cfg2 = cfg.clone();
        cfg2.assign_interface_vlan(3, 990);
        cfg2.add_user("tmp-bench", "contractor");
        let text2 = render_config(&cfg2);
        let new = parse_config(&text2, dialect).expect("parses");
        g.bench_function(format!("diff/{name}"), |b| b.iter(|| diff_configs(&old, &new)));
    }
    g.finish();
}

fn bench_inference(c: &mut Criterion) {
    let fx = fixtures::tiny();
    let mut g = c.benchmark_group("inference");
    g.sample_size(10);
    g.bench_function("infer_case_table/tiny", |b| b.iter(|| infer_case_table(&fx.dataset)));
    let changes = fx.inference.device_changes.values().next().expect("networks exist");
    g.bench_function("group_events", |b| b.iter(|| group_events(changes, 5)));
    g.finish();
}

fn bench_analytics(c: &mut Criterion) {
    let fx = fixtures::small();
    let table = fx.table();
    let mut g = c.benchmark_group("analytics");
    g.sample_size(10);
    g.bench_function("mi_ranking", |b| b.iter(|| mpa_core::mi_ranking(table, 30)));
    g.bench_function("cmi_ranking", |b| b.iter(|| mpa_core::cmi_ranking(table)));
    g.bench_function("qed_change_events", |b| {
        b.iter(|| mpa_core::analyze_treatment(table, Metric::ChangeEvents, &CausalConfig::default()))
    });
    let set = build_learnset(table, HealthClasses::Five);
    g.bench_function("c45_fit", |b| {
        b.iter(|| mpa_learn::DecisionTree::fit_default(&set.view()))
    });
    g.bench_function("adaboost_fit", |b| {
        b.iter(|| mpa_learn::AdaBoost::fit_default(&set.view()))
    });
    g.finish();
}

criterion_group!(benches, bench_config_substrate, bench_inference, bench_analytics);
criterion_main!(benches);
