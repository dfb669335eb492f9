//! What every workload shares about the read and ingest paths: the
//! endpoint rotation `mpa-loadgen` uses, the ingest batch shape of
//! `tests/serve_session.rs`, and an in-process `AnalyticsSession` that is
//! fed batches and read through `mpa_serve::views`.

use crate::trace::{self, fnv1a64, SplitMix};
use mpa_config::{Snapshot, SnapshotMeta};
use mpa_core::{AnalyticsSession, IngestBatch, SessionConfig};
use mpa_model::{DeviceId, NetworkId, Ticket, TicketId, TicketKind, TicketSeverity, Timestamp};
use mpa_serve::views;
use mpa_synth::Dataset;
use std::collections::BTreeMap;
use std::time::Instant;

/// The five GET endpoints, in the order reads rotate through them.
pub const ENDPOINTS: [&str; 5] = [
    "healthz",
    "rankings_mi",
    "causal_summary",
    "predict",
    "practices",
];
const VIEW_SPANS: [&str; 5] = [
    "serve.views.healthz",
    "serve.views.rankings_mi",
    "serve.views.causal_summary",
    "serve.views.predict",
    "serve.views.practices",
];

/// What reads may name: every network, and every `(network, month)` case.
pub struct Targets {
    pub networks: Vec<u32>,
    pub cases: Vec<(u32, usize)>,
}

impl Targets {
    pub fn of(session: &AnalyticsSession) -> Targets {
        Targets {
            networks: session.dataset().networks.iter().map(|n| n.id.0).collect(),
            cases: session
                .table()
                .cases()
                .iter()
                .map(|c| (c.network.0, c.month))
                .collect(),
        }
    }
}

/// Endpoint index and path of read number `seq`: reads split equally over
/// the five endpoints by `seq % 5`, as `mpa-loadgen` splits them, and
/// `/predict` names a real case.
pub fn read_path(seq: usize, t: &Targets) -> (usize, String) {
    let ep = seq % ENDPOINTS.len();
    let path = match ep {
        0 => "/healthz".to_string(),
        1 => "/rankings/mi".to_string(),
        2 => "/causal/summary".to_string(),
        3 => {
            let (net, month) = t.cases[seq % t.cases.len()];
            format!("/predict?network={net}&month={month}")
        }
        _ => format!("/networks/{}/practices", t.networks[seq % t.networks.len()]),
    };
    (ep, path)
}

/// The body `GET` of read `seq` would return, rendered in process.
fn render(session: &AnalyticsSession, seq: usize, t: &Targets) -> Option<String> {
    let analytics = session.analytics_cached()?;
    match seq % ENDPOINTS.len() {
        0 => Some(views::healthz(session)),
        1 => Some(views::mi_ranking(analytics)),
        2 => Some(views::causal_summary(analytics)),
        3 => {
            let (net, month) = t.cases[seq % t.cases.len()];
            views::predict_case(session, NetworkId(net), month)
        }
        _ => views::practices(session, NetworkId(t.networks[seq % t.networks.len()])),
    }
}

/// `n` ingest bodies, each one touch snapshot (a device's newest config
/// re-stated with one comment line appended, one minute later) and one
/// new ticket. Batches touch devices of distinct networks until every
/// network has been touched, then draw the networks again; a device drawn
/// twice re-states its previous touch. Either way the batches are valid in
/// the order given.
pub fn ingest_bodies(ds: &Dataset, seed: u64, n: usize) -> Vec<String> {
    let mut rng = SplitMix::new(seed ^ 0x1e57_ba7c_4e55_0001);
    let mut networks = Vec::new();
    let mut touched: BTreeMap<DeviceId, Snapshot> = BTreeMap::new();
    let first_ticket = ds.tickets.iter().map(|t| t.id.0).max().unwrap_or(0) + 1;
    let horizon = ds.period.total_minutes();
    (0..n)
        .map(|i| {
            if networks.is_empty() {
                networks = ds
                    .networks
                    .iter()
                    .filter(|net| !net.devices.is_empty())
                    .collect();
            }
            // A network drawn uniformly (device counts are heavy-tailed, so
            // drawing devices would favour the few largest networks), then
            // one of its devices.
            let net = networks.swap_remove(rng.below(networks.len()));
            let dev = net.devices[rng.below(net.devices.len())].id;
            let tip = touched.remove(&dev).unwrap_or_else(|| {
                let last = ds
                    .archive
                    .device_metas(dev)
                    .last()
                    .expect("every device has snapshots")
                    .time;
                ds.archive
                    .latest_at(dev, last)
                    .expect("tip snapshot exists")
            });
            let mut text = tip.text;
            text.push_str("! perfbench probe\n");
            let snapshot = Snapshot {
                meta: SnapshotMeta {
                    device: dev,
                    time: Timestamp(tip.meta.time.0 + 1),
                    login: tip.meta.login,
                },
                text,
            };
            touched.insert(dev, snapshot.clone());
            let ticket = Ticket {
                id: TicketId(first_ticket + i as u32),
                network: ds.networks[rng.below(ds.networks.len())].id,
                kind: TicketKind::MonitoringAlarm,
                opened: Timestamp(rng.below(horizon as usize) as u64),
                resolved: None,
                devices: vec![],
                severity: TicketSeverity::Medium,
                symptom: "perfbench probe".to_string(),
            };
            let batch = IngestBatch {
                snapshots: vec![snapshot],
                tickets: vec![ticket],
            };
            serde_json::to_string(&batch).expect("ingest batch serializes")
        })
        .collect()
}

/// An in-process session fed ingest batches one at a time and read
/// through `mpa_serve::views` after each, with the timings of every step.
pub struct Replay {
    session: AnalyticsSession,
    targets: Targets,
    /// Reads rendered so far; read number `seq` picks its endpoint and
    /// target, so the reads do not depend on how the batches are spaced.
    seq: usize,
    pub build_s: f64,
    /// fnv1a64 of the case-table JSON right after the build.
    pub initial_table: u64,
    /// `AnalyticsSession::ingest` alone, per batch.
    pub ingest_ms: Vec<f64>,
    /// `AnalyticsSession::refresh` after each ingest.
    pub refresh_ms: Vec<f64>,
    /// Ingest plus refresh: what the daemon does before it answers.
    pub apply_ms: Vec<f64>,
    /// Case rows each ingest changed, over all cases.
    pub changed_share: Vec<f64>,
    /// `(endpoint, ms)` of every in-process read.
    pub reads: Vec<(usize, f64)>,
}

impl Replay {
    /// Build a session over `dataset`.
    pub fn build(dataset: Dataset) -> Replay {
        let t = Instant::now();
        let session = trace::span("core.session.build", || {
            AnalyticsSession::new(dataset, SessionConfig::default())
        });
        let build_s = t.elapsed().as_secs_f64();
        let initial_table = fnv1a64(
            serde_json::to_string(session.table())
                .expect("case table serializes")
                .as_bytes(),
        );
        Replay {
            targets: Targets::of(&session),
            session,
            seq: 0,
            build_s,
            initial_table,
            ingest_ms: Vec::new(),
            refresh_ms: Vec::new(),
            apply_ms: Vec::new(),
            changed_share: Vec::new(),
            reads: Vec::new(),
        }
    }

    /// Apply one ingest body (ingest, then refresh, as the daemon's ingest
    /// worker does), then render `reads` reads through `mpa_serve::views`.
    pub fn apply(&mut self, body: &str, reads: usize) -> Result<(), String> {
        let batch: IngestBatch =
            serde_json::from_str(body).map_err(|e| format!("ingest body does not parse: {e}"))?;
        let session = &mut self.session;
        let before = session.table().cases().to_vec();
        let t0 = Instant::now();
        trace::span("core.session.ingest", || session.ingest(batch))
            .map_err(|e| format!("in-process ingest rejected: {e}"))?;
        let t1 = Instant::now();
        trace::span("core.session.refresh", || session.refresh());
        let t2 = Instant::now();
        self.ingest_ms.push((t1 - t0).as_secs_f64() * 1e3);
        self.refresh_ms.push((t2 - t1).as_secs_f64() * 1e3);
        self.apply_ms.push((t2 - t0).as_secs_f64() * 1e3);
        let after = session.table().cases();
        let changed = before.iter().zip(after).filter(|(a, b)| a != b).count()
            + before.len().abs_diff(after.len());
        self.changed_share
            .push(changed as f64 / after.len().max(1) as f64);
        for _ in 0..reads {
            let seq = self.seq;
            let ep = seq % ENDPOINTS.len();
            let t0 = Instant::now();
            let body = trace::span(VIEW_SPANS[ep], || render(&self.session, seq, &self.targets));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if std::hint::black_box(body).is_none() {
                return Err(format!(
                    "in-process read {seq} ({}) found nothing",
                    ENDPOINTS[ep]
                ));
            }
            self.reads.push((ep, ms));
            self.seq += 1;
        }
        Ok(())
    }

    pub fn session(&self) -> &AnalyticsSession {
        &self.session
    }
}

/// Build a session over `dataset`, then apply each body in order,
/// rendering `reads_per_ingest` reads after each.
pub fn replay(
    dataset: Dataset,
    bodies: &[String],
    reads_per_ingest: usize,
) -> Result<Replay, String> {
    let mut replay = Replay::build(dataset);
    for body in bodies {
        replay.apply(body, reads_per_ingest)?;
    }
    Ok(replay)
}

/// The bodies of `/rankings/mi`, `/causal/summary` and `/predict` as the
/// session renders them.
pub fn result_views(session: &AnalyticsSession) -> [String; 3] {
    let a = session
        .analytics_cached()
        .expect("replay refreshes after every ingest");
    [
        views::mi_ranking(a),
        views::causal_summary(a),
        views::predict_overview(session, a),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_batches_than_networks_all_apply() {
        let ds = mpa_synth::Scenario::tiny().generate();
        let n = 3 * ds.networks.len();
        let bodies = ingest_bodies(&ds, 7, n);
        let out = replay(ds, &bodies, 0).expect("every batch applies in order");
        assert_eq!(out.apply_ms.len(), n);
        assert_eq!(out.session().events_applied(), 2 * n as u64);
    }
}
