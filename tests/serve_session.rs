//! Ingest-equals-batch, as a property: feeding a sequence of random event
//! batches through [`AnalyticsSession::ingest`] must leave the session,
//! after every batch, in exactly the state a **cold** session built over
//! the corpus extended so far would have — byte-identical case-table JSON
//! and byte-identical `mpa-serve` view renders. This is the consistency
//! contract the daemon's `/ingest` endpoint advertises; the serve crate's
//! own integration tests pin the HTTP layer to the session, and this test
//! pins the session to the cold batch run.
//!
//! One session absorbs 1–4 batches in order, so state the session carries
//! from one ingest to the next (its line classes and ticket counts) is
//! checked too. Batches mix the two event streams: snapshots that re-state
//! a device's tip config plus a stanza no earlier snapshot has (so the
//! archive interns new lines), on devices of both dialects; and tickets —
//! often on networks no snapshot of the batch touched — in months with a
//! case, in months without one, outside the study period, and of the
//! planned-maintenance kind that health does not count.

use mpa::analytics::{AnalyticsSession, IngestBatch, SessionConfig};
use mpa::config::{Snapshot, SnapshotMeta};
use mpa::model::device::Dialect;
use mpa::model::{DeviceId, TicketId, TicketKind, TicketSeverity, Timestamp};
use mpa::prelude::*;
use mpa_serve::views;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A snapshot that re-states `dev`'s newest config, `bump` minutes after
/// the device's current tip, with one stanza named by `tag` appended.
fn touch_snapshot(
    ds: &Dataset,
    dev: DeviceId,
    dialect: Dialect,
    bump: u64,
    tag: &str,
) -> Snapshot {
    let metas = ds.archive.device_metas(dev);
    let last = metas.last().expect("device has snapshots");
    let tip = ds.archive.latest_at(dev, last.time).expect("tip snapshot exists");
    let mut text = tip.text;
    text.push_str(&match dialect {
        Dialect::BlockKeyword => format!("interface probe{tag}\n description batch {tag}\n"),
        Dialect::BraceHierarchy => {
            format!("probe-{tag} {{\n    description \"batch {tag}\";\n}}\n")
        }
    });
    Snapshot {
        meta: SnapshotMeta {
            device: dev,
            time: Timestamp(last.time.0 + bump),
            login: tip.meta.login,
        },
        text,
    }
}

/// Build batch `b` over the corpus as extended so far. A device pick `p`
/// touches a device of dialect `p % 2` (batch 0 always touches one of
/// each); a ticket pick `(net, at, kind)` files a ticket against network
/// `net` whose month and kind `kind` selects.
fn build_batch(
    ds: &Dataset,
    b: usize,
    dev_picks: &[usize],
    ticket_picks: &[(usize, usize, usize)],
) -> IngestBatch {
    let mut by_dialect: BTreeMap<bool, Vec<(DeviceId, Dialect)>> = BTreeMap::new();
    for dev in ds.networks.iter().flat_map(|n| &n.devices) {
        let d = dev.dialect();
        by_dialect.entry(d == Dialect::BlockKeyword).or_default().push((dev.id, d));
    }
    let first = if b == 0 { vec![0, 1] } else { vec![] };
    let mut bumps: BTreeMap<DeviceId, u64> = BTreeMap::new();
    let snapshots = first
        .iter()
        .chain(dev_picks)
        .enumerate()
        .map(|(i, &p)| {
            let pool = by_dialect
                .get(&(p % 2 == 0))
                .or_else(|| by_dialect.values().next())
                .expect("the corpus has devices");
            let (dev, dialect) = pool[p / 2 % pool.len()];
            let bump = bumps.entry(dev).or_insert(0);
            *bump += 1;
            touch_snapshot(ds, dev, dialect, *bump, &format!("{b}x{i}"))
        })
        .collect();
    let months = ds.period.n_months();
    let tickets = ticket_picks
        .iter()
        .enumerate()
        .map(|(i, &(net, at, kind))| {
            let net = ds.networks[net % ds.networks.len()].id;
            let uncovered = (0..months).find(|&m| !ds.is_logged(net, m));
            let (month, kind) = match kind {
                0 => (Some(at % months), TicketKind::MonitoringAlarm),
                1 => (uncovered.or(Some(at % months)), TicketKind::UserReport),
                2 => (Some(at % months), TicketKind::PlannedMaintenance),
                _ => (None, TicketKind::UserReport),
            };
            let opened = match month {
                Some(m) => Timestamp(ds.period.month_start(m).0 + (at % 1_000) as u64),
                None => Timestamp(ds.period.total_minutes() + at as u64),
            };
            Ticket {
                id: TicketId(800_000 + (b * 100 + i) as u32),
                network: net,
                kind,
                opened,
                resolved: None,
                devices: vec![],
                severity: TicketSeverity::Medium,
                symptom: "serve-session probe".to_string(),
            }
        })
        .collect();
    IngestBatch { snapshots, tickets }
}

/// Render every corpus-derived serve view. `/healthz` is excluded on
/// purpose: it reports `events_applied`, which is session metadata (how
/// the corpus got here), not corpus state.
fn render_views(session: &mut AnalyticsSession) -> Vec<String> {
    session.refresh();
    let mut out = Vec::new();
    let nets: Vec<NetworkId> = session.dataset().networks.iter().map(|n| n.id).collect();
    for net in nets {
        if let Some(v) = views::practices(session, net) {
            out.push(v);
        }
    }
    let analytics = session.analytics_cached().expect("just refreshed");
    out.push(views::mi_ranking(analytics));
    out.push(views::causal_summary(analytics));
    out.push(views::predict_overview(session, analytics));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ingest_leaves_the_session_identical_to_a_cold_batch_run(
        seed in 0u64..1_000,
        batches in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..1_000, 0..4),
                proptest::collection::vec((0usize..1_000, 0usize..100_000, 0usize..4), 0..5),
            ),
            1..5,
        ),
    ) {
        let dataset = Scenario::tiny().with_seed(seed).generate();
        let config = SessionConfig::default();
        let mut online = AnalyticsSession::new(dataset.clone(), config);
        let mut extended = dataset;
        let mut events = 0;
        for (b, (dev_picks, ticket_picks)) in batches.iter().enumerate() {
            let batch = build_batch(&extended, b, dev_picks, ticket_picks);
            let lines_before = extended.archive.n_interned_lines();

            // Online path: the resident session absorbs one more batch.
            let outcome = online.ingest(batch.clone()).expect("valid batch accepted");
            events += batch.len() as u64;
            let touched: BTreeSet<NetworkId> = batch
                .snapshots
                .iter()
                .filter_map(|s| extended.inventory.device_record(s.meta.device))
                .map(|r| r.network)
                .collect();
            prop_assert_eq!(outcome.snapshots, batch.snapshots.len());
            prop_assert_eq!(outcome.tickets, batch.tickets.len());
            prop_assert_eq!(outcome.networks_reinferred, touched.len());
            prop_assert_eq!(outcome.events_applied, events);

            // Cold path: extend the corpus, then build from scratch.
            for snap in batch.snapshots {
                extended.archive.push(snap).expect("ordered snapshot");
            }
            extended.tickets.extend(batch.tickets);
            let grew = extended.archive.n_interned_lines() > lines_before;
            prop_assert!(grew || dev_picks.is_empty() && b > 0, "batch {} interned nothing", b);
            let mut cold = AnalyticsSession::new(extended.clone(), config);

            let online_table = serde_json::to_string(online.table()).expect("serializes");
            let cold_table = serde_json::to_string(cold.table()).expect("serializes");
            prop_assert_eq!(online_table, cold_table);
            prop_assert_eq!(render_views(&mut online), render_views(&mut cold));
        }
    }
}
