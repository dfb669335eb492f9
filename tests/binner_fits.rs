//! The discretization work counter, `binner_fits`: a case table is binned
//! once, in its binned view, and every analytic that reads the table reads
//! that view. The counter is process-wide, so this file holds a single
//! test: no test running beside it can tick it between the reads.

use mpa::analytics::{AnalyticsSession, IngestBatch, SessionConfig};
use mpa::model::TicketId;
use mpa::prelude::*;
use mpa_obs::counters::BINNER_FITS;

/// What `f` returns and the binners it fitted.
fn fits<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BINNER_FITS.get();
    let out = f();
    (out, BINNER_FITS.get() - before)
}

#[test]
fn each_case_table_is_binned_once() {
    // Starting a session infers the table and refreshes it: MI, the five
    // treatment designs and the tree all read one view of 28 metric
    // columns and the tickets.
    let (mut session, n) =
        fits(|| AnalyticsSession::new(Scenario::small().generate(), SessionConfig::default()));
    assert_eq!(n, 29, "a session's first refresh");

    // An accepted batch replaces the table, and the next refresh bins the
    // new one, once.
    let mut ticket = session.dataset().tickets[0].clone();
    ticket.id = TicketId(900_000);
    session
        .ingest(IngestBatch { snapshots: vec![], tickets: vec![ticket] })
        .expect("a ticket for a known network");
    let ((), n) = fits(|| session.refresh());
    assert_eq!(n, 29, "a refresh after an ingest");

    // The batch analytics share a fresh table's view the same way.
    let table = infer_case_table(session.dataset());
    let cfg = CausalConfig::default();
    let ((), n) = fits(|| {
        let mi = mi_ranking(&table, 20);
        cmi_ranking(&table);
        for e in mi.iter().take(5) {
            analyze_treatment(&table, e.metric, &cfg);
        }
        cross_validation(&table, HealthClasses::Five, ModelKind::Dt, 7);
        build_learnset(&table, HealthClasses::Two);
    });
    assert_eq!(n, 29, "MI, CMI, five QEDs and a cross-validation over one table");

    // Online prediction fits an encoder on each training slice instead:
    // 28 columns per month it predicts. On a table with no view yet, a
    // view would add 29.
    let table = infer_case_table(session.dataset());
    let ((_, ev), n) = fits(|| online_accuracy(&table, HealthClasses::Two, ModelKind::Dt, 3));
    assert!(ev.n > 0, "no month was predicted");
    assert!(n > 0 && n % 28 == 0, "online prediction fitted {n}");
}
