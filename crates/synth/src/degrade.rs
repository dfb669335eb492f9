//! Seeded degradation of a simulated network's artifacts.
//!
//! The paper's corpus is messy by nature: the NMS misses snapshot windows,
//! devices join the archive late, syslog-triggered snapshots arrive with
//! skewed clocks, and the incident system holds duplicate and half-filled
//! tickets (§2.1 lists exactly these caveats). Our substrate is clean by
//! construction, so this module re-introduces the mess *deterministically*:
//! every knob is a probability in `[0, 1]`, every draw comes from the same
//! per-network RNG stream as generation itself, and every artifact touched
//! is counted in [`DegradeStats`] so downstream invariants
//! (`kept + dropped == generated`) are checkable in the RunReport.
//!
//! Degradation runs on the worker threads, per network, *after*
//! `simulate_network` — the ground truth ([`crate::ops::MonthTruth`])
//! is recorded from the pristine simulation, so experiments can measure how
//! far degraded inference drifts from what actually happened.

use crate::ops::NetworkSimOutput;
use mpa_config::{Login, SnapshotArchive};
use mpa_model::{StudyPeriod, TicketId};
use mpa_stats::Sampler;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Shared accounts a degraded snapshot's login is replaced with. None of
/// them appear in the organization's [`mpa_config::UserDirectory`], so the
/// automated/manual classifier must fall back to its conservative default
/// (manual) — exactly the ambiguity the paper acknowledges for scripts run
/// under regular accounts.
const AMBIGUOUS_LOGINS: &[&str] = &["shared-console", "netops", "root"];

/// Symptom string stamped onto corrupted ticket records.
const CORRUPT_SYMPTOM: &str = "corrupted-record";

/// Degradation knobs. Each field is an independent probability; the
/// default ([`DegradeSpec::none`]) draws no RNG at all, keeping pristine
/// generation byte-identical to pre-degradation builds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DegradeSpec {
    /// Per device: probability that an interior window of its snapshot
    /// history is lost (the NMS was down; the feed was interrupted).
    pub miss_window: f64,
    /// Per device: probability that the tail of its history is missing
    /// (the device was decommissioned from monitoring mid-study).
    pub truncate: f64,
    /// Per adjacent snapshot pair: probability their timestamps are
    /// swapped (clock skew between the device and the collector).
    pub reorder: f64,
    /// Per ticket: probability a duplicate record is filed (operators
    /// double-entering the same incident).
    pub dup_ticket: f64,
    /// Per ticket: probability the record is corrupted — resolution
    /// cleared, symptom replaced, and possibly timestamped outside the
    /// study period entirely.
    pub corrupt_ticket: f64,
    /// Per snapshot: probability the login is replaced with a shared
    /// account unknown to the user directory.
    pub ambiguous_login: f64,
}

impl DegradeSpec {
    /// No degradation (the default): generation is bit-identical to a
    /// build without the degradation layer.
    pub fn none() -> Self {
        Self::default()
    }

    /// Mild mess: a few percent of artifacts touched. Comparable to a
    /// well-run NMS with occasional collector downtime.
    pub fn light() -> Self {
        Self {
            miss_window: 0.05,
            truncate: 0.03,
            reorder: 0.02,
            dup_ticket: 0.05,
            corrupt_ticket: 0.03,
            ambiguous_login: 0.05,
        }
    }

    /// Heavy mess: a quarter of devices lose windows, a quarter of
    /// snapshots lose attributable logins. Past the paper's plausible
    /// range — useful as a stress ceiling.
    pub fn heavy() -> Self {
        Self {
            miss_window: 0.25,
            truncate: 0.15,
            reorder: 0.10,
            dup_ticket: 0.20,
            corrupt_ticket: 0.15,
            ambiguous_login: 0.25,
        }
    }

    /// Whether any knob is nonzero. Inactive specs skip the degradation
    /// pass entirely (no RNG draws, no archive rebuild).
    pub fn is_active(&self) -> bool {
        self.miss_window > 0.0
            || self.truncate > 0.0
            || self.reorder > 0.0
            || self.dup_ticket > 0.0
            || self.corrupt_ticket > 0.0
            || self.ambiguous_login > 0.0
    }

    /// The knobs as `(name, rate)` pairs, in declaration order. The names
    /// double as the coverage report's `degrade_knob` dimension items.
    pub fn knobs(&self) -> [(&'static str, f64); 6] {
        [
            ("miss_window", self.miss_window),
            ("truncate", self.truncate),
            ("reorder", self.reorder),
            ("dup_ticket", self.dup_ticket),
            ("corrupt_ticket", self.corrupt_ticket),
            ("ambiguous_login", self.ambiguous_login),
        ]
    }

    /// Parse a `--degrade` spec: a preset name (`none`, `light`, `heavy`)
    /// or a comma-separated `key=rate` list over the knob keys `miss`,
    /// `trunc`, `reorder`, `duptick`, `corrupt`, `login`, e.g.
    /// `miss=0.1,login=0.25`. Unlisted keys stay 0. Rates must be finite
    /// and within `[0, 1]`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.trim() {
            "none" => return Ok(Self::none()),
            "light" => return Ok(Self::light()),
            "heavy" => return Ok(Self::heavy()),
            "" => return Err("empty degrade spec".to_string()),
            _ => {}
        }
        let mut out = Self::none();
        for part in spec.split(',') {
            let part = part.trim();
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=rate, got '{part}'"))?;
            let rate: f64 = value
                .parse()
                .map_err(|_| format!("rate for '{key}' is not a number: '{value}'"))?;
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(format!("rate for '{key}' must be in [0, 1], got {value}"));
            }
            let slot = match key {
                "miss" => &mut out.miss_window,
                "trunc" => &mut out.truncate,
                "reorder" => &mut out.reorder,
                "duptick" => &mut out.dup_ticket,
                "corrupt" => &mut out.corrupt_ticket,
                "login" => &mut out.ambiguous_login,
                _ => {
                    return Err(format!(
                        "unknown degrade knob '{key}' (expected miss, trunc, \
                         reorder, duptick, corrupt or login)"
                    ))
                }
            };
            *slot = rate;
        }
        Ok(out)
    }
}

/// Exact accounting of what the degradation pass touched. Summable across
/// networks; the totals surface as `degrade_*` counters in the RunReport
/// and must satisfy `snapshots_kept() + snapshots_dropped() ==
/// snapshots_generated` and `tickets_generated + tickets_duplicated ==`
/// final ticket count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradeStats {
    /// Snapshots produced by the pristine simulation.
    pub snapshots_generated: u64,
    /// Snapshots lost to a missing collector window.
    pub snapshots_dropped_window: u64,
    /// Snapshots lost to a truncated device history.
    pub snapshots_dropped_truncated: u64,
    /// Snapshots that became time-adjacent duplicates after reordering
    /// and were collapsed (an NMS stores one record per distinct state).
    pub snapshots_dropped_deduped: u64,
    /// Adjacent snapshot pairs whose timestamps were swapped.
    pub snapshots_reordered: u64,
    /// Snapshots whose login was replaced with a shared account.
    pub logins_ambiguated: u64,
    /// Tickets produced by the pristine simulation.
    pub tickets_generated: u64,
    /// Duplicate ticket records appended.
    pub tickets_duplicated: u64,
    /// Ticket records corrupted in place.
    pub tickets_corrupted: u64,
}

impl DegradeStats {
    /// Snapshots lost for any reason.
    pub fn snapshots_dropped(&self) -> u64 {
        self.snapshots_dropped_window
            + self.snapshots_dropped_truncated
            + self.snapshots_dropped_deduped
    }

    /// Snapshots surviving into the degraded archive.
    pub fn snapshots_kept(&self) -> u64 {
        self.snapshots_generated - self.snapshots_dropped()
    }

    /// Accumulate another network's stats into this total.
    pub fn add(&mut self, other: &DegradeStats) {
        self.snapshots_generated += other.snapshots_generated;
        self.snapshots_dropped_window += other.snapshots_dropped_window;
        self.snapshots_dropped_truncated += other.snapshots_dropped_truncated;
        self.snapshots_dropped_deduped += other.snapshots_dropped_deduped;
        self.snapshots_reordered += other.snapshots_reordered;
        self.logins_ambiguated += other.logins_ambiguated;
        self.tickets_generated += other.tickets_generated;
        self.tickets_duplicated += other.tickets_duplicated;
        self.tickets_corrupted += other.tickets_corrupted;
    }
}

/// Degrade one network's simulation output in place. Runs on the worker
/// thread with the network's own RNG stream (continuing after
/// `simulate_network`'s draws), so the result is bit-identical at any
/// thread count. The caller must gate on [`DegradeSpec::is_active`] so
/// pristine runs draw nothing.
pub fn degrade_network<R: Rng>(
    out: &mut NetworkSimOutput,
    spec: &DegradeSpec,
    period: &StudyPeriod,
    rng: &mut R,
) -> DegradeStats {
    let mut stats = DegradeStats::default();
    let mut s = Sampler::new(rng);

    // --- snapshot histories -------------------------------------------
    // Materialize each device's history, knock it about, re-sort by time
    // and rebuild a fresh archive. `devices()` iterates the underlying
    // BTreeMap in ascending id order, so the pass is deterministic.
    let devices: Vec<_> = out.archive.devices().collect();
    let mut rebuilt = SnapshotArchive::new();
    for dev in devices {
        let mut history = out.archive.device_history(dev);
        stats.snapshots_generated += history.len() as u64;

        // Missing interior window: the collector was down for a stretch.
        // Keep the first snapshot (the device's initial config predates
        // the study) and at least one after the gap.
        if history.len() >= 4 && s.bernoulli(spec.miss_window) {
            let lo = s.uniform_range(1, history.len() as u64 - 2) as usize;
            let len = s.uniform_range(1, (history.len() - 1 - lo) as u64) as usize;
            history.drain(lo..lo + len);
            stats.snapshots_dropped_window += len as u64;
        }

        // Truncated tail: the device dropped out of monitoring.
        if history.len() >= 3 && s.bernoulli(spec.truncate) {
            let keep = s.uniform_range(1, history.len() as u64 - 1) as usize;
            stats.snapshots_dropped_truncated += (history.len() - keep) as u64;
            history.truncate(keep);
        }

        // Clock skew: swap adjacent timestamps, then restore time order
        // below — the *content* order ends up wrong relative to the edit
        // sequence, which is what inference must survive.
        for i in 1..history.len() {
            if s.bernoulli(spec.reorder) {
                let t = history[i - 1].meta.time;
                history[i - 1].meta.time = history[i].meta.time;
                history[i].meta.time = t;
                stats.snapshots_reordered += 1;
            }
        }

        // Ambiguous logins: replace with a shared account the directory
        // cannot classify.
        for snap in &mut history {
            if s.bernoulli(spec.ambiguous_login) {
                let pick = s.uniform_range(0, AMBIGUOUS_LOGINS.len() as u64 - 1) as usize;
                snap.meta.login = Login::new(AMBIGUOUS_LOGINS[pick]);
                stats.logins_ambiguated += 1;
            }
        }

        history.sort_by_key(|snap| snap.meta.time);
        history.dedup_by(|b, a| {
            let dup = a.text == b.text;
            if dup {
                stats.snapshots_dropped_deduped += 1;
            }
            dup
        });
        for snap in history {
            rebuilt
                .push(snap)
                .expect("degraded history is sorted by time before rebuild");
        }
    }
    out.archive = rebuilt;

    // --- tickets -------------------------------------------------------
    // Iterate in stored (chronological) order; duplicates are appended at
    // the end so original indices stay stable, and the org-wide merge
    // re-keys every ticket id afterwards.
    stats.tickets_generated = out.tickets.len() as u64;
    let mut duplicates = Vec::new();
    let period_end = period.month_end(period.n_months() - 1);
    for t in &mut out.tickets {
        if s.bernoulli(spec.corrupt_ticket) {
            t.resolved = None;
            t.symptom = CORRUPT_SYMPTOM.to_string();
            // Half the corrupted records also carry a garbage open time
            // past the study period; `StudyPeriod::month_of` returns
            // `None` for them and inference must drop them gracefully.
            if s.bernoulli(0.5) {
                t.opened = mpa_model::Timestamp(period_end.0 + 1 + s.uniform_range(0, 44_640));
            }
            stats.tickets_corrupted += 1;
        }
        if s.bernoulli(spec.dup_ticket) {
            let mut dup = t.clone();
            dup.id = TicketId(0); // re-keyed during the org-wide merge
            duplicates.push(dup);
            stats.tickets_duplicated += 1;
        }
    }
    out.tickets.extend(duplicates);

    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    #[test]
    fn parse_accepts_presets_and_key_value_lists() {
        assert_eq!(DegradeSpec::parse("none").unwrap(), DegradeSpec::none());
        assert_eq!(DegradeSpec::parse("light").unwrap(), DegradeSpec::light());
        assert_eq!(DegradeSpec::parse("heavy").unwrap(), DegradeSpec::heavy());
        let spec = DegradeSpec::parse("miss=0.1,login=0.25").unwrap();
        assert_eq!(spec.miss_window, 0.1);
        assert_eq!(spec.ambiguous_login, 0.25);
        assert_eq!(spec.truncate, 0.0);
        assert!(spec.is_active());
        assert!(!DegradeSpec::parse("miss=0").unwrap().is_active());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in ["", "bogus=1", "miss=abc", "miss=2.0", "miss=-0.1", "miss", "miss=nan"] {
            assert!(DegradeSpec::parse(bad).is_err(), "'{bad}' should be rejected");
        }
    }

    #[test]
    fn degradation_accounting_balances() {
        let clean = Scenario::tiny().generate();
        let degraded = Scenario::tiny().with_degrade(DegradeSpec::heavy()).generate();
        let st = &degraded.degrade;
        assert_eq!(st.snapshots_kept() + st.snapshots_dropped(), st.snapshots_generated);
        assert_eq!(
            st.snapshots_kept(),
            degraded.archive.n_snapshots() as u64,
            "archive size must match the kept count"
        );
        assert_eq!(
            st.tickets_generated + st.tickets_duplicated,
            degraded.tickets.len() as u64
        );
        assert_eq!(st.snapshots_generated, clean.archive.n_snapshots() as u64);
        assert!(st.snapshots_dropped() > 0, "heavy degradation should drop snapshots");
        assert!(st.tickets_corrupted > 0);
        assert!(st.logins_ambiguated > 0);
    }

    #[test]
    fn degradation_is_deterministic() {
        let spec = DegradeSpec::light();
        let a = Scenario::tiny().with_degrade(spec).generate();
        let b = Scenario::tiny().with_degrade(spec).generate();
        assert_eq!(a.degrade, b.degrade);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn inactive_spec_leaves_generation_untouched() {
        let clean = Scenario::tiny().generate();
        let nodeg = Scenario::tiny().with_degrade(DegradeSpec::none()).generate();
        assert_eq!(clean.summary(), nodeg.summary());
        assert_eq!(nodeg.degrade, DegradeStats::default());
    }

    #[test]
    fn ticket_ids_stay_unique_after_duplication() {
        let ds = Scenario::tiny().with_degrade(DegradeSpec::heavy()).generate();
        let mut ids: Vec<_> = ds.tickets.iter().map(|t| t.id).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }
}
