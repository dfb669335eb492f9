//! Scenario presets and the end-to-end generation pipeline.
//!
//! [`Scenario::paper`] reproduces the paper's scale (850+ networks over the
//! Aug 2013 – Dec 2014 period); the smaller presets keep tests fast while
//! exercising identical code paths.

use crate::dataset::Dataset;
use crate::degrade::{degrade_network, DegradeSpec, DegradeStats};
use crate::health::HealthModel;
use crate::netgen::generate_network;
use crate::ops::{simulate_network, SimConfig};
use crate::profile::{sample_profiles, OrgConfig};
use mpa_config::{SnapshotArchive, UserDirectory};
use mpa_model::{Inventory, InventoryRecord, Month, StudyPeriod, TicketId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A named generation scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Organization-level knobs.
    pub org: OrgConfig,
    /// Ground-truth health model.
    pub health: HealthModel,
    /// Degradation knobs applied after simulation (default: none, which
    /// draws no RNG and leaves generation byte-identical to builds
    /// without the degradation layer).
    pub degrade: DegradeSpec,
}

impl Scenario {
    /// The paper's scale: 860 networks × 17 months (Aug 2013 – Dec 2014).
    pub fn paper() -> Self {
        Self {
            org: OrgConfig {
                seed: 0x4D50_4131, // "MPA1"
                n_networks: 860,
                n_months: 17,
                n_services: 120,
                missing_month_rate: 0.21,
                noise_sigma: 0.15,
            },
            health: HealthModel::default(),
            degrade: DegradeSpec::none(),
        }
    }

    /// A mid-size fixture: enough cases for stable statistics, fast enough
    /// for integration tests and benches (≈220 networks × 10 months).
    pub fn medium() -> Self {
        Self {
            org: OrgConfig {
                seed: 0x4D50_4132,
                n_networks: 220,
                n_months: 10,
                n_services: 60,
                missing_month_rate: 0.2,
                noise_sigma: 0.15,
            },
            health: HealthModel::default(),
            degrade: DegradeSpec::none(),
        }
    }

    /// A small fixture for unit-level integration (≈48 networks × 5 months).
    pub fn small() -> Self {
        Self {
            org: OrgConfig {
                seed: 0x4D50_4133,
                n_networks: 48,
                n_months: 5,
                n_services: 30,
                missing_month_rate: 0.15,
                noise_sigma: 0.15,
            },
            health: HealthModel::default(),
            degrade: DegradeSpec::none(),
        }
    }

    /// The smallest useful fixture (12 networks × 3 months).
    pub fn tiny() -> Self {
        Self {
            org: OrgConfig {
                seed: 0x4D50_4134,
                n_networks: 12,
                n_months: 3,
                n_services: 12,
                missing_month_rate: 0.1,
                noise_sigma: 0.15,
            },
            health: HealthModel::default(),
            degrade: DegradeSpec::none(),
        }
    }

    /// A deliberately messy 2-network corpus for the degraded golden
    /// fixture: heavy degradation over a small fleet, so the golden files
    /// stay reviewable while every knob fires.
    pub fn degraded_demo() -> Self {
        Self {
            org: OrgConfig {
                seed: 0x4D50_4744, // "MPGD"
                n_networks: 2,
                n_months: 4,
                n_services: 8,
                missing_month_rate: 0.15,
                noise_sigma: 0.15,
            },
            health: HealthModel::default(),
            degrade: DegradeSpec::heavy(),
        }
    }

    /// Override the seed (e.g., for robustness checks across datasets).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.org.seed = seed;
        self
    }

    /// Override the degradation knobs.
    pub fn with_degrade(mut self, degrade: DegradeSpec) -> Self {
        self.degrade = degrade;
        self
    }

    /// Generate the full dataset: profiles → networks → 17-month simulation
    /// → archive/tickets/coverage/ground-truth.
    ///
    /// Networks fan out across the configured worker threads
    /// (`mpa_exec::threads()`): each network draws from its own RNG stream
    /// (`stream_seed(org.seed, network_id)`) and allocates device ids from
    /// a pre-assigned dense range, so the result is bit-for-bit identical
    /// at any thread count. Only ticket ids are allocated org-wide; they
    /// are assigned during the (deterministic, network-ordered) merge.
    pub fn generate(&self) -> Dataset {
        self.generate_impl(false)
    }

    /// The full-render oracle for [`Scenario::generate`]: every snapshot
    /// renders its whole device document instead of splicing dirty chunks.
    /// The datasets are byte-identical by contract, which the equivalence
    /// tests (`tests/gen_mode_equivalence.rs`) check; nothing else calls it.
    pub fn generate_full(&self) -> Dataset {
        self.generate_impl(true)
    }

    fn generate_impl(&self, full_render: bool) -> Dataset {
        let period = StudyPeriod::new(Month::new(2013, 8).expect("valid"), self.org.n_months);
        let mut rng = StdRng::seed_from_u64(self.org.seed);
        let profiles = sample_profiles(&self.org, &mut rng);

        let sim = SimConfig { missing_month_rate: self.org.missing_month_rate };

        // Device ids must be assigned inside `generate_network` (they are
        // rendered into hostnames, loopback addresses and config text), so
        // each network gets a pre-assigned dense contiguous id range. The
        // count depends on the network's first RNG draws (the role mix), so
        // a cheap sequential pre-pass replays exactly those draws from the
        // same per-network stream seed the worker will use; ids stay dense
        // (the `10.H.L.1` address plan caps them at 65535) and identical at
        // any thread count.
        let mut next_base = 0u32;
        let work: Vec<(&crate::profile::NetworkProfile, u32)> = profiles
            .iter()
            .map(|profile| {
                let seed = mpa_exec::stream_seed(self.org.seed, u64::from(profile.id.0));
                let mut rng = StdRng::seed_from_u64(seed);
                let base = next_base;
                next_base += crate::netgen::device_count(profile, &mut rng) as u32;
                (profile, base)
            })
            .collect();

        let simulated = mpa_obs::span("simulate", || {
            mpa_exec::par_map(&work, |_, &(profile, base)| {
                let seed = mpa_exec::stream_seed(self.org.seed, u64::from(profile.id.0));
                let mut rng = StdRng::seed_from_u64(seed);
                let mut next_device_id = base;
                let mut gen = generate_network(profile, &mut next_device_id, &mut rng);
                let mut local_ticket_seq = 0u32;
                let mut out = simulate_network(
                    &mut gen,
                    profile,
                    &period,
                    &self.health,
                    sim,
                    full_render,
                    &mut local_ticket_seq,
                    &mut rng,
                );
                // Degrade on the worker, continuing the same per-network
                // RNG stream — deterministic at any thread count.
                // Inactive specs draw nothing, keeping pristine runs
                // byte-identical. Degradation operates on the finished
                // per-network archive, so it is engine-agnostic.
                let degrade_stats = if self.degrade.is_active() {
                    degrade_network(&mut out, &self.degrade, &period, &mut rng)
                } else {
                    DegradeStats::default()
                };
                // Inventory rows (site strings are pure functions of the
                // ids) are built here, on the workers, so the merge pass
                // below is pure bookkeeping; dropping `gen.configs` on
                // the worker also releases each network's semantic state
                // as soon as it is done.
                let records: Vec<InventoryRecord> = gen
                    .network
                    .devices
                    .iter()
                    .map(|d| {
                        let site = format!("dc{}/r{}", d.network.0 % 8, d.id.0 % 40);
                        InventoryRecord::from_device(d, site)
                    })
                    .collect();
                (gen.network, records, out, degrade_stats)
            })
        });

        let mut ticket_seq = 0u32;
        let mut networks = Vec::with_capacity(profiles.len());
        let mut inventory_records = Vec::new();
        let mut archives = Vec::with_capacity(profiles.len());
        let mut tickets = Vec::new();
        let mut coverage = std::collections::BTreeSet::new();
        let mut ground_truth = Vec::new();

        let mut degrade_total = DegradeStats::default();
        for (network, records, out, degrade_stats) in simulated {
            degrade_total.add(&degrade_stats);
            inventory_records.extend(records);
            archives.push(out.archive);
            // Re-key the per-network ticket sequences into one dense
            // org-wide sequence (ids are referenced nowhere else).
            tickets.extend(out.tickets.into_iter().map(|mut t| {
                ticket_seq += 1;
                t.id = TicketId(ticket_seq);
                t
            }));
            for t in &out.truth {
                if t.logged {
                    coverage.insert((t.network, t.month));
                }
            }
            ground_truth.extend(out.truth);
            networks.push(network);
        }

        // Two-phase sharded merge with offset-partitioned global id
        // allocation: shard tables are concatenated once (sequential), then
        // every shard's ids are shifted by a constant offset on the worker
        // threads — no per-id remap table (see DESIGN.md §15).
        let archive = mpa_obs::span("merge", || SnapshotArchive::merge_all(archives));

        let directory =
            UserDirectory::new(["svc-netauto".to_string(), "svc-deploy".to_string()]);

        // Surface the degradation accounting as obs counters (summed on
        // this sequential merge pass, so the totals are thread-invariant
        // like every other registered counter).
        mpa_obs::counters::DEGRADE_SNAPSHOTS_GENERATED.add(degrade_total.snapshots_generated);
        mpa_obs::counters::DEGRADE_SNAPSHOTS_DROPPED.add(degrade_total.snapshots_dropped());
        mpa_obs::counters::DEGRADE_SNAPSHOTS_KEPT.add(degrade_total.snapshots_kept());
        mpa_obs::counters::DEGRADE_SNAPSHOTS_REORDERED.add(degrade_total.snapshots_reordered);
        mpa_obs::counters::DEGRADE_LOGINS_AMBIGUATED.add(degrade_total.logins_ambiguated);
        mpa_obs::counters::DEGRADE_TICKETS_GENERATED.add(degrade_total.tickets_generated);
        mpa_obs::counters::DEGRADE_TICKETS_DUPLICATED.add(degrade_total.tickets_duplicated);
        mpa_obs::counters::DEGRADE_TICKETS_CORRUPTED.add(degrade_total.tickets_corrupted);

        Dataset {
            period,
            networks,
            inventory: Inventory::new(inventory_records),
            archive,
            tickets,
            directory,
            coverage,
            ground_truth,
            degrade: degrade_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpa_model::TicketKind;

    #[test]
    fn tiny_scenario_generates_a_consistent_dataset() {
        let ds = Scenario::tiny().generate();
        assert_eq!(ds.networks.len(), 12);
        assert_eq!(ds.period.n_months(), 3);
        for n in &ds.networks {
            assert_eq!(n.validate(), Ok(()));
        }
        assert_eq!(
            ds.inventory.n_devices(),
            ds.networks.iter().map(|n| n.size()).sum::<usize>()
        );
        // Ground truth covers every network-month.
        assert_eq!(ds.ground_truth.len(), 12 * 3);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::tiny().generate();
        let b = Scenario::tiny().generate();
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.ground_truth.len(), b.ground_truth.len());
        assert_eq!(format!("{:?}", a.ground_truth[5]), format!("{:?}", b.ground_truth[5]));
    }

    #[test]
    fn full_render_oracle_is_byte_identical_end_to_end() {
        let delta = Scenario::tiny().generate();
        let full = Scenario::tiny().generate_full();
        assert_eq!(
            serde_json::to_string(&delta.archive).unwrap(),
            serde_json::to_string(&full.archive).unwrap(),
            "merged archives diverged between engines"
        );
        assert_eq!(delta.summary(), full.summary());
        assert_eq!(delta.tickets, full.tickets);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scenario::tiny().generate();
        let b = Scenario::tiny().with_seed(99).generate();
        assert_ne!(a.summary().tickets, b.summary().tickets);
    }

    #[test]
    fn small_scenario_has_healthy_majority() {
        // Sanity on the calibration direction: most network-months should
        // be low-ticket (the skew the paper fights in §6).
        let ds = Scenario::small().generate();
        let mut monthly_counts = std::collections::BTreeMap::new();
        for t in &ds.tickets {
            if t.kind == TicketKind::PlannedMaintenance {
                continue;
            }
            let month = ds.period.month_of(t.opened).expect("in period");
            *monthly_counts.entry((t.network, month)).or_insert(0u32) += 1;
        }
        let total = ds.networks.len() * ds.period.n_months();
        let healthy = total - monthly_counts.values().filter(|&&c| c > 1).count();
        let frac = healthy as f64 / total as f64;
        assert!(
            (0.5..0.85).contains(&frac),
            "healthy (≤1 ticket) fraction should be majority-but-skewed: {frac}"
        );
    }

    #[test]
    fn ticket_ids_are_unique() {
        let ds = Scenario::tiny().generate();
        let mut ids: Vec<_> = ds.tickets.iter().map(|t| t.id).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }
}
