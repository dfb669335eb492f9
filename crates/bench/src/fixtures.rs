//! Cached dataset/inference fixtures.
//!
//! Generating an organization and inferring its case table is deterministic
//! per scenario, so fixtures are computed once per process and shared by
//! every experiment and bench (`OnceLock`). The paper-scale fixture is only
//! built when explicitly requested — it takes tens of seconds.

use mpa_metrics::pipeline::{infer, Inference};
use mpa_metrics::CaseTable;
use mpa_synth::{Dataset, Scenario};
use std::sync::OnceLock;

/// Fixture scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixtureScale {
    /// 12 networks × 3 months (unit-test speed).
    Tiny,
    /// 48 networks × 5 months (bench speed).
    Small,
    /// 220 networks × 10 months (statistically meaningful).
    Medium,
    /// 860 networks × 17 months (the paper's scale).
    Paper,
}

impl FixtureScale {
    /// The scenario backing this scale.
    pub fn scenario(self) -> Scenario {
        match self {
            FixtureScale::Tiny => Scenario::tiny(),
            FixtureScale::Small => Scenario::small(),
            FixtureScale::Medium => Scenario::medium(),
            FixtureScale::Paper => Scenario::paper(),
        }
    }
}

/// A generated dataset plus its inference output.
pub struct Fixture {
    /// The raw dataset (inventory, archive, tickets, ...).
    pub dataset: Dataset,
    /// Inference output at the default δ = 5 minutes.
    pub inference: Inference,
    mi_cache: OnceLock<Vec<mpa_core::MiEntry>>,
    causal_cache: OnceLock<Vec<mpa_core::CausalAnalysis>>,
}

impl Fixture {
    fn build(scale: FixtureScale) -> Fixture {
        Self::custom(&scale.scenario())
    }

    /// Build a fixture for an arbitrary scenario, uncached. The cached
    /// accessors below only cover the pristine presets; degraded or
    /// otherwise customized scenarios (e.g. `repro --degrade heavy`) go
    /// through here and live as long as the caller keeps them.
    pub fn custom(scenario: &Scenario) -> Fixture {
        let dataset = scenario.generate();
        let inference = infer(&dataset, mpa_metrics::DELTA_DEFAULT_MINUTES);
        Fixture { dataset, inference, mi_cache: OnceLock::new(), causal_cache: OnceLock::new() }
    }

    /// The case table.
    pub fn table(&self) -> &CaseTable {
        &self.inference.table
    }

    /// MI ranking (cached; shared by Table 3, Table 7 and the comparison).
    pub fn mi(&self) -> &[mpa_core::MiEntry] {
        self.mi_cache.get_or_init(|| mpa_core::mi_ranking(self.table(), 30))
    }

    /// Causal analyses of the top-10 MI practices (cached; shared by
    /// Tables 5–8 and Figure 7).
    pub fn causal_top10(&self) -> &[mpa_core::CausalAnalysis] {
        self.causal_cache.get_or_init(|| {
            let cfg = mpa_core::CausalConfig::default();
            // Each treatment metric is matched and tested independently;
            // fan out across the worker threads, order preserved.
            let top: Vec<_> = self.mi().iter().take(10).collect();
            mpa_exec::par_map(&top, |_, e| {
                mpa_core::analyze_treatment(self.table(), e.metric, &cfg)
            })
        })
    }

    /// The cached causal analysis for one metric, if it is in the top 10.
    pub fn causal_for(&self, metric: mpa_metrics::Metric) -> Option<&mpa_core::CausalAnalysis> {
        self.causal_top10().iter().find(|a| a.metric == metric)
    }
}

macro_rules! cached {
    ($fn_name:ident, $scale:expr) => {
        /// Cached fixture at this scale (built on first use).
        pub fn $fn_name() -> &'static Fixture {
            static CELL: OnceLock<Fixture> = OnceLock::new();
            CELL.get_or_init(|| Fixture::build($scale))
        }
    };
}

cached!(tiny, FixtureScale::Tiny);
cached!(small, FixtureScale::Small);
cached!(medium, FixtureScale::Medium);
cached!(paper, FixtureScale::Paper);

/// Fixture by scale.
pub fn by_scale(scale: FixtureScale) -> &'static Fixture {
    match scale {
        FixtureScale::Tiny => tiny(),
        FixtureScale::Small => small(),
        FixtureScale::Medium => medium(),
        FixtureScale::Paper => paper(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fixture_builds_and_caches() {
        let a = tiny() as *const Fixture;
        let b = tiny() as *const Fixture;
        assert_eq!(a, b, "cached: same instance");
        assert!(tiny().table().n_cases() > 0);
        assert!(!tiny().inference.device_changes.is_empty());
    }
}
