//! The process-wide gauge registry.
//!
//! Gauges record the most recent value of a setting or measurement
//! ("last write wins") where counters accumulate events. Unlike counters,
//! gauges carry run *configuration* — they are allowed to differ across
//! thread counts and are therefore reported separately.

use std::sync::atomic::{AtomicU64, Ordering};

/// A process-wide last-write-wins value (relaxed atomic, label-free).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// Declare a gauge. Use only for statics in this module.
    pub const fn new(name: &'static str) -> Self {
        Self { name, value: AtomicU64::new(0) }
    }

    /// Record the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Most recently recorded value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The gauge's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Worker threads the execution engine resolved to (set by `mpa-exec`
/// every time the thread count is queried; 0 = never resolved).
pub static EXEC_THREADS: Gauge = Gauge::new("exec_threads");

/// Serve request latency, 50th percentile in microseconds, over the
/// daemon's whole life (set from its log-scale latency buckets when the
/// daemon drains, as the bucket's upper bound). Latencies are measurements, not work: they belong in gauges,
/// which — unlike counters — are allowed to vary run to run.
pub static SERVE_LATENCY_P50_US: Gauge = Gauge::new("serve_latency_p50_us");
/// Serve request latency, 99th percentile in microseconds.
pub static SERVE_LATENCY_P99_US: Gauge = Gauge::new("serve_latency_p99_us");
/// Serve request latency, maximum in microseconds.
pub static SERVE_LATENCY_MAX_US: Gauge = Gauge::new("serve_latency_max_us");
/// Most ingests that ever waited at once for the session's write lock
/// (backpressure high-water; the waiting ingest itself counts).
pub static SERVE_QUEUE_PEAK: Gauge = Gauge::new("serve_queue_peak");

/// Every registered gauge, in report order.
pub static ALL: &[&Gauge] = &[
    &EXEC_THREADS,
    &SERVE_LATENCY_P50_US,
    &SERVE_LATENCY_P99_US,
    &SERVE_LATENCY_MAX_US,
    &SERVE_QUEUE_PEAK,
];

/// Snapshot every registered gauge as `(name, value)` in report order.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    ALL.iter().map(|g| (g.name(), g.get())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_overwrites() {
        static G: Gauge = Gauge::new("test_gauge");
        G.set(7);
        G.set(3);
        assert_eq!(G.get(), 3);
        assert_eq!(G.name(), "test_gauge");
    }
}
