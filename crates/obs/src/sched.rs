//! Scheduling statistics: how parallel work was actually distributed.
//!
//! Everything here is deliberately **thread-count dependent** — per-worker
//! task counts and region imbalance describe scheduling, not work — so it
//! is reported in its own section and excluded from the counter-invariance
//! checks. `mpa-exec` records into this module from its worker loops.

use std::sync::atomic::{AtomicU64, Ordering};

/// Worker slots tracked individually; higher slots fold into the last one
/// (the pipeline caps workers at the core count, far below this).
pub const MAX_SLOTS: usize = 64;

static WORKER_TASKS: [AtomicU64; MAX_SLOTS] = [const { AtomicU64::new(0) }; MAX_SLOTS];
static PARALLEL_REGIONS: AtomicU64 = AtomicU64::new(0);
static MAX_REGION_IMBALANCE: AtomicU64 = AtomicU64::new(0);
static REGION_BUSY_NS: AtomicU64 = AtomicU64::new(0);
static REGION_WALL_NS: AtomicU64 = AtomicU64::new(0);
static MAX_REGION_WORKERS: AtomicU64 = AtomicU64::new(0);

/// Record that worker slot `slot` processed `tasks` items in one region
/// (sequential fallbacks record everything on slot 0).
pub fn record_worker(slot: usize, tasks: u64) {
    // mpa-lint: allow(R7) -- min(MAX_SLOTS - 1) clamps the slot into the fixed-size array
    WORKER_TASKS[slot.min(MAX_SLOTS - 1)].fetch_add(tasks, Ordering::Relaxed);
}

/// Record one region that actually fanned out, with the spread between
/// its busiest and idlest worker (in scheduling units).
pub fn record_region(imbalance: u64) {
    PARALLEL_REGIONS.fetch_add(1, Ordering::Relaxed);
    MAX_REGION_IMBALANCE.fetch_max(imbalance, Ordering::Relaxed);
}

/// Record the **measured occupancy** of one region that fanned out: the
/// summed busy time of its workers, the region's wall time, and how many
/// workers processed at least one task. `busy / wall` over a run is the
/// *effective* parallelism actually achieved — on an oversubscribed or
/// one-core host it sits near 1 no matter how many workers were spawned,
/// which is what distinguishes "no speedup available" from a regression.
pub fn record_region_occupancy(busy_ns: u64, wall_ns: u64, workers: u64) {
    REGION_BUSY_NS.fetch_add(busy_ns, Ordering::Relaxed);
    REGION_WALL_NS.fetch_add(wall_ns, Ordering::Relaxed);
    MAX_REGION_WORKERS.fetch_max(workers, Ordering::Relaxed);
}

/// Point-in-time view of the scheduling stats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedSnapshot {
    /// Tasks processed per worker slot, trailing idle slots trimmed.
    pub worker_tasks: Vec<u64>,
    /// Regions that ran on more than one worker.
    pub parallel_regions: u64,
    /// Largest per-region spread between the busiest and idlest worker.
    pub max_region_imbalance: u64,
    /// Summed worker busy time across regions that fanned out (ns).
    pub region_busy_ns: u64,
    /// Summed wall time of regions that fanned out (ns).
    pub region_wall_ns: u64,
    /// Most workers that processed at least one task in a single region.
    pub max_region_workers: u64,
}

impl SchedSnapshot {
    /// Measured effective parallelism: summed worker busy time over region
    /// wall time, across every region that fanned out. 1.0 when nothing
    /// fanned out (a sequential run is trivially "fully occupied at 1").
    /// Unlike `available_cores` this reflects what the workers *achieved* —
    /// near 1.0 on a one-core or oversubscribed host regardless of the
    /// configured thread count.
    pub fn effective_parallelism(&self) -> f64 {
        if self.region_wall_ns == 0 {
            1.0
        } else {
            self.region_busy_ns as f64 / self.region_wall_ns as f64
        }
    }
}

/// Snapshot the scheduling stats.
pub fn snapshot() -> SchedSnapshot {
    let mut worker_tasks: Vec<u64> =
        WORKER_TASKS.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    while worker_tasks.last() == Some(&0) {
        worker_tasks.pop();
    }
    SchedSnapshot {
        worker_tasks,
        parallel_regions: PARALLEL_REGIONS.load(Ordering::Relaxed),
        max_region_imbalance: MAX_REGION_IMBALANCE.load(Ordering::Relaxed),
        region_busy_ns: REGION_BUSY_NS.load(Ordering::Relaxed),
        region_wall_ns: REGION_WALL_NS.load(Ordering::Relaxed),
        max_region_workers: MAX_REGION_WORKERS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_and_trim() {
        record_worker(0, 5);
        record_worker(1, 2);
        record_region(3);
        let snap = snapshot();
        assert!(snap.worker_tasks.len() >= 2);
        assert!(snap.worker_tasks[0] >= 5);
        assert!(snap.parallel_regions >= 1);
        assert!(snap.max_region_imbalance >= 3);
    }

    #[test]
    fn out_of_range_slot_folds_into_last() {
        record_worker(MAX_SLOTS + 10, 1);
        let v = WORKER_TASKS[MAX_SLOTS - 1].load(Ordering::Relaxed);
        assert!(v >= 1);
    }

    #[test]
    fn occupancy_accumulates_and_effective_parallelism_is_sane() {
        record_region_occupancy(3_000, 1_000, 3);
        let snap = snapshot();
        assert!(snap.region_busy_ns >= 3_000);
        assert!(snap.region_wall_ns >= 1_000);
        assert!(snap.max_region_workers >= 3);
        // Process-global totals (other tests record real regions too), so
        // only sanity is asserted: finite and positive.
        assert!(snap.effective_parallelism() > 0.0);
        // An empty snapshot reports 1.0, not NaN.
        assert_eq!(SchedSnapshot::default().effective_parallelism(), 1.0);
    }
}
