//! Deterministic data-parallel execution primitives for the MPA pipeline.
//!
//! Every hot layer of the workspace (synth generation, case-table
//! inference, MI/CMI ranking, causal matching, forest/CV fitting) fans out
//! through this crate. Two properties are load-bearing:
//!
//! 1. **Determinism.** [`par_map`] returns results in input order no matter
//!    how the items were scheduled across threads, and callers derive any
//!    randomness from per-item seed streams ([`stream_seed`]) rather than a
//!    shared sequential RNG. Together these make every pipeline output
//!    bit-for-bit identical at 1, 2, or 64 threads.
//! 2. **No unsafe.** Workers communicate only by returning owned
//!    `(index, result)` pairs from scoped threads; the workspace-wide
//!    `unsafe_code = "deny"` lint stays intact.
//!
//! Thread count resolves, in order: [`set_threads`] (the `--threads` flag),
//! the `MPA_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. Nested parallel regions run
//! sequentially instead of oversubscribing (a `par_map` inside a `par_map`
//! worker does not spawn again).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Thread count explicitly requested via [`set_threads`]; 0 = unset.
static REQUESTED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// `MPA_THREADS` environment override, read once.
static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();

thread_local! {
    /// True inside a `par_map` worker: nested regions stay sequential.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Pin the number of worker threads for all parallel regions.
///
/// `0` restores automatic selection (`MPA_THREADS` or the machine's
/// available parallelism). Binaries plumb their `--threads` flag here.
pub fn set_threads(n: usize) {
    REQUESTED_THREADS.store(n, Ordering::Relaxed);
}

/// The number of worker threads parallel regions will use right now.
pub fn threads() -> usize {
    let n = resolve_threads();
    mpa_obs::gauges::EXEC_THREADS.set(n as u64);
    n
}

fn resolve_threads() -> usize {
    let requested = REQUESTED_THREADS.load(Ordering::Relaxed);
    if requested > 0 {
        return requested;
    }
    let env = ENV_THREADS.get_or_init(|| {
        // mpa-lint: allow(R6) -- MPA_THREADS is the documented thread-count override, read once before any pipeline work; it sets how results are computed, never what they are
        std::env::var("MPA_THREADS").ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0)
    });
    if let Some(n) = *env {
        return n;
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Map `f` over `items` on the configured worker threads, returning results
/// in input order.
///
/// Workers pull the next unclaimed index from a shared counter (dynamic
/// load balancing — per-network work in this codebase is heavily skewed)
/// and collect `(index, result)` pairs locally; the pairs are merged and
/// sorted by index at the end, so the output is independent of scheduling.
/// Falls back to a plain sequential map when 1 thread is configured, the
/// input is trivially small, or the caller is itself a parallel worker.
///
/// # Panics
/// Propagates panics from `f` (the first panicking worker aborts the map).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    // Counted before the sequential-fallback check, so the totals are a
    // pure function of the work submitted — invariant across thread
    // counts (the obs counter contract).
    mpa_obs::counters::PAR_MAP_REGIONS.incr();
    mpa_obs::counters::PAR_MAP_TASKS.add(items.len() as u64);
    par_map_impl(items, f)
}

/// The uncounted engine behind [`par_map`] (also driven by
/// [`par_chunk_map`], which counts its own logical items rather than the
/// chunks it schedules).
fn par_map_impl<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n_threads = threads().min(items.len());
    if n_threads <= 1 || IN_WORKER.with(Cell::get) {
        mpa_obs::sched::record_worker(0, items.len() as u64);
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(n_threads);
    // Measured occupancy: each worker reports the CPU time its thread
    // actually consumed, and the region times its wall clock, so
    // `sum(busy) / wall` is the parallelism the region *achieved*. CPU
    // time (not thread lifetime) is essential: on a one-core or
    // oversubscribed host a descheduled worker still accrues wall time,
    // which would report phantom parallelism.
    let mut busy_ns = 0u64;
    let region_start = Instant::now();
    std::thread::scope(|scope| {
        let next = &next;
        let f = &f;
        let handles: Vec<_> = (0..n_threads)
            .map(|slot| {
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let wall_start = Instant::now();
                    let cpu_start = thread_cpu_ns();
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    mpa_obs::sched::record_worker(slot, local.len() as u64);
                    let busy = cpu_start
                        .and_then(|c0| thread_cpu_ns().map(|c1| c1.saturating_sub(c0)))
                        .unwrap_or_else(|| wall_start.elapsed().as_nanos() as u64);
                    (local, busy)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((part, ns)) => {
                    busy_ns += ns;
                    parts.push(part);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let wall_ns = region_start.elapsed().as_nanos() as u64;

    let busiest = parts.iter().map(Vec::len).max().unwrap_or(0);
    let idlest = parts.iter().map(Vec::len).min().unwrap_or(0);
    mpa_obs::sched::record_region((busiest - idlest) as u64);
    let active = parts.iter().filter(|p| !p.is_empty()).count() as u64;
    mpa_obs::sched::record_region_occupancy(busy_ns, wall_ns, active);

    let mut merged: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    merged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(merged.len(), items.len());
    merged.into_iter().map(|(_, r)| r).collect()
}

/// CPU time consumed by the calling thread, in nanoseconds, read from
/// `/proc/thread-self/stat` (utime + stime, in USER_HZ ticks; the Linux
/// userspace ABI fixes USER_HZ at 100 regardless of the kernel's HZ).
/// `None` where `/proc` is unavailable (non-Linux hosts); occupancy then
/// falls back to worker wall time, which overestimates on oversubscribed
/// hosts but keeps the stat defined everywhere.
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // utime/stime are fields 14/15, but the comm field (2) may contain
    // spaces — index from the closing paren instead of the line start.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// Map `f` over contiguous chunks of `items` in parallel, concatenating the
/// per-chunk outputs in order.
///
/// For flat per-element work (e.g. classifying every instance of a learn
/// set) where spawning per element would drown the work in bookkeeping.
/// `min_chunk` bounds how finely the input is split; outputs must be
/// one-per-element for the concatenation to line up with the input.
pub fn par_chunk_map<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let min_chunk = min_chunk.max(1);
    // Counted in input elements (not chunks): chunk geometry depends on
    // the thread count, element totals do not.
    mpa_obs::counters::PAR_MAP_REGIONS.incr();
    mpa_obs::counters::PAR_MAP_TASKS.add(items.len() as u64);
    let n_threads = threads().min(items.len().div_ceil(min_chunk));
    if n_threads <= 1 || IN_WORKER.with(Cell::get) {
        // Record logical items, matching `par_map`'s fallback — scheduling
        // stats must not undercount single-threaded runs.
        mpa_obs::sched::record_worker(0, items.len() as u64);
        return f(items);
    }
    let chunk = items.len().div_ceil(n_threads);
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    par_map_impl(&chunks, |_, c| f(c)).into_iter().flatten().collect()
}

/// Map `f` over `items` **by value** on the configured worker threads,
/// returning results in input order.
///
/// The consuming counterpart of [`par_map`], for transforms that want to
/// take ownership of each item (remap in place, move big buffers into the
/// result) and free the item's allocations on the worker as soon as it is
/// processed — instead of holding the whole input alive until the region
/// ends. Each item is parked in its own mutex slot and taken exactly once,
/// which keeps the crate free of `unsafe`; the per-item lock is uncontended
/// (a slot is touched by exactly one worker) and is noise at the coarse
/// granularity this crate schedules.
///
/// Determinism and observability follow [`par_map`]: results are merged in
/// input order, and regions/tasks are counted before the
/// sequential-fallback check.
///
/// # Panics
/// Propagates panics from `f` (the first panicking worker aborts the map).
pub fn par_map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    mpa_obs::counters::PAR_MAP_REGIONS.incr();
    mpa_obs::counters::PAR_MAP_TASKS.add(items.len() as u64);
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        items.into_iter().map(|t| std::sync::Mutex::new(Some(t))).collect();
    par_map_impl(&slots, |i, slot| {
        let item = slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            .expect("each slot is claimed exactly once");
        f(i, item)
    })
}

/// Derive an independent RNG seed stream from a master seed.
///
/// Used by synth (per-network), learn (per-tree, per-class) and anywhere
/// else that fans seeded work out: `stream_seed(master, k)` for distinct
/// `k` yields statistically independent, fully deterministic streams, so
/// results do not depend on the order (or thread) in which items run.
/// The mix is SplitMix64 over a golden-ratio spread of the stream index.
#[must_use]
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scoped, mutex-guarded override of the process-wide thread request.
    ///
    /// `cargo test` runs tests on concurrent threads, and
    /// `REQUESTED_THREADS` is process-global: a bare
    /// `set_threads(8) … set_threads(0)` pair in one test races with every
    /// other test's window (one test could observe another's reset
    /// mid-run). The guard serializes all thread-count-sensitive tests on
    /// one mutex and restores the previous request on drop, panic
    /// included.
    struct ThreadGuard {
        prev: usize,
        _lock: std::sync::MutexGuard<'static, ()>,
    }

    impl ThreadGuard {
        /// Acquire the test lock and pin the requested thread count.
        fn pin(n: usize) -> Self {
            static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
            let lock = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let prev = REQUESTED_THREADS.load(Ordering::Relaxed);
            set_threads(n);
            Self { prev, _lock: lock }
        }

        /// Re-pin while continuing to hold the lock (for tests that sweep
        /// several thread counts).
        fn set(&self, n: usize) {
            set_threads(n);
        }
    }

    impl Drop for ThreadGuard {
        fn drop(&mut self) {
            REQUESTED_THREADS.store(self.prev, Ordering::Relaxed);
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..997).collect();
        let _threads = ThreadGuard::pin(8);
        let par: Vec<u64> = par_map(&items, |i, &x| {
            // Uneven work to force out-of-order completion.
            let spin = (x % 7) * 50;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(std::hint::black_box(k));
            }
            // Keep the spin loop and the index observable without
            // affecting the value under test.
            std::hint::black_box((acc, i));
            x * 2
        });
        let seq: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_matches_sequential_at_every_thread_count() {
        let items: Vec<u32> = (0..64).collect();
        let expect: Vec<u32> = items.iter().map(|x| x * x).collect();
        let threads = ThreadGuard::pin(1);
        for t in [1, 2, 3, 8] {
            threads.set(t);
            assert_eq!(par_map(&items, |_, &x| x * x), expect, "threads={t}");
        }
    }

    #[test]
    fn par_chunk_map_concatenates_in_order() {
        let items: Vec<u32> = (0..1000).collect();
        let _threads = ThreadGuard::pin(4);
        let out = par_chunk_map(&items, 16, |chunk| chunk.iter().map(|x| x + 1).collect());
        assert_eq!(out, (1..=1000).collect::<Vec<u32>>());
    }

    #[test]
    fn nested_par_map_stays_sequential() {
        let _threads = ThreadGuard::pin(4);
        let outer: Vec<usize> = par_map(&[10usize, 20, 30], |_, &n| {
            // Inner region must not spawn (and must still be correct).
            par_map(&(0..n).collect::<Vec<_>>(), |_, &x| x).len()
        });
        assert_eq!(outer, vec![10, 20, 30]);
    }

    #[test]
    fn thread_guard_restores_previous_request() {
        let outer = ThreadGuard::pin(6);
        assert_eq!(threads(), 6);
        drop(outer);
        {
            let _inner = ThreadGuard::pin(3);
            assert_eq!(threads(), 3);
        }
        // After the scope, the pre-guard request (whatever it was) is
        // back; pin once more to observe a clean slate.
        let again = ThreadGuard::pin(5);
        assert_eq!(threads(), 5);
        drop(again);
    }

    #[test]
    fn par_map_owned_consumes_and_preserves_order() {
        let items: Vec<String> = (0..321).map(|i| format!("item {i}")).collect();
        let expect: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
        let threads = ThreadGuard::pin(1);
        for t in [1, 2, 8] {
            threads.set(t);
            let owned = items.clone();
            // `f` takes the String by value — no clone inside the region.
            let out = par_map_owned(owned, |_, mut s| {
                s.push('!');
                s
            });
            assert_eq!(out, expect, "threads={t}");
        }
        let empty: Vec<String> = Vec::new();
        assert!(par_map_owned(empty, |_, s: String| s).is_empty());
    }

    #[test]
    fn par_chunk_map_fallback_records_logical_items() {
        // Regression: the sequential fallback used to record a single
        // scheduling unit regardless of input size, undercounting
        // `--threads 1` runs relative to `par_map`'s fallback.
        let _threads = ThreadGuard::pin(1);
        let before = mpa_obs::sched::snapshot();
        let items: Vec<u32> = (0..137).collect();
        let _ = par_chunk_map(&items, 8, |c| c.to_vec());
        let after = mpa_obs::sched::snapshot();
        let slot0 = |s: &mpa_obs::sched::SchedSnapshot| s.worker_tasks.first().copied().unwrap_or(0);
        assert!(
            slot0(&after) >= slot0(&before) + 137,
            "fallback must record all {} items on slot 0 (before {}, after {})",
            items.len(),
            slot0(&before),
            slot0(&after)
        );
    }

    #[test]
    fn stream_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..10_000 {
            assert!(seen.insert(stream_seed(0x4D50_4131, k)), "collision at {k}");
        }
        // Different masters diverge too.
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0));
    }

    #[test]
    fn empty_and_single_inputs() {
        let _threads = ThreadGuard::pin(2);
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u8], |i, &x| (i, x)), vec![(0, 5)]);
        assert!(par_chunk_map(&empty, 8, |c| c.to_vec()).is_empty());
    }

    #[test]
    fn panics_propagate() {
        let _threads = ThreadGuard::pin(2);
        let result = std::panic::catch_unwind(|| {
            par_map(&[1u8, 2, 3, 4], |_, &x| {
                assert!(x != 3, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn par_map_records_observability_totals() {
        let _threads = ThreadGuard::pin(4);
        let before = mpa_obs::counters::snapshot();
        let items: Vec<u32> = (0..100).collect();
        let _ = par_map(&items, |_, &x| x);
        let _ = par_chunk_map(&items, 10, |c| c.to_vec());
        let diff = mpa_obs::counters::snapshot_diff(&before, &mpa_obs::counters::snapshot());
        let get = |name: &str| diff.iter().find(|(n, _)| *n == name).unwrap().1;
        // Other tests may run par_map concurrently, so totals are lower
        // bounds: both calls counted, both in input elements.
        assert!(get("par_map_regions") >= 2);
        assert!(get("par_map_tasks") >= 200);
    }
}
