//! Spans recorded by the benchmark around its own calls into each layer,
//! plus the percentile helpers every workload shares.
//!
//! Tracing is off unless `--trace 1` is given; then every [`span`] records
//! its name, start, end, parent and the run id in memory, and [`write`]
//! dumps them as JSON once the run ends. With tracing off a span is a
//! plain call, so end-to-end figures carry no tracing cost.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Recorder> = Mutex::new(Recorder {
    spans: Vec::new(),
    open: Vec::new(),
});

/// The run's time origin; every span and request time is measured from it.
pub fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    ns_since_origin(Instant::now())
}

pub fn ns_since_origin(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin()).as_nanos()).unwrap_or(u64::MAX)
}

fn recorder() -> std::sync::MutexGuard<'static, Recorder> {
    RECORDER
        .lock()
        .expect("span recorder lock poisoned by a panicking span")
}

/// Turn span recording on or off for the spans that follow.
pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Run `f` inside a span named `name`, nested under the innermost open
/// span. Spans are opened and closed on the main thread only.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let ix = {
        let mut r = recorder();
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name: name.to_string(),
            start_ns: now_ns(),
            end_ns: 0,
            parent,
        });
        let ix = r.spans.len() - 1;
        r.open.push(ix);
        ix
    };
    let out = f();
    let mut r = recorder();
    r.spans[ix].end_ns = now_ns();
    r.open.pop();
    out
}

/// Record a span whose interval was measured elsewhere (an HTTP request
/// timed on a generator thread), under the innermost open span.
pub fn record(name: &str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let mut r = recorder();
    let parent = r.open.last().copied();
    r.spans.push(Span {
        name: name.to_string(),
        start_ns: ns_since_origin(start),
        end_ns: ns_since_origin(end),
        parent,
    });
}

static WORK: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());

/// Add `n` to the traced work counted under `name`.
pub fn add_work(name: &str, n: u64) {
    let mut w = WORK.lock().expect("work lock poisoned");
    match w.iter_mut().find(|(k, _)| k == name) {
        Some(entry) => entry.1 += n,
        None => w.push((name.to_string(), n)),
    }
}

/// Work done inside traced units, by counter name.
pub fn work() -> std::collections::BTreeMap<String, u64> {
    WORK.lock()
        .expect("work lock poisoned")
        .iter()
        .cloned()
        .collect()
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<Span> {
    recorder().spans.clone()
}

/// Self time of each span: its duration minus its direct children's,
/// floored at 0. Children run in turn on the main thread, except the
/// requests under the serve window, which overlap across its two
/// connections (the window's self time then reads 0).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e9)
        .collect()
}

/// For every span named `root`, the summed duration of its descendants
/// named `name` (or of the root itself when `name == root`).
pub fn per_root(spans: &[Span], root: &str, name: &str) -> Vec<f64> {
    let mut sums: Vec<(usize, f64)> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root)
        .map(|(i, _)| (i, 0.0))
        .collect();
    for (i, s) in spans.iter().enumerate() {
        if s.name != name {
            continue;
        }
        let mut at = Some(i);
        while let Some(ix) = at {
            if spans[ix].name == root {
                if let Some(entry) = sums.iter_mut().find(|(r, _)| *r == ix) {
                    entry.1 += s.secs();
                }
                break;
            }
            at = spans[ix].parent;
        }
    }
    sums.into_iter().map(|(_, v)| v).collect()
}

/// Write every span as one JSON array to `path`.
pub fn write(path: &std::path::Path, run_id: &str) -> std::io::Result<()> {
    let spans = spans();
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"run\": \"{run_id}\", \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"parent\": {parent}}}{}\n",
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

/// The `q`-quantile of `xs` by the nearest-rank rule on the sorted
/// sample (`q = 0.99` gives the value with 1% of the sample above it).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a, the content hash the repository's pipeline bench uses
/// for cross-process output fingerprints.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A small seeded generator (SplitMix64) for the benchmark's own choices:
/// arrival times and which devices and networks an ingest touches.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}
