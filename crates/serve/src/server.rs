//! The daemon: accept loop, router, single-writer ingest, shutdown.
//!
//! Concurrency model (DESIGN.md §14):
//!
//! * The [`mpa_core::AnalyticsSession`] lives behind one `RwLock`. GET
//!   handlers take the read lock and render views from the eagerly
//!   refreshed analytics cache, so reads never compute.
//! * All mutation goes through that lock's **write guard**: the `/ingest`
//!   handler decodes its batch outside any lock, then applies it and
//!   refreshes the derived analytics under the write lock, and answers
//!   only after dropping the guard. A writer waits for its turn on the
//!   lock — backpressure, not load shedding — so an accepted 2xx always
//!   means "applied and visible".
//! * Connections get one thread each (keep-alive, short read timeout).
//!   The accept loop polls with a non-blocking listener so it can watch
//!   the shutdown flag and the idle deadline between accepts.
//! * Shutdown (POST `/shutdown`, or `--idle-secs` with no traffic) stops
//!   accepting, lets in-flight connections drain, then records latency
//!   percentiles and the most ingests that ever waited for the write lock
//!   into the observability gauges. Latencies live in fixed log-scale
//!   buckets of relaxed atomics, so a request takes no lock to record one
//!   and a daemon's bookkeeping does not grow with its uptime. The
//!   workspace denies `unsafe`, so there is deliberately no signal
//!   handler; supervisors use the HTTP shutdown or the idle deadline
//!   instead.

use crate::http::{self, ReadError, Request};
use crate::views;
use mpa_core::{AnalyticsSession, IngestBatch};
use mpa_model::NetworkId;
use mpa_obs::counters;
use mpa_obs::gauges;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection read blocks before re-checking the shutdown
/// flag; also the drain latency bound for idle keep-alive connections.
const READ_TIMEOUT: Duration = Duration::from_millis(250);
/// Accept-loop poll interval when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

struct Shared {
    session: RwLock<AnalyticsSession>,
    shutdown: AtomicBool,
    started: Instant,
    /// Milliseconds since `started` of the most recent request or accept.
    last_activity_ms: AtomicU64,
    /// Ingests waiting for the write lock, and the most that ever did.
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    /// Per-request latencies (read into gauges at shutdown).
    latencies: Latencies,
}

impl Shared {
    fn touch(&self) {
        let ms = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        self.last_activity_ms.store(ms, Ordering::Relaxed);
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, AnalyticsSession> {
        self.session.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bound, not-yet-running daemon. Created with [`Server::bind`] so the
/// caller can learn the actual address (ephemeral ports) before serving.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Build the daemon around an already-loaded session and bind the
    /// listener to `addr` (`host:port`; port 0 picks an ephemeral port).
    /// The session's analytics are refreshed here so every read path finds
    /// the cache warm.
    pub fn bind(mut session: AnalyticsSession, addr: &str) -> std::io::Result<Server> {
        session.refresh();
        let shared = Arc::new(Shared {
            session: RwLock::new(session),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            last_activity_ms: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            latencies: Latencies::default(),
        });
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server { listener, local_addr, shared })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serve until shut down (POST `/shutdown`, or `idle_secs` without a
    /// request), then drain connections and record the latency/queue
    /// gauges.
    pub fn run(self, idle_secs: Option<u64>) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let shared = &self.shared;
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    shared.touch();
                    handles.retain(|h| !h.is_finished());
                    let conn_shared = Arc::clone(shared);
                    handles.push(std::thread::spawn(move || {
                        handle_connection(&conn_shared, stream);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if let Some(limit) = idle_secs {
                        let idle_ms = u64::try_from(shared.started.elapsed().as_millis())
                            .unwrap_or(u64::MAX)
                            .saturating_sub(shared.last_activity_ms.load(Ordering::Relaxed));
                        if idle_ms >= limit.saturating_mul(1000) {
                            eprintln!("[mpa-serve] idle for {limit}s, shutting down");
                            shared.shutdown.store(true, Ordering::Release);
                        }
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: every in-flight request, ingests included, finishes on its
        // own connection's thread.
        for h in handles {
            let _ = h.join();
        }

        let lat = &self.shared.latencies;
        if let (Some(p50), Some(p99)) = (lat.quantile(1, 2), lat.quantile(99, 100)) {
            gauges::SERVE_LATENCY_P50_US.set(p50);
            gauges::SERVE_LATENCY_P99_US.set(p99);
            gauges::SERVE_LATENCY_MAX_US.set(lat.max_us.load(Ordering::Relaxed));
        }
        gauges::SERVE_QUEUE_PEAK.set(self.shared.queue_peak.load(Ordering::Relaxed));
        Ok(())
    }
}

/// Sub-buckets per power of two in [`Latencies`] (`1 << LATENCY_SUB_BITS`).
const LATENCY_SUB_BITS: u32 = 2;
const LATENCY_SUB: u64 = 1 << LATENCY_SUB_BITS;
/// Buckets up to `u64::MAX` µs.
const LATENCY_BUCKETS: usize = (65 - LATENCY_SUB_BITS as usize) * LATENCY_SUB as usize;

/// Request latencies in microseconds, counted in fixed log-scale buckets
/// of relaxed atomics. Below `LATENCY_SUB` µs a bucket holds one value;
/// above, each power of two splits into `LATENCY_SUB` equal buckets, so a
/// bucket is at most a quarter as wide as its lower bound. The maximum is
/// kept exactly.
struct Latencies {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    max_us: AtomicU64,
}

impl Default for Latencies {
    fn default() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)), max_us: AtomicU64::new(0) }
    }
}

impl Latencies {
    fn bucket(us: u64) -> usize {
        if us < LATENCY_SUB {
            return us as usize;
        }
        let shift = 63 - us.leading_zeros() - LATENCY_SUB_BITS;
        let sub = (us >> shift) & (LATENCY_SUB - 1);
        ((u64::from(shift) + 1) * LATENCY_SUB + sub) as usize
    }

    /// The largest latency bucket `i` holds.
    fn upper_bound(i: usize) -> u64 {
        let i = i as u64;
        if i < LATENCY_SUB {
            return i;
        }
        let shift = i / LATENCY_SUB - 1;
        let lower = (LATENCY_SUB + i % LATENCY_SUB) << shift;
        lower + ((1u64 << shift) - 1)
    }

    fn record(&self, us: u64) {
        if let Some(b) = self.buckets.get(Self::bucket(us)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// The latency at rank `count · num / den` (0-based) in ascending
    /// order, as its bucket's upper bound capped at the maximum; `None`
    /// before the first request.
    fn quantile(&self, num: u64, den: u64) -> Option<u64> {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let rank = counts.iter().sum::<u64>() * num / den;
        let mut seen = 0;
        let i = counts.iter().position(|&c| {
            seen += c;
            seen > rank
        })?;
        Some(Self::upper_bound(i).min(self.max_us.load(Ordering::Relaxed)))
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut out = stream;
    loop {
        match http::read_request(&mut reader) {
            Ok(req) => {
                shared.touch();
                let started = Instant::now();
                let (status, body) = route(shared, &req);
                count_status(status);
                let keep = req.keep_alive && status < 500;
                if http::write_response(&mut out, status, &body, keep).is_err() {
                    break;
                }
                let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                shared.latencies.record(us);
                if !keep {
                    break;
                }
            }
            Err(ReadError::Idle) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => break,
            Err(ReadError::Bad { status, reason }) => {
                count_status(status);
                let _ = http::write_response(&mut out, status, &views::error_body(reason), false);
                break;
            }
        }
    }
}

fn count_status(status: u16) {
    match status {
        200..=299 => counters::SERVE_RESPONSES_2XX.add(1),
        400..=499 => counters::SERVE_RESPONSES_4XX.add(1),
        _ => counters::SERVE_RESPONSES_5XX.add(1),
    }
}

/// The route table. Returns `(status, json_body)`; must never panic on
/// any input (the malformed-request test suite holds it to that).
fn route(shared: &Arc<Shared>, req: &Request) -> (u16, String) {
    counters::SERVE_REQUESTS.add(1);
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["healthz"] => get_only(req, || (200, views::healthz(&shared.read()))),
        ["networks", id, "practices"] => {
            let id = *id;
            get_only(req, || {
                let Ok(id) = id.parse::<u32>() else {
                    return (400, views::error_body("network id must be an unsigned integer"));
                };
                match views::practices(&shared.read(), NetworkId(id)) {
                    Some(body) => (200, body),
                    None => (404, views::error_body("unknown network")),
                }
            })
        }
        ["rankings", "mi"] => {
            get_only(req, || with_analytics(shared, |_, a| views::mi_ranking(a)))
        }
        ["causal", "summary"] => {
            get_only(req, || with_analytics(shared, |_, a| views::causal_summary(a)))
        }
        ["predict"] => get_only(req, || predict(shared, req)),
        ["ingest"] => post_only(req, || ingest(shared, req)),
        ["shutdown"] => post_only(req, || {
            shared.shutdown.store(true, Ordering::Release);
            (200, "{\"status\": \"draining\"}".to_string())
        }),
        _ => (404, views::error_body("no such endpoint")),
    }
}

fn get_only(req: &Request, f: impl FnOnce() -> (u16, String)) -> (u16, String) {
    if req.method != "GET" {
        return (405, views::error_body("method not allowed (use GET)"));
    }
    f()
}

fn post_only(req: &Request, f: impl FnOnce() -> (u16, String)) -> (u16, String) {
    if req.method != "POST" {
        return (405, views::error_body("method not allowed (use POST)"));
    }
    f()
}

fn with_analytics(
    shared: &Shared,
    f: impl FnOnce(&AnalyticsSession, &mpa_core::Analytics) -> String,
) -> (u16, String) {
    let session = shared.read();
    match session.analytics_cached() {
        Some(a) => (200, f(&session, a)),
        // Unreachable in practice: bind() and every ingest refresh
        // eagerly. Kept as a response, not an assert — the daemon must
        // not panic.
        None => (503, views::error_body("analytics not materialized")),
    }
}

fn predict(shared: &Shared, req: &Request) -> (u16, String) {
    let network = req.query_param("network");
    let month = req.query_param("month");
    match (network, month) {
        (None, None) => with_analytics(shared, views::predict_overview),
        (Some(n), Some(m)) => {
            let (Ok(n), Ok(m)) = (n.parse::<u32>(), m.parse::<usize>()) else {
                return (400, views::error_body("network and month must be unsigned integers"));
            };
            match views::predict_case(&shared.read(), NetworkId(n), m) {
                Some(body) => (200, body),
                None => (404, views::error_body("no such case (network, month)")),
            }
        }
        _ => (400, views::error_body("pass both network and month, or neither")),
    }
}

fn ingest(shared: &Shared, req: &Request) -> (u16, String) {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return (400, views::error_body("ingest body is not valid UTF-8"));
    };
    let batch: IngestBatch = match serde_json::from_str(text) {
        Ok(b) => b,
        Err(e) => return (400, views::error_body(&format!("ingest body is not a batch: {e}"))),
    };
    // Apply in a block of its own, so the write guard drops before the
    // reply is written.
    let depth = shared.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    shared.queue_peak.fetch_max(depth, Ordering::Relaxed);
    let result = {
        let guard = shared.session.write();
        shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        // Poisoned: an earlier apply panicked part-way through its batch,
        // so no later batch may build on what it left.
        let Ok(mut session) = guard else {
            return (503, views::error_body("ingest unavailable: an earlier ingest failed"));
        };
        let result = session.ingest(batch);
        if result.is_ok() {
            // Refresh under the write lock: once this handler answers 2xx,
            // every read path sees the new corpus *and* the new analytics.
            session.refresh();
        }
        result
    };
    match result {
        Ok(outcome) => {
            counters::SERVE_INGEST_SNAPSHOTS.add(outcome.snapshots as u64);
            counters::SERVE_INGEST_TICKETS.add(outcome.tickets as u64);
            (
                200,
                format!(
                    "{{\"status\": \"applied\", \"snapshots\": {}, \"tickets\": {}, \
                     \"networks_reinferred\": {}, \"events_applied\": {}}}",
                    outcome.snapshots,
                    outcome.tickets,
                    outcome.networks_reinferred,
                    outcome.events_applied
                ),
            )
        }
        Err(e) => {
            counters::SERVE_INGEST_REJECTED.add(1);
            (422, views::error_body(&e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpa_core::SessionConfig;
    use mpa_synth::Scenario;

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    #[test]
    fn a_poisoned_session_refuses_ingests_and_still_serves_reads() {
        let session = AnalyticsSession::new(Scenario::tiny().generate(), SessionConfig::default());
        let server = Server::bind(session, "127.0.0.1:0").expect("bind");
        let shared = Arc::clone(&server.shared);
        let (status, _) = route(&shared, &request("GET", "/healthz", ""));
        assert_eq!(status, 200);
        let healthz = views::healthz(&shared.read());

        // An apply that panics while it holds the write guard.
        let writer = Arc::clone(&shared);
        let applied = std::thread::spawn(move || {
            let _guard = writer.session.write();
            panic!("apply failed part-way");
        })
        .join();
        assert!(applied.is_err() && shared.session.is_poisoned());

        let empty = "{\"snapshots\": [], \"tickets\": []}";
        let (status, body) = route(&shared, &request("POST", "/ingest", empty));
        assert_eq!(status, 503, "{body}");
        assert_eq!(route(&shared, &request("GET", "/healthz", "")), (200, healthz));
        let waits = [&shared.queue_depth, &shared.queue_peak].map(|a| a.load(Ordering::Relaxed));
        assert_eq!(waits, [0, 1], "the refused ingest waited once, then stopped waiting");
    }

    #[test]
    fn every_latency_lands_in_the_bucket_that_bounds_it() {
        let mut probes: Vec<u64> = (0..4096).collect();
        probes.extend((12..64).flat_map(|e| [(1u64 << e) - 1, 1 << e, (1 << e) + 1]));
        probes.push(u64::MAX);
        for us in probes {
            let i = Latencies::bucket(us);
            assert!(i < LATENCY_BUCKETS, "{us} µs");
            assert!(Latencies::upper_bound(i) >= us, "{us} µs above bucket {i}");
            if i > 0 {
                assert!(Latencies::upper_bound(i - 1) < us, "{us} µs fits bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn quantiles_are_ordered_and_capped_at_the_maximum() {
        let lat = Latencies::default();
        assert_eq!(lat.quantile(1, 2), None);
        for us in (1..=1000).chain([250_000]) {
            lat.record(us);
        }
        let (p50, p99) = (lat.quantile(1, 2).unwrap(), lat.quantile(99, 100).unwrap());
        let max = lat.max_us.load(Ordering::Relaxed);
        assert!((500..=640).contains(&p50), "p50 {p50}");
        assert!((990..=1023).contains(&p99), "p99 {p99}");
        assert_eq!(max, 250_000);
        assert_eq!(lat.quantile(1000, 1001), Some(max), "the top bucket is capped");
    }
}
