//! `serve_mixed`: a real `mpa-serve --threads 1` over the medium corpus,
//! loaded from the dataset file, under open-loop reads and ingests.
//!
//! One generator process (this one) drives two keep-alive connections
//! from two threads. Reads arrive as a seeded Poisson stream and split
//! over the five GET endpoints; the second connection posts one ingest
//! batch every `INGEST_PERIOD_S`. Arrivals never wait for the daemon:
//! each request is timed from when it was due, so a stall counts against
//! every request queued behind it. After the window the result bodies are
//! compared with an in-process `AnalyticsSession` fed the same batches in
//! the same order (ingest ≡ cold batch, end to end).

use crate::session::{self, read_path, Targets, ENDPOINTS};
use crate::trace::{self, fnv1a64, median, quantile, SplitMix};
use crate::{balance_checks, counter_diff, Args, Counters, Layers, Outcome};
use mpa_synth::Scenario;
use serde::{Number, Value};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The error a run returns when its generator ran too late to count.
pub const INVALID: &str = "load generator lateness p99 over its limit";
/// Mean read arrivals per second. The read p99 sits among the reads that
/// arrive early in a refresh stall, a few per stall; at 200/s, eight runs
/// alternated with eight at 400/s on a 2-vCPU VM spread 0.26 on
/// `read_p99_ms` against 0.16.
pub const READ_RATE: f64 = 400.0;
/// Seconds between ingest batches: thirty in a fifteen-second window. At
/// one per 0.75 s (twenty), the ingest median and the read p99, which
/// rests on the few longest refresh stalls, spread 0.15 over five seeds on
/// a 2-vCPU VM; at one per 0.5 s, 0.13 and 0.06.
pub const INGEST_PERIOD_S: f64 = 0.5;
/// Daemon restarts from the set-ups' last dataset file before the window.
const RESTARTS: usize = 2;
/// A request unanswered this long after it was due has timed out. Failed
/// requests count at least this slow in every percentile.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the generator keeps reading a reply past `REQUEST_TIMEOUT`, so
/// that it still learns whether the daemon answered 2xx (and applied an
/// ingest) and the daemon's own account can be checked.
const REPLY_DEADLINE: Duration = Duration::from_secs(60);
/// Generator lateness p99 above this makes the run invalid: the schedule,
/// not the daemon, would be setting the latencies. A fifth of the ~100 ms
/// refresh stall that sets `read_p99_ms`; lateness stays near 1–4 ms with
/// the generator sharing its CPU with the daemon.
const LATENESS_P99_LIMIT_MS: f64 = 20.0;
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// Endpoint index of ingests in the request log (reads use 0..5).
const INGEST: usize = ENDPOINTS.len();

/// One keep-alive HTTP/1.1 connection.
struct Http {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Http {
    fn connect(addr: &str) -> io::Result<Http> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_DEADLINE))?;
        stream.set_write_timeout(Some(REPLY_DEADLINE))?;
        Ok(Http {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: mpa-serve\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| bad("non-UTF-8 body"))
    }

    /// A request that must answer 2xx.
    fn get_ok(&mut self, path: &str) -> Result<String, String> {
        match self.request("GET", path, "") {
            Ok((200..=299, body)) => Ok(body),
            Ok((status, body)) => Err(format!("GET {path} answered {status}: {body}")),
            Err(e) => Err(format!("GET {path} failed: {e}")),
        }
    }
}

/// A running `mpa-serve`. Dropping it kills the process if it still runs.
struct Daemon {
    child: Child,
    addr: String,
    log: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    /// Start the daemon and wait for its `listening on` line.
    fn start(bin: &Path, dataset: &Path, obs: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("--dataset")
            .arg(dataset)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--idle-secs",
                "60",
                "--obs-out",
            ])
            .arg(obs)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel::<String>();
        let log = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line.clone());
                lines.push(line);
            }
            lines
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            log: Some(log),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(line) => {
                    if let Some(addr) = line.split("listening on ").nth(1) {
                        daemon.addr = addr.trim().to_string();
                        return Ok(daemon);
                    }
                }
                Err(_) => {
                    return Err(format!(
                        "mpa-serve never reported `listening on`:\n{}",
                        daemon.stop()
                    ))
                }
            }
        }
    }

    /// VmHWM of the daemon process.
    fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Ask the daemon to drain and exit, and wait until it has.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = Http::connect(&self.addr).and_then(|mut c| c.request("POST", "/shutdown", ""));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() && matches!(asked, Ok((200, _))) => {
                    return Ok(())
                }
                Ok(Some(status)) => {
                    return Err(format!(
                        "mpa-serve ended with {status} (shutdown: {asked:?}):\n{}",
                        self.stop()
                    ))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => return Err(format!("mpa-serve did not shut down:\n{}", self.stop())),
            }
        }
    }

    /// Kill the process if it still runs, reap it, and return its log.
    fn stop(&mut self) -> String {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.log
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
            .join("\n")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What became of a request.
#[derive(Clone, Copy, PartialEq)]
enum Reply {
    /// The daemon answered with this status.
    Status(u16),
    /// Never reached the daemon: the connection was refused, or (for a
    /// read) was still busy `REQUEST_TIMEOUT` after the read was due.
    NotSent,
    /// The connection broke mid-request, or no reply came within
    /// `REPLY_DEADLINE`: what the daemon did with it is unknown.
    Broken,
}

/// One request of the timed window.
struct Sent {
    endpoint: usize,
    due: Instant,
    start: Instant,
    end: Instant,
    /// When the connection finished its previous request.
    free: Instant,
    reply: Reply,
}

impl Sent {
    /// The daemon answered 2xx, however late: it counted a 2xx and, for an
    /// ingest, applied the batch.
    fn answered(&self) -> bool {
        matches!(self.reply, Reply::Status(200..=299))
    }

    /// Answered 2xx within `REQUEST_TIMEOUT` of the due time.
    fn ok(&self) -> bool {
        self.answered() && self.end - self.due <= REQUEST_TIMEOUT
    }

    fn latency_ms(&self) -> f64 {
        let latency = self.end - self.due;
        let counted = if self.ok() {
            latency
        } else {
            latency.max(REQUEST_TIMEOUT)
        };
        counted.as_secs_f64() * 1e3
    }

    /// Waiting for the connection's previous request, past the due time.
    fn conn_wait_ms(&self) -> f64 {
        self.free.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator itself started the send, once both the
    /// schedule and the connection allowed it.
    fn lateness_ms(&self) -> f64 {
        self.start
            .saturating_duration_since(self.due.max(self.free))
            .as_secs_f64()
            * 1e3
    }
}

/// Sleep until shortly before `due`, then spin: a sleep alone wakes up to
/// tens of microseconds late, which would count as latency of the daemon.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > SPIN {
            std::thread::sleep(due - now - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Send `plan` (due offset in seconds from `t0`, endpoint, method, path,
/// body) over one keep-alive connection, each request at its due time or
/// as soon as the connection is free after it. A read whose connection is
/// still busy `REQUEST_TIMEOUT` after it was due has timed out unsent; an
/// ingest is sent however late, so that the results still cover every
/// seeded batch. A broken connection ends the plan: the run cannot be
/// checked after it.
fn drive(addr: &str, t0: Instant, plan: &[(f64, usize, &str, String, &str)]) -> Vec<Sent> {
    let mut conn = Http::connect(addr).ok();
    let mut free = t0;
    let mut sent = Vec::with_capacity(plan.len());
    for (offset, endpoint, method, path, body) in plan {
        let due = t0 + Duration::from_secs_f64(*offset);
        wait_until(due);
        let start = Instant::now();
        let reply = if *endpoint != INGEST && start - due > REQUEST_TIMEOUT {
            Reply::NotSent
        } else {
            if conn.is_none() {
                conn = Http::connect(addr).ok();
            }
            match conn.as_mut().map(|c| c.request(method, path, body)) {
                Some(Ok((status, _))) => Reply::Status(status),
                Some(Err(_)) => Reply::Broken,
                None => Reply::NotSent,
            }
        };
        let end = Instant::now();
        sent.push(Sent {
            endpoint: *endpoint,
            due,
            start,
            end,
            free,
            reply,
        });
        if reply == Reply::Broken {
            break;
        }
        free = end;
    }
    sent
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Num(Number::I64(i)) => u64::try_from(*i).ok(),
        Value::Num(Number::U64(u)) => Some(*u),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Num(Number::F64(f)) => Some(*f),
        other => as_u64(other).map(|u| u as f64),
    }
}

fn parse(body: &str, what: &str) -> Result<Value, String> {
    serde_json::from_str(body).map_err(|e| format!("{what} is not JSON: {e}"))
}

/// Networks and cases the daemon serves, found the way a client would.
fn discover(conn: &mut Http) -> Result<Targets, String> {
    let health = parse(&conn.get_ok("/healthz")?, "/healthz")?;
    let networks: Vec<u32> = match field(&health, "network_ids") {
        Some(Value::Array(ids)) => ids.iter().filter_map(as_u64).map(|id| id as u32).collect(),
        _ => return Err("/healthz lists no network_ids".into()),
    };
    let mut cases = Vec::new();
    for &net in &networks {
        let view = parse(
            &conn.get_ok(&format!("/networks/{net}/practices"))?,
            "practices",
        )?;
        if let Some(Value::Array(months)) = field(&view, "months") {
            cases.extend(months.iter().filter_map(as_u64).map(|m| (net, m as usize)));
        }
    }
    if networks.is_empty() || cases.is_empty() {
        return Err("the daemon serves no cases".into());
    }
    Ok(Targets { networks, cases })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // The in-process session that checks the daemon runs at the daemon's
    // thread count.
    mpa_exec::set_threads(1);
    // The medium preset, whatever the workload seed (see `batch::scenario`).
    let scn = Scenario::medium();
    let dataset_path = args.out_dir.join(format!("{}-dataset.json", args.workload));
    let obs_path = args.out_dir.join("serve-report.json");
    let mut layers = Layers::default();

    // Set-up, several times: generate, write the dataset file, start the
    // daemon. Every daemon but the last is shut down again.
    let mut setups: Vec<(f64, f64, bool)> = Vec::new();
    let mut gen_s = Vec::new();
    let mut encode_s = Vec::new();
    let mut kept = None;
    let setup_counters = Counters::now();
    for i in 0..args.setups() {
        let traced = args.trace && i % 2 == 1;
        trace::set_enabled(traced);
        let t = Instant::now();
        let (ds, daemon, start_s) = crate::with_traced_work(|| {
            trace::span("setup", || -> Result<_, String> {
                let t_gen = Instant::now();
                let ds = trace::span("synth.generate", || scn.generate());
                let t_enc = Instant::now();
                let json = trace::span("serde_json.encode", || {
                    serde_json::to_string(&ds).expect("dataset serializes")
                });
                let t_write = Instant::now();
                trace::span("io.write", || std::fs::write(&dataset_path, &json))
                    .map_err(|e| format!("cannot write {}: {e}", dataset_path.display()))?;
                drop(json);
                if traced {
                    gen_s.push((t_enc - t_gen).as_secs_f64());
                    encode_s.push((t_write - t_enc).as_secs_f64());
                }
                let t_start = Instant::now();
                let daemon = trace::span("serve.start", || {
                    Daemon::start(&args.serve_bin, &dataset_path, &obs_path)
                })?;
                Ok((ds, daemon, t_start.elapsed().as_secs_f64()))
            })
        })?;
        setups.push((t.elapsed().as_secs_f64(), start_s, traced));
        if i + 1 < args.setups() {
            daemon.shutdown()?;
        } else {
            kept = Some((ds, daemon));
        }
    }
    trace::set_enabled(false);
    let setup_work = counter_diff(&setup_counters, args.setups() as u64);
    let (dataset, mut daemon) = kept.expect("at least one set-up");
    // More starts from the same file, so that `results_s`, the median
    // start, rests on more samples than there are set-ups.
    let mut starts: Vec<f64> = setups.iter().filter(|s| !s.2).map(|s| s.1).collect();
    for _ in 0..RESTARTS {
        daemon.shutdown()?;
        let t = Instant::now();
        daemon = Daemon::start(&args.serve_bin, &dataset_path, &obs_path)?;
        starts.push(t.elapsed().as_secs_f64());
    }
    layers.synth(&dataset, &setup_work);
    layers.set("synth.generate_s", median(&gen_s));
    layers.set("serde_json.encode_s", median(&encode_s));
    let file_bytes = std::fs::metadata(&dataset_path)
        .map(|m| m.len())
        .unwrap_or(0);
    layers.set(
        "serde_json.dataset_mib",
        file_bytes as f64 / (1024.0 * 1024.0),
    );

    // Plan the window: Poisson reads on one connection, periodic ingests
    // on the other.
    let mut probe =
        Http::connect(&daemon.addr).map_err(|e| format!("cannot connect to mpa-serve: {e}"))?;
    let targets = discover(&mut probe)?;
    let mut requests_ok = 1 + targets.networks.len() as u64;
    let mut rng = SplitMix::new(args.seed ^ 0x5e4e_ba7c_4ead_0002);
    let mut reads_plan = Vec::new();
    let mut at = 0.0;
    loop {
        at += -rng.unit().ln() / READ_RATE;
        if at >= args.seconds {
            break;
        }
        let (endpoint, path) = read_path(reads_plan.len(), &targets);
        reads_plan.push((at, endpoint, "GET", path, ""));
    }
    let n_ingests = (args.seconds / INGEST_PERIOD_S).floor().max(1.0) as usize;
    let bodies = session::ingest_bodies(&dataset, args.seed, n_ingests);
    let ingest_plan: Vec<_> = bodies
        .iter()
        .enumerate()
        .map(|(k, body)| {
            (
                (k as f64 + 0.5) * INGEST_PERIOD_S,
                INGEST,
                "POST",
                "/ingest".to_string(),
                body.as_str(),
            )
        })
        .collect();

    // The timed window.
    trace::set_enabled(args.trace);
    let (reads, ingests) = trace::span("serve.window", || {
        let t0 = Instant::now() + Duration::from_millis(100);
        let (reads, ingests) = std::thread::scope(|s| {
            let r = s.spawn(|| drive(&daemon.addr, t0, &reads_plan));
            let w = s.spawn(|| drive(&daemon.addr, t0, &ingest_plan));
            (
                r.join().expect("read generator panicked"),
                w.join().expect("ingest generator panicked"),
            )
        });
        for s in reads.iter().chain(&ingests) {
            let name = ENDPOINTS
                .get(s.endpoint)
                .map_or("serve.http.ingest".to_string(), |e| {
                    format!("serve.http.{e}")
                });
            trace::record(&name, s.due, s.end);
        }
        (reads, ingests)
    });
    trace::set_enabled(false);

    let lateness: Vec<f64> = reads
        .iter()
        .chain(&ingests)
        .map(Sent::lateness_ms)
        .collect();
    let lateness_p99 = quantile(&lateness, 0.99);
    layers.set("loadgen.lateness_p99_ms", lateness_p99);
    let conn_wait_p99 = quantile(
        &reads.iter().map(Sent::conn_wait_ms).collect::<Vec<_>>(),
        0.99,
    );
    layers.set("serve.conn_wait_p99_ms", conn_wait_p99);
    let read_by_endpoint: Vec<(usize, f64)> =
        reads.iter().map(|s| (s.endpoint, s.latency_ms())).collect();
    let read_ms: Vec<f64> = reads.iter().map(Sent::latency_ms).collect();
    let ingest_ms: Vec<f64> = ingests.iter().map(Sent::latency_ms).collect();
    if let Some(s) = reads
        .iter()
        .chain(&ingests)
        .find(|s| s.reply == Reply::Broken)
    {
        return Err(format!(
            "a {} request lost its connection mid-request, so the daemon's account cannot be checked",
            ENDPOINTS.get(s.endpoint).unwrap_or(&"ingest")
        ));
    }
    let attempted = (reads.len() + ingests.len()) as u64;
    let failed = reads.iter().chain(&ingests).filter(|s| !s.ok()).count() as u64;
    let ok_ingests = ingests.iter().filter(|s| s.answered()).count() as u64;
    requests_ok += reads
        .iter()
        .chain(&ingests)
        .filter(|s| s.answered())
        .count() as u64;
    eprintln!(
        "[perfbench] serve_mixed: {} reads ({:.0}/s Poisson) and {} ingests (every {INGEST_PERIOD_S} s) over {} s, {failed} failed; \
         generator lateness p99 {lateness_p99:.3} ms, connection wait p99 {conn_wait_p99:.3} ms",
        reads.len(),
        READ_RATE,
        ingests.len(),
        args.seconds,
    );
    if lateness_p99 > LATENESS_P99_LIMIT_MS {
        eprintln!("[perfbench] generator lateness p99 {lateness_p99:.3} ms exceeds {LATENESS_P99_LIMIT_MS} ms");
        return Err(INVALID.to_string());
    }
    layers.views(&read_by_endpoint);
    let stalled = reads
        .iter()
        .filter(|r| ingests.iter().any(|i| i.start <= r.due && r.due <= i.end))
        .count();
    layers.set(
        "serve.stalled_read_frac",
        stalled as f64 / reads.len().max(1) as f64,
    );

    // Results after the window, then the daemon's own account.
    let finals = [
        probe.get_ok("/rankings/mi")?,
        probe.get_ok("/causal/summary")?,
        probe.get_ok("/predict")?,
    ];
    requests_ok += finals.len() as u64 + 1; // and the shutdown below
    drop(probe);
    let peak_rss_mib = daemon.peak_rss_mib()?;
    daemon.shutdown()?;
    let report_text = std::fs::read_to_string(&obs_path)
        .map_err(|e| format!("cannot read {}: {e}", obs_path.display()))?;
    let report = parse(&report_text, "the daemon's run report")?;
    let numbers = |section: &str| -> BTreeMap<String, u64> {
        match field(&report, section) {
            Some(Value::Object(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), as_u64(v)?)))
                .collect(),
            _ => BTreeMap::new(),
        }
    };
    let counters = numbers("counters");
    balance_checks(&counters, "mpa-serve")?;
    let count = |n: &str| counters.get(n).copied().unwrap_or(0);
    if count("serve_responses_2xx") != requests_ok {
        return Err(format!(
            "mpa-serve sent {} 2xx responses for {requests_ok} requests answered 2xx",
            count("serve_responses_2xx")
        ));
    }
    if count("serve_ingest_snapshots") + count("serve_ingest_tickets") != 2 * ok_ingests {
        return Err(format!(
            "mpa-serve applied {} + {} events for {ok_ingests} batches of two",
            count("serve_ingest_snapshots"),
            count("serve_ingest_tickets")
        ));
    }
    layers.set(
        "serve.queue_peak",
        numbers("gauges")
            .get("serve_queue_peak")
            .copied()
            .unwrap_or(0) as f64,
    );
    let parallelism = field(&report, "scheduling")
        .and_then(|s| field(s, "effective_parallelism"))
        .and_then(as_f64);
    layers.set("exec.effective_parallelism", parallelism.unwrap_or(0.0));

    // The same batches, in order, through an in-process session.
    let applied: Vec<String> = bodies
        .iter()
        .zip(&ingests)
        .filter(|(_, s)| s.answered())
        .map(|(b, _)| b.clone())
        .collect();
    trace::set_enabled(args.trace);
    let replay = crate::with_traced_work(|| {
        trace::span("session", || session::replay(dataset, &applied, 0))
    })?;
    trace::set_enabled(false);
    let expected = session::result_views(replay.session());
    for (name, (got, want)) in ["/rankings/mi", "/causal/summary", "/predict"]
        .iter()
        .zip(finals.iter().zip(&expected))
    {
        if got != want {
            return Err(format!(
                "{name} after ingest differs from an in-process session fed the same batches"
            ));
        }
    }
    layers.session(&replay);
    let fingerprint = fnv1a64(finals.concat().as_bytes());

    // Median set-up time (`.0`) or daemon start time (`.1`) over the traced
    // or the untraced set-ups.
    let setup_median = |f: fn(&(f64, f64, bool)) -> f64, traced: bool| -> f64 {
        median(
            &setups
                .iter()
                .filter(|s| s.2 == traced)
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    if args.trace {
        layers.overhead(
            setup_median(|s| s.0, true) - setup_median(|s| s.0, false),
            setup_median(|s| s.1, true) - setup_median(|s| s.1, false),
        );
    }
    eprintln!(
        "[perfbench] samples: {} reads ({} beyond p99), {} ingests; daemon started in {:.3} s (median of {} starts)",
        read_ms.len(),
        read_ms.len() / 100,
        ingest_ms.len(),
        median(&starts),
        starts.len()
    );
    Ok(Outcome {
        fingerprint,
        attempted,
        failed,
        e2e: vec![
            ("setup_s", setup_median(|s| s.0, false)),
            ("results_s", median(&starts)),
            ("peak_rss_mib", peak_rss_mib),
            ("read_p50_ms", crate::endpoint_geomean(&read_by_endpoint)),
            ("read_p99_ms", quantile(&read_ms, 0.99)),
            ("ingest_p50_ms", quantile(&ingest_ms, 0.5)),
            (
                "ok_frac",
                (attempted - failed) as f64 / attempted.max(1) as f64,
            ),
        ],
        layers,
    })
}
