//! End-to-end tests of the `mpa-serve` daemon binary: spawn the real
//! process on an ephemeral port, drive it over real sockets.
//!
//! Covered contracts:
//! * endpoint goldens — committed response bytes for every GET endpoint
//!   (regenerate with `MPA_GOLDEN_WRITE=1 cargo test -p mpa-serve`);
//! * concurrency determinism — 16 hammering clients read the same bytes
//!   a single client does;
//! * ingest-equals-batch — responses after an HTTP ingest are
//!   byte-identical to an in-process [`AnalyticsSession`] fed the same
//!   batch (which the root `serve_session` property test in turn pins to
//!   a cold batch run);
//! * malformed requests get 4xx responses, never a hung or dead daemon;
//! * two clients ingesting at once each hear the event count right after
//!   their own batch;
//! * graceful shutdown after load — 4 keep-alive clients and interleaved
//!   ingests get only 2xx responses; the daemon then drains, exits 0, and
//!   writes an obs report whose counters account for every request, with
//!   latency gauges and no per-request span;
//! * `--idle-secs` lets the daemon retire itself.

use mpa_core::{AnalyticsSession, IngestBatch, SessionConfig};
use mpa_model::{NetworkId, Ticket, TicketId, TicketKind, TicketSeverity, Timestamp};
use mpa_serve::views;
use mpa_synth::{Dataset, Scenario};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Tiny corpus shared by every test in this process, written to a
/// pid-scoped temp path so parallel `cargo test` invocations don't race.
fn tiny_dataset_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("mpa_serve_test_{}.json", std::process::id()));
        let json = serde_json::to_string(&Scenario::tiny().generate()).expect("serializes");
        std::fs::write(&path, json).expect("write tiny dataset");
        path
    })
}

fn tiny_dataset() -> Dataset {
    let text = std::fs::read_to_string(tiny_dataset_path()).expect("read tiny dataset");
    serde_json::from_str(&text).expect("parse tiny dataset")
}

fn tiny_session() -> AnalyticsSession {
    AnalyticsSession::new(tiny_dataset(), SessionConfig::default())
}

/// A spawned daemon bound to an ephemeral port.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mpa-serve"))
            .args(["--dataset", tiny_dataset_path().to_str().expect("utf-8 path")])
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn mpa-serve");
        let stderr = child.stderr.take().expect("stderr piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("daemon exited before announcing its address")
                .expect("read daemon stderr");
            if let Some(addr) = line.strip_prefix("[mpa-serve] listening on ") {
                break addr.trim().to_string();
            }
        };
        // Keep draining stderr so the daemon can't block on a full pipe.
        std::thread::spawn(move || for _ in lines.by_ref() {});
        Self { child, addr }
    }

    fn shutdown(&mut self) -> std::process::ExitStatus {
        let (status, _) = self.post("/shutdown", "");
        assert_eq!(status, 200, "shutdown endpoint");
        self.wait_for_exit()
    }

    fn wait_for_exit(&mut self) -> std::process::ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(Instant::now() < deadline, "daemon did not exit within 30s");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn get(&self, path: &str) -> (u16, String) {
        request(&self.addr, "GET", path, "")
    }

    fn post(&self, path: &str, body: &str) -> (u16, String) {
        request(&self.addr, "POST", path, body)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One-shot HTTP/1.1 request over a fresh connection.
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    exchange(
        &mut BufReader::new(stream),
        &format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
    .expect("well-formed request gets a response")
}

/// Write raw bytes on the connection behind `reader` and read one full
/// response; the connection stays open for the next exchange (keep-alive).
/// `None` if the daemon closed the connection without responding (it never
/// should — even garbage gets a 4xx).
fn exchange(reader: &mut BufReader<TcpStream>, payload: &str) -> Option<(u16, String)> {
    let writer = reader.get_mut();
    writer.write_all(payload.as_bytes()).ok()?;
    writer.flush().ok()?;
    let mut status_line = String::new();
    if reader.read_line(&mut status_line).ok()? == 0 {
        return None;
    }
    let status: u16 = status_line.split_whitespace().nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header).ok()? == 0 {
            return None;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((status, String::from_utf8(body).ok()?))
}

/// A `(network, month)` coordinate that has a case, plus a network id —
/// pulled from the in-process session so tests never guess.
fn known_case() -> (u32, usize) {
    let session = tiny_session();
    let net = session.dataset().networks[0].id;
    let cases = session.network_cases(net).expect("first network has rows");
    (net.0, cases.first().expect("at least one case").month)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[test]
fn endpoint_responses_match_golden_files() {
    let daemon = Daemon::spawn(&[]);
    let (net, month) = known_case();
    let fixtures: Vec<(&str, String)> = vec![
        ("healthz.json", "/healthz".to_string()),
        ("practices.json", format!("/networks/{net}/practices")),
        ("rankings_mi.json", "/rankings/mi".to_string()),
        ("causal_summary.json", "/causal/summary".to_string()),
        ("predict_overview.json", "/predict".to_string()),
        ("predict_case.json", format!("/predict?network={net}&month={month}")),
    ];
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden");
    let write = std::env::var("MPA_GOLDEN_WRITE").is_ok_and(|v| v == "1");
    if write {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    for (name, path) in fixtures {
        let (status, body) = daemon.get(&path);
        assert_eq!(status, 200, "GET {path}");
        let file = dir.join(name);
        if write {
            std::fs::write(&file, &body).expect("write golden");
            continue;
        }
        let committed = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", file.display()));
        assert_eq!(
            committed, body,
            "{name} drifted from the committed golden; if intentional, \
             regenerate with MPA_GOLDEN_WRITE=1"
        );
    }
}

#[test]
fn sixteen_concurrent_clients_read_the_same_bytes_as_one() {
    let daemon = Daemon::spawn(&[]);
    let (net, month) = known_case();
    let paths: Vec<String> = vec![
        "/healthz".to_string(),
        format!("/networks/{net}/practices"),
        "/rankings/mi".to_string(),
        "/causal/summary".to_string(),
        format!("/predict?network={net}&month={month}"),
    ];
    let baseline: Vec<(u16, String)> = paths.iter().map(|p| daemon.get(p)).collect();
    for (status, _) in &baseline {
        assert_eq!(*status, 200);
    }
    std::thread::scope(|scope| {
        for client in 0..16 {
            let daemon = &daemon;
            let paths = &paths;
            let baseline = &baseline;
            scope.spawn(move || {
                // Stagger starting offsets so clients hit different
                // endpoints at the same instant.
                for i in 0..paths.len() {
                    let idx = (client + i) % paths.len();
                    let got = daemon.get(&paths[idx]);
                    assert_eq!(got, baseline[idx], "client {client}, {}", paths[idx]);
                }
            });
        }
    });
}

#[test]
fn http_ingest_matches_an_in_process_session_byte_for_byte() {
    let daemon = Daemon::spawn(&[]);
    let mut session = tiny_session();
    let nets: Vec<NetworkId> =
        session.dataset().networks.iter().take(2).map(|n| n.id).collect();
    let horizon = session.dataset().period.total_minutes();
    let batch = IngestBatch {
        snapshots: vec![],
        tickets: nets
            .iter()
            .enumerate()
            .map(|(i, &net)| Ticket {
                id: TicketId(90_000_000 + i as u32),
                network: net,
                kind: TicketKind::UserReport,
                opened: Timestamp(horizon.saturating_sub(10 + i as u64)),
                resolved: None,
                devices: vec![],
                severity: TicketSeverity::High,
                symptom: "ingest parity test".to_string(),
            })
            .collect(),
    };

    let (status, body) =
        daemon.post("/ingest", &serde_json::to_string(&batch).expect("batch serializes"));
    assert_eq!(status, 200, "ingest response: {body}");
    let outcome = session.ingest(batch).expect("in-process ingest accepts the same batch");
    assert!(body.contains(&format!("\"tickets\": {}", outcome.tickets)));

    // Every endpoint must now render exactly what the in-process session
    // renders — the daemon holds no state of its own.
    assert_eq!(daemon.get("/healthz").1, views::healthz(&session));
    for &net in &nets {
        assert_eq!(
            daemon.get(&format!("/networks/{}/practices", net.0)).1,
            views::practices(&session, net).expect("known network")
        );
    }
    session.refresh();
    let analytics = session.analytics_cached().expect("just refreshed");
    assert_eq!(daemon.get("/rankings/mi").1, views::mi_ranking(analytics));
    assert_eq!(daemon.get("/causal/summary").1, views::causal_summary(analytics));
    assert_eq!(daemon.get("/predict").1, views::predict_overview(&session, analytics));
}

#[test]
fn rejected_and_malformed_requests_get_4xx_and_the_daemon_survives() {
    let daemon = Daemon::spawn(&[]);

    // Raw-socket malformations: (payload, expected status).
    let raw_cases: &[(&str, u16)] = &[
        ("GARBAGE\r\n\r\n", 400),
        ("GET /healthz HTTP/2.0\r\n\r\n", 505),
        (&format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(9000)), 431),
        ("GET healthz HTTP/1.1\r\n\r\n", 400),
        ("POST /ingest HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
        ("POST /ingest HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
    ];
    for (payload, want) in raw_cases {
        let stream = TcpStream::connect(&daemon.addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        let (status, _) = exchange(&mut BufReader::new(stream), payload)
            .unwrap_or_else(|| panic!("no response to {payload:?}"));
        assert_eq!(status, *want, "payload {payload:?}");
    }

    // Well-formed but invalid requests.
    let (status, _) = daemon.get("/no/such/endpoint");
    assert_eq!(status, 404);
    let (status, _) = daemon.post("/healthz", "");
    assert_eq!(status, 405);
    let (status, _) = daemon.get("/ingest");
    assert_eq!(status, 405);
    let (status, _) = daemon.get("/predict?network=1");
    assert_eq!(status, 400, "predict needs both params or neither");
    let (status, _) = daemon.get("/predict?network=abc&month=0");
    assert_eq!(status, 400);
    let (status, _) = daemon.get("/networks/999999/practices");
    assert_eq!(status, 404);
    let (status, body) = daemon.post("/ingest", "{not json");
    assert_eq!(status, 400, "body: {body}");
    // Nesting far past the decoder's depth cap, bare and inside a field the
    // batch does not have: a 400, not a stack overflow that kills the daemon.
    for deep in ["[".repeat(200_000), format!("{{\"extra\": {}", "[".repeat(200_000))] {
        let (status, body) = daemon.post("/ingest", &deep);
        assert_eq!(status, 400, "body: {body}");
    }
    let (status, body) = daemon.post(
        "/ingest",
        "{\"snapshots\": [], \"tickets\": [{\"id\": 7, \"network\": 999999, \
         \"kind\": \"UserReport\", \"opened\": 1, \"resolved\": null, \
         \"devices\": [], \"severity\": \"Low\", \"symptom\": \"x\"}]}",
    );
    assert_eq!(status, 422, "body: {body}");
    assert!(body.contains("unknown network"), "body: {body}");

    // After all of that the daemon still answers.
    let (status, body) = daemon.get("/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""));
}

#[test]
fn graceful_shutdown_drains_and_writes_the_obs_report() {
    // Load first: 4 keep-alive clients send 400 requests over the five
    // GETs, with a one-ticket ingest every 50th request.
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 400;
    const INGEST_EVERY: usize = 50;
    let report =
        std::env::temp_dir().join(format!("mpa_serve_report_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&report);
    let mut daemon = Daemon::spawn(&["--obs-out", report.to_str().expect("utf-8 path")]);
    let session = tiny_session();
    let nets: Vec<NetworkId> = session.dataset().networks.iter().map(|n| n.id).collect();
    let horizon = session.dataset().period.total_minutes();
    let (net, month) = known_case();
    let paths = [
        "/healthz".to_string(),
        format!("/networks/{net}/practices"),
        "/rankings/mi".to_string(),
        "/causal/summary".to_string(),
        format!("/predict?network={net}&month={month}"),
    ];
    // Request `seq` of the run: every 50th is a one-ticket ingest, the
    // rest cycle through the five GETs.
    let request = |seq: usize| -> String {
        if seq % INGEST_EVERY != INGEST_EVERY - 1 {
            let path = &paths[seq % paths.len()];
            return format!("GET {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n");
        }
        let batch = IngestBatch {
            snapshots: vec![],
            tickets: vec![Ticket {
                id: TicketId(91_000_000 + seq as u32),
                network: nets[seq % nets.len()],
                kind: TicketKind::MonitoringAlarm,
                opened: Timestamp(seq as u64 * 37 % horizon),
                resolved: None,
                devices: vec![],
                severity: TicketSeverity::Low,
                symptom: "load test".to_string(),
            }],
        };
        let body = serde_json::to_string(&batch).expect("batch serializes");
        format!(
            "POST /ingest HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };

    // Each client owns requests c, c + 4, c + 8, ... on one connection.
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (addr, request) = (&daemon.addr, &request);
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect to daemon");
                stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
                let mut conn = BufReader::new(stream);
                for seq in (client..REQUESTS).step_by(CLIENTS) {
                    let (status, body) = exchange(&mut conn, &request(seq))
                        .unwrap_or_else(|| panic!("client {client}: no response to request {seq}"));
                    assert!((200..300).contains(&status), "request {seq}: {status} {body}");
                }
            });
        }
    });
    let status = daemon.shutdown();
    assert!(status.success(), "daemon exit status {status}");

    // The daemon's own account: one 2xx per request sent (the shutdown
    // included), every posted ticket applied, and the session build span.
    let text = std::fs::read_to_string(&report).expect("obs report written on shutdown");
    let _ = std::fs::remove_file(&report);
    assert!(text.contains("serve build session"), "report lacks the session build span");
    for method in ["GET", "POST"] {
        let node = format!("\"label\": \"{method} ");
        assert!(!text.contains(&node), "report holds a per-request {method} span");
    }
    let report: serde::Value = serde_json::from_str(&text).expect("report is JSON");
    let number = |section: &str, name: &str| -> u64 {
        let section = report.as_object().and_then(|o| o.iter().find(|(k, _)| k == section));
        let value = section
            .and_then(|(_, c)| c.as_object())
            .and_then(|c| c.iter().find(|(k, _)| k == name))
            .map(|(_, v)| v);
        match value {
            Some(serde::Value::Num(serde::Number::U64(n))) => *n,
            Some(serde::Value::Num(serde::Number::I64(n))) => u64::try_from(*n).expect("count"),
            other => panic!("{name}: {other:?}"),
        }
    };
    assert_eq!(number("counters", "serve_responses_2xx"), REQUESTS as u64 + 1);
    assert_eq!(number("counters", "serve_ingest_tickets"), (REQUESTS / INGEST_EVERY) as u64);
    // Each ingest waited for the write lock, so at least one was counted
    // waiting.
    assert!(number("gauges", "serve_queue_peak") >= 1, "serve_queue_peak");
    let [p50, p99, max] = ["p50", "p99", "max"]
        .map(|q| number("gauges", &format!("serve_latency_{q}_us")));
    assert!(0 < p50 && p50 <= p99 && p99 <= max, "latency gauges {p50} {p99} {max}");
}

#[test]
fn concurrent_ingest_replies_count_their_own_batch() {
    // Two clients post one-ticket batches at once; each reply must carry
    // the event count right after its own batch, so across both clients
    // the replies read 1..=2N, each once.
    const PER_CLIENT: u32 = 12;
    let daemon = Daemon::spawn(&[]);
    let mut session = tiny_session();
    let net = session.dataset().networks[0].id;
    let horizon = session.dataset().period.total_minutes();
    let batch = |client: u32, k: u32| IngestBatch {
        snapshots: vec![],
        tickets: vec![Ticket {
            id: TicketId(92_000_000 + client * 1_000 + k),
            network: net,
            kind: TicketKind::MonitoringAlarm,
            opened: Timestamp(horizon / 2),
            resolved: None,
            devices: vec![],
            severity: TicketSeverity::Low,
            symptom: "concurrent ingest".to_string(),
        }],
    };
    let start = std::sync::Barrier::new(2);
    let mut replies: Vec<u64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2u32)
            .map(|client| {
                let (addr, start, batch) = (&daemon.addr, &start, &batch);
                scope.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect to daemon");
                    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
                    let mut conn = BufReader::new(stream);
                    start.wait();
                    (0..PER_CLIENT)
                        .map(|k| {
                            let body =
                                serde_json::to_string(&batch(client, k)).expect("serializes");
                            let request = format!(
                                "POST /ingest HTTP/1.1\r\nHost: test\r\n\
                                 Content-Length: {}\r\n\r\n{body}",
                                body.len()
                            );
                            let (status, reply) =
                                exchange(&mut conn, &request).expect("ingest answered");
                            assert_eq!(status, 200, "reply: {reply}");
                            let count = reply
                                .split("\"events_applied\": ")
                                .nth(1)
                                .and_then(|rest| rest.split('}').next())
                                .and_then(|n| n.parse().ok());
                            count.unwrap_or_else(|| panic!("no events_applied in {reply}"))
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect()
    });
    replies.sort_unstable();
    assert_eq!(replies, (1..=2 * u64::from(PER_CLIENT)).collect::<Vec<u64>>());

    // No write was lost or doubled: the daemon serves what a session fed
    // the same 2N batches serves. Ticket batches commute, so the order the
    // daemon applied them in does not matter.
    for client in 0..2 {
        for k in 0..PER_CLIENT {
            session.ingest(batch(client, k)).expect("in-process ingest");
        }
    }
    assert_eq!(daemon.get("/healthz").1, views::healthz(&session));
    assert_eq!(
        daemon.get(&format!("/networks/{}/practices", net.0)).1,
        views::practices(&session, net).expect("known network")
    );
}

#[test]
fn idle_timeout_retires_the_daemon_cleanly() {
    let mut daemon = Daemon::spawn(&["--idle-secs", "1"]);
    assert_eq!(daemon.get("/healthz").0, 200);
    let status = daemon.wait_for_exit();
    assert!(status.success(), "idle exit status {status}");
}
