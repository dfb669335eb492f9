//! `mpa-serve` — serve a generated corpus as a resident analytics daemon.
//!
//! ```text
//! mpa-serve --dataset dataset.json [--addr 127.0.0.1:7878] [--threads N]
//!           [--idle-secs N] [--delta MIN] [--causal-top N] [--classes 2|5]
//!           [--obs-out run.json]
//! ```
//!
//! The dataset is loaded and inferred once; queries are answered from the
//! resident state and `POST /ingest` grows it online (see the crate
//! docs). On shutdown the run report (`--obs-out`) carries the serve
//! counters, the latency and queue gauges and the session build span; it
//! holds no per-request nodes, so its size does not grow with uptime.

use mpa_core::predict::HealthClasses;
use mpa_core::{AnalyticsSession, SessionConfig};
use mpa_serve::Server;
use mpa_synth::Dataset;

fn usage_and_exit() -> ! {
    eprintln!(
        "mpa-serve — resident Management Plane Analytics daemon\n\n\
         usage:\n\
           mpa-serve --dataset dataset.json [--addr HOST:PORT] [--threads N]\n\
                     [--idle-secs N] [--delta MIN] [--causal-top N]\n\
                     [--classes 2|5] [--obs-out run.json]\n\n\
         endpoints: GET /healthz, /networks/:id/practices, /rankings/mi,\n\
         /causal/summary, /predict[?network=N&month=M]; POST /ingest, /shutdown"
    );
    std::process::exit(2);
}

/// Parse a numeric flag value or exit 2 (an invalid `--idle-secs abc`
/// must never silently fall back to a default — same contract as
/// `mpa-cli`).
fn parse_num<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag} needs an unsigned integer, got {raw:?}");
        std::process::exit(2);
    })
}

struct Opts {
    dataset: String,
    addr: String,
    threads: Option<usize>,
    idle_secs: Option<u64>,
    delta: Option<u64>,
    causal_top: usize,
    classes: HealthClasses,
    obs_out: Option<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut dataset = None;
        let mut addr = "127.0.0.1:7878".to_string();
        let mut threads = None;
        let mut idle_secs = None;
        let mut delta = None;
        let mut causal_top = SessionConfig::default().causal_top;
        let mut classes = HealthClasses::Two;
        let mut obs_out = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next().cloned().unwrap_or_else(|| {
                    eprintln!("flag {flag} needs a value");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--dataset" => dataset = Some(value()),
                "--addr" => addr = value(),
                "--threads" => threads = Some(parse_num("--threads", &value())),
                "--idle-secs" => idle_secs = Some(parse_num("--idle-secs", &value())),
                "--delta" => delta = Some(parse_num("--delta", &value())),
                "--causal-top" => causal_top = parse_num("--causal-top", &value()),
                "--classes" => {
                    classes = match value().as_str() {
                        "2" => HealthClasses::Two,
                        "5" => HealthClasses::Five,
                        other => {
                            eprintln!("--classes must be 2 or 5, got {other}");
                            std::process::exit(2);
                        }
                    };
                }
                "--obs-out" => obs_out = Some(value()),
                "--help" | "-h" => usage_and_exit(),
                other => {
                    eprintln!("unknown flag {other:?}");
                    usage_and_exit();
                }
            }
        }
        let Some(dataset) = dataset else {
            eprintln!("--dataset <file> is required");
            std::process::exit(2);
        };
        Opts {
            dataset,
            addr,
            threads,
            idle_secs,
            delta,
            causal_top,
            classes,
            obs_out,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Opts::parse(&args);
    if let Some(n) = opts.threads {
        mpa_exec::set_threads(n);
    }
    if opts.obs_out.is_some() {
        mpa_obs::install_collector();
    }

    let json = std::fs::read_to_string(&opts.dataset).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", opts.dataset);
        std::process::exit(1);
    });
    let dataset: Dataset = serde_json::from_str(&json).unwrap_or_else(|e| {
        eprintln!("{} is not a dataset JSON: {e}", opts.dataset);
        std::process::exit(1);
    });
    drop(json); // the daemon keeps the decoded dataset, not its text

    let session_config = SessionConfig {
        delta_minutes: opts.delta.unwrap_or(mpa_metrics::DELTA_DEFAULT_MINUTES),
        causal_top: opts.causal_top,
        classes: opts.classes,
    };
    let session = mpa_obs::span("serve build session", || {
        AnalyticsSession::new(dataset, session_config)
    });
    eprintln!(
        "[mpa-serve] resident: {} networks, {} cases",
        session.dataset().networks.len(),
        session.table().n_cases()
    );

    let server = Server::bind(session, &opts.addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {}: {e}", opts.addr);
        std::process::exit(1);
    });
    // Tests and supervisors parse this line for the actual (possibly
    // ephemeral) port; the session is fully built by now, so a visible
    // address means "ready".
    eprintln!("[mpa-serve] listening on {}", server.local_addr());

    if let Err(e) = server.run(opts.idle_secs) {
        eprintln!("[mpa-serve] accept loop failed: {e}");
        std::process::exit(1);
    }

    if let Some(path) = &opts.obs_out {
        let report = mpa_obs::RunReport::gather();
        report.write(path).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("[mpa-serve] wrote run report {path}");
    }
    eprintln!(
        "[mpa-serve] served {} requests; shut down cleanly",
        mpa_obs::counters::SERVE_REQUESTS.get()
    );
}
