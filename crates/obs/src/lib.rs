//! Structured observability for the MPA pipeline.
//!
//! PRs 1–2 made the pipeline parallel and memory-lean, but the only
//! instrumentation was ad-hoc stderr timing — parse-cache hit rates,
//! matching pair counts and scheduling balance were invisible without a
//! profiler. This crate makes every run auditable through three
//! primitives, all std-only (no dependencies, no unsafe — the same crate
//! policy as `mpa-exec`):
//!
//! * **Counters and gauges** ([`counters`], [`gauges`]) — process-wide,
//!   label-free relaxed atomics, declared statically in one central
//!   registry. Incrementing is always on (a relaxed `fetch_add` is the
//!   entire cost); every registered counter is deterministic and
//!   thread-count invariant, which the CLI integration tests enforce at
//!   1/2/8 workers.
//! * **Coverage** ([`coverage`]) — which parts of the scenario space a
//!   generated corpus exercised (stanza kinds, change types, dialects,
//!   degradation knobs). Items are declared up front and recorded when
//!   exercised, so unexercised items surface as explicit zeros; CI gates
//!   on a committed baseline.
//! * **Spans** ([`span`]) — hierarchical wall-time regions. A span is a
//!   no-op unless a collector is installed ([`install_collector`]), so
//!   library and test callers pay one atomic load per span. Spans are the
//!   only timer: `mpa-cli` always installs the collector and prints one
//!   stderr line per root span; `repro` and `mpa-serve` install it when
//!   `--obs-out` is given.
//! * **The run report** ([`RunReport`]) — a JSON snapshot of the span
//!   tree, all counters and gauges, per-worker scheduling stats and peak
//!   RSS, written next to a run's outputs so perf regressions come with
//!   an explanation attached.
//!
//! Scheduling stats ([`sched`]) are the deliberately thread-count-
//! *dependent* section: per-worker task counts and region imbalance
//! describe how work was scheduled, so they live outside the invariant
//! counter registry.
//!
//! See DESIGN.md §9 for the architecture and the rules for adding a
//! counter.

pub mod counters;
pub mod coverage;
pub mod gauges;
pub mod json;
mod report;
pub mod sched;
mod span;

pub use counters::Counter;
pub use gauges::Gauge;
pub use report::{peak_rss_bytes, RunReport};
pub use span::{collector_installed, install_collector, span, take_spans, SpanNode};
