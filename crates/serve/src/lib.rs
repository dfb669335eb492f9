//! # mpa-serve — the resident analytics daemon
//!
//! The batch CLI re-loads and re-computes everything per invocation; this
//! crate keeps one [`mpa_core::AnalyticsSession`] resident — snapshot
//! archive, ticket stream, case table, MI ranking, causal comparisons and
//! the fitted predictor — and serves them over hand-rolled HTTP/1.1
//! (std-only, like every other crate in the workspace):
//!
//! | endpoint | answers |
//! |---|---|
//! | `GET /healthz` | liveness + corpus shape (networks, months, cases, events) |
//! | `GET /networks/:id/practices` | one network's inferred practice metrics |
//! | `GET /rankings/mi` | the mutual-information practice ranking |
//! | `GET /causal/summary` | quasi-experimental comparisons for top practices |
//! | `GET /predict[?network=N&month=M]` | resident-model health predictions |
//! | `POST /ingest` | apply a snapshot/ticket batch online |
//! | `POST /shutdown` | drain and exit |
//!
//! The contract that makes the daemon trustworthy is **ingest equals
//! batch**: after any sequence of accepted `POST /ingest` batches, every
//! response body is byte-identical to what a freshly started daemon
//! serving the extended corpus would produce. The session layer provides
//! it (per-network re-inference through the exact batch code path, see
//! `mpa_core::session`), [`views`] keeps rendering pure, and the serve
//! test suite enforces it end to end.

pub mod http;
pub mod server;
pub mod views;

pub use server::Server;
