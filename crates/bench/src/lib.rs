//! # mpa-bench — reproduction harness
//!
//! * [`fixtures`] — cached dataset + inference fixtures at several scales
//!   (generation and inference are deterministic, so caching is sound).
//! * [`experiments`] — one regenerator per table/figure of the paper; each
//!   returns the printable artifact the `repro` binary prints.
//!
//! Performance is measured by `perfbench/` at the repository root (see
//! `perfbench/README.md` and `BENCHMARK.json`).

pub mod experiments;
pub mod fixtures;

pub use fixtures::{Fixture, FixtureScale};
