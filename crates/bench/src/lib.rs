//! # secflow-bench
//!
//! Experiment implementations behind the `harness` binary, which prints
//! the EXPERIMENTS.md rows and writes the `BENCH_*.json` ledgers — the
//! repository's one benchmark system. See DESIGN.md §4 for the experiment
//! index E1–E8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;
