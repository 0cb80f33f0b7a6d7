//! # secflow-bench
//!
//! Experiment implementations behind the `harness` binary, which prints
//! the EXPERIMENTS.md rows: E1–E8 reproduce the paper, and the
//! `saturation`, `certify`, `population` and `incremental` experiments
//! hold deterministic gates. Timing of the user paths lives in
//! `perfbench/`. See DESIGN.md §4 for the experiment index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

pub use experiments::*;
