//! # procsim-bench — model validation and micro-benchmarks
//!
//! Every paper figure and ablation is a scenario file
//! (`scenarios/*.toml`, run with `procsim campaign`). This crate holds
//! what has no scenario-file port yet: the `trace_vs_synthetic` binary,
//! which replays the checked-in SWF sample against the Paragon model at
//! matched offered loads (the format has no trace-path knob and cannot
//! give the model side an offered load), plus the criterion
//! micro-benchmarks under `benches/`.
//!
//! `--threads N` / `PROCSIM_THREADS` size the worker pool and `--full`
//! selects the paper's protocol ([`RunMode`]); results are bit-identical
//! for any thread count.

pub mod plot;
pub mod runner;

pub use plot::ascii_chart;
pub use runner::RunMode;
