//! # procsim-bench — experiment binaries and micro-benchmarks
//!
//! The paper's figures are scenario files (`scenarios/figNN.toml`, run
//! with `procsim campaign`). This crate holds what has no scenario-file
//! port yet: the ablation and future-work binaries that need a knob the
//! scenario format lacks (a windowed scheduler, page indexing, traffic
//! patterns, the CM-5 and replayed-trace workloads, the busy-list probe),
//! plus the criterion micro-benchmarks under `benches/`.
//!
//! Each binary funnels all of its points — and all of each point's
//! replications — through the workspace-wide worker pool
//! ([`procsim_core::pool`]) as one batch ([`run_sweep`]). `--threads N`
//! / `PROCSIM_THREADS` size the pool and `--full` selects the paper's
//! protocol ([`RunMode`]); results are bit-identical for any thread
//! count.

pub mod plot;
pub mod runner;

pub use plot::ascii_chart;
pub use runner::{ablation_args, run_sweep, RunMode};
