//! # procsim-core — the integrated mesh multicomputer simulator
//!
//! Ties the substrates together into the experiment the paper runs
//! (§5): jobs arrive (stochastic generator or trace), wait in a scheduling
//! queue (FCFS / SSD), receive processors from an allocation strategy
//! (GABL / Paging(0) / MBS / baselines), perform their communication on
//! the flit-level wormhole network (all-to-all, `Plen = 8`, `ts = 3`),
//! and depart, freeing their processors.
//!
//! The simulator is a hybrid: job-level events (arrivals, single-processor
//! job completions) live in a discrete-event queue, while the network is
//! stepped cycle-by-cycle whenever packets are in flight. A job's *service
//! time* is an output of the network simulation — the span from allocation
//! to the ejection of its last packet — exactly as in ProcSimity, where
//! "the execution times of jobs are not simulator inputs".
//!
//! Entry points:
//! * [`Simulator::run`] — one replication, returning [`RunMetrics`],
//! * [`replicate::run_point`] — replications until the paper's 95 % CI /
//!   5 % relative error criterion is met, executed in parallel on the
//!   shared [`pool`] worker pool (bit-identical to the sequential
//!   reference [`replicate::run_point_seq`] at any thread count),
//! * [`replicate::run_points`] — a whole batch of points (e.g. every
//!   (series × load) combination of a figure) multiplexed over the same
//!   pool.
//!
//! Parallelism is controlled by the CLI `--threads N` flag or the
//! `PROCSIM_THREADS` environment variable; see [`pool`].

pub mod campaign;
pub mod config;
pub mod metrics;
pub mod pool;
pub mod replicate;
pub mod scenario;
pub mod simulator;

pub use campaign::{
    cached_count, csv_field, expand, run_campaign, CampaignError, CampaignOptions, CampaignOutcome,
    CampaignPoint,
};
pub use config::{SimConfig, WorkloadSpec};
pub use scenario::{PointSettings, Scenario, ScenarioError};
pub use metrics::RunMetrics;
pub use pool::WorkerPool;
pub use replicate::{
    derive_seed, run_point, run_point_on, run_point_seq, run_points, run_points_controlled,
    run_points_on, PointResult,
};
pub use simulator::{Simulator, StartDecision};

// Re-export the vocabulary types callers configure with.
pub use mesh_alloc::{PageIndexing, StrategyKind};
pub use mesh_sched::SchedulerKind;
pub use workload::{ParagonModel, SideDist, TraceWorkload};
pub use wormnet::{Pattern, TopologyKind};
