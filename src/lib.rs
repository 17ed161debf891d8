//! # procsim — processor allocation and job scheduling in 2D mesh multicomputers
//!
//! A from-scratch Rust reproduction of Bani-Mohammad, Ould-Khaoua,
//! Mackenzie, Ababneh & Ferguson, *"The Effect of Real Workloads and
//! Stochastic Workloads on the Performance of Allocation and Scheduling
//! Algorithms in 2D Mesh Multicomputers"* (IPDPS 2008), including the
//! ProcSimity-style flit-level wormhole network simulator the paper's
//! experiments ran on.
//!
//! This crate is a facade: it re-exports the public API of the workspace
//! crates so applications depend on one name. See the README for a tour
//! and `DESIGN.md` for the architecture.
//!
//! ## Quick start
//!
//! ```
//! use procsim::{
//!     run_point, SchedulerKind, SimConfig, StrategyKind, WorkloadSpec, SideDist,
//! };
//!
//! // GABL under SSD on the paper's 16x22 mesh, stochastic uniform
//! // workload at a light load, measured over a reduced job count.
//! let mut cfg = SimConfig::paper(
//!     StrategyKind::Gabl,
//!     SchedulerKind::Ssd,
//!     WorkloadSpec::Stochastic { sides: SideDist::Uniform, load: 0.002, num_mes: 5.0 },
//!     42,
//! );
//! cfg.warmup_jobs = 10;
//! cfg.measured_jobs = 60;
//! let point = run_point(&cfg, 3, 5);
//! assert!(point.turnaround() > 0.0);
//! assert!(point.utilization() > 0.0 && point.utilization() <= 1.0);
//! ```

// --- simulator layers, lowest first -------------------------------------
pub use desim::{EventQueue, SimRng, Time};
pub use mesh2d::{
    decompose_pow2_squares, find_free_submesh, largest_free_rect, split_square, Coord, Mesh,
    NodeId, PageGrid, PageIndexing, SubMesh,
};
pub use wormnet::{pattern_messages, route, xy_route, ChannelId, Completion, Network, Pattern, Topology, TopologyKind};

// --- policies -------------------------------------------------------------
pub use mesh_alloc::{
    Allocation, AllocationStrategy, BestFit, FirstFit, Gabl, Mbs, Mc, Paging, RandomNc,
    StrategyKind,
};
pub use mesh_sched::{Fcfs, QueuedJob, Scheduler, SchedulerKind, Ssd};

// --- workloads and statistics ---------------------------------------------
pub use simstats::{student_t_95, Histogram, Replications, StopReason, TimeWeighted, Welford};
pub use workload::{
    factor_for_load, load_for_factor, parse_swf, parse_swf_retained, shape_for_size, summarize,
    summarize_stream, trace_to_jobs, write_swf, write_swf_to, Cm5Model, JobSpec, ParagonModel,
    ScaledJobs, SideDist, StochasticGen, StreamingSummary, SwfError, SwfErrorKind, SwfRecords,
    TraceError, TraceRecord, TraceSummary, TraceWorkload,
};

// --- the integrated simulator ----------------------------------------------
pub use procsim_core::{
    cached_count, csv_field, derive_seed, expand, pool, run_campaign, run_point, run_point_on,
    run_point_seq, run_points, run_points_on, CampaignError, CampaignOptions, CampaignOutcome,
    CampaignPoint, PointResult, PointSettings, RunMetrics, Scenario, ScenarioError, SimConfig,
    Simulator, WorkerPool, WorkloadSpec,
};

/// The mesh dimensions used throughout the paper (the 352-node SDSC
/// Paragon partition shape).
pub const PAPER_MESH: (u16, u16) = (16, 22);

/// The paper's router delay in cycles.
pub const PAPER_TS: u32 = 3;

/// The paper's packet length in flits.
pub const PAPER_PLEN: u32 = 8;

/// The paper's mean per-processor message count.
pub const PAPER_NUM_MES: f64 = 5.0;
