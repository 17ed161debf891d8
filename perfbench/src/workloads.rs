//! The three benchmark workloads: each is a fixed batch of
//! `(SimConfig, rep)` replications built from the seed.
//!
//! * `paper_mesh` — the paper's §5 figure path: stochastic uniform sides
//!   on the 16×22 mesh, {GABL, Paging(0), MBS} × {FCFS, SSD} × loads
//!   {0.0008, 0.004}, each config's replications run through
//!   `run_points_on` on a 2-thread pool. The 1-VC mesh network step
//!   dominates; the only workload on the pool.
//! * `paragon_trace` — the paper's "real workload": streaming SWF replay
//!   of a 100k-job Paragon-model fixture at offered load 0.7, the paper's
//!   strategies × schedulers, serial. The only workload whose set-up
//!   opens a trace. It maps 3600 s of runtime to one message, not the
//!   usual 360: the model's heavy-tailed runtimes otherwise put jobs of
//!   10^5 packets in some seeds' batches and not others, and throughput
//!   and peak memory would measure the seed rather than the simulator.
//! * `contig_backfill` — exponential sides far past saturation with
//!   light communication, {FirstFit, BestFit} × {EASY, FCFS-window(8)},
//!   serial: the queue stays deep, so allocator search, feasibility and
//!   memo rejection and the EASY observation path do the most work.

use desim::SimRng;
use procsim_core::{
    derive_seed, SchedulerKind, SideDist, SimConfig, StrategyKind, TraceWorkload, WorkerPool,
    WorkloadSpec,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use workload::ParagonModel;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_mesh", "paragon_trace", "contig_backfill"];

/// One of [`NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper matrix on the mesh, pooled.
    PaperMesh,
    /// Paragon trace replay, serial.
    ParagonTrace,
    /// Contiguous allocators behind backfilling schedulers, serial.
    ContigBackfill,
}

/// Batch size: `Full` is what the benchmark measures; `Tiny` is for the
/// self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A seconds-long smoke size.
    Tiny,
}

/// Pool size of the pooled workload: two threads, the `nproc` of the
/// 2-vCPU machine the workloads were sized on.
pub const POOL_THREADS: usize = 2;

/// A workload's set-up product: the configs, the replications of each,
/// and, for the pooled workload, the started pool.
pub struct Prepared {
    /// One config per experimental point.
    pub cfgs: Vec<SimConfig>,
    /// Replications per config.
    pub reps: u64,
    /// Config `i` runs replications `i * rep_stride ..`: 0 for all but
    /// the trace workload, whose replications replay the trace segment of
    /// their index, so a stride of `reps` gives every config segments of
    /// its own and the batch samples more of the seed's trace.
    rep_stride: u64,
    /// The worker pool (pooled workload only).
    pub pool: Option<WorkerPool>,
}

impl Prepared {
    /// Every `(config index, rep)` of the batch, in `run_points_on`
    /// submission order (config-major).
    pub fn keys(&self) -> Vec<(usize, u64)> {
        (0..self.cfgs.len())
            .flat_map(|i| (0..self.reps).map(move |r| (i, i as u64 * self.rep_stride + r)))
            .collect()
    }
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        let w = match name {
            "paper_mesh" => Workload::PaperMesh,
            "paragon_trace" => Workload::ParagonTrace,
            "contig_backfill" => Workload::ContigBackfill,
            _ => return None,
        };
        Some(w)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMesh => NAMES[0],
            Workload::ParagonTrace => NAMES[1],
            Workload::ContigBackfill => NAMES[2],
        }
    }

    /// Whether the batch runs on the worker pool.
    pub fn pooled(self) -> bool {
        self == Workload::PaperMesh
    }

    /// `(warmup, measured)` jobs per replication and replications per config.
    fn budget(self, size: Size) -> (usize, usize, u64) {
        match (self, size) {
            (_, Size::Tiny) => (5, 20, 2),
            (Workload::PaperMesh, Size::Full) => (20, 80, 2),
            (Workload::ParagonTrace, Size::Full) => (30, 120, 24),
            (Workload::ContigBackfill, Size::Full) => (100, 400, 10),
        }
    }

    /// Jobs in the trace fixture (`paragon_trace` only).
    fn fixture_jobs(size: Size) -> usize {
        match size {
            Size::Full => 100_000,
            Size::Tiny => 2_000,
        }
    }

    /// Writes the `paragon_trace` fixture for `seed` into `dir` and returns
    /// its path; `None` for the other workloads. This is preparation, not
    /// set-up: the caller keeps it outside every timed section.
    pub fn write_fixture(
        self,
        seed: u64,
        size: Size,
        dir: &Path,
    ) -> std::io::Result<Option<PathBuf>> {
        if self != Workload::ParagonTrace {
            return Ok(None);
        }
        std::fs::create_dir_all(dir)?;
        let path = dir.join("paragon.swf");
        let model = ParagonModel {
            jobs: Self::fixture_jobs(size),
            ..ParagonModel::default()
        };
        let mut rng = SimRng::new(derive_seed(seed, 0x5EED_F1C5));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        workload::write_swf_to(&mut out, model.stream(&mut rng))?;
        std::io::Write::flush(&mut out)?;
        Ok(Some(path))
    }

    /// The timed set-up: opens the trace (if any), builds every config and
    /// starts the pool (if any). Also returns the seconds spent in the
    /// workload layer (opening the trace, or building the stochastic
    /// workload specs).
    pub fn setup(
        self,
        seed: u64,
        size: Size,
        fixture: Option<&Path>,
    ) -> Result<(Prepared, f64), String> {
        let (warmup, measured, reps) = self.budget(size);
        let open = std::time::Instant::now();
        let paper_strategies = StrategyKind::PAPER;
        let mut specs: Vec<(StrategyKind, SchedulerKind, WorkloadSpec)> = Vec::new();
        match self {
            Workload::PaperMesh => {
                for strategy in paper_strategies {
                    for scheduler in SchedulerKind::PAPER {
                        for load in [0.0008, 0.004] {
                            let spec = WorkloadSpec::Stochastic {
                                sides: SideDist::Uniform,
                                load,
                                num_mes: 5.0,
                            };
                            specs.push((strategy, scheduler, spec));
                        }
                    }
                }
            }
            Workload::ParagonTrace => {
                let path = fixture.ok_or("paragon_trace needs its fixture")?;
                let trace = Arc::new(TraceWorkload::open(path).map_err(|e| e.to_string())?);
                for strategy in paper_strategies {
                    for scheduler in SchedulerKind::PAPER {
                        let spec = WorkloadSpec::Trace {
                            trace: trace.clone(),
                            load: 0.7,
                            runtime_scale: 3600.0,
                        };
                        specs.push((strategy, scheduler, spec));
                    }
                }
            }
            Workload::ContigBackfill => {
                for strategy in [StrategyKind::FirstFit, StrategyKind::BestFit] {
                    for scheduler in [SchedulerKind::EasyBackfill, SchedulerKind::FcfsWindow(8)] {
                        let spec = WorkloadSpec::Stochastic {
                            sides: SideDist::Exponential,
                            load: 0.2,
                            num_mes: 0.5,
                        };
                        specs.push((strategy, scheduler, spec));
                    }
                }
            }
        }
        let open_s = open.elapsed().as_secs_f64();
        let cfgs = specs
            .into_iter()
            .enumerate()
            .map(|(i, (strategy, scheduler, spec))| {
                let mut cfg =
                    SimConfig::paper(strategy, scheduler, spec, derive_seed(seed, i as u64));
                cfg.warmup_jobs = warmup;
                cfg.measured_jobs = measured;
                cfg
            })
            .collect();
        let pool = self.pooled().then(|| WorkerPool::new(POOL_THREADS));
        let rep_stride = if self == Workload::ParagonTrace {
            reps
        } else {
            0
        };
        Ok((
            Prepared {
                cfgs,
                reps,
                rep_stride,
                pool,
            },
            open_s,
        ))
    }
}

/// Short label of a config: `strategy(scheduler)@load`.
pub fn label(cfg: &SimConfig) -> String {
    format!("{}@{}", cfg.series_label(), cfg.workload.load())
}
