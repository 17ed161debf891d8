//! # mesh-alloc — processor allocation strategies for 2D meshes
//!
//! Implements the three non-contiguous strategies the paper evaluates
//! (§3) plus the contiguous and random baselines the surrounding
//! literature compares against:
//!
//! * [`Paging`] — the Lo et al. paging strategy `Paging(size_index)`,
//!   with all four page indexing schemes,
//! * [`Mbs`] — the Multiple Buddy Strategy,
//! * [`Gabl`] — Greedy Available Busy List (the authors' own strategy),
//! * [`FirstFit`] / [`BestFit`] — classic contiguous sub-mesh allocation
//!   (these exhibit the external fragmentation that motivates
//!   non-contiguous allocation),
//! * [`RandomNc`] — scatter allocation of arbitrary free processors, the
//!   contiguity-free extreme.
//!
//! Every strategy implements [`AllocationStrategy`]: it receives an
//! `a × b` request, mutates the shared [`Mesh`] occupancy, and returns an
//! [`Allocation`] listing the disjoint sub-meshes given to the job. The
//! three paper strategies share a guarantee the paper leans on for its
//! utilization results (§5): *allocation succeeds whenever the number of
//! free processors is at least the request size*.

pub mod contiguous;
pub mod gabl;
pub mod mbs;
pub mod mc;
pub mod paging;
pub mod random;

use mesh2d::{Coord, Mesh, SubMesh};

pub use contiguous::{BestFit, FirstFit};
pub use gabl::Gabl;
pub use mbs::Mbs;
pub use mc::Mc;
pub use paging::Paging;
pub use random::RandomNc;

pub use mesh2d::PageIndexing;

/// Identifier a strategy assigns to one job's allocation, used to look up
/// strategy-internal bookkeeping on release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocId(pub u64);

/// The processors granted to one job: a list of disjoint sub-meshes, in
/// allocation order (the order defines the job's processor ranks for
/// communication patterns).
///
/// The rank → coordinate layout is expanded **once** at construction and
/// cached for the allocation's lifetime: the simulator's per-job setup
/// and every closed-loop send index straight into it instead of
/// re-flattening the sub-mesh list.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Strategy-assigned identifier.
    pub id: AllocId,
    /// Disjoint sub-meshes, largest/first-allocated first. Private so it
    /// cannot drift out of sync with the cached `nodes` layout.
    submeshes: Vec<SubMesh>,
    /// Cached processor coordinates in allocation (rank) order.
    nodes: Vec<Coord>,
}

impl Allocation {
    /// Builds an allocation over `submeshes`, expanding and caching the
    /// rank → coordinate layout.
    pub fn new(id: AllocId, submeshes: Vec<SubMesh>) -> Self {
        let mut nodes = Vec::with_capacity(submeshes.iter().map(|s| s.size() as usize).sum());
        for s in &submeshes {
            nodes.extend(s.iter());
        }
        Allocation {
            id,
            submeshes,
            nodes,
        }
    }

    /// Total processors allocated.
    pub fn size(&self) -> u32 {
        // procsim-lint: allow(D005): node count is bounded by the mesh size (u16 x u16 dimensions), which fits u32
        self.nodes.len() as u32
    }

    /// All processor coordinates in allocation (rank) order.
    pub fn nodes(&self) -> &[Coord] {
        &self.nodes
    }

    /// The granted sub-meshes, largest/first-allocated first.
    pub fn submeshes(&self) -> &[SubMesh] {
        &self.submeshes
    }

    /// Number of disjoint sub-meshes (1 = fully contiguous). The paper's
    /// argument for GABL is that it keeps this number small.
    pub fn fragments(&self) -> usize {
        self.submeshes.len()
    }
}

/// A processor allocation strategy.
pub trait AllocationStrategy {
    /// Human-readable name as used in the paper's figures,
    /// e.g. `"GABL"`, `"Paging(0)"`, `"MBS"`.
    fn name(&self) -> String;

    /// Attempts to allocate an `a × b` request. On success the mesh
    /// occupancy has been updated and the returned allocation lists the
    /// granted sub-meshes; on failure the mesh is unchanged.
    fn allocate(&mut self, mesh: &mut Mesh, a: u16, b: u16) -> Option<Allocation>;

    /// Releases a previously granted allocation, freeing its processors.
    fn release(&mut self, mesh: &mut Mesh, alloc: Allocation);

    /// Clears internal state for a fresh (empty) mesh — called between
    /// simulation replications.
    fn reset(&mut self, mesh: &Mesh);

    /// Whether this strategy is guaranteed to satisfy any request when at
    /// least `a × b` processors are free (true for the paper's three
    /// non-contiguous strategies).
    fn always_succeeds_when_free(&self) -> bool;

    /// O(1) feasibility pre-check for an `a × b` request: `false` means
    /// a call to [`AllocationStrategy::allocate`] with these arguments
    /// would certainly return `None` given the current mesh and strategy
    /// state; `true` means it *may* succeed. The scheduling hot loop
    /// uses this to reject queued requests without running a search.
    ///
    /// Exactness contract: an implementation must never return `false`
    /// for a request its `allocate` would grant. The default is the area
    /// bound every strategy shares (no allocation can exceed the free
    /// count); strategies with a cheaper-to-check internal counter or a
    /// contiguity requirement override it to mirror their own failure
    /// condition exactly.
    fn feasible(&self, mesh: &Mesh, a: u16, b: u16) -> bool {
        let p = a as u32 * b as u32;
        p != 0 && p <= mesh.free_count()
    }

    /// Whether a failed [`AllocationStrategy::allocate`] for a shape is
    /// guaranteed to keep failing until a release frees processors
    /// (i.e. until [`Mesh::release_epoch`] advances). This holds when
    /// `allocate` is a deterministic function of the mesh and internal
    /// strategy state, a failed call mutates nothing (and consumes no
    /// randomness), and occupying more processors can never turn the
    /// failure into a success. Every built-in strategy qualifies — see
    /// each implementation's note; a future strategy that does not must
    /// override this to `false` to disable the simulator's shape-keyed
    /// failure memoization.
    fn failure_persists_until_release(&self) -> bool {
        true
    }
}

/// Strategy selector used by configs, experiment sweeps and the CLI
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Greedy Available Busy List.
    Gabl,
    /// Paging with pages of side `2^size_index`.
    Paging {
        /// Page side exponent (the paper evaluates 0..=3).
        size_index: u8,
        /// Page traversal order for index-order allocation.
        indexing: PageIndexing,
    },
    /// Multiple Buddy Strategy.
    Mbs,
    /// Contiguous first-fit.
    FirstFit,
    /// Contiguous best-fit.
    BestFit,
    /// Random non-contiguous scatter.
    Random,
    /// MC shell allocation (Mache/Lo/Windisch, the paper's ref. \[7\]).
    Mc,
}

impl StrategyKind {
    /// The paper's three strategies with its parameters
    /// (row-major Paging(0)).
    pub const PAPER: [StrategyKind; 3] = [
        StrategyKind::Gabl,
        StrategyKind::Paging {
            size_index: 0,
            indexing: PageIndexing::RowMajor,
        },
        StrategyKind::Mbs,
    ];

    /// Instantiates the strategy for a given mesh. `seed` is only used by
    /// stochastic strategies (Random).
    pub fn build(&self, mesh: &Mesh, seed: u64) -> Box<dyn AllocationStrategy> {
        match *self {
            StrategyKind::Gabl => Box::new(Gabl::new()),
            StrategyKind::Paging {
                size_index,
                indexing,
            } => Box::new(Paging::new(mesh, size_index, indexing)),
            StrategyKind::Mbs => Box::new(Mbs::new(mesh)),
            StrategyKind::FirstFit => Box::new(FirstFit::new()),
            StrategyKind::BestFit => Box::new(BestFit::new()),
            StrategyKind::Random => Box::new(RandomNc::new(seed)),
            StrategyKind::Mc => Box::new(Mc::new()),
        }
    }
}

impl core::str::FromStr for StrategyKind {
    type Err = String;

    /// Parses the CLI / scenario-file spelling: `gabl`, `paging0` ..
    /// `paging3` (row-major), `paging<i>-<indexing>` with a
    /// [`PageIndexing`] display name (e.g. `paging0-snake-like`), `mbs`,
    /// `ff`, `bf`, `random`, `mc` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "gabl" => Ok(StrategyKind::Gabl),
            "mbs" => Ok(StrategyKind::Mbs),
            "ff" => Ok(StrategyKind::FirstFit),
            "bf" => Ok(StrategyKind::BestFit),
            "random" => Ok(StrategyKind::Random),
            "mc" => Ok(StrategyKind::Mc),
            other => {
                if let Some(variant) = other.strip_prefix("paging") {
                    let (idx, indexing) = match variant.split_once('-') {
                        Some((idx, name)) => (idx, name.parse::<PageIndexing>()?),
                        None => (variant, PageIndexing::RowMajor),
                    };
                    return match idx.parse::<u8>() {
                        Ok(size_index) if size_index <= 3 => Ok(StrategyKind::Paging {
                            size_index,
                            indexing,
                        }),
                        _ => Err(format!(
                            "unknown paging variant '{other}' (paging0 .. paging3, \
                             optionally -<indexing>, e.g. paging0-snake-like)"
                        )),
                    };
                }
                Err(format!(
                    "unknown strategy '{other}' (gabl, paging0..paging3[-<indexing>], mbs, ff, \
                     bf, random, mc)"
                ))
            }
        }
    }
}

impl core::fmt::Display for StrategyKind {
    /// The paper's notation; a non-row-major Paging names its indexing,
    /// e.g. `Paging(0,snake-like)`.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            StrategyKind::Gabl => write!(f, "GABL"),
            StrategyKind::Paging {
                size_index,
                indexing: PageIndexing::RowMajor,
            } => write!(f, "Paging({size_index})"),
            StrategyKind::Paging {
                size_index,
                indexing,
            } => write!(f, "Paging({size_index},{indexing})"),
            StrategyKind::Mbs => write!(f, "MBS"),
            StrategyKind::FirstFit => write!(f, "FF"),
            StrategyKind::BestFit => write!(f, "BF"),
            StrategyKind::Random => write!(f, "Random"),
            StrategyKind::Mc => write!(f, "MC"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_accessors() {
        let a = Allocation::new(
            AllocId(1),
            vec![
                SubMesh::from_base_size(Coord::new(0, 0), 2, 2),
                SubMesh::from_base_size(Coord::new(4, 4), 1, 3),
            ],
        );
        assert_eq!(a.size(), 7);
        assert_eq!(a.fragments(), 2);
        let nodes = a.nodes();
        assert_eq!(nodes.len(), 7);
        assert_eq!(nodes[0], Coord::new(0, 0));
        assert_eq!(nodes[4], Coord::new(4, 4));
    }

    #[test]
    fn kind_display_matches_paper_notation() {
        assert_eq!(StrategyKind::Gabl.to_string(), "GABL");
        assert_eq!(
            StrategyKind::Paging {
                size_index: 0,
                indexing: PageIndexing::RowMajor
            }
            .to_string(),
            "Paging(0)"
        );
        assert_eq!(
            StrategyKind::Paging {
                size_index: 2,
                indexing: PageIndexing::SnakeLike
            }
            .to_string(),
            "Paging(2,snake-like)"
        );
        assert_eq!(StrategyKind::Mbs.to_string(), "MBS");
    }

    #[test]
    fn build_all_kinds() {
        let mesh = Mesh::new(16, 22);
        for kind in [
            StrategyKind::Gabl,
            StrategyKind::Paging {
                size_index: 1,
                indexing: PageIndexing::SnakeLike,
            },
            StrategyKind::Mbs,
            StrategyKind::FirstFit,
            StrategyKind::BestFit,
            StrategyKind::Random,
            StrategyKind::Mc,
        ] {
            let s = kind.build(&mesh, 42);
            assert!(!s.name().is_empty());
        }
    }
}
