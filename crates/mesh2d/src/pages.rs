//! Page grids and indexing schemes for the Paging strategy.
//!
//! Paging (paper §3, after Lo et al.) divides the mesh into pages — square
//! sub-meshes of side `2^size_index` — and allocates whole pages in a fixed
//! index order. Four indexing schemes are defined: row-major, shuffled
//! row-major, snake-like, and shuffled snake-like. The paper's experiments
//! use row-major only (the choice "has only a slight impact"); we implement
//! all four and probe that claim in an ablation bench.
//!
//! When the mesh dimensions are not multiples of the page side, boundary
//! pages are clipped to the mesh: they simply contain fewer processors.

use crate::coord::Coord;
use crate::submesh::SubMesh;
use serde::{Deserialize, Serialize};

/// Page visiting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageIndexing {
    /// Pages ordered left-to-right within rows, rows bottom-up.
    RowMajor,
    /// Row-major within rows, but page-rows visited in bit-reversed
    /// (perfect shuffle) order, dispersing consecutive pages vertically.
    ShuffledRowMajor,
    /// Boustrophedon: rows alternate left-to-right / right-to-left, so
    /// consecutive pages stay physically adjacent across row boundaries.
    SnakeLike,
    /// Snake-like rows visited in bit-reversed order.
    ShuffledSnakeLike,
}

impl PageIndexing {
    /// All four schemes, for sweeps.
    pub const ALL: [PageIndexing; 4] = [
        PageIndexing::RowMajor,
        PageIndexing::ShuffledRowMajor,
        PageIndexing::SnakeLike,
        PageIndexing::ShuffledSnakeLike,
    ];
}

impl core::fmt::Display for PageIndexing {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            PageIndexing::RowMajor => "row-major",
            PageIndexing::ShuffledRowMajor => "shuffled-row-major",
            PageIndexing::SnakeLike => "snake-like",
            PageIndexing::ShuffledSnakeLike => "shuffled-snake-like",
        };
        f.write_str(s)
    }
}

impl core::str::FromStr for PageIndexing {
    type Err = String;

    /// Parses the [`Display`](core::fmt::Display) spelling, e.g.
    /// `snake-like`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PageIndexing::ALL
            .into_iter()
            .find(|ix| ix.to_string() == s)
            .ok_or_else(|| {
                format!(
                    "unknown page indexing '{s}' \
                     (row-major, shuffled-row-major, snake-like, shuffled-snake-like)"
                )
            })
    }
}

/// The pages of a mesh, stored in allocation (index) order.
#[derive(Debug, Clone)]
pub struct PageGrid {
    side: u16,
    pages_x: u16,
    pages_y: u16,
    indexing: PageIndexing,
    pages: Vec<SubMesh>,
}

/// Bit-reversal of `i` within `ceil_log2(n)` bits, skipping values >= n.
/// Produces a permutation of `0..n` that interleaves low and high indices.
fn bit_reversed_order(n: u16) -> Vec<u16> {
    if n <= 1 {
        return (0..n).collect();
    }
    let bits = 16 - (n - 1).leading_zeros();
    let mut order: Vec<u16> = Vec::with_capacity(n as usize);
    for i in 0..(1u32 << bits) {
        let mut r = 0u32;
        for b in 0..bits {
            if i & (1 << b) != 0 {
                r |= 1 << (bits - 1 - b);
            }
        }
        if r < n as u32 {
            order.push(r as u16);
        }
    }
    order
}

impl PageGrid {
    /// Builds the page grid of a `mesh_w × mesh_l` mesh with pages of side
    /// `2^size_index`, ordered by `indexing`.
    ///
    /// # Panics
    /// Panics if the page side exceeds either mesh dimension.
    pub fn new(mesh_w: u16, mesh_l: u16, size_index: u8, indexing: PageIndexing) -> Self {
        let side = 1u16
            .checked_shl(size_index as u32)
            // procsim-lint: allow(D004): documented panic on invalid configuration (see `# Panics` above); not a recoverable state
            .expect("page side overflows u16");
        assert!(
            side <= mesh_w && side <= mesh_l,
            "page side {side} exceeds mesh {mesh_w}x{mesh_l}"
        );
        let pages_x = mesh_w.div_ceil(side);
        let pages_y = mesh_l.div_ceil(side);

        let row_order = match indexing {
            PageIndexing::RowMajor | PageIndexing::SnakeLike => (0..pages_y).collect::<Vec<_>>(),
            PageIndexing::ShuffledRowMajor | PageIndexing::ShuffledSnakeLike => {
                bit_reversed_order(pages_y)
            }
        };
        let snake = matches!(
            indexing,
            PageIndexing::SnakeLike | PageIndexing::ShuffledSnakeLike
        );

        let mut pages = Vec::with_capacity(pages_x as usize * pages_y as usize);
        for (visit_rank, &py) in row_order.iter().enumerate() {
            let reversed = snake && visit_rank % 2 == 1;
            let xs: Vec<u16> = if reversed {
                (0..pages_x).rev().collect()
            } else {
                (0..pages_x).collect()
            };
            for px in xs {
                let bx = px * side;
                let by = py * side;
                let w = side.min(mesh_w - bx);
                let l = side.min(mesh_l - by);
                pages.push(SubMesh::from_base_size(Coord::new(bx, by), w, l));
            }
        }
        PageGrid {
            side,
            pages_x,
            pages_y,
            indexing,
            pages,
        }
    }

    /// Pages in index (allocation) order.
    #[inline]
    pub fn pages(&self) -> &[SubMesh] {
        &self.pages
    }

    /// Page side length `2^size_index`.
    #[inline]
    pub fn page_side(&self) -> u16 {
        self.side
    }

    /// Number of pages.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Pages per mesh row / column.
    #[inline]
    pub fn dims(&self) -> (u16, u16) {
        (self.pages_x, self.pages_y)
    }

    /// The indexing scheme this grid was built with.
    #[inline]
    pub fn indexing(&self) -> PageIndexing {
        self.indexing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_cover(grid: &PageGrid, w: u16, l: u16) {
        let mut seen = HashSet::new();
        for p in grid.pages() {
            for c in p.iter() {
                assert!(c.x < w && c.y < l, "{c} outside {w}x{l}");
                assert!(seen.insert(c), "page overlap at {c}");
            }
        }
        assert_eq!(seen.len(), w as usize * l as usize);
    }

    #[test]
    fn paging0_is_one_processor_pages() {
        let g = PageGrid::new(16, 22, 0, PageIndexing::RowMajor);
        assert_eq!(g.page_side(), 1);
        assert_eq!(g.page_count(), 352);
        assert_cover(&g, 16, 22);
        // row-major order: first page (0,0), second (1,0)
        assert_eq!(g.pages()[0].base, Coord::new(0, 0));
        assert_eq!(g.pages()[1].base, Coord::new(1, 0));
        assert_eq!(g.pages()[16].base, Coord::new(0, 1));
    }

    #[test]
    fn paging2_pages_are_4x4_when_divisible() {
        // Paging(2) means 4x4 pages (paper §3).
        let g = PageGrid::new(16, 16, 2, PageIndexing::RowMajor);
        assert_eq!(g.page_side(), 4);
        assert_eq!(g.page_count(), 16);
        assert!(g.pages().iter().all(|p| p.size() == 16));
        assert_cover(&g, 16, 16);
    }

    #[test]
    fn clipped_pages_on_non_divisible_mesh() {
        // 16x22 with 4x4 pages: top row of pages is 4x2.
        let g = PageGrid::new(16, 22, 2, PageIndexing::RowMajor);
        assert_eq!(g.dims(), (4, 6));
        assert_cover(&g, 16, 22);
        let clipped: Vec<_> = g.pages().iter().filter(|p| p.size() != 16).collect();
        assert_eq!(clipped.len(), 4);
        assert!(clipped.iter().all(|p| p.size() == 8));
    }

    #[test]
    fn all_schemes_cover_and_permute_same_pages() {
        for scheme in PageIndexing::ALL {
            let g = PageGrid::new(16, 22, 1, scheme);
            assert_cover(&g, 16, 22);
        }
        let base: HashSet<_> = PageGrid::new(16, 22, 1, PageIndexing::RowMajor)
            .pages()
            .iter()
            .copied()
            .collect();
        for scheme in PageIndexing::ALL {
            let other: HashSet<_> = PageGrid::new(16, 22, 1, scheme).pages().iter().copied().collect();
            assert_eq!(base, other, "{scheme} must be a permutation");
        }
    }

    #[test]
    fn snake_alternates_direction() {
        let g = PageGrid::new(4, 4, 1, PageIndexing::SnakeLike); // 2x2 pages
        let bases: Vec<_> = g.pages().iter().map(|p| p.base).collect();
        assert_eq!(
            bases,
            vec![
                Coord::new(0, 0),
                Coord::new(2, 0),
                Coord::new(2, 2),
                Coord::new(0, 2)
            ]
        );
    }

    #[test]
    fn shuffled_row_order_is_bit_reversal() {
        assert_eq!(bit_reversed_order(4), vec![0, 2, 1, 3]);
        assert_eq!(bit_reversed_order(8), vec![0, 4, 2, 6, 1, 5, 3, 7]);
        // non-power-of-two n: a permutation of 0..n
        let mut o = bit_reversed_order(6);
        o.sort();
        assert_eq!(o, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(bit_reversed_order(1), vec![0]);
        assert_eq!(bit_reversed_order(0), Vec::<u16>::new());
    }

    #[test]
    #[should_panic]
    fn oversized_page_panics() {
        let _ = PageGrid::new(4, 4, 3, PageIndexing::RowMajor);
    }
}
