//! Greedy Available Busy List (Bani-Mohammad et al. 2007; paper §3).
//!
//! GABL is the authors' strategy: it first tries to satisfy the whole
//! `a × b` request contiguously (in either orientation); failing that, it
//! greedily allocates the largest free sub-mesh that fits inside the
//! request's shape, then repeatedly the largest free sub-mesh whose sides
//! do not exceed those of the previously allocated piece, until exactly
//! `a·b` processors are granted. Allocated sub-meshes are kept in a busy
//! list; allocation always succeeds when at least `a·b` processors are
//! free.
//!
//! The original formulation derives candidate bases from the busy list;
//! we use an equivalent prefix-sum scan over the occupancy grid (same
//! first-fit result, simpler invariants — the busy list is still
//! maintained because its *length* is a reported statistic and because
//! departures remove entries by allocation id).

use crate::{AllocId, Allocation, AllocationStrategy};
use mesh2d::{find_free_submesh, largest_free_rect, largest_free_rect_near, Coord, Mesh, SubMesh};

/// One busy-list entry: a sub-mesh granted to a live job.
#[derive(Debug, Clone, Copy)]
pub struct BusyEntry {
    /// The allocation this sub-mesh belongs to.
    pub owner: AllocId,
    /// The granted sub-mesh.
    pub sub: SubMesh,
}

/// The GABL allocator.
#[derive(Debug, Default)]
pub struct Gabl {
    busy: Vec<BusyEntry>,
    next_id: u64,
    /// High-water mark of the busy list length (the paper argues this
    /// stays small as the mesh scales, §6; `tests/busy_list_scaling.rs`
    /// checks it).
    peak_busy_len: usize,
}

impl Gabl {
    /// A fresh GABL allocator with an empty busy list.
    pub fn new() -> Self {
        Gabl::default()
    }

    /// Current busy list length (number of live allocated sub-meshes).
    pub fn busy_len(&self) -> usize {
        self.busy.len()
    }

    /// Largest busy list length observed since the last reset.
    pub fn peak_busy_len(&self) -> usize {
        self.peak_busy_len
    }

    /// Shrinks `rect` from its base corner so its area does not exceed
    /// `remaining` (GABL's constraint that the number of allocated
    /// processors never exceeds `a × b`).
    fn trim_to(rect: SubMesh, remaining: u32) -> SubMesh {
        debug_assert!(remaining >= 1);
        let w = rect.width() as u32;
        let l = rect.length() as u32;
        if w * l <= remaining {
            return rect;
        }
        // prefer shortening the longer dimension first to keep pieces
        // square-ish (less perimeter, shorter intra-job distances)
        let (mut w2, mut l2) = (w, l);
        if l2 >= w2 {
            l2 = (remaining / w2).max(1);
            if w2 * l2 > remaining {
                w2 = (remaining / l2).max(1);
            }
        } else {
            w2 = (remaining / l2).max(1);
            if w2 * l2 > remaining {
                l2 = (remaining / w2).max(1);
            }
        }
        debug_assert!(w2 * l2 <= remaining);
        SubMesh::from_base_size(rect.base, w2 as u16, l2 as u16)
    }
}

impl AllocationStrategy for Gabl {
    fn name(&self) -> String {
        "GABL".to_string()
    }

    fn allocate(&mut self, mesh: &mut Mesh, a: u16, b: u16) -> Option<Allocation> {
        let p = a as u32 * b as u32;
        if p == 0 || p > mesh.free_count() {
            return None;
        }
        let id = AllocId(self.next_id);
        self.next_id += 1;
        let mut pieces: Vec<SubMesh> = Vec::new();

        // 1. whole-job contiguous attempt, both orientations
        let whole = find_free_submesh(mesh, a, b)
            .or_else(|| if a != b { find_free_submesh(mesh, b, a) } else { None });
        if let Some(s) = whole {
            mesh.occupy_submesh(&s);
            pieces.push(s);
        } else {
            // 2. greedy partitioning: largest free sub-mesh fitting inside
            // the request shape, then non-increasing side caps
            let mut remaining = p;
            let (mut cap_w, mut cap_l) = (a.max(b), a.max(b));
            // initial caps: the request's own shape, orientation-free
            let (first_w, first_l) = (a.min(b), a.max(b));
            let mut anchor: Option<Coord> = None;
            while remaining > 0 {
                let rect = match anchor {
                    None => {
                        // best of both request orientations
                        let r1 = largest_free_rect(mesh, first_w, first_l);
                        let r2 = largest_free_rect(mesh, first_l, first_w);
                        match (r1, r2) {
                            (Some(x), Some(y)) => Some(if x.size() >= y.size() { x } else { y }),
                            (x, y) => x.or(y),
                        }
                    }
                    Some(c) => largest_free_rect_near(mesh, cap_w, cap_l, Some(c)),
                };
                // free_count >= remaining >= 1 guarantees some free rect
                // procsim-lint: allow(D004): invariant: free_count >= remaining >= 1, and any free processor is itself a 1x1 free rectangle
                let rect = rect.expect("invariant: free processors exist but no free rectangle found");
                let piece = Self::trim_to(rect, remaining);
                mesh.occupy_submesh(&piece);
                remaining -= piece.size();
                (cap_w, cap_l) = (piece.width().max(piece.length()), piece.width().max(piece.length()));
                if anchor.is_none() {
                    // anchor subsequent pieces on the first (largest) one
                    anchor = Some(Coord::new(
                        (piece.base.x + piece.end.x) / 2,
                        (piece.base.y + piece.end.y) / 2,
                    ));
                }
                pieces.push(piece);
            }
        }

        for &sub in &pieces {
            self.busy.push(BusyEntry { owner: id, sub });
        }
        self.peak_busy_len = self.peak_busy_len.max(self.busy.len());
        Some(Allocation::new(id, pieces))
    }

    fn release(&mut self, mesh: &mut Mesh, alloc: Allocation) {
        let before = self.busy.len();
        self.busy.retain(|e| e.owner != alloc.id);
        assert_eq!(
            before - self.busy.len(),
            alloc.submeshes().len(),
            "busy list out of sync with allocation"
        );
        for s in alloc.submeshes() {
            mesh.release_submesh(s);
        }
    }

    fn reset(&mut self, _mesh: &Mesh) {
        self.busy.clear();
        self.next_id = 0;
        self.peak_busy_len = 0;
    }

    fn always_succeeds_when_free(&self) -> bool {
        true
    }

    fn feasible(&self, mesh: &Mesh, a: u16, b: u16) -> bool {
        // exact mirror of allocate's only failure condition (the greedy
        // partitioning succeeds whenever enough processors are free)
        let p = a as u32 * b as u32;
        p != 0 && p <= mesh.free_count()
    }

    // failure_persists_until_release: a failed allocate returns before
    // the id counter or busy list are touched, and the failure condition
    // p > free_count is monotone under further occupies.
}

/// Convenience: returns the coordinates allocated to `alloc` (rank order).
pub fn allocation_nodes(alloc: &Allocation) -> &[Coord] {
    alloc.nodes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimRng;

    #[test]
    fn contiguous_when_possible() {
        let mut mesh = Mesh::new(16, 22);
        let mut g = Gabl::new();
        let a = g.allocate(&mut mesh, 5, 7).unwrap();
        assert_eq!(a.fragments(), 1, "empty mesh: whole request contiguous");
        assert_eq!(a.size(), 35);
        assert_eq!(g.busy_len(), 1);
    }

    #[test]
    fn rotated_orientation_used() {
        // 4x8 mesh, request 8x3: only fits rotated as 3x8? No — request
        // (a=8, b=3) fits directly as 8 wide x 3 tall. Make width tight:
        // request (a=3, b=8): 3 wide 8 tall does not fit in 4x8? It does.
        // Use a 10x4 mesh and request 2x7: must rotate to 7x2.
        let mut mesh = Mesh::new(10, 4);
        let mut g = Gabl::new();
        let a = g.allocate(&mut mesh, 2, 7).unwrap();
        assert_eq!(a.fragments(), 1, "must satisfy via rotation");
        assert_eq!(a.size(), 14);
    }

    #[test]
    fn fragments_under_external_fragmentation() {
        // Fig. 1 scenario generalized: leave free processors that are not
        // contiguous; GABL must still allocate (non-contiguously).
        let mut mesh = Mesh::new(4, 4);
        let mut g = Gabl::new();
        // occupy a checkerboard-ish pattern leaving 4 scattered cells
        for y in 0..4u16 {
            for x in 0..4u16 {
                let corner = (x == 0 || x == 3) && (y == 0 || y == 3);
                if !corner {
                    mesh.occupy(Coord::new(x, y));
                }
            }
        }
        let a = g.allocate(&mut mesh, 2, 2).unwrap();
        assert_eq!(a.size(), 4);
        assert_eq!(a.fragments(), 4, "four isolated processors");
        assert_eq!(mesh.free_count(), 0);
    }

    #[test]
    fn always_succeeds_when_enough_free() {
        let mut mesh = Mesh::new(16, 22);
        let mut g = Gabl::new();
        let mut rng = SimRng::new(7);
        let mut live = Vec::new();
        for _ in 0..3000 {
            if rng.chance(0.55) || live.is_empty() {
                let a = rng.uniform_incl(1, 16) as u16;
                let b = rng.uniform_incl(1, 22) as u16;
                let p = a as u32 * b as u32;
                let free = mesh.free_count();
                match g.allocate(&mut mesh, a, b) {
                    Some(al) => {
                        assert_eq!(al.size(), p);
                        live.push(al);
                    }
                    None => assert!(p > free, "GABL failed with {free} free for {p}"),
                }
            } else {
                let al = live.swap_remove(rng.index(live.len()));
                g.release(&mut mesh, al);
            }
        }
    }

    #[test]
    fn pieces_never_grow() {
        // sides of successive pieces are non-increasing (greedy invariant)
        let mut mesh = Mesh::new(16, 22);
        let mut g = Gabl::new();
        // fragment the mesh first
        let mut rng = SimRng::new(99);
        let mut live = Vec::new();
        for _ in 0..40 {
            let a = rng.uniform_incl(1, 6) as u16;
            let b = rng.uniform_incl(1, 6) as u16;
            if let Some(al) = g.allocate(&mut mesh, a, b) {
                live.push(al);
            }
        }
        // free every other allocation to create holes
        let mut i = 0;
        live.retain(|_| {
            i += 1;
            i % 2 == 0
        });
        // NOTE: retained entries were not released; allocate a large job
        if let Some(al) = g.allocate(&mut mesh, 10, 10) {
            let sizes: Vec<u32> = al.submeshes().iter().map(|s| s.size()).collect();
            if al.fragments() > 1 {
                let maxes: Vec<u16> = al
                    .submeshes()
                    .iter()
                    .map(|s| s.width().max(s.length()))
                    .collect();
                for w in maxes.windows(2) {
                    assert!(w[0] >= w[1], "piece sides grew: {sizes:?}");
                }
            }
            assert_eq!(al.size(), 100);
        }
    }

    #[test]
    fn trim_respects_remaining() {
        let r = SubMesh::from_base_size(Coord::new(0, 0), 5, 6);
        for rem in 1..=30u32 {
            let t = Gabl::trim_to(r, rem);
            assert!(t.size() <= rem);
            assert!(t.size() >= 1);
            assert!(r.contains_submesh(&t));
        }
        assert_eq!(Gabl::trim_to(r, 30).size(), 30);
    }

    #[test]
    fn release_restores_and_busy_list_shrinks() {
        let mut mesh = Mesh::new(8, 8);
        let mut g = Gabl::new();
        let a = g.allocate(&mut mesh, 3, 3).unwrap();
        let b = g.allocate(&mut mesh, 8, 6).unwrap();
        assert!(g.busy_len() >= 2);
        g.release(&mut mesh, a);
        g.release(&mut mesh, b);
        assert_eq!(g.busy_len(), 0);
        assert_eq!(mesh.free_count(), 64);
    }

    #[test]
    fn peak_busy_len_tracks() {
        let mut mesh = Mesh::new(8, 8);
        let mut g = Gabl::new();
        let a = g.allocate(&mut mesh, 2, 2).unwrap();
        let b = g.allocate(&mut mesh, 2, 2).unwrap();
        g.release(&mut mesh, a);
        g.release(&mut mesh, b);
        assert_eq!(g.busy_len(), 0);
        assert!(g.peak_busy_len() >= 2);
        g.reset(&mesh);
        assert_eq!(g.peak_busy_len(), 0);
    }
}
