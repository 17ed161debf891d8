//! The paper's §6 claim about GABL: it "achieves this by using a busy
//! list whose length is often small even when the size of the mesh
//! scales up". The same synthetic churn (seed 999, 5000 steps, ~70 %
//! occupancy, requests up to half the mesh side) runs on meshes from
//! 8×8 to 128×128, and the peak busy-list length must not grow with the
//! processor count P.

use desim::SimRng;
use mesh2d::Mesh;
use mesh_alloc::{AllocationStrategy, Gabl};

/// Peak busy-list length of GABL under the churn loop on a `w × l` mesh.
fn churn_peak(w: u16, l: u16) -> usize {
    let mut mesh = Mesh::new(w, l);
    let mut gabl = Gabl::new();
    let mut rng = SimRng::new(999);
    let mut live = Vec::new();
    let target = mesh.size() * 7 / 10;
    for _ in 0..5000 {
        if mesh.used_count() < target || live.is_empty() {
            let a = rng.uniform_incl(1, (w / 2) as u64) as u16;
            let b = rng.uniform_incl(1, (l / 2) as u64) as u16;
            if let Some(al) = gabl.allocate(&mut mesh, a, b) {
                live.push(al);
            }
        } else {
            let al = live.swap_remove(rng.index(live.len()));
            gabl.release(&mut mesh, al);
        }
    }
    gabl.peak_busy_len()
}

#[test]
fn peak_busy_list_does_not_grow_with_mesh_size() {
    let meshes = [
        (8u16, 8u16),
        (16, 16),
        (16, 22),
        (32, 32),
        (64, 64),
        (128, 128),
    ];
    let peaks: Vec<usize> = meshes.iter().map(|&(w, l)| churn_peak(w, l)).collect();
    // the loop is deterministic; these are its exact peaks
    assert_eq!(peaks, [18, 31, 46, 54, 48, 51]);
    // P grows 16x from 32x32 to 128x128 while the peak does not grow
    assert!(peaks[5] <= peaks[3], "{peaks:?}");
    // and 256x from 8x8 to 128x128 while the peak stays under 3x
    assert!(peaks[5] < 3 * peaks[0], "{peaks:?}");
}
