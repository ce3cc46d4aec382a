//! Uniform-grid hash join (Tauheed et al., BICOD '15).
//!
//! The grid covers only the *intersection* of the two inputs' extents, which
//! holds every intersecting pair; elements outside it are skipped. Cells are
//! flat CSR arrays (per-cell offsets into one list of left-element copies in
//! cell order) owned by a reusable [`GridJoin`]. One monotone, truncating
//! cell function gives both sides' cell ranges and the reference cell: a pair
//! is reported only in the cell holding the min corner of the two boxes'
//! intersection, which lies in both ranges, so each pair is reported once.

use crate::{JoinStats, ResultPair};
use tfm_geom::{Aabb, Point3, SpatialElement};

/// Configuration of the uniform grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Fixed number of cells per dimension; `None` derives it from the
    /// build-side cardinality via `target_per_cell`.
    pub cells_per_dim: Option<usize>,
    /// Desired average number of build-side elements per cell when sizing
    /// the grid automatically.
    pub target_per_cell: f64,
}

impl Default for GridConfig {
    fn default() -> Self {
        Self {
            cells_per_dim: None,
            target_per_cell: 4.0,
        }
    }
}

impl GridConfig {
    /// A grid with exactly `n` cells per dimension.
    pub fn fixed(n: usize) -> Self {
        Self {
            cells_per_dim: Some(n),
            target_per_cell: 4.0,
        }
    }

    fn resolve(&self, build_count: usize) -> usize {
        if let Some(n) = self.cells_per_dim {
            return n.max(1);
        }
        let cells = (build_count as f64 / self.target_per_cell).max(1.0);
        (cells.cbrt().ceil() as usize).clamp(1, 256)
    }
}

/// Maps coordinates to the cells of an `n³` grid laid over a box.
struct CellMap {
    origin: Point3,
    /// Cells per unit length, per dimension (0 on a zero-width extent).
    scale: [f64; 3],
    n: usize,
}

impl CellMap {
    fn new(extent: &Aabb, n: usize) -> Self {
        let w = |d| extent.extent(d);
        let scale = [0, 1, 2].map(|d| if w(d) > 0.0 { n as f64 / w(d) } else { 0.0 });
        Self {
            origin: extent.min,
            scale,
            n,
        }
    }

    /// The cell coordinate of `v` along `dim`. Truncation saturates
    /// (below the origin and NaN give 0), so the map is monotone in `v`.
    #[inline]
    fn cell(&self, dim: usize, v: f64) -> usize {
        let c = ((v - self.origin.coord(dim)) * self.scale[dim]) as usize;
        c.min(self.n - 1)
    }

    #[inline]
    fn cell3(&self, p: &Point3) -> [usize; 3] {
        [self.cell(0, p.x), self.cell(1, p.y), self.cell(2, p.z)]
    }

    /// Row-major index of every cell a box overlaps, in ascending order.
    #[inline]
    fn for_each_cell(&self, mbb: &Aabb, mut f: impl FnMut(usize, [usize; 3])) {
        let (lo, hi) = (self.cell3(&mbb.min), self.cell3(&mbb.max));
        for z in lo[2]..=hi[2] {
            for y in lo[1]..=hi[1] {
                let row = (z * self.n + y) * self.n;
                for x in lo[0]..=hi[0] {
                    f(row + x, [x, y, z]);
                }
            }
        }
    }
}

/// Reusable scratch of the grid hash join: the CSR cell arrays survive
/// between calls, so a caller joining many small inputs (one per pivot)
/// reuses their capacity instead of allocating a grid per call.
#[derive(Debug, Clone, Default)]
pub struct GridJoin {
    /// `offsets[c]..offsets[c + 1]` is cell `c`'s slice of `entries`.
    offsets: Vec<usize>,
    /// Copies of the left elements, grouped by cell.
    entries: Vec<SpatialElement>,
}

impl GridJoin {
    /// Joins `left` and `right`, appending every intersecting pair
    /// `(left id, right id)` to `out` exactly once. `left` is hashed into
    /// every cell it overlaps; each `right` element probes its cells.
    pub fn join_into(
        &mut self,
        left: &[SpatialElement],
        right: &[SpatialElement],
        config: &GridConfig,
        stats: &mut JoinStats,
        out: &mut Vec<ResultPair>,
    ) {
        let extent = |s: &[SpatialElement]| Aabb::union_all(s.iter().map(|e| e.mbb));
        let Some(clip) = extent(left).intersection(&extent(right)) else {
            return;
        };
        let inside = |e: &&SpatialElement| e.mbb.intersects(&clip);
        let map = CellMap::new(&clip, config.resolve(left.iter().filter(inside).count()));
        let cells = map.n * map.n * map.n;

        // Count per cell, prefix-sum into start offsets, fill using them as
        // cursors (each ends at its cell's end), then shift them back.
        self.offsets.clear();
        self.offsets.resize(cells + 1, 0);
        for a in left.iter().filter(inside) {
            map.for_each_cell(&a.mbb, |c, _| self.offsets[c + 1] += 1);
        }
        for c in 1..=cells {
            self.offsets[c] += self.offsets[c - 1];
        }
        self.entries.clear();
        self.entries.resize(self.offsets[cells], left[0]);
        for a in left.iter().filter(inside) {
            map.for_each_cell(&a.mbb, |c, _| {
                self.entries[self.offsets[c]] = *a;
                self.offsets[c] += 1;
            });
        }
        self.offsets.copy_within(0..cells, 1);
        self.offsets[0] = 0;

        let before = out.len();
        for b in right.iter().filter(inside) {
            map.for_each_cell(&b.mbb, |c, xyz| {
                let cell = &self.entries[self.offsets[c]..self.offsets[c + 1]];
                stats.element_tests += cell.len() as u64;
                for a in cell {
                    if a.mbb.intersects(&b.mbb) && map.cell3(&a.mbb.min.max(&b.mbb.min)) == xyz {
                        out.push((a.id, b.id));
                    }
                }
            });
        }
        stats.results += (out.len() - before) as u64;
    }
}

/// Joins `left` and `right` with a uniform-grid hash join, using a fresh
/// [`GridJoin`]. Callers joining repeatedly should keep one `GridJoin`.
pub fn grid_hash_join(
    left: &[SpatialElement],
    right: &[SpatialElement],
    config: &GridConfig,
    stats: &mut JoinStats,
) -> Vec<ResultPair> {
    let mut out = Vec::new();
    GridJoin::default().join_into(left, right, config, stats, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{canonicalize, nested_loop_join};

    fn elem(id: u64, (x, y, z): (f64, f64, f64), (u, v, w): (f64, f64, f64)) -> SpatialElement {
        SpatialElement::new(id, Aabb::new(Point3::new(x, y, z), Point3::new(u, v, w)))
    }

    #[test]
    fn matches_nested_loop_on_small_input() {
        let a = vec![
            elem(0, (0.0, 0.0, 0.0), (2.0, 2.0, 2.0)),
            elem(1, (5.0, 5.0, 5.0), (7.0, 7.0, 7.0)),
            elem(2, (1.0, 1.0, 1.0), (6.0, 6.0, 6.0)),
        ];
        let b = vec![
            elem(0, (1.5, 1.5, 1.5), (5.5, 5.5, 5.5)),
            elem(1, (8.0, 8.0, 8.0), (9.0, 9.0, 9.0)),
        ];
        let mut s1 = JoinStats::default();
        let mut s2 = JoinStats::default();
        let expected = canonicalize(nested_loop_join(&a, &b, &mut s1));
        let got = canonicalize(grid_hash_join(&a, &b, &GridConfig::fixed(4), &mut s2));
        assert_eq!(got, expected);
    }

    #[test]
    fn reference_point_on_a_cell_boundary_is_reported() {
        // The intersection's min corner sits on a cell boundary of the 6³
        // grid, where a separately rounded cell box once lost the pair.
        let e = |id, c: [f64; 6]| elem(id, (c[0], c[1], c[2]), (c[3], c[4], c[5]));
        #[rustfmt::skip]
        let (a, b) = ([
            [2.0999999999999996, 11.2, 5.6, 2.0999999999999996, 14.0, 7.699999999999999],
            [8.399999999999999, 9.799999999999999, 21.0, 11.899999999999999, 13.299999999999999, 23.1],
        ], [11.2, 12.6, 23.099999999999998, 11.2, 14.0, 26.599999999999998]);
        let (a, b) = ([e(0, a[0]), e(1, a[1])], [e(0, b)]);
        let mut s = JoinStats::default();
        assert_eq!(nested_loop_join(&a, &b, &mut s), vec![(1, 0)]);
        let got = grid_hash_join(&a, &b, &GridConfig::fixed(6), &mut s);
        assert_eq!(got, vec![(1, 0)]);
    }

    #[test]
    fn no_duplicates_for_elements_spanning_many_cells() {
        // One huge element overlapping every cell of a fine grid.
        let a = vec![elem(0, (0.0, 0.0, 0.0), (100.0, 100.0, 100.0))];
        let b = vec![elem(0, (10.0, 10.0, 10.0), (90.0, 90.0, 90.0))];
        let mut s = JoinStats::default();
        let pairs = grid_hash_join(&a, &b, &GridConfig::fixed(8), &mut s);
        assert_eq!(pairs, vec![(0, 0)]);
        // It was *tested* in many cells but reported once.
        assert!(s.element_tests > 1);
    }

    #[test]
    fn empty_inputs_return_empty() {
        let a = vec![elem(0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))];
        let mut s = JoinStats::default();
        assert!(grid_hash_join(&a, &[], &GridConfig::default(), &mut s).is_empty());
        assert!(grid_hash_join(&[], &a, &GridConfig::default(), &mut s).is_empty());
        let far = vec![elem(0, (5.0, 5.0, 5.0), (6.0, 6.0, 6.0))];
        assert!(grid_hash_join(&a, &far, &GridConfig::default(), &mut s).is_empty());
        assert_eq!(s.element_tests, 0);
    }

    #[test]
    fn degenerate_extent_single_point() {
        // All elements identical points: grid has zero extent.
        let a = vec![elem(0, (5.0, 5.0, 5.0), (5.0, 5.0, 5.0))];
        let b = vec![elem(0, (5.0, 5.0, 5.0), (5.0, 5.0, 5.0))];
        let mut s = JoinStats::default();
        let pairs = grid_hash_join(&a, &b, &GridConfig::default(), &mut s);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn auto_sizing_clamps_reasonably() {
        assert_eq!(GridConfig::default().resolve(0), 1);
        assert_eq!(GridConfig::default().resolve(1), 1);
        assert!(GridConfig::default().resolve(1_000_000) <= 256);
        assert_eq!(GridConfig::fixed(10).resolve(5), 10);
    }

    #[test]
    fn grid_uses_fewer_tests_than_nested_loop_on_spread_data() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..100 {
            let f = i as f64 * 10.0;
            a.push(elem(i, (f, f, f), (f + 1.0, f + 1.0, f + 1.0)));
            b.push(elem(
                i,
                (f + 0.5, f + 0.5, f + 0.5),
                (f + 1.5, f + 1.5, f + 1.5),
            ));
        }
        let mut sn = JoinStats::default();
        let mut sg = JoinStats::default();
        let expected = canonicalize(nested_loop_join(&a, &b, &mut sn));
        let got = canonicalize(grid_hash_join(&a, &b, &GridConfig::fixed(10), &mut sg));
        assert_eq!(got, expected);
        assert!(sg.element_tests < sn.element_tests / 5);
    }
}
