//! In-memory spatial join kernels.
//!
//! Disk-based join approaches differ in how they *stage* data, but all of
//! them ultimately intersect two in-memory sets of elements. This crate
//! provides those kernels:
//!
//! * [`grid_hash_join`] — the uniform-grid hash join of Tauheed et al.
//!   (BICOD '15), used by PBSM and TRANSFORMERS (paper §VII-A). It grids
//!   only the overlap of the two inputs' extents; [`GridJoin`] keeps its
//!   flat cell arrays between calls for callers that join many small
//!   inputs, such as one TRANSFORMERS pivot after another;
//! * [`plane_sweep_join`] — the classic forward plane sweep, used by the
//!   synchronized R-Tree baseline (paper §VII-A);
//! * [`nested_loop_join`] — the quadratic oracle every other algorithm is
//!   tested against.
//!
//! All kernels report the number of element-vs-element intersection tests
//! through [`JoinStats`]; the paper's Fig. 11/12 (right panels) compare
//! exactly this number across approaches.

#![warn(missing_docs)]

mod grid;
mod sweep;

pub use grid::{grid_hash_join, GridConfig, GridJoin};
pub use sweep::plane_sweep_join;

use tfm_geom::{ElementId, SpatialElement};

/// A result pair: ids of two intersecting elements, one from each side.
pub type ResultPair = (ElementId, ElementId);

/// Counters shared by all join kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Element-vs-element MBB intersection tests performed.
    pub element_tests: u64,
    /// Result pairs reported.
    pub results: u64,
}

impl JoinStats {
    /// Adds another stats value onto this one.
    pub fn absorb(&mut self, other: &JoinStats) {
        self.element_tests += other.element_tests;
        self.results += other.results;
    }
}

/// The brute-force oracle: tests every pair.
///
/// Used in tests and as the refinement kernel for tiny candidate sets; its
/// output defines result-set correctness for every other approach.
pub fn nested_loop_join(
    left: &[SpatialElement],
    right: &[SpatialElement],
    stats: &mut JoinStats,
) -> Vec<ResultPair> {
    let mut out = Vec::new();
    for a in left {
        for b in right {
            stats.element_tests += 1;
            if a.mbb.intersects(&b.mbb) {
                out.push((a.id, b.id));
            }
        }
    }
    stats.results += out.len() as u64;
    out
}

/// Sorts and deduplicates a result set so that result sets from different
/// approaches can be compared for equality.
pub fn canonicalize(mut pairs: Vec<ResultPair>) -> Vec<ResultPair> {
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_geom::{Aabb, Point3};

    fn elem(id: u64, min: (f64, f64, f64), max: (f64, f64, f64)) -> SpatialElement {
        SpatialElement::new(
            id,
            Aabb::new(
                Point3::new(min.0, min.1, min.2),
                Point3::new(max.0, max.1, max.2),
            ),
        )
    }

    #[test]
    fn nested_loop_finds_pairs_and_counts_tests() {
        let a = vec![
            elem(0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
            elem(1, (5.0, 5.0, 5.0), (6.0, 6.0, 6.0)),
        ];
        let b = vec![elem(0, (0.5, 0.5, 0.5), (2.0, 2.0, 2.0))];
        let mut stats = JoinStats::default();
        let pairs = nested_loop_join(&a, &b, &mut stats);
        assert_eq!(pairs, vec![(0, 0)]);
        assert_eq!(stats.element_tests, 2);
        assert_eq!(stats.results, 1);
    }

    #[test]
    fn canonicalize_sorts_and_dedups() {
        let pairs = vec![(3, 1), (1, 2), (3, 1), (0, 0)];
        assert_eq!(canonicalize(pairs), vec![(0, 0), (1, 2), (3, 1)]);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = JoinStats {
            element_tests: 5,
            results: 1,
        };
        a.absorb(&JoinStats {
            element_tests: 7,
            results: 2,
        });
        assert_eq!(
            a,
            JoinStats {
                element_tests: 12,
                results: 3
            }
        );
    }
}
