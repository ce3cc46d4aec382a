//! Property tests: every kernel must produce exactly the nested-loop result
//! set on arbitrary inputs, including pathological ones.

use proptest::prelude::*;
use tfm_geom::{Aabb, Point3, SpatialElement};
use tfm_memjoin::{
    canonicalize, grid_hash_join, nested_loop_join, plane_sweep_join, GridConfig, GridJoin,
    JoinStats,
};

fn arb_elem(id: u64) -> impl Strategy<Value = SpatialElement> {
    (
        -50.0..50.0f64,
        -50.0..50.0f64,
        -50.0..50.0f64,
        0.0..20.0f64,
        0.0..20.0f64,
        0.0..20.0f64,
    )
        .prop_map(move |(x, y, z, dx, dy, dz)| {
            SpatialElement::new(
                id,
                Aabb::new(Point3::new(x, y, z), Point3::new(x + dx, y + dy, z + dz)),
            )
        })
}

fn arb_dataset(max: usize) -> impl Strategy<Value = Vec<SpatialElement>> {
    prop::collection::vec(any::<()>(), 0..max).prop_flat_map(|v| {
        let n = v.len();
        (0..n as u64).map(arb_elem).collect::<Vec<_>>()
    })
}

/// Lattice steps with no exact binary form, so products round onto and
/// next to cell boundaries.
const STEPS: [f64; 4] = [0.1, 0.7, 1.0 / 3.0, 1e-3];
const OFFSETS: [f64; 4] = [0.0, 0.0, 0.05, -7.3];
/// Lattice shifts of the right side; the last one makes the extents disjoint.
const SHIFTS: [u32; 4] = [0, 0, 7, 40];

/// A box on the lattice `k·step + offset`: the min corner at `k + shift`
/// for `k` in `0..span`, each side 0 to 3 steps wide (zero-width a quarter
/// of the time). The max corner is the min plus `w·step`, which lands on or a
/// rounding step beside the lattice point `(k + w)·step + offset`, so boxes
/// share faces exactly and almost.
fn lattice_elem(
    id: u64,
    (step, offset, span, shift): (f64, f64, u32, u32),
) -> impl Strategy<Value = SpatialElement> {
    (0..span, 0..span, 0..span, 0u32..4, 0u32..4, 0u32..4).prop_map(move |(x, y, z, dx, dy, dz)| {
        let [x, y, z] = [x, y, z].map(|k| (k + shift) as f64 * step + offset);
        let [u, v, w] = [(x, dx), (y, dy), (z, dz)].map(|(lo, w)| lo + w as f64 * step);
        SpatialElement::new(id, Aabb::new(Point3::new(x, y, z), Point3::new(u, v, w)))
    })
}

fn lattice_dataset(
    max: usize,
    lattice: (f64, f64, u32, u32),
) -> impl Strategy<Value = Vec<SpatialElement>> {
    prop::collection::vec(any::<()>(), 0..max).prop_flat_map(move |v| {
        (0..v.len() as u64)
            .map(|id| lattice_elem(id, lattice))
            .collect::<Vec<_>>()
    })
}

/// Two datasets on one shared lattice of `span` points per axis (so the
/// extents cover many step counts, some a multiple of the grid size), and
/// a grid size (0 = the default config, else `GridConfig::fixed(n)`).
fn lattice_case() -> impl Strategy<Value = (Vec<SpatialElement>, Vec<SpatialElement>, usize)> {
    (0usize..4, 0usize..4, 1u32..=36, 0usize..4, 0usize..=13).prop_flat_map(
        |(s, o, span, sh, n)| {
            let (step, offset) = (STEPS[s], OFFSETS[o]);
            (
                lattice_dataset(300, (step, offset, span, 0)),
                lattice_dataset(300, (step, offset, span, SHIFTS[sh])),
                Just(n),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_hash_join_matches_oracle(a in arb_dataset(40), b in arb_dataset(40), n in 1usize..12) {
        let mut s1 = JoinStats::default();
        let mut s2 = JoinStats::default();
        let expected = canonicalize(nested_loop_join(&a, &b, &mut s1));
        let got = canonicalize(grid_hash_join(&a, &b, &GridConfig::fixed(n), &mut s2));
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn grid_hash_join_reports_no_duplicates(a in arb_dataset(30), b in arb_dataset(30), n in 1usize..10) {
        let mut s = JoinStats::default();
        let got = grid_hash_join(&a, &b, &GridConfig::fixed(n), &mut s);
        let total = got.len();
        prop_assert_eq!(canonicalize(got).len(), total, "duplicates reported");
    }

    #[test]
    fn plane_sweep_matches_oracle(a in arb_dataset(40), b in arb_dataset(40)) {
        let mut s1 = JoinStats::default();
        let mut s2 = JoinStats::default();
        let expected = canonicalize(nested_loop_join(&a, &b, &mut s1));
        let got = canonicalize(plane_sweep_join(&a, &b, &mut s2));
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn join_is_symmetric(a in arb_dataset(25), b in arb_dataset(25)) {
        let mut s = JoinStats::default();
        let fwd = canonicalize(grid_hash_join(&a, &b, &GridConfig::default(), &mut s));
        let rev: Vec<_> = grid_hash_join(&b, &a, &GridConfig::default(), &mut s)
            .into_iter()
            .map(|(x, y)| (y, x))
            .collect();
        prop_assert_eq!(fwd, canonicalize(rev));
    }
}

proptest! {
    // A few hundred cases: a kernel whose cell boxes round apart from its
    // cell index loses a pair in about 1 % of them.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn grid_hash_join_is_exact_on_lattices((a, b, n) in lattice_case()) {
        let config = if n == 0 { GridConfig::default() } else { GridConfig::fixed(n) };
        let mut s = JoinStats::default();
        let expected = canonicalize(nested_loop_join(&a, &b, &mut s));
        // One scratch serves both orientations, as a pivot loop reuses it.
        let mut grid = GridJoin::default();
        let (mut fwd, mut rev) = (Vec::new(), Vec::new());
        grid.join_into(&a, &b, &config, &mut s, &mut fwd);
        grid.join_into(&b, &a, &config, &mut s, &mut rev);
        let rev: Vec<_> = rev.into_iter().map(|(y, x)| (x, y)).collect();
        for got in [fwd, rev] {
            let total = got.len();
            let got = canonicalize(got);
            prop_assert_eq!(got.len(), total, "a pair was reported twice");
            prop_assert_eq!(&got, &expected);
        }
    }
}
