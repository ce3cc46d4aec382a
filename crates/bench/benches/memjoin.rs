//! Ablation bench: the in-memory join kernels (grid hash join vs plane
//! sweep vs nested loop). PBSM and TRANSFORMERS use the grid hash join,
//! the R-Tree baseline uses plane sweep (paper §VII-A).
//!
//! The `memjoin/pivot` group joins inputs shaped like one TRANSFORMERS
//! pivot on a skewed pair: about 600 clustered guide elements against
//! about 1,900 follower elements spread over a region 64 times larger.
//! Its `grid_join_reused` case keeps one `GridJoin` across calls, as a
//! join worker does from pivot to pivot.

mod common;

use common::*;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tfm_datagen::{generate, DatasetSpec, Distribution};
use tfm_geom::{Aabb, Point3, SpatialElement};
use tfm_memjoin::{
    grid_hash_join, nested_loop_join, plane_sweep_join, GridConfig, GridJoin, JoinStats,
};

/// `count` uniform elements with sides up to 4 inside the cube `[lo, hi]³`.
fn cube(count: usize, lo: f64, hi: f64, seed: u64) -> Vec<SpatialElement> {
    generate(&DatasetSpec {
        universe: Aabb::new(Point3::new(lo, lo, lo), Point3::new(hi, hi, hi)),
        max_side: 4.0,
        ..DatasetSpec::uniform(count, seed)
    })
}

fn bench(c: &mut Criterion) {
    let a = dataset(3_000, Distribution::Uniform, 80);
    let b = dataset(3_000, Distribution::Uniform, 81);

    let mut group = c.benchmark_group("memjoin/3000x3000");
    group.sample_size(20);

    group.bench_function("grid_hash", |bench| {
        bench.iter(|| {
            let mut s = JoinStats::default();
            black_box(grid_hash_join(&a, &b, &GridConfig::default(), &mut s).len())
        })
    });

    group.bench_function("plane_sweep", |bench| {
        bench.iter(|| {
            let mut s = JoinStats::default();
            black_box(plane_sweep_join(&a, &b, &mut s).len())
        })
    });

    group.bench_function("nested_loop", |bench| {
        bench.iter(|| {
            let mut s = JoinStats::default();
            black_box(nested_loop_join(&a, &b, &mut s).len())
        })
    });

    group.finish();

    let guide = cube(600, 0.0, 30.0, 82);
    let follower = cube(1_900, -45.0, 75.0, 83);
    let mut group = c.benchmark_group("memjoin/pivot");
    group.sample_size(50);
    group.bench_function("grid_hash", |bench| {
        bench.iter(|| {
            let mut s = JoinStats::default();
            black_box(grid_hash_join(&guide, &follower, &GridConfig::default(), &mut s).len())
        })
    });
    let (mut grid, mut out) = (GridJoin::default(), Vec::new());
    group.bench_function("grid_join_reused", |bench| {
        bench.iter(|| {
            let mut s = JoinStats::default();
            out.clear();
            grid.join_into(&guide, &follower, &GridConfig::default(), &mut s, &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
