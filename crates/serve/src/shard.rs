//! The sharded cluster: partitioning, per-shard indexes and routing.
//!
//! One [`SharedPageCache`](tfm_storage::SharedPageCache) and one
//! [`RequestQueue`](crate::RequestQueue) cap what a single serve instance
//! can absorb: every worker funnels through the same shard locks and the
//! same admission edge. This module splits the *dataset* instead of just
//! the work — the horizontal-scaling seam of the ROADMAP:
//!
//! 1. [`plan_shards`] partitions the elements into N disjoint subsets
//!    with the same machinery the index build uses (a Hilbert-order
//!    split, or grouped STR partitions), so each subset is spatially
//!    compact.
//! 2. [`ShardedCluster::build`] turns each subset into a self-contained
//!    **index shard**: its own [`Disk`] and its own built index
//!    (TRANSFORMERS hierarchy or R-tree). At serve time each shard gets
//!    its own engine, cache (per [`ServeConfig`]), queue and workers.
//!    Shards share nothing, which is what makes this the seam for a
//!    future multi-process split.
//! 3. [`ShardRouter`] plans each window / point / ε-ball probe onto only
//!    the shards whose element bounds its probe box intersects: a shard
//!    that cannot hold a match never sees the query.
//! 4. [`serve_sharded`] builds the shard engines and hands them, with the
//!    router, to the same driver [`crate::serve_trace`] uses — a single
//!    engine is the one-shard case — which scatters each batch onto
//!    per-shard queues and merges the partial id lists back per query.
//!
//! # Determinism
//!
//! Batch composition does not depend on the shard count, each element
//! lives in exactly one shard, and every shard-local result is the
//! ascending id list of its shard's matches — so the merged result (union
//! of disjoint sorted sets, re-sorted) is **byte-identical to the
//! single-engine serve path at any shard count and any worker count**.
//! The `shard_equivalence` integration test holds all three engines to
//! that across a 1/2/4/8-shard × 1/2/4-worker grid; a property test
//! checks the router never skips a shard holding a matching element.
//! (Load shedding deliberately breaks the guarantee — shed partials are
//! counted, not silently dropped.)

use crate::{
    GipsyEngine, QueryEngine, RtreeEngine, ServeConfig, ServeEngineKind, ServeOutcome,
    TransformersEngine,
};
use tfm_geom::{hilbert, Aabb, HasMbb, SpatialElement, SpatialQuery};
use tfm_partition::str_partition;
use tfm_rtree::RTree;
use tfm_storage::{Disk, SharedPageCache, StoreBackend};
use transformers::{IndexConfig, TransformersIndex};

/// How [`plan_shards`] splits the dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPartitioner {
    /// Sort elements by the Hilbert index of their MBB centers and cut
    /// the curve into N near-equal contiguous runs. Cheap, and shards
    /// inherit the curve's locality.
    Hilbert,
    /// Run the index build's own STR partitioner at capacity ≈ n/N and
    /// group consecutive partitions into N shards. Shard bounds follow
    /// the STR tiling instead of the curve.
    Str,
}

/// Build-time shape of a [`ShardedCluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Number of shards (`0` is clamped to 1).
    pub shards: usize,
    /// Dataset split strategy.
    pub partitioner: ShardPartitioner,
    /// Index structure per shard.
    pub engine: ServeEngineKind,
    /// Page size of each shard's private disk.
    pub page_size: usize,
    /// Storage backend of each shard's private disk. With
    /// [`StoreBackend::File`] every shard writes its own page image
    /// (`shard<i>.pages`) under the given directory, so shards never
    /// contend on one file either.
    pub backend: StoreBackend,
    /// Injected device-read latency scale on each shard's disk
    /// ([`Disk::with_read_latency`]): every serve-time page read sleeps
    /// the modeled cost times this factor. `0.0` (default) injects
    /// nothing. Applied after the index build so bulk loading stays
    /// fast; used to make queue-depth/readahead effects deterministic
    /// on hosts whose real I/O is too fast to measure.
    pub read_latency: f64,
}

impl Default for ShardSpec {
    fn default() -> Self {
        Self {
            shards: 1,
            partitioner: ShardPartitioner::Hilbert,
            engine: ServeEngineKind::Transformers,
            page_size: tfm_storage::DEFAULT_PAGE_SIZE,
            backend: StoreBackend::Mem,
            read_latency: 0.0,
        }
    }
}

impl ShardSpec {
    /// Builder: sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Builder: sets the split strategy.
    pub fn with_partitioner(mut self, partitioner: ShardPartitioner) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Builder: sets the per-shard index structure.
    pub fn with_engine(mut self, engine: ServeEngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Builder: sets the per-shard storage backend.
    pub fn with_backend(mut self, backend: StoreBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Builder: sets the injected serve-time read-latency scale.
    pub fn with_read_latency(mut self, scale: f64) -> Self {
        self.read_latency = scale;
        self
    }
}

/// Splits `elements` into `shards` disjoint, spatially compact subsets.
///
/// Every element lands in exactly one subset (some may be empty when
/// `shards > elements.len()`), and the split depends only on the input
/// and the strategy — never on thread counts — so cluster builds are
/// deterministic.
pub fn plan_shards(
    elements: &[SpatialElement],
    shards: usize,
    partitioner: ShardPartitioner,
) -> Vec<Vec<SpatialElement>> {
    let n = shards.max(1);
    if elements.is_empty() {
        return vec![Vec::new(); n];
    }
    match partitioner {
        ShardPartitioner::Hilbert => {
            let universe = Aabb::union_all(elements.iter().map(|e| e.mbb));
            let mut order: Vec<usize> = (0..elements.len()).collect();
            // Tie-break on the element id so the split is total.
            order.sort_by_key(|&i| {
                (
                    hilbert::index_of_point(&elements[i].center(), &universe),
                    elements[i].id,
                )
            });
            let total = order.len();
            (0..n)
                .map(|g| {
                    order[total * g / n..total * (g + 1) / n]
                        .iter()
                        .map(|&i| elements[i])
                        .collect()
                })
                .collect()
        }
        ShardPartitioner::Str => {
            let total = elements.len();
            let capacity = total.div_ceil(n);
            let parts = str_partition(elements.to_vec(), capacity);
            // STR may emit more than N partitions; group consecutive
            // (spatially adjacent) partitions so shard g closes once the
            // running element count reaches g+1 N-ths of the total.
            let mut out: Vec<Vec<SpatialElement>> = vec![Vec::new(); n];
            let mut assigned = 0usize;
            let mut g = 0usize;
            for part in parts {
                while g + 1 < n && assigned * n >= total * (g + 1) {
                    g += 1;
                }
                assigned += part.items.len();
                out[g].extend(part.items);
            }
            out
        }
    }
}

/// One self-contained index shard: a private disk plus a built index
/// over this shard's elements only.
pub struct IndexShard {
    disk: Disk,
    index: ShardIndex,
    bounds: Aabb,
    elements: u64,
}

enum ShardIndex {
    Transformers(TransformersIndex),
    Rtree(RTree),
}

impl IndexShard {
    fn build(elements: Vec<SpatialElement>, spec: &ShardSpec, shard: usize) -> Self {
        let bounds = Aabb::union_all(elements.iter().map(|e| e.mbb));
        let count = elements.len() as u64;
        let disk = Disk::for_backend(&spec.backend, spec.page_size, &format!("shard{shard}"))
            .expect("shard disk backend");
        let index = match spec.engine {
            ServeEngineKind::Rtree => ShardIndex::Rtree(RTree::bulk_load(&disk, elements)),
            // GIPSY serves from the TRANSFORMERS structure too.
            _ => ShardIndex::Transformers(TransformersIndex::build(
                &disk,
                elements,
                &IndexConfig::default(),
            )),
        };
        // Latency injection starts after the build: bulk loading stays
        // fast, only serve-time reads pay the modeled sleep.
        let disk = disk.with_read_latency(spec.read_latency);
        Self {
            disk,
            index,
            bounds,
            elements: count,
        }
    }

    /// Union of this shard's element MBBs — the routing box. Empty for
    /// an empty shard (and an empty box intersects nothing, so empty
    /// shards are never routed to).
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// Elements indexed by this shard.
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// Constructs this shard's serve engine: with its own shared page
    /// cache of `pages` pages over `stripes` lock stripes under
    /// `cfg.cache_policy`, or private-pool sessions when
    /// `cfg.shared_cache` is off.
    fn engine(
        &self,
        kind: ServeEngineKind,
        cfg: &ServeConfig,
        pages: usize,
        stripes: usize,
    ) -> Box<dyn QueryEngine + '_> {
        let policy = cfg.cache_policy;
        match (&self.index, kind) {
            (ShardIndex::Rtree(tree), _) => {
                let mut engine = RtreeEngine::new(tree, &self.disk);
                if cfg.shared_cache {
                    engine = engine.with_shared_cache_policy(pages, stripes, policy);
                }
                Box::new(engine)
            }
            (ShardIndex::Transformers(idx), ServeEngineKind::Gipsy) => {
                let mut engine = GipsyEngine::new(idx, &self.disk);
                if cfg.shared_cache {
                    engine = engine.with_shared_cache_policy(pages, stripes, policy);
                }
                Box::new(engine)
            }
            (ShardIndex::Transformers(idx), _) => {
                let mut engine = TransformersEngine::new(idx, &self.disk);
                if cfg.shared_cache {
                    engine = engine.with_shared_cache_policy(pages, stripes, policy);
                }
                Box::new(engine)
            }
        }
    }
}

/// Plans probes onto shards: a query is routed to exactly the shards
/// whose element bounds its probe box intersects.
///
/// Soundness leans on two established facts: every element's MBB is
/// contained in its shard's routing box (the box is their union), and
/// [`SpatialQuery::probe`] is a sound prefilter (an element a query
/// matches always intersects the probe box — property-tested in
/// `tfm-geom`). A shard holding a matching element therefore always
/// intersects the probe box and is always routed to.
pub struct ShardRouter {
    bounds: Vec<Aabb>,
}

impl ShardRouter {
    /// Builds a router over per-shard routing boxes.
    pub fn new(bounds: Vec<Aabb>) -> Self {
        Self { bounds }
    }

    /// Routing boxes, indexed by shard.
    pub fn bounds(&self) -> &[Aabb] {
        &self.bounds
    }

    /// The ascending list of shards `query` must be scattered to.
    pub fn route(&self, query: &SpatialQuery) -> Vec<usize> {
        let probe = query.probe();
        self.bounds
            .iter()
            .enumerate()
            .filter(|(_, b)| b.intersects(&probe))
            .map(|(s, _)| s)
            .collect()
    }
}

/// N self-contained index shards plus the router that targets them.
pub struct ShardedCluster {
    shards: Vec<IndexShard>,
    router: ShardRouter,
    spec: ShardSpec,
}

impl ShardedCluster {
    /// Partitions `elements` per `spec` and builds every shard's index.
    pub fn build(elements: Vec<SpatialElement>, spec: &ShardSpec) -> Self {
        let shards: Vec<IndexShard> = plan_shards(&elements, spec.shards, spec.partitioner)
            .into_iter()
            .enumerate()
            .map(|(i, subset)| IndexShard::build(subset, spec, i))
            .collect();
        let router = ShardRouter::new(shards.iter().map(IndexShard::bounds).collect());
        let count = shards.len();
        Self {
            shards,
            router,
            spec: ShardSpec {
                shards: count,
                ..spec.clone()
            },
        }
    }

    /// Number of shards (≥ 1).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The cluster's router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The shards themselves (for bounds / element counts).
    pub fn shards(&self) -> &[IndexShard] {
        &self.shards
    }

    /// The spec the cluster was built with (shard count clamped).
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }
}

/// Replays `trace` against the cluster: builds every shard's engine from
/// `cfg` (shared cache of `pool_pages / shards` pages, floor 16, under
/// `cfg.cache_policy`, or private pools), then runs the serve driver with
/// the cluster's router — every probe is scattered onto the shards its
/// probe box intersects, per-shard workers drain per-shard queues, and
/// partials merge deterministically. [`crate::serve_trace`] is the same
/// driver with one engine, so every [`ServeConfig`] knob means the same
/// at any shard count.
pub fn serve_sharded(
    cluster: &ShardedCluster,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
) -> ServeOutcome {
    let cache_pages = (cfg.pool_pages / cluster.shard_count()).max(16);
    let cache_shards = SharedPageCache::shards_for_threads(cfg.threads.max(1));
    let engines: Vec<Box<dyn QueryEngine + '_>> = cluster
        .shards
        .iter()
        .map(|s| s.engine(cluster.spec.engine, cfg, cache_pages, cache_shards))
        .collect();
    let engines: Vec<&dyn QueryEngine> = engines.iter().map(Box::as_ref).collect();
    crate::driver::drive(&engines, Some(&cluster.router), trace, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, generate_trace, DatasetSpec, QueryTraceSpec};
    use tfm_geom::ElementId;

    fn dataset(count: usize, seed: u64) -> Vec<SpatialElement> {
        generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(count, seed)
        })
    }

    fn reference(elems: &[SpatialElement], trace: &[SpatialQuery]) -> Vec<Vec<ElementId>> {
        trace
            .iter()
            .map(|q| {
                let mut ids: Vec<ElementId> = elems
                    .iter()
                    .filter(|e| q.matches(&e.mbb))
                    .map(|e| e.id)
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect()
    }

    #[test]
    fn plan_shards_partitions_every_element_once() {
        let elems = dataset(1200, 31);
        for partitioner in [ShardPartitioner::Hilbert, ShardPartitioner::Str] {
            for n in [1usize, 2, 3, 5, 8] {
                let shards = plan_shards(&elems, n, partitioner);
                assert_eq!(shards.len(), n, "{partitioner:?}");
                let mut ids: Vec<ElementId> = shards.iter().flatten().map(|e| e.id).collect();
                ids.sort_unstable();
                let expected: Vec<ElementId> = (0..elems.len() as u64).collect();
                assert_eq!(ids, expected, "{partitioner:?} shards={n}");
                // Near-balanced: no shard more than twice the fair share.
                let fair = elems.len().div_ceil(n);
                for (s, shard) in shards.iter().enumerate() {
                    assert!(
                        shard.len() <= 2 * fair,
                        "{partitioner:?} shard {s} holds {} of fair {fair}",
                        shard.len()
                    );
                }
            }
        }
    }

    #[test]
    fn plan_shards_is_deterministic() {
        let elems = dataset(800, 32);
        for partitioner in [ShardPartitioner::Hilbert, ShardPartitioner::Str] {
            let a = plan_shards(&elems, 4, partitioner);
            let b = plan_shards(&elems, 4, partitioner);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn router_covers_every_matching_shard() {
        let elems = dataset(1500, 33);
        let trace = generate_trace(&QueryTraceSpec::uniform(300, 34));
        let plan = plan_shards(&elems, 4, ShardPartitioner::Hilbert);
        let router = ShardRouter::new(
            plan.iter()
                .map(|s| Aabb::union_all(s.iter().map(|e| e.mbb)))
                .collect(),
        );
        for q in &trace {
            let routed = router.route(q);
            for (s, shard) in plan.iter().enumerate() {
                if shard.iter().any(|e| q.matches(&e.mbb)) {
                    assert!(routed.contains(&s), "matching shard {s} not routed");
                }
            }
        }
    }

    #[test]
    fn sharded_serve_matches_the_reference() {
        let elems = dataset(2000, 35);
        let trace = generate_trace(&QueryTraceSpec::uniform(150, 36));
        let expected = reference(&elems, &trace);
        for shards in [1usize, 3] {
            let cluster =
                ShardedCluster::build(elems.clone(), &ShardSpec::default().with_shards(shards));
            for workers in [1usize, 2] {
                let out = serve_sharded(
                    &cluster,
                    &trace,
                    &ServeConfig::default().with_threads(workers),
                );
                assert_eq!(out.results, expected, "shards={shards} workers={workers}");
                assert_eq!(out.stats.queries, 150);
                assert_eq!(out.stats.shards, shards);
                assert_eq!(out.stats.shed_partials, 0);
                assert_eq!(
                    out.stats.routed_partials,
                    out.stats.per_shard.iter().map(|s| s.executed).sum::<u64>()
                );
            }
        }
    }

    #[test]
    fn str_partitioned_cluster_matches_too() {
        let elems = dataset(1600, 37);
        let trace = generate_trace(&QueryTraceSpec::uniform(120, 38));
        let expected = reference(&elems, &trace);
        let cluster = ShardedCluster::build(
            elems,
            &ShardSpec::default()
                .with_shards(4)
                .with_partitioner(ShardPartitioner::Str),
        );
        let out = serve_sharded(&cluster, &trace, &ServeConfig::default());
        assert_eq!(out.results, expected);
    }

    #[test]
    fn file_backed_cluster_with_readahead_matches_reference() {
        let elems = dataset(12_000, 49);
        let trace = generate_trace(&QueryTraceSpec::uniform(150, 50));
        let expected = reference(&elems, &trace);
        let dir = std::env::temp_dir().join(format!("tfm-shardio-{}", std::process::id()));
        // Injected read latency makes the prefetch race deterministic:
        // without it a loaded single-core host can let the demand reads
        // win every landing race and the pipeline assertion below flakes.
        // A sleeping demand read always yields the CPU to the I/O
        // threads, exactly like bench_io's throttled runs.
        let cluster = ShardedCluster::build(
            elems,
            &ShardSpec::default()
                .with_shards(3)
                .with_backend(StoreBackend::File(dir.clone()))
                .with_read_latency(0.02),
        );
        // Every shard wrote its own page image.
        for s in 0..3 {
            assert!(dir.join(format!("shard{s}.pages")).is_file());
        }
        // A cache far smaller than each shard's page set, so prefetched
        // pages can't all be resident already.
        let out = serve_sharded(
            &cluster,
            &trace,
            &ServeConfig {
                pool_pages: 96,
                ..ServeConfig::default()
                    .with_threads(2)
                    .with_io_depth(2)
                    .with_readahead(64)
            },
        );
        assert_eq!(out.results, expected);
        for s in &out.stats.per_shard {
            assert_eq!(
                s.per_worker_queries.len(),
                2,
                "prefetch I/O threads must not surface in per-worker stats"
            );
        }
        assert!(
            out.stats
                .per_shard
                .iter()
                .any(|s| s.cache.as_ref().is_some_and(|c| c.prefetch_issued > 0)),
            "at least one shard's prefetch pipeline must have landed pages"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fanout_stays_below_shard_count_for_point_probes() {
        // Point probes have degenerate probe boxes; with spatially
        // compact shards most points hit a strict subset of shards.
        let elems = dataset(3000, 39);
        let cluster = ShardedCluster::build(elems, &ShardSpec::default().with_shards(8));
        let trace = generate_trace(&QueryTraceSpec::uniform(400, 40));
        let out = serve_sharded(&cluster, &trace, &ServeConfig::default());
        assert!(out.stats.fanout_mean() < 8.0, "routing must prune shards");
        assert!(out.stats.fanout_max <= 8);
    }

    #[test]
    fn shedding_accounts_for_every_partial() {
        let elems = dataset(2500, 41);
        let cluster = ShardedCluster::build(elems, &ShardSpec::default().with_shards(2));
        let trace = generate_trace(&QueryTraceSpec::uniform(600, 42));
        // A tiny queue and batch makes rejection plausible but not
        // guaranteed; either way the accounting must balance.
        let cfg = ServeConfig {
            batch: 4,
            queue_batches: 1,
            ..ServeConfig::default().with_shedding()
        };
        let out = serve_sharded(&cluster, &trace, &cfg);
        let executed: u64 = out.stats.per_shard.iter().map(|s| s.executed).sum();
        assert_eq!(
            executed + out.stats.shed_partials,
            out.stats.routed_partials,
            "executed + shed must equal routed"
        );
        if out.stats.shed_partials == 0 {
            assert_eq!(out.stats.shed_queries, 0);
        }
    }

    #[test]
    fn empty_trace_and_empty_dataset() {
        let cluster = ShardedCluster::build(Vec::new(), &ShardSpec::default().with_shards(4));
        assert_eq!(cluster.shard_count(), 4);
        let trace = generate_trace(&QueryTraceSpec::uniform(40, 43));
        let out = serve_sharded(&cluster, &trace, &ServeConfig::default());
        assert!(out.results.iter().all(Vec::is_empty));
        assert_eq!(
            out.stats.routed_partials, 0,
            "empty shards are never routed"
        );

        let elems = dataset(500, 44);
        let cluster = ShardedCluster::build(elems, &ShardSpec::default().with_shards(2));
        let out = serve_sharded(&cluster, &[], &ServeConfig::default());
        assert!(out.results.is_empty());
        assert_eq!(out.stats.queries, 0);
    }

    #[test]
    fn degenerate_config_is_clamped() {
        let elems = dataset(600, 45);
        let expected_len = 30;
        let trace = generate_trace(&QueryTraceSpec::uniform(expected_len, 46));
        let cluster = ShardedCluster::build(elems.clone(), &ShardSpec::default().with_shards(0));
        assert_eq!(cluster.shard_count(), 1);
        let cfg = ServeConfig {
            threads: 0,
            batch: 0,
            queue_batches: 0,
            pool_pages: 0,
            ..ServeConfig::default()
        };
        let out = serve_sharded(&cluster, &trace, &cfg);
        assert_eq!(out.results, reference(&elems, &trace));
        assert_eq!(out.stats.threads, 1);
    }

    #[test]
    fn shard_metrics_publish_at_run_end() {
        let reg = tfm_obs::global();
        tfm_obs::set_enabled(true);
        reg.reset();
        let elems = dataset(900, 47);
        let trace = generate_trace(&QueryTraceSpec::uniform(80, 48));
        let cluster = ShardedCluster::build(elems, &ShardSpec::default().with_shards(3));
        let out = serve_sharded(&cluster, &trace, &ServeConfig::default());
        let snap = reg.snapshot();
        tfm_obs::set_enabled(false);
        use tfm_obs::MetricValue;
        let value = |name: &str| {
            snap.entries
                .iter()
                .find(|e| e.name == name)
                .map(|e| e.value.clone())
        };
        assert_eq!(
            value(tfm_obs::names::SHARD_QUERIES),
            Some(MetricValue::Counter(80))
        );
        assert_eq!(
            value(tfm_obs::names::SHARD_ROUTED),
            Some(MetricValue::Counter(out.stats.routed_partials))
        );
        assert_eq!(
            value(tfm_obs::names::SHARD_COUNT),
            Some(MetricValue::Gauge(3))
        );
        assert!(value("shard.0.queries").is_some());
        assert!(value("shard.2.queries").is_some());
        if let Some(MetricValue::Histogram(h)) = value(tfm_obs::names::SHARD_FANOUT) {
            assert_eq!(h.count, 80, "one fanout sample per query");
        } else {
            panic!("shard.fanout histogram missing");
        }
    }
}
