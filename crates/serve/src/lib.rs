//! **tfm-serve** — concurrent spatial query serving over shared indexes.
//!
//! The reproduction can build every index in parallel and run the
//! TRANSFORMERS join on an adaptive worker pool, but the paper's own
//! motivation (§I–II) is neuroscience analyses issuing *massive numbers of
//! spatial probes* against the built structures — a serving workload, not
//! a one-shot batch join. This crate turns those probes into a
//! first-class, measurable workload:
//!
//! * [`QueryEngine`] / [`QuerySession`] — one trait implemented by all
//!   three disk-resident structures (TRANSFORMERS, GIPSY-style
//!   element-granularity crawling, the R-tree baseline), named by
//!   [`ServeEngineKind`]. Engines are shared immutably across workers;
//!   sessions hold all per-worker mutable state (a view of a shared page
//!   cache, or a private [`tfm_storage::BufferPool`]), so concurrent
//!   readers never contend on session state.
//! * [`RequestQueue`] — the bounded admission edge: blocking `push` is
//!   backpressure, non-blocking `try_push` is load shedding.
//! * **One serve driver** behind two entry points. [`serve_trace`] serves
//!   one engine; [`serve_sharded`] serves a [`ShardedCluster`] — the
//!   dataset split into self-contained index shards, each probe routed
//!   onto only the shards its probe box intersects. A single engine is
//!   the one-shard case: the calling thread batches, routes and feeds
//!   per-shard bounded queues, every worker of every shard drains its
//!   shard's queue, and partials merge back by query position. With one
//!   shard and one worker the run stays inline on the caller.
//! * **Locality-aware batching** — the trace is split into arrival-order
//!   batches, each sorted (by default) by the Hilbert order of the
//!   queries' probe centers. Consecutive queries of a sorted batch probe
//!   neighbouring regions, so their candidate pages overlap or adjoin:
//!   page accesses that would be random seeks under arrival order become
//!   cache hits or sequential reads — visible in the
//!   [`tfm_storage::IoStatsSnapshot`] sequential/random split
//!   ([`ServeStats::seq_read_fraction`]). See `DESIGN.md` for why this
//!   falls out of the disk model.
//! * [`ServeStats`] — per-run aggregates: critical-path latency
//!   percentiles, pool hits/misses, the I/O delta, per-worker query
//!   counts, routing fanout, shedding and per-shard breakdowns.
//!
//! # Determinism
//!
//! Batch composition depends only on the trace and the batch size (never
//! on the worker or shard count), each query's result is a pure function
//! of the query and the data, shards hold disjoint element sets, and
//! results are reassembled by query position — so the result vector is
//! **byte-identical for any shard count, any thread count and either
//! batching mode** (load shedding excepted). The `serve_equivalence` and
//! `shard_equivalence` integration tests hold all engines to that against
//! a sequential full-scan reference.
//!
//! # Example
//!
//! ```
//! use tfm_datagen::{generate, generate_trace, DatasetSpec, QueryTraceSpec};
//! use tfm_serve::{serve_trace, ServeConfig, TransformersEngine};
//! use tfm_storage::Disk;
//! use transformers::{IndexConfig, TransformersIndex};
//!
//! let disk = Disk::default_in_memory();
//! let idx = TransformersIndex::build(&disk, generate(&DatasetSpec::uniform(2_000, 1)), &IndexConfig::default());
//! let trace = generate_trace(&QueryTraceSpec::uniform(200, 2));
//!
//! let engine = TransformersEngine::new(&idx, &disk);
//! let out = serve_trace(&engine, &trace, &ServeConfig::default().with_threads(2));
//! assert_eq!(out.results.len(), trace.len());
//! assert_eq!(out.stats.queries, 200);
//! ```

#![warn(missing_docs)]

mod driver;
mod engines;
mod queue;
mod shard;
mod stats;

pub use engines::{
    GipsyEngine, MutableTransformersEngine, QueryEngine, QuerySession, RtreeEngine,
    ServeEngineKind, TransformersEngine,
};
pub use queue::RequestQueue;
pub use shard::{
    plan_shards, serve_sharded, IndexShard, ShardPartitioner, ShardRouter, ShardSpec,
    ShardedCluster,
};
pub use stats::{AutoBatchSummary, LatencySummary, ServeStats, ShardStats};

use tfm_geom::{ElementId, SpatialQuery};

/// Configuration of one serve run, at any shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads per shard executing queries (`0` is clamped to 1).
    pub threads: usize,
    /// Queries per batch — the unit of queueing and of locality sorting
    /// (`0` is clamped to 1).
    pub batch: usize,
    /// Sort each batch by the Hilbert order of probe centers before
    /// execution (on by default; turn off for the arrival-order ablation).
    pub hilbert_batching: bool,
    /// Total cache budget in pages. Private pools split it evenly across
    /// every worker session (mirrors the parallel join's budget split, so
    /// the aggregate cache matches a sequential run's instead of
    /// multiplying by the worker count); a cluster gives each shard's
    /// shared cache `pool_pages / shards` (floor 16).
    pub pool_pages: usize,
    /// Bounded request-queue capacity in batches per shard — the
    /// backpressure window between the feeding thread and the workers.
    pub queue_batches: usize,
    /// Serve through shared page caches (the default the bench/CLI
    /// harnesses and the cluster construct engines with). `false` is the
    /// `--private-pool` ablation: each worker session owns a private pool.
    /// This field is read by whatever *builds* engines (`tfm-bench`, the
    /// CLI, [`serve_sharded`]) — a hand-constructed engine's mode is fixed
    /// by its constructor.
    pub shared_cache: bool,
    /// Collect one [`tfm_obs::QueryTrace`] per query in
    /// [`ServeOutcome::traces`] (queue-wait/service split and per-query
    /// pool-counter attribution). Off by default: trace records cost a
    /// per-query allocation the hot path otherwise never pays.
    pub collect_traces: bool,
    /// Dedicated I/O threads per shard keeping prefetch reads in flight —
    /// the submission queue depth of the readahead pipeline. Only
    /// consulted when [`ServeConfig::readahead`] enables prefetching; `0`
    /// is clamped to 1.
    pub io_depth: usize,
    /// Readahead window in pages per shard: the capacity of the bounded
    /// [`tfm_storage::PrefetchQueue`] the feeder fills with each batch's
    /// Hilbert-ordered candidate pages. `0` (the default) disables the
    /// prefetch pipeline entirely; it also stays off on engines without a
    /// shared cache ([`QueryEngine::supports_prefetch`]) and on the inline
    /// path (one shard, one worker).
    pub readahead: usize,
    /// Self-tuning batch sizing: every few batches the feeder re-scores
    /// the run from the observed cache hit fraction and sequential-read
    /// fraction, growing the batch (up to 4× [`ServeConfig::batch`]) while
    /// locality is poor — a larger batch gives the Hilbert sort more scope
    /// — and decaying back toward the base once the signals recover. Batch
    /// *composition* stays arrival-order slices and results are keyed by
    /// query position, so results are byte-identical to any fixed batch
    /// size. The inline path (one shard, one worker) ignores this flag.
    pub auto_batch: bool,
    /// Eviction policy of the shared page caches engines are built with
    /// (`--cache-policy`): CLOCK (the default/ablation) or scan-resistant
    /// 2Q admission. Like [`ServeConfig::shared_cache`], this is read by
    /// the engine *builders*; a hand-constructed engine's policy is fixed
    /// by its constructor.
    pub cache_policy: tfm_storage::CachePolicy,
    /// Load shedding: admit batches with `try_push` and count rejections
    /// instead of blocking. Shed partials make the affected queries'
    /// results incomplete (counted in [`ServeStats::shed_queries`]); leave
    /// this off for the byte-identical path. The inline path has no queue
    /// and never sheds.
    pub shed: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            batch: 64,
            hilbert_batching: true,
            pool_pages: tfm_storage::DEFAULT_POOL_PAGES,
            queue_batches: 4,
            shared_cache: true,
            collect_traces: false,
            io_depth: 1,
            readahead: 0,
            auto_batch: false,
            cache_policy: tfm_storage::CachePolicy::Clock,
            shed: false,
        }
    }
}

impl ServeConfig {
    /// Builder: sets the worker count (per shard).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Builder: sets the batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Builder: disables Hilbert-ordered batching (arrival order).
    pub fn without_hilbert_batching(mut self) -> Self {
        self.hilbert_batching = false;
        self
    }

    /// Builder: the private-pool ablation (see
    /// [`ServeConfig::shared_cache`]).
    pub fn without_shared_cache(mut self) -> Self {
        self.shared_cache = false;
        self
    }

    /// Builder: collect per-query [`tfm_obs::QueryTrace`] records.
    pub fn with_traces(mut self) -> Self {
        self.collect_traces = true;
        self
    }

    /// Builder: sets the prefetch queue depth (I/O threads in flight).
    pub fn with_io_depth(mut self, io_depth: usize) -> Self {
        self.io_depth = io_depth;
        self
    }

    /// Builder: sets the readahead window in pages (enables the prefetch
    /// pipeline when non-zero).
    pub fn with_readahead(mut self, readahead: usize) -> Self {
        self.readahead = readahead;
        self
    }

    /// Builder: enables the self-tuning batch loop (see
    /// [`ServeConfig::auto_batch`]).
    pub fn with_auto_batch(mut self) -> Self {
        self.auto_batch = true;
        self
    }

    /// Builder: sets the shared-cache eviction policy harnesses build
    /// engines with (see [`ServeConfig::cache_policy`]).
    pub fn with_cache_policy(mut self, policy: tfm_storage::CachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Builder: switches admission from backpressure to load shedding
    /// (see [`ServeConfig::shed`]).
    pub fn with_shedding(mut self) -> Self {
        self.shed = true;
        self
    }
}

/// What a serve run returns: per-query results plus aggregate statistics.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// `results[i]` is the ascending id list answering `trace[i]`.
    /// Identical for any shard count, thread count and batching mode
    /// (unless load was shed).
    pub results: Vec<Vec<ElementId>>,
    /// Aggregate counters of the run.
    pub stats: ServeStats,
    /// Per-query trace records, in trace-ID order; empty unless
    /// [`ServeConfig::collect_traces`] was set. The trace ID is the
    /// query's position in the input trace, so IDs are stable across
    /// thread counts, shard counts and batching modes. A scattered
    /// query's record is its critical path: the slowest partial's worker
    /// (global index, shard-major), the maximum service time and queue
    /// wait, and pool counters and result ids summed over partials.
    pub traces: Vec<tfm_obs::QueryTrace>,
}

/// Replays `trace` against `engine` on `cfg.threads` workers and returns
/// every query's result plus aggregate [`ServeStats`].
///
/// This is the one-shard case of [`serve_sharded`]'s driver: every query
/// is routed to `engine`. The calling thread batches and feeds a bounded
/// [`RequestQueue`], the workers drain it on per-worker
/// [`QuerySession`]s, and results are reassembled by query position; at
/// one worker the run is inline on the caller. The result vector is
/// byte-identical for any `threads`/batching setting.
pub fn serve_trace<E: QueryEngine + ?Sized>(
    engine: &E,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
) -> ServeOutcome {
    driver::drive(&[engine], None, trace, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_datagen::{generate, generate_trace, DatasetSpec, ProbeMix, QueryTraceSpec};
    use tfm_storage::Disk;
    use transformers::{IndexConfig, TransformersIndex};

    fn fixture(
        count: usize,
        seed: u64,
    ) -> (Disk, TransformersIndex, Vec<tfm_geom::SpatialElement>) {
        let disk = Disk::in_memory(2048);
        let elems = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(count, seed)
        });
        let idx = TransformersIndex::build(&disk, elems.clone(), &IndexConfig::default());
        (disk, idx, elems)
    }

    /// The batch plan the driver feeds: arrival-order slices of `batch`
    /// queries, Hilbert-ordered within when `hilbert_batching` is on.
    fn plan_batches(
        trace: &[SpatialQuery],
        batch: usize,
        hilbert_batching: bool,
    ) -> Vec<Vec<usize>> {
        let cfg = ServeConfig {
            batch,
            hilbert_batching,
            ..ServeConfig::default()
        };
        let mut batches = Vec::new();
        driver::feed_batches::<dyn QueryEngine>(&[], trace, &cfg, false, |b| batches.push(b));
        batches
    }

    /// The oracle: a full scan per query.
    fn reference(
        elems: &[tfm_geom::SpatialElement],
        trace: &[SpatialQuery],
    ) -> Vec<Vec<ElementId>> {
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
    fn batches_partition_the_trace_in_arrival_chunks() {
        let trace = generate_trace(&QueryTraceSpec::uniform(250, 1));
        for hilbert in [false, true] {
            let batches = plan_batches(&trace, 64, hilbert);
            assert_eq!(batches.len(), 4);
            assert_eq!(batches[3].len(), 250 - 3 * 64);
            // Composition is arrival-order regardless of the sort.
            for (i, b) in batches.iter().enumerate() {
                let mut sorted = b.clone();
                sorted.sort_unstable();
                let expected: Vec<usize> = (i * 64..(i * 64 + b.len())).collect();
                assert_eq!(sorted, expected, "hilbert = {hilbert}");
            }
        }
        // The Hilbert plan actually reorders something.
        let arrival = plan_batches(&trace, 64, false);
        let hilberted = plan_batches(&trace, 64, true);
        assert_ne!(arrival, hilberted);
    }

    #[test]
    fn transformers_engine_answers_every_query_kind() {
        let (disk, idx, elems) = fixture(4000, 10);
        let trace = generate_trace(&QueryTraceSpec::uniform(300, 11));
        let engine = TransformersEngine::new(&idx, &disk);
        let out = serve_trace(&engine, &trace, &ServeConfig::default());
        assert_eq!(out.results, reference(&elems, &trace));
        assert_eq!(out.stats.queries, 300);
        assert_eq!(out.stats.per_worker_queries, vec![300]);
        assert!(out.stats.pool_misses > 0);
        assert!(out.stats.io.reads() > 0);
        assert_eq!(engine.label(), "TRANSFORMERS");
    }

    #[test]
    fn all_engines_agree_with_the_reference() {
        let (disk, idx, elems) = fixture(3000, 12);
        let rtree_disk = Disk::in_memory(2048);
        let tree = tfm_rtree::RTree::bulk_load(&rtree_disk, elems.clone());
        let trace = generate_trace(&QueryTraceSpec::with_mix(
            200,
            ProbeMix::Clustered { clusters: 4 },
            13,
        ));
        let expected = reference(&elems, &trace);
        let engines: Vec<Box<dyn QueryEngine>> = vec![
            Box::new(TransformersEngine::new(&idx, &disk)),
            Box::new(GipsyEngine::new(&idx, &disk)),
            Box::new(RtreeEngine::new(&tree, &rtree_disk)),
        ];
        for engine in &engines {
            let out = serve_trace(engine.as_ref(), &trace, &ServeConfig::default());
            assert_eq!(out.results, expected, "{}", engine.label());
        }
    }

    #[test]
    fn results_identical_across_threads_and_batching() {
        let (disk, idx, elems) = fixture(2500, 14);
        let trace = generate_trace(&QueryTraceSpec::uniform(240, 15));
        let expected = reference(&elems, &trace);
        let engine = TransformersEngine::new(&idx, &disk);
        for threads in [1, 2, 4] {
            for hilbert in [false, true] {
                let cfg = ServeConfig {
                    threads,
                    hilbert_batching: hilbert,
                    batch: 32,
                    queue_batches: 2,
                    ..ServeConfig::default()
                };
                let out = serve_trace(&engine, &trace, &cfg);
                assert_eq!(
                    out.results, expected,
                    "threads = {threads}, hilbert = {hilbert}"
                );
                assert_eq!(out.stats.per_worker_queries.iter().sum::<u64>(), 240);
                assert_eq!(out.stats.threads, threads);
            }
        }
    }

    #[test]
    fn hilbert_batching_raises_the_sequential_read_fraction() {
        // A large uniform trace over a sizeable index, one worker, one
        // big batch: arrival order hops randomly, Hilbert order sweeps.
        let (disk, idx, _) = fixture(30_000, 16);
        let trace = generate_trace(&QueryTraceSpec {
            count: 1500,
            max_window_side: 12.0,
            ..QueryTraceSpec::uniform(1500, 17)
        });
        let engine = TransformersEngine::new(&idx, &disk);
        let base = ServeConfig {
            batch: 1500,
            pool_pages: 64,
            ..ServeConfig::default()
        };
        let unbatched = serve_trace(&engine, &trace, &base.without_hilbert_batching());
        let batched = serve_trace(&engine, &trace, &base);
        assert_eq!(unbatched.results, batched.results);
        assert!(
            batched.stats.seq_read_fraction() > unbatched.stats.seq_read_fraction(),
            "hilbert {:.3} must beat arrival {:.3}",
            batched.stats.seq_read_fraction(),
            unbatched.stats.seq_read_fraction()
        );
    }

    #[test]
    fn shared_cache_engines_match_private_and_report_cache_stats() {
        let (disk, idx, elems) = fixture(2500, 22);
        let trace = generate_trace(&QueryTraceSpec::uniform(200, 23));
        let expected = reference(&elems, &trace);
        let shared = TransformersEngine::new(&idx, &disk).with_shared_cache(256, 4);
        for threads in [1, 4] {
            shared.reset_cache();
            let out = serve_trace(
                &shared,
                &trace,
                &ServeConfig::default().with_threads(threads),
            );
            assert_eq!(out.results, expected, "threads = {threads}");
            let cache = out.stats.cache.expect("shared engine reports cache stats");
            assert!(cache.hits + cache.misses > 0);
            assert_eq!(
                cache.decoded_hits + cache.decoded_misses,
                cache.hits + cache.misses
            );
            assert!(out.stats.pool_hit_fraction() > 0.0);
            // Handle-local counters sum to the cache's global totals.
            assert_eq!(out.stats.pool_hits, cache.hits);
            assert_eq!(out.stats.pool_misses, cache.misses);
        }
        // Private-pool engines report no cache stats.
        let private = TransformersEngine::new(&idx, &disk);
        let out = serve_trace(&private, &trace, &ServeConfig::default());
        assert_eq!(out.results, expected);
        assert!(out.stats.cache.is_none());
        assert_eq!(out.stats.decoded_hit_fraction(), 0.0);
    }

    #[test]
    fn shared_cache_reads_fewer_pages_across_workers() {
        // Four workers over one shared cache: a page faulted by one worker
        // is a hit for the rest, so total misses must undercut four
        // private pools replaying the same trace.
        let (disk, idx, _) = fixture(6000, 24);
        let trace = generate_trace(&QueryTraceSpec::uniform(400, 25));
        let cfg = ServeConfig::default().with_threads(4).with_batch(16);
        let shared_engine = TransformersEngine::new(&idx, &disk).with_shared_cache(1024, 8);
        let shared = serve_trace(&shared_engine, &trace, &cfg);
        let private = serve_trace(&TransformersEngine::new(&idx, &disk), &trace, &cfg);
        assert_eq!(shared.results, private.results);
        assert!(
            shared.stats.pool_misses < private.stats.pool_misses,
            "shared {} must read fewer pages than private {}",
            shared.stats.pool_misses,
            private.stats.pool_misses
        );
        assert!(shared.stats.pool_hit_fraction() > private.stats.pool_hit_fraction());
    }

    #[test]
    fn readahead_preserves_results_and_reports_prefetch_counters() {
        let (disk, idx, elems) = fixture(6000, 30);
        let trace = generate_trace(&QueryTraceSpec::uniform(400, 31));
        let expected = reference(&elems, &trace);
        // A cache far smaller than the index's page set: prefetched pages
        // can't all be resident already, so the pipeline always lands some.
        let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(48, 4);
        assert!(engine.supports_prefetch());
        for (threads, io_depth, readahead) in [(2, 1, 64), (2, 4, 256), (4, 2, 128)] {
            engine.reset_cache();
            let cfg = ServeConfig::default()
                .with_threads(threads)
                .with_batch(32)
                .with_io_depth(io_depth)
                .with_readahead(readahead);
            let out = serve_trace(&engine, &trace, &cfg);
            assert_eq!(
                out.results, expected,
                "threads = {threads}, io_depth = {io_depth}, readahead = {readahead}"
            );
            // The I/O threads never surface in per-worker stats.
            assert_eq!(out.stats.per_worker_queries.len(), threads);
            let cache = out.stats.cache.expect("shared engine reports cache stats");
            assert!(
                cache.prefetch_issued > 0,
                "prefetch pipeline must have landed pages"
            );
            // Prefetch accounting stays disjoint from the hit/miss pair:
            // every page the workers touched is exactly one of the three.
            assert_eq!(out.stats.pool_hits, cache.hits);
            assert_eq!(out.stats.pool_misses, cache.misses);
            assert!(cache.prefetch_hits <= cache.prefetch_issued);
        }
        // A private-pool engine silently ignores the readahead request.
        let private = TransformersEngine::new(&idx, &disk);
        assert!(!private.supports_prefetch());
        let out = serve_trace(
            &private,
            &trace,
            &ServeConfig::default().with_threads(2).with_readahead(64),
        );
        assert_eq!(out.results, expected);
        assert!(out.stats.cache.is_none());
    }

    #[test]
    fn auto_batch_matches_fixed_batch_results_exactly() {
        let (disk, idx, elems) = fixture(6000, 32);
        let trace = generate_trace(&QueryTraceSpec::uniform(600, 33));
        let expected = reference(&elems, &trace);
        // Small cache + small base batch so the feedback loop has signals
        // to react to and windows to react in.
        let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(64, 4);
        for threads in [2, 4] {
            for policy in [
                tfm_storage::CachePolicy::Clock,
                tfm_storage::CachePolicy::TwoQ,
            ] {
                let engine =
                    TransformersEngine::new(&idx, &disk).with_shared_cache_policy(64, 4, policy);
                let cfg = ServeConfig::default()
                    .with_threads(threads)
                    .with_batch(16)
                    .with_auto_batch();
                let out = serve_trace(&engine, &trace, &cfg);
                assert_eq!(out.results, expected, "threads={threads} policy={policy}");
                let ab = out
                    .stats
                    .autobatch
                    .expect("queued auto run reports a summary");
                assert!(ab.retunes > 0, "600 queries at base 16 must cross a window");
                assert!(ab.final_batch >= 16 && ab.final_batch <= 64);
                assert!(ab.grows + ab.shrinks <= ab.retunes);
                assert_eq!(
                    out.stats.per_worker_queries.iter().sum::<u64>(),
                    trace.len() as u64
                );
            }
        }
        // The inline path ignores the flag and reports no summary.
        let out = serve_trace(&engine, &trace, &ServeConfig::default().with_auto_batch());
        assert_eq!(out.results, expected);
        assert!(out.stats.autobatch.is_none());
    }

    #[test]
    fn auto_batch_composes_with_readahead() {
        let (disk, idx, elems) = fixture(4000, 34);
        let trace = generate_trace(&QueryTraceSpec::uniform(400, 35));
        let expected = reference(&elems, &trace);
        let engine = TransformersEngine::new(&idx, &disk).with_shared_cache(48, 4);
        let cfg = ServeConfig::default()
            .with_threads(4)
            .with_batch(16)
            .with_io_depth(2)
            .with_readahead(128)
            .with_auto_batch();
        let out = serve_trace(&engine, &trace, &cfg);
        assert_eq!(out.results, expected);
        let cache = out.stats.cache.expect("shared engine reports cache stats");
        assert!(cache.prefetch_issued > 0);
        assert!(out.stats.autobatch.is_some());
    }

    #[test]
    fn empty_trace_and_empty_index() {
        let (disk, idx, _) = fixture(500, 18);
        let engine = TransformersEngine::new(&idx, &disk);
        let out = serve_trace(&engine, &[], &ServeConfig::default().with_threads(4));
        assert!(out.results.is_empty());
        assert_eq!(out.stats.queries, 0);

        let empty_disk = Disk::in_memory(2048);
        let empty = TransformersIndex::build(&empty_disk, vec![], &IndexConfig::default());
        let trace = generate_trace(&QueryTraceSpec::uniform(50, 19));
        for engine in [
            Box::new(TransformersEngine::new(&empty, &empty_disk)) as Box<dyn QueryEngine>,
            Box::new(GipsyEngine::new(&empty, &empty_disk)),
        ] {
            let out = serve_trace(engine.as_ref(), &trace, &ServeConfig::default());
            assert!(out.results.iter().all(Vec::is_empty), "{}", engine.label());
        }
    }

    #[test]
    fn mutable_engine_matches_rebuilt_index_across_workers() {
        use tfm_storage::{NoopLog, SharedPageCache};
        use transformers::{MutableTransformers, MutationOp};

        let (disk, idx, elems) = fixture(2500, 40);
        let cache = SharedPageCache::new(&disk, 4096);
        let overlay = MutableTransformers::adopt(&idx, &disk);
        let log = NoopLog::new();

        // Mutate: delete every 5th element, insert a fresh batch.
        let mut ops: Vec<MutationOp> = elems
            .iter()
            .filter(|e| e.id % 5 == 0)
            .map(|e| MutationOp::Delete(e.id))
            .collect();
        let fresh = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(400, 41)
        });
        let base = 1 + elems.iter().map(|e| e.id).max().unwrap_or(0);
        let mut mutated: Vec<tfm_geom::SpatialElement> =
            elems.iter().filter(|e| e.id % 5 != 0).cloned().collect();
        for mut e in fresh {
            e.id += base;
            ops.push(MutationOp::Insert(e));
            mutated.push(e);
        }
        let out = overlay.apply_batch(&log, &cache, &ops);
        assert_eq!(out.rejected_inserts, 0);
        assert_eq!(out.missing_deletes, 0);

        // The acceptance property: serve results over the mutated overlay
        // are byte-identical to an index rebuilt from scratch on the
        // mutated dataset, at every worker count.
        let trace = generate_trace(&QueryTraceSpec::uniform(240, 42));
        let expected = reference(&mutated, &trace);
        let engine = MutableTransformersEngine::new(&overlay, &cache);
        assert_eq!(engine.label(), "TRANSFORMERS-MUT");
        for threads in [1, 2, 4, 8] {
            let cfg = ServeConfig::default().with_threads(threads).with_batch(32);
            let got = serve_trace(&engine, &trace, &cfg);
            assert_eq!(got.results, expected, "threads = {threads}");
            let cache_stats = got.stats.cache.expect("mutable engine shares a cache");
            assert!(cache_stats.hits + cache_stats.misses > 0);
        }

        let rebuilt_disk = Disk::in_memory(2048);
        let rebuilt =
            TransformersIndex::build(&rebuilt_disk, mutated.clone(), &IndexConfig::default());
        let static_engine = TransformersEngine::new(&rebuilt, &rebuilt_disk);
        let got = serve_trace(&static_engine, &trace, &ServeConfig::default());
        assert_eq!(got.results, expected);
    }

    #[test]
    fn mutable_engine_serves_consistent_snapshots_during_writes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use tfm_storage::{NoopLog, SharedPageCache};
        use transformers::{MutableTransformers, MutationOp};

        let (disk, idx, elems) = fixture(1500, 44);
        let cache = SharedPageCache::new(&disk, 4096);
        let overlay = MutableTransformers::adopt(&idx, &disk);
        let log = NoopLog::new();
        let trace = generate_trace(&QueryTraceSpec::uniform(120, 45));
        let engine = MutableTransformersEngine::new(&overlay, &cache);
        let base = 1 + elems.iter().map(|e| e.id).max().unwrap_or(0);
        let done = AtomicBool::new(false);

        // Writers apply insert batches while serve runs keep querying the
        // latest published snapshot. Every result must be internally
        // consistent: sorted, duplicate-free, and only ids that exist in
        // the original dataset or were inserted by a committed batch.
        std::thread::scope(|s| {
            s.spawn(|| {
                let fresh = generate(&DatasetSpec {
                    max_side: 6.0,
                    ..DatasetSpec::uniform(600, 46)
                });
                for chunk in fresh.chunks(60) {
                    let ops: Vec<MutationOp> = chunk
                        .iter()
                        .map(|e| {
                            let mut e = *e;
                            e.id += base;
                            MutationOp::Insert(e)
                        })
                        .collect();
                    overlay.apply_batch(&log, &cache, &ops);
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                let out = serve_trace(&engine, &trace, &ServeConfig::default().with_threads(2));
                for ids in &out.results {
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
                }
            }
        });

        // Quiesced: results equal the full mutated reference.
        let fresh = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(600, 46)
        });
        let mut mutated = elems.clone();
        mutated.extend(fresh.into_iter().map(|mut e| {
            e.id += base;
            e
        }));
        let out = serve_trace(&engine, &trace, &ServeConfig::default().with_threads(4));
        assert_eq!(out.results, reference(&mutated, &trace));
    }

    #[test]
    fn every_worker_drains_while_the_caller_feeds() {
        // A slow engine: private pools far smaller than the index and a
        // disk that sleeps on every read, so both workers stay busy for
        // the whole trace. The caller feeds; neither worker is blocked in
        // `push`, so each one executes far more than the queue can hold
        // after the last batch is admitted.
        let disk = Disk::in_memory(2048);
        let elems = generate(&DatasetSpec {
            max_side: 6.0,
            ..DatasetSpec::uniform(3000, 50)
        });
        let idx = TransformersIndex::build(&disk, elems.clone(), &IndexConfig::default());
        let disk = disk.with_read_latency(0.02);
        let trace = generate_trace(&QueryTraceSpec::uniform(240, 51));
        let engine = TransformersEngine::new(&idx, &disk);
        let cfg = ServeConfig {
            threads: 2,
            batch: 4,
            queue_batches: 2,
            pool_pages: 8,
            ..ServeConfig::default()
        };
        let out = serve_trace(&engine, &trace, &cfg);
        assert_eq!(out.results, reference(&elems, &trace));
        let backlog = (cfg.queue_batches * cfg.batch) as u64;
        for (w, &q) in out.stats.per_worker_queries.iter().enumerate() {
            assert!(
                q > backlog,
                "worker {w} executed {q} queries, no more than one queue backlog \
                 ({backlog}): {:?}",
                out.stats.per_worker_queries
            );
        }
    }

    #[test]
    fn config_clamps_degenerate_values() {
        let (disk, idx, elems) = fixture(800, 20);
        let trace = generate_trace(&QueryTraceSpec::uniform(30, 21));
        let engine = TransformersEngine::new(&idx, &disk);
        let cfg = ServeConfig {
            threads: 0,
            batch: 0,
            queue_batches: 0,
            pool_pages: 0,
            ..ServeConfig::default()
        };
        let out = serve_trace(&engine, &trace, &cfg);
        assert_eq!(out.results, reference(&elems, &trace));
        assert_eq!(out.stats.threads, 1);
        assert_eq!(out.stats.max_batch, 1);
        assert_eq!(out.stats.batches, 30);
    }
}
