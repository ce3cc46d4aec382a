//! The [`QueryEngine`] trait and its three implementations.
//!
//! An engine wraps one *built, immutable* index structure and hands out
//! per-worker [`QuerySession`]s. All mutable state a query needs — the
//! buffer pool, exploration scratch, walk position — lives in the session,
//! so any number of workers can serve queries against one shared engine
//! with no synchronization beyond the (already thread-safe) simulated
//! disk.
//!
//! * [`TransformersEngine`] — serves from the TRANSFORMERS hierarchy: the
//!   in-memory descriptor tables prefilter nodes then units by page MBB,
//!   and only the surviving unit pages are read. This is the structure the
//!   paper builds for the join, reused as a query-serving index.
//! * [`GipsyEngine`] — the GIPSY strategy fixed at element granularity:
//!   each probe directs an adaptive walk to the probe's region (resuming
//!   from the previous probe's position, which is what makes Hilbert
//!   batching help it) and a crawl collects the candidate pages.
//! * [`RtreeEngine`] — the R-tree baseline: a root-to-leaf range descent
//!   per probe, paying the sibling-overlap reads the paper highlights.
//! * [`MutableTransformersEngine`] — the TRANSFORMERS hierarchy under a
//!   [`MutableTransformers`] overlay: sessions query the latest published
//!   snapshot, so serves run concurrently with mutation batches without
//!   ever blocking on the writer.

use tfm_geom::{ElementId, SpatialQuery};
use tfm_rtree::{RTree, RtreeStats};
use tfm_storage::{
    CacheHandle, CachePolicy, CacheStats, Disk, IoStatsSnapshot, PageId, PageReads, SharedPageCache,
};
use transformers::{explore, MutableTransformers, TransformersIndex, UnitReader};

/// Which index structure serves a trace — the one engine vocabulary of
/// the harnesses and of [`crate::ShardSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEngineKind {
    /// The TRANSFORMERS hierarchy behind [`TransformersEngine`] (node/unit
    /// MBB prefilter + page reads).
    Transformers,
    /// The TRANSFORMERS hierarchy crawled GIPSY-style ([`GipsyEngine`]):
    /// per-probe directed walk + crawl at element granularity.
    Gipsy,
    /// An STR-bulk-loaded R-tree behind [`RtreeEngine`].
    Rtree,
}

impl ServeEngineKind {
    /// Short label for tables, matching [`QueryEngine::label`].
    pub fn label(&self) -> &'static str {
        match self {
            ServeEngineKind::Transformers => "TRANSFORMERS",
            ServeEngineKind::Gipsy => "GIPSY",
            ServeEngineKind::Rtree => "R-TREE",
        }
    }

    /// All three engines, for sweep-style comparisons.
    pub fn all() -> [ServeEngineKind; 3] {
        [
            ServeEngineKind::Transformers,
            ServeEngineKind::Gipsy,
            ServeEngineKind::Rtree,
        ]
    }
}

/// A built index structure that can serve spatial queries.
///
/// Engines are shared (`&self`) across workers; each worker obtains a
/// private [`QuerySession`] carrying all per-worker mutable state.
pub trait QueryEngine: Sync {
    /// Approach-style label for reports ("TRANSFORMERS", "GIPSY", …).
    fn label(&self) -> &'static str;

    /// Point-in-time I/O counters of the engine's disk(s); the serve
    /// driver charges the delta to the run.
    fn io_snapshot(&self) -> IoStatsSnapshot;

    /// Creates a per-worker session. In private-pool mode the session
    /// owns a buffer pool of `pool_pages` pages; engines constructed with
    /// a shared cache ignore `pool_pages` and hand out thin views over
    /// the one process-wide cache instead.
    fn session(&self, pool_pages: usize) -> Box<dyn QuerySession + '_>;

    /// Counters of the engine's shared page cache (`None` when the engine
    /// runs the private-pool ablation).
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Drops the shared cache's resident pages and zeroes its counters so
    /// comparable measurement runs start cold (no-op in private mode).
    fn reset_cache(&self) {}

    /// True when the engine can accept readahead: it has a shared cache
    /// to land pages into and a cheap way to compute a schedule.
    fn supports_prefetch(&self) -> bool {
        false
    }

    /// The pages `queries` will touch, deduplicated and in ascending page
    /// order — a readahead schedule. The serve feeder hands each batch's
    /// Hilbert-ordered probes here before admitting the batch, and pushes
    /// the result onto the prefetch queue. Engines without a cheap
    /// in-memory way to compute this return an empty schedule (readahead
    /// stays idle; results are unaffected).
    fn prefetch_schedule(&self, _queries: &[SpatialQuery]) -> Vec<PageId> {
        Vec::new()
    }

    /// Lands one scheduled page into the engine's shared cache (no-op in
    /// private-pool mode). Called from dedicated I/O threads with a
    /// reusable scratch buffer; the disk wait happens outside any cache
    /// lock (see [`SharedPageCache::prefetch_page`]).
    fn prefetch_page(&self, _id: PageId, _scratch: &mut Vec<u8>) {}
}

/// The unit pages `queries` will touch in a TRANSFORMERS-style hierarchy:
/// node-level then unit-level page-MBB prefilter, identical to the
/// per-probe filtering in the sessions, evaluated purely against the
/// in-memory descriptor tables (no page is read). Units are numbered in
/// page order, so sort+dedup yields an ascending sweep — with a
/// Hilbert-ordered batch this is exactly the order the workers will ask
/// for the pages in.
fn unit_pages_for(idx: &TransformersIndex, queries: &[SpatialQuery]) -> Vec<PageId> {
    let units = idx.units();
    let mut pages = Vec::new();
    for query in queries {
        let probe = query.probe();
        for node in idx.nodes() {
            if !node.page_mbb.intersects(&probe) {
                continue;
            }
            for u in node.unit_range() {
                if units[u].page_mbb.intersects(&probe) {
                    pages.push(units[u].page);
                }
            }
        }
    }
    pages.sort_unstable();
    pages.dedup();
    pages
}

/// Per-worker query executor: owns the worker's buffer pool and scratch.
pub trait QuerySession {
    /// Executes one query, returning the matching element ids in
    /// ascending order (deterministic regardless of worker count,
    /// batching, or execution order).
    fn execute(&mut self, query: &SpatialQuery) -> Vec<ElementId>;

    /// `(hits, misses)` of this session's private buffer pool.
    fn pool_counters(&self) -> (u64, u64);
}

/// Serves queries from a [`TransformersIndex`]'s hierarchy.
pub struct TransformersEngine<'a> {
    idx: &'a TransformersIndex,
    disk: &'a Disk,
    cache: Option<SharedPageCache<'a>>,
}

impl<'a> TransformersEngine<'a> {
    /// Wraps a built index and its disk (private-pool sessions; chain
    /// [`with_shared_cache`](Self::with_shared_cache) for the shared
    /// read path).
    pub fn new(idx: &'a TransformersIndex, disk: &'a Disk) -> Self {
        Self {
            idx,
            disk,
            cache: None,
        }
    }

    /// Attaches a process-wide [`SharedPageCache`] of `pages` pages over
    /// `shards` locks: every session becomes a thin view over it
    /// (zero-copy pins + shared decoded element pages).
    pub fn with_shared_cache(self, pages: usize, shards: usize) -> Self {
        self.with_shared_cache_policy(pages, shards, CachePolicy::Clock)
    }

    /// [`with_shared_cache`](Self::with_shared_cache) with an explicit
    /// eviction policy (`--cache-policy`): CLOCK, or the scan-resistant 2Q
    /// admission that keeps readahead traffic probationary.
    pub fn with_shared_cache_policy(
        mut self,
        pages: usize,
        shards: usize,
        policy: CachePolicy,
    ) -> Self {
        self.cache = Some(SharedPageCache::with_policy(
            self.disk, pages, shards, policy,
        ));
        self
    }
}

impl QueryEngine for TransformersEngine<'_> {
    fn label(&self) -> &'static str {
        "TRANSFORMERS"
    }

    fn io_snapshot(&self) -> IoStatsSnapshot {
        self.disk.stats()
    }

    fn session(&self, pool_pages: usize) -> Box<dyn QuerySession + '_> {
        Box::new(TransformersSession {
            idx: self.idx,
            reader: match &self.cache {
                Some(cache) => self.idx.unit_reader_shared(cache),
                None => self.idx.unit_reader(self.disk, pool_pages),
            },
        })
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(SharedPageCache::stats)
    }

    fn reset_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.clear();
            cache.reset_stats();
        }
    }

    fn supports_prefetch(&self) -> bool {
        self.cache.is_some()
    }

    fn prefetch_schedule(&self, queries: &[SpatialQuery]) -> Vec<PageId> {
        unit_pages_for(self.idx, queries)
    }

    fn prefetch_page(&self, id: PageId, scratch: &mut Vec<u8>) {
        if let Some(cache) = &self.cache {
            cache.prefetch_page(id, scratch);
        }
    }
}

struct TransformersSession<'a> {
    idx: &'a TransformersIndex,
    reader: UnitReader<'a, 'a, 'a>,
}

impl QuerySession for TransformersSession<'_> {
    fn execute(&mut self, query: &SpatialQuery) -> Vec<ElementId> {
        let probe = query.probe();
        let mut out = Vec::new();
        let units = self.idx.units();
        // Node-level then unit-level prefilter on the tight page MBBs; a
        // unit whose page MBB misses the probe box cannot hold a match.
        // Units are numbered in page order, so the candidate pages are
        // visited in ascending page order — a spatial sweep, not a seek
        // storm.
        for node in self.idx.nodes() {
            if !node.page_mbb.intersects(&probe) {
                continue;
            }
            for u in node.unit_range() {
                if !units[u].page_mbb.intersects(&probe) {
                    continue;
                }
                // Zero-copy: the shared cache's decoded tier is borrowed
                // directly; private pools decode into the reader scratch.
                let elems = self.reader.elements(units[u].id);
                for e in elems.iter() {
                    if query.matches(&e.mbb) {
                        out.push(e.id);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn pool_counters(&self) -> (u64, u64) {
        (self.reader.hits(), self.reader.misses())
    }
}

/// Serves queries from a [`MutableTransformers`] overlay — the read side
/// of the online write path.
///
/// Unlike the immutable engines this one *shares* its cache with the
/// writer: mutation batches land pages in the cache's dirty tier before
/// any flush, so readers must go through the same [`SharedPageCache`] the
/// writer logs into (a private pool reading the raw disk would miss
/// unflushed state). Every [`QuerySession::execute`] call grabs the
/// overlay's latest published snapshot, so long-lived sessions observe
/// each committed batch without being recreated, and never block on the
/// writer.
pub struct MutableTransformersEngine<'a> {
    overlay: &'a MutableTransformers,
    cache: &'a SharedPageCache<'a>,
}

impl<'a> MutableTransformersEngine<'a> {
    /// Wraps a mutable overlay and the shared cache its writer flushes
    /// through.
    pub fn new(overlay: &'a MutableTransformers, cache: &'a SharedPageCache<'a>) -> Self {
        Self { overlay, cache }
    }
}

impl QueryEngine for MutableTransformersEngine<'_> {
    fn label(&self) -> &'static str {
        "TRANSFORMERS-MUT"
    }

    fn io_snapshot(&self) -> IoStatsSnapshot {
        self.cache.disk().stats()
    }

    fn session(&self, _pool_pages: usize) -> Box<dyn QuerySession + '_> {
        Box::new(MutableTransformersSession {
            overlay: self.overlay,
            handle: CacheHandle::shared(self.cache),
        })
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.cache.stats())
    }

    fn reset_cache(&self) {
        // Dirty frames survive `clear` by design (they are the only copy
        // of committed-but-unflushed state), so resetting between
        // measurement runs never loses writes.
        self.cache.clear();
        self.cache.reset_stats();
    }

    fn supports_prefetch(&self) -> bool {
        true
    }

    // Base unit pages only: overflow chains would need page reads to
    // enumerate, and `prefetch_page` leaves resident (dirty) frames
    // untouched, so the hint stays sound under concurrent writes.
    fn prefetch_schedule(&self, queries: &[SpatialQuery]) -> Vec<PageId> {
        let snap = self.overlay.snapshot();
        let units = snap.units();
        let mut pages = Vec::new();
        for query in queries {
            let probe = query.probe();
            for node in snap.nodes() {
                if !node.page_mbb.intersects(&probe) {
                    continue;
                }
                for ui in node.first_unit..(node.first_unit + node.unit_count) {
                    let u = &units[ui as usize];
                    if u.count > 0 && u.page_mbb.intersects(&probe) {
                        pages.push(u.page);
                    }
                }
            }
        }
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    fn prefetch_page(&self, id: PageId, scratch: &mut Vec<u8>) {
        self.cache.prefetch_page(id, scratch);
    }
}

struct MutableTransformersSession<'a> {
    overlay: &'a MutableTransformers,
    handle: CacheHandle<'a, 'a>,
}

impl QuerySession for MutableTransformersSession<'_> {
    fn execute(&mut self, query: &SpatialQuery) -> Vec<ElementId> {
        self.overlay.snapshot().query(&mut self.handle, query)
    }

    fn pool_counters(&self) -> (u64, u64) {
        let c = self.handle.counters();
        (c.hits, c.misses)
    }
}

/// Serves queries GIPSY-style: per-probe directed walk + crawl at element
/// granularity over a connectivity-indexed dataset.
pub struct GipsyEngine<'a> {
    idx: &'a TransformersIndex,
    disk: &'a Disk,
    walk_patience: usize,
    cache: Option<SharedPageCache<'a>>,
}

impl<'a> GipsyEngine<'a> {
    /// Wraps the (dense-side) connectivity index and its disk.
    pub fn new(idx: &'a TransformersIndex, disk: &'a Disk) -> Self {
        Self {
            idx,
            disk,
            walk_patience: 64,
            cache: None,
        }
    }

    /// Attaches a process-wide [`SharedPageCache`]; see
    /// [`TransformersEngine::with_shared_cache`].
    pub fn with_shared_cache(self, pages: usize, shards: usize) -> Self {
        self.with_shared_cache_policy(pages, shards, CachePolicy::Clock)
    }

    /// [`with_shared_cache`](Self::with_shared_cache) with an explicit
    /// eviction policy; see
    /// [`TransformersEngine::with_shared_cache_policy`].
    pub fn with_shared_cache_policy(
        mut self,
        pages: usize,
        shards: usize,
        policy: CachePolicy,
    ) -> Self {
        self.cache = Some(SharedPageCache::with_policy(
            self.disk, pages, shards, policy,
        ));
        self
    }
}

impl QueryEngine for GipsyEngine<'_> {
    fn label(&self) -> &'static str {
        "GIPSY"
    }

    fn io_snapshot(&self) -> IoStatsSnapshot {
        self.disk.stats()
    }

    fn session(&self, pool_pages: usize) -> Box<dyn QuerySession + '_> {
        Box::new(GipsySession {
            idx: self.idx,
            reader: match &self.cache {
                Some(cache) => self.idx.unit_reader_shared(cache),
                None => self.idx.unit_reader(self.disk, pool_pages),
            },
            scratch: explore::ExploreScratch::default(),
            walk_pos: None,
            walk_patience: self.walk_patience,
        })
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(SharedPageCache::stats)
    }

    fn reset_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.clear();
            cache.reset_stats();
        }
    }

    fn supports_prefetch(&self) -> bool {
        self.cache.is_some()
    }

    // GIPSY's crawl visits a subset of the unit pages the MBB prefilter
    // admits, so the TRANSFORMERS schedule is a sound (over-approximate)
    // readahead hint for it too.
    fn prefetch_schedule(&self, queries: &[SpatialQuery]) -> Vec<PageId> {
        unit_pages_for(self.idx, queries)
    }

    fn prefetch_page(&self, id: PageId, scratch: &mut Vec<u8>) {
        if let Some(cache) = &self.cache {
            cache.prefetch_page(id, scratch);
        }
    }
}

struct GipsySession<'a> {
    idx: &'a TransformersIndex,
    reader: UnitReader<'a, 'a, 'a>,
    scratch: explore::ExploreScratch,
    walk_pos: Option<transformers::NodeId>,
    walk_patience: usize,
}

impl QuerySession for GipsySession<'_> {
    fn execute(&mut self, query: &SpatialQuery) -> Vec<ElementId> {
        let probe = query.probe();
        let mut out = Vec::new();
        if self.idx.is_empty() {
            return out;
        }
        let nodes = self.idx.nodes();
        let units = self.idx.units();
        let reach = self.idx.reach_eps();
        if !self.idx.extent().inflate(reach).intersects(&probe) {
            return out;
        }
        // Walk towards the probe, resuming from the previous probe's
        // position (consecutive Hilbert-ordered probes are spatial
        // neighbours, so the walk is short); a cold session asks the
        // Hilbert B+-tree for a start descriptor.
        let start = match self.walk_pos {
            Some(n) => n,
            // Cold start: the B+-tree descent reads through the session's
            // cache handle, so tree pages share the serving cache.
            None => self
                .idx
                .walk_start_with(self.reader.cache_mut(), &probe.center())
                .expect("non-empty index"),
        };
        let r = explore::adaptive_walk(
            nodes,
            reach,
            &probe,
            start,
            self.walk_patience,
            &mut self.scratch,
        );
        self.walk_pos = Some(r.found.unwrap_or(r.closest));
        let mut md = 0u64;
        let found = r
            .found
            .or_else(|| explore::scan_for_intersection(nodes, reach, &probe, &mut md));
        let Some(nf) = found else { return out };

        let mut crawl = explore::adaptive_crawl(nodes, units, reach, &probe, nf, &mut self.scratch);
        // Elevator order: one probe's candidate pages are read in
        // ascending page order.
        crawl
            .candidates
            .sort_unstable_by_key(|u| units[u.0 as usize].page);
        for cu in crawl.candidates {
            let elems = self.reader.elements(cu);
            for e in elems.iter() {
                if query.matches(&e.mbb) {
                    out.push(e.id);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn pool_counters(&self) -> (u64, u64) {
        (self.reader.hits(), self.reader.misses())
    }
}

/// Serves queries from an STR-bulk-loaded [`RTree`].
pub struct RtreeEngine<'a> {
    tree: &'a RTree,
    disk: &'a Disk,
    cache: Option<SharedPageCache<'a>>,
}

impl<'a> RtreeEngine<'a> {
    /// Wraps a bulk-loaded tree and its disk.
    pub fn new(tree: &'a RTree, disk: &'a Disk) -> Self {
        Self {
            tree,
            disk,
            cache: None,
        }
    }

    /// Attaches a process-wide [`SharedPageCache`]; see
    /// [`TransformersEngine::with_shared_cache`]. (R-tree pages use their
    /// own node layout, so only the byte tier applies — the decoded tier
    /// is specific to element pages.)
    pub fn with_shared_cache(self, pages: usize, shards: usize) -> Self {
        self.with_shared_cache_policy(pages, shards, CachePolicy::Clock)
    }

    /// [`with_shared_cache`](Self::with_shared_cache) with an explicit
    /// eviction policy; see
    /// [`TransformersEngine::with_shared_cache_policy`].
    pub fn with_shared_cache_policy(
        mut self,
        pages: usize,
        shards: usize,
        policy: CachePolicy,
    ) -> Self {
        self.cache = Some(SharedPageCache::with_policy(
            self.disk, pages, shards, policy,
        ));
        self
    }
}

impl QueryEngine for RtreeEngine<'_> {
    fn label(&self) -> &'static str {
        "R-TREE"
    }

    fn io_snapshot(&self) -> IoStatsSnapshot {
        self.disk.stats()
    }

    fn session(&self, pool_pages: usize) -> Box<dyn QuerySession + '_> {
        Box::new(RtreeSession {
            tree: self.tree,
            pool: match &self.cache {
                Some(cache) => CacheHandle::shared(cache),
                None => CacheHandle::private(self.disk, pool_pages),
            },
            stats: RtreeStats::default(),
        })
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(SharedPageCache::stats)
    }

    fn reset_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.clear();
            cache.reset_stats();
        }
    }
}

struct RtreeSession<'a> {
    tree: &'a RTree,
    pool: CacheHandle<'a, 'a>,
    stats: RtreeStats,
}

impl QuerySession for RtreeSession<'_> {
    fn execute(&mut self, query: &SpatialQuery) -> Vec<ElementId> {
        let probe = query.probe();
        let mut out: Vec<ElementId> = self
            .tree
            .range_query_elements(&mut self.pool, &probe, &mut self.stats)
            .into_iter()
            .filter(|e| query.matches(&e.mbb))
            .map(|e| e.id)
            .collect();
        out.sort_unstable();
        out
    }

    fn pool_counters(&self) -> (u64, u64) {
        let c = self.pool.counters();
        (c.hits, c.misses)
    }
}
