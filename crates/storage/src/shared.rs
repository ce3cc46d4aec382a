//! The process-wide, sharded, pinned-frame page cache.
//!
//! Every access path in the reproduction — the TRANSFORMERS join, the
//! GIPSY walk+crawl, the R-tree/B+-tree baselines and the serving layer —
//! bottoms out in page reads against an immutable [`Disk`]. Before this
//! module each worker owned a *private* [`crate::BufferPool`], so a hot
//! page was duplicated in N worker caches, re-read from the disk by every
//! worker that touched it, and re-decoded on every visit. The
//! [`SharedPageCache`] replaces those N private pools with **one**
//! process-wide cache:
//!
//! * **Sharded / lock-striped** — the page-id space is striped over
//!   independently locked shards (consecutive pages land on different
//!   shards), so concurrent readers rarely contend; contention that does
//!   happen is counted ([`CacheStats::lock_contended`]).
//! * **CLOCK eviction per shard** — the same second-chance ring as the
//!   private pool ([`crate::clock`]), with pinned frames skipped.
//! * **Zero-copy pin guards** — [`SharedPageCache::read`] hands out a
//!   [`PageRef`] that borrows the cached bytes (`Deref<Target = [u8]>`)
//!   by bumping the frame's `Arc`; no bytes are copied and no `Vec` is
//!   allocated per read. A pinned frame cannot be recycled: eviction
//!   checks the `Arc` count under the shard lock, so a live guard always
//!   observes the page it pinned.
//! * **Recycled miss buffers** — a miss evicts an unpinned victim and
//!   reads the new page *into the victim's buffer*; at steady state a
//!   miss allocates nothing.
//! * **Decoded second tier** — element pages are usually consumed through
//!   [`crate::ElementPageCodec::decode`]; the cache keeps the decoded
//!   `Arc<[SpatialElement]>` alongside the frame
//!   ([`SharedPageCache::read_decoded`]), so repeated probes of a hot page
//!   skip the decode entirely. Decoded entries live and die with their
//!   frame.
//!
//! Reads take `&self`; the cache is `Sync` and is meant to be shared by
//! reference across worker threads (see `transformers::UnitReader` and
//! the serve engines). Results are unaffected by caching — decode is pure
//! and the disk is immutable during joins/serves — so join and serve
//! outputs stay byte-identical to the private-pool ablation at any worker
//! count; only the I/O counters improve.
//!
//! Miss fills and decodes run **under the shard lock**. That serializes
//! co-shard misses, but it also guarantees each page is read and decoded
//! at most once per residency (no thundering-herd duplicate I/O) and
//! keeps the pin check race-free; against the in-memory store a fill is a
//! `memcpy`, so the hold time is small and the `lock_contended` counter
//! makes the cost observable. For the real-file backend the prefetch path
//! below is the escape hatch: [`SharedPageCache::prefetch_page`] performs
//! the disk read **outside** the shard lock into a caller-owned scratch
//! buffer, then lands the bytes into a recycled victim frame under the
//! lock — dedicated I/O threads overlap their device latencies while the
//! worker miss path keeps its serialize-per-shard simplicity.
//!
//! Prefetched frames are marked until first use. The marks drive the
//! `io.prefetch.*` counters ([`CacheStats::prefetch_issued`],
//! [`CacheStats::prefetch_hits`], [`CacheStats::prefetch_unused`]), which
//! are **disjoint** from the hit/miss pair: a read served by a frame the
//! prefetcher landed counts as neither a hit nor a miss, so readahead can
//! never inflate a hit-fraction gate.

use crate::twoq::{AdmitClass, PolicyRing};
use crate::{CachePolicy, Disk, ElementPageCodec, PageId};
use parking_lot::Mutex;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tfm_geom::SpatialElement;

/// Default shard count for caches shared by a handful of workers.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// One frame of a shard: the pinned page bytes plus the decoded tier.
struct SharedFrame {
    /// Page bytes; `Arc` strong count > 1 means the frame is pinned by at
    /// least one live [`PageRef`] and must not be recycled.
    buf: Arc<Vec<u8>>,
    /// Decoded element records, populated lazily by `read_decoded`.
    decoded: Option<Arc<[SpatialElement]>>,
    /// True from a prefetch landing until the first demand read; drives
    /// the `io.prefetch.*` accounting.
    prefetched: bool,
    /// True while the frame holds bytes newer than the disk image. Dirty
    /// frames are never evicted (the ring grows instead) and only reach
    /// the store through [`SharedPageCache::flush_dirty`].
    dirty: bool,
    /// LSN of the WAL record that logged the frame's current bytes; the
    /// flush gate compares it against the log's durable LSN so no page
    /// reaches the store before its redo record is on stable storage.
    page_lsn: u64,
}

impl SharedFrame {
    /// Decodes the page bytes straight into the shared slice (one
    /// allocation, no intermediate `Vec`) and keeps it as the decoded tier.
    fn decode(&mut self, codec: &ElementPageCodec) -> Arc<[SpatialElement]> {
        let decoded: Arc<[SpatialElement]> = codec.records(&self.buf).collect();
        self.decoded = Some(Arc::clone(&decoded));
        decoded
    }
}

/// Per-shard counters (kept inside the shard lock; aggregated on demand).
#[derive(Default)]
struct ShardCounters {
    hits: u64,
    misses: u64,
    decoded_hits: u64,
    decoded_misses: u64,
    evictions: u64,
    recycled_frames: u64,
    fresh_allocs: u64,
    prefetch_issued: u64,
    prefetch_hits: u64,
    prefetch_unused: u64,
    dirty_installs: u64,
    flushed_pages: u64,
}

struct ShardInner {
    ring: PolicyRing<SharedFrame>,
    counters: ShardCounters,
}

struct Shard {
    inner: Mutex<ShardInner>,
    /// Lock acquisitions / acquisitions that found the lock held — the
    /// shard-contention signal reported in [`CacheStats`].
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

impl Shard {
    fn lock(&self) -> std::sync::MutexGuard<'_, ShardInner> {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.inner.try_lock() {
            return g;
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.inner.lock()
    }
}

/// A zero-copy pin guard over one cached page.
///
/// Holding a `PageRef` pins the frame: the shard's CLOCK sweep skips
/// pinned frames, so the bytes seen through the guard are immutable and
/// always belong to the page that was read — even if the frame table has
/// since moved on. Dropping the guard unpins the frame.
#[derive(Debug, Clone)]
pub struct PageRef {
    buf: Arc<Vec<u8>>,
}

impl Deref for PageRef {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Which tier answered a [`SharedPageCache::read_tracked`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The page tier had the frame (a demand read put it there).
    Hit,
    /// The frame was landed by the prefetcher and this is its first
    /// demand read — counted as `io.prefetch.hits`, **not** as a cache
    /// hit, so readahead cannot inflate hit fractions.
    PrefetchHit,
    /// The page was read from disk on demand.
    Miss,
}

/// Which tier answered a [`SharedPageCache::read_decoded_tracked`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedOutcome {
    /// The decoded tier had the elements: no page read, no decode.
    Decoded,
    /// The page bytes were cached but had to be decoded.
    Page,
    /// The page bytes were landed by the prefetcher (first demand read of
    /// the frame); the decode still ran. Counted like
    /// [`ReadOutcome::PrefetchHit`] on the page tier.
    PrefetchedPage,
    /// Full miss: the page was read from disk and decoded.
    Miss,
}

/// Aggregated counters of a [`SharedPageCache`] (or the delta between two
/// snapshots of one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Page-tier hits (bytes served from a resident frame).
    pub hits: u64,
    /// Page-tier misses (disk page reads).
    pub misses: u64,
    /// Decoded-tier hits (decode skipped entirely).
    pub decoded_hits: u64,
    /// Decoded-tier misses (a decode ran).
    pub decoded_misses: u64,
    /// Frames whose page was evicted to make room.
    pub evictions: u64,
    /// Misses served by recycling an evicted frame's buffer in place.
    pub recycled_frames: u64,
    /// Misses that had to allocate a fresh frame buffer (pool still
    /// filling, or every victim candidate was pinned).
    pub fresh_allocs: u64,
    /// Pages the prefetch pipeline read and landed into frames.
    pub prefetch_issued: u64,
    /// Demand reads served by a still-marked prefetched frame (disjoint
    /// from `hits`/`misses`, so readahead cannot inflate hit fractions).
    pub prefetch_hits: u64,
    /// Prefetched frames evicted before any demand read used them —
    /// wasted readahead.
    pub prefetch_unused: u64,
    /// Writes installed into the dirty tier (cache writes not yet on disk
    /// at the time of the write).
    pub dirty_installs: u64,
    /// Dirty frames written back to the store by `flush_dirty`.
    pub flushed_pages: u64,
    /// Shard-lock acquisitions.
    pub lock_acquisitions: u64,
    /// Acquisitions that found the shard lock already held — the
    /// lock-striping contention signal.
    pub lock_contended: u64,
    /// Demand misses the 2Q ghost queue admitted straight to the
    /// protected tier (zero under [`CachePolicy::Clock`]).
    pub twoq_ghost_promotions: u64,
    /// Probationary frames the 2Q policy promoted on a second demand
    /// access while resident.
    pub twoq_reuse_promotions: u64,
    /// Fills the 2Q policy classified as scan traffic (prefetch landings;
    /// always probationary).
    pub twoq_scan_admissions: u64,
    /// 2Q evictions taken from the probationary tier.
    pub twoq_probation_evictions: u64,
    /// 2Q evictions taken from the protected tier.
    pub twoq_protected_evictions: u64,
    /// Replacement policy of the cache (configuration, not a counter).
    pub policy: CachePolicy,
    /// Shard count of the cache (configuration, not a counter).
    pub shards: usize,
    /// Total frame capacity in pages (configuration, not a counter).
    pub capacity: usize,
}

impl CacheStats {
    /// Page-tier hit fraction in `0.0..=1.0` (0 when idle).
    pub fn hit_fraction(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Decoded-tier hit fraction in `0.0..=1.0` (0 when idle).
    pub fn decoded_hit_fraction(&self) -> f64 {
        let total = self.decoded_hits + self.decoded_misses;
        if total == 0 {
            return 0.0;
        }
        self.decoded_hits as f64 / total as f64
    }

    /// Fraction of shard-lock acquisitions that found the lock held.
    pub fn contention_fraction(&self) -> f64 {
        if self.lock_acquisitions == 0 {
            return 0.0;
        }
        self.lock_contended as f64 / self.lock_acquisitions as f64
    }

    /// Publishes the shared-cache-only counters into `reg` under the
    /// `cache.*` naming scheme (see `tfm_obs::names`).
    ///
    /// Deliberately excludes `hits`/`misses`: those are owned by the
    /// handle-local pool counters and published once by the run-level
    /// reporter (join or serve), so page-tier traffic never double-counts
    /// when both a handle delta and a shared-cache snapshot are in hand.
    pub fn publish_shared_extras(&self, reg: &tfm_obs::MetricsRegistry) {
        use tfm_obs::names;
        reg.counter(names::CACHE_DECODED_HITS)
            .add(self.decoded_hits);
        reg.counter(names::CACHE_DECODED_MISSES)
            .add(self.decoded_misses);
        reg.counter(names::CACHE_EVICTIONS).add(self.evictions);
        reg.counter(names::CACHE_RECYCLED_FRAMES)
            .add(self.recycled_frames);
        reg.counter(names::CACHE_FRESH_ALLOCS)
            .add(self.fresh_allocs);
        reg.counter(names::CACHE_LOCK_ACQUISITIONS)
            .add(self.lock_acquisitions);
        reg.counter(names::CACHE_LOCK_CONTENDED)
            .add(self.lock_contended);
        reg.counter(names::IO_PREFETCH_ISSUED)
            .add(self.prefetch_issued);
        reg.counter(names::IO_PREFETCH_HITS).add(self.prefetch_hits);
        reg.counter(names::IO_PREFETCH_UNUSED)
            .add(self.prefetch_unused);
        reg.counter(names::CACHE_DIRTY_INSTALLS)
            .add(self.dirty_installs);
        reg.counter(names::CACHE_FLUSHED_PAGES)
            .add(self.flushed_pages);
        // The 2Q admission counters only exist when the policy is active,
        // so a CLOCK run's metrics dump carries no dead `cache.2q.*` rows.
        if self.policy == CachePolicy::TwoQ {
            reg.counter(names::CACHE_2Q_GHOST_PROMOTIONS)
                .add(self.twoq_ghost_promotions);
            reg.counter(names::CACHE_2Q_REUSE_PROMOTIONS)
                .add(self.twoq_reuse_promotions);
            reg.counter(names::CACHE_2Q_SCAN_ADMISSIONS)
                .add(self.twoq_scan_admissions);
            reg.counter(names::CACHE_2Q_PROBATION_EVICTIONS)
                .add(self.twoq_probation_evictions);
            reg.counter(names::CACHE_2Q_PROTECTED_EVICTIONS)
                .add(self.twoq_protected_evictions);
        }
    }

    /// Counter-wise difference `self - earlier` (configuration fields are
    /// carried over); use to measure one phase of a longer run.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            decoded_hits: self.decoded_hits - earlier.decoded_hits,
            decoded_misses: self.decoded_misses - earlier.decoded_misses,
            evictions: self.evictions - earlier.evictions,
            recycled_frames: self.recycled_frames - earlier.recycled_frames,
            fresh_allocs: self.fresh_allocs - earlier.fresh_allocs,
            prefetch_issued: self.prefetch_issued - earlier.prefetch_issued,
            prefetch_hits: self.prefetch_hits - earlier.prefetch_hits,
            prefetch_unused: self.prefetch_unused - earlier.prefetch_unused,
            dirty_installs: self.dirty_installs - earlier.dirty_installs,
            flushed_pages: self.flushed_pages - earlier.flushed_pages,
            lock_acquisitions: self.lock_acquisitions - earlier.lock_acquisitions,
            lock_contended: self.lock_contended - earlier.lock_contended,
            twoq_ghost_promotions: self.twoq_ghost_promotions - earlier.twoq_ghost_promotions,
            twoq_reuse_promotions: self.twoq_reuse_promotions - earlier.twoq_reuse_promotions,
            twoq_scan_admissions: self.twoq_scan_admissions - earlier.twoq_scan_admissions,
            twoq_probation_evictions: self.twoq_probation_evictions
                - earlier.twoq_probation_evictions,
            twoq_protected_evictions: self.twoq_protected_evictions
                - earlier.twoq_protected_evictions,
            policy: self.policy,
            shards: self.shards,
            capacity: self.capacity,
        }
    }

    /// Counter-wise sum of two caches' stats (e.g. every shard cache of a
    /// cluster); lock stripes and frame capacity add up, the policy is
    /// `self`'s.
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            decoded_hits: self.decoded_hits + other.decoded_hits,
            decoded_misses: self.decoded_misses + other.decoded_misses,
            evictions: self.evictions + other.evictions,
            recycled_frames: self.recycled_frames + other.recycled_frames,
            fresh_allocs: self.fresh_allocs + other.fresh_allocs,
            prefetch_issued: self.prefetch_issued + other.prefetch_issued,
            prefetch_hits: self.prefetch_hits + other.prefetch_hits,
            prefetch_unused: self.prefetch_unused + other.prefetch_unused,
            dirty_installs: self.dirty_installs + other.dirty_installs,
            flushed_pages: self.flushed_pages + other.flushed_pages,
            lock_acquisitions: self.lock_acquisitions + other.lock_acquisitions,
            lock_contended: self.lock_contended + other.lock_contended,
            twoq_ghost_promotions: self.twoq_ghost_promotions + other.twoq_ghost_promotions,
            twoq_reuse_promotions: self.twoq_reuse_promotions + other.twoq_reuse_promotions,
            twoq_scan_admissions: self.twoq_scan_admissions + other.twoq_scan_admissions,
            twoq_probation_evictions: self.twoq_probation_evictions
                + other.twoq_probation_evictions,
            twoq_protected_evictions: self.twoq_protected_evictions
                + other.twoq_protected_evictions,
            policy: self.policy,
            shards: self.shards + other.shards,
            capacity: self.capacity + other.capacity,
        }
    }
}

/// The process-wide sharded page cache. See the module docs.
pub struct SharedPageCache<'d> {
    disk: &'d Disk,
    shards: Box<[Shard]>,
    capacity: usize,
    policy: CachePolicy,
}

impl<'d> SharedPageCache<'d> {
    /// Creates a cache of `capacity` pages total, striped over `shards`
    /// locks (both clamped to at least 1), replacing frames under
    /// `policy`. Each shard gets an equal slice of the capacity.
    pub fn with_policy(
        disk: &'d Disk,
        capacity: usize,
        shards: usize,
        policy: CachePolicy,
    ) -> Self {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        let per_shard = (capacity / shards).max(1);
        let shards: Box<[Shard]> = (0..shards)
            .map(|_| Shard {
                inner: Mutex::new(ShardInner {
                    ring: PolicyRing::new(policy, per_shard),
                    counters: ShardCounters::default(),
                }),
                acquisitions: AtomicU64::new(0),
                contended: AtomicU64::new(0),
            })
            .collect();
        let capacity = per_shard * shards.len();
        Self {
            disk,
            shards,
            capacity,
            policy,
        }
    }

    /// [`with_policy`](Self::with_policy) under the default CLOCK policy.
    pub fn with_shards(disk: &'d Disk, capacity: usize, shards: usize) -> Self {
        Self::with_policy(disk, capacity, shards, CachePolicy::Clock)
    }

    /// Creates a cache of `capacity` pages with [`DEFAULT_CACHE_SHARDS`].
    pub fn new(disk: &'d Disk, capacity: usize) -> Self {
        Self::with_shards(disk, capacity, DEFAULT_CACHE_SHARDS)
    }

    /// Shard count sized for `threads` concurrent readers: about two
    /// shards per worker, a power of two, at most 64.
    pub fn shards_for_threads(threads: usize) -> usize {
        (threads.max(1) * 2).next_power_of_two().min(64)
    }

    /// The underlying disk.
    pub fn disk(&self) -> &'d Disk {
        self.disk
    }

    /// Total frame capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Replacement policy the cache was built with.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    #[inline]
    fn shard(&self, id: PageId) -> &Shard {
        // Stripe by page id: consecutive pages (the common sequential
        // access pattern) hit different shard locks.
        &self.shards[(id.0 % self.shards.len() as u64) as usize]
    }

    /// Reads a page through the cache, returning a zero-copy pin guard.
    pub fn read(&self, id: PageId) -> PageRef {
        self.read_tracked(id).0
    }

    /// [`read`](Self::read) plus which tier answered — for handles that
    /// keep per-worker counters over a shared cache.
    pub fn read_tracked(&self, id: PageId) -> (PageRef, ReadOutcome) {
        let shard = self.shard(id);
        let mut guard = shard.lock();
        if guard.ring.contains(id.0) {
            let f = guard.ring.get(id.0).expect("resident page");
            let buf = Arc::clone(&f.buf);
            let outcome = if f.prefetched {
                f.prefetched = false;
                ReadOutcome::PrefetchHit
            } else {
                ReadOutcome::Hit
            };
            match outcome {
                ReadOutcome::PrefetchHit => guard.counters.prefetch_hits += 1,
                _ => guard.counters.hits += 1,
            }
            return (PageRef { buf }, outcome);
        }
        guard.counters.misses += 1;
        let f = Self::load_frame(self.disk, &mut guard, id);
        (
            PageRef {
                buf: Arc::clone(&f.buf),
            },
            ReadOutcome::Miss,
        )
    }

    /// Reads and decodes an element page through both tiers, returning the
    /// shared decoded records.
    pub fn read_decoded(&self, codec: &ElementPageCodec, id: PageId) -> Arc<[SpatialElement]> {
        self.read_decoded_tracked(codec, id).0
    }

    /// [`read_decoded`](Self::read_decoded) plus which tier answered.
    pub fn read_decoded_tracked(
        &self,
        codec: &ElementPageCodec,
        id: PageId,
    ) -> (Arc<[SpatialElement]>, DecodedOutcome) {
        let shard = self.shard(id);
        let mut guard = shard.lock();
        if let Some(i) = guard.ring.find(id.0) {
            let was_prefetched = {
                let f = guard.ring.payload_mut(i);
                let was = f.prefetched;
                f.prefetched = false;
                was
            };
            if was_prefetched {
                guard.counters.prefetch_hits += 1;
            } else {
                guard.counters.hits += 1;
            }
            let hit_decoded = guard.ring.payload_mut(i).decoded.as_ref().map(Arc::clone);
            if let Some(decoded) = hit_decoded {
                guard.counters.decoded_hits += 1;
                return (decoded, DecodedOutcome::Decoded);
            }
            guard.counters.decoded_misses += 1;
            let f = guard.ring.payload_mut(i);
            let decoded = f.decode(codec);
            let outcome = if was_prefetched {
                DecodedOutcome::PrefetchedPage
            } else {
                DecodedOutcome::Page
            };
            return (decoded, outcome);
        }
        guard.counters.misses += 1;
        guard.counters.decoded_misses += 1;
        let f = Self::load_frame(self.disk, &mut guard, id);
        (f.decode(codec), DecodedOutcome::Miss)
    }

    /// Miss path: registers `id` in the ring (evicting/recycling under the
    /// shard lock) and fills the frame's buffer from disk.
    fn load_frame<'r>(disk: &Disk, inner: &'r mut ShardInner, id: PageId) -> &'r mut SharedFrame {
        let page_size = disk.page_size();
        let ShardInner { ring, counters } = inner;
        let slot = ring.insert(
            id.0,
            AdmitClass::Demand,
            // A frame is evictable only while no PageRef pins its buffer
            // (clones only happen under this shard's lock, so the count is
            // stable for the duration of the sweep) and its bytes are on
            // disk — evicting a dirty frame would lose the write.
            |f| Arc::strong_count(&f.buf) == 1 && !f.dirty,
            || SharedFrame {
                buf: Arc::new(vec![0u8; page_size]),
                decoded: None,
                prefetched: false,
                dirty: false,
                page_lsn: 0,
            },
        );
        if slot.evicted.is_some() {
            counters.evictions += 1;
            counters.recycled_frames += 1;
            if slot.payload.prefetched {
                counters.prefetch_unused += 1;
            }
        }
        if slot.fresh {
            counters.fresh_allocs += 1;
        }
        let f = slot.payload;
        f.decoded = None;
        f.prefetched = false;
        f.dirty = false;
        f.page_lsn = 0;
        let buf =
            Arc::get_mut(&mut f.buf).expect("unpinned frame buffer is uniquely owned under lock");
        disk.read_page(id, buf);
        f
    }

    /// Reads `id` from disk **outside** the shard lock (into `scratch`,
    /// which is resized to one page and reused across calls) and lands the
    /// bytes into a recycled victim frame, marked as prefetched. A page
    /// already resident — or landed by a racing demand read while the disk
    /// read was in flight — is left untouched.
    ///
    /// This is the I/O-thread entry point of the prefetch pipeline: the
    /// device wait (real or injected) happens off-lock, so `io_depth`
    /// threads overlap their latencies like tagged commands on a device
    /// queue, while demand reads keep their read-once-per-residency
    /// guarantee.
    pub fn prefetch_page(&self, id: PageId, scratch: &mut Vec<u8>) {
        let page_size = self.disk.page_size();
        let shard = self.shard(id);
        if shard.lock().ring.contains(id.0) {
            return;
        }
        scratch.resize(page_size, 0);
        self.disk.read_page(id, scratch);
        let mut guard = shard.lock();
        if guard.ring.contains(id.0) {
            // A demand read landed the page while ours was in flight; its
            // fill wins and our bytes are discarded (identical content —
            // the disk is immutable during serves).
            return;
        }
        let ShardInner { ring, counters } = &mut *guard;
        let slot = ring.insert(
            id.0,
            // A prefetch landing is a scan hint: under 2Q the page goes
            // probationary and never consults or feeds the ghost queue,
            // so readahead streams cannot flush the protected hot set.
            AdmitClass::Scan,
            |f| Arc::strong_count(&f.buf) == 1 && !f.dirty,
            || SharedFrame {
                buf: Arc::new(vec![0u8; page_size]),
                decoded: None,
                prefetched: false,
                dirty: false,
                page_lsn: 0,
            },
        );
        if slot.evicted.is_some() {
            counters.evictions += 1;
            counters.recycled_frames += 1;
            if slot.payload.prefetched {
                counters.prefetch_unused += 1;
            }
        }
        if slot.fresh {
            counters.fresh_allocs += 1;
        }
        let f = slot.payload;
        f.decoded = None;
        f.prefetched = true;
        f.dirty = false;
        f.page_lsn = 0;
        Arc::get_mut(&mut f.buf)
            .expect("unpinned frame buffer is uniquely owned under lock")
            .copy_from_slice(scratch);
        counters.prefetch_issued += 1;
    }

    /// Installs new bytes for page `id` into the cache's dirty tier
    /// without touching the disk. `bytes` must not exceed the page size;
    /// shorter data is zero-padded.
    ///
    /// `lsn` is the WAL record that logged these bytes; the frame stays
    /// dirty (never evicted, never written back) until a
    /// [`flush_dirty`](Self::flush_dirty) call whose durable LSN covers
    /// it. Writers using no log pass `lsn = 0`, which every flush covers.
    ///
    /// Concurrent readers are never torn: a pinned frame's buffer is not
    /// mutated in place — the frame's `Arc` is *replaced*, so live
    /// [`PageRef`]s keep the complete pre-write snapshot while new reads
    /// see the complete new bytes.
    pub fn write_page(&self, id: PageId, bytes: &[u8], lsn: u64) {
        let page_size = self.disk.page_size();
        assert!(
            bytes.len() <= page_size,
            "write of {} bytes exceeds page size {}",
            bytes.len(),
            page_size
        );
        let shard = self.shard(id);
        let mut guard = shard.lock();
        let ShardInner { ring, counters } = &mut *guard;
        let f = match ring.get(id.0) {
            Some(f) => f,
            None => {
                // Not resident: install a fresh dirty frame. No disk read —
                // the caller provides the full new page image.
                let slot = ring.insert(
                    id.0,
                    AdmitClass::Demand,
                    |f| Arc::strong_count(&f.buf) == 1 && !f.dirty,
                    || SharedFrame {
                        buf: Arc::new(vec![0u8; page_size]),
                        decoded: None,
                        prefetched: false,
                        dirty: false,
                        page_lsn: 0,
                    },
                );
                if slot.evicted.is_some() {
                    counters.evictions += 1;
                    counters.recycled_frames += 1;
                    if slot.payload.prefetched {
                        counters.prefetch_unused += 1;
                    }
                }
                if slot.fresh {
                    counters.fresh_allocs += 1;
                }
                slot.payload
            }
        };
        match Arc::get_mut(&mut f.buf) {
            Some(buf) => {
                buf[..bytes.len()].copy_from_slice(bytes);
                buf[bytes.len()..].fill(0);
            }
            None => {
                // Pinned by live readers: replace the Arc so their
                // snapshot stays intact.
                let mut fresh = vec![0u8; page_size];
                fresh[..bytes.len()].copy_from_slice(bytes);
                f.buf = Arc::new(fresh);
            }
        }
        f.decoded = None;
        f.prefetched = false;
        f.dirty = true;
        f.page_lsn = lsn;
        counters.dirty_installs += 1;
    }

    /// Writes back every dirty frame whose `page_lsn` is at most
    /// `durable_lsn` (the WAL-before-data gate) and marks it clean,
    /// stopping early once `max_pages` frames were flushed. Returns
    /// `(flushed, retained)`: retained frames are dirty pages the gate or
    /// the page budget kept in memory.
    ///
    /// Callers must only flush state whose transactions have committed
    /// (the cache has no undo path — this is a redo-only, no-steal
    /// design); the mutable index layers flush at batch boundaries.
    pub fn flush_dirty_up_to(&self, durable_lsn: u64, max_pages: usize) -> (usize, usize) {
        let mut flushed = 0usize;
        let mut retained = 0usize;
        for shard in self.shards.iter() {
            let mut guard = shard.inner.lock();
            let ShardInner { ring, counters } = &mut *guard;
            for (page, f) in ring.iter_mut() {
                if !f.dirty {
                    continue;
                }
                if f.page_lsn > durable_lsn || flushed >= max_pages {
                    retained += 1;
                    continue;
                }
                self.disk.write_page(PageId(page), &f.buf);
                f.dirty = false;
                counters.flushed_pages += 1;
                flushed += 1;
            }
        }
        (flushed, retained)
    }

    /// [`flush_dirty_up_to`](Self::flush_dirty_up_to) with no page budget.
    pub fn flush_dirty(&self, durable_lsn: u64) -> (usize, usize) {
        self.flush_dirty_up_to(durable_lsn, usize::MAX)
    }

    /// Number of dirty (unflushed) frames currently resident.
    pub fn dirty_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let mut guard = s.inner.lock();
                guard.ring.iter_mut().filter(|(_, f)| f.dirty).count()
            })
            .sum()
    }

    /// Aggregates all shard counters into one snapshot.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats {
            shards: self.shards.len(),
            capacity: self.capacity,
            policy: self.policy,
            ..CacheStats::default()
        };
        for shard in self.shards.iter() {
            s.lock_acquisitions += shard.acquisitions.load(Ordering::Relaxed);
            s.lock_contended += shard.contended.load(Ordering::Relaxed);
            let inner = shard.inner.lock();
            let c = &inner.counters;
            s.hits += c.hits;
            s.misses += c.misses;
            s.decoded_hits += c.decoded_hits;
            s.decoded_misses += c.decoded_misses;
            s.evictions += c.evictions;
            s.recycled_frames += c.recycled_frames;
            s.fresh_allocs += c.fresh_allocs;
            s.prefetch_issued += c.prefetch_issued;
            s.prefetch_hits += c.prefetch_hits;
            s.prefetch_unused += c.prefetch_unused;
            s.dirty_installs += c.dirty_installs;
            s.flushed_pages += c.flushed_pages;
            let q = inner.ring.twoq_counters();
            s.twoq_ghost_promotions += q.ghost_promotions;
            s.twoq_reuse_promotions += q.reuse_promotions;
            s.twoq_scan_admissions += q.scan_admissions;
            s.twoq_probation_evictions += q.probation_evictions;
            s.twoq_protected_evictions += q.protected_evictions;
        }
        s
    }

    /// Sweeps every shard for frames the prefetcher landed that no demand
    /// read ever touched, clearing their marks and folding them into
    /// [`CacheStats::prefetch_unused`]. Returns the number reclaimed.
    ///
    /// The eviction path only notices an unused prefetch when the frame is
    /// recycled; pages that stay resident to the end of a run would
    /// otherwise vanish from the accounting. Run-level reporters (the join
    /// path) call this once before snapshotting stats so a mis-sized
    /// readahead window is visible even when the cache never filled.
    pub fn reclaim_unused_prefetch(&self) -> u64 {
        let mut reclaimed = 0u64;
        for shard in self.shards.iter() {
            let mut guard = shard.inner.lock();
            let ShardInner { ring, counters } = &mut *guard;
            for (_, f) in ring.iter_mut() {
                if f.prefetched {
                    f.prefetched = false;
                    counters.prefetch_unused += 1;
                    reclaimed += 1;
                }
            }
        }
        reclaimed
    }

    /// Drops every *clean* cached page and decoded entry (counters keep
    /// running, matching [`crate::BufferPool::clear`]). Dirty frames are
    /// retained — dropping them would lose writes that only exist in the
    /// cache; flush first if a full clear is wanted. Live [`PageRef`]s
    /// stay valid — their buffers are kept alive by the guards themselves.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.inner.lock().ring.retain(|f| f.dirty);
        }
    }

    /// Zeroes all counters (e.g. between comparable measurement phases).
    pub fn reset_stats(&self) {
        for shard in self.shards.iter() {
            shard.acquisitions.store(0, Ordering::Relaxed);
            shard.contended.store(0, Ordering::Relaxed);
            let mut inner = shard.inner.lock();
            inner.counters = ShardCounters::default();
        }
    }
}

impl std::fmt::Debug for SharedPageCache<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPageCache")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("policy", &self.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiskModel;

    fn disk_with_pages(n: u64, page_size: usize) -> Disk {
        let d = Disk::in_memory(page_size).with_model(DiskModel::free());
        let first = d.allocate_contiguous(n);
        for i in 0..n {
            d.write_page(PageId(first.0 + i), &[i as u8]);
        }
        d.reset_stats();
        d
    }

    #[test]
    fn hit_avoids_disk_and_is_zero_copy() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        let a = cache.read(PageId(1));
        let b = cache.read(PageId(1));
        assert_eq!(a[0], 1);
        // Both guards pin the same underlying buffer: zero-copy.
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()));
        assert_eq!(d.stats().reads(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!(s.hit_fraction() > 0.4);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let d = disk_with_pages(16, 32);
        // One shard, two frames: heavy pressure.
        let cache = SharedPageCache::with_shards(&d, 2, 1);
        let pinned = cache.read(PageId(3));
        for i in 0..16u64 {
            let r = cache.read(PageId(i));
            assert_eq!(r[0], i as u8);
        }
        // The pin held throughout: its bytes never changed under it.
        assert_eq!(pinned[0], 3);
        let s = cache.stats();
        assert!(s.evictions > 0, "pressure must evict: {s:?}");
        assert!(s.recycled_frames > 0, "misses must recycle: {s:?}");
    }

    #[test]
    fn steady_state_misses_recycle_not_allocate() {
        let d = disk_with_pages(8, 32);
        let cache = SharedPageCache::with_shards(&d, 2, 1);
        for round in 0..4 {
            for i in 0..8u64 {
                assert_eq!(cache.read(PageId(i))[0], i as u8, "round {round}");
            }
        }
        let s = cache.stats();
        // Two fills for the two frames; every later miss recycled.
        assert_eq!(s.fresh_allocs, 2);
        assert_eq!(s.misses, 32);
        assert_eq!(s.recycled_frames, 30);
    }

    #[test]
    fn decoded_tier_skips_the_codec() {
        use tfm_geom::{Aabb, Point3};
        let codec = ElementPageCodec::new(512);
        let d = Disk::in_memory(512).with_model(DiskModel::free());
        let p = d.allocate();
        let elems = vec![
            SpatialElement::new(
                7,
                Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0)),
            ),
            SpatialElement::new(
                9,
                Aabb::new(Point3::new(2.0, 2.0, 2.0), Point3::new(3.0, 3.0, 3.0)),
            ),
        ];
        d.write_page(p, &codec.encode(&elems));
        d.reset_stats();

        let cache = SharedPageCache::with_shards(&d, 4, 1);
        let (first, o1) = cache.read_decoded_tracked(&codec, p);
        assert_eq!(o1, DecodedOutcome::Miss);
        assert_eq!(first.as_ref(), elems.as_slice());
        let (second, o2) = cache.read_decoded_tracked(&codec, p);
        assert_eq!(o2, DecodedOutcome::Decoded);
        // Same Arc: the decode ran exactly once.
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(d.stats().reads(), 1);
        let s = cache.stats();
        assert_eq!((s.decoded_hits, s.decoded_misses), (1, 1));

        // A byte-level read of the same page hits the page tier.
        let (_, outcome) = cache.read_tracked(p);
        assert_eq!(outcome, ReadOutcome::Hit);
    }

    #[test]
    fn decoded_entries_die_with_their_frame() {
        use tfm_geom::{Aabb, Point3};
        let codec = ElementPageCodec::new(512);
        let d = Disk::in_memory(512).with_model(DiskModel::free());
        let first = d.allocate_contiguous(4);
        for i in 0..4u64 {
            let e = SpatialElement::new(
                i,
                Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0)),
            );
            d.write_page(PageId(first.0 + i), &codec.encode(&[e]));
        }
        let cache = SharedPageCache::with_shards(&d, 1, 1);
        assert_eq!(cache.read_decoded(&codec, PageId(0))[0].id, 0);
        // Evict page 0, then return to it: the decode must run again.
        assert_eq!(cache.read_decoded(&codec, PageId(1))[0].id, 1);
        let (_, outcome) = cache.read_decoded_tracked(&codec, PageId(0));
        assert_eq!(outcome, DecodedOutcome::Miss);
    }

    #[test]
    fn clear_drops_residency_but_guards_stay_valid() {
        let d = disk_with_pages(2, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        let guard = cache.read(PageId(1));
        cache.clear();
        assert_eq!(guard[0], 1, "live guards outlive clear()");
        cache.read(PageId(1));
        assert_eq!(d.stats().reads(), 2, "clear() forces a re-read");
    }

    #[test]
    fn stats_reset_and_delta() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::new(&d, 16);
        cache.read(PageId(0));
        cache.read(PageId(0));
        let before = cache.stats();
        cache.read(PageId(1));
        let delta = cache.stats().delta_since(&before);
        assert_eq!((delta.hits, delta.misses), (0, 1));
        assert_eq!(delta.shards, DEFAULT_CACHE_SHARDS);
        cache.reset_stats();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.lock_acquisitions), (0, 0, 0));
    }

    #[test]
    fn concurrent_readers_agree_with_the_disk() {
        let d = disk_with_pages(64, 32);
        let cache = SharedPageCache::with_shards(&d, 8, 4);
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                s.spawn(move || {
                    for round in 0..4u64 {
                        for i in 0..64u64 {
                            let p = (i * 7 + t + round) % 64;
                            let r = cache.read(PageId(p));
                            assert_eq!(r[0], p as u8);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 4 * 64);
        assert_eq!(s.misses, d.stats().reads());
    }

    #[test]
    fn prefetched_pages_count_as_prefetch_hits_not_cache_hits() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        let mut scratch = Vec::new();
        cache.prefetch_page(PageId(1), &mut scratch);
        assert_eq!(d.stats().reads(), 1, "prefetch reads the disk");
        // First demand read: served by the prefetched frame, no disk read,
        // but neither a hit nor a miss.
        let (r, outcome) = cache.read_tracked(PageId(1));
        assert_eq!(outcome, ReadOutcome::PrefetchHit);
        assert_eq!(r[0], 1);
        assert_eq!(d.stats().reads(), 1);
        // Second demand read is a plain hit: the mark cleared.
        let (_, outcome) = cache.read_tracked(PageId(1));
        assert_eq!(outcome, ReadOutcome::Hit);
        let s = cache.stats();
        assert_eq!(s.prefetch_issued, 1);
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!((s.hits, s.misses), (1, 0), "prefetch stays out of hit/miss");
    }

    #[test]
    fn prefetch_of_resident_page_is_a_no_op() {
        let d = disk_with_pages(2, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 1);
        cache.read(PageId(0));
        let mut scratch = Vec::new();
        cache.prefetch_page(PageId(0), &mut scratch);
        assert_eq!(d.stats().reads(), 1, "resident page is not re-read");
        assert_eq!(cache.stats().prefetch_issued, 0);
        // The frame must not be re-marked: the next read is a plain hit.
        let (_, outcome) = cache.read_tracked(PageId(0));
        assert_eq!(outcome, ReadOutcome::Hit);
    }

    #[test]
    fn evicted_unused_prefetches_are_counted() {
        let d = disk_with_pages(8, 32);
        // One shard, two frames: prefetches evict each other.
        let cache = SharedPageCache::with_shards(&d, 2, 1);
        let mut scratch = Vec::new();
        for i in 0..8u64 {
            cache.prefetch_page(PageId(i), &mut scratch);
        }
        let s = cache.stats();
        assert_eq!(s.prefetch_issued, 8);
        assert_eq!(s.prefetch_unused, 6, "6 of 8 evicted before any use");
        // The two survivors serve their first reads as prefetch hits.
        let (_, o) = cache.read_tracked(PageId(7));
        assert_eq!(o, ReadOutcome::PrefetchHit);
    }

    #[test]
    fn prefetched_element_pages_decode_like_demand_reads() {
        use tfm_geom::{Aabb, Point3};
        let codec = ElementPageCodec::new(512);
        let d = Disk::in_memory(512).with_model(DiskModel::free());
        let p = d.allocate();
        let elems = vec![SpatialElement::new(
            5,
            Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0)),
        )];
        d.write_page(p, &codec.encode(&elems));
        d.reset_stats();
        let cache = SharedPageCache::with_shards(&d, 4, 1);
        let mut scratch = Vec::new();
        cache.prefetch_page(p, &mut scratch);
        let (decoded, outcome) = cache.read_decoded_tracked(&codec, p);
        assert_eq!(outcome, DecodedOutcome::PrefetchedPage);
        assert_eq!(decoded.as_ref(), elems.as_slice());
        assert_eq!(d.stats().reads(), 1, "the prefetch was the only read");
        let s = cache.stats();
        assert_eq!((s.prefetch_hits, s.hits, s.misses), (1, 0, 0));
        // Decoded tier now primed: next decoded read hits it outright.
        let (_, outcome) = cache.read_decoded_tracked(&codec, p);
        assert_eq!(outcome, DecodedOutcome::Decoded);
    }

    #[test]
    fn concurrent_prefetch_and_demand_reads_agree() {
        let d = disk_with_pages(64, 32);
        let cache = SharedPageCache::with_shards(&d, 32, 4);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let cache = &cache;
                s.spawn(move || {
                    let mut scratch = Vec::new();
                    for i in 0..64u64 {
                        cache.prefetch_page(PageId((i + t * 31) % 64), &mut scratch);
                    }
                });
            }
            for _ in 0..2 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..64u64 {
                        assert_eq!(cache.read(PageId(i))[0], i as u8);
                    }
                });
            }
        });
        let s = cache.stats();
        // Every demand read is accounted exactly once across the three
        // disjoint counters.
        assert_eq!(s.hits + s.misses + s.prefetch_hits, 2 * 64);
    }

    #[test]
    fn shards_for_threads_is_sane() {
        assert_eq!(SharedPageCache::shards_for_threads(0), 2);
        assert_eq!(SharedPageCache::shards_for_threads(1), 2);
        assert_eq!(SharedPageCache::shards_for_threads(4), 8);
        assert_eq!(SharedPageCache::shards_for_threads(1000), 64);
    }

    #[test]
    fn cache_writes_are_visible_before_any_flush() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        cache.write_page(PageId(1), &[0xAB; 32], 7);
        assert_eq!(cache.read(PageId(1))[0], 0xAB, "read sees the cache write");
        // The disk still holds the old bytes: nothing was flushed.
        assert_eq!(d.read_page_vec(PageId(1))[0], 1);
        assert_eq!(cache.dirty_pages(), 1);
        let s = cache.stats();
        assert_eq!((s.dirty_installs, s.flushed_pages), (1, 0));
    }

    #[test]
    fn flush_gate_holds_back_frames_past_the_durable_lsn() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        cache.write_page(PageId(0), &[0x11; 32], 5);
        cache.write_page(PageId(1), &[0x22; 32], 9);
        // Only the LSN-5 write may reach the disk at durable LSN 6.
        let (flushed, retained) = cache.flush_dirty(6);
        assert_eq!((flushed, retained), (1, 1));
        assert_eq!(d.read_page_vec(PageId(0))[0], 0x11);
        assert_eq!(
            d.read_page_vec(PageId(1))[0],
            1,
            "gated write stays in cache"
        );
        // Once the log is durable past 9, the second frame flushes too.
        let (flushed, retained) = cache.flush_dirty(9);
        assert_eq!((flushed, retained), (1, 0));
        assert_eq!(d.read_page_vec(PageId(1))[0], 0x22);
        assert_eq!(cache.dirty_pages(), 0);
        assert!(cache.stats().flushed_pages == 2);
    }

    #[test]
    fn dirty_frames_survive_eviction_pressure_and_clear() {
        let d = disk_with_pages(16, 32);
        // One shard, two frames: heavy pressure.
        let cache = SharedPageCache::with_shards(&d, 2, 1);
        cache.write_page(PageId(3), &[0x33; 32], 1);
        for i in 0..16u64 {
            let _ = cache.read(PageId(i));
        }
        // The dirty frame was never evicted: its bytes are still the write.
        assert_eq!(cache.read(PageId(3))[0], 0x33);
        cache.clear();
        assert_eq!(cache.dirty_pages(), 1, "clear() keeps dirty frames");
        assert_eq!(cache.read(PageId(3))[0], 0x33);
        // After a covering flush the frame is clean and clear() drops it.
        cache.flush_dirty(u64::MAX);
        cache.clear();
        assert_eq!(cache.dirty_pages(), 0);
        assert_eq!(d.read_page_vec(PageId(3))[0], 0x33);
    }

    #[test]
    fn pinned_readers_keep_their_snapshot_across_writes() {
        let d = disk_with_pages(4, 32);
        let cache = SharedPageCache::with_shards(&d, 4, 2);
        let before = cache.read(PageId(2));
        assert_eq!(before[0], 2);
        cache.write_page(PageId(2), &[0x77; 32], 3);
        // The pinned guard still sees the complete pre-write page while
        // new readers see the complete new page: no torn reads.
        assert_eq!(before[0], 2);
        assert_eq!(cache.read(PageId(2))[0], 0x77);
    }

    #[test]
    fn write_invalidates_the_decoded_tier() {
        use tfm_geom::{Aabb, Point3};
        let codec = ElementPageCodec::new(512);
        let d = Disk::in_memory(512).with_model(DiskModel::free());
        let p = d.allocate();
        let one = |id| {
            SpatialElement::new(
                id,
                Aabb::new(Point3::new(0.0, 0.0, 0.0), Point3::new(1.0, 1.0, 1.0)),
            )
        };
        d.write_page(p, &codec.encode(&[one(7)]));
        let cache = SharedPageCache::with_shards(&d, 4, 1);
        assert_eq!(cache.read_decoded(&codec, p)[0].id, 7);
        cache.write_page(p, &codec.encode(&[one(8), one(9)]), 1);
        let decoded = cache.read_decoded(&codec, p);
        assert_eq!(decoded.len(), 2, "stale decode was dropped");
        assert_eq!(decoded[0].id, 8);
    }

    fn twoq_cache<'d>(d: &'d Disk, capacity: usize, shards: usize) -> SharedPageCache<'d> {
        SharedPageCache::with_policy(d, capacity, shards, CachePolicy::TwoQ)
    }

    #[test]
    fn twoq_scan_does_not_evict_protected_pages() {
        let d = disk_with_pages(128, 32);
        // One shard, eight frames, scan-resistant policy.
        let cache = twoq_cache(&d, 8, 1);
        // Two demand reads each: pages 0 and 1 earn the protected tier.
        for p in [0u64, 1, 0, 1] {
            cache.read(PageId(p));
        }
        // A prefetch scan four times the cache size churns through.
        let mut scratch = Vec::new();
        for p in 32..64u64 {
            cache.prefetch_page(PageId(p), &mut scratch);
        }
        let before = d.stats().reads();
        assert_eq!(cache.read(PageId(0))[0], 0);
        assert_eq!(cache.read(PageId(1))[0], 1);
        assert_eq!(d.stats().reads(), before, "hot set must survive the scan");
        let s = cache.stats();
        assert_eq!(s.policy, CachePolicy::TwoQ);
        assert_eq!(s.twoq_reuse_promotions, 2);
        assert_eq!(s.twoq_protected_evictions, 0);
        assert_eq!(s.twoq_scan_admissions, 32);
        assert!(s.twoq_probation_evictions > 0, "the scan churned A1in");
    }

    #[test]
    fn twoq_ghost_queue_promotes_refaulted_pages() {
        let d = disk_with_pages(64, 32);
        let cache = twoq_cache(&d, 4, 1);
        // One demand read, then push the page out through the FIFO.
        cache.read(PageId(7));
        for p in 10..14u64 {
            cache.read(PageId(p));
        }
        // The re-fault is remembered by the ghost queue: straight to the
        // protected tier, where a follow-up scan cannot displace it.
        cache.read(PageId(7));
        assert_eq!(cache.stats().twoq_ghost_promotions, 1);
        let mut scratch = Vec::new();
        for p in 32..48u64 {
            cache.prefetch_page(PageId(p), &mut scratch);
        }
        let before = d.stats().reads();
        assert_eq!(cache.read(PageId(7))[0], 7);
        assert_eq!(d.stats().reads(), before);
    }

    #[test]
    fn twoq_pinned_pages_survive_eviction_pressure() {
        let d = disk_with_pages(16, 32);
        // One shard, two frames: heavy pressure (mirrors the CLOCK test).
        let cache = twoq_cache(&d, 2, 1);
        let pinned = cache.read(PageId(3));
        let mut scratch = Vec::new();
        for i in 0..16u64 {
            let r = cache.read(PageId(i));
            assert_eq!(r[0], i as u8);
            cache.prefetch_page(PageId((i + 5) % 16), &mut scratch);
        }
        // The pin held throughout both demand and scan fills.
        assert_eq!(pinned[0], 3);
        let s = cache.stats();
        assert!(s.evictions > 0, "pressure must evict: {s:?}");
    }

    #[test]
    fn twoq_results_match_clock_byte_for_byte() {
        let d = disk_with_pages(32, 32);
        let clock = SharedPageCache::with_shards(&d, 4, 2);
        let twoq = twoq_cache(&d, 4, 2);
        // Any interleaving of reads returns identical bytes under either
        // policy — replacement only changes which reads hit.
        for i in 0..96u64 {
            let p = PageId((i * 13 + i / 7) % 32);
            assert_eq!(clock.read(p)[0], twoq.read(p)[0]);
        }
    }

    #[test]
    fn reclaim_counts_resident_unused_prefetches() {
        let d = disk_with_pages(8, 32);
        let cache = SharedPageCache::with_shards(&d, 8, 2);
        let mut scratch = Vec::new();
        for i in 0..4u64 {
            cache.prefetch_page(PageId(i), &mut scratch);
        }
        // One of the four is consumed; the other three sit resident and
        // would escape the eviction-time accounting.
        let (_, o) = cache.read_tracked(PageId(0));
        assert_eq!(o, ReadOutcome::PrefetchHit);
        assert_eq!(cache.reclaim_unused_prefetch(), 3);
        let s = cache.stats();
        assert_eq!(s.prefetch_unused, 3);
        assert_eq!(s.prefetch_hits, 1);
        // Marks were cleared: a second sweep finds nothing and the pages
        // now read as plain hits.
        assert_eq!(cache.reclaim_unused_prefetch(), 0);
        let (_, o) = cache.read_tracked(PageId(1));
        assert_eq!(o, ReadOutcome::Hit);
    }

    #[test]
    fn flush_page_budget_limits_writeback() {
        let d = disk_with_pages(8, 32);
        let cache = SharedPageCache::with_shards(&d, 8, 2);
        for i in 0..6u64 {
            cache.write_page(PageId(i), &[0x40 + i as u8; 32], 1);
        }
        let (flushed, retained) = cache.flush_dirty_up_to(u64::MAX, 2);
        assert_eq!((flushed, retained), (2, 4));
        assert_eq!(cache.dirty_pages(), 4);
        let (flushed, _) = cache.flush_dirty(u64::MAX);
        assert_eq!(flushed, 4);
        for i in 0..6u64 {
            assert_eq!(d.read_page_vec(PageId(i))[0], 0x40 + i as u8);
        }
    }
}
