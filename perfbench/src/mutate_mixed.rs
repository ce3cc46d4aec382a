//! `mutate-mixed`: the only workload that writes. 200 k uniform base
//! elements adopted by `MutableTransformers`; a mixed trace (20 % writes,
//! 70 % of them inserts) cut into 64-op chunks. Each chunk's writes are
//! one `apply_batch` through a real `tfm_wal::Wal` (default options: group
//! commit, 4 MiB segments, no injected fsync latency); its reads go
//! through `serve_trace` on `MutableTransformersEngine` with 1 worker
//! (the inline path). After the trace, `tfm_wal::recover` replays the log
//! onto a fresh copy of the base image, followed by
//! `MutableTransformers::reopen`.
//!
//! A run repeats that session (same trace, fresh copy of the base image,
//! fresh log) until its time is up, so the log and the recovery time stay
//! bounded and every session is the same work.
//!
//! `ops_per_s` leaves out the time inside `Wal::commit`, which is the
//! fsync wait: the workload is specified for a WAL whose fsync costs
//! almost nothing (tmpfs), while the log here lives in the benchmark's
//! own directory, on whatever disk holds it; on a shared disk the flush
//! latency alone moves a run's replay rate by a fifth.
//! `replay_ops_per_s` (whole replay wall), `commit_p50_us` (whole
//! `apply_batch`) and `wal.commit_us` keep the fsync wait.

use crate::common::*;
use crate::layers::{probe_layers, spread};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tfm_datagen::{
    generate, generate_mixed_trace, queries_of, DatasetSpec, MixedOp, MixedTraceSpec,
};
use tfm_geom::{ElementId, SpatialElement, SpatialQuery};
use tfm_serve::{serve_trace, MutableTransformersEngine, QueryEngine, ServeConfig};
use tfm_storage::{CacheHandle, Disk, PageId, RedoLog, SharedPageCache, DEFAULT_POOL_PAGES};
use tfm_wal::{recover, Wal, WalOptions};
use transformers::{IndexConfig, MutableTransformers, MutationOp, TransformersIndex};

const BASE: usize = 200_000;
/// Set-ups per run; `setup_s` is their median (a set-up takes a fifth of a second).
const SETUPS: usize = 9;
const CHUNK: usize = 64;
/// Chunks per session; every chunk carries writes, so this is also the
/// commits per session.
const CHUNKS_PER_SESSION: usize = 128;
const WRITE_PERMILLE: u32 = 200;
/// Chunks per throughput window: `ops_per_s` is the median window rate,
/// so a burst of device latency moves one window, not the run.
const WINDOW_CHUNKS: usize = 16;
/// Logical size of an inserted element (id + six coordinates) and of a
/// deleted id, the denominator of the WAL amplification.
const ELEMENT_BYTES: u64 = 56;
const ID_BYTES: u64 = 8;
/// Probes checked against the reopened overlay after each recovery.
const RECOVERY_PROBES: usize = 64;
const LAYER_PROBES: usize = 2000;

/// The benchmark's own copy of the live elements: the full-scan oracle.
#[derive(Clone)]
struct Live {
    elems: Vec<SpatialElement>,
    pos: HashMap<ElementId, usize>,
}

impl Live {
    fn new(base: &[SpatialElement]) -> Self {
        Self {
            elems: base.to_vec(),
            pos: base.iter().enumerate().map(|(i, e)| (e.id, i)).collect(),
        }
    }

    fn apply(&mut self, op: &MutationOp) {
        match *op {
            MutationOp::Insert(e) => {
                self.pos.insert(e.id, self.elems.len());
                self.elems.push(e);
            }
            MutationOp::Delete(id) => {
                if let Some(i) = self.pos.remove(&id) {
                    self.elems.swap_remove(i);
                    if let Some(moved) = self.elems.get(i) {
                        self.pos.insert(moved.id, i);
                    }
                }
            }
        }
    }

    fn scan(&self, q: &SpatialQuery) -> Vec<ElementId> {
        let mut ids: Vec<ElementId> = self
            .elems
            .iter()
            .filter(|e| q.matches(&e.mbb))
            .map(|e| e.id)
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// A `RedoLog` around the `Wal` that times every commit, so the replay
/// rate can leave out the commit's fsync wait. In a traced session it
/// also times every `log_page` and records a span around each commit,
/// under the `apply_batch` span that caused it.
struct TimedLog<'a> {
    wal: &'a Wal,
    tracer: Option<&'a Tracer>,
    parent: AtomicU64,
    req: AtomicU64,
    /// Traced sessions only: time in `log_page` and `commit` together.
    log_ns: AtomicU64,
    log_calls: AtomicU64,
    /// Time in `commit`, every session.
    commit_total_ns: AtomicU64,
    commit_ns: Mutex<Vec<u64>>,
}

impl RedoLog for TimedLog<'_> {
    fn begin(&self) -> u64 {
        self.wal.begin()
    }

    fn log_page(&self, txn: u64, page: PageId, image: &[u8]) -> u64 {
        if self.tracer.is_none() {
            return self.wal.log_page(txn, page, image);
        }
        let t = Instant::now();
        let lsn = self.wal.log_page(txn, page, image);
        self.log_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.log_calls.fetch_add(1, Ordering::Relaxed);
        lsn
    }

    fn commit(&self, txn: u64) -> u64 {
        let t = Instant::now();
        let lsn = self.wal.commit(txn);
        let end = Instant::now();
        let ns = (end - t).as_nanos() as u64;
        self.commit_total_ns.fetch_add(ns, Ordering::Relaxed);
        if let Some(tracer) = self.tracer {
            let (parent, req) = (
                self.parent.load(Ordering::Relaxed),
                self.req.load(Ordering::Relaxed),
            );
            tracer.record("wal.commit", parent, req, t, end);
            self.log_ns.fetch_add(ns, Ordering::Relaxed);
            self.commit_ns.lock().expect("commit log poisoned").push(ns);
        }
        lsn
    }

    fn durable_lsn(&self) -> u64 {
        self.wal.durable_lsn()
    }

    fn sync(&self) -> u64 {
        self.wal.sync()
    }
}

/// A fresh in-memory disk holding a copy of `src`'s pages.
fn copy_disk(src: &Disk) -> Disk {
    let dst = Disk::in_memory(src.page_size());
    let n = src.allocated_pages();
    dst.ensure_allocated(n);
    let mut buf = vec![0u8; src.page_size()];
    for p in 0..n {
        src.read_page(PageId(p), &mut buf);
        dst.write_page(PageId(p), &buf);
    }
    dst
}

/// What one session measured.
#[derive(Default)]
struct Session {
    traced: bool,
    ops: u64,
    replay_s: f64,
    /// Ops per second of each `WINDOW_CHUNKS`-chunk window of the replay,
    /// leaving out the time inside `Wal::commit` (the fsync wait).
    window_rates: Vec<f64>,
    /// The same windows over their whole wall time, fsync wait included.
    wall_window_rates: Vec<f64>,
    commit_ns: Vec<u64>,
    query_ns: Vec<u64>,
    serve_s: f64,
    queries: u64,
    flushed_pages: u64,
    user_bytes: u64,
    wal_bytes: u64,
    wal_fsyncs: u64,
    recover_s: f64,
    reopen_s: f64,
    replayed: u64,
    hit_frac: f64,
    evictions: u64,
    contended: f64,
    // Traced sessions only.
    apply_self_ns: Vec<u64>,
    log_ns: u64,
    log_calls: u64,
    wal_commit_ns: Vec<u64>,
}

struct Base {
    disk: Disk,
    head: PageId,
    elements: Vec<SpatialElement>,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let data_spec = DatasetSpec::uniform(BASE, ctx.seed_for(1));

    let mut setup_walls = Vec::new();
    reset_peak_rss();
    let mut built: Option<(Base, std::time::Duration)> = None;
    for i in 0..SETUPS {
        drop(built.take());
        if i + 1 == SETUPS && ctx.traced {
            tfm_obs::global().reset();
            tfm_obs::set_enabled(true);
        }
        let wal_dir = ctx.scratch_dir("setup-wal")?;
        let (elements, gen) = timed(|| generate(&data_spec));
        let disk = Disk::in_memory(PAGE_SIZE);
        let (idx, build) =
            timed(|| TransformersIndex::build(&disk, elements.clone(), &IndexConfig::default()));
        let (overlay, adopt) = timed(|| MutableTransformers::adopt(&idx, &disk));
        let (wal, open) = timed(|| Wal::open(&wal_dir, WalOptions::default()));
        wal.map_err(|e| format!("opening WAL: {e}"))?;
        tfm_obs::set_enabled(false);
        setup_walls.push((gen + build + adopt + open).as_secs_f64());
        let head = overlay.meta_head();
        built = Some((
            Base {
                disk,
                head,
                elements,
            },
            build,
        ));
    }
    let (base, build_wall) = built.expect("at least one setup");

    let live_ids: Vec<u64> = base.elements.iter().map(|e| e.id).collect();
    let trace = generate_mixed_trace(
        &MixedTraceSpec::uniform(CHUNK * CHUNKS_PER_SESSION, WRITE_PERMILLE, ctx.seed_for(2)),
        &live_ids,
    );
    let check_probes = spread(&queries_of(&trace), RECOVERY_PROBES);
    let wal_dir = ctx.scratch_dir("wal")?;
    o.prov("backend", "mem");
    o.prov("wal_fs", fs_type(&wal_dir));
    o.prov(
        "wal_flush_policy",
        "group commit, 4 MiB segments, no injected fsync latency",
    );
    o.prov("serve_threads", 1);
    o.prov("cache_pages", DEFAULT_POOL_PAGES);
    o.prov("ops_per_session", trace.len());

    let mut sessions: Vec<Session> = Vec::new();
    let mut recovered: Option<(Disk, MutableTransformers)> = None;
    let start = Instant::now();
    while start.elapsed() < ctx.seconds || sessions.len() < 3 {
        let traced = ctx.traced && sessions.len() % 2 == 1;
        let req0 = (sessions.len() * CHUNKS_PER_SESSION) as u64;
        let (s, rec) = session(
            ctx,
            &mut o,
            &base,
            &trace,
            &check_probes,
            &wal_dir,
            traced,
            req0,
        )?;
        sessions.push(s);
        recovered = Some(rec);
    }
    let peak_rss = peak_rss_mb();
    let plain: Vec<&Session> = sessions.iter().filter(|s| !s.traced).collect();
    let windows = |ss: &[&Session]| {
        ss.iter()
            .flat_map(|s| s.window_rates.iter().copied())
            .collect::<Vec<f64>>()
    };
    let ops_per_s = median(&windows(&plain));

    if !ctx.traced {
        o.setup(&setup_walls);
        o.rounds("ops_per_s", &windows(&plain), "1/s");
        let wall_windows: Vec<f64> = plain
            .iter()
            .flat_map(|s| s.wall_window_rates.iter().copied())
            .collect();
        o.rounds("replay_ops_per_s", &wall_windows, "1/s");
        o.e2e("ops_per_s.sessions", plain.len() as f64, "count");
        o.e2e(
            "serve_qps",
            median_by(&plain, |s| s.queries as f64 / s.serve_s),
            "1/s",
        );
        let queries: Vec<u64> = plain
            .iter()
            .flat_map(|s| s.query_ns.iter().copied())
            .collect();
        o.percentile_us("query_p50_us", &queries, 0.50);
        o.percentile_us("query_p99_us", &queries, 0.99);
        let commits: Vec<u64> = plain
            .iter()
            .flat_map(|s| s.commit_ns.iter().copied())
            .collect();
        o.percentile_us("commit_p50_us", &commits, 0.50);
        o.percentile_us("commit_p99_us", &commits, 0.99);
        o.e2e(
            "recovery_s",
            median_by(&plain, |s| s.recover_s + s.reopen_s),
            "s",
        );
        o.e2e(
            "wal_bytes_per_user_byte",
            median_by(&plain, |s| s.wal_bytes as f64 / s.user_bytes.max(1) as f64),
            "ratio",
        );
        o.e2e("peak_rss_mb", peak_rss, "MB");
        o.e2e(
            "failed_frac",
            o.failed as f64 / o.attempted.max(1) as f64,
            "frac",
        );
        return Ok(o);
    }

    let traced: Vec<&Session> = sessions.iter().filter(|s| s.traced).collect();
    o.layer("build.index_s", build_wall.as_secs_f64(), "s");
    for (stage, secs) in build_stage_seconds() {
        o.layer(&format!("{stage}_s"), secs, "s");
    }
    let self_ns: Vec<u64> = traced
        .iter()
        .flat_map(|s| s.apply_self_ns.iter().copied())
        .collect();
    o.layer("core.apply_batch_self_us", median_ns(&self_ns) / 1e3, "us");
    o.layer("core.reopen_s", median_by(&plain, |s| s.reopen_s), "s");
    let (log_ns, log_calls) = traced
        .iter()
        .fold((0, 0), |(n, c), s| (n + s.log_ns, c + s.log_calls));
    let wal_commits: Vec<u64> = traced
        .iter()
        .flat_map(|s| s.wal_commit_ns.iter().copied())
        .collect();
    let commits = traced
        .iter()
        .map(|s| s.commit_ns.len() as u64)
        .sum::<u64>()
        .max(1);
    let total_commit_ns: u64 = wal_commits.iter().sum();
    o.layer(
        "wal.log_page_ns",
        (log_ns - total_commit_ns) as f64 / log_calls.max(1) as f64,
        "ns",
    );
    o.layer("wal.commit_us", median_ns(&wal_commits) / 1e3, "us");
    o.layer(
        "wal.pages_per_commit",
        log_calls as f64 / commits as f64,
        "count",
    );
    o.layer(
        "wal.bytes",
        median_by(&plain, |s| s.wal_bytes as f64),
        "bytes",
    );
    o.layer(
        "wal.fsyncs",
        median_by(&plain, |s| s.wal_fsyncs as f64),
        "count",
    );
    o.layer("wal.recover_s", median_by(&plain, |s| s.recover_s), "s");
    o.layer(
        "wal.recovery.replayed",
        median_by(&plain, |s| s.replayed as f64),
        "count",
    );
    o.layer(
        "cache.flushed_pages_per_commit",
        median_by(&plain, |s| {
            s.flushed_pages as f64 / s.commit_ns.len().max(1) as f64
        }),
        "count",
    );
    o.layer("cache.hit_frac", median_by(&plain, |s| s.hit_frac), "frac");
    o.layer(
        "cache.evictions",
        median_by(&plain, |s| s.evictions as f64),
        "count",
    );
    o.layer(
        "cache.lock_contended_frac",
        median_by(&plain, |s| s.contended),
        "frac",
    );
    o.layer(
        "obs.trace_overhead_frac",
        1.0 - median(&windows(&traced)) / ops_per_s,
        "frac",
    );

    // Layer probes on the last recovered overlay: the post-trace data.
    let (rdisk, overlay) = recovered.expect("at least one session");
    let cache = SharedPageCache::new(&rdisk, DEFAULT_POOL_PAGES);
    let engine = MutableTransformersEngine::new(&overlay, &cache);
    let probes = spread(&queries_of(&trace), LAYER_PROBES);
    let mut session = engine.session(0);
    let mut exec_ns = Vec::new();
    for (i, q) in probes.iter().enumerate() {
        let (_, d) = ctx
            .tracer
            .time("serve.session.execute", 0, i as u64 + 1, |_| {
                session.execute(q)
            });
        exec_ns.push(d.as_nanos() as u64);
    }
    o.layer("serve.session.execute_ns", median_ns(&exec_ns), "ns");

    let mut handle = CacheHandle::shared(&cache);
    let mut lookup_ns = Vec::new();
    for (i, id) in spread(&live_ids, LAYER_PROBES).into_iter().enumerate() {
        let (_, d) = ctx.tracer.time("bptree.lookup", 0, i as u64 + 1, |_| {
            overlay.unit_of(&mut handle, id)
        });
        lookup_ns.push(d.as_nanos() as u64);
    }
    o.layer("bptree.lookup_ns", median_ns(&lookup_ns), "ns");

    let snap = overlay.snapshot();
    let unit_pages: Vec<PageId> = snap.units().iter().map(|u| u.page).collect();
    probe_layers(
        &ctx.tracer,
        &mut o,
        &rdisk,
        &cache,
        &unit_pages,
        |qs| engine.prefetch_schedule(qs),
        &probes,
    );
    o.layer("peak_rss_mb", peak_rss, "MB");
    Ok(o)
}

/// One session: replay the trace onto a fresh copy of the base image
/// through a fresh log, then recover the log onto another copy and check
/// the reopened overlay. Returns the recovered disk and overlay.
#[allow(clippy::too_many_arguments)]
fn session(
    ctx: &Ctx,
    o: &mut Outcome,
    base: &Base,
    trace: &[MixedOp],
    check_probes: &[SpatialQuery],
    wal_dir: &std::path::Path,
    traced: bool,
    req0: u64,
) -> Result<(Session, (Disk, MutableTransformers)), String> {
    let mut s = Session {
        traced,
        ..Session::default()
    };
    let wal_dir = wal_dir.to_path_buf();
    if wal_dir.exists() {
        std::fs::remove_dir_all(&wal_dir).map_err(|e| format!("clearing WAL dir: {e}"))?;
    }
    let disk = copy_disk(&base.disk);
    let overlay = MutableTransformers::reopen(&disk, base.head);
    let cache = SharedPageCache::new(&disk, DEFAULT_POOL_PAGES);
    let wal =
        Wal::open(&wal_dir, WalOptions::default()).map_err(|e| format!("opening WAL: {e}"))?;
    let timed_log = TimedLog {
        wal: &wal,
        tracer: traced.then_some(&ctx.tracer),
        parent: AtomicU64::new(0),
        req: AtomicU64::new(0),
        log_ns: AtomicU64::new(0),
        log_calls: AtomicU64::new(0),
        commit_total_ns: AtomicU64::new(0),
        commit_ns: Mutex::new(Vec::new()),
    };
    let engine = MutableTransformersEngine::new(&overlay, &cache);
    let scfg = ServeConfig::default()
        .with_threads(1)
        .with_batch(CHUNK)
        .with_traces();
    let mut live = Live::new(&base.elements);

    tfm_obs::set_enabled(traced);
    let (mut window_s, mut window_wall_s) = (0.0, 0.0);
    for (ci, chunk) in trace.chunks(CHUNK).enumerate() {
        let replay_before = s.replay_s;
        let commit_before = timed_log.commit_total_ns.load(Ordering::Relaxed);
        let req = req0 + ci as u64 + 1;
        let writes: Vec<MutationOp> = chunk
            .iter()
            .filter_map(|op| match op {
                MixedOp::Insert(e) => Some(MutationOp::Insert(*e)),
                MixedOp::Delete(id) => Some(MutationOp::Delete(*id)),
                MixedOp::Query(_) => None,
            })
            .collect();
        if !writes.is_empty() {
            let wal_before = timed_log.log_ns.load(Ordering::Relaxed);
            let (out, d) = ctx.tracer.time("core.apply_batch", 0, req, |id| {
                timed_log.parent.store(id, Ordering::Relaxed);
                timed_log.req.store(req, Ordering::Relaxed);
                overlay.apply_batch(&timed_log, &cache, &writes)
            });
            let ns = d.as_nanos() as u64;
            s.commit_ns.push(ns);
            if traced {
                let in_wal = timed_log.log_ns.load(Ordering::Relaxed) - wal_before;
                s.apply_self_ns.push(ns.saturating_sub(in_wal));
            }
            s.replay_s += d.as_secs_f64();
            s.flushed_pages += out.flushed_pages as u64;
            o.attempted += writes.len() as u64;
            o.failed += out.rejected_inserts + out.missing_deletes;
            s.user_bytes += out.inserted * ELEMENT_BYTES + out.deleted * ID_BYTES;
            for w in &writes {
                live.apply(w);
            }
        }
        let probes = queries_of(chunk);
        if !probes.is_empty() {
            let (out, d) = ctx.tracer.time("serve.serve_trace", 0, req, |_| {
                serve_trace(&engine, &probes, &scfg)
            });
            s.replay_s += d.as_secs_f64();
            s.serve_s += d.as_secs_f64();
            s.queries += out.stats.queries;
            s.query_ns
                .extend(out.traces.iter().map(|t| t.service_nanos));
            o.attempted += out.stats.queries;
            // The first probe of every chunk is held to the full scan.
            if out.results.first() != Some(&live.scan(&probes[0])) {
                o.failed += 1;
            }
        }
        s.ops += chunk.len() as u64;
        let wall = s.replay_s - replay_before;
        let in_commit = timed_log.commit_total_ns.load(Ordering::Relaxed) - commit_before;
        window_s += wall - in_commit as f64 / 1e9;
        window_wall_s += wall;
        if (ci + 1) % WINDOW_CHUNKS == 0 {
            let ops = (WINDOW_CHUNKS * CHUNK) as f64;
            s.window_rates.push(ops / window_s);
            s.wall_window_rates.push(ops / window_wall_s);
            (window_s, window_wall_s) = (0.0, 0.0);
        }
    }
    tfm_obs::set_enabled(false);
    let cstats = cache.stats();
    s.hit_frac = cstats.hit_fraction();
    s.evictions = cstats.evictions;
    s.contended = cstats.contention_fraction();
    let ws = wal.stats();
    s.wal_bytes = ws.bytes;
    s.wal_fsyncs = ws.fsyncs;
    s.log_ns = timed_log.log_ns.load(Ordering::Relaxed);
    s.log_calls = timed_log.log_calls.load(Ordering::Relaxed);
    s.wal_commit_ns = timed_log
        .commit_ns
        .lock()
        .expect("commit log poisoned")
        .clone();
    drop(timed_log);
    drop(wal);

    // Recovery onto a fresh copy of the base image.
    let rdisk = copy_disk(&base.disk);
    let req = req0 + CHUNKS_PER_SESSION as u64 + 1;
    let (report, d) = ctx
        .tracer
        .time("wal.recover", 0, req, |_| recover(&wal_dir, &rdisk));
    let report = report.map_err(|e| format!("recovery: {e}"))?;
    s.recover_s = d.as_secs_f64();
    s.replayed = report.pages_replayed;
    let (reopened, d) = ctx.tracer.time("core.reopen", 0, req, |_| {
        MutableTransformers::reopen(&rdisk, base.head)
    });
    s.reopen_s = d.as_secs_f64();

    o.attempted += 1;
    let commits = s.commit_ns.len() as u64;
    if report.skipped_uncommitted != 0
        || report.torn_tail
        || report.commits != commits
        || reopened.len() != live.elems.len() as u64
    {
        o.failed += 1;
    }
    let rcache = SharedPageCache::new(&rdisk, DEFAULT_POOL_PAGES);
    let rengine = MutableTransformersEngine::new(&reopened, &rcache);
    let out = serve_trace(&rengine, check_probes, &ServeConfig::default());
    o.attempted += check_probes.len() as u64;
    for (q, got) in check_probes.iter().zip(&out.results) {
        if *got != live.scan(q) {
            o.failed += 1;
        }
    }
    std::fs::remove_dir_all(&wal_dir).map_err(|e| format!("removing WAL dir: {e}"))?;
    Ok((s, (rdisk, reopened)))
}
