//! `serve-hot`: 1 M uniform elements, a shared cache that holds the whole
//! index and is warmed before timing, and a uniform 6:2:2 probe trace
//! replayed by `serve_trace` with 2 workers (the queued path) on the mem
//! backend. The CPU path of a probe with no I/O and no decode.

use crate::common::*;
use crate::layers::{probe_layers, spread};
use std::time::Instant;
use tfm_datagen::{generate, generate_trace, DatasetSpec, QueryTraceSpec};
use tfm_geom::{ElementId, SpatialElement, SpatialQuery};
use tfm_memjoin::{grid_hash_join, GridConfig, JoinStats};
use tfm_serve::{serve_trace, QueryEngine, RequestQueue, ServeConfig, TransformersEngine};
use tfm_storage::{CachePolicy, Disk, ElementPageCodec, PageId, SharedPageCache};
use transformers::{IndexConfig, TransformersIndex};

const ELEMENTS: usize = 1_000_000;
/// Probes per `serve_trace` call: one closed-loop round.
const PROBES_PER_CALL: usize = 100_000;
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median (index builds are under a second).
const SETUPS: usize = 5;
/// Probes sampled for the per-layer timings.
const LAYER_PROBES: usize = 2000;

/// Every probe's answer by an independent path: a grid hash join of the
/// probe boxes against the dataset, filtered with the exact predicate.
pub fn reference_answers(trace: &[SpatialQuery], data: &[SpatialElement]) -> Vec<Vec<ElementId>> {
    let boxes: Vec<SpatialElement> = trace
        .iter()
        .enumerate()
        .map(|(i, q)| SpatialElement::new(i as u64, q.probe()))
        .collect();
    let by_id: std::collections::HashMap<ElementId, usize> =
        data.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
    let mut out = vec![Vec::new(); trace.len()];
    for (q, e) in grid_hash_join(
        &boxes,
        data,
        &GridConfig::default(),
        &mut JoinStats::default(),
    ) {
        if trace[q as usize].matches(&data[by_id[&e]].mbb) {
            out[q as usize].push(e);
        }
    }
    for ids in &mut out {
        ids.sort_unstable();
    }
    out
}

/// Number of queries whose answer differs from the reference.
pub fn mismatches(got: &[Vec<ElementId>], want: &[Vec<ElementId>]) -> u64 {
    let differing = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    o.prov("backend", "mem");
    o.prov("serve_threads", THREADS);
    o.prov(
        "load",
        format!("closed loop: serve_trace calls of {PROBES_PER_CALL} probes, one at a time"),
    );
    let data_spec = DatasetSpec::uniform(ELEMENTS, ctx.seed_for(1));
    let trace = generate_trace(&QueryTraceSpec::uniform(PROBES_PER_CALL, ctx.seed_for(2)));
    let want = reference_answers(&trace, &generate(&data_spec));

    let mut setup_walls = Vec::new();
    reset_peak_rss();
    let mut built = None;
    for i in 0..SETUPS {
        drop(built.take());
        if i + 1 == SETUPS && ctx.traced {
            tfm_obs::global().reset();
            tfm_obs::set_enabled(true);
        }
        let (elements, gen) = timed(|| generate(&data_spec));
        let disk = Disk::in_memory(PAGE_SIZE);
        let (idx, build) =
            timed(|| TransformersIndex::build(&disk, elements, &IndexConfig::default()));
        tfm_obs::set_enabled(false);
        setup_walls.push((gen + build).as_secs_f64());
        built = Some((disk, idx, build));
    }
    let (disk, idx, build_wall) = built.expect("at least one setup");
    o.prov("unit_pages", idx.units().len());
    o.prov("nodes", idx.nodes().len());

    // A cache with a frame for every page of the disk holds the whole index.
    let cache_pages = disk.allocated_pages() as usize;
    let engine = TransformersEngine::new(&idx, &disk).with_shared_cache_policy(
        cache_pages,
        SharedPageCache::shards_for_threads(THREADS),
        CachePolicy::Clock,
    );
    let cfg = ServeConfig::default().with_threads(THREADS);
    let warm = serve_trace(&engine, &trace, &cfg);
    o.attempted += warm.stats.queries;
    o.failed += mismatches(&warm.results, &want);

    // Closed loop: one trace submitted, every answer awaited, repeat.
    struct Round {
        traced: bool,
        rate: f64,
        plan_s: f64,
        stats_wall_s: f64,
        p50_ns: u64,
        p99_ns: u64,
        wait_p99_ns: u64,
        skew: f64,
        hit_frac: f64,
        evictions: u64,
        contended: f64,
    }
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < ctx.seconds || rounds.len() < 3 {
        let traced = ctx.traced && rounds.len() % 2 == 1;
        tfm_obs::set_enabled(traced);
        let req = rounds.len() as u64 + 1;
        let (out, wall) = ctx.tracer.time("serve.serve_trace", 0, req, |_| {
            serve_trace(&engine, &trace, &cfg)
        });
        tfm_obs::set_enabled(false);
        o.attempted += out.stats.queries;
        o.failed += mismatches(&out.results, &want);
        let s = &out.stats;
        let per_worker = &s.per_worker_queries;
        let mean = per_worker.iter().sum::<u64>() as f64 / per_worker.len().max(1) as f64;
        let cache = s.cache.unwrap_or_default();
        rounds.push(Round {
            traced,
            rate: s.queries as f64 / wall.as_secs_f64(),
            plan_s: (wall.saturating_sub(s.wall)).as_secs_f64(),
            stats_wall_s: s.wall.as_secs_f64(),
            p50_ns: s.latency.p50_nanos,
            p99_ns: s.latency.p99_nanos,
            wait_p99_ns: s.queue_wait.p99_nanos,
            skew: per_worker.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0),
            hit_frac: cache.hit_fraction(),
            evictions: cache.evictions,
            contended: cache.contention_fraction(),
        });
    }
    let peak_rss = peak_rss_mb();
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();

    if !ctx.traced {
        o.setup(&setup_walls);
        let rates: Vec<f64> = plain.iter().map(|r| r.rate).collect();
        let qps = o.rounds("ops_per_s", &rates, "1/s");
        o.e2e("serve_qps", qps, "1/s");
        // Each call's summary covers 100 000 queries, so p99 has 1 000
        // samples beyond it; the reported value is the median over calls.
        o.e2e(
            "query_p50_us",
            median_by(&plain, |r| r.p50_ns as f64 / 1e3),
            "us",
        );
        o.e2e(
            "query_p99_us",
            median_by(&plain, |r| r.p99_ns as f64 / 1e3),
            "us",
        );
        o.e2e("query_p50_us.samples", PROBES_PER_CALL as f64, "count");
        o.e2e("query_p99_us.samples", PROBES_PER_CALL as f64, "count");
        o.e2e(
            "serve.stats_wall_s",
            median_by(&plain, |r| r.stats_wall_s),
            "s",
        );
        o.e2e("peak_rss_mb", peak_rss, "MB");
        o.e2e(
            "failed_frac",
            o.failed as f64 / o.attempted.max(1) as f64,
            "frac",
        );
        return Ok(o);
    }

    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    o.layer("build.index_s", build_wall.as_secs_f64(), "s");
    for (stage, secs) in build_stage_seconds() {
        o.layer(&format!("{stage}_s"), secs, "s");
    }
    o.layer("serve.plan_s", median_by(&plain, |r| r.plan_s), "s");
    o.layer(
        "serve.stats_wall_s",
        median_by(&plain, |r| r.stats_wall_s),
        "s",
    );
    o.layer(
        "serve.queue_wait_p99_us",
        median_by(&plain, |r| r.wait_p99_ns as f64 / 1e3),
        "us",
    );
    o.layer("serve.worker_skew", median_by(&plain, |r| r.skew), "ratio");
    o.layer("cache.hit_frac", median_by(&plain, |r| r.hit_frac), "frac");
    o.layer(
        "cache.evictions",
        plain.iter().map(|r| r.evictions).sum::<u64>() as f64,
        "count",
    );
    o.layer(
        "cache.lock_contended_frac",
        median_by(&plain, |r| r.contended),
        "frac",
    );
    o.layer(
        "obs.trace_overhead_frac",
        1.0 - median_by(&traced, |r| r.rate) / median_by(&plain, |r| r.rate),
        "frac",
    );

    // RequestQueue hand-off: one push and one pop of a batch-sized item.
    let queue: RequestQueue<(Vec<usize>, Instant)> = RequestQueue::new(cfg.queue_batches);
    let pairs = 200_000u64;
    let (_, d) = ctx.tracer.time("serve.queue.push_pop", 0, 0, |_| {
        for _ in 0..pairs {
            queue.push((Vec::new(), Instant::now()));
            std::hint::black_box(queue.pop());
        }
    });
    o.layer(
        "serve.queue.push_pop_ns",
        d.as_nanos() as f64 / pairs as f64,
        "ns",
    );

    let sample = spread(&trace, LAYER_PROBES);
    let mut session = engine.session(0);
    let mut exec_ns = Vec::new();
    for (i, q) in sample.iter().enumerate() {
        let (_, d) = ctx
            .tracer
            .time("serve.session.execute", 0, i as u64 + 1, |_| {
                session.execute(q)
            });
        exec_ns.push(d.as_nanos() as u64);
    }
    o.layer("serve.session.execute_ns", median_ns(&exec_ns), "ns");

    // The engine's cache is private to it; the probes read through a
    // second cache over the same disk, warmed the same way.
    let unit_pages: Vec<PageId> = idx.units().iter().map(|u| u.page).collect();
    let probe_cache = SharedPageCache::new(&disk, cache_pages);
    let codec = ElementPageCodec::new(PAGE_SIZE);
    for &p in &unit_pages {
        probe_cache.read_decoded(&codec, p);
    }
    probe_layers(
        &ctx.tracer,
        &mut o,
        &disk,
        &probe_cache,
        &unit_pages,
        |qs| engine.prefetch_schedule(qs),
        &sample,
    );
    o.layer("peak_rss_mb", peak_rss, "MB");
    Ok(o)
}
