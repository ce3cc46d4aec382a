//! `join-skewed`: the paper's regime. MassiveCluster × MassiveCluster,
//! 2 M elements per side on the file backend, joined by
//! `parallel_join_with_report` with 2 workers and the default
//! `JoinConfig`, whose per-side cache is far smaller than the data.

use crate::common::*;
use crate::layers::{probe_layers, spread};
use std::time::{Duration, Instant};
use tfm_bench::workloads::massive_pair;
use tfm_exec::parallel_join_with_report;
use tfm_geom::SpatialQuery;
use tfm_memjoin::{grid_hash_join, GridConfig, JoinStats, ResultPair};
use tfm_serve::{QueryEngine, TransformersEngine};
use tfm_storage::{Disk, PageId, SharedPageCache, StoreBackend};
use transformers::{transformers_join, IndexConfig, JoinConfig, TransformersIndex};

/// Elements over both sides (`massive_pair` splits it in half).
const TOTAL: usize = 4_000_000;
const THREADS: usize = 2;
/// Dataset pairs per run, one per set-up; `setup_s` is the median set-up.
const INSTANCES: usize = 3;
const LAYER_PROBES: usize = 2000;

fn sync_dir_files(dir: &std::path::Path) -> Result<(), String> {
    let err = |e: std::io::Error| format!("flushing {}: {e}", dir.display());
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let path = entry.map_err(err)?.path();
        if path.is_file() {
            std::fs::File::open(&path)
                .and_then(|f| f.sync_all())
                .map_err(err)?;
        }
    }
    Ok(())
}

fn canonical(mut pairs: Vec<ResultPair>) -> Vec<ResultPair> {
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let jcfg = JoinConfig::default();

    // Each set-up builds its own dataset pair, and the rounds cycle
    // through them: where the clusters of A and B happen to overlap sets
    // how much work a join is, so one pair per run would make the result
    // a draw of that overlap. The reference pair sets and the layer probes
    // (B's boxes as windows against A, the lookups a join makes) come
    // from separate copies of the inputs, made before the set-ups.
    let mut wants = Vec::new();
    let mut probes: Vec<SpatialQuery> = Vec::new();
    for i in 0..INSTANCES {
        let w = massive_pair(TOTAL, ctx.seed_for(1 + i as u64));
        wants.push(canonical(grid_hash_join(
            &w.a,
            &w.b,
            &GridConfig::default(),
            &mut JoinStats::default(),
        )));
        if i == 0 {
            probes = spread(&w.b, LAYER_PROBES)
                .iter()
                .map(|e| SpatialQuery::Window(e.mbb))
                .collect();
        }
    }

    struct Instance {
        disk_a: Disk,
        disk_b: Disk,
        idx_a: TransformersIndex,
        idx_b: TransformersIndex,
    }
    let mut setup_walls = Vec::new();
    let mut instances = Vec::new();
    let mut build_wall = Duration::ZERO;
    let mut store_dirs = Vec::new();
    reset_peak_rss();
    if ctx.traced {
        tfm_obs::global().reset();
        tfm_obs::set_enabled(true);
    }
    for i in 0..INSTANCES {
        let dir = ctx.scratch_dir(&format!("store{i}"))?;
        let backend = StoreBackend::File(dir.clone());
        store_dirs.push(dir);
        let (w, gen) = timed(|| massive_pair(TOTAL, ctx.seed_for(1 + i as u64)));
        let disk_a = Disk::for_backend(&backend, PAGE_SIZE, "a").map_err(|e| e.to_string())?;
        let disk_b = Disk::for_backend(&backend, PAGE_SIZE, "b").map_err(|e| e.to_string())?;
        let (idx_a, build_a) =
            timed(|| TransformersIndex::build(&disk_a, w.a, &IndexConfig::default()));
        let (idx_b, build_b) =
            timed(|| TransformersIndex::build(&disk_b, w.b, &IndexConfig::default()));
        setup_walls.push((gen + build_a + build_b).as_secs_f64());
        build_wall = build_a + build_b;
        instances.push(Instance {
            disk_a,
            disk_b,
            idx_a,
            idx_b,
        });
    }
    tfm_obs::set_enabled(false);
    // The stores are ~700 MB of fresh page-cache writes; flushed now, the
    // OS's write-back of them cannot compete with the timed rounds.
    for dir in &store_dirs {
        sync_dir_files(dir)?;
    }
    o.prov("backend", "file");
    o.prov("store_fs", fs_type(&store_dirs[0]));
    o.prov("join_threads", THREADS);
    o.prov("join_cache_pages_per_side", jcfg.pool_pages);
    o.prov("dataset_pairs", INSTANCES);
    o.prov(
        "unit_pages_per_side",
        instances
            .iter()
            .map(|x| format!("{}/{}", x.idx_a.units().len(), x.idx_b.units().len()))
            .collect::<Vec<_>>()
            .join(" "),
    );
    o.prov(
        "pairs",
        wants
            .iter()
            .map(|w| w.len().to_string())
            .collect::<Vec<_>>()
            .join(" "),
    );

    struct Round {
        traced: bool,
        pair: usize,
        join_s: f64,
        tests: u64,
        role_tr: u64,
        walk: u64,
        crawl: u64,
        pruned: u64,
        pages_read: u64,
        hits: u64,
        sim_s: f64,
        steals: u64,
        chunks: u64,
        steal_frac: f64,
    }
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < ctx.seconds || rounds.len() < 2 * INSTANCES {
        let traced = ctx.traced && rounds.len() % 2 == 1;
        let which = rounds.len() % INSTANCES;
        let x = &instances[which];
        tfm_obs::set_enabled(traced);
        let req = rounds.len() as u64 + 1;
        let ((out, rep), wall) = ctx.tracer.time("exec.parallel_join", 0, req, |_| {
            parallel_join_with_report(&x.idx_a, &x.disk_a, &x.idx_b, &x.disk_b, &jcfg, THREADS)
        });
        tfm_obs::set_enabled(false);
        o.attempted += 1;
        if out.pairs != wants[which] {
            o.failed += 1;
        }
        let s = &out.stats;
        rounds.push(Round {
            traced,
            pair: which,
            join_s: wall.as_secs_f64(),
            tests: s.mem.element_tests,
            role_tr: s.role_transformations,
            walk: s.walk_steps,
            crawl: s.crawl_steps,
            pruned: s.pruned_units + s.cross_worker_pruned_units,
            pages_read: s.pages_read,
            hits: s.pool_hits,
            sim_s: s.sim_io.as_secs_f64(),
            steals: rep.steals,
            chunks: rep.chunks as u64,
            steal_frac: rep.steal_fraction(),
        });
    }
    let peak_rss = peak_rss_mb();
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    // The pairs differ in work (how far their clusters overlap), so a
    // median over all rounds would land on one pair's time: a draw of the
    // seed. The run's join time is the mean over pairs of each pair's
    // median round.
    let pair_mean_s = |rs: &[&Round]| {
        let per_pair: Vec<f64> = (0..INSTANCES)
            .map(|p| {
                median(
                    &rs.iter()
                        .filter(|r| r.pair == p)
                        .map(|r| r.join_s)
                        .collect::<Vec<f64>>(),
                )
            })
            .filter(|s| s.is_finite())
            .collect();
        per_pair.iter().sum::<f64>() / per_pair.len() as f64
    };
    let join_s = pair_mean_s(&plain);

    if !ctx.traced {
        o.setup(&setup_walls);
        let rates: Vec<f64> = plain.iter().map(|r| 1.0 / r.join_s).collect();
        o.rounds("ops_per_s", &rates, "1/s");
        o.e2e("ops_per_s", 1.0 / join_s, "1/s");
        let walls: Vec<f64> = plain.iter().map(|r| r.join_s).collect();
        o.rounds("join_s", &walls, "s");
        o.e2e("join_s", join_s, "s");
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
    o.layer("join.tests", median_by(&plain, |r| r.tests as f64), "count");
    o.layer(
        "join.role_transformations",
        median_by(&plain, |r| r.role_tr as f64),
        "count",
    );
    o.layer(
        "join.walk_steps",
        median_by(&plain, |r| r.walk as f64),
        "count",
    );
    o.layer(
        "join.crawl_steps",
        median_by(&plain, |r| r.crawl as f64),
        "count",
    );
    o.layer(
        "join.pruned_units",
        median_by(&plain, |r| r.pruned as f64),
        "count",
    );
    o.layer(
        "join.steals",
        median_by(&plain, |r| r.steals as f64),
        "count",
    );
    o.layer(
        "join.chunks",
        median_by(&plain, |r| r.chunks as f64),
        "count",
    );
    o.layer(
        "exec.steal_frac",
        median_by(&plain, |r| r.steal_frac),
        "frac",
    );
    o.layer(
        "io.pages_read",
        median_by(&plain, |r| r.pages_read as f64),
        "count",
    );
    o.layer("io.sim_s", median_by(&plain, |r| r.sim_s), "s");
    o.layer(
        "cache.hit_frac",
        median_by(&plain, |r| {
            r.hits as f64 / (r.hits + r.pages_read).max(1) as f64
        }),
        "frac",
    );
    // The join's caches live inside the call; their counters reach the
    // benchmark through the registry the traced rounds armed.
    let per_traced = traced.len().max(1) as f64;
    let acquisitions = obs_counter(tfm_obs::names::CACHE_LOCK_ACQUISITIONS);
    o.layer(
        "cache.evictions",
        obs_counter(tfm_obs::names::CACHE_EVICTIONS) as f64 / per_traced,
        "count",
    );
    o.layer(
        "cache.lock_contended_frac",
        obs_counter(tfm_obs::names::CACHE_LOCK_CONTENDED) as f64 / acquisitions.max(1) as f64,
        "frac",
    );
    o.layer(
        "obs.trace_overhead_frac",
        1.0 - join_s / pair_mean_s(&traced),
        "frac",
    );

    let Instance {
        disk_a,
        disk_b,
        idx_a,
        idx_b,
    } = &instances[0];
    let (seq, seq_wall) =
        ctx.tracer
            .time("core.transformers_join", 0, rounds.len() as u64 + 1, |_| {
                transformers_join(idx_a, disk_a, idx_b, disk_b, &jcfg)
            });
    o.attempted += 1;
    if seq.pairs != wants[0] {
        o.failed += 1;
    }
    o.layer("core.join_seq_s", seq_wall.as_secs_f64(), "s");
    // Against the plain rounds on the same dataset pair.
    let par0 = median(
        &rounds
            .iter()
            .step_by(INSTANCES)
            .filter(|r| !r.traced)
            .map(|r| r.join_s)
            .collect::<Vec<_>>(),
    );
    o.layer("exec.speedup", seq_wall.as_secs_f64() / par0, "ratio");

    // Probes read A through a cache of the join's per-side size, cold.
    let unit_pages: Vec<PageId> = idx_a.units().iter().map(|u| u.page).collect();
    let probe_cache = SharedPageCache::new(disk_a, jcfg.pool_pages);
    let engine = TransformersEngine::new(idx_a, disk_a);
    probe_layers(
        &ctx.tracer,
        &mut o,
        disk_a,
        &probe_cache,
        &unit_pages,
        |qs| engine.prefetch_schedule(qs),
        &probes,
    );
    o.layer("peak_rss_mb", peak_rss, "MB");
    Ok(o)
}
