//! The one serve driver behind [`crate::serve_trace`] and
//! [`crate::serve_sharded`].
//!
//! It takes one engine per shard, an optional [`ShardRouter`] (none means
//! every query goes to the single engine) and one [`ServeConfig`]:
//!
//! 1. The calling thread slices the trace into arrival-order batches,
//!    Hilbert-orders each, routes every query onto the shards its probe
//!    box intersects, and feeds each shard's bounded [`RequestQueue`]
//!    (blocking `push` is backpressure, `try_push` with
//!    [`ServeConfig::shed`] is load shedding). With readahead on, each
//!    sub-batch's page schedule goes to the shard's prefetch queue first.
//! 2. Every worker of every shard drains its shard's queue on a private
//!    [`crate::QuerySession`]; `io_depth` prefetch threads per shard land
//!    scheduled pages in that shard's cache.
//! 3. Partials are merged by query position. A query's latency, queue
//!    wait and trace are its critical path over its partials.
//!
//! One shard with one worker runs inline on the caller: no queue, no
//! spawn — the sequential reference the equivalence suites compare
//! against.

use std::time::Instant;

use crate::{
    AutoBatchSummary, LatencySummary, QueryEngine, QuerySession, RequestQueue, ServeConfig,
    ServeOutcome, ServeStats, ShardRouter, ShardStats,
};
use tfm_geom::{hilbert, Aabb, ElementId, SpatialQuery};
use tfm_storage::{CacheStats, IoStatsSnapshot, PrefetchQueue};

/// How many batches the auto-batch feeder admits between retune
/// decisions — long enough to average out per-batch noise in the cache
/// and I/O counters, short enough to adapt within a few hundred queries.
const AUTO_BATCH_WINDOW: usize = 8;

/// What one worker hands back per executed query partial.
struct Executed {
    qid: usize,
    ids: Vec<ElementId>,
    service_nanos: u64,
    /// Admission-to-pop wait of the partial's batch (0 on the inline path).
    queue_wait_nanos: u64,
    /// Handle-local pool-counter deltas around this partial's probe.
    pool_hits: u64,
    pool_misses: u64,
}

/// One worker's complete contribution: executed partials plus its
/// session's pool counters.
struct WorkerOut {
    done: Vec<Executed>,
    hits: u64,
    misses: u64,
}

/// Admission-side counters the feeder keeps while scattering.
struct Admission {
    /// Shards each query was routed to.
    fanout: Vec<u32>,
    /// Partials routed to each shard.
    routed: Vec<u64>,
    shed_batches: Vec<u64>,
    shed_partials: Vec<u64>,
    /// Most shard queues simultaneously full at a batch admission.
    max_full: usize,
}

impl Admission {
    fn new(shards: usize, queries: usize, routed_to_all: bool) -> Self {
        Self {
            fanout: vec![u32::from(routed_to_all); queries],
            routed: vec![0; shards],
            shed_batches: vec![0; shards],
            shed_partials: vec![0; shards],
            max_full: 0,
        }
    }

    /// Splits one batch into non-empty per-shard sub-batches that keep
    /// the batch's (Hilbert) order, so each shard still sweeps.
    fn split(
        &mut self,
        router: Option<&ShardRouter>,
        trace: &[SpatialQuery],
        ids: Vec<usize>,
    ) -> Vec<(usize, Vec<usize>)> {
        let subs = match router {
            None => vec![(0, ids)],
            Some(router) => {
                let mut subs: Vec<Vec<usize>> = vec![Vec::new(); self.routed.len()];
                for qid in ids {
                    let route = router.route(&trace[qid]);
                    self.fanout[qid] = route.len() as u32;
                    for s in route {
                        subs[s].push(qid);
                    }
                }
                subs.into_iter()
                    .enumerate()
                    .filter(|(_, sub)| !sub.is_empty())
                    .collect()
            }
        };
        for (s, sub) in &subs {
            self.routed[*s] += sub.len() as u64;
        }
        subs
    }
}

/// Serves `trace` on `engines` (one per shard); see the module docs.
pub(crate) fn drive<E: QueryEngine + ?Sized>(
    engines: &[&E],
    router: Option<&ShardRouter>,
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
) -> ServeOutcome {
    let n = engines.len();
    assert!(n > 0, "serving needs at least one engine");
    let workers = cfg.threads.max(1);
    // The total pool budget splits evenly across every session.
    let session_pages = (cfg.pool_pages / (n * workers)).max(1);
    let io_before: Vec<IoStatsSnapshot> = engines.iter().map(|e| e.io_snapshot()).collect();
    let cache_before: Vec<Option<CacheStats>> = engines.iter().map(|e| e.cache_stats()).collect();
    let mut adm = Admission::new(n, trace.len(), router.is_none());

    let start = Instant::now();
    let (outs, (n_batches, max_batch, autobatch)) = if n == 1 && workers == 1 {
        // Inline: the exact sequential reference. No queue means no queue
        // wait (those samples are honestly zero), no shedding, no
        // prefetch and no batch tuning.
        let mut session = engines[0].session(session_pages);
        let mut done = Vec::with_capacity(trace.len());
        let fed = feed_batches(engines, trace, cfg, false, |ids| {
            for (_, sub) in adm.split(router, trace, ids) {
                for qid in sub {
                    done.push(execute_one(&mut *session, trace, qid, 0));
                }
            }
        });
        let (hits, misses) = session.pool_counters();
        (vec![WorkerOut { done, hits, misses }], fed)
    } else {
        // Each queue item carries its admission instant so the popping
        // worker can split queue wait from service time per batch.
        let queues: Vec<RequestQueue<(Vec<usize>, Instant)>> = (0..n)
            .map(|_| RequestQueue::new(cfg.queue_batches.max(1)))
            .collect();
        let prefetch: Vec<Option<PrefetchQueue>> = engines
            .iter()
            .map(|e| {
                (cfg.readahead > 0 && e.supports_prefetch())
                    .then(|| PrefetchQueue::new(cfg.readahead))
            })
            .collect();
        let drain = |s: usize| {
            let mut session = engines[s].session(session_pages);
            let mut done = Vec::new();
            while let Some((qids, admitted)) = queues[s].pop() {
                let wait = admitted.elapsed().as_nanos() as u64;
                for qid in qids {
                    done.push(execute_one(&mut *session, trace, qid, wait));
                }
            }
            let (hits, misses) = session.pool_counters();
            WorkerOut { done, hits, misses }
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n * workers)
                .map(|g| {
                    let drain = &drain;
                    scope.spawn(move || drain(g / workers))
                })
                .collect();
            // Dedicated prefetch I/O threads land scheduled pages in their
            // shard's cache until the feeder closes the queue. Device
            // latency (real file seeks, or an injected `Disk` read
            // latency) is paid here, off the workers' critical path.
            for (engine, pq) in engines.iter().zip(&prefetch) {
                let Some(pq) = pq else { continue };
                for _ in 0..cfg.io_depth.max(1) {
                    scope.spawn(move || {
                        let mut scratch = Vec::new();
                        while let Some(id) = pq.pop() {
                            engine.prefetch_page(id, &mut scratch);
                        }
                    });
                }
            }

            let fed = feed_batches(engines, trace, cfg, cfg.auto_batch, |ids| {
                let full = queues.iter().filter(|q| q.len() >= q.capacity()).count();
                adm.max_full = adm.max_full.max(full);
                for (s, sub) in adm.split(router, trace, ids) {
                    if let Some(pq) = &prefetch[s] {
                        // Announce the sub-batch's page schedule before the
                        // batch itself so the I/O threads start on it ahead
                        // of the workers. `try_push` is lossy by design: a
                        // full queue is already `readahead` pages ahead.
                        let probes: Vec<SpatialQuery> = sub.iter().map(|&q| trace[q]).collect();
                        for page in engines[s].prefetch_schedule(&probes) {
                            pq.try_push(page);
                        }
                    }
                    if !cfg.shed {
                        queues[s].push((sub, Instant::now()));
                    } else if let Err((lost, _)) = queues[s].try_push((sub, Instant::now())) {
                        adm.shed_batches[s] += 1;
                        adm.shed_partials[s] += lost.len() as u64;
                    }
                }
            });
            for q in &queues {
                q.close();
            }
            for pq in prefetch.iter().flatten() {
                pq.close();
            }
            let outs: Vec<WorkerOut> = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|err| std::panic::resume_unwind(err))
                })
                .collect();
            (outs, fed)
        })
    };
    let wall = start.elapsed();

    // Gather: merge partials by query position; a query's latency and
    // queue wait are the maxima over its partials (its critical path).
    // Shards hold disjoint element sets, so the union of their sorted
    // partials, re-sorted, is the single-engine answer.
    let len = trace.len();
    let mut results: Vec<Vec<ElementId>> = vec![Vec::new(); len];
    let mut service = vec![0u64; len];
    let mut wait = vec![0u64; len];
    let mut partials = vec![0u32; len];
    let mut traces: Vec<tfm_obs::QueryTrace> = if cfg.collect_traces {
        (0..len as u64)
            .map(|trace_id| tfm_obs::QueryTrace {
                trace_id,
                ..Default::default()
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut result_ids = 0u64;
    let mut per_worker_queries = Vec::with_capacity(outs.len());
    // Per-partial histograms per shard. At one shard a partial is its
    // query's whole critical path, so those come from the per-query
    // arrays below instead.
    let shard_hists: Vec<(tfm_obs::Histogram, tfm_obs::Histogram)> = if n > 1 {
        (0..n).map(|_| Default::default()).collect()
    } else {
        Vec::new()
    };
    let mut per_shard: Vec<ShardStats> = (0..n)
        .map(|s| ShardStats {
            shard: s,
            routed: adm.routed[s],
            shed_batches: adm.shed_batches[s],
            shed: adm.shed_partials[s],
            cache: match (engines[s].cache_stats(), cache_before[s]) {
                (Some(after), Some(before)) => Some(after.delta_since(&before)),
                _ => None,
            },
            io: engines[s].io_snapshot().delta_since(&io_before[s]),
            ..ShardStats::default()
        })
        .collect();
    for (g, out) in outs.into_iter().enumerate() {
        let s = g / workers;
        let shard = &mut per_shard[s];
        shard.pool_hits += out.hits;
        shard.pool_misses += out.misses;
        shard.executed += out.done.len() as u64;
        shard.per_worker_queries.push(out.done.len() as u64);
        per_worker_queries.push(out.done.len() as u64);
        for ex in out.done {
            let q = ex.qid;
            if let Some((service, wait)) = shard_hists.get(s) {
                service.record(ex.service_nanos);
                wait.record(ex.queue_wait_nanos);
            }
            if let Some(t) = traces.get_mut(q) {
                if partials[q] == 0 || ex.service_nanos > service[q] {
                    t.worker = g as u64;
                }
                t.pool_hits += ex.pool_hits;
                t.pool_misses += ex.pool_misses;
                t.result_ids += ex.ids.len() as u64;
            }
            partials[q] += 1;
            service[q] = service[q].max(ex.service_nanos);
            wait[q] = wait[q].max(ex.queue_wait_nanos);
            result_ids += ex.ids.len() as u64;
            if results[q].is_empty() {
                results[q] = ex.ids;
            } else {
                results[q].extend(ex.ids);
            }
        }
    }
    let mut shed_queries = 0u64;
    for q in 0..len {
        if partials[q] > 1 {
            results[q].sort_unstable();
        }
        shed_queries += u64::from(partials[q] < adm.fanout[q]);
        if let Some(t) = traces.get_mut(q) {
            t.service_nanos = service[q];
            t.queue_wait_nanos = wait[q];
        }
    }
    let service_snap = snapshot_of(service.iter().copied());
    let wait_snap = snapshot_of(wait.iter().copied());
    let shard_snaps: Vec<_> = if n > 1 {
        shard_hists
            .iter()
            .map(|(service, wait)| (service.snapshot(), wait.snapshot()))
            .collect()
    } else if per_shard[0].executed == len as u64 {
        vec![(service_snap.clone(), wait_snap.clone())]
    } else {
        let ran = |v: &[u64]| snapshot_of((0..len).filter(|&q| partials[q] > 0).map(|q| v[q]));
        vec![(ran(&service), ran(&wait))]
    };
    for (shard, (service, wait)) in per_shard.iter_mut().zip(&shard_snaps) {
        shard.service = LatencySummary::from_histogram(service);
        shard.queue_wait = LatencySummary::from_histogram(wait);
    }

    let stats = ServeStats {
        queries: len as u64,
        result_ids,
        batches: n_batches as u64,
        max_batch,
        threads: workers,
        hilbert_batching: cfg.hilbert_batching,
        wall,
        latency: LatencySummary::from_histogram(&service_snap),
        queue_wait: LatencySummary::from_histogram(&wait_snap),
        pool_hits: per_shard.iter().map(|s| s.pool_hits).sum(),
        pool_misses: per_shard.iter().map(|s| s.pool_misses).sum(),
        io: per_shard
            .iter()
            .fold(IoStatsSnapshot::default(), |acc, s| acc.merged(&s.io)),
        per_worker_queries,
        cache: merged_cache(per_shard.iter().map(|s| s.cache)),
        autobatch,
        shards: n,
        fanout_max: adm.fanout.iter().copied().max().unwrap_or(0) as usize,
        routed_partials: adm.routed.iter().sum(),
        shed_partials: adm.shed_partials.iter().sum(),
        shed_queries,
        max_cluster_pressure: adm.max_full as f64 / n as f64,
        per_shard,
    };
    publish(&stats, &service_snap, &wait_snap, &shard_snaps, &adm.fanout);
    ServeOutcome {
        results,
        stats,
        traces,
    }
}

/// Run-end publication into the process-wide registry, one shot per run
/// so per-query counters never double-count: the query-level `serve.*`
/// family, the `shard.*` family (cluster-wide plus per-shard
/// `shard.<i>.*`) and the cache/io signals the run owns. `cache.hits` /
/// `cache.misses` come from the handle-local pool counters; the shared
/// caches contribute only their internal extras.
fn publish(
    stats: &ServeStats,
    service: &tfm_obs::HistogramSnapshot,
    wait: &tfm_obs::HistogramSnapshot,
    shard_snaps: &[(tfm_obs::HistogramSnapshot, tfm_obs::HistogramSnapshot)],
    fanout: &[u32],
) {
    let obs = tfm_obs::global();
    if !obs.is_enabled() {
        return;
    }
    use tfm_obs::names;
    obs.counter(names::SERVE_QUERIES).add(stats.queries);
    obs.counter(names::SERVE_BATCHES).add(stats.batches);
    obs.counter(names::SERVE_RESULT_IDS).add(stats.result_ids);
    obs.histogram(names::SERVE_WALL_NANOS)
        .record(stats.wall.as_nanos() as u64);
    obs.histogram(names::SERVE_SERVICE_NANOS)
        .merge_snapshot(service);
    obs.histogram(names::SERVE_QUEUE_WAIT_NANOS)
        .merge_snapshot(wait);
    obs.counter(names::CACHE_HITS).add(stats.pool_hits);
    obs.counter(names::CACHE_MISSES).add(stats.pool_misses);
    stats.io.publish(obs);
    if let Some(c) = &stats.cache {
        c.publish_shared_extras(obs);
    }
    if let Some(ab) = &stats.autobatch {
        obs.counter(names::SERVE_AUTOBATCH_RETUNES).add(ab.retunes);
        obs.counter(names::SERVE_AUTOBATCH_GROWS).add(ab.grows);
        obs.counter(names::SERVE_AUTOBATCH_SHRINKS).add(ab.shrinks);
        obs.gauge(names::SERVE_AUTOBATCH_FINAL_BATCH)
            .set(ab.final_batch as i64);
    }

    obs.counter(names::SHARD_QUERIES).add(stats.queries);
    obs.counter(names::SHARD_ROUTED).add(stats.routed_partials);
    obs.counter(names::SHARD_SHED_BATCHES)
        .add(stats.per_shard.iter().map(|s| s.shed_batches).sum());
    obs.counter(names::SHARD_SHED_QUERIES)
        .add(stats.shed_partials);
    obs.gauge(names::SHARD_COUNT).set(stats.shards as i64);
    obs.gauge(names::SHARD_CLUSTER_PRESSURE_MAX_PCT)
        .set((stats.max_cluster_pressure * 100.0).round() as i64);
    let fanout_hist = obs.histogram(names::SHARD_FANOUT);
    for &f in fanout {
        fanout_hist.record(u64::from(f));
    }
    let partial_service = obs.histogram(names::SHARD_SERVICE_NANOS);
    let partial_wait = obs.histogram(names::SHARD_QUEUE_WAIT_NANOS);
    for (shard, (service, wait)) in stats.per_shard.iter().zip(shard_snaps) {
        let s = shard.shard;
        partial_service.merge_snapshot(service);
        partial_wait.merge_snapshot(wait);
        obs.counter(&format!("shard.{s}.queries"))
            .add(shard.executed);
        obs.counter(&format!("shard.{s}.pool_hits"))
            .add(shard.pool_hits);
        obs.counter(&format!("shard.{s}.pool_misses"))
            .add(shard.pool_misses);
        obs.histogram(&format!("shard.{s}.queue_wait_nanos"))
            .merge_snapshot(wait);
    }
}

/// A latency histogram of `values`.
fn snapshot_of(values: impl Iterator<Item = u64>) -> tfm_obs::HistogramSnapshot {
    let h = tfm_obs::Histogram::new();
    values.for_each(|v| h.record(v));
    h.snapshot()
}

/// The counter-wise sum of per-shard cache stats; `None` when any shard
/// runs private pools.
fn merged_cache(mut caches: impl Iterator<Item = Option<CacheStats>>) -> Option<CacheStats> {
    let first = caches.next()??;
    caches.try_fold(first, |acc, c| Some(acc.merged(&c?)))
}

/// Slices `trace` into arrival-order batches and hands each to `sink`,
/// sorted by the Hilbert index of the probe centers (over the trace's own
/// center bounding box) when `cfg.hilbert_batching` is on. Returns the
/// number of batches, the widest one and, when `auto` is set, what the
/// self-tuning loop did.
///
/// Batch *composition* is always arrival-order slices — only the order
/// *within* a batch changes — so results cannot depend on the batching
/// mode or on tuning.
///
/// With `auto` (`--auto-batch`) the batch size is dynamic: every
/// [`AUTO_BATCH_WINDOW`] batches the run is re-scored from the cache hit
/// fraction and the disks' sequential-read fraction over the window. A
/// low score means poor locality: the batch grows (up to 4× the
/// configured base) so the Hilbert sort gets more queries to order into a
/// spatial sweep. A recovered score decays the batch back toward the
/// base, bounding queue latency.
pub(crate) fn feed_batches<E: QueryEngine + ?Sized>(
    engines: &[&E],
    trace: &[SpatialQuery],
    cfg: &ServeConfig,
    auto: bool,
    mut sink: impl FnMut(Vec<usize>),
) -> (usize, usize, Option<AutoBatchSummary>) {
    let universe = Aabb::union_all(trace.iter().map(|q| Aabb::from_point(q.center())));
    let base = cfg.batch.max(1);
    let cap = base.saturating_mul(4);
    let mut cur = base;
    let mut fed = 0usize;
    let mut widest = 0usize;
    let mut summary = auto.then(AutoBatchSummary::default);
    let window = || {
        let io = engines.iter().fold(IoStatsSnapshot::default(), |acc, e| {
            acc.merged(&e.io_snapshot())
        });
        (merged_cache(engines.iter().map(|e| e.cache_stats())), io)
    };
    let (mut win_cache, mut win_io) = if auto {
        window()
    } else {
        (None, IoStatsSnapshot::default())
    };
    let mut start = 0usize;
    while start < trace.len() {
        let end = (start + cur).min(trace.len());
        let mut ids: Vec<usize> = (start..end).collect();
        if cfg.hilbert_batching {
            // Tie-break on the query position so the order is total; one
            // curve index per query, not one per comparison.
            ids.sort_by_cached_key(|&i| {
                (hilbert::index_of_point(&trace[i].center(), &universe), i)
            });
        }
        widest = widest.max(ids.len());
        fed += 1;
        sink(ids);
        start = end;
        let Some(summary) = summary.as_mut() else {
            continue;
        };
        if !fed.is_multiple_of(AUTO_BATCH_WINDOW) || start >= trace.len() {
            continue;
        }
        // Score the window from whichever signals the engines expose. An
        // engine with neither (private pools, zero reads) never retunes —
        // the loop degenerates to the fixed base size.
        let (cache_now, io_now) = window();
        let io_delta = io_now.delta_since(&win_io);
        let mut score = 0.0f64;
        let mut signals = 0u32;
        if let (Some(after), Some(before)) = (cache_now, win_cache) {
            let d = after.delta_since(&before);
            if d.hits + d.misses > 0 {
                score += d.hits as f64 / (d.hits + d.misses) as f64;
                signals += 1;
            }
        }
        if io_delta.reads() > 0 {
            score += io_delta.seq_read_fraction();
            signals += 1;
        }
        (win_cache, win_io) = (cache_now, io_now);
        if signals > 0 {
            let score = score / f64::from(signals);
            summary.retunes += 1;
            if score < 0.5 && cur < cap {
                cur = (cur * 2).min(cap);
                summary.grows += 1;
            } else if score > 0.8 && cur > base {
                cur = (cur / 2).max(base);
                summary.shrinks += 1;
            }
        }
    }
    if let Some(summary) = summary.as_mut() {
        summary.final_batch = cur;
    }
    (fed, widest, summary)
}

fn execute_one(
    session: &mut dyn QuerySession,
    trace: &[SpatialQuery],
    qid: usize,
    queue_wait_nanos: u64,
) -> Executed {
    let (hits_before, misses_before) = session.pool_counters();
    let t = Instant::now();
    let ids = session.execute(&trace[qid]);
    let service_nanos = t.elapsed().as_nanos() as u64;
    let (hits_after, misses_after) = session.pool_counters();
    Executed {
        qid,
        ids,
        service_nanos,
        queue_wait_nanos,
        pool_hits: hits_after - hits_before,
        pool_misses: misses_after - misses_before,
    }
}
