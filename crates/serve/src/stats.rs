//! Serving statistics: per-query latencies and aggregate counters.

use std::time::Duration;
use tfm_storage::{CacheStats, IoStatsSnapshot};

/// Latency percentiles over one serve run, in nanoseconds.
///
/// Percentiles use the nearest-rank method over the collected per-query
/// samples; an empty sample set reports all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean_nanos: u64,
    /// Median (50th percentile).
    pub p50_nanos: u64,
    /// 95th percentile.
    pub p95_nanos: u64,
    /// 99th percentile.
    pub p99_nanos: u64,
    /// Slowest query.
    pub max_nanos: u64,
}

impl LatencySummary {
    /// Summarizes a set of per-query latency samples (consumed; sorted
    /// internally).
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let rank = |p: f64| {
            // Nearest-rank: ceil(p * n) clamped into the sample range.
            let r = (p * samples.len() as f64).ceil() as usize;
            samples[r.clamp(1, samples.len()) - 1]
        };
        Self {
            mean_nanos: (samples.iter().sum::<u64>() / samples.len() as u64),
            p50_nanos: rank(0.50),
            p95_nanos: rank(0.95),
            p99_nanos: rank(0.99),
            max_nanos: *samples.last().expect("non-empty"),
        }
    }

    /// Summarizes a recorded latency histogram (`tfm-obs`'s shared
    /// log-bucketed type — the serve loop records into it directly, so
    /// percentiles no longer require keeping every sample).
    ///
    /// `mean` and `max` are exact (the histogram tracks true sum and max);
    /// the percentiles are nearest-rank over the buckets, exact for
    /// samples below 64 ns and within the histogram's 1/32 relative
    /// error above — `from_histogram` and [`Self::from_samples`] agree
    /// to that tolerance on identical data.
    pub fn from_histogram(h: &tfm_obs::HistogramSnapshot) -> Self {
        if h.count == 0 {
            return Self::default();
        }
        Self {
            mean_nanos: h.sum / h.count,
            p50_nanos: h.percentile(0.50),
            p95_nanos: h.percentile(0.95),
            p99_nanos: h.percentile(0.99),
            max_nanos: h.max,
        }
    }

    /// Median as a [`Duration`].
    pub fn p50(&self) -> Duration {
        Duration::from_nanos(self.p50_nanos)
    }

    /// 95th percentile as a [`Duration`].
    pub fn p95(&self) -> Duration {
        Duration::from_nanos(self.p95_nanos)
    }

    /// 99th percentile as a [`Duration`].
    pub fn p99(&self) -> Duration {
        Duration::from_nanos(self.p99_nanos)
    }
}

/// What the self-tuning batch loop did during one run (`--auto-batch`);
/// see [`crate::ServeConfig::auto_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AutoBatchSummary {
    /// Retune decisions evaluated (one per feedback window).
    pub retunes: u64,
    /// Retunes that grew the batch size.
    pub grows: u64,
    /// Retunes that shrank the batch size.
    pub shrinks: u64,
    /// Batch size in effect when the trace ran out.
    pub final_batch: usize,
}

/// Per-shard counters of one serve run (a single engine is shard 0).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Query partials routed to this shard.
    pub routed: u64,
    /// Query partials actually executed (= routed unless shedding).
    pub executed: u64,
    /// Sub-batches refused by the full queue (shedding mode only).
    pub shed_batches: u64,
    /// Query partials lost to those refusals.
    pub shed: u64,
    /// Per-partial service-time percentiles on this shard.
    pub service: LatencySummary,
    /// Per-partial queue-wait percentiles: admission to worker pop.
    pub queue_wait: LatencySummary,
    /// This shard's cache-handle hits.
    pub pool_hits: u64,
    /// This shard's cache-handle misses (disk page reads).
    pub pool_misses: u64,
    /// This shard's own `SharedPageCache` counters for the run (`None`
    /// for private pools).
    pub cache: Option<CacheStats>,
    /// I/O delta on this shard's disk.
    pub io: IoStatsSnapshot,
    /// Partials served by each of this shard's workers.
    pub per_worker_queries: Vec<u64>,
}

/// Aggregate counters of one [`crate::serve_trace`] or
/// [`crate::serve_sharded`] run. A single engine is a one-shard cluster
/// that every query is routed to, so every field means the same at any
/// shard count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Queries in the trace.
    pub queries: u64,
    /// Result ids returned, summed over all queries.
    pub result_ids: u64,
    /// Batches the trace was split into.
    pub batches: u64,
    /// Largest batch (the configured batch size unless the trace is
    /// shorter).
    pub max_batch: usize,
    /// Workers per shard that served the trace.
    pub threads: usize,
    /// Whether batches were Hilbert-ordered before execution.
    pub hilbert_batching: bool,
    /// Wall-clock time of the serve run (batching, routing, queueing,
    /// execution).
    pub wall: Duration,
    /// Per-query service-time percentiles (probe execution only). A
    /// scattered query's service time is its critical path: the maximum
    /// over its shard partials.
    pub latency: LatencySummary,
    /// Per-query queue-wait percentiles (batch admission to worker pop;
    /// critical path over partials). All zeros on the inline path — one
    /// shard, one worker — which has no queue.
    pub queue_wait: LatencySummary,
    /// Cache-handle hits summed over all worker sessions of all shards.
    pub pool_hits: u64,
    /// Cache-handle misses (disk page reads) summed over all sessions.
    pub pool_misses: u64,
    /// Disk I/O delta during the run, summed over shard disks (the
    /// sequential/random read split Hilbert batching is visible in).
    pub io: IoStatsSnapshot,
    /// Partials served by each worker, shard-major — the skew shows how
    /// evenly the batch queues spread the load.
    pub per_worker_queries: Vec<u64>,
    /// Shared-cache counters of the run, summed over shard caches (decoded
    /// tier, contention); `None` when the engines run private pools.
    pub cache: Option<CacheStats>,
    /// Self-tuning batch-loop counters; `None` unless the run used
    /// [`crate::ServeConfig::auto_batch`] on a queued path.
    pub autobatch: Option<AutoBatchSummary>,
    /// Shards the trace was served by (1 for a single engine).
    pub shards: usize,
    /// Largest number of shards one query was routed to.
    pub fanout_max: usize,
    /// Query partials routed, summed over shards (= Σ per-query fanout).
    pub routed_partials: u64,
    /// Query partials lost to shedding (0 with backpressure admission).
    pub shed_partials: u64,
    /// Queries whose result is incomplete because ≥ 1 partial was shed.
    pub shed_queries: u64,
    /// Peak fraction of shard queues simultaneously full when a batch was
    /// admitted — the backpressure signal (1.0 means every shard was
    /// saturated at once).
    pub max_cluster_pressure: f64,
    /// Per-shard breakdowns.
    pub per_shard: Vec<ShardStats>,
}

impl ServeStats {
    /// Queries per wall-clock second.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.queries as f64 / secs
    }

    /// Fraction of page reads that were sequential — the locality win of
    /// Hilbert-ordered batching.
    pub fn seq_read_fraction(&self) -> f64 {
        self.io.seq_read_fraction()
    }

    /// Pool hit fraction over all worker sessions, in `0.0..=1.0`.
    pub fn pool_hit_fraction(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            return 0.0;
        }
        self.pool_hits as f64 / total as f64
    }

    /// Decoded-tier hit fraction of the shared cache (0 when the run used
    /// private pools, which have no decoded tier).
    pub fn decoded_hit_fraction(&self) -> f64 {
        self.cache.map_or(0.0, |c| c.decoded_hit_fraction())
    }

    /// Shard-lock contention fraction of the shared cache (0 for private
    /// pools).
    pub fn contention_fraction(&self) -> f64 {
        self.cache.map_or(0.0, |c| c.contention_fraction())
    }

    /// Mean shards routed per query.
    pub fn fanout_mean(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.routed_partials as f64 / self.queries as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_are_all_zero() {
        assert_eq!(
            LatencySummary::from_samples(vec![]),
            LatencySummary::default()
        );
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = LatencySummary::from_samples((1..=100).collect());
        assert_eq!(s.p50_nanos, 50);
        assert_eq!(s.p95_nanos, 95);
        assert_eq!(s.p99_nanos, 99);
        assert_eq!(s.max_nanos, 100);
        assert_eq!(s.mean_nanos, 50); // 5050 / 100
    }

    #[test]
    fn histogram_summary_agrees_with_sample_summary() {
        // Values below 64 land in width-1 buckets, so the two summaries
        // must agree exactly.
        let samples: Vec<u64> = (1..=60).collect();
        let h = tfm_obs::Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let from_h = LatencySummary::from_histogram(&h.snapshot());
        let from_s = LatencySummary::from_samples(samples);
        assert_eq!(from_h, from_s);

        // Larger values: percentiles agree within the histogram's 1/32
        // relative error; mean and max stay exact.
        let samples: Vec<u64> = (0..500).map(|i| 1_000 + 37 * i).collect();
        let h = tfm_obs::Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let from_h = LatencySummary::from_histogram(&h.snapshot());
        let from_s = LatencySummary::from_samples(samples);
        assert_eq!(from_h.mean_nanos, from_s.mean_nanos);
        assert_eq!(from_h.max_nanos, from_s.max_nanos);
        for (a, b) in [
            (from_h.p50_nanos, from_s.p50_nanos),
            (from_h.p95_nanos, from_s.p95_nanos),
            (from_h.p99_nanos, from_s.p99_nanos),
        ] {
            let err = (a as f64 - b as f64).abs() / b as f64;
            assert!(err <= 1.0 / 32.0, "histogram {a} vs samples {b}");
        }
    }

    #[test]
    fn empty_histogram_summary_is_default() {
        let h = tfm_obs::Histogram::new();
        assert_eq!(
            LatencySummary::from_histogram(&h.snapshot()),
            LatencySummary::default()
        );
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = LatencySummary::from_samples(vec![42]);
        assert_eq!(s.p50_nanos, 42);
        assert_eq!(s.p99_nanos, 42);
        assert_eq!(s.max_nanos, 42);
    }

    #[test]
    fn throughput_handles_zero_wall() {
        let stats = ServeStats::default();
        assert_eq!(stats.throughput_qps(), 0.0);
    }
}
