//! Per-layer probes shared by every workload: each public call into the
//! core, storage and geometry layers is timed on its own, on the
//! workload's own pages and probes, and recorded as a span.

use crate::common::{median_ns, Outcome, Tracer};
use std::time::Instant;
use tfm_geom::{ElementId, SpatialElement, SpatialQuery};
use tfm_storage::{DecodedOutcome, Disk, ElementPageCodec, PageId, SharedPageCache};

/// Pages sampled for the read, decode and cache-hit timings.
const PAGE_SAMPLES: usize = 2000;

/// `n` items spread evenly over `v` (all of `v` when it is shorter).
pub fn spread<T: Copy>(v: &[T], n: usize) -> Vec<T> {
    if v.len() <= n {
        return v.to_vec();
    }
    (0..n).map(|i| v[i * v.len() / n]).collect()
}

/// Times the layers a probe crosses, one public call at a time:
///
/// * storage: `Disk::read_page`, `ElementPageCodec::decode_into` and a
///   decoded-tier hit of `SharedPageCache::read_decoded_tracked`;
/// * per probe (one request id each): the node/unit prefilter
///   (`schedule`, the engine's `prefetch_schedule` on a one-query slice),
///   a cache read per candidate page, `SpatialQuery::matches` over its
///   elements, and the result sort.
pub fn probe_layers(
    tr: &Tracer,
    o: &mut Outcome,
    disk: &Disk,
    cache: &SharedPageCache<'_>,
    pages: &[PageId],
    schedule: impl Fn(&[SpatialQuery]) -> Vec<PageId>,
    probes: &[SpatialQuery],
) {
    let codec = ElementPageCodec::new(disk.page_size());
    let sample = spread(pages, PAGE_SAMPLES);
    let mut buf = vec![0u8; disk.page_size()];
    let mut elems: Vec<SpatialElement> = Vec::new();
    let (mut read_ns, mut decode_ns, mut hit_ns) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &page) in sample.iter().enumerate() {
        let req = i as u64 + 1;
        let (_, d) = tr.time("storage.read_page", 0, req, |_| {
            disk.read_page(page, &mut buf)
        });
        read_ns.push(d.as_nanos() as u64);
        let (_, d) = tr.time("storage.decode", 0, req, |_| {
            elems.clear();
            codec.decode_into(&buf, &mut elems)
        });
        decode_ns.push(d.as_nanos() as u64);
        // The first read makes the page resident; the second is the hit.
        cache.read_decoded_tracked(&codec, page);
        let ((_, outcome), d) = tr.time("storage.cache_hit", 0, req, |_| {
            cache.read_decoded_tracked(&codec, page)
        });
        if outcome == DecodedOutcome::Decoded {
            hit_ns.push(d.as_nanos() as u64);
        }
    }
    o.layer("storage.read_page_ns", median_ns(&read_ns), "ns");
    o.layer("storage.decode_ns", median_ns(&decode_ns), "ns");
    o.layer("storage.cache_hit_ns", median_ns(&hit_ns), "ns");
    o.layer("storage.cache_hit.samples", hit_ns.len() as f64, "count");

    let (mut prefilter_ns, mut candidates) = (Vec::new(), 0u64);
    let (mut tested, mut matched, mut match_ns) = (0u64, 0u64, 0u64);
    for (i, q) in probes.iter().enumerate() {
        let req = i as u64 + 1;
        tr.time("probe", 0, req, |root| {
            let (cands, d) = tr.time("core.prefilter", root, req, |_| {
                schedule(std::slice::from_ref(q))
            });
            prefilter_ns.push(d.as_nanos() as u64);
            candidates += cands.len() as u64;
            let mut ids: Vec<ElementId> = Vec::new();
            for page in cands {
                let ((elems, _), _) = tr.time("storage.cache_read", root, req, |_| {
                    cache.read_decoded_tracked(&codec, page)
                });
                let t = Instant::now();
                for e in elems.iter() {
                    if q.matches(&e.mbb) {
                        ids.push(e.id);
                    }
                }
                let end = Instant::now();
                tr.record("geom.match", root, req, t, end);
                match_ns += (end - t).as_nanos() as u64;
                tested += elems.len() as u64;
            }
            matched += ids.len() as u64;
            tr.time("core.sort", root, req, |_| ids.sort_unstable());
        });
    }
    let n = probes.len().max(1) as f64;
    o.layer("core.prefilter_ns", median_ns(&prefilter_ns), "ns");
    o.layer(
        "core.candidate_pages_per_query",
        candidates as f64 / n,
        "count",
    );
    o.layer(
        "geom.match_ns",
        match_ns as f64 / tested.max(1) as f64,
        "ns",
    );
    o.layer("geom.tested_per_query", tested as f64 / n, "count");
    o.layer(
        "geom.match_frac",
        matched as f64 / tested.max(1) as f64,
        "frac",
    );
    o.layer("layers.probes", probes.len() as f64, "count");
}
