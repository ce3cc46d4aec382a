//! `tfm` — command-line front end for the TRANSFORMERS reproduction.
//!
//! ```text
//! tfm generate --count 100000 --distribution uniform --seed 1 --out a.elems
//! tfm generate --count 100000 --distribution dense-cluster --seed 2 --out b.elems
//! tfm join --a a.elems --b b.elems --approach transformers
//! tfm join --a a.elems --b b.elems --approach pbsm --verify
//! tfm info --in a.elems
//! ```

mod io;

use std::process::ExitCode;
use tfm_bench::{run_approach, Approach, RunConfig};
use tfm_datagen::{generate, neuro, DatasetSpec, Distribution};
use tfm_memjoin::{canonicalize, nested_loop_join, JoinStats};
use tfm_storage::StoreBackend;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("build") => cmd_build(&args[1..]),
        Some("join") => cmd_join(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("mutate") => cmd_mutate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`; try `tfm help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "tfm — TRANSFORMERS robust spatial joins (ICDE 2016 reproduction)

USAGE:
  tfm generate --count N --out FILE [--distribution D] [--seed S] [--max-side F]
      D: uniform | dense-cluster | uniform-cluster | massive-cluster | axons | dendrites
  tfm build --in FILE [--page-size N] [--build-threads N]
            [--unit-capacity N] [--node-capacity N]
            [--backend mem|file] [--store DIR]
      builds the TRANSFORMERS index once through the staged pipeline and
      reports hierarchy size, pages and build time; the index is
      byte-identical at any --build-threads setting. With --backend file
      the pages are written to a real on-disk image DIR/build.pages
  tfm join --a FILE --b FILE [--approach A] [--page-size N] [--threads N]
           [--build-threads N] [--no-transform] [--no-prune] [--private-pool]
           [--backend mem|file] [--store DIR] [--io-depth N] [--readahead N]
           [--cache-policy clock|2q] [--verify] [--skew-file PATH]
           [--metrics PATH] [--metrics-format jsonl|prometheus]
           [--metrics-interval-ms N]
      A: transformers | no-tr | pbsm | rtree | gipsy | sssj | s3 (default: transformers)
      --threads N: run the transformers join on N parallel workers (tfm-exec)
      --build-threads N: build the indexes on N parallel workers
                  (transformers, gipsy and rtree builds; default 1)
      --no-transform: parallel path only — workers skip role transformations
      --no-prune: parallel path only — disable the shared cross-worker
                  to-do-list pruning board (workers prune only locally)
      --private-pool: ablation — read join pages through per-worker private
                  buffer pools instead of the process-wide shared page cache
      --skew-file PATH: persist each workload's observed steal fraction in a
                  JSON sidecar and feed it back as the scheduler's recorded
                  skew signal on the next run (parallel path only)
      --io-depth N / --readahead N: on the file backend the parallel
                  transformers path prefetches each chunk's unit-page
                  schedule through N dedicated I/O threads, keeping up to
                  --readahead pages in flight (results stay byte-identical)
      --cache-policy clock|2q: shared-cache eviction policy — 2q adds
                  scan-resistant admission (prefetched pages are
                  probationary); clock is the ablation default
  tfm serve --in FILE [--engine E] [--queries N] [--threads N] [--batch N]
            [--no-hilbert] [--private-pool] [--mix M] [--page-size N]
            [--build-threads N] [--trace-seed S] [--window F] [--eps F]
            [--shards N] [--shard-partitioner hilbert|str] [--shed]
            [--backend mem|file] [--store DIR] [--io-depth N] [--readahead N]
            [--cache-policy clock|2q] [--auto-batch]
            [--verify] [--metrics PATH] [--metrics-format jsonl|prometheus]
            [--metrics-interval-ms N]
      builds the chosen index once, generates a deterministic query trace
      (window / point-enclosure / distance probes) and replays it on N
      serve workers with locality-aware (Hilbert-ordered) batching
      E: transformers | gipsy | rtree  (default: transformers)
      M: uniform | clustered | neuro   (default: uniform)
      --batch N: queries per batch (default 64); --no-hilbert replays each
                  batch in arrival order instead of Hilbert order;
                  --private-pool serves from per-worker pools instead of the
                  shared page cache (ablation)
      --shards N: serve through a sharded scatter-gather cluster of N
                  self-contained index shards (each with its own page cache
                  and worker pool of --threads workers); probes are routed
                  only to the shards their probe box intersects, and merged
                  results stay byte-identical to the unsharded path.
                  --shard-partitioner picks the dataset split (default
                  hilbert); --shed swaps blocking admission for load
                  shedding on the per-shard bounded queues
      --auto-batch: let the serve loop retune its batch size from the
                  observed cache hit fraction and sequential-read fraction
                  (multi-worker path; results stay byte-identical)
      --cache-policy clock|2q: shared-cache eviction policy (see tfm join)
  tfm mutate --in FILE [--ops N] [--write-permille N] [--insert-permille N]
             [--wal-dir DIR] [--threads N] [--batch N] [--seed S]
             [--page-size N] [--build-threads N] [--verify]
      builds the TRANSFORMERS index, adopts it into the mutable overlay
      and replays a deterministic mixed read/write trace against it:
      probes are served on N workers while inserts/deletes apply in
      write-ahead-logged batches (chunk size --batch)
      --ops N: total operations, reads + writes (default 1000)
      --write-permille N: fraction of ops that are writes, 0..=1000
                  (default 200); --insert-permille N: fraction of writes
                  that are inserts (default 700, rest are deletes)
      --wal-dir DIR: write every batch through a write-ahead log in DIR
                  (group commit, segment rotation); without it mutations
                  apply unlogged — fine for throughput runs, no crash
                  safety. The log is left in place for inspection;
                  recovery replays it via the tfm-wal crate
      --verify: after the replay, check every probe of the trace against
                  a full scan of the mutated dataset
  tfm info --in FILE
  tfm help

STORAGE BACKEND (build + join + serve):
  --backend file: keep every page in a real on-disk image under --store
      DIR (default: a per-run temp directory), read with positional I/O;
      the default mem backend keeps pages in memory. --backend
      file-checksummed adds a per-page checksum sidecar so torn
      data-page writes are detected on read (the write path's posture). On the file backend
      `tfm serve` and the parallel `tfm join` run a prefetch pipeline:
      --io-depth N puts N dedicated I/O threads behind the workers and
      --readahead N keeps up to N pages in flight — serve follows each
      batch's Hilbert-ordered page schedule, join follows each chunk's
      unit-page schedule from the claimed pivot run (shared-cache runs;
      results stay byte-identical).
      --store/--io-depth/--readahead require --backend file.

METRICS (join + serve):
  --metrics PATH: enable the tfm-obs registry for the run and export the
      cache/IO/latency/stage-timing metrics to PATH — JSON lines by default,
      Prometheus text with --metrics-format prometheus; serve additionally
      appends one trace line per query (queue-wait/service split and
      buffer-pool attribution). --metrics-interval-ms N makes a background
      thread append a registry snapshot every N ms (JSON lines only)."
    );
}

/// Looks up the value following `--name`.
fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    opt(args, name).ok_or_else(|| format!("missing required option {name} VALUE"))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

/// Parses a worker-count flag (default 1), rejecting 0 with a uniform
/// message.
fn parse_worker_count(args: &[String], name: &str) -> Result<usize, String> {
    let n: usize = parse(opt(args, name).unwrap_or("1"), name)?;
    if n == 0 {
        return Err(format!(
            "{name} must be at least 1 (0 workers cannot make progress)"
        ));
    }
    Ok(n)
}

/// Storage-backend options shared by `tfm build`, `tfm join` and
/// `tfm serve`.
struct StoreOpts {
    backend: StoreBackend,
    io_depth: usize,
    readahead: usize,
}

impl StoreOpts {
    /// The on-disk page-image directory, when the backend is a file.
    fn dir(&self) -> Option<&std::path::Path> {
        match &self.backend {
            StoreBackend::File(dir) | StoreBackend::FileChecksummed(dir) => Some(dir),
            StoreBackend::Mem => None,
        }
    }
}

/// Parses `--backend mem|file [--store DIR] [--io-depth N]
/// [--readahead N]`.
///
/// The page-image directory and the prefetch knobs only mean something
/// when pages live in a real file, so on the default mem backend every
/// flag of the group is rejected (same orphan-flag pattern as `--shed`
/// without `--shards`); `--io-depth 0` fails like `--threads 0` — the
/// depth is the number of dedicated I/O workers.
fn parse_store_opts(args: &[String]) -> Result<StoreOpts, String> {
    match opt(args, "--backend").unwrap_or("mem") {
        "mem" => {
            for name in ["--store", "--io-depth", "--readahead"] {
                if opt(args, name).is_some() {
                    return Err(format!("{name} requires --backend file"));
                }
            }
            Ok(StoreOpts {
                backend: StoreBackend::Mem,
                io_depth: 1,
                readahead: 0,
            })
        }
        kind @ ("file" | "file-checksummed") => {
            let dir = opt(args, "--store").map_or_else(
                || std::env::temp_dir().join(format!("tfm_store_{}", std::process::id())),
                std::path::PathBuf::from,
            );
            let io_depth = parse_worker_count(args, "--io-depth")?;
            let readahead: usize = parse(opt(args, "--readahead").unwrap_or("0"), "--readahead")?;
            let backend = if kind == "file" {
                StoreBackend::File(dir)
            } else {
                // Per-page checksum sidecar: torn data-page writes are
                // detected on read (the write path's default posture).
                StoreBackend::FileChecksummed(dir)
            };
            Ok(StoreOpts {
                backend,
                io_depth,
                readahead,
            })
        }
        other => Err(format!(
            "unknown backend `{other}` (mem | file | file-checksummed)"
        )),
    }
}

/// Parses `--cache-policy clock|2q` (default clock) for the commands that
/// read pages through the shared page cache (`tfm join`, `tfm serve`).
fn parse_cache_policy(args: &[String]) -> Result<tfm_storage::CachePolicy, String> {
    match opt(args, "--cache-policy") {
        Some(s) => s
            .parse::<tfm_storage::CachePolicy>()
            .map_err(|e| format!("invalid --cache-policy: {e}")),
        None => Ok(tfm_storage::CachePolicy::Clock),
    }
}

/// `--metrics` export options shared by `tfm join` and `tfm serve`.
struct MetricsOpts {
    path: String,
    prometheus: bool,
    interval: Option<std::time::Duration>,
}

/// Parses `--metrics PATH [--metrics-format jsonl|prometheus]
/// [--metrics-interval-ms N]`; `None` when `--metrics` is absent.
fn parse_metrics(args: &[String]) -> Result<Option<MetricsOpts>, String> {
    let Some(path) = opt(args, "--metrics") else {
        if opt(args, "--metrics-format").is_some() || opt(args, "--metrics-interval-ms").is_some() {
            return Err("--metrics-format/--metrics-interval-ms require --metrics PATH".into());
        }
        return Ok(None);
    };
    let prometheus = match opt(args, "--metrics-format").unwrap_or("jsonl") {
        "jsonl" => false,
        "prometheus" => true,
        other => {
            return Err(format!(
                "unknown metrics format `{other}` (jsonl | prometheus)"
            ))
        }
    };
    let interval = match opt(args, "--metrics-interval-ms") {
        None => None,
        Some(v) => {
            let ms: u64 = parse(v, "--metrics-interval-ms")?;
            if ms == 0 {
                return Err("--metrics-interval-ms must be at least 1".into());
            }
            Some(std::time::Duration::from_millis(ms))
        }
    };
    if prometheus && interval.is_some() {
        return Err(
            "periodic snapshots (--metrics-interval-ms) are JSON-lines only; \
             drop `--metrics-format prometheus`"
                .into(),
        );
    }
    Ok(Some(MetricsOpts {
        path: path.to_string(),
        prometheus,
        interval,
    }))
}

/// Arms the global registry (cleared, enabled) and starts the periodic
/// snapshot writer if an interval was requested. Runs before the index
/// build so the `build.*` stage timings land in this run's export.
fn start_metrics(m: &MetricsOpts) -> Result<Option<tfm_obs::SnapshotThread>, String> {
    tfm_obs::set_enabled(true);
    tfm_obs::global().reset();
    // Truncate any stale file from a previous run: both the snapshot
    // thread and the final export append.
    std::fs::write(&m.path, "").map_err(|e| format!("creating {}: {e}", m.path))?;
    match m.interval {
        Some(iv) => tfm_obs::SnapshotThread::start(tfm_obs::global(), m.path.clone().into(), iv)
            .map(Some)
            .map_err(|e| format!("starting snapshot thread: {e}")),
        None => Ok(None),
    }
}

/// Stops the snapshot writer, appends the final export (plus one trace
/// line per query in JSON-lines mode), parses the file back as a
/// self-check, and prints a one-line summary.
fn finish_metrics(
    m: &MetricsOpts,
    snap: Option<tfm_obs::SnapshotThread>,
    traces: &[tfm_obs::QueryTrace],
) -> Result<(), String> {
    use std::io::Write as _;
    if let Some(t) = snap {
        t.stop()
            .map_err(|e| format!("stopping snapshot thread: {e}"))?;
    }
    let snapshot = tfm_obs::global().snapshot();
    tfm_obs::set_enabled(false);
    let io_err = |e: std::io::Error| format!("writing {}: {e}", m.path);
    if m.prometheus {
        std::fs::write(&m.path, snapshot.to_prometheus()).map_err(io_err)?;
    } else {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&m.path)
            .map_err(io_err)?;
        f.write_all(snapshot.to_jsonl().as_bytes())
            .map_err(io_err)?;
        for t in traces {
            writeln!(f, "{}", t.to_json()).map_err(io_err)?;
        }
        f.flush().map_err(io_err)?;
        // Self-check: the export must round-trip through the parser even
        // with interleaved snapshot headers and trace lines.
        let text = std::fs::read_to_string(&m.path)
            .map_err(|e| format!("reading back {}: {e}", m.path))?;
        tfm_obs::MetricsSnapshot::parse_jsonl(&text)
            .map_err(|e| format!("{}: exported metrics failed to parse back: {e}", m.path))?;
    }
    let traces_note = if traces.is_empty() {
        String::new()
    } else {
        format!(" + {} query traces", traces.len())
    };
    println!(
        "metrics:         {} series{traces_note} -> {}",
        snapshot.entries.len(),
        m.path
    );
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let count: usize = parse(required(args, "--count")?, "--count")?;
    let out = required(args, "--out")?;
    let seed: u64 = parse(opt(args, "--seed").unwrap_or("0"), "--seed")?;
    let max_side: f64 = parse(opt(args, "--max-side").unwrap_or("1.0"), "--max-side")?;
    let dist = opt(args, "--distribution").unwrap_or("uniform");

    let elements = match dist {
        "uniform" => generate(&DatasetSpec {
            max_side,
            ..DatasetSpec::uniform(count, seed)
        }),
        "dense-cluster" => generate(&DatasetSpec {
            max_side,
            ..DatasetSpec::with_distribution(count, Distribution::dense_cluster_default(), seed)
        }),
        "uniform-cluster" => generate(&DatasetSpec {
            max_side,
            ..DatasetSpec::with_distribution(count, Distribution::uniform_cluster_default(), seed)
        }),
        "massive-cluster" => generate(&DatasetSpec {
            max_side,
            ..DatasetSpec::with_distribution(count, Distribution::massive_cluster_for(count), seed)
        }),
        "axons" => neuro::axons(count, seed),
        "dendrites" => neuro::dendrites(count, seed),
        other => return Err(format!("unknown distribution `{other}`")),
    };
    io::write_elements(out, &elements).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} elements to {out}", elements.len());
    Ok(())
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    use transformers::{IndexConfig, TransformersIndex};

    let path = required(args, "--in")?;
    let page_size: usize = parse(opt(args, "--page-size").unwrap_or("2048"), "--page-size")?;
    let build_threads = parse_worker_count(args, "--build-threads")?;
    let store = parse_store_opts(args)?;
    if opt(args, "--io-depth").is_some() || opt(args, "--readahead").is_some() {
        return Err(
            "--io-depth/--readahead drive the join/serve prefetch pipelines; \
             `tfm build` only writes the page image"
                .into(),
        );
    }
    if opt(args, "--cache-policy").is_some() {
        return Err(
            "--cache-policy selects the join/serve read-cache eviction policy; \
             `tfm build` only writes the page image"
                .into(),
        );
    }
    let mut cfg = IndexConfig::default().with_build_threads(build_threads);
    if let Some(v) = opt(args, "--unit-capacity") {
        cfg.unit_capacity = Some(parse(v, "--unit-capacity")?);
    }
    if let Some(v) = opt(args, "--node-capacity") {
        cfg.node_capacity = Some(parse(v, "--node-capacity")?);
    }

    let elems = io::read_elements(path).map_err(|e| format!("reading {path}: {e}"))?;
    let disk = tfm_storage::Disk::for_backend(&store.backend, page_size, "build")
        .map_err(|e| format!("creating page store: {e}"))?;
    let t = std::time::Instant::now();
    let idx = TransformersIndex::try_build(&disk, elems, &cfg)?;
    let wall = t.elapsed();
    let io = disk.stats();

    println!("dataset:         {path}");
    println!("elements:        {}", idx.len());
    println!(
        "hierarchy:       {} nodes, {} units (unit cap {}, node cap {})",
        idx.nodes().len(),
        idx.units().len(),
        idx.unit_capacity(),
        idx.node_capacity()
    );
    println!(
        "pages:           {} total ({} metadata)",
        disk.allocated_pages(),
        idx.metadata_pages()
    );
    println!("build threads:   {build_threads}");
    println!(
        "build time:      {:.3}s  ({:.3}s sim I/O + {:.3}s CPU)",
        wall.as_secs_f64() + io.sim_io_time().as_secs_f64(),
        io.sim_io_time().as_secs_f64(),
        wall.as_secs_f64()
    );
    if let Some(dir) = store.dir() {
        println!(
            "page image:      {} ({} bytes)",
            dir.join("build.pages").display(),
            disk.store_len()
        );
    }
    Ok(())
}

fn parse_approach(name: &str) -> Result<Approach, String> {
    Ok(match name {
        "transformers" => Approach::transformers(),
        "no-tr" => Approach::no_tr(),
        "pbsm" => Approach::Pbsm,
        "rtree" => Approach::Rtree,
        "gipsy" => Approach::Gipsy,
        "sssj" => Approach::Sssj,
        "s3" => Approach::S3,
        other => return Err(format!("unknown approach `{other}`")),
    })
}

fn cmd_join(args: &[String]) -> Result<(), String> {
    let path_a = required(args, "--a")?;
    let path_b = required(args, "--b")?;
    let approach = parse_approach(opt(args, "--approach").unwrap_or("transformers"))?;
    let page_size: usize = parse(opt(args, "--page-size").unwrap_or("2048"), "--page-size")?;
    let threads = parse_worker_count(args, "--threads")?;
    let build_threads = parse_worker_count(args, "--build-threads")?;
    let no_transform = flag(args, "--no-transform");
    let no_prune = flag(args, "--no-prune");
    let private_pool = flag(args, "--private-pool");
    let store = parse_store_opts(args)?;
    let cache_policy = parse_cache_policy(args)?;
    let parallel_transformers = threads > 1 && matches!(approach, Approach::Transformers(_));
    if (no_transform || no_prune) && !parallel_transformers {
        eprintln!(
            "note: --no-transform/--no-prune only affect the parallel transformers path \
             (--approach transformers --threads N > 1); ignored here"
        );
    }
    // Join prefetch runs where the unit-page schedule exists: the parallel
    // transformers path reading through the shared cache. Anywhere else a
    // requested readahead would silently demand-page, so say so.
    if store.readahead > 0 && (!parallel_transformers || private_pool) {
        eprintln!(
            "note: join prefetch (--readahead/--io-depth) engages on the parallel \
             transformers path with the shared page cache; this run demand-pages"
        );
    }

    // `--threads N` (N > 1) routes TRANSFORMERS through the parallel
    // execution subsystem (`tfm-exec`); other approaches are sequential.
    let approach = match (approach, threads) {
        (Approach::Transformers(mut join_cfg), t) => {
            join_cfg = join_cfg.with_cache_policy(cache_policy);
            if private_pool {
                join_cfg = join_cfg.with_private_pools();
            }
            if t > 1 {
                if no_transform {
                    join_cfg = join_cfg.without_worker_transforms();
                }
                if no_prune {
                    join_cfg = join_cfg.without_cross_worker_pruning();
                }
                // The exec layer turns these into the chunk-schedule
                // prefetch pipeline (no-ops with readahead 0).
                join_cfg = join_cfg
                    .with_readahead(store.readahead)
                    .with_io_depth(store.io_depth);
                Approach::TransformersParallel(join_cfg, t)
            } else {
                Approach::Transformers(join_cfg)
            }
        }
        (other, t) => {
            if t > 1 {
                eprintln!(
                    "note: --threads only affects the transformers approach; running sequentially"
                );
            }
            if opt(args, "--cache-policy").is_some() {
                eprintln!(
                    "note: --cache-policy only affects the transformers approach; ignored here"
                );
            }
            other
        }
    };

    let metrics = parse_metrics(args)?;
    let snap = match &metrics {
        Some(m) => start_metrics(m)?,
        None => None,
    };

    let a = io::read_elements(path_a).map_err(|e| format!("reading {path_a}: {e}"))?;
    let b = io::read_elements(path_b).map_err(|e| format!("reading {path_b}: {e}"))?;

    let cfg = RunConfig {
        page_size,
        build_threads,
        shared_cache: !private_pool,
        backend: store.backend.clone(),
        ..RunConfig::default()
    };
    // With --skew-file, the parallel path closes the steal-skew feedback
    // loop through the persistent sidecar: read the recorded signal before
    // the run, write the observed fraction after it. Keyed by the full
    // input paths — same-named files in different directories are
    // different workloads.
    let workload = format!("{path_a}|{path_b}");
    let (m, pairs) = match opt(args, "--skew-file") {
        Some(skew_path) => {
            let mut store = tfm_bench::SkewStore::load(skew_path);
            let recorded = store.recorded(&workload);
            let out =
                tfm_bench::run_approach_with_skew(&approach, &workload, &a, &b, &cfg, &mut store);
            store
                .save()
                .map_err(|e| format!("writing {skew_path}: {e}"))?;
            match (recorded, store.recorded(&workload)) {
                (Some(prev), _) => println!("skew:            recorded {prev:.3} fed back"),
                (None, Some(now)) => println!("skew:            {now:.3} recorded for next run"),
                _ => {}
            }
            out
        }
        None => run_approach(&approach, "cli", &a, &b, &cfg),
    };

    println!("approach:        {}", m.approach);
    if let Some(dir) = store.dir() {
        println!(
            "backend:         file ({}; io depth {}, readahead {} pages)",
            dir.display(),
            store.io_depth,
            store.readahead
        );
    }
    if cache_policy != tfm_storage::CachePolicy::Clock {
        println!("cache policy:    {cache_policy}");
    }
    println!("datasets:        |A| = {}, |B| = {}", m.n_a, m.n_b);
    println!("result pairs:    {}", m.results);
    println!(
        "build time:      {:.3}s  ({:.3}s sim I/O + {:.3}s CPU, {} build thread{})",
        m.index_time().as_secs_f64(),
        m.index_sim_io.as_secs_f64(),
        m.index_wall.as_secs_f64(),
        m.build_threads,
        if m.build_threads == 1 { "" } else { "s" }
    );
    println!(
        "join time:       {:.3}s  ({:.3}s sim I/O + {:.3}s CPU)",
        m.join_time().as_secs_f64(),
        m.join_sim_io.as_secs_f64(),
        m.join_wall.as_secs_f64()
    );
    println!(
        "join I/O:        {} pages ({} random, {} sequential)",
        m.pages_read, m.rand_reads, m.seq_reads
    );
    if m.prefetch_issued > 0 {
        println!(
            "join prefetch:   {} pages issued ({} hit, {} unused — {:.1}% unused)",
            m.prefetch_issued,
            m.prefetch_hits,
            m.prefetch_unused,
            m.prefetch_unused as f64 / m.prefetch_issued as f64 * 100.0
        );
    }
    println!("intersection tests: {}", m.tests);
    if m.transformations > 0 {
        println!("transformations: {}", m.transformations);
    }
    if let Some(mo) = &metrics {
        finish_metrics(mo, snap, &[])?;
    }

    if flag(args, "--verify") {
        let mut s = JoinStats::default();
        let expected = canonicalize(nested_loop_join(&a, &b, &mut s));
        if canonicalize(pairs) == expected {
            println!(
                "verify:          OK ({} pairs match the nested-loop oracle)",
                expected.len()
            );
        } else {
            return Err("result set does NOT match the nested-loop oracle".into());
        }
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use tfm_bench::{run_serve_traced, ServeEngineKind, ServeMetrics};
    use tfm_datagen::{generate_trace, ProbeMix, QueryTraceSpec};
    use tfm_serve::{serve_sharded, ServeConfig, ShardPartitioner, ShardSpec, ShardedCluster};

    let path = required(args, "--in")?;
    let engine = match opt(args, "--engine").unwrap_or("transformers") {
        "transformers" => ServeEngineKind::Transformers,
        "gipsy" => ServeEngineKind::Gipsy,
        "rtree" => ServeEngineKind::Rtree,
        other => return Err(format!("unknown serve engine `{other}`")),
    };
    let mix = match opt(args, "--mix").unwrap_or("uniform") {
        "uniform" => ProbeMix::Uniform,
        "clustered" => ProbeMix::Clustered { clusters: 8 },
        "neuro" => ProbeMix::NeuroCorrelated,
        other => return Err(format!("unknown probe mix `{other}`")),
    };
    let queries: usize = parse(opt(args, "--queries").unwrap_or("1000"), "--queries")?;
    let threads = parse_worker_count(args, "--threads")?;
    let batch: usize = parse(opt(args, "--batch").unwrap_or("64"), "--batch")?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let page_size: usize = parse(opt(args, "--page-size").unwrap_or("2048"), "--page-size")?;
    let build_threads = parse_worker_count(args, "--build-threads")?;
    let trace_seed: u64 = parse(opt(args, "--trace-seed").unwrap_or("1"), "--trace-seed")?;
    let window: f64 = parse(opt(args, "--window").unwrap_or("20"), "--window")?;
    let eps: f64 = parse(opt(args, "--eps").unwrap_or("5"), "--eps")?;
    let store = parse_store_opts(args)?;
    let cache_policy = parse_cache_policy(args)?;
    // --shards N switches to the sharded scatter-gather cluster: the
    // dataset is split into N self-contained index shards behind the
    // probe-box router, served by the same driver as a single engine.
    let shards = match opt(args, "--shards") {
        Some(n) => match parse::<usize>(n, "--shards")? {
            0 => return Err("--shards must be at least 1".into()),
            n => Some(n),
        },
        None if flag(args, "--shed") || opt(args, "--shard-partitioner").is_some() => {
            return Err("--shed/--shard-partitioner require --shards N".into())
        }
        None => None,
    };
    let partitioner = match opt(args, "--shard-partitioner").unwrap_or("hilbert") {
        "hilbert" => ShardPartitioner::Hilbert,
        "str" => ShardPartitioner::Str,
        other => {
            return Err(format!(
                "unknown shard partitioner `{other}` (hilbert | str)"
            ))
        }
    };
    let auto_batch = flag(args, "--auto-batch");
    if auto_batch && threads == 1 && shards.unwrap_or(1) == 1 {
        eprintln!(
            "note: --auto-batch tunes the queued batch loop; \
             the inline path (one shard, one worker) ignores it"
        );
    }

    let elems = io::read_elements(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = generate_trace(&QueryTraceSpec {
        max_window_side: window,
        max_eps: eps,
        ..QueryTraceSpec::with_mix(queries, mix, trace_seed)
    });
    let serve_cfg = ServeConfig {
        threads,
        batch,
        hilbert_batching: !flag(args, "--no-hilbert"),
        shared_cache: !flag(args, "--private-pool"),
        io_depth: store.io_depth,
        readahead: store.readahead,
        auto_batch,
        cache_policy,
        shed: flag(args, "--shed"),
        ..ServeConfig::default()
    };
    let metrics = parse_metrics(args)?;

    let snap = match &metrics {
        Some(m) => start_metrics(m)?,
        None => None,
    };
    // Every run collects one per-query trace (queue wait / service split,
    // pool attribution) for the JSON-lines export of --metrics.
    let (m, results, traces) = match shards {
        Some(shards) => {
            let spec = ShardSpec {
                shards,
                partitioner,
                engine,
                page_size,
                backend: store.backend.clone(),
                ..ShardSpec::default()
            };
            let cfg = serve_cfg.with_traces();
            let out = serve_sharded(&ShardedCluster::build(elems.clone(), &spec), &trace, &cfg);
            let m = ServeMetrics::from_stats(engine, "cli", elems.len(), &cfg, &out.stats);
            (m, out.results, out.traces)
        }
        None => {
            let run_cfg = RunConfig {
                page_size,
                build_threads,
                backend: store.backend.clone(),
                ..RunConfig::default()
            };
            run_serve_traced(engine, "cli", &elems, &trace, &run_cfg, &serve_cfg)
        }
    };

    println!(
        "engine:          {}{}",
        m.engine,
        if shards.is_some() { " (sharded)" } else { "" }
    );
    if let Some(dir) = store.dir() {
        println!(
            "backend:         file ({}; io depth {}, readahead {} pages)",
            dir.display(),
            store.io_depth,
            store.readahead
        );
    }
    println!("dataset:         {path} ({} elements)", m.n_elements);
    println!(
        "trace:           {} queries ({:?} probes, seed {trace_seed})",
        m.queries, mix
    );
    if shards.is_some() {
        println!(
            "cluster:         {} shards x {} workers ({:?} split)",
            m.shards, m.threads, partitioner
        );
        println!(
            "routing:         fanout mean {:.2} max {} ({} partials), \
             peak cluster pressure {:.0}%",
            m.fanout_mean,
            m.fanout_max,
            m.routed_partials,
            m.max_cluster_pressure * 100.0
        );
    }
    println!(
        "serving:         {} worker{}, batch {}, hilbert batching {}",
        m.threads,
        if m.threads == 1 { "" } else { "s" },
        m.batch,
        if m.hilbert_batching { "on" } else { "off" }
    );
    if m.autobatch_retunes > 0 || (auto_batch && m.threads * m.shards > 1) {
        println!(
            "auto-batch:      {} retunes ({} grew, {} shrank), final batch {}",
            m.autobatch_retunes, m.autobatch_grows, m.autobatch_shrinks, m.autobatch_final_batch
        );
    }
    if m.shed_partials > 0 {
        println!(
            "shedding:        {} partials shed — results are incomplete",
            m.shed_partials
        );
    }
    println!(
        "throughput:      {:.0} queries/s  ({:.3}s wall + {:.3}s sim I/O)",
        m.qps,
        m.wall.as_secs_f64(),
        m.sim_io.as_secs_f64()
    );
    println!(
        "latency:         p50 {:.1}us  p95 {:.1}us  p99 {:.1}us",
        m.p50.as_secs_f64() * 1e6,
        m.p95.as_secs_f64() * 1e6,
        m.p99.as_secs_f64() * 1e6
    );
    if m.threads * m.shards > 1 {
        println!(
            "queue wait:      p50 {:.1}us  p99 {:.1}us",
            m.queue_wait_p50.as_secs_f64() * 1e6,
            m.queue_wait_p99.as_secs_f64() * 1e6
        );
    }
    println!(
        "serve I/O:       {} pages ({} sequential, {} random — {:.1}% sequential), \
         {} pool hits ({:.1}% hit rate, {} cache)",
        m.pages_read,
        m.seq_reads,
        m.rand_reads,
        m.seq_read_fraction() * 100.0,
        m.pool_hits,
        m.pool_hit_fraction() * 100.0,
        if m.shared_cache { "shared" } else { "private" }
    );
    if m.shared_cache {
        println!(
            "cache:           {} policy, decoded tier {}/{} hits, lock contention {}/{}",
            m.cache_policy,
            m.decoded_hits,
            m.decoded_hits + m.decoded_misses,
            m.lock_contended,
            m.lock_acquisitions
        );
    }
    println!("result ids:      {}", m.result_ids);
    if let Some(mo) = &metrics {
        finish_metrics(mo, snap, &traces)?;
    }

    if flag(args, "--verify") {
        if m.shed_partials > 0 {
            return Err("cannot --verify a run that shed load".into());
        }
        for (i, q) in trace.iter().enumerate() {
            let mut expected: Vec<u64> = elems
                .iter()
                .filter(|e| q.matches(&e.mbb))
                .map(|e| e.id)
                .collect();
            expected.sort_unstable();
            if results[i] != expected {
                return Err(format!("query {i} diverges from the full-scan oracle"));
            }
        }
        println!(
            "verify:          OK (all {} queries match the full scan)",
            m.queries
        );
    }
    Ok(())
}

fn cmd_mutate(args: &[String]) -> Result<(), String> {
    use tfm_datagen::{generate_mixed_trace, MixedOp, MixedTraceSpec};
    use tfm_serve::{serve_trace, MutableTransformersEngine, ServeConfig};
    use tfm_storage::{NoopLog, RedoLog, SharedPageCache};
    use transformers::{IndexConfig, MutableTransformers, MutationOp, TransformersIndex};

    let path = required(args, "--in")?;
    let ops: usize = parse(opt(args, "--ops").unwrap_or("1000"), "--ops")?;
    let write_permille: u32 = parse(
        opt(args, "--write-permille").unwrap_or("200"),
        "--write-permille",
    )?;
    let insert_permille: u32 = parse(
        opt(args, "--insert-permille").unwrap_or("700"),
        "--insert-permille",
    )?;
    for (name, v) in [
        ("--write-permille", write_permille),
        ("--insert-permille", insert_permille),
    ] {
        if v > 1000 {
            return Err(format!("{name} is a permille value (0..=1000), got {v}"));
        }
    }
    let threads = parse_worker_count(args, "--threads")?;
    let batch: usize = parse(opt(args, "--batch").unwrap_or("64"), "--batch")?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let seed: u64 = parse(opt(args, "--seed").unwrap_or("1"), "--seed")?;
    let page_size: usize = parse(opt(args, "--page-size").unwrap_or("2048"), "--page-size")?;
    let build_threads = parse_worker_count(args, "--build-threads")?;

    let elems = io::read_elements(path).map_err(|e| format!("reading {path}: {e}"))?;
    let live_ids: Vec<u64> = elems.iter().map(|e| e.id).collect();
    let trace = generate_mixed_trace(
        &MixedTraceSpec {
            ops,
            write_permille,
            insert_permille,
            ..MixedTraceSpec::uniform(ops, write_permille, seed)
        },
        &live_ids,
    );

    let disk = tfm_storage::Disk::in_memory(page_size);
    let cfg = IndexConfig::default().with_build_threads(build_threads);
    let idx = TransformersIndex::try_build(&disk, elems.clone(), &cfg)?;
    let overlay = MutableTransformers::adopt(&idx, &disk);
    let cache = SharedPageCache::new(&disk, tfm_storage::DEFAULT_POOL_PAGES);

    // The redo log: a real segmented WAL under --wal-dir, or the no-op
    // log (instantly "durable", nothing written) without one.
    let wal = match opt(args, "--wal-dir") {
        Some(dir) => Some(
            tfm_wal::Wal::open(dir, tfm_wal::WalOptions::default())
                .map_err(|e| format!("opening WAL in {dir}: {e}"))?,
        ),
        None => None,
    };
    let noop = NoopLog::new();
    let log: &dyn RedoLog = match &wal {
        Some(w) => w,
        None => &noop,
    };

    // Replay in arrival-order chunks: each chunk's writes apply as one
    // WAL transaction, then its probes are served on the worker pool.
    let engine = MutableTransformersEngine::new(&overlay, &cache);
    let serve_cfg = ServeConfig {
        threads,
        batch,
        ..ServeConfig::default()
    };
    let t = std::time::Instant::now();
    let mut inserted = 0u64;
    let mut deleted = 0u64;
    let mut batches = 0u64;
    let mut queries = 0u64;
    let mut result_ids = 0u64;
    for chunk in trace.chunks(batch) {
        let writes: Vec<MutationOp> = chunk
            .iter()
            .filter_map(|op| match op {
                MixedOp::Insert(e) => Some(MutationOp::Insert(*e)),
                MixedOp::Delete(id) => Some(MutationOp::Delete(*id)),
                MixedOp::Query(_) => None,
            })
            .collect();
        if !writes.is_empty() {
            let out = overlay.apply_batch(log, &cache, &writes);
            if out.rejected_inserts + out.missing_deletes > 0 {
                return Err(format!(
                    "generated trace must replay cleanly: {} rejected inserts, {} missing deletes",
                    out.rejected_inserts, out.missing_deletes
                ));
            }
            inserted += out.inserted;
            deleted += out.deleted;
            batches += 1;
        }
        let probes = tfm_datagen::queries_of(chunk);
        if !probes.is_empty() {
            let out = serve_trace(&engine, &probes, &serve_cfg);
            queries += out.stats.queries;
            result_ids += out.stats.result_ids;
        }
    }
    let wall = t.elapsed();

    println!("dataset:         {path} ({} elements)", elems.len());
    println!(
        "trace:           {ops} ops (seed {seed}, {write_permille}permille writes, \
         {insert_permille}permille of writes insert)"
    );
    println!(
        "mutations:       {inserted} inserts + {deleted} deletes in {batches} batches \
         (chunk {batch})"
    );
    println!(
        "index:           {} -> {} elements",
        elems.len(),
        overlay.len()
    );
    println!(
        "reads:           {queries} probes on {threads} worker{}, {result_ids} result ids",
        if threads == 1 { "" } else { "s" }
    );
    println!(
        "replay time:     {:.3}s  ({:.0} ops/s)",
        wall.as_secs_f64(),
        ops as f64 / wall.as_secs_f64().max(1e-9)
    );
    if let Some(w) = &wal {
        let s = w.stats();
        println!(
            "wal:             {} records, {} bytes, {} commits, {} fsyncs, {} segment{} in {}",
            s.records,
            s.bytes,
            s.commits,
            s.fsyncs,
            s.segments,
            if s.segments == 1 { "" } else { "s" },
            w.dir().display()
        );
    } else {
        println!("wal:             off (no --wal-dir; mutations unlogged)");
    }

    if flag(args, "--verify") {
        // Replay the trace over a plain map to get the mutated dataset,
        // then hold every probe of the trace to the full-scan oracle.
        let mut live: std::collections::BTreeMap<u64, tfm_geom::SpatialElement> =
            elems.iter().map(|e| (e.id, *e)).collect();
        for op in &trace {
            match op {
                MixedOp::Insert(e) => {
                    live.insert(e.id, *e);
                }
                MixedOp::Delete(id) => {
                    live.remove(id);
                }
                MixedOp::Query(_) => {}
            }
        }
        let probes = tfm_datagen::queries_of(&trace);
        let out = serve_trace(&engine, &probes, &serve_cfg);
        for (i, q) in probes.iter().enumerate() {
            let mut expected: Vec<u64> = live
                .values()
                .filter(|e| q.matches(&e.mbb))
                .map(|e| e.id)
                .collect();
            expected.sort_unstable();
            if out.results[i] != expected {
                return Err(format!(
                    "probe {i} diverges from the full scan of the mutated dataset"
                ));
            }
        }
        println!(
            "verify:          OK (all {} probes match the mutated full scan)",
            probes.len()
        );
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let path = required(args, "--in")?;
    let elems = io::read_elements(path).map_err(|e| format!("reading {path}: {e}"))?;
    println!("file:      {path}");
    println!("elements:  {}", elems.len());
    if elems.is_empty() {
        return Ok(());
    }
    let extent = tfm_geom::Aabb::union_all(elems.iter().map(|e| e.mbb));
    println!(
        "extent:    [{:.1}, {:.1}, {:.1}] .. [{:.1}, {:.1}, {:.1}]",
        extent.min.x, extent.min.y, extent.min.z, extent.max.x, extent.max.y, extent.max.z
    );
    let mean_side: f64 = elems
        .iter()
        .map(|e| (e.mbb.extent(0) + e.mbb.extent(1) + e.mbb.extent(2)) / 3.0)
        .sum::<f64>()
        / elems.len() as f64;
    println!("mean side: {mean_side:.3}");
    // Density sketch: elements per z-slab (10 slabs).
    let mut hist = [0usize; 10];
    for e in &elems {
        let t = ((e.mbb.center().z - extent.min.z) / extent.extent(2).max(1e-12)).clamp(0.0, 1.0);
        hist[((t * 10.0) as usize).min(9)] += 1;
    }
    let max = hist.iter().copied().max().unwrap_or(1).max(1);
    println!("z-distribution:");
    for (i, c) in hist.iter().enumerate() {
        println!("  slab {i}: {:>8} {}", c, "#".repeat(c * 40 / max));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_parsing() {
        let args: Vec<String> = ["--count", "5", "--flag"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(opt(&args, "--count"), Some("5"));
        assert_eq!(opt(&args, "--missing"), None);
        assert!(flag(&args, "--flag"));
        assert!(!flag(&args, "--other"));
    }

    #[test]
    fn approach_names() {
        for name in [
            "transformers",
            "no-tr",
            "pbsm",
            "rtree",
            "gipsy",
            "sssj",
            "s3",
        ] {
            assert!(parse_approach(name).is_ok(), "{name}");
        }
        assert!(parse_approach("bogus").is_err());
    }

    #[test]
    fn zero_threads_is_rejected() {
        // `--threads 0` must fail fast with a clear message, before any
        // file I/O or scheduler construction happens.
        let args: Vec<String> = [
            "--a",
            "nonexistent.a",
            "--b",
            "nonexistent.b",
            "--threads",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = cmd_join(&args).expect_err("--threads 0 must be rejected");
        assert!(
            err.contains("--threads must be at least 1"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn zero_build_threads_is_rejected() {
        let args: Vec<String> = ["--a", "x.a", "--b", "x.b", "--build-threads", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = cmd_join(&args).expect_err("--build-threads 0 must be rejected");
        assert!(err.contains("--build-threads must be at least 1"), "{err}");
        let args: Vec<String> = ["--in", "x.elems", "--build-threads", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = cmd_build(&args).expect_err("--build-threads 0 must be rejected");
        assert!(err.contains("--build-threads must be at least 1"), "{err}");
    }

    #[test]
    fn build_command_end_to_end() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tfm_cli_build_{}.elems", std::process::id()));
        let gen_args: Vec<String> = [
            "--count",
            "500",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();
        for threads in ["1", "4"] {
            let build_args: Vec<String> = [
                "--in",
                path.to_str().unwrap(),
                "--build-threads",
                threads,
                "--unit-capacity",
                "16",
                "--node-capacity",
                "8",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            cmd_build(&build_args).unwrap_or_else(|e| panic!("threads {threads}: {e}"));
        }
        // Invalid capacities surface the validation error, not a panic.
        let bad_args: Vec<String> = ["--in", path.to_str().unwrap(), "--unit-capacity", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = cmd_build(&bad_args).expect_err("unit capacity 0 must fail");
        assert!(err.contains("unit_capacity"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parallel_flags_join_end_to_end() {
        let dir = std::env::temp_dir();
        let pa = dir.join(format!("tfm_cli_par_a_{}.elems", std::process::id()));
        let pb = dir.join(format!("tfm_cli_par_b_{}.elems", std::process::id()));
        for (path, seed) in [(&pa, "31"), (&pb, "32")] {
            let gen_args: Vec<String> = [
                "--count",
                "400",
                "--out",
                path.to_str().unwrap(),
                "--seed",
                seed,
                "--max-side",
                "8",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            cmd_generate(&gen_args).unwrap();
        }
        // Every escape-hatch combination must still verify against the
        // nested-loop oracle.
        for extra in [&[][..], &["--no-transform"][..], &["--no-prune"][..]] {
            let mut join_args: Vec<String> = [
                "--a",
                pa.to_str().unwrap(),
                "--b",
                pb.to_str().unwrap(),
                "--threads",
                "2",
                "--build-threads",
                "2",
                "--verify",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            join_args.extend(extra.iter().map(|s| s.to_string()));
            cmd_join(&join_args).unwrap_or_else(|e| panic!("{extra:?}: {e}"));
        }
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn serve_command_end_to_end() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tfm_cli_serve_{}.elems", std::process::id()));
        let gen_args: Vec<String> = [
            "--count",
            "800",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "21",
            "--max-side",
            "6",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();
        // Every engine serves the generated trace and verifies against the
        // full-scan oracle, batched and unbatched, 1 and 2 workers.
        for engine in ["transformers", "gipsy", "rtree"] {
            for extra in [&[][..], &["--no-hilbert", "--threads", "2"][..]] {
                let mut serve_args: Vec<String> = [
                    "--in",
                    path.to_str().unwrap(),
                    "--engine",
                    engine,
                    "--queries",
                    "60",
                    "--batch",
                    "16",
                    "--verify",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect();
                serve_args.extend(extra.iter().map(|s| s.to_string()));
                cmd_serve(&serve_args).unwrap_or_else(|e| panic!("{engine} {extra:?}: {e}"));
            }
        }
        // Bad flags fail fast with clear messages.
        let bad: Vec<String> = ["--in", path.to_str().unwrap(), "--engine", "bogus"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("serve engine"));
        let bad: Vec<String> = ["--in", path.to_str().unwrap(), "--threads", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("--threads"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_serve_command_end_to_end() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tfm_cli_shard_{}.elems", std::process::id()));
        let gen_args: Vec<String> = [
            "--count",
            "700",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "61",
            "--max-side",
            "6",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();
        // Sharded serving verifies against the full-scan oracle for both
        // partitioners and a couple of cluster shapes.
        for (shards, partitioner, threads) in [
            ("1", "hilbert", "1"),
            ("3", "hilbert", "2"),
            ("4", "str", "1"),
        ] {
            let serve_args: Vec<String> = [
                "--in",
                path.to_str().unwrap(),
                "--queries",
                "60",
                "--batch",
                "16",
                "--shards",
                shards,
                "--shard-partitioner",
                partitioner,
                "--threads",
                threads,
                "--verify",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            cmd_serve(&serve_args).unwrap_or_else(|e| panic!("shards={shards} {partitioner}: {e}"));
        }
        // Bad shard flags fail fast.
        let bad: Vec<String> = ["--in", path.to_str().unwrap(), "--shards", "0"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("--shards"));
        let bad: Vec<String> = [
            "--in",
            path.to_str().unwrap(),
            "--shards",
            "2",
            "--shard-partitioner",
            "bogus",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("shard partitioner"));
        let bad: Vec<String> = ["--in", path.to_str().unwrap(), "--shed"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("require --shards"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mutate_command_end_to_end() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path = dir.join(format!("tfm_cli_mutate_{pid}.elems"));
        let wal_dir = dir.join(format!("tfm_cli_mutate_wal_{pid}"));
        std::fs::remove_dir_all(&wal_dir).ok();
        cmd_generate(&sv(&[
            "--count",
            "600",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "51",
            "--max-side",
            "6",
        ]))
        .unwrap();

        // Logged and unlogged replays, single- and multi-worker reads,
        // all verified against the mutated full-scan oracle.
        for extra in [
            &[][..],
            &["--threads", "2", "--wal-dir"][..], // dir appended below
        ] {
            let mut mutate_args = sv(&[
                "--in",
                path.to_str().unwrap(),
                "--ops",
                "400",
                "--write-permille",
                "400",
                "--batch",
                "32",
                "--verify",
            ]);
            mutate_args.extend(extra.iter().map(|s| s.to_string()));
            if extra.contains(&"--wal-dir") {
                mutate_args.push(wal_dir.to_str().unwrap().to_string());
            }
            cmd_mutate(&mutate_args).unwrap_or_else(|e| panic!("{extra:?}: {e}"));
        }
        // The logged run left real segment files behind.
        let segments = std::fs::read_dir(&wal_dir)
            .expect("wal dir exists")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .count();
        assert!(segments > 0, "no WAL segments written");

        // Bad flags fail fast.
        let bad = sv(&["--in", path.to_str().unwrap(), "--write-permille", "1500"]);
        assert!(cmd_mutate(&bad).unwrap_err().contains("permille"));
        let bad = sv(&["--in", path.to_str().unwrap(), "--batch", "0"]);
        assert!(cmd_mutate(&bad).unwrap_err().contains("--batch"));
        let bad = sv(&["--in", path.to_str().unwrap(), "--threads", "0"]);
        assert!(cmd_mutate(&bad).unwrap_err().contains("--threads"));

        std::fs::remove_dir_all(&wal_dir).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_export_end_to_end() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path = dir.join(format!("tfm_cli_metrics_{pid}.elems"));
        let jsonl = dir.join(format!("tfm_cli_metrics_{pid}.jsonl"));
        let prom = dir.join(format!("tfm_cli_metrics_{pid}.prom"));
        let gen_args: Vec<String> = [
            "--count",
            "600",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "41",
            "--max-side",
            "6",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();

        // Serve with a periodic snapshot thread: the accumulated file must
        // parse and carry cache, queue-wait, latency-histogram and
        // per-stage build metrics (the ISSUE's acceptance shape).
        let serve_args: Vec<String> = [
            "--in",
            path.to_str().unwrap(),
            "--queries",
            "80",
            "--threads",
            "2",
            "--batch",
            "16",
            "--metrics",
            jsonl.to_str().unwrap(),
            "--metrics-interval-ms",
            "5",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_serve(&serve_args).unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let snap = tfm_obs::MetricsSnapshot::parse_jsonl(&text).unwrap();
        for name in [
            tfm_obs::names::CACHE_HITS,
            tfm_obs::names::SERVE_QUERIES,
            tfm_obs::names::CACHE_LOCK_ACQUISITIONS,
        ] {
            assert!(snap.counter(name).is_some(), "missing counter {name}");
        }
        let build_stage = format!("{}_nanos", tfm_obs::names::BUILD_UNIT_STR);
        for name in [
            tfm_obs::names::SERVE_SERVICE_NANOS,
            tfm_obs::names::SERVE_QUEUE_WAIT_NANOS,
            build_stage.as_str(),
        ] {
            assert!(snap.histogram(name).is_some(), "missing histogram {name}");
        }
        // Per-query trace lines ride along in the same file.
        assert!(
            text.lines().any(|l| l.contains("\"trace_id\"")),
            "no trace lines in export"
        );

        // Join with a Prometheus export.
        let join_args: Vec<String> = [
            "--a",
            path.to_str().unwrap(),
            "--b",
            path.to_str().unwrap(),
            "--threads",
            "2",
            "--metrics",
            prom.to_str().unwrap(),
            "--metrics-format",
            "prometheus",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_join(&join_args).unwrap();
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE cache_hits counter"), "{text}");
        assert!(text.contains("join_wall_nanos_bucket"), "{text}");

        // Bad flag combinations fail fast.
        let bad: Vec<String> = [
            "--in",
            path.to_str().unwrap(),
            "--metrics",
            jsonl.to_str().unwrap(),
            "--metrics-format",
            "xml",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("metrics format"));
        let bad: Vec<String> = ["--in", path.to_str().unwrap(), "--metrics-interval-ms", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(cmd_serve(&bad).unwrap_err().contains("require --metrics"));

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&prom).ok();
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn io_backend_flags_are_validated() {
        // `--io-depth 0` fails fast like `--threads 0`, before any file
        // I/O happens.
        let err = cmd_serve(&sv(&[
            "--in",
            "x.elems",
            "--backend",
            "file",
            "--io-depth",
            "0",
        ]))
        .expect_err("--io-depth 0 must be rejected");
        assert!(err.contains("--io-depth must be at least 1"), "{err}");

        // The page-image and prefetch flags are orphans on the default
        // mem backend — readahead over in-memory pages is meaningless.
        for orphan in [
            &["--io-depth", "4"][..],
            &["--readahead", "64"][..],
            &["--store", "/tmp/x"][..],
        ] {
            let mut serve_args = sv(&["--in", "x.elems"]);
            serve_args.extend(orphan.iter().map(|s| s.to_string()));
            let err = cmd_serve(&serve_args).expect_err("mem-backend orphan must be rejected");
            assert!(err.contains("requires --backend file"), "{err}");
            let mut join_args = sv(&["--a", "x.a", "--b", "x.b"]);
            join_args.extend(orphan.iter().map(|s| s.to_string()));
            let err = cmd_join(&join_args).expect_err("mem-backend orphan must be rejected");
            assert!(err.contains("requires --backend file"), "{err}");
        }

        // Unknown backend names fail with the candidate list.
        let err = cmd_serve(&sv(&["--in", "x.elems", "--backend", "nvme"])).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");

        // `tfm build` writes the image but has no prefetch pipeline and
        // no read cache.
        let err = cmd_build(&sv(&[
            "--in",
            "x.elems",
            "--backend",
            "file",
            "--io-depth",
            "2",
        ]))
        .expect_err("build must reject prefetch knobs");
        assert!(err.contains("prefetch"), "{err}");
        let err = cmd_build(&sv(&["--in", "x.elems", "--cache-policy", "2q"]))
            .expect_err("build must reject --cache-policy");
        assert!(err.contains("cache-policy"), "{err}");
    }

    #[test]
    fn cache_policy_and_auto_batch_flags_are_validated() {
        // Unknown policy names fail with the candidate list, on both
        // commands that read through the shared cache.
        let err = cmd_join(&sv(&["--a", "x.a", "--b", "x.b", "--cache-policy", "lru"]))
            .expect_err("unknown policy must be rejected");
        assert!(err.contains("unknown cache policy"), "{err}");
        let err = cmd_serve(&sv(&["--in", "x.elems", "--cache-policy", "arc"]))
            .expect_err("unknown policy must be rejected");
        assert!(err.contains("unknown cache policy"), "{err}");

        // Every serve flag works at every shard count: the cluster builds
        // its shard caches from --cache-policy / --private-pool and tunes
        // batches through the same feeder as a single engine.
        let path = std::env::temp_dir().join(format!("tfm_cli_flags_{}.elems", std::process::id()));
        let path_s = path.to_str().unwrap();
        cmd_generate(&sv(&[
            "--count",
            "600",
            "--out",
            path_s,
            "--seed",
            "71",
            "--max-side",
            "6",
        ]))
        .unwrap();
        for flags in [
            &["--threads", "2", "--auto-batch", "--cache-policy", "2q"][..],
            &["--private-pool"][..],
        ] {
            let mut args = sv(&[
                "--in",
                path_s,
                "--queries",
                "200",
                "--batch",
                "8",
                "--shards",
                "2",
                "--verify",
            ]);
            args.extend(sv(flags));
            cmd_serve(&args).unwrap_or_else(|e| panic!("--shards 2 {flags:?}: {e}"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backend_commands_end_to_end() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let elems = dir.join(format!("tfm_cli_io_{pid}.elems"));
        let store = dir.join(format!("tfm_cli_io_store_{pid}"));
        let store_s = store.to_str().unwrap().to_string();
        cmd_generate(&sv(&[
            "--count",
            "600",
            "--out",
            elems.to_str().unwrap(),
            "--seed",
            "91",
            "--max-side",
            "6",
        ]))
        .unwrap();

        // Build writes a real page image and reports it.
        cmd_build(&sv(&[
            "--in",
            elems.to_str().unwrap(),
            "--backend",
            "file",
            "--store",
            &store_s,
        ]))
        .unwrap();
        let image = store.join("build.pages");
        assert!(image.exists(), "build must write {}", image.display());
        assert!(image.metadata().unwrap().len() > 0, "empty page image");

        // Serve through the file backend with the prefetch pipeline on;
        // results verify against the full-scan oracle.
        cmd_serve(&sv(&[
            "--in",
            elems.to_str().unwrap(),
            "--backend",
            "file",
            "--store",
            &store_s,
            "--threads",
            "2",
            "--io-depth",
            "2",
            "--readahead",
            "64",
            "--queries",
            "60",
            "--batch",
            "16",
            "--auto-batch",
            "--cache-policy",
            "2q",
            "--verify",
        ]))
        .unwrap();
        assert!(store.join("serve.pages").exists(), "serve page image");

        // Sharded cluster: one page image per shard.
        cmd_serve(&sv(&[
            "--in",
            elems.to_str().unwrap(),
            "--backend",
            "file",
            "--store",
            &store_s,
            "--shards",
            "2",
            "--threads",
            "2",
            "--io-depth",
            "2",
            "--readahead",
            "32",
            "--queries",
            "60",
            "--batch",
            "16",
            "--verify",
        ]))
        .unwrap();
        for shard in 0..2 {
            assert!(
                store.join(format!("shard{shard}.pages")).exists(),
                "shard{shard} page image"
            );
        }

        // Parallel join over file-backed indexes with the prefetch
        // pipeline and 2Q admission on verifies against the nested-loop
        // oracle — prefetch and policy must not change results.
        cmd_join(&sv(&[
            "--a",
            elems.to_str().unwrap(),
            "--b",
            elems.to_str().unwrap(),
            "--backend",
            "file",
            "--store",
            &store_s,
            "--threads",
            "2",
            "--io-depth",
            "2",
            "--readahead",
            "64",
            "--cache-policy",
            "2q",
            "--verify",
        ]))
        .unwrap();
        assert!(store.join("tfm_a.pages").exists(), "join page image");

        std::fs::remove_dir_all(&store).ok();
        std::fs::remove_file(&elems).ok();
    }

    #[test]
    fn skew_file_round_trips_through_join() {
        let dir = std::env::temp_dir();
        let pa = dir.join(format!("tfm_cli_skew_a_{}.elems", std::process::id()));
        let pb = dir.join(format!("tfm_cli_skew_b_{}.elems", std::process::id()));
        let skew = dir.join(format!("tfm_cli_skew_{}.json", std::process::id()));
        std::fs::remove_file(&skew).ok();
        for (path, seed) in [(&pa, "71"), (&pb, "72")] {
            let gen_args: Vec<String> = [
                "--count",
                "400",
                "--out",
                path.to_str().unwrap(),
                "--seed",
                seed,
                "--max-side",
                "8",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            cmd_generate(&gen_args).unwrap();
        }
        let join_args: Vec<String> = [
            "--a",
            pa.to_str().unwrap(),
            "--b",
            pb.to_str().unwrap(),
            "--threads",
            "2",
            "--skew-file",
            skew.to_str().unwrap(),
            "--verify",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // First run records, second feeds back; both must verify.
        cmd_join(&join_args).unwrap();
        assert!(skew.exists(), "sidecar must be written");
        cmd_join(&join_args).unwrap();
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
        std::fs::remove_file(&skew).ok();
    }

    #[test]
    fn generate_and_join_end_to_end() {
        let dir = std::env::temp_dir();
        let pa = dir.join(format!("tfm_cli_a_{}.elems", std::process::id()));
        let pb = dir.join(format!("tfm_cli_b_{}.elems", std::process::id()));
        let gen_args: Vec<String> = [
            "--count",
            "300",
            "--out",
            pa.to_str().unwrap(),
            "--seed",
            "1",
            "--max-side",
            "8",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();
        let gen_args: Vec<String> = [
            "--count",
            "300",
            "--out",
            pb.to_str().unwrap(),
            "--seed",
            "2",
            "--max-side",
            "8",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_generate(&gen_args).unwrap();

        let join_args: Vec<String> = [
            "--a",
            pa.to_str().unwrap(),
            "--b",
            pb.to_str().unwrap(),
            "--approach",
            "transformers",
            "--verify",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        cmd_join(&join_args).unwrap();

        let info_args: Vec<String> = ["--in", pa.to_str().unwrap()]
            .iter()
            .map(|s| s.to_string())
            .collect();
        cmd_info(&info_args).unwrap();

        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }
}
