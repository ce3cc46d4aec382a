//! Shared plumbing: run context, result tables, statistics, span
//! recording, provenance and JSON output.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Page size of every disk in every workload (the CLI default).
pub const PAGE_SIZE: usize = 2048;

/// Everything a workload needs to know about the run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    pub tracer: Tracer,
    out_dir: PathBuf,
    tmp: PathBuf,
}

impl Ctx {
    pub fn new(workload: &str, seed: u64, seconds: Duration, traced: bool) -> Result<Self, String> {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let tmp = out_dir.join(format!("tmp-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
        // The registry is armed only around traced rounds; an inherited
        // `TFM_METRICS` must not switch it on for the untraced numbers.
        tfm_obs::set_enabled(false);
        Ok(Self {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            tracer: Tracer::new(traced),
            out_dir,
            tmp,
        })
    }

    /// A fresh directory for store images or WAL segments, inside the
    /// run's scratch directory (removed when the run ends).
    pub fn scratch_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.tmp.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Derives an independent seed for one input stream of the run.
    pub fn seed_for(&self, stream: u64) -> u64 {
        // splitmix64 of (seed, stream): nearby seeds give unrelated inputs.
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn write_out(&self, name: &str, body: &str) -> Result<(), String> {
        let path = self.out_dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    /// The detail object: provenance plus every metric under its full name.
    pub fn detail_json(&self, o: &Outcome) -> String {
        let mut prov = vec![
            ("seed".to_string(), self.seed.to_string()),
            ("seconds".to_string(), self.seconds.as_secs().to_string()),
            ("nproc".to_string(), nproc().to_string()),
            ("cpu_model".to_string(), tfm_bench::host_cpu_model()),
            ("page_size".to_string(), PAGE_SIZE.to_string()),
        ];
        prov.extend(o.provenance.iter().cloned());
        let prov: Vec<String> = prov
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let notes: Vec<String> = o.notes.iter().map(|n| json_str(n)).collect();
        let spans: Vec<String> = self
            .tracer
            .self_times()
            .iter()
            .map(|(name, (count, total, own))| {
                format!(
                    "{}: {{\"count\": {count}, \"total_s\": {total}, \"self_s\": {own}}}",
                    json_str(name)
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"traced\": {}, \"attempted\": {}, \"failed\": {}, \
             \"provenance\": {{{}}}, \"end_to_end\": {}, \"per_layer\": {}, \"spans\": {{{}}}, \
             \"notes\": [{}]}}",
            json_str(&self.workload),
            self.traced,
            o.attempted,
            o.failed,
            prov.join(", "),
            metrics_json(&o.e2e),
            metrics_json(&o.layer),
            spans.join(", "),
            notes.join(", ")
        )
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// A metric table: full name → (value, unit).
pub type Table = BTreeMap<String, (f64, &'static str)>;

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong (or which were refused).
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub e2e: Table,
    /// Per-layer metrics (traced run).
    pub layer: Table,
    /// Key/value provenance beyond the common fields.
    pub provenance: Vec<(String, String)>,
    /// Anything withheld or worth a reader's attention.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.insert(name.to_string(), (value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.insert(name.to_string(), (value, unit));
    }

    pub fn prov(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Records a latency percentile with its sample count, or a note when
    /// fewer than ten samples lie beyond it.
    pub fn percentile_us(&mut self, name: &str, samples_ns: &[u64], p: f64) {
        let n = samples_ns.len();
        match percentile(samples_ns, p) {
            Some(v) => {
                self.e2e(name, v as f64 / 1e3, "us");
                self.e2e(&format!("{name}.samples"), n as f64, "count");
            }
            None => self.notes.push(format!(
                "{name} withheld: {n} samples leave fewer than ten beyond p{}",
                p * 100.0
            )),
        }
    }

    /// Records a per-round end-to-end metric as its median over `values`,
    /// with the quartiles and the round count beside it; returns the median.
    pub fn rounds(&mut self, name: &str, values: &[f64], unit: &'static str) -> f64 {
        let m = median(values);
        self.e2e(name, m, unit);
        self.e2e(&format!("{name}.q1"), quantile(values, 0.25), unit);
        self.e2e(&format!("{name}.q3"), quantile(values, 0.75), unit);
        self.e2e(&format!("{name}.rounds"), values.len() as f64, "count");
        m
    }

    /// Records the setup-time metrics shared by every workload.
    pub fn setup(&mut self, setup_walls: &[f64]) {
        self.rounds("setup_s", setup_walls, "s");
    }
}

fn metrics_json(t: &Table) -> String {
    let items: Vec<String> = t
        .iter()
        .filter(|(_, (v, _))| v.is_finite())
        .map(|(k, (v, u))| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(k),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `v` (mean of the middle two for even lengths; NaN if empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Linearly interpolated quantile `q` of `v` (NaN if empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile, or `None` when fewer than ten samples lie
/// beyond it.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    let n = samples.len();
    if (n as f64) * (1.0 - p) < 10.0 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(s[rank - 1])
}

/// Median of `f` over `items`.
pub fn median_by<T>(items: &[&T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(|x| f(x)).collect::<Vec<_>>())
}

/// Median of per-call nanosecond samples, in nanoseconds.
pub fn median_ns(samples: &[u64]) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    median(&v)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resets the kernel's peak-RSS mark, so the next [`peak_rss_mb`] covers
/// only what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (from `/proc/self/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Times `f` from the outside.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// One recorded call: `parent` 0 marks a root; `req` identifies the query,
/// join or commit the call served.
struct Span {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder around the benchmark's calls into the layers.
/// Off in untraced runs: calls are still timed, nothing is kept.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` (which receives its span id, for children) and records a
    /// span around it when tracing is on; returns the result and the
    /// wall time of the call.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        let id = if self.on {
            self.next.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        };
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        if self.on {
            self.push(id, name, parent, req, start, end);
        }
        (r, end - start)
    }

    /// Records an already-timed call (for callbacks the library makes into
    /// benchmark code, such as the WAL wrapper).
    pub fn record(&self, name: &'static str, parent: u64, req: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
            self.push(id, name, parent, req, start, end);
        }
    }

    fn push(&self, id: u64, name: &'static str, parent: u64, req: u64, s: Instant, e: Instant) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            req,
            name,
            start_ns: ns(s),
            end_ns: ns(e),
        });
    }

    /// Per span name: (count, total seconds, self seconds), where self
    /// time is the span minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e9;
            e.2 += own as f64 / 1e9;
        }
        out
    }

    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = String::new();
        for s in spans.iter() {
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.id,
                s.parent,
                s.req,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// Sum of every `build.*` stage-span histogram in the armed registry, in
/// seconds, keyed by stage name.
pub fn build_stage_seconds() -> Vec<(String, f64)> {
    tfm_obs::global()
        .snapshot()
        .entries
        .into_iter()
        .filter_map(|e| match e.value {
            tfm_obs::MetricValue::Histogram(h)
                if e.name.starts_with("build.") && e.name.ends_with("_nanos") && h.count > 0 =>
            {
                Some((
                    e.name.trim_end_matches("_nanos").to_string(),
                    h.sum as f64 / 1e9,
                ))
            }
            _ => None,
        })
        .collect()
}

/// A counter of the global registry (0 when never registered).
pub fn obs_counter(name: &str) -> u64 {
    tfm_obs::global().snapshot().counter(name).unwrap_or(0)
}
