//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot|join-skewed|mutate-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up several
//! times (the median is `setup_s`), measures for `--seconds` seconds by
//! timing the library's public calls from the outside, and checks every
//! output against an independent reference outside the timed region.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! traced run (span recorder on, `tfm-obs` registry armed) that reports
//! the per-layer metrics. The last stdout line is the result object;
//! the line before it holds every metric of the run under its full name,
//! plus provenance. Both are also written under `perfbench/out/`.

mod common;
mod join_skewed;
mod layers;
mod mutate_mixed;
mod serve_hot;

use common::{json_str, Ctx, Outcome};
use std::process::ExitCode;
use std::time::Duration;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["serve-hot", "join-skewed", "mutate-mixed"];

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [&str; 3] = ["setup_s", "ops_per_s", "peak_rss_mb"];

/// Per-layer metrics every workload reports with `--trace 1`.
const PER_LAYER: [&str; 10] = [
    "build.index_s",
    "core.prefilter_ns",
    "core.candidate_pages_per_query",
    "storage.read_page_ns",
    "storage.decode_ns",
    "storage.cache_hit_ns",
    "cache.hit_frac",
    "geom.match_ns",
    "geom.match_frac",
    "obs.trace_overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = match Ctx::new(
        &args.workload,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let result = match args.workload.as_str() {
        "serve-hot" => serve_hot::run(&ctx),
        "join-skewed" => join_skewed::run(&ctx),
        _ => mutate_mixed::run(&ctx),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    match report(&ctx, &outcome) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Prints the detail line and the result line, and writes both (plus the
/// span log of a traced run) under `perfbench/out/`.
fn report(ctx: &Ctx, o: &Outcome) -> Result<(), String> {
    let (kind, names): (&str, &[&str]) = if ctx.traced {
        ("per_layer", &PER_LAYER)
    } else {
        ("end_to_end", &END_TO_END)
    };
    let table = if ctx.traced { &o.layer } else { &o.e2e };
    let mut metrics = Vec::new();
    for name in names {
        let (value, unit) = table
            .get(*name)
            .ok_or_else(|| format!("{} did not measure {kind} metric {name}", ctx.workload))?;
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    let detail = ctx.detail_json(o);
    ctx.write_out(
        &format!(
            "{}-seed{}-trace{}.json",
            ctx.workload, ctx.seed, ctx.traced as u8
        ),
        &format!("{detail}\n{result}\n"),
    )?;
    if ctx.traced {
        ctx.write_out(
            &format!("{}-seed{}.spans.jsonl", ctx.workload, ctx.seed),
            &ctx.tracer.to_jsonl(),
        )?;
    }
    println!("{detail}");
    println!("{result}");
    Ok(())
}
