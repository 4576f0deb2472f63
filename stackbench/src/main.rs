//! The stack benchmark: one command, four workloads, every end-to-end
//! metric in an untraced run and every per-layer metric in a traced one.
//!
//! ```text
//! stackbench --biq <biq binary> --serve-flags "<biq serve flags>"
//!            --light-rps R --heavy-rps R --ladder-rps R,R,.. --p99-limit-us U
//!            --swap-every-ms T
//!            --workload <name> --seed N --seconds S --trace 0|1
//! ```
//!
//! `stackbench/run.sh` builds `biq` and this binary from source and passes
//! the fixed serving flags recorded in `BENCHMARK.json`.

mod model;
mod probe;
mod serve;

use stackbench::report::Report;
use stackbench::Tally;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// The `biq` CLI binary (artifacts are compiled and served by it).
    pub biq: PathBuf,
    /// Workload seed: weights and inputs derive from it.
    pub seed: u64,
    /// Length of the timed window.
    pub window: Duration,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub traced: bool,
    /// Scratch directory for artifacts and daemon logs.
    pub work: PathBuf,
    /// Flags passed to every `biq serve`.
    pub serve_flags: Vec<String>,
    /// Open-loop `light` rate, requests/s.
    pub light_rps: f64,
    /// Open-loop `heavy` rate, requests/s.
    pub heavy_rps: f64,
    /// The rate ladder, requests/s, ascending.
    pub ladder_rps: Vec<f64>,
    /// p99 limit of the ladder's stop rule.
    pub p99_limit_us: f64,
    /// Interval between `LoadModel` swaps on `serve-swap`.
    pub swap_every: Duration,
}

impl Ctx {
    /// Runs `biq compile <args> <out>` — the artifact path users run.
    pub fn compile(&self, args: &[&str], out: &Path) -> Result<(), String> {
        let status = Command::new(&self.biq)
            .arg("compile")
            .args(args)
            .arg(out)
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("spawn {}: {e}", self.biq.display()))?;
        if !status.success() {
            return Err(format!("biq compile {args:?} failed: {status}"));
        }
        Ok(())
    }
}

/// The workloads this binary runs.
const WORKLOADS: &[&str] = &["lstm-stream", "transformer-encode", "serve-steady", "serve-swap"];

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == key).ok_or_else(|| format!("missing {key}"))?;
        args.get(i + 1).map(String::as_str).ok_or_else(|| format!("{key} needs a value"))
    };
    let num = |key: &str| -> Result<f64, String> {
        get(key)?.parse::<f64>().map_err(|e| format!("{key}: {e}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (expected one of {WORKLOADS:?})"));
    }
    let seed = get("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = num("--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let traced = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    let ladder_rps = get("--ladder-rps")?
        .split(',')
        .map(|r| r.trim().parse::<f64>().map_err(|e| format!("--ladder-rps: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let work =
        PathBuf::from(".stackbench").join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let ctx = Ctx {
        biq: PathBuf::from(get("--biq")?),
        seed,
        window: Duration::from_secs_f64(seconds),
        traced,
        work,
        serve_flags: get("--serve-flags")?.split_whitespace().map(str::to_string).collect(),
        light_rps: num("--light-rps")?,
        heavy_rps: num("--heavy-rps")?,
        ladder_rps,
        p99_limit_us: num("--p99-limit-us")?,
        swap_every: Duration::from_millis(num("--swap-every-ms")? as u64),
    };
    Ok((workload, ctx))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("stackbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", stackbench::host::record());
    println!(
        "workload: {workload} seed={} seconds={} trace={}",
        ctx.seed,
        ctx.window.as_secs_f64(),
        u8::from(ctx.traced)
    );
    let mut report = Report::new(ctx.traced);
    let result: Result<(Tally, bool), String> = match workload.as_str() {
        "lstm-stream" => model::run(&ctx, model::Net::Lstm, &mut report),
        "transformer-encode" => model::run(&ctx, model::Net::Encoder, &mut report),
        "serve-steady" => serve::run(&ctx, false, &mut report),
        _ => serve::run(&ctx, true, &mut report),
    };
    // Artifacts and daemon logs are per run; traces stay in `.stackbench/`.
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok((tally, correct)) => report.print(tally, correct),
        Err(e) => {
            eprintln!("stackbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
}

/// Writes the traced run's spans next to the work directory.
pub fn write_trace(ctx: &Ctx, workload: &str, tracer: &stackbench::trace::Tracer) {
    let path = PathBuf::from(".stackbench").join(format!("trace-{workload}-seed{}.json", ctx.seed));
    match std::fs::write(&path, tracer.chrome_json()) {
        Ok(()) => println!("trace: {} spans -> {}", tracer.spans().len(), path.display()),
        Err(e) => println!("trace: write {} failed: {e}", path.display()),
    }
}

/// Prints one add-up check: `parts ≈ whole` within `tol` (a share).
pub fn check_sum(label: &str, parts: f64, whole: f64, tol: f64) {
    let dev = if whole > 0.0 { (parts - whole).abs() / whole } else { f64::INFINITY };
    println!(
        "check {label}: parts {parts:.1} vs whole {whole:.1} (deviation {:.1}%, tolerance {:.0}%): {}",
        dev * 100.0,
        tol * 100.0,
        if dev <= tol { "PASS" } else { "FAIL" }
    );
}
