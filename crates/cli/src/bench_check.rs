//! `biq bench check`: the CI perf-regression gate.
//!
//! PRs 1–5 each left a machine-readable perf record under `results/`
//! (`BENCH_biqgemm.json`, `BENCH_serve.json`, `BENCH_net.json`). Until now
//! those were write-only trajectory markers; this command turns them into
//! an enforced baseline: it re-measures each comparable row **fresh, in
//! quick mode, on the current machine** and fails when a fresh median
//! regresses past a configurable tolerance.
//!
//! What is compared (medians and throughputs only — latency quantiles are
//! far too noisy for a gate):
//!
//! * `biqgemm:<workload>` — the query-kernel median (`biqgemm_median_ns`)
//!   per workload row, re-measured on the identical seeded workload;
//! * `simd:<workload> <level>` — the **b = 1** query median per pinned
//!   kernel level (`query_median_ns` from `BENCH_simd.json`); this is the
//!   single-column serving latency the canonical-tree gather path exists
//!   for, gated level by level so a regression in one body (say the AVX2
//!   gather) cannot hide behind a faster Auto pick. Rows for levels this
//!   host cannot run (a NEON baseline on x86) are skipped, as are b > 1
//!   rows (those are covered by the `biqgemm:` workloads);
//! * `serve:<mode>` — batched/unbatched serving throughput
//!   (`throughput_rps`), re-replayed at the row's window/cap/workers;
//! * `net:<mode>` — in-process vs remote loopback throughput.
//!
//! Noisy rows opt out with `--skip <substring>` (matched against the row
//! key, e.g. `--skip serve:unbatched` or `--skip net:`). Missing baseline
//! files are skipped silently — the gate only checks what is committed.
//!
//! **Host-drift normalization.** On shared or virtualised hosts the same
//! binary can measure 2x apart minutes apart (co-tenant load, frequency,
//! steal time), and the bursts are shorter than a gate run — a run-level
//! correction misses the rows a burst actually hit. When
//! `BENCH_host.json` is committed, the gate brackets **each fresh
//! measurement** with quick samples of the identical fixed canary
//! workload ([`host_canary_quick_ns`]), takes the worse bracket as that
//! moment's host speed, and divides the drift vs the committed canary out
//! of that row's fresh value before judging — a loaded machine is not a
//! code regression. The factor is clamped at ≥ 1 (a faster host never
//! loosens the gate in the other direction) and large per-row factors are
//! printed, so a pass that leaned on drift is visible in the log.

use crate::net_cmds::net_bench_rows;
use crate::serve_bench::serve_bench_rows;
use crate::traffic::TrafficConfig;
use crate::CliError;
use biq_bench::timing::{auto_reps, host_canary_quick_ns, measure};
use biq_bench::workloads::binary_workload;
use biq_runtime::{
    compile, BackendSpec, Executor, KernelLevel, KernelRequest, PlanBuilder, QuantMethod,
    Threading, WeightSource,
};
use biqgemm_core::BiqConfig;
use std::path::{Path, PathBuf};
use std::time::Duration;

// ------------------------------------------------------------------- json

/// A minimal JSON reader for the flat records the bench writers emit.
/// Hand-rolled because the workspace is offline (no serde): recursive
/// descent with a depth cap, full UTF-8 strings, f64 numbers.
mod json {
    /// A parsed JSON value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (f64 precision is plenty for bench records).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The value as a number, if it is one.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The value as a string, if it is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
    }

    const MAX_DEPTH: usize = 32;

    struct Parser<'a> {
        s: &'a [u8],
        at: usize,
    }

    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// tokens are an error).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { s: text.as_bytes(), at: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.at != p.s.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(v)
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
                self.at += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.s.get(self.at).copied().ok_or_else(|| "unexpected end".into())
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek()? == c {
                self.at += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at offset {}", c as char, self.at))
            }
        }

        fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
            if self.s[self.at..].starts_with(word.as_bytes()) {
                self.at += word.len();
                Ok(v)
            } else {
                Err(format!("bad literal at offset {}", self.at))
            }
        }

        fn value(&mut self, depth: usize) -> Result<Value, String> {
            if depth > MAX_DEPTH {
                return Err("nesting too deep".into());
            }
            match self.peek()? {
                b'n' => self.lit("null", Value::Null),
                b't' => self.lit("true", Value::Bool(true)),
                b'f' => self.lit("false", Value::Bool(false)),
                b'"' => Ok(Value::Str(self.string()?)),
                b'[' => {
                    self.eat(b'[')?;
                    let mut items = Vec::new();
                    if self.peek()? == b']' {
                        self.at += 1;
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        items.push(self.value(depth + 1)?);
                        match self.peek()? {
                            b',' => self.at += 1,
                            b']' => {
                                self.at += 1;
                                return Ok(Value::Arr(items));
                            }
                            c => return Err(format!("expected ',' or ']', got '{}'", c as char)),
                        }
                    }
                }
                b'{' => {
                    self.eat(b'{')?;
                    let mut fields = Vec::new();
                    if self.peek()? == b'}' {
                        self.at += 1;
                        return Ok(Value::Obj(fields));
                    }
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.eat(b':')?;
                        fields.push((key, self.value(depth + 1)?));
                        match self.peek()? {
                            b',' => self.at += 1,
                            b'}' => {
                                self.at += 1;
                                return Ok(Value::Obj(fields));
                            }
                            c => return Err(format!("expected ',' or '}}', got '{}'", c as char)),
                        }
                    }
                }
                _ => self.number(),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                let c = *self.s.get(self.at).ok_or("unterminated string")?;
                self.at += 1;
                match c {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let esc = *self.s.get(self.at).ok_or("unterminated escape")?;
                        self.at += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            other => {
                                return Err(format!("unsupported escape '\\{}'", other as char))
                            }
                        }
                    }
                    _ => {
                        // Multi-byte UTF-8: copy the raw byte; the input is
                        // a &str so sequences are already valid.
                        let start = self.at - 1;
                        let mut end = self.at;
                        while end < self.s.len() && c >= 0x80 && self.s[end] & 0xc0 == 0x80 {
                            end += 1;
                        }
                        out.push_str(
                            std::str::from_utf8(&self.s[start..end])
                                .map_err(|_| "invalid utf-8 in string".to_string())?,
                        );
                        self.at = end;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            self.skip_ws();
            let start = self.at;
            while self.at < self.s.len()
                && matches!(self.s[self.at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                self.at += 1;
            }
            let raw = std::str::from_utf8(&self.s[start..self.at])
                .map_err(|_| "invalid number".to_string())?;
            raw.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number '{raw}'"))
        }
    }
}

pub use json::Value as JsonValue;

/// Parses one of the bench record files into its row objects.
pub fn parse_rows(text: &str) -> Result<Vec<JsonValue>, CliError> {
    match json::parse(text).map_err(CliError)? {
        JsonValue::Arr(rows) => Ok(rows),
        _ => Err(CliError("bench record is not a JSON array".into())),
    }
}

// ------------------------------------------------------------------ gate

/// Whether a metric regresses by going up or by going down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Time-like metrics (ns): fresh/baseline over tolerance fails.
    LowerIsBetter,
    /// Throughput-like metrics (req/s): baseline/fresh over tolerance fails.
    HigherIsBetter,
}

/// One comparable baseline row.
#[derive(Clone, Debug)]
pub struct GateRow {
    /// Stable row key (`biqgemm:m=512 n=512 b=1`, `serve:batched`, …).
    pub key: String,
    /// Committed value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// Which way regression points.
    pub direction: Direction,
}

impl GateRow {
    /// The regression factor: > 1 means the fresh run is worse; compare
    /// against the tolerance.
    pub fn regression(&self) -> f64 {
        match self.direction {
            Direction::LowerIsBetter => self.fresh / self.baseline.max(f64::MIN_POSITIVE),
            Direction::HigherIsBetter => self.baseline / self.fresh.max(f64::MIN_POSITIVE),
        }
    }
}

/// The verdict for one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateStatus {
    /// Within tolerance.
    Ok,
    /// Regressed past tolerance.
    Regressed,
    /// Opted out via `--skip`.
    Skipped,
}

/// The host-drift factor: how much slower the machine is right now than
/// it was when the baselines were recorded, per the fixed canary workload.
/// Clamped below at 1.0 — a *faster* host never tightens the gate (its
/// fresh values are already flattered), only a slower one is excused.
pub fn drift_factor(fresh_canary: f64, baseline_canary: f64) -> f64 {
    (fresh_canary / baseline_canary.max(f64::MIN_POSITIVE)).max(1.0)
}

/// Divides pure machine drift out of the fresh measurements: time-like
/// rows get faster by `drift`, throughput-like rows get proportionally
/// higher. After this, `GateRow::regression` compares code against code.
pub fn normalize_for_drift(rows: &mut [GateRow], drift: f64) {
    for r in rows {
        match r.direction {
            Direction::LowerIsBetter => r.fresh /= drift,
            Direction::HigherIsBetter => r.fresh *= drift,
        }
    }
}

/// Pure verdict step, separated from measurement so it unit-tests without
/// running benches.
pub fn judge(rows: &[GateRow], tolerance: f64, skips: &[String]) -> Vec<(GateRow, GateStatus)> {
    rows.iter()
        .map(|r| {
            let status = if skips.iter().any(|s| r.key.contains(s.as_str())) {
                GateStatus::Skipped
            } else if r.regression() > tolerance {
                GateStatus::Regressed
            } else {
                GateStatus::Ok
            };
            (r.clone(), status)
        })
        .collect()
}

/// Parameters of one `biq bench check` run.
#[derive(Clone, Debug)]
pub struct BenchCheckConfig {
    /// Directory holding the committed `BENCH_*.json` baselines.
    pub dir: PathBuf,
    /// Maximum tolerated regression factor (fresh vs baseline median).
    pub tolerance: f64,
    /// Row-key substrings to skip (noisy rows opt out here).
    pub skips: Vec<String>,
    /// Requests per serving replay (quick mode).
    pub requests: usize,
}

impl Default for BenchCheckConfig {
    fn default() -> Self {
        Self { dir: PathBuf::from("results"), tolerance: 1.5, skips: Vec::new(), requests: 400 }
    }
}

fn row_f64(row: &JsonValue, key: &str, file: &str) -> Result<f64, CliError> {
    row.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| CliError(format!("{file}: row missing numeric '{key}'")))
}

fn row_str<'v>(row: &'v JsonValue, key: &str, file: &str) -> Result<&'v str, CliError> {
    row.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| CliError(format!("{file}: row missing string '{key}'")))
}

/// Fresh median of the planned BiQGEMM pass on the identical seeded
/// workload `run_all` measured (same `binary_workload` seeds). Taken as
/// the best of two measurement passes: the gate's job is to catch code
/// regressions, and the min-of-medians discards one-sided scheduler noise
/// (a busy neighbour can only ever make a pass slower, never faster).
fn fresh_query_ns(m: usize, n: usize, b: usize) -> u128 {
    let w = binary_workload(m, n, b);
    let plan = PlanBuilder::new(m, n)
        .batch_hint(b)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .build();
    let op = compile(&plan, WeightSource::Signs(&w.signs));
    let mut exec = Executor::warmed_for(&op);
    let mut y = vec![0.0f32; m * b];
    let reps = auto_reps(Duration::from_millis(80), 3, 20, || exec.run_into(&op, &w.x, &mut y));
    (0..2)
        .map(|_| measure(1, reps, || exec.run_into(&op, &w.x, &mut y)).median.as_nanos())
        .min()
        .expect("two passes")
}

/// Runs one fresh measurement bracketed by quick canary samples: returns
/// the measured value and the drift factor (≥ 1) of the *worse* bracket
/// vs the committed canary. The worse side stands for the window because
/// a load burst that overlaps the measurement must overlap at least one
/// bracket, and a burst that hit neither did not hit the measurement
/// either (bursts outlast these few-hundred-ms windows).
fn with_drift<T>(canary_baseline: Option<f64>, f: impl FnOnce() -> T) -> (T, f64) {
    let Some(base) = canary_baseline else {
        return (f(), 1.0);
    };
    let before = host_canary_quick_ns() as f64;
    let value = f();
    let after = host_canary_quick_ns() as f64;
    (value, drift_factor(before.max(after), base))
}

/// Normalizes freshly measured rows by a bracketing drift factor and
/// reports when the factor is large enough to matter.
fn push_normalized(rows: &mut Vec<GateRow>, mut fresh_rows: Vec<GateRow>, drift: f64) {
    normalize_for_drift(&mut fresh_rows, drift);
    if drift >= 1.15 {
        for r in &fresh_rows {
            println!("note: {key} measured under {drift:.2}x host drift — normalized", key = r.key);
        }
    }
    rows.append(&mut fresh_rows);
}

fn gate_biqgemm(path: &Path, canary: Option<f64>, rows: &mut Vec<GateRow>) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)?;
    for row in parse_rows(&text)? {
        let workload = row_str(&row, "workload", "BENCH_biqgemm.json")?.to_string();
        let baseline = row_f64(&row, "biqgemm_median_ns", "BENCH_biqgemm.json")?;
        let (m, n, b) = (
            row_f64(&row, "m", "BENCH_biqgemm.json")? as usize,
            row_f64(&row, "n", "BENCH_biqgemm.json")? as usize,
            row_f64(&row, "b", "BENCH_biqgemm.json")? as usize,
        );
        let (fresh, drift) = with_drift(canary, || fresh_query_ns(m, n, b) as f64);
        let fresh_row = GateRow {
            key: format!("biqgemm:{workload}"),
            baseline,
            fresh,
            direction: Direction::LowerIsBetter,
        };
        push_normalized(rows, vec![fresh_row], drift);
    }
    Ok(())
}

/// Fresh b = 1 query median with the kernel level pinned — the same
/// serial-threaded construction `run_all`'s simd sweep uses, so the
/// committed `query_median_ns` is directly comparable.
fn fresh_level_query_ns(m: usize, n: usize, level: KernelLevel) -> u128 {
    let w = binary_workload(m, n, 1);
    let cfg = BiqConfig { kernel: KernelRequest::Exact(level), ..BiqConfig::default() };
    let plan = PlanBuilder::new(m, n)
        .batch_hint(1)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .threading(Threading::Serial)
        .config(cfg)
        .build();
    let op = compile(&plan, WeightSource::Signs(&w.signs));
    let mut exec = Executor::warmed_for(&op);
    let mut y = vec![0.0f32; m];
    let reps = auto_reps(Duration::from_millis(80), 3, 20, || exec.run_into(&op, &w.x, &mut y));
    // Best of two passes, same rationale as `fresh_query_ns`.
    (0..2)
        .map(|_| measure(1, reps, || exec.run_into(&op, &w.x, &mut y)).median.as_nanos())
        .min()
        .expect("two passes")
}

/// Gates the `BENCH_simd.json` b = 1 rows: single-column query latency per
/// pinned kernel level. Levels the host cannot run are skipped (baselines
/// travel between machines); b > 1 rows are left to the `biqgemm:` gate.
fn gate_simd(path: &Path, canary: Option<f64>, rows: &mut Vec<GateRow>) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)?;
    for row in parse_rows(&text)? {
        let b = row_f64(&row, "b", "BENCH_simd.json")? as usize;
        if b != 1 {
            continue;
        }
        let level_name = row_str(&row, "level", "BENCH_simd.json")?;
        let Some(level) = KernelLevel::parse(level_name) else {
            return Err(CliError(format!("BENCH_simd.json: unknown kernel level '{level_name}'")));
        };
        if !level.is_supported() {
            continue;
        }
        let workload = row_str(&row, "workload", "BENCH_simd.json")?.to_string();
        let baseline = row_f64(&row, "query_median_ns", "BENCH_simd.json")?;
        let (m, n) = (
            row_f64(&row, "m", "BENCH_simd.json")? as usize,
            row_f64(&row, "n", "BENCH_simd.json")? as usize,
        );
        let (fresh, drift) = with_drift(canary, || fresh_level_query_ns(m, n, level) as f64);
        let fresh_row = GateRow {
            key: format!("simd:{workload} {level_name}"),
            baseline,
            fresh,
            direction: Direction::LowerIsBetter,
        };
        push_normalized(rows, vec![fresh_row], drift);
    }
    Ok(())
}

/// All rows of a record must share the replay parameters named in `keys`
/// (one fresh measurement serves the whole file).
fn require_homogeneous(rows: &[JsonValue], keys: &[&str], file: &str) -> Result<(), CliError> {
    for key in keys {
        let mut values = rows.iter().map(|r| row_f64(r, key, file));
        let Some(first) = values.next().transpose()? else { continue };
        for v in values {
            if v? != first {
                return Err(CliError(format!(
                    "{file}: rows disagree on '{key}' — the gate replays one workload shape \
                     per record; split heterogeneous shapes into separate files"
                )));
            }
        }
    }
    Ok(())
}

fn gate_serve(
    path: &Path,
    cfg: &BenchCheckConfig,
    canary: Option<f64>,
    rows: &mut Vec<GateRow>,
) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)?;
    let baseline_rows = parse_rows(&text)?;
    // The two modes come from one config, so all rows must agree on the
    // workload shape — one fresh replay serves every row. A file with
    // heterogeneous rows would otherwise be silently judged against a
    // replay of only the last row's shape; refuse it instead.
    let mut bench = TrafficConfig { requests: cfg.requests, ..TrafficConfig::default() };
    require_homogeneous(&baseline_rows, &["m", "n", "workers"], "BENCH_serve.json")?;
    // Window/cap legitimately differ *between* modes (unbatched pins 0/1),
    // but rows of one mode must agree — a window sweep committed as one
    // file would otherwise be judged against a single replay.
    for mode in ["unbatched", "batched"] {
        let subset: Vec<JsonValue> = baseline_rows
            .iter()
            .filter(|r| r.get("mode").and_then(JsonValue::as_str) == Some(mode))
            .cloned()
            .collect();
        require_homogeneous(&subset, &["window_us", "max_batch_cols"], "BENCH_serve.json")?;
    }
    for row in &baseline_rows {
        let mode = row_str(row, "mode", "BENCH_serve.json")?;
        bench.rows = row_f64(row, "m", "BENCH_serve.json")? as usize;
        bench.cols = row_f64(row, "n", "BENCH_serve.json")? as usize;
        bench.server.workers = row_f64(row, "workers", "BENCH_serve.json")? as usize;
        if mode == "batched" {
            bench.server.window =
                Duration::from_micros(row_f64(row, "window_us", "BENCH_serve.json")? as u64);
            bench.server.max_batch_cols =
                row_f64(row, "max_batch_cols", "BENCH_serve.json")? as usize;
        }
    }
    let (fresh, drift) = with_drift(canary, || serve_bench_rows(&bench, None));
    let fresh = fresh?;
    let mut fresh_rows = Vec::new();
    for row in &baseline_rows {
        let mode = row_str(row, "mode", "BENCH_serve.json")?;
        let baseline = row_f64(row, "throughput_rps", "BENCH_serve.json")?;
        let Some(f) = fresh.iter().find(|f| f.mode == mode) else { continue };
        fresh_rows.push(GateRow {
            key: format!("serve:{mode}"),
            baseline,
            fresh: f.throughput_rps,
            direction: Direction::HigherIsBetter,
        });
    }
    push_normalized(rows, fresh_rows, drift);
    Ok(())
}

fn gate_net(
    path: &Path,
    cfg: &BenchCheckConfig,
    canary: Option<f64>,
    rows: &mut Vec<GateRow>,
) -> Result<(), CliError> {
    let text = std::fs::read_to_string(path)?;
    let baseline_rows = parse_rows(&text)?;
    let mut bench = TrafficConfig { requests: cfg.requests, ..TrafficConfig::default() };
    require_homogeneous(
        &baseline_rows,
        &["m", "n", "workers", "concurrency", "window_us", "max_batch_cols"],
        "BENCH_net.json",
    )?;
    for row in &baseline_rows {
        bench.rows = row_f64(row, "m", "BENCH_net.json")? as usize;
        bench.cols = row_f64(row, "n", "BENCH_net.json")? as usize;
        bench.server.workers = row_f64(row, "workers", "BENCH_net.json")? as usize;
        bench.concurrency = row_f64(row, "concurrency", "BENCH_net.json")? as usize;
        bench.server.window =
            Duration::from_micros(row_f64(row, "window_us", "BENCH_net.json")? as u64);
        bench.server.max_batch_cols = row_f64(row, "max_batch_cols", "BENCH_net.json")? as usize;
    }
    // The gate re-measures the canonical pair only: committed sweep rows
    // (mode "sweep", idle-connection scaling) are trajectory markers, far
    // too machine-shaped to gate, and find no fresh counterpart below.
    // One 400-request replay's throughput swings ±35% under co-tenant
    // load on a 1-vCPU host — survivable for drift-normalized absolute
    // rows, fatal for a ratio. The pair is replayed three times and every
    // net verdict is a median.
    const NET_GATE_RUNS: usize = 3;
    let (runs, drift) = with_drift(canary, || -> Result<Vec<_>, CliError> {
        (0..NET_GATE_RUNS).map(|_| net_bench_rows(&bench, &[])).collect()
    });
    let runs = runs?;
    let median = |mut v: Vec<f64>| -> Option<f64> {
        if v.is_empty() {
            return None;
        }
        v.sort_by(f64::total_cmp);
        Some(v[v.len() / 2])
    };
    let fresh_for = |mode: &str| -> Option<f64> {
        median(
            runs.iter()
                .filter_map(|run| run.iter().find(|f| f.mode == mode))
                .map(|f| f.throughput_rps)
                .collect(),
        )
    };
    let mut fresh_rows = Vec::new();
    for row in &baseline_rows {
        let mode = row_str(row, "mode", "BENCH_net.json")?;
        let baseline = row_f64(row, "throughput_rps", "BENCH_net.json")?;
        let Some(fresh) = fresh_for(mode) else { continue };
        fresh_rows.push(GateRow {
            key: format!("net:{mode}"),
            baseline,
            fresh,
            direction: Direction::HigherIsBetter,
        });
    }
    push_normalized(rows, fresh_rows, drift);
    // The wire tax itself — in-process ÷ remote throughput — is gated as
    // a ratio: each run's tax divides that run's host drift out of both
    // sides, and the median over runs rejects the one replay that caught
    // a co-tenant burst on a single leg.
    let tax = |in_proc: Option<f64>, remote: Option<f64>| -> Option<f64> {
        Some(in_proc? / remote?.max(f64::MIN_POSITIVE))
    };
    let find_rps = |set: &[(&str, f64)], mode: &str| -> Option<f64> {
        set.iter().find(|(m, _)| *m == mode).map(|(_, v)| *v)
    };
    let baseline_set: Vec<(&str, f64)> = baseline_rows
        .iter()
        .filter_map(|r| {
            let mode = r.get("mode")?.as_str()?;
            Some((mode, r.get("throughput_rps")?.as_f64()?))
        })
        .collect();
    let base_tax = tax(find_rps(&baseline_set, "in-process"), find_rps(&baseline_set, "remote"));
    let fresh_tax = median(
        runs.iter()
            .filter_map(|run| {
                let set: Vec<(&str, f64)> =
                    run.iter().map(|f| (f.mode, f.throughput_rps)).collect();
                tax(find_rps(&set, "in-process"), find_rps(&set, "remote"))
            })
            .collect(),
    );
    if let (Some(base_tax), Some(fresh_tax)) = (base_tax, fresh_tax) {
        rows.push(GateRow {
            key: "net:wire-tax".into(),
            baseline: base_tax,
            fresh: fresh_tax,
            direction: Direction::LowerIsBetter,
        });
    }
    Ok(())
}

/// Reads the committed canary median from `BENCH_host.json`.
fn read_canary_ns(path: &Path) -> Result<f64, CliError> {
    let text = std::fs::read_to_string(path)?;
    let rows = parse_rows(&text)?;
    let row = rows.first().ok_or_else(|| CliError("BENCH_host.json: empty record".into()))?;
    row_f64(row, "canary_ns", "BENCH_host.json")
}

/// `biq bench check`: re-measures every comparable committed baseline row
/// and returns the per-row verdicts (the caller prints and decides the
/// exit code). Missing baseline files are skipped; an empty result set is
/// an error (the gate must gate something). With `BENCH_host.json`
/// committed, every fresh measurement is bracketed by host-speed canary
/// samples and its row is drift-normalized (module docs).
pub fn cmd_bench_check(cfg: &BenchCheckConfig) -> Result<Vec<(GateRow, GateStatus)>, CliError> {
    let host = cfg.dir.join("BENCH_host.json");
    let canary = if host.exists() {
        let baseline = read_canary_ns(&host)?;
        println!(
            "host canary baseline {baseline:.0} ns — per-measurement drift normalization active"
        );
        Some(baseline)
    } else {
        None
    };
    let mut rows = Vec::new();
    let biqgemm = cfg.dir.join("BENCH_biqgemm.json");
    if biqgemm.exists() {
        gate_biqgemm(&biqgemm, canary, &mut rows)?;
    }
    let simd = cfg.dir.join("BENCH_simd.json");
    if simd.exists() {
        gate_simd(&simd, canary, &mut rows)?;
    }
    let serve = cfg.dir.join("BENCH_serve.json");
    if serve.exists() {
        gate_serve(&serve, cfg, canary, &mut rows)?;
    }
    let net = cfg.dir.join("BENCH_net.json");
    if net.exists() {
        gate_net(&net, cfg, canary, &mut rows)?;
    }
    if rows.is_empty() {
        return Err(CliError(format!(
            "no comparable baselines under {:?} (expected BENCH_biqgemm.json / \
             BENCH_simd.json / BENCH_serve.json / BENCH_net.json)",
            cfg.dir
        )));
    }
    Ok(judge(&rows, cfg.tolerance, &cfg.skips))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parses_the_committed_record_shape() {
        let text = r#"[
          {"workload": "m=512 n=512 b=1", "m": 512, "n": 512, "b": 1,
           "backend": "biqgemm", "biqgemm_median_ns": 30811,
           "blocked_fp32_median_ns": 39537, "speedup_vs_blocked_fp32": 1.283}
        ]"#;
        let rows = parse_rows(text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("m").unwrap().as_f64(), Some(512.0));
        assert_eq!(rows[0].get("workload").unwrap().as_str(), Some("m=512 n=512 b=1"));
        assert_eq!(rows[0].get("speedup_vs_blocked_fp32").unwrap().as_f64(), Some(1.283));
    }

    #[test]
    fn json_rejects_garbage_and_truncation() {
        for bad in ["", "[", "[{]", "{\"a\": }", "[1,2,]", "[1] trailing", "nope", "[1e]"] {
            assert!(json::parse(bad).is_err(), "{bad:?} parsed");
        }
        // Deep nesting is capped, not stack-overflowed.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(json::parse(&deep).is_err());
    }

    #[test]
    fn json_handles_nesting_escapes_and_literals() {
        let v = json::parse(r#"{"a": [1, -2.5e3, true, false, null], "b": "x\n\"y\""}"#).unwrap();
        let arr = match v.get("a").unwrap() {
            JsonValue::Arr(items) => items,
            other => panic!("{other:?}"),
        };
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2], JsonValue::Bool(true));
        assert_eq!(arr[4], JsonValue::Null);
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n\"y\""));
    }

    #[test]
    fn judge_flags_regressions_in_both_directions() {
        let rows = vec![
            GateRow {
                key: "biqgemm:fast".into(),
                baseline: 100.0,
                fresh: 120.0,
                direction: Direction::LowerIsBetter,
            },
            GateRow {
                key: "biqgemm:slow".into(),
                baseline: 100.0,
                fresh: 200.0,
                direction: Direction::LowerIsBetter,
            },
            GateRow {
                key: "serve:batched".into(),
                baseline: 50_000.0,
                fresh: 20_000.0,
                direction: Direction::HigherIsBetter,
            },
            GateRow {
                key: "serve:unbatched".into(),
                baseline: 50_000.0,
                fresh: 10.0,
                direction: Direction::HigherIsBetter,
            },
        ];
        let verdicts = judge(&rows, 1.5, &["serve:unbatched".into()]);
        assert_eq!(verdicts[0].1, GateStatus::Ok, "1.2x is inside 1.5x");
        assert_eq!(verdicts[1].1, GateStatus::Regressed, "2.0x time is out");
        assert_eq!(verdicts[2].1, GateStatus::Regressed, "2.5x throughput drop is out");
        assert_eq!(verdicts[3].1, GateStatus::Skipped, "opted out");
        assert!((verdicts[1].0.regression() - 2.0).abs() < 1e-9);
        assert!((verdicts[2].0.regression() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn drift_normalization_excuses_slow_hosts_but_not_fast_ones() {
        // Host measured 2x slower than at baseline time: excused in full.
        assert!((drift_factor(2_000_000.0, 1_000_000.0) - 2.0).abs() < 1e-9);
        // Host faster than at baseline time: clamped — no extra strictness
        // (and no leniency) in either direction.
        assert!((drift_factor(500_000.0, 1_000_000.0) - 1.0).abs() < 1e-9);
        let mut rows = vec![
            GateRow {
                key: "biqgemm:time".into(),
                baseline: 100.0,
                fresh: 190.0,
                direction: Direction::LowerIsBetter,
            },
            GateRow {
                key: "serve:thru".into(),
                baseline: 50_000.0,
                fresh: 26_000.0,
                direction: Direction::HigherIsBetter,
            },
        ];
        // Both rows look regressed raw; at 2x host drift both are machine
        // noise, and the normalized rows pass the default tolerance.
        normalize_for_drift(&mut rows, 2.0);
        assert!((rows[0].fresh - 95.0).abs() < 1e-9, "time-like: divided by drift");
        assert!((rows[1].fresh - 52_000.0).abs() < 1e-9, "throughput-like: multiplied");
        let verdicts = judge(&rows, 1.5, &[]);
        assert_eq!(verdicts[0].1, GateStatus::Ok);
        assert_eq!(verdicts[1].1, GateStatus::Ok);
    }

    #[test]
    fn check_runs_end_to_end_against_a_tiny_baseline_dir() {
        // A self-consistent micro-baseline: measure once, write it as the
        // committed record, then the gate must pass at a lax tolerance.
        let dir = std::env::temp_dir().join(format!("biq_gate_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ns = fresh_query_ns(32, 32, 1);
        std::fs::write(
            dir.join("BENCH_biqgemm.json"),
            format!(
                "[\n  {{\"workload\": \"m=32 n=32 b=1\", \"m\": 32, \"n\": 32, \"b\": 1, \
                 \"biqgemm_median_ns\": {ns}}}\n]\n"
            ),
        )
        .unwrap();
        let cfg = BenchCheckConfig {
            dir: dir.clone(),
            tolerance: 25.0, // debug-build jitter is huge; the wiring is under test
            ..BenchCheckConfig::default()
        };
        let verdicts = cmd_bench_check(&cfg).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].0.key, "biqgemm:m=32 n=32 b=1");
        assert_eq!(verdicts[0].1, GateStatus::Ok);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn simd_gate_checks_b1_rows_per_level_and_skips_foreign_ones() {
        let dir = std::env::temp_dir().join(format!("biq_gate_simd_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Self-consistent scalar row, a row for a level this host cannot
        // run (opposite ISA family), and a b = 8 row that the simd gate
        // must leave to the biqgemm gate.
        let ns = fresh_level_query_ns(32, 32, KernelLevel::Scalar);
        let foreign =
            if KernelLevel::Neon.is_supported() { KernelLevel::Avx2 } else { KernelLevel::Neon };
        std::fs::write(
            dir.join("BENCH_simd.json"),
            format!(
                "[\n  {{\"workload\": \"m=32 n=32 b=1\", \"m\": 32, \"n\": 32, \"b\": 1, \
                 \"level\": \"scalar\", \"query_median_ns\": {ns}}},\n  \
                 {{\"workload\": \"m=32 n=32 b=1\", \"m\": 32, \"n\": 32, \"b\": 1, \
                 \"level\": \"{}\", \"query_median_ns\": 1}},\n  \
                 {{\"workload\": \"m=32 n=32 b=8\", \"m\": 32, \"n\": 32, \"b\": 8, \
                 \"level\": \"scalar\", \"query_median_ns\": 1}}\n]\n",
                foreign.name()
            ),
        )
        .unwrap();
        let cfg = BenchCheckConfig {
            dir: dir.clone(),
            tolerance: 25.0, // debug-build jitter; the row selection is under test
            ..BenchCheckConfig::default()
        };
        let verdicts = cmd_bench_check(&cfg).unwrap();
        assert_eq!(verdicts.len(), 1, "foreign-level and b=8 rows must not gate");
        assert_eq!(verdicts[0].0.key, "simd:m=32 n=32 b=1 scalar");
        assert_eq!(verdicts[0].1, GateStatus::Ok);

        // An unknown level name is a corrupt baseline, not a skip.
        std::fs::write(
            dir.join("BENCH_simd.json"),
            r#"[{"workload": "m=32 n=32 b=1", "m": 32, "n": 32, "b": 1,
                 "level": "sse9", "query_median_ns": 1}]"#,
        )
        .unwrap();
        let err = cmd_bench_check(&cfg).unwrap_err();
        assert!(err.0.contains("unknown kernel level"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn heterogeneous_serve_rows_are_refused_not_mismeasured() {
        let dir = std::env::temp_dir().join(format!("biq_gate_hetero_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("BENCH_serve.json"),
            r#"[
              {"mode": "unbatched", "m": 512, "n": 512, "workers": 2,
               "window_us": 0, "max_batch_cols": 1, "throughput_rps": 1000.0},
              {"mode": "batched", "m": 1024, "n": 512, "workers": 2,
               "window_us": 200, "max_batch_cols": 16, "throughput_rps": 3000.0}
            ]"#,
        )
        .unwrap();
        let cfg = BenchCheckConfig { dir: dir.clone(), ..BenchCheckConfig::default() };
        let err = cmd_bench_check(&cfg).unwrap_err();
        assert!(err.0.contains("disagree on 'm'"), "{err}");

        // A window sweep committed as one file (two batched rows at
        // different windows) must also be refused, while the legitimate
        // unbatched/batched window difference stays allowed.
        std::fs::write(
            dir.join("BENCH_serve.json"),
            r#"[
              {"mode": "batched", "m": 512, "n": 512, "workers": 2,
               "window_us": 100, "max_batch_cols": 16, "throughput_rps": 3000.0},
              {"mode": "batched", "m": 512, "n": 512, "workers": 2,
               "window_us": 1000, "max_batch_cols": 16, "throughput_rps": 2000.0}
            ]"#,
        )
        .unwrap();
        let err = cmd_bench_check(&cfg).unwrap_err();
        assert!(err.0.contains("disagree on 'window_us'"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn check_errors_when_nothing_is_committed() {
        let dir = std::env::temp_dir().join(format!("biq_gate_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = BenchCheckConfig { dir: dir.clone(), ..BenchCheckConfig::default() };
        assert!(cmd_bench_check(&cfg).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}
