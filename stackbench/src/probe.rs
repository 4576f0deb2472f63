//! Layer probes shared by the workloads: each times one layer's public
//! functions from outside, on the workload's own compiled ops.

use biq_artifact::Artifact;
use biq_matrix::MatrixRng;
use biq_runtime::{
    compile, BackendSpec, CompiledOp, Executor, PlanBuilder, QuantMethod, Threading, WeightSource,
};
use biq_serve::{ModelRegistry, Server, ServerConfig};
use stackbench::{median, report::Report};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Rounds of the runtime probe (each runs every op once, in pass order).
const EXEC_ROUNDS: usize = 5;

/// `runtime` layer: `Executor::run` of every op of one pass, at the
/// workload's batch width, in pass order so the caches see what a pass
/// shows them. Sets `runtime.exec_us` (Σ over ops of the median wall time)
/// and `runtime.dispatch_us` (Σ of wall minus the kernel's `PhaseProfile`
/// total) and prints each op's figure. Returns `runtime.exec_us`.
pub fn exec(ops: &[(String, Arc<CompiledOp>)], b: usize, seed: u64, report: &mut Report) -> f64 {
    let mut g = MatrixRng::seed_from(seed);
    let mut exec = Executor::new();
    let xs: Vec<_> = ops
        .iter()
        .map(|(_, op)| {
            exec.warm_batch(op, b);
            g.gaussian_col(op.input_size(), b, 0.0, 1.0)
        })
        .collect();
    let mut wall = vec![Vec::new(); ops.len()];
    let mut dispatch = vec![Vec::new(); ops.len()];
    for _ in 0..EXEC_ROUNDS {
        for (k, (_, op)) in ops.iter().enumerate() {
            let before = *exec.profile();
            let t = Instant::now();
            black_box(exec.run(op, &xs[k]));
            let us = t.elapsed().as_secs_f64() * 1e6;
            let kernel = exec.profile().delta_since(&before).total().as_secs_f64() * 1e6;
            wall[k].push(us);
            dispatch[k].push(us - kernel);
        }
    }
    for ((name, op), w) in ops.iter().zip(&wall) {
        println!(
            "runtime.exec_us.{name} ({}x{} b={b}) = {:.1} us",
            op.output_size(),
            op.input_size(),
            median(w)
        );
    }
    let exec_us: f64 = wall.iter().map(|w| median(w)).sum();
    report.set("runtime.exec_us", exec_us);
    report.set("runtime.dispatch_us", dispatch.iter().map(|d| median(d)).sum());
    exec_us
}

/// `core` counts for one pass, computed from tensor sizes (not measured):
/// lookups = m·⌈n/µ⌉·bits·b, LUT entries = ⌈n/µ⌉·2^µ·b, and bytes moved =
/// key planes + LUT fills + fp32 scales, inputs and outputs.
pub fn core_counts(
    ops: &[(String, Arc<CompiledOp>)],
    b: usize,
    query_us: f64,
    report: &mut Report,
) {
    let (mut lookups, mut entries, mut bytes) = (0u64, 0u64, 0u64);
    for (_, op) in ops {
        let plan = op.plan();
        let BackendSpec::Biq { bits, .. } = plan.spec else { continue };
        let (m, n, mu) = (plan.m as u64, plan.n as u64, plan.cfg.mu as u64);
        let (bits, b) = (bits as u64, b as u64);
        let chunks = n.div_ceil(mu);
        lookups += m * chunks * bits * b;
        entries += chunks * (1 << mu) * b;
        bytes += m * chunks * bits * mu.div_ceil(8) + chunks * (1 << mu) * b * 4;
        bytes += (m * bits + n * b + m * b) * 4;
    }
    report.set("core.lookups", lookups as f64);
    report.set("core.lut_entries", entries as f64);
    report.set("core.bytes_moved", bytes as f64);
    report.set("core.ns_per_lookup", query_us * 1e3 / lookups.max(1) as f64);
    println!(
        "core (computed from tensor sizes): lookups {lookups}, lut entries {entries}, \
         bytes moved {bytes} per pass"
    );
}

/// Sets the `core.*` phase metrics from one pass's kernel profile (µs).
pub fn core_phases(build_us: f64, query_us: f64, replace_us: f64, report: &mut Report) {
    report.set("core.build_us", build_us);
    report.set("core.query_us", query_us);
    report.set("core.replace_us", replace_us);
    let total = build_us + query_us + replace_us;
    report.set("core.query_share", if total > 0.0 { query_us / total } else { 0.0 });
}

/// `registry` layer: `LiveRegistry::load_model` of `path` into an idle
/// in-process server (the first load is new, the rest are swaps). Median
/// of three, ms.
pub fn registry_load_ms(path: &Path) -> Result<f64, String> {
    let artifact = Artifact::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let server =
        Server::start(ModelRegistry::new(), ServerConfig { workers: 1, ..Default::default() });
    let mut ms = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        server.registry().load_model("probe", &artifact).map_err(|e| format!("load_model: {e}"))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    server.shutdown();
    Ok(median(&ms))
}

/// The paper's Fig. 8 trend as a shape check: the query share of an
/// m = 8192 LSTM gate projection at b = 1 must exceed that of an
/// m = 2048 Transformer FFN projection at b = 32. Both ops are built from
/// seeded 2-bit weights and run through `Executor::run`.
pub fn fig8_shape(seed: u64) {
    let mut g = MatrixRng::seed_from(seed);
    let share = |g: &mut MatrixRng, m: usize, n: usize, b: usize| {
        let plan = PlanBuilder::new(m, n)
            .backend(BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy })
            .batch_hint(b)
            .threading(Threading::Serial)
            .build();
        let op = compile(&plan, WeightSource::Dense(&g.gaussian(m, n, 0.0, 1.0)));
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        let mut exec = Executor::warmed_for(&op);
        exec.warm_batch(&op, b);
        black_box(exec.run(&op, &x));
        exec.reset_profile();
        for _ in 0..5 {
            black_box(exec.run(&op, &x));
        }
        let p = exec.profile();
        p.query.as_secs_f64() / p.total().as_secs_f64().max(1e-12)
    };
    let lstm = share(&mut g, 8192, 2048, 1);
    let enc = share(&mut g, 2048, 512, 32);
    println!(
        "paper-shape fig8: query_share m=8192 b=1 {lstm:.3} > m=2048 b=32 {enc:.3}: {}",
        if lstm > enc { "PASS" } else { "FAIL" }
    );
}
