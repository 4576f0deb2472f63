//! Model workloads: an LSTM stepped one frame at a time (b = 1, the
//! paper's GEMV regime) and a Transformer encoder on 32-token sequences.

use crate::{check_sum, probe, write_trace, Ctx};
use biq_artifact::Artifact;
use biq_matrix::{ColMatrix, MatrixRng};
use biq_nn::lstm::LstmState;
use biq_nn::CompiledModel;
use biq_runtime::{SharedExecutor, KERNEL_ENV};
use stackbench::host::{cpu_ns, peak_rss_mib};
use stackbench::report::Report;
use stackbench::trace::Tracer;
use stackbench::{bits_equal, median, tail, Outcome, Tally};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Which model a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Net {
    /// `lstm-stream`: input 2048, hidden 2048, 2-bit, serial plan, b = 1.
    Lstm,
    /// `transformer-encode`: d_model 512, d_ff 2048, 8 heads, depth 6,
    /// 2-bit, 32-token sequences.
    Encoder,
}

impl Net {
    fn name(self) -> &'static str {
        match self {
            Net::Lstm => "lstm-stream",
            Net::Encoder => "transformer-encode",
        }
    }

    fn compile_args(self) -> &'static [&'static str] {
        match self {
            Net::Lstm => &["--model", "lstm", "--d-model", "2048", "--d-ff", "2048", "--bits", "2"],
            Net::Encoder => &[
                "--model",
                "transformer",
                "--d-model",
                "512",
                "--d-ff",
                "2048",
                "--heads",
                "8",
                "--layers",
                "6",
                "--bits",
                "2",
            ],
        }
    }

    /// Columns per pass: one frame, or one 32-token sequence.
    fn batch(self) -> usize {
        match self {
            Net::Lstm => 1,
            Net::Encoder => 32,
        }
    }

    /// Seeded inputs: 64 frames, or 4 sequences, cycled through.
    fn inputs(self, seed: u64) -> Vec<ColMatrix> {
        let mut g = MatrixRng::seed_from(seed ^ 0x5eed_1a70);
        let (rows, count) = match self {
            Net::Lstm => (2048, 64),
            Net::Encoder => (512, 4),
        };
        (0..count).map(|_| g.gaussian_col(rows, self.batch(), 0.0, 1.0)).collect()
    }

    fn zero_state(self) -> LstmState {
        match self {
            Net::Lstm => LstmState::zeros(2048, 1),
            Net::Encoder => LstmState::zeros(1, 1),
        }
    }
}

const LAYER_SPANS: [&str; 6] =
    ["nn.layer.0", "nn.layer.1", "nn.layer.2", "nn.layer.3", "nn.layer.4", "nn.layer.5"];

/// One pass: an LSTM step (the state carries over) or a full encoder pass,
/// with one span per `nn` layer call.
fn pass(
    model: &CompiledModel,
    x: &ColMatrix,
    state: &mut LstmState,
    tracer: &mut Tracer,
    id: u64,
    parent: usize,
) -> ColMatrix {
    match model {
        CompiledModel::Lstm(lstm) => {
            let s = tracer.begin(LAYER_SPANS[0], Some(parent), id);
            *state = lstm.cell().step(x, state);
            tracer.end(s);
            state.h.clone()
        }
        CompiledModel::Transformer(enc) => {
            let mut h = x.clone();
            for (i, layer) in enc.layers().iter().enumerate() {
                let s = tracer.begin(
                    LAYER_SPANS.get(i).copied().unwrap_or("nn.layer"),
                    Some(parent),
                    id,
                );
                h = layer.forward(&h);
                tracer.end(s);
            }
            h
        }
        _ => unreachable!("model workloads compile LSTM and Transformer artifacts only"),
    }
}

/// The executor every layer of a restored model shares.
fn shared_exec(model: &CompiledModel) -> &SharedExecutor {
    model.named_linears()[0].1.executor()
}

/// A timed window of back-to-back passes.
struct Window {
    lat_us: Vec<f64>,
    secs: f64,
    /// Per-pass kernel profile deltas `(build, query, replace)` in µs
    /// (traced windows only).
    core_us: Vec<(f64, f64, f64)>,
}

fn timed(
    model: &CompiledModel,
    inputs: &[ColMatrix],
    state: &mut LstmState,
    dur: Duration,
    tracer: &mut Tracer,
) -> Window {
    let exec = shared_exec(model);
    let (mut lat_us, mut core_us) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut i = 0u64;
    while t0.elapsed() < dur {
        let ts = Instant::now();
        let span = tracer.begin("nn.pass", None, i);
        let before = tracer.enabled().then(|| exec.profile());
        black_box(pass(model, &inputs[i as usize % inputs.len()], state, tracer, i, span));
        if let Some(before) = before {
            let d = exec.profile().delta_since(&before);
            let us = |x: Duration| x.as_secs_f64() * 1e6;
            core_us.push((us(d.build), us(d.query), us(d.replace)));
        }
        tracer.end(span);
        lat_us.push(ts.elapsed().as_secs_f64() * 1e6);
        i += 1;
    }
    Window { lat_us, secs: t0.elapsed().as_secs_f64(), core_us }
}

/// Restores the artifact pinned to the scalar kernel level and compares
/// one pass bit for bit (every level is bit-exact by contract).
fn scalar_check(
    path: &Path,
    net: Net,
    model: &CompiledModel,
    x: &ColMatrix,
) -> Result<bool, String> {
    std::env::set_var(KERNEL_ENV, "scalar");
    let scalar = Artifact::open(path).and_then(|a| CompiledModel::from_artifact(&a));
    std::env::remove_var(KERNEL_ENV);
    let scalar = scalar.map_err(|e| format!("scalar restore: {e}"))?;
    let mut off = Tracer::new(false);
    let (mut s_auto, mut s_scalar) = (net.zero_state(), net.zero_state());
    let a = pass(model, x, &mut s_auto, &mut off, 0, 0);
    let b = pass(&scalar, x, &mut s_scalar, &mut off, 0, 0);
    let same = bits_equal(a.as_slice(), b.as_slice())
        && bits_equal(s_auto.c.as_slice(), s_scalar.c.as_slice());
    let level = |m: &CompiledModel| m.named_linears()[0].1.plan().kernel.level();
    println!(
        "correctness: one pass at kernel {} vs pinned {}: {}",
        level(model),
        level(&scalar),
        if same { "bit-exact" } else { "MISMATCH" }
    );
    Ok(same)
}

/// Runs a model workload; fills `report` and returns the tally and whether
/// every output check passed.
pub fn run(ctx: &Ctx, net: Net, report: &mut Report) -> Result<(Tally, bool), String> {
    let path = ctx.work.join("model.biqmod");
    let seed = ctx.seed.to_string();
    let mut args = net.compile_args().to_vec();
    args.extend(["--seed", seed.as_str()]);
    ctx.compile(&args, &path)?;
    let inputs = net.inputs(ctx.seed);

    // Set-up, several times: open → restore → first pass.
    let (mut setup, mut open, mut restore, mut first) = (vec![], vec![], vec![], vec![]);
    let mut model = None;
    for _ in 0..5 {
        drop(model.take()); // one model resident at a time, as in a real process
        let t0 = Instant::now();
        let artifact = Artifact::open(&path).map_err(|e| format!("open: {e}"))?;
        let t1 = Instant::now();
        let m = CompiledModel::from_artifact(&artifact).map_err(|e| format!("restore: {e}"))?;
        let t2 = Instant::now();
        black_box(pass(&m, &inputs[0], &mut net.zero_state(), &mut Tracer::new(false), 0, 0));
        let t3 = Instant::now();
        setup.push((t3 - t0).as_secs_f64());
        open.push((t1 - t0).as_secs_f64() * 1e3);
        restore.push((t2 - t1).as_secs_f64() * 1e3);
        first.push((t3 - t2).as_secs_f64() * 1e3);
        model = Some(m);
    }
    let model = model.expect("set-up rounds ran");
    let mut tally = Tally::default();

    // Untraced window: the end-to-end metrics (half the window in a
    // traced run, whose other half is traced).
    let dur = if ctx.traced { ctx.window / 2 } else { ctx.window };
    let cpu0 = cpu_ns("self");
    let plain = timed(&model, &inputs, &mut net.zero_state(), dur, &mut Tracer::new(false));
    let cpu = (cpu_ns("self") - cpu0) as f64 / 1e3;
    let rss = peak_rss_mib("self").unwrap_or(0.0);
    let p50 = median(&plain.lat_us);
    let t = tail(&plain.lat_us);
    let tokens = (plain.lat_us.len() * net.batch()) as f64 / plain.secs;
    report.set("setup_s", median(&setup));
    report.set("peak_rss_mib", rss);
    report.set("tokens_per_s", tokens);
    report.set("cpu_us_per_token", cpu / (plain.lat_us.len() * net.batch()) as f64);
    report.set("latency.p50_us", p50);
    report.set("latency.tail_us", t.value);
    report.set("latency.tail_q", t.q);
    println!(
        "{} passes of b={} in {:.2}s: latency p50 {p50:.1} us, tail p{} {:.1} us (n={})",
        plain.lat_us.len(),
        net.batch(),
        plain.secs,
        t.q * 100.0,
        t.value,
        t.n
    );
    (0..plain.lat_us.len()).for_each(|_| tally.record(Outcome::Ok));

    report.set("artifact.open_ms", median(&open));
    report.set("artifact.restore_ms", median(&restore));
    report.set("artifact.warm_ms", median(&first) - p50 / 1e3);

    if ctx.traced {
        traced(ctx, net, &model, &inputs, &path, p50, report, &mut tally)?;
    }

    let ok = scalar_check(&path, net, &model, &inputs[0])?;
    tally.record(if ok { Outcome::Ok } else { Outcome::Wrong });
    report.set("gen.sent", tally.attempted as f64);
    report.set("gen.ok", (tally.attempted - tally.failed) as f64);
    report.set("gen.failed", tally.failed as f64);
    Ok((tally, ok))
}

/// The traced half: spans around every layer call, per-pass kernel
/// profiles, the layer probes and the add-up checks.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    net: Net,
    model: &CompiledModel,
    inputs: &[ColMatrix],
    path: &Path,
    untraced_p50: f64,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut tracer = Tracer::new(true);
    let w = timed(model, inputs, &mut net.zero_state(), ctx.window / 2, &mut tracer);
    (0..w.lat_us.len()).for_each(|_| tally.record(Outcome::Ok));
    let pass_us = median(&tracer.durations_us("nn.pass"));
    for (i, name) in LAYER_SPANS.iter().enumerate() {
        let d = tracer.durations_us(name);
        if !d.is_empty() {
            report.set(&format!("nn.layer_us.{i}"), median(&d));
        }
    }
    let col = |f: fn(&(f64, f64, f64)) -> f64| median(&w.core_us.iter().map(f).collect::<Vec<_>>());
    let (build, query, replace) = (col(|c| c.0), col(|c| c.1), col(|c| c.2));
    probe::core_phases(build, query, replace, report);
    let pass_lat = tracer.durations_us("nn.pass");
    let non_gemm: Vec<f64> =
        pass_lat.iter().zip(&w.core_us).map(|(p, c)| p - (c.0 + c.1 + c.2)).collect();
    let non_gemm_us = median(&non_gemm);
    report.set("nn.non_gemm_us", non_gemm_us);
    report.set("nn.non_gemm_share", non_gemm_us / pass_us);

    let ops: Vec<_> =
        model.named_linears().into_iter().map(|(n, l)| (n, l.compiled_op())).collect();
    let exec_us = probe::exec(&ops, net.batch(), ctx.seed, report);
    probe::core_counts(&ops, net.batch(), query, report);
    report.set("registry.load_ms", probe::registry_load_ms(path)?);
    report.set("trace.overhead_us", pass_us - untraced_p50);
    println!(
        "tracing overhead: traced pass p50 {pass_us:.1} us vs untraced {untraced_p50:.1} us \
         ({:+.2}%)",
        (pass_us / untraced_p50 - 1.0) * 100.0
    );
    // Per pass: the layer spans under it against the pass span itself.
    let mut layers = vec![0.0; tracer.spans().len()];
    for s in tracer.spans().iter().filter(|s| s.name.starts_with("nn.layer")) {
        layers[s.parent.expect("layer spans sit under a pass")] += s.us();
    }
    let per_pass: Vec<f64> = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "nn.pass")
        .map(|(i, _)| layers[i])
        .collect();
    check_sum("sum(nn.layer_us) ~ pass", median(&per_pass), pass_us, 0.05);
    check_sum("runtime.exec_us + nn.non_gemm_us ~ pass", exec_us + non_gemm_us, pass_us, 0.20);
    println!("core.query_share {} = {:.3}", net.name(), query / (build + query + replace));
    probe::fig8_shape(ctx.seed);
    write_trace(ctx, net.name(), &tracer);
    Ok(())
}
