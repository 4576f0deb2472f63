//! Criterion microbench: the query/accumulate kernel per kernel level, the
//! warmed executor's steady state in the small-batch regime, and the
//! width-1 rows kernel on its own.

use biq_bench::workloads::{binary_workload, biq_op};
use biq_runtime::{Executor, Threading, WeightSource};
use biqgemm_core::config::BiqConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_kernel_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_kernel_level");
    group.sample_size(20);
    let (m, n, b) = (2048, 1024, 32);
    let w = binary_workload(m, n, b);
    for level in biqgemm_core::simd::supported_levels() {
        let cfg =
            BiqConfig { kernel: biqgemm_core::KernelRequest::Exact(level), ..BiqConfig::default() };
        let op = biq_op(WeightSource::Signs(&w.signs), (m, n), 1, cfg, b, Threading::Serial);
        let mut exec = Executor::warmed_for(&op);
        group.bench_function(level.name(), |bch| {
            bch.iter(|| black_box(exec.run(&op, black_box(&w.x))));
        });
    }
    group.finish();
}

/// The warmed executor's allocation-free steady state (`run_into` a
/// caller buffer) in the paper's small-batch regime, default tile shapes.
fn bench_arena_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_reuse");
    group.sample_size(20);
    for (m, n, b) in [(512usize, 512usize, 1usize), (512, 512, 8), (2048, 1024, 1)] {
        let w = binary_workload(m, n, b);
        let id = format!("{m}x{n}_b{b}");
        let signs = WeightSource::Signs(&w.signs);
        let op = biq_op(signs, (m, n), 1, BiqConfig::default(), b, Threading::Auto);
        let mut exec = Executor::warmed_for(&op);
        let mut y = vec![0.0f32; m * b];
        group.bench_with_input(BenchmarkId::new("executor_arena", &id), &b, |bch, _| {
            bch.iter(|| exec.run_into(&op, black_box(&w.x), black_box(&mut y)));
        });
    }
    group.finish();
}

/// The b = 1 serving path in isolation: `LutBank::gather_rows` — the
/// width-1 rows kernel realising the canonical 8-partial accumulation
/// tree, fed straight from a packed `KeyMatrix` (no key scan) — per kernel
/// level, over every key row of one output column: 512×512 1-bit, and the
/// 8192×2048 2-bit shape of the `lstm-stream` benchmark workload (8 MiB of
/// keys). The end-to-end b = 1 numbers live in `arena_reuse` and
/// `BENCH_simd.json`; this group isolates the query body itself.
fn bench_width1_gather_rows(c: &mut Criterion) {
    use biq_matrix::reshape::ChunkedInput;
    use biq_matrix::{ColMatrix, MatrixRng};
    use biq_quant::packing::KeyMatrix;
    use biqgemm_core::layout::LutBank;
    use biqgemm_core::simd::supported_levels;
    use biqgemm_core::PhaseProfile;
    let mut group = c.benchmark_group("width1_gather_rows");
    group.sample_size(20);
    let mu = 8usize;
    for (m, n, bits) in [(512usize, 512usize, 1usize), (8192, 2048, 2)] {
        let (rows, chunks, table) = (bits * m, n / mu, 1u32 << mu);
        // Deterministic keys and activations — no Criterion-visible setup
        // in the timed body.
        let keys: Vec<u16> = (0..rows * chunks)
            .map(|i| ((i as u32).wrapping_mul(40503) >> 4) as u16 % table as u16)
            .collect();
        let keys = KeyMatrix::from_raw(rows, n, mu, keys);
        let x = ColMatrix::from_vec(n, 1, MatrixRng::seed_from(9).gaussian_vec(n));
        let scales = vec![0.5f32; rows];
        let mut y = vec![0.0f32; m];
        for level in supported_levels() {
            let k = biqgemm_core::KernelRequest::Exact(level).resolve().expect("supported");
            let mut bank = LutBank::new(mu);
            bank.build(&ChunkedInput::new(&x, mu), 0, chunks, 0, 1, &mut PhaseProfile::new(), k);
            let id = BenchmarkId::new(format!("{m}x{n}_{bits}bit"), level.name());
            group.bench_function(id, |bch| {
                bch.iter(|| {
                    for p in 0..bits {
                        let plane = p * m..(p + 1) * m;
                        let s = &scales[plane.clone()];
                        bank.gather_rows(&keys, plane, 0, chunks, s, black_box(&mut y), 1, k);
                    }
                    black_box(y[0])
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_levels, bench_arena_reuse, bench_width1_gather_rows);
criterion_main!(benches);
