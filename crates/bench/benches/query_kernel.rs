//! Criterion microbench: the query/accumulate kernel per kernel level, the
//! warmed executor's steady state in the small-batch regime, and the
//! width-1 gather body on its own.

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

/// The b = 1 serving path in isolation: `lut_gather` — the vectorized
/// width-1 query realising the canonical 8-partial accumulation tree —
/// per kernel level, over a full output column's worth of key rows
/// (m rows × n/µ chunks, the inner loop `layout.rs` runs for width-1
/// tiles). The end-to-end b = 1 numbers live in `arena_reuse` and
/// `BENCH_simd.json`; this group isolates the gather body itself.
fn bench_width1_gather(c: &mut Criterion) {
    use biqgemm_core::simd::{lut_gather, supported_levels};
    let mut group = c.benchmark_group("width1_gather");
    group.sample_size(20);
    let (m, n, mu) = (512usize, 512usize, 8usize);
    let chunks = n / mu;
    let table = 1usize << mu;
    // One width-1 bank (chunk c's table at bank[c*table..][..table]) and a
    // deterministic key row per output row — no Criterion-visible setup in
    // the timed body.
    let bank: Vec<f32> = (0..chunks * table)
        .map(|i| ((i as u32).wrapping_mul(2654435761) >> 8) as f32 / 1e7 - 0.8)
        .collect();
    let keys: Vec<u16> = (0..m * chunks)
        .map(|i| ((i as u32).wrapping_mul(40503) as usize >> 4) as u16 % table as u16)
        .collect();
    for level in supported_levels() {
        let k = biqgemm_core::KernelRequest::Exact(level).resolve().expect("supported");
        group.bench_function(level.name(), |bch| {
            bch.iter(|| {
                let mut acc = 0.0f32;
                for row in keys.chunks_exact(chunks) {
                    acc += lut_gather(black_box(&bank), table, row, k);
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_levels, bench_arena_reuse, bench_width1_gather);
criterion_main!(benches);
