//! Criterion bench: BiQGEMM against every baseline kernel at a paper-typical
//! shape (2K×2K weights, batch 32, 1-bit) plus the parallel schedules
//! ablation (RowParallel vs SharedLut).

use biq_bench::workloads::{binary_workload, biq_op};
use biq_gemm::packed_sgemm::DenseBinaryWeights;
use biq_gemm::unpack_gemm::gemm_with_unpack;
use biq_gemm::xnor::{xnor_gemm, XnorWeights};
use biq_gemm::{gemm_blocked, gemm_naive};
use biq_quant::packing::{PackedRowsU32, PackedRowsU64};
use biq_runtime::{Executor, Threading, WeightSource};
use biqgemm_core::config::Schedule;
use biqgemm_core::BiqConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let (m, n, b) = (2048, 2048, 32);
    let w = binary_workload(m, n, b);
    let dense = w.signs.to_f32();
    let dense_bin = DenseBinaryWeights::unscaled(&w.signs);
    let packed32 = PackedRowsU32::pack(&w.signs);
    let xw = XnorWeights::new(vec![(vec![1.0; m], PackedRowsU64::pack(&w.signs))]);
    let biq = |cfg: BiqConfig, threading| {
        biq_op(WeightSource::Signs(&w.signs), (m, n), 1, cfg, b, threading)
    };
    let serial = biq(BiqConfig::default(), Threading::Serial);
    let parallel = biq(BiqConfig::default(), Threading::Parallel);
    let (mut serial_exec, mut parallel_exec) =
        (Executor::warmed_for(&serial), Executor::warmed_for(&parallel));

    let mut group = c.benchmark_group("kernels_2kx2k_b32");
    group.sample_size(12);
    group.bench_function("biqgemm_serial", |bch| {
        bch.iter(|| black_box(serial_exec.run(&serial, black_box(&w.x))))
    });
    group.bench_function("biqgemm_parallel", |bch| {
        bch.iter(|| black_box(parallel_exec.run(&parallel, black_box(&w.x))))
    });
    group.bench_function("gemm_naive", |bch| {
        bch.iter(|| black_box(gemm_naive(black_box(&dense), black_box(&w.x))))
    });
    group.bench_function("gemm_blocked", |bch| {
        bch.iter(|| black_box(gemm_blocked(black_box(&dense), black_box(&w.x))))
    });
    group.bench_function("sgemm", |bch| {
        bch.iter(|| black_box(dense_bin.sgemm_blocked(black_box(&w.x))))
    });
    group.bench_function("unpack_gemm", |bch| {
        bch.iter(|| black_box(gemm_with_unpack(black_box(&packed32), black_box(&w.x))))
    });
    group.bench_function("xnor", |bch| {
        bch.iter(|| {
            let k = biqgemm_core::KernelRequest::Auto.resolve().expect("auto resolves");
            black_box(xnor_gemm(black_box(&xw), black_box(&w.x), k))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("schedule_ablation_2kx2k_b32");
    group.sample_size(12);
    for (name, schedule) in
        [("row_parallel", Schedule::RowParallel), ("shared_lut", Schedule::SharedLut)]
    {
        let op = biq(BiqConfig { schedule, ..BiqConfig::default() }, Threading::Parallel);
        let mut exec = Executor::warmed_for(&op);
        group.bench_function(name, |bch| bch.iter(|| black_box(exec.run(&op, black_box(&w.x)))));
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
