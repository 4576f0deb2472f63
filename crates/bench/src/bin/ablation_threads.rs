//! Ablation: thread scaling of BiQGEMM (both schedules) vs blocked GEMM.
//!
//! The paper (Section IV-D): "multithreading linearly improves performance
//! of both BiQGEMM and GEMM that can be parallelized by tiling techniques."
//! This sweep verifies that claim on the host, and contrasts the two
//! parallel schedules (RowParallel replicates LUT builds per thread;
//! SharedLut builds once with a barrier).

use biq_bench::args::{self, with_pool};
use biq_bench::table::{fmt_f, Table};
use biq_bench::timing::{auto_reps, measure, Measurement};
use biq_bench::workloads::{binary_workload, biq_op};
use biq_gemm::par_gemm_blocked;
use biq_runtime::{Executor, Threading, WeightSource};
use biqgemm_core::config::Schedule;
use biqgemm_core::BiqConfig;
use std::time::Duration;

fn main() {
    let a = args::parse();
    let (m, n, b) = if a.quick { (1024, 1024, 32) } else { (4096, 4096, 32) };
    let max_threads = std::thread::available_parallelism().map(|v| v.get()).unwrap_or(4);
    let mut threads = vec![1usize, 2, 4, 8, 16];
    threads.retain(|&t| t <= max_threads);
    println!("Thread-scaling ablation: {m}x{n} 1-bit weights, batch {b}\n");
    let w = binary_workload(m, n, b);
    let dense = w.signs.to_f32();
    let [row_op, shared_op] = [Schedule::RowParallel, Schedule::SharedLut].map(|schedule| {
        let cfg = BiqConfig { schedule, ..BiqConfig::default() };
        biq_op(WeightSource::Signs(&w.signs), (m, n), 1, cfg, b, Threading::Parallel)
    });
    let mut t = Table::new(&[
        "threads",
        "BiQ row-par ms",
        "BiQ shared-LUT ms",
        "blocked GEMM ms",
        "BiQ speedup vs 1T",
        "GEMM speedup vs 1T",
    ]);
    let mut base: Option<(f64, f64)> = None;
    for &nt in &threads {
        let (m_row, m_shared, m_gemm): (Measurement, Measurement, Measurement) =
            with_pool(Some(nt), || {
                // Warmed inside the pool, so each executor's per-worker
                // scratch matches this thread count.
                let mut row_exec = Executor::warmed_for(&row_op);
                let mut shared_exec = Executor::warmed_for(&shared_op);
                let reps =
                    auto_reps(Duration::from_millis(400), 3, 15, || row_exec.run(&row_op, &w.x));
                (
                    measure(1, reps, || row_exec.run(&row_op, &w.x)),
                    measure(1, reps, || shared_exec.run(&shared_op, &w.x)),
                    measure(1, reps, || par_gemm_blocked(&dense, &w.x)),
                )
            });
        let (b_biq, b_gemm) = *base.get_or_insert((m_row.median_ms(), m_gemm.median_ms()));
        t.row(&[
            nt.to_string(),
            fmt_f(m_row.median_ms(), 2),
            fmt_f(m_shared.median_ms(), 2),
            fmt_f(m_gemm.median_ms(), 2),
            fmt_f(b_biq / m_row.median_ms(), 2),
            fmt_f(b_gemm / m_gemm.median_ms(), 2),
        ]);
    }
    println!("{}", if a.csv { t.render_csv() } else { t.render() });
    println!("Expected shape: both kernels scale near-linearly until memory bandwidth saturates;");
    println!("SharedLut tracks RowParallel (build is a small fraction at this m).");
}
