//! Fig. 8 reproduction: runtime share of BiQGEMM's build / query / replace
//! phases as the output size `m` grows (n ∈ {1K, 2K}, b = 32, 1-bit
//! weights, µ = 8, single thread).
//!
//! Expected shape: the *query* share grows with `m` and dominates at every
//! size plotted (the paper's point — most arithmetic becomes cheap
//! retrievals once `m ≫ 2^µ`).

use biq_bench::args;
use biq_bench::table::{fmt_f, Table};
use biq_bench::timing::auto_reps;
use biq_bench::workloads::{binary_workload, biq_op};
use biq_runtime::{Executor, Threading, WeightSource};
use biqgemm_core::BiqConfig;
use std::time::Duration;

fn main() {
    let a = args::parse();
    let (sizes, ns): (Vec<usize>, Vec<usize>) = if a.quick {
        (vec![512, 1024, 2048], vec![1024])
    } else {
        (vec![512, 1024, 2048, 4096, 8192], vec![1024, 2048])
    };
    let b = 32;
    println!("Fig. 8: BiQGEMM phase profile (1-bit weights, b = {b}, µ = 8, 1 thread)\n");
    for n in ns {
        let mut t = Table::new(&["m", "build %", "query %", "replace %", "total ms"]);
        for &m in &sizes {
            let w = binary_workload(m, n, b);
            let signs = WeightSource::Signs(&w.signs);
            let op = biq_op(signs, (m, n), 1, BiqConfig::default(), b, Threading::Serial);
            let mut exec = Executor::warmed_for(&op);
            let reps = auto_reps(Duration::from_millis(300), 3, 30, || exec.run(&op, &w.x));
            exec.reset_profile();
            for _ in 0..reps {
                std::hint::black_box(exec.run(&op, &w.x));
            }
            let profile = exec.profile();
            let (build, query, replace) = profile.fractions();
            t.row(&[
                m.to_string(),
                fmt_f(build * 100.0, 1),
                fmt_f(query * 100.0, 1),
                fmt_f(replace * 100.0, 1),
                fmt_f(profile.total().as_secs_f64() * 1e3 / reps as f64, 3),
            ]);
        }
        println!("n = {n}:");
        println!("{}", if a.csv { t.render_csv() } else { t.render() });
    }
    println!("Expected shape (paper Fig. 8): query share rises with m and dominates throughout.");
}
