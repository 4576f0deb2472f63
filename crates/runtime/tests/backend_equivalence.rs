//! The unification property: every BiQGEMM path the runtime plans — a
//! serial plan and parallel plans under both schedules — produces
//! **bit-identical** outputs to the naive dense reference for arbitrary
//! shapes, µ, and batch sizes.
//!
//! Integer-valued inputs make every accumulation order exact, so agreement
//! must be `==` on the raw f32 bits, not approximate. Edge cases the
//! strategies force: `n` not divisible by µ (ragged tail chunk), `b = 1`
//! (GEMV fast path), `m = 1` (single output row), and µ larger than `n`.

use biq_matrix::{ColMatrix, MatrixRng, SignMatrix};
use biq_runtime::{
    compile, BackendSpec, Executor, PlanBuilder, QuantMethod, Threading, WeightSource,
};
use biqgemm_core::{BiqConfig, Schedule};
use proptest::prelude::*;

fn sign_matrix(max_rows: usize, max_cols: usize) -> impl Strategy<Value = SignMatrix> {
    (1..=max_rows, 1..=max_cols, any::<u64>())
        .prop_map(|(r, c, seed)| MatrixRng::seed_from(seed).signs(r, c))
}

/// Runs one shape through every path and asserts bit-identity.
fn assert_all_paths_agree(signs: &SignMatrix, x: &ColMatrix, cfg: BiqConfig) {
    let (m, n) = signs.shape();
    let b = x.cols();

    // Reference: dense naive GEMM on the ±1 matrix.
    let reference = biq_gemm::gemm_naive(&signs.to_f32(), x);
    let reference = reference.as_slice();

    // A serial plan and parallel plans under both schedules, sharing one
    // executor so arena reuse across differently-shaped ops is exercised
    // too.
    let mut exec = Executor::new();
    for (threading, cfg) in plan_variants(cfg) {
        let plan = PlanBuilder::new(m, n)
            .batch_hint(b)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .config(cfg)
            .threading(threading)
            .build();
        let op = compile(&plan, WeightSource::Signs(signs));
        let path = format!("{threading:?} {:?}", cfg.schedule);
        assert_eq!(exec.run(&op, x).as_slice(), reference, "{path}");
        // Repeat run through the warmed arena must not drift.
        assert_eq!(exec.run(&op, x).as_slice(), reference, "rerun {path}");
    }
}

/// The serial plan plus one parallel plan per schedule.
fn plan_variants(cfg: BiqConfig) -> [(Threading, BiqConfig); 3] {
    [
        (Threading::Serial, cfg),
        (Threading::Parallel, BiqConfig { schedule: Schedule::RowParallel, ..cfg }),
        (Threading::Parallel, BiqConfig { schedule: Schedule::SharedLut, ..cfg }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes, µ, tile sizes and batches.
    #[test]
    fn all_paths_bit_identical(
        signs in sign_matrix(33, 48),
        mu in 1usize..=12,
        (tr, tc, tb) in (1usize..=9, 1usize..=5, 1usize..=6),
        batch in 1usize..=7,
        seed in any::<u64>(),
    ) {
        let n = signs.cols();
        let x = MatrixRng::seed_from(seed).small_int_col(n, batch, 3);
        let cfg = BiqConfig {
            mu,
            tile_rows: tr,
            tile_chunks: tc,
            tile_batch: tb,
            ..BiqConfig::default()
        };
        assert_all_paths_agree(&signs, &x, cfg);
    }

    /// Ragged tail: µ chosen to *never* divide n.
    #[test]
    fn ragged_tail_chunks(
        (n_chunks, tail) in (1usize..=4, 1usize..=7),
        m in 1usize..=24,
        batch in 1usize..=5,
        seed in any::<u64>(),
    ) {
        let mu = 8usize;
        let n = n_chunks * mu + tail.min(mu - 1).max(1); // guaranteed µ ∤ n
        let mut g = MatrixRng::seed_from(seed);
        let signs = g.signs(m, n);
        let x = g.small_int_col(n, batch, 2);
        assert_all_paths_agree(&signs, &x, BiqConfig { mu, tile_rows: 3, tile_chunks: 2, tile_batch: 2, ..BiqConfig::default() });
    }
}

#[test]
fn gemv_single_batch_column() {
    let mut g = MatrixRng::seed_from(0xb1);
    let signs = g.signs(40, 70);
    let x = g.small_int_col(70, 1, 4);
    assert_all_paths_agree(&signs, &x, BiqConfig::default());
}

#[test]
fn single_output_row() {
    let mut g = MatrixRng::seed_from(0xb2);
    let signs = g.signs(1, 100);
    let x = g.small_int_col(100, 6, 3);
    assert_all_paths_agree(&signs, &x, BiqConfig::with_mu(8));
}

#[test]
fn mu_larger_than_input() {
    let mut g = MatrixRng::seed_from(0xb3);
    let signs = g.signs(9, 5); // single ragged chunk: µ = 8 > n = 5
    let x = g.small_int_col(5, 3, 3);
    assert_all_paths_agree(&signs, &x, BiqConfig::with_mu(8));
}

#[test]
fn multibit_weights_agree_across_paths() {
    // Multi-bit planes stress the key-row stacking (r mod m indexing).
    use biq_quant::greedy_quantize_matrix_rowwise;
    let mut g = MatrixRng::seed_from(0xb4);
    let wf = g.small_int_matrix(21, 40, 2);
    let x = g.small_int_col(40, 4, 2);
    let q = greedy_quantize_matrix_rowwise(&wf, 3);
    let cfg =
        BiqConfig { mu: 8, tile_rows: 5, tile_chunks: 2, tile_batch: 3, ..BiqConfig::default() };
    // Real-valued plane scales round per chunk tile, so the naive GEMM over
    // the dequantized weights is a tolerance check; the paths must still
    // agree with each other bit for bit.
    let reference = biq_gemm::gemm_naive(&q.dequantize(), &x);
    let mut exec = Executor::new();
    let mut first: Option<Vec<f32>> = None;
    for (threading, cfg) in plan_variants(cfg) {
        let plan = PlanBuilder::new(21, 40)
            .batch_hint(4)
            .backend(BackendSpec::Biq { bits: 3, method: QuantMethod::Greedy })
            .config(cfg)
            .threading(threading)
            .build();
        let op = compile(&plan, WeightSource::Quantized(&q));
        let y = exec.run(&op, &x);
        biq_matrix::assert_allclose(&y, &reference, 1e-4, 1e-4);
        let first = first.get_or_insert_with(|| y.as_slice().to_vec());
        assert_eq!(y.as_slice(), first.as_slice(), "{threading:?} {:?}", cfg.schedule);
    }
}
