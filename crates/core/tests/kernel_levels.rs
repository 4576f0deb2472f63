//! Per-level bit-exactness of the BiQGEMM kernels: every kernel level the
//! host can run must produce **exactly** the scalar level's output — for
//! the serial path, both parallel schedules, multi-bit weights, and
//! ragged shapes (`n % µ ≠ 0`, batch widths that are not a
//! multiple of any vector width). This is the contract that makes the
//! plan-pinned level a pure performance knob and lets BIQM artifacts
//! re-resolve levels across machines without changing results.

use biq_matrix::{ColMatrix, MatrixRng};
use biq_quant::greedy_quantize_matrix_rowwise;
use biqgemm_core::parallel::biqgemm_parallel_arena_into;
use biqgemm_core::simd::supported_levels;
use biqgemm_core::tiled::biqgemm_serial_into;
use biqgemm_core::{
    BiqArena, BiqConfig, BiqWeights, KernelLevel, KernelRequest, ParallelArena, PhaseProfile,
    ResolvedKernel, Schedule,
};
use proptest::prelude::*;

fn exact(level: KernelLevel) -> ResolvedKernel {
    KernelRequest::Exact(level).resolve().expect("supported level must resolve")
}

fn serial(w: &BiqWeights, x: &ColMatrix, cfg: &BiqConfig, k: ResolvedKernel) -> Vec<f32> {
    let mut profile = PhaseProfile::new();
    let mut arena = BiqArena::new();
    let mut y = vec![0.0f32; w.output_size() * x.cols()];
    biqgemm_serial_into(w, x, cfg, k, &mut profile, &mut arena, &mut y);
    y
}

fn parallel(w: &BiqWeights, x: &ColMatrix, cfg: &BiqConfig, k: ResolvedKernel) -> Vec<f32> {
    let mut y = vec![0.0f32; w.output_size() * x.cols()];
    let pool = ParallelArena::with_current_threads();
    biqgemm_parallel_arena_into(w, x, cfg, k, &mut PhaseProfile::new(), &pool, &mut y);
    y
}

/// The shape grid every level is checked on: ragged `n % µ ≠ 0`, batch
/// widths straddling the 4/8/16-lane vector widths (and their remainders),
/// µ from tiny to the paper's 8, multi-bit planes.
const CASES: &[(usize, usize, usize, usize, usize)] = &[
    // (m, n, b, mu, bits)
    (8, 16, 1, 4, 1),
    (16, 24, 3, 4, 2),
    (33, 40, 5, 8, 1),
    (7, 10, 2, 4, 3),
    (64, 64, 9, 8, 1),
    (5, 3, 2, 8, 1), // n < µ: single ragged chunk
    (30, 50, 7, 4, 2),
    (40, 37, 13, 8, 1), // ragged n, batch 13 (8 + 5 tail, 13 < 16)
    (24, 48, 17, 6, 2), // batch 17 (16 + 1 tail)
    (48, 31, 33, 5, 1), // batch 33 (2×16 + 1, also 4×8 + 1)
];

#[test]
fn serial_levels_bit_exact_vs_scalar_across_shapes() {
    let mut g = MatrixRng::seed_from(7001);
    let levels = supported_levels();
    for &(m, n, b, mu, bits) in CASES {
        let wf = g.gaussian(m, n, 0.0, 1.0);
        let q = greedy_quantize_matrix_rowwise(&wf, bits);
        let w = BiqWeights::from_multibit(&q, mu);
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        let cfg =
            BiqConfig { mu, tile_rows: 8, tile_chunks: 3, tile_batch: 5, ..BiqConfig::default() };
        let want = serial(&w, &x, &cfg, ResolvedKernel::scalar());
        for &level in &levels {
            let got = serial(&w, &x, &cfg, exact(level));
            assert_eq!(want, got, "(m,n,b,µ,bits)=({m},{n},{b},{mu},{bits}) level={level}");
        }
    }
}

#[test]
fn parallel_levels_bit_exact_vs_scalar_serial() {
    let mut g = MatrixRng::seed_from(7002);
    let levels = supported_levels();
    for &(m, n, b, mu, bits) in CASES {
        let wf = g.gaussian(m, n, 0.0, 1.0);
        let q = greedy_quantize_matrix_rowwise(&wf, bits);
        let w = BiqWeights::from_multibit(&q, mu);
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        for schedule in [Schedule::RowParallel, Schedule::SharedLut] {
            let cfg = BiqConfig {
                mu,
                tile_rows: 4,
                tile_chunks: 2,
                tile_batch: 6,
                schedule,
                ..BiqConfig::default()
            };
            let want = serial(&w, &x, &cfg, ResolvedKernel::scalar());
            for &level in &levels {
                let got = parallel(&w, &x, &cfg, exact(level));
                assert_eq!(
                    want, got,
                    "(m,n,b,µ,bits)=({m},{n},{b},{mu},{bits}) {schedule:?} level={level}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The width-1 contract: across random shapes/µ — including chunk
    /// counts with ragged `% 8` tails — the vectorized gather equals the
    /// fused kernel at `nb = 1` bit for bit, at every supported level.
    /// This is what lets `layout.rs` route width-1 tiles through
    /// `lut_gather` while the batcher packs the same column into fused
    /// runs: both realise the canonical accumulation tree.
    #[test]
    fn gather_equals_fused_at_width_one(
        chunks in 1usize..40,
        mu in 1usize..=8,
        seed in 0u64..1_000_000,
    ) {
        use biqgemm_core::simd::{lut_gather, lut_query_fused};
        let table = 1usize << mu;
        let mut g = MatrixRng::seed_from(seed ^ 0xa11);
        // A width-1 bank: chunk c's table occupies bank[c*table..][..table].
        let bank: Vec<f32> =
            g.gaussian(1, chunks * table, 0.0, 1.0).as_slice().to_vec();
        let keys: Vec<u16> =
            (0..chunks).map(|c| ((seed >> (c % 13)) as usize % table) as u16).collect();
        let scale = 1.0f32;
        let scalar = lut_gather(&bank, table, &keys, ResolvedKernel::scalar());
        for level in supported_levels() {
            let k = exact(level);
            let gathered = lut_gather(&bank, table, &keys, k);
            prop_assert_eq!(
                gathered.to_bits(), scalar.to_bits(),
                "gather level={} vs scalar (chunks={}, mu={})", level, chunks, mu
            );
            let mut fused = [0.0f32];
            lut_query_fused(&mut fused, scale, &bank, table, 1, &keys, k);
            prop_assert_eq!(
                fused[0].to_bits(), gathered.to_bits(),
                "fused@nb=1 level={} vs gather (chunks={}, mu={})", level, chunks, mu
            );
        }
    }

    /// The row-batched gather is the per-row gather, bit for bit: for any
    /// slab geometry (stride > width, strided outputs, row counts that
    /// leave 8-row groups, pairs and an unpaired row, ragged `% 8` chunk
    /// tails), at every level,
    /// `lut_gather_rows` accumulates exactly what a per-row
    /// `y += scale · lut_gather(row)` loop would. This is what lets the
    /// width-1 tile loop batch whole row tiles into one dispatch.
    #[test]
    fn gather_rows_equals_per_row_gather(
        rows in 1usize..40,
        chunks in 1usize..24,
        extra_stride in 0usize..5,
        y_stride in 1usize..4,
        mu in 1usize..=8,
        seed in 0u64..1_000_000,
    ) {
        use biqgemm_core::simd::{lut_gather, lut_gather_rows};
        let table = 1usize << mu;
        let stride = chunks + extra_stride;
        let mut g = MatrixRng::seed_from(seed ^ 0xb0b);
        let bank: Vec<f32> = g.gaussian(1, chunks * table, 0.0, 1.0).as_slice().to_vec();
        let keys: Vec<u16> = (0..(rows - 1) * stride + chunks)
            .map(|i| ((seed >> (i % 17)) as usize % table) as u16)
            .collect();
        let scales: Vec<f32> = g.gaussian(1, rows, 0.0, 1.0).as_slice().to_vec();
        let y_init: Vec<f32> = g.gaussian(1, (rows - 1) * y_stride + 1, 0.0, 1.0)
            .as_slice()
            .to_vec();
        for level in supported_levels() {
            let k = exact(level);
            let mut want = y_init.clone();
            for (i, &scale) in scales.iter().enumerate() {
                want[i * y_stride] +=
                    scale * lut_gather(&bank, table, &keys[i * stride..i * stride + chunks], k);
            }
            let mut got = y_init.clone();
            lut_gather_rows(&mut got, y_stride, &scales, &bank, table, &keys, stride, chunks, k);
            let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                gb, wb,
                "level={} rows={} chunks={} stride={} y_stride={}",
                level, rows, chunks, stride, y_stride
            );
        }
    }

    /// The hot-path form of the same contract: keys fed from a packed
    /// `KeyMatrix` with a ragged last chunk (`n % µ ≠ 0`) through
    /// `LutBank::gather_rows` — no key scan — over any row range and chunk
    /// window equal a per-row `y += scale · lut_gather(row)` loop over the
    /// same bank, bit for bit, at every level.
    #[test]
    fn key_matrix_fed_gather_rows_equals_per_row_gather(
        m in 1usize..40,
        full_chunks in 0usize..12,
        mu in 2usize..=8,
        ragged in 1usize..8,
        y_stride in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        use biq_matrix::reshape::ChunkedInput;
        use biq_quant::packing::KeyMatrix;
        use biqgemm_core::layout::LutBank;
        use biqgemm_core::simd::lut_gather;
        let n = full_chunks * mu + 1 + ragged % (mu - 1);
        let (table, chunks) = (1usize << mu, n.div_ceil(mu));
        let mut g = MatrixRng::seed_from(seed ^ 0x6b6d);
        let keys = KeyMatrix::pack(&g.signs(m, n), mu);
        let x = g.gaussian_col(n, 1, 0.0, 1.0);
        let (r0, r1) = ((seed % m as u64) as usize, m - (seed / 7 % m as u64) as usize);
        let (r0, r1) = (r0.min(r1), r0.max(r1));
        let c0 = (seed / 49 % chunks as u64) as usize;
        let nc = chunks - c0 - (seed / 343 % (chunks - c0) as u64) as usize;
        let scales: Vec<f32> = g.gaussian(1, r1 - r0, 0.0, 1.0).as_slice().to_vec();
        let y_init: Vec<f32> = g.gaussian(1, m * y_stride, 0.0, 1.0).as_slice().to_vec();
        for level in supported_levels() {
            let k = exact(level);
            let mut bank = LutBank::new(mu);
            bank.build(&ChunkedInput::new(&x, mu), 0, chunks, 0, 1, &mut PhaseProfile::new(), k);
            let flat: Vec<f32> = (c0..c0 + nc)
                .flat_map(|c| (0..table).map(move |key| (c, key as u16)))
                .map(|(c, key)| bank.entry_vec(c, key)[0])
                .collect();
            let mut want = y_init.clone();
            for (i, &scale) in scales.iter().enumerate() {
                let row = &keys.key_row(r0 + i)[c0..c0 + nc];
                want[i * y_stride] += scale * lut_gather(&flat, table, row, k);
            }
            let mut got = y_init.clone();
            bank.gather_rows(&keys, r0..r1, c0, nc, &scales, &mut got, y_stride, k);
            let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                gb, wb,
                "level={} m={} n={} µ={} rows={}..{} chunks={}+{}",
                level, m, n, mu, r0, r1, c0, nc
            );
        }
    }

    /// Random shapes/µ/tiles: every supported level equals scalar exactly,
    /// serial and row-parallel.
    #[test]
    fn random_shapes_all_levels_bit_exact(
        m in 1usize..48,
        n in 1usize..70,
        b in 1usize..24,
        mu in 1usize..=9,
        bits in 1usize..=3,
        tile_rows in 1usize..12,
        tile_chunks in 1usize..5,
        tile_batch in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let mu = mu.min(n.max(1)).clamp(1, 16);
        let mut g = MatrixRng::seed_from(seed);
        let wf = g.small_int_matrix(m, n, 2);
        let q = greedy_quantize_matrix_rowwise(&wf, bits);
        let w = BiqWeights::from_multibit(&q, mu);
        let x = g.gaussian_col(n, b, 0.0, 1.0);
        let cfg = BiqConfig { mu, tile_rows, tile_chunks, tile_batch, ..BiqConfig::default() };
        let want = serial(&w, &x, &cfg, ResolvedKernel::scalar());
        for level in supported_levels() {
            let k = exact(level);
            prop_assert_eq!(&serial(&w, &x, &cfg, k), &want, "serial level={}", level);
            prop_assert_eq!(&parallel(&w, &x, &cfg, k), &want, "parallel level={}", level);
        }
    }
}

/// Every level of every path — serial and both parallel schedules —
/// equals the naive GEMM bit for bit on integer inputs (1-bit unscaled
/// weights, small-integer activations: every partial sum is exact).
#[test]
fn every_level_matches_naive_gemm_on_integer_inputs() {
    let mut g = MatrixRng::seed_from(7003);
    for &(m, n, b, mu, _) in CASES {
        let signs = g.signs(m, n);
        let x = g.small_int_col(n, b, 3);
        let w = BiqWeights::from_signs_unscaled(&signs, mu);
        let want = biq_gemm::gemm_naive(&signs.to_f32(), &x);
        let want = want.as_slice();
        for level in supported_levels() {
            let k = exact(level);
            let shape = format!("(m,n,b,µ)=({m},{n},{b},{mu}) level={level}");
            let cfg = BiqConfig {
                mu,
                tile_rows: 4,
                tile_chunks: 2,
                tile_batch: 6,
                ..BiqConfig::default()
            };
            assert_eq!(serial(&w, &x, &cfg, k), want, "serial {shape}");
            for schedule in [Schedule::RowParallel, Schedule::SharedLut] {
                let cfg = BiqConfig { schedule, ..cfg };
                assert_eq!(parallel(&w, &x, &cfg, k), want, "{schedule:?} {shape}");
            }
        }
    }
}
