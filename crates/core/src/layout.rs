//! Lookup-table banks: storage + layout for the live tables of one tile.
//!
//! A bank holds the tables for `num_chunks` consecutive input chunks ×
//! `nb` consecutive batch columns. Every chunk gets a full `2^µ`-entry
//! stride even when its sub-vector is ragged (`L < µ`), keeping addressing
//! uniform; only the first `2^L` entries are meaningful.
//!
//! The layout is the paper's key-major bank (Fig. 6):
//! `data[(c·2^µ + key)·nb + a]` — one lookup yields a contiguous batch
//! vector, so query accumulation vectorises. The batched Algorithm 1 build
//! gathers each chunk's sub-vector values across the batch stride first —
//! that movement is charged to the **replace** phase. With one live batch
//! column the layout is one contiguous table per chunk.

use crate::lut::build_lut_dp_level;
use crate::profile::PhaseProfile;
use crate::simd::{self, KeyRows, ResolvedKernel};
use biq_matrix::reshape::ChunkedInput;
use biq_quant::packing::KeyMatrix;
use std::ops::Range;

/// A reusable bank of lookup tables for one (chunk-tile × batch-tile).
#[derive(Debug)]
pub struct LutBank {
    data: Vec<f32>,
    /// Per-chunk gathered DP step vectors (`µ × nb`) of the batched build.
    steps: Vec<f32>,
    table: usize,
    /// First input chunk resident (bank chunk 0).
    chunk_start: usize,
    num_chunks: usize,
    nb: usize,
}

impl LutBank {
    /// Creates an empty bank for LUT-unit `mu`.
    pub fn new(mu: usize) -> Self {
        assert!((1..=16).contains(&mu), "µ must be in 1..=16");
        Self {
            data: Vec::new(),
            steps: Vec::new(),
            table: 1usize << mu,
            chunk_start: 0,
            num_chunks: 0,
            nb: 0,
        }
    }

    /// Pre-grows storage for `num_chunks` chunks × `nb` batch columns so a
    /// following [`LutBank::build`] of that size (or smaller) allocates
    /// nothing. Buffers never shrink.
    pub fn reserve(&mut self, num_chunks: usize, nb: usize) {
        let needed = num_chunks * self.table * nb;
        if self.data.len() < needed {
            self.data.resize(needed, 0.0);
        }
        let mu = self.table.trailing_zeros() as usize;
        if self.steps.len() < mu.max(1) * nb {
            self.steps.resize(mu.max(1) * nb, 0.0);
        }
    }

    /// Number of chunks currently resident.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Batch columns currently resident.
    #[inline]
    pub fn batch(&self) -> usize {
        self.nb
    }

    /// Builds tables for chunks `[chunk_start, chunk_start + num_chunks)` ×
    /// batch columns `[batch_start, batch_start + nb)` of `input`,
    /// overwriting the bank, with DP arithmetic running at the resolved
    /// kernel level `k`. Build arithmetic is charged to `profile.build`;
    /// the batched step gather is charged to `profile.replace`.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        &mut self,
        input: &ChunkedInput<'_>,
        chunk_start: usize,
        num_chunks: usize,
        batch_start: usize,
        nb: usize,
        profile: &mut PhaseProfile,
        k: ResolvedKernel,
    ) {
        debug_assert!(chunk_start + num_chunks <= input.num_chunks());
        debug_assert!(batch_start + nb <= input.batch());
        self.chunk_start = chunk_start;
        self.num_chunks = num_chunks;
        self.nb = nb;
        let needed = num_chunks * self.table * nb;
        if self.data.len() < needed {
            self.data.resize(needed, 0.0);
        }
        // GEMV fast path: with one live batch column every chunk is a
        // contiguous single-table DP build. One timing scope around the
        // whole loop — clock reads per *tile*, not per chunk, which matters
        // for small-µ banks on virtualised hosts where each
        // `Instant::now()` is a paravirtual clock read.
        if nb == 1 {
            let table = self.table;
            let data = &mut self.data;
            profile.time_build(|| {
                for c in 0..num_chunks {
                    let sub = input.chunk(batch_start, chunk_start + c);
                    let len = 1usize << sub.len();
                    let off = c * table;
                    build_lut_dp_level(sub, &mut data[off..off + len], k);
                }
            });
            return;
        }
        let seg_len = self.table * nb;
        for (c, seg) in self.data[..needed].chunks_exact_mut(seg_len).enumerate() {
            fill_chunk_key_major_dp(
                seg,
                &mut self.steps,
                input,
                chunk_start + c,
                batch_start,
                nb,
                profile,
                k,
            );
        }
    }

    /// The contiguous batch vector for `(chunk_local, key)`.
    #[inline]
    pub fn entry_vec(&self, chunk_local: usize, key: u16) -> &[f32] {
        debug_assert!(chunk_local < self.num_chunks);
        let off = (chunk_local * self.table + key as usize) * self.nb;
        &self.data[off..off + self.nb]
    }

    /// Row-batched single-batch gather over input chunks
    /// `[chunk0, chunk0 + nc)`: for each key row `r` in `rows` of `keys`,
    /// `y[i · y_stride] += scales[i] · Σ_c bank[c·2^µ + keys[r, c]]`
    /// (`i = r − rows.start`), summed in the **canonical accumulation-tree
    /// order** at the resolved kernel level `k` — the same per-lane order
    /// as [`LutBank::query_fused`], so a column packed into a width-1 batch
    /// tile rounds bit-for-bit like one packed into any wider tile
    /// (batch-packing invariance; `batch_invariance.rs` pins it). This is
    /// the b = 1 serving hot loop; see [`crate::simd::lut_gather_rows`].
    ///
    /// The keys come straight from the [`KeyMatrix`], whose construction
    /// range-checked every key against µ once, so no key is scanned here:
    /// tying the matrix to the bank takes O(1) checks.
    ///
    /// # Panics
    /// Panics unless exactly one batch column is resident, the bank was
    /// built for the matrix's µ, the chunk window is resident, and the row
    /// and output geometry fit.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn gather_rows(
        &self,
        keys: &KeyMatrix,
        rows: Range<usize>,
        chunk0: usize,
        nc: usize,
        scales: &[f32],
        y: &mut [f32],
        y_stride: usize,
        k: ResolvedKernel,
    ) {
        assert_eq!(self.nb, 1, "width-1 gather needs exactly one resident batch column");
        assert!(
            chunk0 >= self.chunk_start && chunk0 + nc <= self.chunk_start + self.num_chunks,
            "chunk window outside the resident bank"
        );
        let local = chunk0 - self.chunk_start;
        let bank = &self.data[local * self.table..(local + nc) * self.table];
        let keys = KeyRows::window(keys, rows, chunk0, nc, self.table);
        simd::gather_rows(y, y_stride, scales, bank, keys, k);
    }

    /// Fused Algorithm 2 query over every resident chunk for key rows
    /// `rows` of `keys`: row `r` adds
    /// `scales[i] · Σ_ci entry_vec(ci, keys[r, chunk_start + ci])` into
    /// `y[i · y_stride ..][.. nb]` (`i = r − rows.start`), accumulated in
    /// registers at the resolved kernel level — see
    /// [`crate::simd::lut_query_fused`]. Like [`LutBank::gather_rows`] it
    /// reads the keys unscanned, on the [`KeyMatrix`] invariant.
    ///
    /// # Panics
    /// Panics when the bank was built for another µ, the resident chunks
    /// leave the matrix, or the output is too short for the rows.
    #[inline]
    pub fn query_fused(
        &self,
        keys: &KeyMatrix,
        rows: Range<usize>,
        scales: &[f32],
        y: &mut [f32],
        y_stride: usize,
        k: ResolvedKernel,
    ) {
        let keys = KeyRows::window(keys, rows, self.chunk_start, self.num_chunks, self.table);
        let bank = &self.data[..self.num_chunks * self.table * self.nb];
        simd::query_fused_rows(y, y_stride, scales, bank, self.nb, keys, k);
    }

    /// Bytes of live table data.
    pub fn resident_bytes(&self) -> usize {
        self.num_chunks * self.table * self.nb * 4
    }
}

/// Algorithm 1 for one chunk's `nb` tables directly in the key-major
/// layout — the one batched fill behind [`LutBank::build`] and the
/// parallel SharedLut build phase. `seg` must span `2^µ · nb` floats;
/// `steps` is caller scratch (resized as needed).
///
/// Table entries are contiguous `nb`-vectors, so the DP recurrence
/// (`q[2^t + j] = q[j] + 2·x_{L−1−t}`) becomes a vector add per entry. The
/// strided gather of sub-vector values across batch columns is charged to
/// `profile.replace` (tiling data movement); the DP adds and the mirror
/// negation to `profile.build`. A single live column is one contiguous
/// table, built directly and charged to `profile.build`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_chunk_key_major_dp(
    seg: &mut [f32],
    steps: &mut Vec<f32>,
    input: &ChunkedInput<'_>,
    chunk: usize,
    batch_start: usize,
    nb: usize,
    profile: &mut PhaseProfile,
    k: ResolvedKernel,
) {
    let l = input.chunk(batch_start, chunk).len();
    debug_assert!(l >= 1);
    let entries = 1usize << l;
    if nb == 1 {
        let sub = input.chunk(batch_start, chunk);
        profile.time_build(|| build_lut_dp_level(sub, &mut seg[..entries], k));
        return;
    }
    if steps.len() < l.max(1) * nb {
        steps.resize(l.max(1) * nb, 0.0);
    }
    // Gather (replace): steps[t][a] = 2·x_a[L−1−t], plus −Σx per batch
    // column into entry 0.
    profile.time_replace(|| {
        for a in 0..nb {
            let sub = input.chunk(batch_start + a, chunk);
            let mut neg = 0.0f32;
            for &v in sub {
                neg -= v;
            }
            seg[a] = neg;
            for t in 0..l - 1 {
                steps[t * nb + a] = 2.0 * sub[l - 1 - t];
            }
        }
    });
    // DP fill (build): vector adds over contiguous nb-rows at the resolved
    // kernel level — one dispatch per DP level / per mirror, so call
    // overhead never scales with 2^µ.
    let seg = &mut seg[..entries * nb];
    let steps = &steps[..];
    profile.time_build(|| {
        for t in 0..l - 1 {
            let rows = 1usize << t;
            let (lo, hi) = seg.split_at_mut(rows * nb);
            let step = &steps[t * nb..t * nb + nb];
            simd::dp_step_add_rows(&mut hi[..rows * nb], lo, step, k);
        }
        // Mirror: upper-half row r (global index 2^{l−1}+r) is the
        // negation of lower-half row 2^{l−1}−1−r.
        let half = 1usize << (l - 1);
        let (lo, hi) = seg.split_at_mut(half * nb);
        simd::negate_rows_reversed(hi, lo, nb, k);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::build_luts_gemm;
    use crate::mmu::key_dot;
    use crate::simd::KernelRequest;
    use biq_matrix::{ColMatrix, MatrixRng};

    fn sk() -> ResolvedKernel {
        ResolvedKernel::scalar()
    }

    fn check_bank_contents(
        bank: &LutBank,
        input: &ChunkedInput<'_>,
        chunk_start: usize,
        batch_start: usize,
    ) {
        for c in 0..bank.num_chunks() {
            for a in 0..bank.batch() {
                let sub = input.chunk(batch_start + a, chunk_start + c);
                for k in 0..(1usize << sub.len()) {
                    let expected = key_dot(k as u16, sub);
                    let got = bank.entry_vec(c, k as u16)[a];
                    assert!(
                        (got - expected).abs() < 1e-4,
                        "chunk {c} batch {a} key {k}: {got} vs {expected}"
                    );
                }
            }
        }
    }

    /// The two arrangements a bank takes: one contiguous table per chunk
    /// (a single live column) and key-major batch vectors (`nb ≥ 2`).
    #[test]
    fn both_layouts_hold_correct_tables() {
        let mut g = MatrixRng::seed_from(220);
        let x = g.gaussian_col(20, 5, 0.0, 1.0); // n=20, µ=4 -> 5 chunks
        let input = ChunkedInput::new(&x, 4);
        for (b0, nb) in [(2, 1), (0, 5)] {
            let mut bank = LutBank::new(4);
            let mut prof = PhaseProfile::new();
            bank.build(&input, 0, 5, b0, nb, &mut prof, sk());
            check_bank_contents(&bank, &input, 0, b0);
        }
    }

    #[test]
    fn partial_tile_with_offsets() {
        let mut g = MatrixRng::seed_from(221);
        let x = g.gaussian_col(24, 8, 0.0, 1.0);
        let input = ChunkedInput::new(&x, 4); // 6 chunks
        let mut bank = LutBank::new(4);
        let mut prof = PhaseProfile::new();
        bank.build(&input, 2, 3, 5, 2, &mut prof, sk());
        assert_eq!(bank.num_chunks(), 3);
        assert_eq!(bank.batch(), 2);
        check_bank_contents(&bank, &input, 2, 5);
    }

    #[test]
    fn ragged_tail_chunk_supported() {
        let mut g = MatrixRng::seed_from(222);
        let x = g.gaussian_col(10, 3, 0.0, 1.0); // µ=4: chunks of 4,4,2
        let input = ChunkedInput::new(&x, 4);
        for (b0, nb) in [(1, 1), (0, 3)] {
            let mut bank = LutBank::new(4);
            let mut prof = PhaseProfile::new();
            bank.build(&input, 0, 3, b0, nb, &mut prof, sk());
            check_bank_contents(&bank, &input, 0, b0);
        }
    }

    /// On integer inputs the Algorithm 1 bank equals the Fig. 4(a) GEMM
    /// construction (`M_µ · X`) entry for entry.
    #[test]
    fn gemm_method_matches_dp() {
        let mut g = MatrixRng::seed_from(223);
        let x = g.small_int_col(16, 4, 4);
        let input = ChunkedInput::new(&x, 4);
        let mut dp = LutBank::new(4);
        let mut prof = PhaseProfile::new();
        dp.build(&input, 0, 4, 0, 4, &mut prof, sk());
        for a in 0..4 {
            let mut bf = vec![0.0f32; 4 * 16];
            build_luts_gemm((0..4).map(|c| input.chunk(a, c)), 4, &mut bf);
            for c in 0..4 {
                for k in 0..16u16 {
                    assert_eq!(dp.entry_vec(c, k)[a], bf[c * 16 + k as usize]);
                }
            }
        }
    }

    /// Batched builds charge the step gather to replace; a single live
    /// column (where key-major and batch-major coincide) charges none.
    #[test]
    fn keymajor_charges_replace_batchmajor_does_not() {
        let mut g = MatrixRng::seed_from(224);
        let x = g.gaussian_col(64, 16, 0.0, 1.0);
        let input = ChunkedInput::new(&x, 8);
        let mut prof_km = PhaseProfile::new();
        let mut km = LutBank::new(8);
        km.build(&input, 0, 8, 0, 16, &mut prof_km, sk());
        assert!(prof_km.build > std::time::Duration::ZERO);
        assert!(prof_km.replace > std::time::Duration::ZERO);
        let mut prof_w1 = PhaseProfile::new();
        let mut w1 = LutBank::new(8);
        w1.build(&input, 0, 8, 0, 1, &mut prof_w1, sk());
        assert!(prof_w1.build > std::time::Duration::ZERO);
        assert_eq!(prof_w1.replace, std::time::Duration::ZERO);
    }

    #[test]
    fn bank_reuse_shrinks_without_realloc_issue() {
        let mut g = MatrixRng::seed_from(225);
        let x = g.gaussian_col(32, 4, 0.0, 1.0);
        let input = ChunkedInput::new(&x, 8);
        let mut bank = LutBank::new(8);
        let mut prof = PhaseProfile::new();
        bank.build(&input, 0, 4, 0, 4, &mut prof, sk());
        check_bank_contents(&bank, &input, 0, 0);
        // Rebuild a smaller region; stale data beyond it must not matter.
        bank.build(&input, 1, 2, 1, 2, &mut prof, sk());
        check_bank_contents(&bank, &input, 1, 1);
    }

    #[test]
    fn builds_bit_exact_across_levels_and_fused_query_matches_entries() {
        let mut g = MatrixRng::seed_from(226);
        let x = g.gaussian_col(26, 7, 0.0, 1.0); // µ=4 → 6 full chunks + ragged
        let input = ChunkedInput::new(&x, 4);
        let mut prof = PhaseProfile::new();
        let mut reference = LutBank::new(4);
        reference.build(&input, 0, 7, 0, 7, &mut prof, sk());
        let keys = KeyMatrix::from_raw(1, 26, 4, (0..7u16).map(|c| (c * 3) % 16).collect());
        let mut y_ref = vec![0.0f32; 7];
        reference.query_fused(&keys, 0..1, &[1.25], &mut y_ref, 7, sk());
        for level in crate::simd::supported_levels() {
            let k = KernelRequest::Exact(level).resolve().unwrap();
            let mut bank = LutBank::new(4);
            bank.build(&input, 0, 7, 0, 7, &mut prof, k);
            for c in 0..7 {
                for key in 0..16u16 {
                    let sub = input.chunk(0, c);
                    if (key as usize) < (1usize << sub.len()) {
                        assert_eq!(
                            bank.entry_vec(c, key),
                            reference.entry_vec(c, key),
                            "level={level} chunk={c} key={key}"
                        );
                    }
                }
            }
            let mut y = vec![0.0f32; 7];
            bank.query_fused(&keys, 0..1, &[1.25], &mut y, 7, k);
            assert_eq!(y, y_ref, "level={level}");
        }
    }

    #[test]
    #[should_panic(expected = "2^µ of the key matrix")]
    fn gather_rows_rejects_key_matrix_of_another_mu() {
        let x = ColMatrix::zeros(16, 1);
        let mut bank = LutBank::new(4);
        bank.build(&ChunkedInput::new(&x, 4), 0, 4, 0, 1, &mut PhaseProfile::new(), sk());
        let keys = KeyMatrix::from_raw(1, 16, 8, vec![255, 255]);
        bank.gather_rows(&keys, 0..1, 0, 2, &[1.0], &mut [0.0], 1, sk());
    }

    #[test]
    fn resident_bytes_formula() {
        let x = ColMatrix::zeros(16, 2);
        let input = ChunkedInput::new(&x, 4);
        let mut bank = LutBank::new(4);
        let mut prof = PhaseProfile::new();
        bank.build(&input, 0, 4, 0, 2, &mut prof, sk());
        assert_eq!(bank.resident_bytes(), 4 * 16 * 2 * 4);
    }
}
