//! Bit-packing of sign matrices.
//!
//! Three packed formats, one per consumer:
//!
//! * [`KeyMatrix`] — the paper's key matrix `K ∈ Z^{m×⌈n/µ⌉}` (Fig. 5): each
//!   run of µ consecutive signs *within a row* becomes one integer key,
//!   **MSB-first** with `+1 ↦ 1` (`{−1,+1,+1,−1} ↦ 0b0110 = 6`). Keys index
//!   directly into BiQGEMM's lookup tables. A ragged final chunk of length
//!   `L < µ` packs into the low `L` bits (its LUT has `2^L` entries).
//! * [`PackedRowsU32`] / [`PackedRowsU64`] — 32/64 consecutive signs per row
//!   packed **LSB-first** (`bit i ↦ element 32·w + i`), matching the paper's
//!   Algorithm 3 unpack loop `w_i = (((x >> i) & 1) · 2) − 1`. Used by the
//!   unpack-GEMM baseline (Fig. 9) and the XNOR-popcount kernel (Table IV).
//!
//! All packers round-trip exactly against [`crate::unpack`]; property tests
//! cover ragged widths.

use biq_matrix::store::{PodStore, PodView};
use biq_matrix::SignMatrix;

/// The paper's key matrix: µ-bit row chunks of a binary weight matrix,
/// stored one `u16` per key (µ ≤ 16).
///
/// Key storage is a [`PodStore`], so a key matrix deserialized from a model
/// artifact borrows the artifact's byte buffer ([`KeyMatrix::from_shared`])
/// instead of re-allocating — loading a packed model is a validation pass,
/// not a copy.
///
/// Invariant: every key of a full chunk is below `2^µ` and every key of a
/// ragged last chunk below `2^len`. Each constructor establishes it (the
/// deserializing ones with one range scan) and no method changes a key
/// afterwards; BiQGEMM's query kernels index their `2^µ`-entry tables
/// with these keys unchecked on the strength of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyMatrix {
    rows: usize,
    /// Logical width of the source sign matrix (may be ragged w.r.t. µ).
    cols: usize,
    mu: usize,
    chunks: usize,
    keys: PodStore<u16>,
}

impl KeyMatrix {
    /// Packs a `{−1,+1}` matrix into µ-bit keys.
    ///
    /// # Panics
    /// Panics unless `1 ≤ µ ≤ 16`.
    pub fn pack(signs: &SignMatrix, mu: usize) -> Self {
        assert!((1..=16).contains(&mu), "LUT-unit µ must be in 1..=16, got {mu}");
        let (rows, cols) = signs.shape();
        assert!(cols > 0, "cannot pack an empty matrix");
        let chunks = cols.div_ceil(mu);
        let mut keys = Vec::with_capacity(rows * chunks);
        for i in 0..rows {
            let row = signs.row(i);
            for beta in 0..chunks {
                let start = beta * mu;
                let end = (start + mu).min(cols);
                let mut key: u16 = 0;
                for &s in &row[start..end] {
                    key = (key << 1) | u16::from(s > 0);
                }
                keys.push(key);
            }
        }
        Self { rows, cols, mu, chunks, keys: keys.into() }
    }

    /// Rebuilds a key matrix from raw parts (deserialization path).
    ///
    /// # Panics
    /// Panics if the buffer length mismatches or any key exceeds its chunk's
    /// bit width — callers performing untrusted decoding should validate
    /// first (see `serialize::decode_key_matrix`).
    pub fn from_raw(rows: usize, cols: usize, mu: usize, keys: Vec<u16>) -> Self {
        Self::from_store(rows, cols, mu, keys.into())
    }

    /// Rebuilds a key matrix over a zero-copy artifact view — same
    /// validation as [`KeyMatrix::from_raw`], but the keys stay borrowed
    /// from the loaded buffer.
    ///
    /// # Panics
    /// Panics under the same conditions as [`KeyMatrix::from_raw`].
    pub fn from_shared(rows: usize, cols: usize, mu: usize, keys: PodView<u16>) -> Self {
        Self::from_store(rows, cols, mu, keys.into())
    }

    /// Non-panicking [`KeyMatrix::from_shared`] for untrusted input
    /// (artifact loaders): every key is range-checked in one linear scan,
    /// and violations come back as errors.
    pub fn try_from_shared(
        rows: usize,
        cols: usize,
        mu: usize,
        keys: PodView<u16>,
    ) -> Result<Self, String> {
        Self::try_from_store(rows, cols, mu, keys.into())
    }

    fn from_store(rows: usize, cols: usize, mu: usize, keys: PodStore<u16>) -> Self {
        Self::try_from_store(rows, cols, mu, keys).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_from_store(
        rows: usize,
        cols: usize,
        mu: usize,
        keys: PodStore<u16>,
    ) -> Result<Self, String> {
        if !(1..=16).contains(&mu) {
            return Err(format!("LUT-unit µ must be in 1..=16, got {mu}"));
        }
        if cols == 0 {
            return Err("key matrix must have columns".into());
        }
        let chunks = cols.div_ceil(mu);
        if keys.len() != rows * chunks {
            return Err(format!(
                "key buffer length mismatch: {} keys for {rows} rows x {chunks} chunks",
                keys.len()
            ));
        }
        // One linear scan: full chunks are `µ` bits wide, only the final
        // chunk of each row may be ragged.
        let last_len = cols - (chunks - 1) * mu;
        let full_cap = if mu == 16 { u32::MAX } else { 1u32 << mu };
        let last_cap = if last_len == 16 { u32::MAX } else { 1u32 << last_len };
        let ks = keys.as_slice();
        for r in 0..rows {
            let row = &ks[r * chunks..(r + 1) * chunks];
            for (beta, &key) in row[..chunks - 1].iter().enumerate() {
                if (key as u32) >= full_cap {
                    return Err(format!("key {key} at chunk {beta} exceeds {mu} bits"));
                }
            }
            let key = row[chunks - 1];
            if (key as u32) >= last_cap {
                return Err(format!("key {key} at chunk {} exceeds {last_len} bits", chunks - 1));
            }
        }
        Ok(Self { rows, cols, mu, chunks, keys })
    }

    /// True when the keys are a borrowed artifact view.
    pub fn is_shared(&self) -> bool {
        self.keys.is_shared()
    }

    /// Number of key rows (`m`, or `β·m` for stacked multi-bit weights).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count `n` of the source sign matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The LUT-unit µ this matrix was packed with.
    #[inline]
    pub fn mu(&self) -> usize {
        self.mu
    }

    /// Number of key columns `⌈n/µ⌉`.
    #[inline]
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Length (in signs) of chunk `beta` — `µ` except possibly the last.
    #[inline]
    pub fn chunk_len(&self, beta: usize) -> usize {
        debug_assert!(beta < self.chunks);
        self.mu.min(self.cols - beta * self.mu)
    }

    /// Key at `(row, chunk)`.
    #[inline]
    pub fn key(&self, row: usize, beta: usize) -> u16 {
        debug_assert!(row < self.rows && beta < self.chunks);
        self.keys[row * self.chunks + beta]
    }

    /// The contiguous key row for `row`.
    #[inline]
    pub fn key_row(&self, row: usize) -> &[u16] {
        &self.keys[row * self.chunks..(row + 1) * self.chunks]
    }

    /// The raw key buffer (row-major `rows × chunks`).
    #[inline]
    pub fn as_slice(&self) -> &[u16] {
        self.keys.as_slice()
    }

    /// Unpacks back to a dense sign matrix (inverse of [`Self::pack`]).
    pub fn unpack(&self) -> SignMatrix {
        SignMatrix::from_fn(self.rows, self.cols, |i, j| {
            let beta = j / self.mu;
            let within = j % self.mu;
            let len = self.chunk_len(beta);
            let key = self.key(i, beta);
            (key >> (len - 1 - within)) & 1 == 1
        })
    }

    /// Bytes used by the key storage (2 bytes per key as stored here).
    pub fn storage_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<u16>()
    }
}

/// Macro-free generic row packer for LSB-first word packing.
macro_rules! packed_rows {
    ($name:ident, $word:ty, $bits:expr) => {
        /// Sign rows packed LSB-first into machine words (bit `i` of word `w`
        /// holds element `w·WORD_BITS + i`; `+1 ↦ 1`). Tail bits of the final
        /// word are zero.
        ///
        /// Word storage is a [`PodStore`], so planes deserialized from a
        /// model artifact borrow the artifact's buffer
        /// (`from_shared`) instead of re-allocating.
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct $name {
            rows: usize,
            cols: usize,
            words_per_row: usize,
            words: PodStore<$word>,
        }

        impl $name {
            /// Number of bits per storage word.
            pub const WORD_BITS: usize = $bits;

            /// Packs a sign matrix row by row.
            pub fn pack(signs: &SignMatrix) -> Self {
                let (rows, cols) = signs.shape();
                let words_per_row = cols.div_ceil(Self::WORD_BITS);
                let mut words = vec![0 as $word; rows * words_per_row];
                for i in 0..rows {
                    let row = signs.row(i);
                    let dst = &mut words[i * words_per_row..(i + 1) * words_per_row];
                    for (j, &s) in row.iter().enumerate() {
                        if s > 0 {
                            dst[j / Self::WORD_BITS] |= (1 as $word) << (j % Self::WORD_BITS);
                        }
                    }
                }
                Self { rows, cols, words_per_row, words: words.into() }
            }

            /// Rebuilds packed rows from raw parts (deserialization path).
            ///
            /// # Panics
            /// Panics when the buffer length disagrees with
            /// `rows · ⌈cols/WORD_BITS⌉` or a final-word tail bit is set
            /// (tail bits must be zero so XNOR tail masks stay exact).
            pub fn from_raw(rows: usize, cols: usize, words: Vec<$word>) -> Self {
                Self::from_store(rows, cols, words.into())
            }

            /// Rebuilds packed rows over a zero-copy artifact view — same
            /// validation as `from_raw`, words stay borrowed.
            ///
            /// # Panics
            /// Panics under the same conditions as `from_raw`.
            pub fn from_shared(rows: usize, cols: usize, words: PodView<$word>) -> Self {
                Self::from_store(rows, cols, words.into())
            }

            /// Non-panicking `from_shared` for untrusted input (artifact
            /// loaders).
            pub fn try_from_shared(
                rows: usize,
                cols: usize,
                words: PodView<$word>,
            ) -> Result<Self, String> {
                Self::try_from_store(rows, cols, words.into())
            }

            fn from_store(rows: usize, cols: usize, words: PodStore<$word>) -> Self {
                Self::try_from_store(rows, cols, words).unwrap_or_else(|e| panic!("{e}"))
            }

            fn try_from_store(
                rows: usize,
                cols: usize,
                words: PodStore<$word>,
            ) -> Result<Self, String> {
                if cols == 0 {
                    return Err("packed rows must have columns".into());
                }
                let words_per_row = cols.div_ceil(Self::WORD_BITS);
                if words.len() != rows * words_per_row {
                    return Err(format!(
                        "word buffer length mismatch: {} words for {rows} rows",
                        words.len()
                    ));
                }
                let out = Self { rows, cols, words_per_row, words };
                let tail = out.tail_mask();
                for i in 0..rows {
                    let last = out.row(i)[words_per_row - 1];
                    if last & !tail != 0 {
                        return Err(format!("tail bits of row {i} must be zero"));
                    }
                }
                Ok(out)
            }

            /// The raw packed words (row-major, `words_per_row` per row).
            #[inline]
            pub fn as_words(&self) -> &[$word] {
                self.words.as_slice()
            }

            /// Number of rows.
            #[inline]
            pub fn rows(&self) -> usize {
                self.rows
            }

            /// Logical column count (signs per row).
            #[inline]
            pub fn cols(&self) -> usize {
                self.cols
            }

            /// Words per packed row.
            #[inline]
            pub fn words_per_row(&self) -> usize {
                self.words_per_row
            }

            /// The packed words of row `i`.
            #[inline]
            pub fn row(&self, i: usize) -> &[$word] {
                &self.words[i * self.words_per_row..(i + 1) * self.words_per_row]
            }

            /// Mask selecting the valid bits of the final word of a row
            /// (all-ones when the width divides the word size).
            #[inline]
            pub fn tail_mask(&self) -> $word {
                let rem = self.cols % Self::WORD_BITS;
                if rem == 0 {
                    <$word>::MAX
                } else {
                    ((1 as $word) << rem) - 1
                }
            }

            /// Sign at `(i, j)` recovered from the packed form.
            #[inline]
            pub fn get(&self, i: usize, j: usize) -> i8 {
                debug_assert!(i < self.rows && j < self.cols);
                let w = self.row(i)[j / Self::WORD_BITS];
                if (w >> (j % Self::WORD_BITS)) & 1 == 1 {
                    1
                } else {
                    -1
                }
            }

            /// Unpacks back to a dense sign matrix.
            pub fn unpack(&self) -> SignMatrix {
                SignMatrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j) == 1)
            }

            /// Bytes used by the packed storage.
            pub fn storage_bytes(&self) -> usize {
                self.words.len() * std::mem::size_of::<$word>()
            }
        }
    };
}

packed_rows!(PackedRowsU32, u32, 32);
packed_rows!(PackedRowsU64, u64, 64);

/// Packs a sign *vector* LSB-first into `u64` words (for XNOR activations).
pub fn pack_signs_u64(signs: &[i8]) -> Vec<u64> {
    let words = signs.len().div_ceil(64);
    let mut out = vec![0u64; words];
    for (j, &s) in signs.iter().enumerate() {
        debug_assert!(s == 1 || s == -1);
        if s > 0 {
            out[j / 64] |= 1u64 << (j % 64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use biq_matrix::MatrixRng;

    #[test]
    fn key_matches_paper_example() {
        // Fig. 5: {−1, 1, 1, −1} -> 0110₂ = 6 with µ = 4.
        let s = SignMatrix::from_vec(1, 4, vec![-1, 1, 1, -1]);
        let k = KeyMatrix::pack(&s, 4);
        assert_eq!(k.key(0, 0), 6);
    }

    #[test]
    fn keys_are_msb_first() {
        // {+1, −1, −1, −1} -> 1000₂ = 8.
        let s = SignMatrix::from_vec(1, 4, vec![1, -1, -1, -1]);
        assert_eq!(KeyMatrix::pack(&s, 4).key(0, 0), 8);
        // {−1, −1, −1, +1} -> 0001₂ = 1.
        let s = SignMatrix::from_vec(1, 4, vec![-1, -1, -1, 1]);
        assert_eq!(KeyMatrix::pack(&s, 4).key(0, 0), 1);
    }

    #[test]
    fn key_pack_unpack_round_trip() {
        let mut g = MatrixRng::seed_from(31);
        for (rows, cols, mu) in [(3, 12, 4), (2, 10, 4), (5, 7, 3), (1, 16, 16), (4, 9, 8)] {
            let s = g.signs(rows, cols);
            let k = KeyMatrix::pack(&s, mu);
            assert_eq!(k.unpack(), s, "round trip failed rows={rows} cols={cols} mu={mu}");
        }
    }

    #[test]
    fn ragged_tail_chunk_lengths() {
        let mut g = MatrixRng::seed_from(32);
        let s = g.signs(2, 10);
        let k = KeyMatrix::pack(&s, 4);
        assert_eq!(k.chunks(), 3);
        assert_eq!(k.chunk_len(0), 4);
        assert_eq!(k.chunk_len(2), 2);
        // Ragged key fits in 2 bits.
        assert!(k.key(0, 2) < 4);
    }

    #[test]
    fn key_row_slice_is_contiguous() {
        let mut g = MatrixRng::seed_from(33);
        let s = g.signs(3, 8);
        let k = KeyMatrix::pack(&s, 4);
        assert_eq!(k.key_row(1), &[k.key(1, 0), k.key(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "µ must be in 1..=16")]
    fn mu_over_16_rejected() {
        let s = SignMatrix::ones(1, 32);
        let _ = KeyMatrix::pack(&s, 17);
    }

    #[test]
    fn packed_u32_round_trip_with_ragged_width() {
        let mut g = MatrixRng::seed_from(34);
        for cols in [1usize, 31, 32, 33, 70] {
            let s = g.signs(3, cols);
            let p = PackedRowsU32::pack(&s);
            assert_eq!(p.unpack(), s, "u32 round trip failed cols={cols}");
            assert_eq!(p.words_per_row(), cols.div_ceil(32));
        }
    }

    #[test]
    fn packed_u64_round_trip() {
        let mut g = MatrixRng::seed_from(35);
        for cols in [1usize, 63, 64, 65, 130] {
            let s = g.signs(2, cols);
            let p = PackedRowsU64::pack(&s);
            assert_eq!(p.unpack(), s, "u64 round trip failed cols={cols}");
        }
    }

    #[test]
    fn packed_is_lsb_first() {
        // Element 0 = +1, rest −1 -> word 0 has only bit 0 set.
        let mut signs = vec![-1i8; 40];
        signs[0] = 1;
        signs[33] = 1;
        let s = SignMatrix::from_vec(1, 40, signs);
        let p = PackedRowsU32::pack(&s);
        assert_eq!(p.row(0)[0], 1);
        assert_eq!(p.row(0)[1], 1 << 1); // element 33 = word 1, bit 1
    }

    #[test]
    fn tail_mask_selects_valid_bits() {
        let s = SignMatrix::ones(1, 40);
        let p = PackedRowsU32::pack(&s);
        assert_eq!(p.tail_mask(), (1u32 << 8) - 1);
        let s = SignMatrix::ones(1, 64);
        let p = PackedRowsU64::pack(&s);
        assert_eq!(p.tail_mask(), u64::MAX);
    }

    #[test]
    fn pack_signs_u64_matches_matrix_packer() {
        let mut g = MatrixRng::seed_from(36);
        let s = g.signs(1, 100);
        let v = pack_signs_u64(s.row(0));
        let p = PackedRowsU64::pack(&s);
        assert_eq!(v, p.row(0));
    }

    #[test]
    fn storage_bytes_reflect_compression() {
        let s = SignMatrix::ones(128, 1024);
        let k = KeyMatrix::pack(&s, 8);
        // 128 rows * 128 chunks * 2 bytes.
        assert_eq!(k.storage_bytes(), 128 * 128 * 2);
        let p = PackedRowsU32::pack(&s);
        assert_eq!(p.storage_bytes(), 128 * 32 * 4);
    }
}
