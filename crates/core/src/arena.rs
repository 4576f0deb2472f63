//! Reusable execution scratch for BiQGEMM — the allocation-free query path.
//!
//! Every BiQGEMM call needs transient state: a [`LutBank`] holding the
//! live lookup tables of the current tile and (inside the bank) the DP
//! step vectors of Algorithm 1. The seed kernels allocated these per call;
//! a [`BiqArena`] owns them across calls so the steady state of repeated
//! small-batch inference — the paper's target regime, where per-call
//! allocation is measurable — touches the heap only when a *larger* shape
//! than ever seen arrives. (The per-row batch accumulator the seed also
//! carried is gone: the fused query kernel accumulates in registers.)
//!
//! The arena is keyed by µ: a bank built for one key width cannot be
//! reinterpreted under another, so changing it rebuilds the bank (an
//! explicit, rare cost). All buffers grow monotonically and never shrink.
//!
//! `biq_runtime::Executor` wraps one `BiqArena` (plus baseline-kernel
//! scratch) behind the workspace-wide `GemmBackend` trait.

use crate::layout::LutBank;

/// Reusable scratch buffers for the serial BiQGEMM tile loop.
#[derive(Debug)]
pub struct BiqArena {
    bank: Option<LutBank>,
    bank_mu: usize,
}

impl Default for BiqArena {
    fn default() -> Self {
        Self::new()
    }
}

impl BiqArena {
    /// An empty arena; buffers are created on first use.
    pub fn new() -> Self {
        Self { bank: None, bank_mu: 0 }
    }

    /// Pre-sizes every buffer for a serial run of `cfg` over an `n`-wide
    /// input at batch `b` (or any smaller batch), so even the *first*
    /// kernel call at such a shape is allocation-free — the bank sizing of
    /// [`crate::planner::scratch_spec`].
    pub fn reserve(&mut self, cfg: &crate::config::BiqConfig, n: usize, b: usize) {
        let nb = cfg.tile_batch.min(b.max(1));
        let bank = self.bank(cfg.mu);
        bank.reserve(cfg.tile_chunks, nb);
        // A width-1 batch tile keeps one column's tables for every chunk.
        bank.reserve(n.div_ceil(cfg.mu), 1);
    }

    /// Mutable access to the bank for one kernel run, (re)creating it when
    /// µ differs from the cached key.
    pub fn bank(&mut self, mu: usize) -> &mut LutBank {
        if self.bank.is_none() || self.bank_mu != mu {
            self.bank = Some(LutBank::new(mu));
            self.bank_mu = mu;
        }
        self.bank.as_mut().expect("bank just ensured")
    }

    /// Bytes of lookup-table data currently resident in the bank.
    pub fn resident_lut_bytes(&self) -> usize {
        self.bank.as_ref().map_or(0, LutBank::resident_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_is_cached_across_same_key_calls() {
        let mut a = BiqArena::new();
        let _ = a.bank(4);
        let before = a.bank.as_ref().map(|b| b as *const LutBank as usize);
        let _ = a.bank(4);
        let after = a.bank.as_ref().map(|b| b as *const LutBank as usize);
        assert_eq!(before, after, "same µ must not rebuild the bank");
    }

    #[test]
    fn key_change_rebuilds_bank() {
        let x = biq_matrix::ColMatrix::zeros(16, 2);
        let input = biq_matrix::reshape::ChunkedInput::new(&x, 4);
        let mut a = BiqArena::new();
        let k = crate::simd::ResolvedKernel::scalar();
        a.bank(4).build(&input, 0, 4, 0, 2, &mut crate::PhaseProfile::new(), k);
        assert_eq!(a.resident_lut_bytes(), 4 * 16 * 2 * 4);
        let _ = a.bank(4);
        assert_eq!(a.resident_lut_bytes(), 4 * 16 * 2 * 4, "same µ keeps the bank");
        let _ = a.bank(8);
        assert_eq!(a.bank_mu, 8);
        assert_eq!(a.resident_lut_bytes(), 0, "a new µ starts from an empty bank");
    }
}
