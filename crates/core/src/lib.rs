//! # BiQGEMM — lookup-table matrix multiplication for binary-coding
//! # quantized DNNs
//!
//! A from-scratch Rust reproduction of *BiQGEMM: Matrix Multiplication with
//! Lookup Table For Binary-Coding-based Quantized DNNs* (Jeon, Park, Kwon,
//! Kim, Yun, Lee — Samsung Research, SC 2020).
//!
//! ## The idea
//!
//! When a weight matrix is quantized to `{−1,+1}` factors, the dot product of
//! any length-`µ` slice of the input with a `{−1,+1}` row slice can take only
//! `2^µ` values. BiQGEMM pre-computes those values once per input slice —
//! into a **lookup table** — and turns the inner loop of GEMM into table
//! lookups keyed by `µ`-bit packed weights:
//!
//! 1. [`lut`] builds each table in `≈ 2^µ + µ − 1` additions using the
//!    paper's Algorithm 1 dynamic programming (vs `2^µ·µ` for brute force);
//! 2. [`weights::BiqWeights`] packs sign planes into the key matrix `K`
//!    (µ-bit keys, MSB-first) with per-row scales;
//! 3. [`tiled`] queries tables and accumulates (`Y[i,α] += q^β_α[K[i,β]]`)
//!    under the paper's LUT-stationary tiling (Algorithm 2), so live tables
//!    fit in cache; [`parallel`] distributes tiles over threads.
//!
//! Time complexity (paper Eq. 8–10): `O(2^µ·(n/µ)·b + m·(n/µ)·b)`, i.e.
//! `≈ GEMM/µ` when `2^µ ≪ m`. The analytic model lives in [`complexity`],
//! including the optimal-µ search; [`planner`] turns it plus a cache budget
//! into a concrete [`config::BiqConfig`], and additionally computes the
//! scratch-buffer sizes and serial/parallel recommendation the runtime
//! layer plans with.
//!
//! ## Execution model
//!
//! The single entry point is **`biq_runtime::Executor`**: build an
//! `ExecutionPlan` with `biq_runtime::PlanBuilder` (a thin layer over
//! [`planner`]), `compile` it against weights, and run the compiled op
//! against the executor's reusable arena — the quick start is the
//! `biq_runtime` crate example. This crate holds what that runtime calls:
//! [`arena::BiqArena`] owns the reusable scratch (LUT bank with its DP step
//! vectors), [`parallel::ParallelArena`] pools per-worker copies of it for
//! the rayon drivers, and [`tiled::biqgemm_serial_into`] /
//! [`parallel::biqgemm_parallel_arena_into`] are the two arena-threaded
//! kernels every serial and parallel plan runs. Concurrent traffic goes
//! through the `biq_serve` batching layer.
//!
//! ## Kernel levels
//!
//! The hot loops are implemented at multiple ISA levels — scalar, AVX2,
//! AVX-512, NEON — behind the [`simd`] kernel layer. A
//! [`config::BiqConfig`] carries a [`simd::KernelRequest`] (the successor
//! of the old `simd: bool` flag; `BiqConfig::simd = false` is now
//! `kernel: KernelRequest::Exact(KernelLevel::Scalar)`), which plan
//! builders resolve **once** into a pinned [`simd::ResolvedKernel`]; the
//! kernels take the resolved level as an argument and never probe CPU
//! features. All levels are bit-exact against scalar, which is what lets a
//! `BIQM` artifact compiled on one machine re-resolve and reproduce
//! identical outputs on any other — see the [`simd`] module docs for the
//! resolution rules, the `BIQ_KERNEL` override, and how to add an ISA.
//!
//! ## The kernel call under an executor
//!
//! ```
//! use biq_matrix::MatrixRng;
//! use biqgemm_core::tiled::biqgemm_serial_into;
//! use biqgemm_core::{BiqArena, BiqConfig, BiqWeights, PhaseProfile};
//!
//! let mut rng = MatrixRng::seed_from(1);
//! let signs = rng.signs(128, 64);                 // m × n ±1 weights
//! let x = rng.small_int_col(64, 4, 3);            // n × b activations
//!
//! let cfg = BiqConfig::default();
//! let w = BiqWeights::from_signs_unscaled(&signs, cfg.mu);
//! let kernel = cfg.kernel.resolve().expect("Auto always resolves"); // pinned at plan time
//! let (mut arena, mut profile) = (BiqArena::new(), PhaseProfile::new());
//! let mut y = vec![0.0f32; 128 * 4];              // row-major m × b
//! biqgemm_serial_into(&w, &x, &cfg, kernel, &mut profile, &mut arena, &mut y);
//! assert_eq!(y, signs.matmul(&x).as_slice());     // integer inputs: exact
//! ```

pub mod actquant;
pub mod arena;
pub mod complexity;
pub mod config;
pub mod layout;
pub mod lut;
pub mod mmu;
pub mod parallel;
pub mod planner;
pub mod profile;
pub mod serialize;
pub mod simd;
pub mod tiled;
pub mod weights;

pub use arena::BiqArena;
pub use config::{BiqConfig, Schedule};
pub use parallel::ParallelArena;
pub use profile::PhaseProfile;
pub use simd::{host_best, KernelError, KernelLevel, KernelRequest, ResolvedKernel, KERNEL_ENV};
pub use weights::BiqWeights;
