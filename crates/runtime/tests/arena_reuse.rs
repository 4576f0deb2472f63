//! Arena-reuse guarantee: once the executor has run a serial plan once, a
//! repeat run performs **zero heap allocation** — measured with a counting
//! global allocator, not inferred.
//!
//! This is the acceptance gate for the plan/executor refactor: the seed's
//! per-call `LutBank`, accumulator and DP-step allocations are gone from
//! the steady state of small-batch (`b ≤ 8`) inference, the paper's target
//! serving regime.

use biq_matrix::MatrixRng;
use biq_runtime::{
    compile, BackendSpec, Executor, PlanBuilder, QuantMethod, Threading, WeightSource,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counts the allocations the thread holding the suite lock makes
/// through the global allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The counter is process-global, so a sibling test's allocations would
/// land in a measured window. Every test holds this lock for its whole
/// body, which makes the measured regions mutually exclusive at any
/// `--test-threads`; only the holder's thread counts, which keeps the
/// harness's own allocations (reporting a finished test, spawning the
/// next one) out of the window too.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Holds the suite lock and marks this thread as the counted one.
struct Serial {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        COUNTED.with(|c| c.set(false));
    }
}

fn serial() -> Serial {
    // A failed test poisons the lock; the others still measure correctly.
    let lock = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    COUNTED.with(|c| c.set(true));
    Serial { _lock: lock }
}

#[test]
fn serial_small_batch_steady_state_allocates_nothing() {
    let _serial = serial();
    // The paper's serving regime: small batch against a large-ish matrix.
    for b in [1usize, 4, 8] {
        let mut g = MatrixRng::seed_from(0xa0 + b as u64);
        let (m, n) = (256, 512);
        let signs = g.signs(m, n);
        let x = g.small_int_col(n, b, 3);
        let plan = PlanBuilder::new(m, n)
            .batch_hint(b)
            .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
            .threading(Threading::Serial)
            .build();
        let op = compile(&plan, WeightSource::Signs(&signs));
        let mut exec = Executor::warmed_for(&op);
        let mut y = vec![0.0f32; m * b];

        // First run may still touch the allocator in theory; it is the
        // warm-up. Steady state starts at run two.
        exec.run_into(&op, &x, &mut y);
        let before = allocs();
        for _ in 0..16 {
            exec.run_into(&op, &x, &mut y);
        }
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "b = {b}: query phase allocated {} times in 16 steady-state runs",
            after - before
        );
    }
}

#[test]
fn warmed_executor_is_allocation_free_from_the_first_run() {
    let _serial = serial();
    let mut g = MatrixRng::seed_from(0xa9);
    let (m, n, b) = (128, 384, 4);
    let signs = g.signs(m, n);
    let x = g.small_int_col(n, b, 3);
    let plan = PlanBuilder::new(m, n)
        .batch_hint(b)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .threading(Threading::Serial)
        .build();
    let op = compile(&plan, WeightSource::Signs(&signs));
    let mut exec = Executor::warmed_for(&op);
    let mut y = vec![0.0f32; m * b];
    let before = allocs();
    exec.run_into(&op, &x, &mut y);
    let after = allocs();
    assert_eq!(after - before, 0, "warmed first run allocated {} times", after - before);
}

#[test]
fn gemv_over_many_chunk_tiles_is_allocation_free_once_warmed() {
    let _serial = serial();
    // b = 1 keeps one column's tables for every chunk resident (a width-1
    // tile builds them all at once), so the warmed bank must hold
    // ⌈n/µ⌉ tables, not one chunk tile's worth: 1024×2048 at µ = 8 under
    // the default config spans 8 chunk tiles of 32 chunks. Serial and
    // row-parallel plans alike allocate nothing from the first run on.
    use biqgemm_core::{BiqConfig, Schedule};
    let mut g = MatrixRng::seed_from(0xa1);
    let (m, n) = (1024, 2048);
    let w = g.gaussian(m, n, 0.0, 1.0);
    let x = g.gaussian_col(n, 1, 0.0, 1.0);
    let cfg = BiqConfig { schedule: Schedule::RowParallel, ..BiqConfig::default() };
    assert_eq!(n.div_ceil(cfg.mu).div_ceil(cfg.tile_chunks), 8);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for threading in [Threading::Serial, Threading::Parallel] {
        let plan = PlanBuilder::new(m, n)
            .batch_hint(1)
            .backend(BackendSpec::Biq { bits: 2, method: QuantMethod::Greedy })
            .config(cfg)
            .threading(threading)
            .build();
        let op = compile(&plan, WeightSource::Dense(&w));
        let mut y = vec![0.0f32; m];
        // One rayon thread: the parallel driver runs inline, so only its
        // own buffers can show up in the count.
        pool.install(|| {
            let mut exec = Executor::warmed_for(&op);
            let before = allocs();
            for _ in 0..4 {
                exec.run_into(&op, &x, &mut y);
            }
            let after = allocs();
            assert_eq!(
                after - before,
                0,
                "{threading:?}: warmed b=1 runs allocated {} times",
                after - before
            );
        });
    }
}

#[test]
fn fp32_blocked_steady_state_allocates_nothing() {
    let _serial = serial();
    // The dense serving path shares the arena's pack panel.
    let mut g = MatrixRng::seed_from(0xaa);
    let (m, n, b) = (128, 256, 6);
    let w = g.gaussian(m, n, 0.0, 1.0);
    let x = g.gaussian_col(n, b, 0.0, 1.0);
    let plan = PlanBuilder::new(m, n)
        .batch_hint(b)
        .backend(BackendSpec::Fp32Blocked)
        .threading(Threading::Serial)
        .build();
    let op = compile(&plan, WeightSource::Dense(&w));
    let mut exec = Executor::warmed_for(&op);
    let mut y = vec![0.0f32; m * b];
    exec.run_into(&op, &x, &mut y);
    let before = allocs();
    for _ in 0..8 {
        exec.run_into(&op, &x, &mut y);
    }
    assert_eq!(allocs() - before, 0, "blocked fp32 steady state allocated");
}

#[test]
fn parallel_steady_state_allocates_nothing_per_worker() {
    let _serial = serial();
    // The arena-aware parallel drivers draw every per-task buffer (LUT
    // bank, accumulator, DP steps, key-row ranges) from the executor's
    // persistent per-worker pool. Pinning the pool to one thread makes the
    // rayon shim degrade to an inline loop with no thread spawns, so the
    // counting allocator can observe the drivers' own behaviour: after
    // warm-up, repeat parallel runs must not touch the heap at all.
    use biqgemm_core::{BiqConfig, Schedule};
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    pool.install(|| {
        for schedule in [Schedule::RowParallel, Schedule::SharedLut] {
            let mut g = MatrixRng::seed_from(0xb0 + schedule as u64);
            let (m, n, b) = (256, 512, 16);
            let signs = g.signs(m, n);
            let x = g.small_int_col(n, b, 3);
            let plan = PlanBuilder::new(m, n)
                .batch_hint(b)
                .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
                .config(BiqConfig { schedule, ..BiqConfig::default() })
                .threading(Threading::Parallel)
                .build();
            let op = compile(&plan, WeightSource::Signs(&signs));
            let mut exec = Executor::warmed_for(&op);
            let mut y = vec![0.0f32; m * b];
            exec.run_into(&op, &x, &mut y); // warm-up run
            let before = allocs();
            for _ in 0..8 {
                exec.run_into(&op, &x, &mut y);
            }
            let after = allocs();
            assert_eq!(
                after - before,
                0,
                "{schedule:?}: parallel steady state allocated {} times in 8 runs",
                after - before
            );
        }
    });
}
