//! Opt-in CPU affinity for serve workers (`--pin-workers`).
//!
//! Pinning each worker thread to a fixed core keeps its warmed
//! [`biq_runtime::Executor`] arenas node-local: the first-touch pages the
//! warm-up faults in stay on the pinned core's NUMA node and in its private
//! cache slices, instead of migrating with the thread on every scheduler
//! decision. On the b=1 latency path — where one LUT build plus one gather
//! is only tens of microseconds — a single cross-core migration costs more
//! than the query itself.
//!
//! Via raw `sched_setaffinity(2)` through the same std-only `extern "C"`
//! pattern the CLI uses for SIGINT handling (no libc crate in the offline
//! workspace); like the rest of the crate, Linux only.

/// Pins the calling thread to `cpu` (best effort). Returns `true` when the
/// kernel accepted the mask, `false` on failure — callers treat `false` as
/// "run unpinned", never as fatal.
pub fn pin_current_thread(cpu: usize) -> bool {
    // 16 × u64 = 1024 CPU bits, the kernel's default CPU_SETSIZE. We only
    // ever set one bit; cores ≥ 1024 simply decline the pin.
    const MASK_WORDS: usize = 16;
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    extern "C" {
        // pid 0 = the calling thread. `cpusetsize` is in bytes.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: the mask buffer outlives the call and its length matches
    // `cpusetsize`; sched_setaffinity reads, never writes, the mask.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
}

/// The number of CPUs workers may be pinned across: worker `i` targets core
/// `i % cpu_count()`. Falls back to 1 if the parallelism query fails.
pub fn cpu_count() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_core_zero_succeeds() {
        // Core 0 exists on every host this runs on; pin a scratch
        // thread (not the test harness thread) so the mask change is
        // contained.
        let ok = std::thread::spawn(|| pin_current_thread(0)).join().unwrap();
        assert!(ok, "sched_setaffinity to core 0 should succeed");
    }

    #[test]
    fn out_of_range_cpu_is_refused_not_fatal() {
        assert!(!pin_current_thread(1 << 20));
    }

    #[test]
    fn cpu_count_is_positive() {
        assert!(cpu_count() >= 1);
    }
}
