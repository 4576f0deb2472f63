//! The host-shape record printed with every run, so that a result taken on
//! a differently shaped host reads as a host mismatch, not a regression.

use std::time::Instant;

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// Mean cost of one `Instant::now()` in ns, over a million reads.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let t0 = Instant::now();
    let mut last = t0;
    for _ in 0..READS {
        last = std::hint::black_box(Instant::now());
    }
    (last - t0).as_nanos() as f64 / READS as f64
}

/// Unified L2 and last-level cache sizes of cpu0, as sysfs prints them.
fn cache_sizes() -> (String, String) {
    let (mut l2, mut llc, mut llc_level) = ("?".to_string(), "?".to_string(), 0);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trim(&format!("{dir}/level")).and_then(|l| l.parse::<u32>().ok()),
            read_trim(&format!("{dir}/type")),
            read_trim(&format!("{dir}/size")),
        ) else {
            continue;
        };
        if kind == "Instruction" {
            continue;
        }
        if level == 2 {
            l2 = size.clone();
        }
        if level >= llc_level {
            llc_level = level;
            llc = size;
        }
    }
    (l2, llc)
}

/// One line describing the host: nproc, clocksource, measured clock-read
/// cost, the best kernel level, L2/LLC sizes and the 1-minute load average
/// at start.
pub fn record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let clocksource = read_trim("/sys/devices/system/clocksource/clocksource0/current_clocksource")
        .unwrap_or_else(|| "?".into());
    let load = read_trim("/proc/loadavg")
        .and_then(|l| l.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "?".into());
    let (l2, llc) = cache_sizes();
    format!(
        "host: nproc={nproc} clocksource={clocksource} clock_read_ns={:.1} kernel={} \
         l2={l2} llc={llc} loadavg_1m={load}",
        clock_read_ns(),
        biqgemm_core::host_best(),
    )
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one), MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (user + system) process `pid` has run so far, ns: the sum of
/// its live threads' `schedstat` on-CPU times.
pub fn cpu_ns(pid: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else { return 0 };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}
