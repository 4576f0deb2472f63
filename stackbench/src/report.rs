//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of its list: the end-to-end list in
//! an untraced run, the per-layer list in a traced one. A per-layer metric
//! of a layer the workload does not drive reads 0 — that layer did no work.

use crate::Tally;

/// End-to-end metrics: `(name, unit)`. Each one is measured on every
/// workload (see the README for what it means on each).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("tokens_per_s", "1/s"),
    ("cpu_us_per_token", "us"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("artifact.open_ms", "ms"),
    ("artifact.restore_ms", "ms"),
    ("artifact.warm_ms", "ms"),
    ("nn.layer_us.0", "us"),
    ("nn.layer_us.1", "us"),
    ("nn.layer_us.2", "us"),
    ("nn.layer_us.3", "us"),
    ("nn.layer_us.4", "us"),
    ("nn.layer_us.5", "us"),
    ("nn.non_gemm_us", "us"),
    ("nn.non_gemm_share", "ratio"),
    ("runtime.exec_us", "us"),
    ("runtime.dispatch_us", "us"),
    ("core.build_us", "us"),
    ("core.query_us", "us"),
    ("core.replace_us", "us"),
    ("core.query_share", "ratio"),
    ("core.lookups", "count"),
    ("core.lut_entries", "count"),
    ("core.ns_per_lookup", "ns"),
    ("core.bytes_moved", "B"),
    ("serve.inproc_p50_us.light", "us"),
    ("serve.inproc_p50_us.heavy", "us"),
    ("serve.batch_cols_mean.light", "count"),
    ("serve.batch_cols_mean.heavy", "count"),
    ("serve.exec_us_per_col", "us"),
    ("serve.wait_us", "us"),
    ("serve.rejected", "count"),
    ("serve.goodput_rps", "1/s"),
    ("serve.saturation_rps", "1/s"),
    ("net.tax_us.light", "us"),
    ("net.tax_us.heavy", "us"),
    ("net.tcp_p50_us.heavy", "us"),
    ("net.tcp_p99_us.heavy", "us"),
    ("net.read_syscalls", "count"),
    ("net.write_syscalls", "count"),
    ("net.wakeups", "count"),
    ("net.bytes_in", "B"),
    ("net.bytes_out", "B"),
    ("registry.load_ms", "ms"),
    ("registry.swap_p50_ms", "ms"),
    ("registry.swap_tail_ms", "ms"),
    ("registry.stall_p99_us", "us"),
    ("registry.swaps", "count"),
    ("registry.refused", "count"),
    ("gen.lag_p99_us", "us"),
    ("gen.sent", "count"),
    ("gen.ok", "count"),
    ("gen.failed", "count"),
    ("trace.overhead_us", "us"),
    ("latency.p50_us", "us"),
    ("latency.tail_us", "us"),
    ("latency.tail_q", "ratio"),
];

/// The metrics one run reports, in catalogue order.
#[derive(Debug)]
pub struct Report {
    list: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
    traced: bool,
}

impl Report {
    /// An empty report for an untraced (`traced = false`) or traced run.
    pub fn new(traced: bool) -> Self {
        let list = if traced { PER_LAYER } else { END_TO_END };
        Self { list, values: vec![None; list.len()], traced }
    }

    /// Sets metric `name`. Names outside this run's list are ignored, so
    /// workload code can set both lists' metrics unconditionally.
    pub fn set(&mut self, name: &str, value: f64) {
        if let Some(i) = self.list.iter().position(|(n, _)| *n == name) {
            self.values[i] = Some(if value.is_finite() { value } else { 0.0 });
        }
    }

    /// Prints one `metric` line per entry, then the JSON result line last.
    ///
    /// # Panics
    /// Panics when an end-to-end metric was never set — every workload
    /// must measure each of them.
    pub fn print(&self, tally: Tally, correct: bool) {
        let mut json = String::new();
        for (i, ((name, unit), v)) in self.list.iter().zip(&self.values).enumerate() {
            let v = match v {
                Some(v) => *v,
                None if self.traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            println!("metric {name} = {v} {unit}");
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        println!(
            "error_rate = {} ({} failed of {})",
            tally.error_rate(),
            tally.failed,
            tally.attempted
        );
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            tally.attempted, tally.failed
        );
    }
}
