//! `biq top`: a live terminal dashboard over a running daemon's `History`,
//! `SlowLog`, and `ListModels` admin verbs — per-op request rates with
//! sparkline history, windowed latency quantiles, the slowest requests
//! with their phase breakdowns, and the model fleet table (resident bytes
//! against the `--mem-budget` ceiling, in-flight and completed per
//! version).
//!
//! The rendering itself is [`biq_obs::render_dashboard`] (pure strings);
//! this module only fetches the two payloads and drives the refresh. In
//! live mode each frame starts with an ANSI clear; `--once` prints a
//! single plain-text snapshot and exits, which is what the CI smoke greps
//! (no TTY required).

use crate::{connect_retry, CliError};
use biq_obs::{render_dashboard, MetricValue, MetricsSnapshot};
use biq_serve::net::NetClient;
use std::io::Write;
use std::time::Duration;

/// Parameters of one `biq top` invocation.
#[derive(Clone, Debug)]
pub struct TopConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Print one snapshot and exit instead of refreshing.
    pub once: bool,
    /// Refresh period in live mode.
    pub interval: Duration,
    /// Connection attempts before giving up (100 ms apart).
    pub connect_attempts: usize,
}

impl Default for TopConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8790".into(),
            once: false,
            interval: Duration::from_secs(1),
            connect_attempts: 10,
        }
    }
}

/// One dashboard frame: fetches the daemon's retained time-series, slow
/// log, model fleet, and reactor counters over a connected client and
/// renders them.
pub fn fetch_frame(client: &mut NetClient, title: &str) -> Result<String, CliError> {
    let points = client.history(0).map_err(|e| CliError(format!("history query: {e}")))?;
    let slow = client.slow_log(0).map_err(|e| CliError(format!("slow-log query: {e}")))?;
    let models = client.list_models().map_err(|e| CliError(format!("model query: {e}")))?;
    let samples = client.stats().map_err(|e| CliError(format!("stats query: {e}")))?;
    let metrics = MetricsSnapshot { samples };
    let budget = metrics.samples.iter().find(|s| s.name == "biq_mem_budget_bytes").and_then(|s| {
        match s.value {
            MetricValue::Gauge(v) if v > 0 => Some(v as u64),
            _ => None,
        }
    });
    let mut frame = render_dashboard(title, &points, &slow);
    frame.push('\n');
    frame
        .push_str(&biq_obs::render_models_section(&crate::fleet_cmds::model_rows(&models), budget));
    frame.push_str(&render_net_line(&metrics));
    frame.push('\n');
    Ok(frame)
}

/// The reactor health line: connection count, wakeups, syscall amortization
/// (read/write syscalls per frame — vectored writes and multi-frame reads
/// push both below 1), and the write-queue depth tail. Lifetime totals, so
/// the ratios are stable summaries rather than windowed rates.
pub fn render_net_line(metrics: &MetricsSnapshot) -> String {
    let counter = |name: &str| metrics.counter_total(name) as f64;
    let conns: i64 = metrics
        .samples
        .iter()
        .filter(|s| s.name == "biq_net_connections_open")
        .filter_map(|s| match s.value {
            MetricValue::Gauge(g) => Some(g),
            _ => None,
        })
        .sum();
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let wq_p99 = metrics
        .samples
        .iter()
        .find(|s| s.name == "biq_net_write_queue_depth")
        .and_then(|s| match &s.value {
            MetricValue::Histogram(h) => Some(h.quantile(0.99)),
            _ => None,
        })
        .unwrap_or(0);
    format!(
        "NET conns {conns}  wakeups {wakeups:.0}  rd-syscalls/frame {rd:.2}  \
         wr-syscalls/frame {wr:.2}  wq-depth p99 {wq_p99}",
        wakeups = counter("biq_net_reactor_wakeups_total"),
        rd = per(counter("biq_net_read_syscalls_total"), counter("biq_net_frames_in_total")),
        wr = per(counter("biq_net_write_syscalls_total"), counter("biq_net_frames_out_total")),
    )
}

/// `biq top`: print one snapshot (`--once`) or refresh until the
/// connection drops or the process is interrupted.
pub fn cmd_top(cfg: &TopConfig) -> Result<(), CliError> {
    let mut client = connect_retry(&cfg.addr, cfg.connect_attempts)?;
    loop {
        let frame = fetch_frame(&mut client, &cfg.addr)?;
        if cfg.once {
            print!("{frame}");
            return Ok(());
        }
        // Clear + home, then the frame: a flicker-free enough refresh
        // without pulling in a terminal library.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(cfg.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_cmds::{cmd_compile, CompileConfig};
    use crate::net_cmds::{cmd_load_client, start_daemon, DaemonConfig};
    use crate::traffic::TrafficConfig;

    /// The full `biq top --once` path against a live daemon: drive load,
    /// sample the series ring (as the daemon loop does each second), and
    /// check the dashboard carries a nonzero rate row and a slow-log row
    /// whose phases sum to its end-to-end latency.
    #[test]
    fn top_once_renders_live_rates_and_slow_log() {
        let path = std::env::temp_dir().join("biq_cli_top_once.biqmod");
        let cfg = CompileConfig {
            kind: "linear".into(),
            d_model: 16,
            d_ff: 24,
            ..CompileConfig::default()
        };
        cmd_compile(&cfg, &path).unwrap();
        let (net, _ids) = start_daemon(&path, "127.0.0.1:0", &DaemonConfig::default()).unwrap();
        let addr = net.local_addr().to_string();
        net.sample_series(); // prime the delta baseline
        cmd_load_client(&TrafficConfig {
            addr: addr.clone(),
            requests: 30,
            concurrency: 2,
            ..TrafficConfig::default()
        })
        .unwrap();
        net.sample_series(); // close the interval covering the load

        let mut client = NetClient::connect(&addr).unwrap();
        let frame = fetch_frame(&mut client, &addr).unwrap();
        // Per-op row: op name in column 1, nonzero windowed rate in
        // column 2 — the exact contract the CI smoke greps.
        let op_row = frame.lines().find(|l| l.starts_with("linear")).expect("op row");
        let rate: f64 = op_row.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(rate > 0.0, "windowed rate must be nonzero: {op_row}");
        // Slow row: `#<req_id>` then the versioned op name.
        let slow_row = frame.lines().find(|l| l.starts_with('#')).expect("slow row");
        assert_eq!(slow_row.split_whitespace().nth(1), Some("linear@1"));
        // Fleet section: header plus one live row for the boot model,
        // named after the artifact's file stem.
        let models_row = frame.lines().find(|l| l.starts_with("MODELS")).expect("models header");
        assert!(models_row.contains("1 live"), "{models_row}");
        let boot_row =
            frame.lines().find(|l| l.starts_with("biq_cli_top_once@1")).expect("boot model row");
        assert!(boot_row.contains("live"), "{boot_row}");
        assert!(boot_row.contains("30"), "completed count rendered: {boot_row}");
        // Reactor health line: present, with a live syscall amortization
        // ratio (load was just served, so frames and syscalls are nonzero).
        let net_row = frame.lines().find(|l| l.starts_with("NET")).expect("net row");
        let rd: f64 = net_row
            .split_whitespace()
            .skip_while(|w| *w != "rd-syscalls/frame")
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(rd > 0.0, "read syscalls per frame must be nonzero: {net_row}");

        // The wire-carried records keep the phase-sum invariant.
        let hits = client.slow_log(0).unwrap();
        assert!(!hits.is_empty());
        for hit in &hits {
            assert_eq!(hit.rec.phase_sum(), hit.rec.total_ns, "{hit:?}");
            assert!(hit.rec.req_id > 0, "wire requests carry their req_id: {hit:?}");
            assert!(hit.rec.write_ns + hit.rec.ticket_ns > 0, "writer phases stamped: {hit:?}");
        }
        net.shutdown();
        let _ = std::fs::remove_file(path);
    }
}
