//! `biq serve` / `biq load-client` / `biq net-bench`: the serving layer on
//! the wire.
//!
//! `serve` is the daemon: load a `BIQM` artifact, register every linear op,
//! and answer `BIQP` frames on a TCP address until SIGINT or stdin EOF,
//! then drain and dump the final [`StatsSnapshot`] as JSON on stdout.
//! `load-client` replays seeded single-column traffic against it over N
//! connections; `net-bench` runs both ends over loopback and records the
//! wire tax against an in-process replay of the same traffic
//! (`results/BENCH_net.json`). Both replay through
//! [`crate::traffic`], whose digest equals `biq run-model`'s for a linear
//! artifact — the CI daemon smoke asserts exactly this.

use crate::traffic::{
    drive, in_process_row, remote_row, synthetic_registry, write_record, Record, TrafficConfig,
    TrafficReport, Transport,
};
use crate::CliError;
use biq_artifact::Artifact;
use biq_serve::net::{NetConfig, NetServer};
use biq_serve::{ModelRegistry, OpId, Server, ServerConfig, StatsSnapshot};
use std::path::Path;
use std::time::{Duration, Instant};

/// Tunables shared by the daemon and the loopback bench server.
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Worker threads of the inner batch server.
    pub workers: usize,
    /// Batch window.
    pub window: Duration,
    /// Packed-width cap per batch.
    pub max_batch_cols: usize,
    /// Submit-queue capacity (full ⇒ `Busy` reject frames).
    pub queue_capacity: usize,
    /// Pin worker `i` to core `i % cpu_count()` (`--pin-workers`).
    pub pin_workers: bool,
    /// Reactor I/O threads of the TCP front-end (`--io-threads`).
    pub io_threads: usize,
    /// Resident-bytes ceiling for online model loads (`--mem-budget`).
    /// Loads past it evict cold idle models LRU-first, then refuse.
    pub mem_budget: Option<u64>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            window: Duration::from_micros(200),
            max_batch_cols: 16,
            queue_capacity: 1024,
            pin_workers: false,
            io_threads: NetConfig::default().io_threads,
            mem_budget: None,
        }
    }
}

impl DaemonConfig {
    /// The inner batch server's configuration.
    pub(crate) fn server_config(&self) -> ServerConfig {
        ServerConfig {
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            batch_window: self.window,
            max_batch_cols: self.max_batch_cols,
            job_capacity: (self.workers * 2).max(2),
            pin_workers: self.pin_workers,
            mem_budget: self.mem_budget,
        }
    }

    /// Starts a batch server over `registry` and binds its TCP front-end.
    pub(crate) fn bind(&self, addr: &str, registry: ModelRegistry) -> Result<NetServer, CliError> {
        let server = Server::start(registry, self.server_config());
        let net_cfg = NetConfig { io_threads: self.io_threads, ..NetConfig::default() };
        NetServer::bind_with(addr, server, net_cfg)
            .map_err(|e| CliError(format!("bind {addr}: {e}")))
    }
}

/// Loads a `BIQM` artifact, registers every linear op, and binds the TCP
/// front-end. Returns the running server and the registered `(name, id)`
/// pairs. The daemon loop around it lives in [`cmd_serve`]; tests drive
/// this directly.
pub fn start_daemon(
    model: &Path,
    addr: &str,
    cfg: &DaemonConfig,
) -> Result<(NetServer, Vec<(String, OpId)>), CliError> {
    let artifact = Artifact::open(model).map_err(|e| CliError(format!("{model:?}: {e}")))?;
    let mut registry = ModelRegistry::new();
    // The boot model is named after the artifact's file stem, so fleet
    // views (`biq model list`, `biq_model_memory_bytes{model}`) and a
    // later `biq model load <stem> v2.biqmod` swap read naturally.
    if let Some(stem) = model.file_stem().and_then(|s| s.to_str()) {
        registry.set_model_name(stem);
    }
    let (_model, ids) =
        registry.load_artifact(&artifact).map_err(|e| CliError(format!("{model:?}: {e}")))?;
    if ids.is_empty() {
        return Err(CliError(format!("{model:?}: artifact has no linear ops to serve")));
    }
    Ok((cfg.bind(addr, registry)?, ids))
}

/// Daemon-side observability switches (`biq serve` flags beyond the
/// batching tunables).
#[derive(Clone, Debug, Default)]
pub struct ServeOptions {
    /// Print a one-line metrics JSON summary on stderr every this often.
    pub stats_every: Option<Duration>,
    /// Record trace spans for the daemon's lifetime and write a Chrome
    /// trace-event JSON file here at shutdown.
    pub trace_out: Option<std::path::PathBuf>,
}

/// `biq serve`: the daemon. Serves until SIGINT or stdin EOF, then drains
/// every accepted request and prints the final stats snapshot as JSON on
/// stdout (status lines go to stderr so stdout stays machine-readable).
pub fn cmd_serve(
    model: &Path,
    addr: &str,
    cfg: &DaemonConfig,
    opts: &ServeOptions,
) -> Result<(), CliError> {
    if opts.trace_out.is_some() {
        biq_obs::set_tracing(true);
    }
    let (net, ids) = start_daemon(model, addr, cfg)?;
    eprintln!(
        "serving {} ops from {} at {} ({} workers{}, window {} us, max batch {}, {} io threads)",
        ids.len(),
        model.display(),
        net.local_addr(),
        cfg.workers,
        if cfg.pin_workers { ", pinned" } else { "" },
        cfg.window.as_micros(),
        cfg.max_batch_cols,
        cfg.io_threads,
    );
    for (name, _) in &ids {
        eprintln!("  op {name}");
    }
    // The periodic stats line reads the same hub snapshot the `Stats`
    // wire verb answers from, so both views always agree.
    let mut last_stats = Instant::now();
    // Housekeeping beat: feed the rolling time-series the `History` verb
    // and `biq top` answer from, one point per second. Prime the delta
    // baseline now, at zero traffic — otherwise requests served before
    // the first beat would vanish into the baseline snapshot and the
    // first interval would under-report.
    net.sample_series();
    let mut last_sample = Instant::now();
    wait_for_shutdown(|| {
        if last_sample.elapsed() >= Duration::from_secs(1) {
            last_sample = Instant::now();
            net.sample_series();
        }
        if let Some(every) = opts.stats_every {
            if last_stats.elapsed() >= every {
                last_stats = Instant::now();
                eprintln!("{}", render_stats_line(&net.metrics()));
            }
        }
    });
    eprintln!("shutting down: draining accepted requests");
    let stats = net.shutdown();
    println!("{}", render_stats_json(&stats));
    if let Some(path) = &opts.trace_out {
        let dump = biq_obs::trace::drain();
        std::fs::write(path, biq_obs::trace::chrome_trace_json(&dump))
            .map_err(|e| CliError(format!("write {}: {e}", path.display())))?;
        eprintln!(
            "trace: {} events written to {}{}",
            dump.events.len(),
            path.display(),
            if dump.dropped > 0 {
                format!(" ({} dropped by ring overwrite)", dump.dropped)
            } else {
                String::new()
            },
        );
    }
    Ok(())
}

/// One line of counter totals for `--stats-every` — a compact summary of
/// the full [`biq_obs::MetricsSnapshot`] (the same data `biq stats`
/// renders in full).
pub fn render_stats_line(metrics: &biq_obs::MetricsSnapshot) -> String {
    let gauge_total = |name: &str| -> i64 {
        metrics
            .samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                biq_obs::MetricValue::Gauge(v) => v,
                _ => 0,
            })
            .sum()
    };
    format!(
        concat!(
            "{{\"submitted\": {}, \"completed\": {}, \"rejected\": {}, ",
            "\"queue_depth\": {}, \"batches\": {}, \"connections_open\": {}, ",
            "\"frames_in\": {}, \"bytes_in\": {}, \"frames_out\": {}, \"bytes_out\": {}, ",
            "\"busy_rejects\": {}, \"checksum_failures\": {}}}"
        ),
        metrics.counter_total("biq_serve_submitted_total"),
        metrics.counter_total("biq_serve_completed_total"),
        metrics.counter_total("biq_serve_rejected_total"),
        gauge_total("biq_serve_queue_depth"),
        metrics.counter_total("biq_serve_batches_total"),
        gauge_total("biq_net_connections_open"),
        metrics.counter_total("biq_net_frames_in_total"),
        metrics.counter_total("biq_net_bytes_in_total"),
        metrics.counter_total("biq_net_frames_out_total"),
        metrics.counter_total("biq_net_bytes_out_total"),
        metrics.counter_total("biq_net_busy_rejects_total"),
        metrics.counter_total("biq_net_checksum_failures_total"),
    )
}

/// Blocks until stdin reaches EOF or SIGINT arrives, invoking
/// `on_tick` once per 50 ms poll beat (the `--stats-every` hook).
fn wait_for_shutdown(mut on_tick: impl FnMut()) {
    use std::io::Read;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    sigint::install();
    let eof = Arc::new(AtomicBool::new(false));
    {
        let eof = Arc::clone(&eof);
        // Detached watcher: consume stdin until EOF. If SIGINT wins the
        // race the process exits and takes this thread with it.
        std::thread::spawn(move || {
            let mut buf = [0u8; 256];
            let mut stdin = std::io::stdin();
            loop {
                match stdin.read(&mut buf) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            eof.store(true, Ordering::SeqCst);
        });
    }
    while !eof.load(std::sync::atomic::Ordering::SeqCst) && !sigint::fired() {
        std::thread::sleep(Duration::from_millis(50));
        on_tick();
    }
}

mod sigint {
    //! Minimal std-only SIGINT latch: the handler only stores an atomic
    //! flag (async-signal-safe), the daemon loop polls it.
    use std::sync::atomic::{AtomicBool, Ordering};

    static FIRED: AtomicBool = AtomicBool::new(false);

    extern "C" fn handler(_signum: i32) {
        FIRED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: registers an async-signal-safe handler (a single atomic
        // store) for SIGINT via the libc `signal` symbol.
        unsafe {
            signal(SIGINT, handler);
        }
    }

    pub fn fired() -> bool {
        FIRED.load(Ordering::SeqCst)
    }
}

/// Renders a [`StatsSnapshot`] as the daemon's final JSON report.
pub fn render_stats_json(stats: &StatsSnapshot) -> String {
    let mut out = String::from("{\n  \"ops\": [\n");
    for (i, op) in stats.ops.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"{name}\", \"kernel\": \"{kernel}\", ",
                "\"submitted\": {sub}, \"completed\": {done}, \"rejected\": {rej}, ",
                "\"batches\": {batches}, \"mean_batch_cols\": {mean:.2}, ",
                "\"latency_p50_us\": {p50}, \"latency_p99_us\": {p99}}}{comma}\n"
            ),
            name = op.name,
            kernel = op.kernel.name(),
            sub = op.submitted,
            done = op.completed,
            rej = op.rejected,
            batches = op.batches,
            mean = op.mean_batch_cols,
            p50 = op.latency_p50.as_micros(),
            p99 = op.latency_p99.as_micros(),
            comma = if i + 1 == stats.ops.len() { "" } else { "," },
        ));
    }
    out.push_str(&format!(
        concat!(
            "  ],\n  \"profile\": {{\"build_ns\": {build}, \"query_ns\": {query}, ",
            "\"replace_ns\": {replace}}}\n}}"
        ),
        build = stats.profile.build.as_nanos(),
        query = stats.profile.query.as_nanos(),
        replace = stats.profile.replace.as_nanos(),
    ));
    out
}

// ------------------------------------------------- load client, net bench

/// `biq load-client`: replays `cfg.requests` seeded single-column queries
/// over `cfg.concurrency` connections to the daemon at `cfg.addr`.
pub fn cmd_load_client(cfg: &TrafficConfig) -> Result<TrafficReport, CliError> {
    drive(Transport::Tcp(&cfg.addr), cfg)
}

/// The process's open-file soft limit (`RLIMIT_NOFILE`), if knowable —
/// the connection sweep refuses points that would exhaust it.
pub fn nofile_limit() -> Option<u64> {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: plain struct out-param, checked return.
    (unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } == 0).then_some(lim.cur)
}

/// The `net-bench` rows: the same seeded replay against the same
/// synthetic batch server, in process and through a loopback TCP round
/// trip, then one `sweep` row per idle-connection count in `sweep`. Sweep
/// points that would exhaust the open-file limit are skipped with a note.
pub fn net_bench_rows(
    cfg: &TrafficConfig,
    sweep: &[usize],
) -> Result<Vec<TrafficReport>, CliError> {
    let server = DaemonConfig { queue_capacity: cfg.requests.max(16), ..cfg.server };
    let traffic = TrafficConfig { op: Some("synthetic".into()), ..cfg.clone() };
    let registry = || synthetic_registry(cfg.rows, cfg.cols, server.max_batch_cols);
    let mut rows = vec![
        in_process_row(registry(), &server, &traffic)?,
        remote_row(registry(), &server, &traffic, 0)?,
    ];
    for &idle in sweep {
        // Both ends of every socket live in this process: each idle
        // connection costs two fds, each active one two more, plus the
        // listener, stdio, and headroom for everything else.
        let need = (idle + cfg.concurrency) as u64 * 2 + 64;
        if let Some(limit) = nofile_limit().filter(|&limit| need > limit) {
            eprintln!(
                "note: skipping sweep point connections={idle} \
                 (needs ~{need} fds, RLIMIT_NOFILE is {limit})"
            );
            continue;
        }
        let row = remote_row(registry(), &server, &traffic, idle)?;
        rows.push(TrafficReport { mode: "sweep", connections: Some(idle), ..row });
    }
    Ok(rows)
}

/// `biq net-bench`: measures the wire tax ([`net_bench_rows`]) and writes
/// the JSON record (in-process row first, remote second, then the sweep).
pub fn cmd_net_bench(
    cfg: &TrafficConfig,
    sweep: &[usize],
    out_path: &Path,
) -> Result<Vec<TrafficReport>, CliError> {
    let rows = net_bench_rows(cfg, sweep)?;
    write_record(out_path, &rows, Record::Net)?;
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_cmds::{cmd_compile, cmd_run_model, CompileConfig};
    use biq_artifact::fnv1a64;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("biq_cli_net_{name}"))
    }

    #[test]
    fn load_client_digest_matches_run_model_for_linear_artifacts() {
        let path = tmp("digest.biqmod");
        let cfg = CompileConfig {
            kind: "linear".into(),
            d_model: 24,
            d_ff: 32,
            ..CompileConfig::default()
        };
        cmd_compile(&cfg, &path).unwrap();
        let (net, ids) = start_daemon(&path, "127.0.0.1:0", &DaemonConfig::default()).unwrap();
        assert_eq!(ids[0].0, "linear");
        let report = cmd_load_client(&TrafficConfig {
            addr: net.local_addr().to_string(),
            op: Some("linear".into()),
            requests: 60,
            concurrency: 3,
            seed: 9,
            ..TrafficConfig::default()
        })
        .unwrap();
        let (_, reference) = cmd_run_model(&path, 9, 60).unwrap();
        let ref_digest =
            fnv1a64(&reference.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>());
        assert_eq!(report.digest, ref_digest, "wire replay must be bit-identical to run-model");
        assert_eq!(report.requests, 60);
        assert_eq!((report.m, report.n), (24, 32));
        assert!(report.kernel.is_some(), "load-client must resolve the op's kernel via Stats");
        let stats = net.shutdown();
        assert_eq!(stats.completed(), 60);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn net_bench_smoke_writes_both_modes() {
        let cfg = TrafficConfig {
            rows: 32,
            cols: 32,
            requests: 24,
            concurrency: 2,
            server: DaemonConfig { workers: 1, ..DaemonConfig::default() },
            ..TrafficConfig::default()
        };
        let path = tmp("bench.json");
        let rows = cmd_net_bench(&cfg, &[8], &path).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].mode, "in-process");
        assert_eq!(rows[1].mode, "remote");
        assert_eq!((rows[2].mode, rows[2].connections), ("sweep", Some(8)));
        assert!(rows.iter().all(|r| r.throughput_rps > 0.0));
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"mode\": \"remote\""), "{json}");
        assert!(json.contains("\"connections\": 8"), "{json}");
        // The canonical pair keeps the committed key set: no sweep-only
        // keys on the first row (the gate's homogeneity check reads it).
        let first_row_end = json.find("},").unwrap();
        assert!(!json[..first_row_end].contains("connections"), "{json}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stats_json_is_shaped() {
        let path = tmp("stats.biqmod");
        let cfg = CompileConfig {
            kind: "linear".into(),
            d_model: 8,
            d_ff: 12,
            ..CompileConfig::default()
        };
        cmd_compile(&cfg, &path).unwrap();
        let (net, _) = start_daemon(&path, "127.0.0.1:0", &DaemonConfig::default()).unwrap();
        let json = render_stats_json(&net.shutdown());
        // Stats rows carry the versioned display name.
        assert!(json.contains("\"name\": \"linear@1\""), "{json}");
        assert!(json.contains("\"profile\""), "{json}");
        let _ = std::fs::remove_file(path);
    }
}
