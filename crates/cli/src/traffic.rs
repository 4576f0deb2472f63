//! The one traffic replayer behind `serve-bench`, `net-bench`,
//! `load-client` and the serving rows of `bench check`.
//!
//! A replay is a seeded single-column trace (`gaussian_col(n, requests)`
//! from [`TrafficConfig::seed`]) split into contiguous column ranges over
//! `concurrency` lanes. Each lane keeps at most `pipeline` requests in
//! flight through its [`Transport`]: an in-process [`Client`] whose tickets
//! it waits in FIFO order, or one pipelining TCP [`NetClient`] connection.
//! Every request is retried on `Busy`, timed exactly from send to reply,
//! and its reply is stored by column index, so the report's digest is
//! order-stable: for a `linear` artifact it equals `biq run-model`'s for
//! the same seed and length on either transport, at any concurrency
//! (batch packing and kernel levels are bit-exact).
//!
//! The kernel level and the mean packed batch width come from the
//! server's own samples (`biq_op_info`, `biq_serve_batch_cols`) read after
//! the replay: in process from [`Server::metrics`], over TCP from the
//! `Stats` verb.

use crate::net_cmds::DaemonConfig;
use crate::{connect_retry, CliError};
use biq_artifact::{fnv1a64, Artifact};
use biq_matrix::{ColMatrix, Matrix, MatrixRng};
use biq_obs::{MetricValue, MetricsSnapshot};
use biq_runtime::{BackendSpec, PlanBuilder, QuantMethod, Threading, WeightSource};
use biq_serve::net::{NetClient, OpInfo, Outcome, RejectCode};
use biq_serve::{Client, ModelRegistry, OpId, ServeError, Server, Ticket};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::time::{Duration, Instant};

/// The traffic shape, shared by every replaying verb. The server side of
/// the bench verbs (which start their own servers) is a [`DaemonConfig`].
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Daemon address of TCP replays against an external server.
    pub addr: String,
    /// Op to target; `None` targets the first op the server lists.
    pub op: Option<String>,
    /// Weight rows `m` of the bench verbs' synthetic op.
    pub rows: usize,
    /// Weight cols `n` of the bench verbs' synthetic op.
    pub cols: usize,
    /// Single-column requests per replay (also the seeded trace's width —
    /// matches `run-model --len` for digest parity).
    pub requests: usize,
    /// Lanes: in-process submitters or TCP connections.
    pub concurrency: usize,
    /// Requests in flight per lane.
    pub pipeline: usize,
    /// Trace seed (matches `run-model --seed` for digest parity).
    pub seed: u64,
    /// Tunables of the servers the bench verbs start.
    pub server: DaemonConfig,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8790".into(),
            op: None,
            rows: 512,
            cols: 512,
            requests: 2000,
            concurrency: 4,
            pipeline: 32,
            seed: 0,
            server: DaemonConfig::default(),
        }
    }
}

/// Where a replay's lanes send.
#[derive(Clone, Copy)]
pub enum Transport<'a> {
    /// Each lane submits through its own [`Client`] of this server.
    InProcess(&'a Server),
    /// Each lane is one [`NetClient`] connection to this address.
    Tcp(&'a str),
}

/// Measured outcome of one replay — one row of `BENCH_serve.json` or
/// `BENCH_net.json`, or one `load-client` run.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    /// `in-process` or `remote` from [`drive`]; the bench verbs relabel
    /// their rows (`unbatched`/`batched`, `sweep`).
    pub mode: &'static str,
    /// The op name requests carried.
    pub op: String,
    /// The op's output size.
    pub m: usize,
    /// The op's input size.
    pub n: usize,
    /// Requests answered (every one, exactly once).
    pub requests: usize,
    /// Lanes used.
    pub concurrency: usize,
    /// Requests per second over the makespan (first send → last reply).
    pub throughput_rps: f64,
    /// Median send→reply latency (µs, exact over all requests).
    pub p50_us: u64,
    /// 99th-percentile send→reply latency (µs, exact).
    pub p99_us: u64,
    /// `Busy` refusals absorbed by retrying.
    pub busy_retries: u64,
    /// `fnv1a64` over every reply concatenated in column order.
    pub digest: u64,
    /// The kernel level the server resolved for the op (`None` when its
    /// samples are unavailable).
    pub kernel: Option<String>,
    /// Mean packed batch width of the op over the server's lifetime (0
    /// when its samples are unavailable).
    pub mean_batch_cols: f64,
    /// Server tunables the row ran under (bench rows only: an external
    /// daemon's are unknown).
    pub server: Option<DaemonConfig>,
    /// Idle connections held open during the replay (`sweep` rows only).
    pub connections: Option<usize>,
}

/// One lane's transport. `send` queues column `idx`; `recv` returns the
/// next finished column with its reply, or `None` when the server refused
/// it as `Busy`.
trait Lane {
    fn send(&mut self, idx: usize, x: ColMatrix) -> Result<(), CliError>;
    fn recv(&mut self) -> Result<(usize, Option<Matrix>), CliError>;
}

struct InProcessLane {
    client: Client,
    op: OpId,
    fifo: VecDeque<(usize, Option<Ticket>)>,
}

impl Lane for InProcessLane {
    fn send(&mut self, idx: usize, x: ColMatrix) -> Result<(), CliError> {
        let ticket = match self.client.try_submit(self.op, x) {
            Ok(ticket) => Some(ticket),
            Err(ServeError::Busy) => None,
            Err(e) => return Err(CliError(format!("request {idx}: submit failed: {e}"))),
        };
        self.fifo.push_back((idx, ticket));
        Ok(())
    }

    fn recv(&mut self) -> Result<(usize, Option<Matrix>), CliError> {
        let (idx, ticket) = self.fifo.pop_front().expect("recv only with requests in flight");
        let reply = ticket.map(Ticket::wait).transpose();
        Ok((idx, reply.map_err(|e| CliError(format!("request {idx} failed: {e}")))?))
    }
}

struct TcpLane<'a> {
    client: NetClient,
    op: &'a str,
    inflight: HashMap<u64, usize>,
}

impl Lane for TcpLane<'_> {
    fn send(&mut self, idx: usize, x: ColMatrix) -> Result<(), CliError> {
        let id = self.client.send(self.op, &x).map_err(|e| CliError(format!("send: {e}")))?;
        self.inflight.insert(id, idx);
        Ok(())
    }

    fn recv(&mut self) -> Result<(usize, Option<Matrix>), CliError> {
        let (id, outcome) = self.client.recv().map_err(|e| CliError(format!("recv: {e}")))?;
        let idx = self
            .inflight
            .remove(&id)
            .ok_or_else(|| CliError(format!("reply for unknown request {id}")))?;
        match outcome {
            Outcome::Reply(y) => Ok((idx, Some(y))),
            Outcome::Rejected { code: RejectCode::Busy, .. } => Ok((idx, None)),
            Outcome::Rejected { code, msg } => {
                Err(CliError(format!("request {idx} rejected ({code}): {msg}")))
            }
        }
    }
}

/// The per-request loop every lane runs: keep up to `pipeline` columns of
/// `cols` in flight, requeue `Busy` refusals (pausing briefly when nothing
/// else is in flight, to let the server breathe), write each `m`-row reply
/// into `out` at its column's offset. Returns the exact send→reply
/// latencies (µs) and the busy-retry count.
fn run_lane(
    lane: &mut impl Lane,
    x: &ColMatrix,
    cols: Range<usize>,
    pipeline: usize,
    out: &mut [f32],
) -> Result<(Vec<u64>, u64), CliError> {
    let (base, m) = (cols.start, out.len() / cols.len().max(1));
    let mut sent = vec![Instant::now(); cols.len()];
    let mut pending: VecDeque<usize> = cols.collect();
    let mut latencies = Vec::with_capacity(pending.len());
    let (mut inflight, mut busy) = (0usize, 0u64);
    while !(pending.is_empty() && inflight == 0) {
        while inflight < pipeline.max(1) {
            let Some(idx) = pending.pop_front() else { break };
            lane.send(idx, ColMatrix::from_vec(x.rows(), 1, x.col(idx).to_vec()))?;
            sent[idx - base] = Instant::now();
            inflight += 1;
        }
        let (idx, reply) = lane.recv()?;
        inflight -= 1;
        match reply {
            Some(y) if y.as_slice().len() == m => {
                latencies.push(sent[idx - base].elapsed().as_micros() as u64);
                out[(idx - base) * m..][..m].copy_from_slice(y.as_slice());
            }
            Some(y) => {
                return Err(CliError(format!(
                    "request {idx}: reply has {} values, expected {m}",
                    y.as_slice().len()
                )))
            }
            None => {
                busy += 1;
                pending.push_back(idx);
                if inflight == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }
    Ok((latencies, busy))
}

/// The in-process twin of the `ListOps` verb: every op's identity sample.
fn op_table(metrics: &MetricsSnapshot) -> Vec<OpInfo> {
    metrics
        .samples
        .iter()
        .filter(|s| s.name == "biq_op_info")
        .filter_map(|s| {
            Some(OpInfo {
                name: s.label("op")?.to_string(),
                m: s.label("m")?.parse().ok()?,
                n: s.label("n")?.parse().ok()?,
            })
        })
        .collect()
}

/// Picks the op a replay targets. The table lists versioned display names
/// (`linear@2`); a bare `linear` targets the live version, a pinned
/// `linear@1` must match exactly — the rule request frames get.
fn resolve<'t>(table: &'t [OpInfo], asked: Option<&str>) -> Result<&'t OpInfo, CliError> {
    let Some(asked) = asked else {
        return table.first().ok_or_else(|| CliError("server lists no ops".into()));
    };
    let matches = |listed: &str| {
        listed == asked || listed.strip_prefix(asked).is_some_and(|v| v.starts_with('@'))
    };
    table.iter().find(|o| matches(&o.name)).ok_or_else(|| {
        let known: Vec<&str> = table.iter().map(|o| o.name.as_str()).collect();
        CliError(format!("server has no op '{asked}' (ops: {})", known.join(", ")))
    })
}

/// Replays `cfg`'s seeded trace through `transport` and reports the
/// measured row.
pub fn drive(transport: Transport<'_>, cfg: &TrafficConfig) -> Result<TrafficReport, CliError> {
    let table = match transport {
        Transport::InProcess(server) => op_table(&server.metrics()),
        // Retried for 5 s: a replay may start before the daemon binds.
        Transport::Tcp(addr) => {
            connect_retry(addr, 50)?.list_ops().map_err(|e| CliError(format!("list ops: {e}")))?
        }
    };
    let info = resolve(&table, cfg.op.as_deref())?;
    let (display, m, n) = (info.name.clone(), info.m as usize, info.n as usize);
    // Requests carry the name the caller asked for, not the resolved
    // display name: a bare `linear` keeps tracking the live version even
    // if a swap lands mid-run, while a pinned `linear@1` stays pinned.
    let op = cfg.op.clone().unwrap_or_else(|| display.clone());
    let requests = cfg.requests.max(1);
    let concurrency = cfg.concurrency.clamp(1, requests);
    // The identical input `run_seeded` builds for a linear model: digest
    // parity comes from this line. Generated up front so generation cost
    // stays out of the makespan.
    let x = MatrixRng::seed_from(cfg.seed).gaussian_col(n, requests, 0.0, 1.0);
    let mut replies = vec![0.0f32; m * requests];

    let t0 = Instant::now();
    let lanes = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(concurrency);
        let (mut rest, mut start) = (replies.as_mut_slice(), 0usize);
        for c in 0..concurrency {
            let take = requests / concurrency + usize::from(c < requests % concurrency);
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(take * m);
            rest = tail;
            let cols = start..start + take;
            start += take;
            let (x, op, pipeline) = (&x, op.as_str(), cfg.pipeline);
            handles.push(s.spawn(move || match transport {
                Transport::InProcess(server) => {
                    let id = server
                        .registry()
                        .lookup(op)
                        .ok_or_else(|| CliError(format!("no live op '{op}'")))?;
                    let mut lane =
                        InProcessLane { client: server.client(), op: id, fifo: VecDeque::new() };
                    run_lane(&mut lane, x, cols, pipeline, out)
                }
                Transport::Tcp(addr) => {
                    let client = NetClient::connect(addr)
                        .map_err(|e| CliError(format!("connect {addr}: {e}")))?;
                    let mut lane = TcpLane { client, op, inflight: HashMap::new() };
                    run_lane(&mut lane, x, cols, pipeline, out)
                }
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("traffic lane panicked"))
            .collect::<Result<Vec<_>, CliError>>()
    })?;
    let makespan = t0.elapsed();

    let mut latencies: Vec<u64> = Vec::with_capacity(requests);
    let mut busy_retries = 0u64;
    for (lats, busy) in lanes {
        latencies.extend(lats);
        busy_retries += busy;
    }
    latencies.sort_unstable();
    let quantile = |p: f64| -> u64 {
        let rank = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    // The server's own view of the op. Over TCP this is one best-effort
    // `Stats` round trip: an older daemon closes the connection instead.
    let metrics = match transport {
        Transport::InProcess(server) => Some(server.metrics()),
        Transport::Tcp(addr) => NetClient::connect(addr)
            .ok()
            .and_then(|mut c| c.stats().ok())
            .map(|samples| MetricsSnapshot { samples }),
    };
    let sample = |name: &str| metrics.as_ref().and_then(|m| m.find(name, "op", &display));
    let kernel = sample("biq_op_info").and_then(|s| s.label("kernel")).map(str::to_string);
    let mean_batch_cols = match sample("biq_serve_batch_cols").map(|s| &s.value) {
        Some(MetricValue::Histogram(h)) => h.mean(),
        _ => 0.0,
    };
    Ok(TrafficReport {
        mode: match transport {
            Transport::InProcess(_) => "in-process",
            Transport::Tcp(_) => "remote",
        },
        op,
        m,
        n,
        requests,
        concurrency,
        throughput_rps: requests as f64 / makespan.as_secs_f64().max(1e-9),
        p50_us: quantile(0.50),
        p99_us: quantile(0.99),
        busy_retries,
        digest: fnv1a64(&replies.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>()),
        kernel,
        mean_batch_cols,
        server: None,
        connections: None,
    })
}

// ------------------------------------------------------ bench-side helpers

/// A registry holding one seeded 1-bit `rows × cols` op named `synthetic`.
pub(crate) fn synthetic_registry(rows: usize, cols: usize, batch_hint: usize) -> ModelRegistry {
    let signs = MatrixRng::seed_from(0x5e7e).signs(rows, cols);
    let plan = PlanBuilder::new(rows, cols)
        .batch_hint(batch_hint)
        .backend(BackendSpec::Biq { bits: 1, method: QuantMethod::Greedy })
        .threading(Threading::Serial)
        .build();
    let mut registry = ModelRegistry::new();
    registry.register("synthetic", &plan, WeightSource::Signs(&signs));
    registry
}

/// A registry booted from `artifact`, and the name of its first op.
pub(crate) fn artifact_registry(artifact: &Artifact) -> Result<(ModelRegistry, String), CliError> {
    let mut registry = ModelRegistry::new();
    let (_model, ids) =
        registry.load_artifact(artifact).map_err(|e| CliError(format!("load artifact: {e}")))?;
    let (name, _) =
        ids.into_iter().next().ok_or_else(|| CliError("artifact has no layers".into()))?;
    Ok((registry, name))
}

/// Starts a server over `registry`, replays `traffic` in process, drains.
pub(crate) fn in_process_row(
    registry: ModelRegistry,
    server: &DaemonConfig,
    traffic: &TrafficConfig,
) -> Result<TrafficReport, CliError> {
    let running = Server::start(registry, server.server_config());
    let report = drive(Transport::InProcess(&running), traffic);
    running.shutdown();
    Ok(TrafficReport { server: Some(*server), ..report? })
}

/// Starts a loopback daemon over `registry`, holds `idle` extra
/// connections open, replays `traffic` over TCP, then checks every held
/// connection is still alive — holding the herd is part of the contract,
/// not a side effect. Under the reactor, held-open idle sockets are only
/// registered fds, so live throughput should barely move as `idle` grows.
pub(crate) fn remote_row(
    registry: ModelRegistry,
    server: &DaemonConfig,
    traffic: &TrafficConfig,
    idle: usize,
) -> Result<TrafficReport, CliError> {
    let net = server.bind("127.0.0.1:0", registry)?;
    let addr = net.local_addr();
    let held: Vec<std::net::TcpStream> = (0..idle)
        .map(|i| {
            std::net::TcpStream::connect(addr)
                .map_err(|e| CliError(format!("idle connection {i}/{idle}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    // Let the accept/register burst drain before measuring: the row claims
    // a replay with the herd *held*, which is the reactor's steady state —
    // thousands of epoll registrations time-sharing the core with the load
    // would measure the storm instead.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let open: i64 = net
            .metrics()
            .samples
            .iter()
            .filter(|s| s.name == "biq_net_connections_open")
            .filter_map(|s| match s.value {
                MetricValue::Gauge(g) => Some(g),
                _ => None,
            })
            .sum();
        if open >= idle as i64 {
            break;
        }
        if Instant::now() > deadline {
            return Err(CliError(format!("only {open} of {idle} idle connections registered")));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = drive(Transport::Tcp(&addr.to_string()), traffic)?;
    // The idle-hold probe: every held connection must still be alive —
    // nonblocking read sees no data (WouldBlock), never EOF or reset.
    for (i, conn) in held.iter().enumerate() {
        use std::io::Read;
        conn.set_nonblocking(true).map_err(|e| CliError(format!("probe {i}: {e}")))?;
        match (&mut &*conn).read(&mut [0u8; 1]) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Ok(0) => return Err(CliError(format!("idle connection {i} was dropped (EOF)"))),
            Ok(_) => return Err(CliError(format!("idle connection {i} received stray bytes"))),
            Err(e) => return Err(CliError(format!("idle connection {i} errored: {e}"))),
        }
    }
    drop(held);
    net.shutdown();
    Ok(TrafficReport { server: Some(*server), ..report })
}

/// Which bench record a set of rows is rendered as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Record {
    /// `BENCH_serve.json`: rows carry `mean_batch_cols`.
    Serve,
    /// `BENCH_net.json`: rows carry `concurrency`, sweep rows
    /// `connections`.
    Net,
}

/// Writes bench rows as their record file, creating its directory. Sweep
/// rows carry their extra key after the shared keys, so the canonical rows
/// keep the committed key set.
pub(crate) fn write_record(
    path: &std::path::Path,
    rows: &[TrafficReport],
    record: Record,
) -> Result<(), CliError> {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let s = r.server.expect("bench rows record the server they ran under");
        let concurrency = match record {
            Record::Net => format!("\"concurrency\": {}, ", r.concurrency),
            Record::Serve => String::new(),
        };
        let mut tail = match record {
            Record::Serve => format!(", \"mean_batch_cols\": {:.2}", r.mean_batch_cols),
            Record::Net => String::new(),
        };
        if let Some(c) = r.connections {
            tail.push_str(&format!(", \"connections\": {c}"));
        }
        out.push_str(&format!(
            concat!(
                "  {{\"mode\": \"{mode}\", \"op\": \"{op}\", \"m\": {m}, \"n\": {n}, \"b\": 1, ",
                "\"requests\": {req}, \"workers\": {workers}, {concurrency}",
                "\"window_us\": {window}, \"max_batch_cols\": {cap}, \"kernel\": \"{kernel}\", ",
                "\"throughput_rps\": {rps:.1}, ",
                "\"latency_p50_us\": {p50}, \"latency_p99_us\": {p99}{tail}}}{comma}\n"
            ),
            mode = r.mode,
            op = r.op,
            m = r.m,
            n = r.n,
            req = r.requests,
            workers = s.workers,
            concurrency = concurrency,
            window = s.window.as_micros(),
            cap = s.max_batch_cols,
            kernel = r.kernel.as_deref().unwrap_or("unknown"),
            rps = r.throughput_rps,
            p50 = r.p50_us,
            p99 = r.p99_us,
            tail = tail,
            comma = if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_cmds::{cmd_compile, cmd_run_model, CompileConfig};
    use crate::net_cmds::start_daemon;

    #[test]
    fn in_process_and_tcp_replays_both_match_run_model_digest() {
        let path = std::env::temp_dir().join("biq_cli_traffic_parity.biqmod");
        let compile = CompileConfig {
            kind: "linear".into(),
            d_model: 24,
            d_ff: 32,
            ..CompileConfig::default()
        };
        cmd_compile(&compile, &path).unwrap();
        let (_, reference) = cmd_run_model(&path, 11, 50).unwrap();
        let expected =
            fnv1a64(&reference.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>());
        let traffic = TrafficConfig {
            op: Some("linear".into()),
            requests: 50,
            concurrency: 3,
            pipeline: 4,
            seed: 11,
            ..TrafficConfig::default()
        };

        let artifact = Artifact::open(&path).unwrap();
        let (registry, first) = artifact_registry(&artifact).unwrap();
        assert_eq!(first, "linear");
        let local = in_process_row(registry, &DaemonConfig::default(), &traffic).unwrap();
        assert_eq!(local.mode, "in-process");
        assert_eq!(local.digest, expected, "in-process replies must be kept, in column order");

        let (net, _) = start_daemon(&path, "127.0.0.1:0", &DaemonConfig::default()).unwrap();
        let addr = net.local_addr().to_string();
        let remote = drive(Transport::Tcp(&addr), &traffic).unwrap();
        assert_eq!(remote.mode, "remote");
        assert_eq!(remote.digest, expected, "TCP replies must match run-model bit for bit");
        net.shutdown();

        for r in [&local, &remote] {
            assert_eq!((r.m, r.n, r.requests, r.concurrency), (24, 32, 50, 3));
            assert!(r.p50_us <= r.p99_us);
            assert!(r.kernel.is_some(), "kernel read from the op's identity sample");
            assert!(r.mean_batch_cols >= 1.0, "batch width read from the server histogram");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn resolve_follows_the_bare_and_pinned_name_rule() {
        let table = vec![
            OpInfo { name: "linear@2".into(), m: 4, n: 8 },
            OpInfo { name: "lin@1".into(), m: 1, n: 1 },
        ];
        assert_eq!(resolve(&table, Some("linear")).unwrap().name, "linear@2");
        assert_eq!(resolve(&table, Some("lin")).unwrap().name, "lin@1");
        assert_eq!(resolve(&table, None).unwrap().name, "linear@2");
        let err = resolve(&table, Some("linear@1")).unwrap_err();
        assert!(err.0.contains("no op 'linear@1'"), "{err}");
        assert!(resolve(&[], None).is_err());
    }
}
