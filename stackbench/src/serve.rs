//! Serving workloads: the real `biq serve` daemon on loopback, driven open
//! loop by this process (one sender thread, one receiver thread, one data
//! connection plus one admin connection).

use crate::{check_sum, probe, write_trace, Ctx};
use biq_artifact::Artifact;
use biq_matrix::{ColMatrix, MatrixRng};
use biq_nn::CompiledModel;
use biq_obs::{MetricValue, Sample};
use biq_runtime::{CompiledOp, Executor};
use biq_serve::net::wire::{self, FrameStatus, Message, RejectCode};
use biq_serve::{ModelRegistry, OpId, ServeError, Server, ServerConfig, Ticket};
use stackbench::host::{cpu_ns, peak_rss_mib};
use stackbench::report::Report;
use stackbench::trace::{Span, Tracer};
use stackbench::{
    bits_equal, goodput, ladder_last_pass, median, quantile, sorted, tail, LadderStep, Outcome,
    Schedule, Tally,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Distinct request inputs, cycled through.
const POOL: usize = 256;
/// The served op (an unversioned name resolves to the latest version).
const OP: &str = "linear";
/// Boot model name: `biq serve` names it after the artifact's file stem.
const MODEL: &str = "served";
/// Set-up rounds (daemon spawn → first correct reply).
const SETUP_REPS: usize = 5;
/// Requests the saturation phase keeps in flight.
const SAT_WINDOW: usize = 64;
/// Outstanding requests at which the ladder stops sending and a fixed-rate
/// segment holds its next request until one is answered — a quarter of
/// `biq serve`'s default queue, so overload never turns into Busy rejects.
/// A held request is still timed from its due time, so the overload shows
/// in its latency.
const MAX_BACKLOG: usize = 256;
/// How long a held sender sleeps before it looks at the backlog again.
const HOLD: Duration = Duration::from_micros(100);

fn err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

// ------------------------------------------------------------------ daemon

/// A `biq serve` child process. Dropping it kills the daemon if it is
/// still running; [`Daemon::stop`] shuts it down gracefully.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(ctx: &Ctx, model: &Path, tag: &str) -> Result<Daemon, String> {
        let log = ctx.work.join(format!("daemon-{tag}.log"));
        let stderr = std::fs::File::create(&log).map_err(err("daemon log"))?;
        let child = Command::new(&ctx.biq)
            .args(["serve", "--model"])
            .arg(model)
            .args(["--addr", "127.0.0.1:0"])
            .args(&ctx.serve_flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(err("spawn biq serve"))?;
        let mut daemon = Daemon { child, addr: String::new() };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            // "serving N ops from PATH at ADDR (…)\n" — only a whole line:
            // stderr may be read half-written.
            let addr = text
                .split_inclusive('\n')
                .find(|l| l.starts_with("serving ") && l.ends_with('\n'))
                .and_then(|l| l.rsplit_once(" at "))
                .and_then(|(_, rest)| rest.split_whitespace().next());
            if let Some(addr) = addr {
                daemon.addr = addr.to_string();
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("biq serve exited ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err("biq serve did not report its address within 30s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Closes the daemon's stdin (its shutdown signal) and waits for it to
    /// drain and exit.
    fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("biq serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for biq serve: {e}")),
            }
        }
        Err("biq serve did not exit within 30s of stdin EOF".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The in-process equivalent of the daemon's `--workers/--window-us/
/// --max-batch/--queue-cap` flags (defaults as `biq serve`'s).
fn server_config(flags: &[String]) -> ServerConfig {
    let mut cfg = ServerConfig::default();
    let value = |key: &str| {
        flags.iter().position(|f| f == key).and_then(|i| flags.get(i + 1)?.parse::<usize>().ok())
    };
    if let Some(w) = value("--workers") {
        cfg.workers = w.max(1);
    }
    if let Some(us) = value("--window-us") {
        cfg.batch_window = Duration::from_micros(us as u64);
    }
    if let Some(m) = value("--max-batch") {
        cfg.max_batch_cols = m.max(1);
    }
    if let Some(q) = value("--queue-cap") {
        cfg.queue_capacity = q.max(1);
    }
    cfg.job_capacity = (cfg.workers * 2).max(2);
    cfg
}

// ------------------------------------------------------------------- wire

/// A connection read incrementally: partial frames survive read timeouts.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    frame: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(err("connect"))?;
        stream.set_nodelay(true).map_err(err("nodelay"))?;
        Ok(Conn { stream, buf: Vec::with_capacity(1 << 16), frame: Vec::new() })
    }

    fn send(&mut self, msg: &Message) -> Result<(), String> {
        wire::encode_into(&mut self.frame, msg);
        self.stream.write_all(&self.frame).map_err(err("write"))
    }

    /// The next frame, waiting at most `wait` (`None` on timeout).
    fn poll(&mut self, wait: Duration) -> Result<Option<Message>, String> {
        loop {
            match wire::decode_frame(&self.buf).map_err(|e| format!("decode: {e}"))? {
                FrameStatus::Frame { msg, used } => {
                    self.buf.drain(..used);
                    return Ok(Some(msg));
                }
                FrameStatus::NeedMore(_) => {}
            }
            self.stream
                .set_read_timeout(Some(wait.max(Duration::from_micros(1))))
                .map_err(err("timeout"))?;
            let mut tmp = [0u8; 1 << 16];
            match self.stream.read(&mut tmp) {
                Ok(0) => return Err("connection closed".into()),
                Ok(k) => self.buf.extend_from_slice(&tmp[..k]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn roundtrip(&mut self, msg: &Message) -> Result<Message, String> {
        self.send(msg)?;
        self.poll(Duration::from_secs(30))?.ok_or_else(|| "no answer within 30s".to_string())
    }

    fn stats(&mut self) -> Result<Vec<Sample>, String> {
        match self.roundtrip(&Message::Stats)? {
            Message::StatsReply(s) => Ok(s),
            other => Err(format!("Stats answered with {other:?}")),
        }
    }
}

/// Sum of every counter/gauge sample called `name`.
fn total(samples: &[Sample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match &s.value {
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Gauge(v) => *v as f64,
            MetricValue::Histogram(h) => h.count() as f64,
        })
        .sum()
}

// -------------------------------------------------------------- open loop

/// `LoadModel` swaps at a fixed interval on the admin connection,
/// alternating between two artifacts.
struct Swapper<'a> {
    admin: &'a mut Conn,
    every_ns: u64,
    next_ns: u64,
    paths: [String; 2],
    sent: usize,
    in_flight: Option<u64>,
    done: Swaps,
}

impl Swapper<'_> {
    /// Waits until `until_ns`, sending a due swap and collecting its
    /// answer meanwhile.
    fn wait_until(&mut self, t0: Instant, until_ns: u64) -> Result<(), String> {
        loop {
            let now = ns(t0);
            if now >= until_ns {
                return Ok(());
            }
            if self.in_flight.is_none() && now >= self.next_ns {
                let path = self.paths[self.sent % 2].clone();
                self.admin.send(&Message::LoadModel { name: MODEL.into(), path })?;
                self.in_flight = Some(now);
                self.sent += 1;
                self.next_ns += self.every_ns;
                continue;
            }
            match self.in_flight {
                Some(sent) => {
                    if let Some(msg) = self.admin.poll(Duration::from_nanos(until_ns - now))? {
                        let loaded = matches!(msg, Message::ModelLoaded { .. });
                        self.done.push((sent, ns(t0), loaded));
                        self.in_flight = None;
                    }
                }
                None => std::thread::sleep(Duration::from_nanos(until_ns.min(self.next_ns) - now)),
            }
        }
    }

    fn finish(&mut self, t0: Instant) -> Result<(), String> {
        if let Some(sent) = self.in_flight.take() {
            let msg = self.admin.poll(Duration::from_secs(30))?.ok_or("swap never answered")?;
            self.done.push((sent, ns(t0), matches!(msg, Message::ModelLoaded { .. })));
        }
        Ok(())
    }
}

/// `(sent_ns, answered_ns, loaded)` per `LoadModel` swap.
type Swaps = Vec<(u64, u64, bool)>;

/// One open-loop run's per-request record.
struct Run {
    lat_us: Vec<f64>,
    outcome: Vec<Outcome>,
    lag_us: Vec<f64>,
    /// `(sent_ns, write_done_ns)` per request sent.
    sent_ns: Vec<(u64, u64)>,
    /// Requests actually sent (the ladder may stop early).
    sent: usize,
    /// From the schedule's start to the last answer.
    secs: f64,
}

/// Inputs and the outputs any of which a reply may equal (v1, or v1/v2
/// while swapping).
struct Traffic<'a> {
    pool: &'a [ColMatrix],
    accept: &'a [Vec<Vec<f32>>],
}

impl Traffic<'_> {
    fn judge(&self, i: usize, data: &[f32]) -> Outcome {
        if self.accept.iter().any(|refs| bits_equal(data, &refs[i % POOL])) {
            Outcome::Ok
        } else {
            Outcome::Wrong
        }
    }
}

/// How the sender paces requests.
#[derive(Clone, Copy, Debug)]
enum Pace {
    /// Open loop: each request at its due time, held while [`MAX_BACKLOG`]
    /// requests are outstanding. From request `cap_from` on (the ladder),
    /// sending stops at that backlog instead, so an overloaded step ends
    /// before the daemon's queue fills and starts refusing.
    Open { cap_from: usize },
    /// Closed loop: keep `window` requests outstanding until `secs` pass.
    Closed { window: usize, secs: f64 },
}

/// Drives `sched` over one TCP connection (a swapper, when given, runs its
/// `LoadModel` swaps on the admin connection meanwhile).
fn drive_tcp(
    addr: &str,
    sched: &Schedule,
    traffic: &Traffic,
    pace: Pace,
    mut swapper: Option<&mut Swapper>,
) -> Result<Run, String> {
    let n = sched.due_ns.len();
    let mut conn = Conn::connect(addr)?;
    let mut rx = Conn {
        stream: conn.stream.try_clone().map_err(err("clone"))?,
        buf: Vec::new(),
        frame: Vec::new(),
    };
    let received = AtomicUsize::new(0);
    let sent_total = AtomicUsize::new(0);
    let done_sending = AtomicBool::new(false);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut lat_us = vec![f64::NAN; n];
            let mut outcome = vec![Outcome::Error; n];
            let (mut idle, mut last_ns) = (Instant::now(), 0);
            loop {
                let got = received.load(Ordering::Relaxed);
                if done_sending.load(Ordering::Acquire) && got >= sent_total.load(Ordering::Acquire)
                {
                    break;
                }
                if idle.elapsed() > Duration::from_secs(30) {
                    break; // unanswered requests stay `Error`
                }
                let msg = match rx.poll(Duration::from_millis(50)) {
                    Ok(Some(m)) => m,
                    Ok(None) => continue,
                    Err(_) => break,
                };
                last_ns = ns(t0);
                idle = Instant::now();
                let (i, out) = match &msg {
                    Message::Reply { req_id, data, .. } => {
                        (*req_id as usize, traffic.judge(*req_id as usize, data))
                    }
                    Message::Reject { req_id, code, .. } => (
                        *req_id as usize,
                        if *code == RejectCode::Busy { Outcome::Busy } else { Outcome::Refused },
                    ),
                    _ => break,
                };
                if i < n {
                    lat_us[i] = sched.latency_us(i, last_ns);
                    outcome[i] = out;
                }
                received.fetch_add(1, Ordering::Relaxed);
            }
            (lat_us, outcome, last_ns)
        });

        let mut frame = Vec::new();
        let mut lag_us = Vec::with_capacity(n);
        let mut sent_ns = Vec::with_capacity(n);
        let mut send = || -> Result<(), String> {
            for i in 0..n {
                loop {
                    let now = ns(t0);
                    let (ready, until) = match pace {
                        Pace::Open { cap_from } if now >= sched.due_ns[i] => {
                            let outstanding = i - received.load(Ordering::Relaxed).min(i);
                            let held = i < cap_from && outstanding >= MAX_BACKLOG;
                            (!held, now + HOLD.as_nanos() as u64)
                        }
                        Pace::Open { .. } => (false, sched.due_ns[i]),
                        Pace::Closed { window, .. } => {
                            (i - received.load(Ordering::Relaxed).min(i) < window, now + 20_000)
                        }
                    };
                    if ready {
                        break;
                    }
                    match swapper.as_deref_mut() {
                        Some(sw) => sw.wait_until(t0, until)?,
                        None => std::thread::sleep(Duration::from_nanos(until - now)),
                    }
                }
                if let Pace::Closed { secs, .. } = pace {
                    if ns(t0) as f64 >= secs * 1e9 {
                        break;
                    }
                }
                let x = &traffic.pool[i % POOL];
                wire::encode_request_into(
                    &mut frame,
                    i as u64,
                    OP,
                    x.rows() as u32,
                    1,
                    x.as_slice(),
                );
                let start = ns(t0);
                conn.stream.write_all(&frame).map_err(err("send"))?;
                sent_ns.push((start, ns(t0)));
                lag_us.push(sched.lag_us(i, start));
                sent_total.store(i + 1, Ordering::Release);
                let outstanding = i + 1 - received.load(Ordering::Relaxed).min(i + 1);
                if matches!(pace, Pace::Open { cap_from } if i >= cap_from && outstanding >= MAX_BACKLOG)
                {
                    break;
                }
            }
            match swapper.as_deref_mut() {
                Some(sw) => sw.finish(t0),
                None => Ok(()),
            }
        };
        let result = send();
        done_sending.store(true, Ordering::Release);
        let (lat_us, outcome, last_ns) = receiver.join().expect("receiver thread panicked");
        result?;
        let sent = sent_ns.len();
        Ok(Run { lat_us, outcome, lag_us, sent_ns, sent, secs: last_ns as f64 / 1e9 })
    })
}

/// Drives `sched` through an in-process `Client::try_submit` →
/// `Ticket::wait` on the same server configuration, holding the sender at
/// [`MAX_BACKLOG`] outstanding requests as the TCP path does.
fn drive_inproc(server: &Server, op: OpId, sched: &Schedule, traffic: &Traffic) -> Run {
    let n = sched.due_ns.len();
    let client = server.client();
    let (tx, rx) = mpsc::channel::<(usize, Ticket)>();
    let answered = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let answered = &answered;
        let waiter = s.spawn(move || {
            let mut lat_us = vec![f64::NAN; n];
            let mut outcome = vec![Outcome::Error; n];
            for (i, ticket) in rx {
                let r = ticket.wait();
                lat_us[i] = sched.latency_us(i, ns(t0));
                answered.fetch_add(1, Ordering::Relaxed);
                outcome[i] = match r {
                    Ok(y) => traffic.judge(i, y.as_slice()),
                    Err(ServeError::Busy) => Outcome::Busy,
                    Err(_) => Outcome::Error,
                };
            }
            (lat_us, outcome)
        });
        let mut lag_us = Vec::with_capacity(n);
        let mut sent_ns = Vec::with_capacity(n);
        let mut early = Vec::new();
        let mut submitted = 0;
        for i in 0..n {
            let now = ns(t0);
            if now < sched.due_ns[i] {
                std::thread::sleep(Duration::from_nanos(sched.due_ns[i] - now));
            }
            while submitted - answered.load(Ordering::Relaxed) >= MAX_BACKLOG {
                std::thread::sleep(HOLD);
            }
            let start = ns(t0);
            match client.try_submit(op, traffic.pool[i % POOL].clone()) {
                Ok(ticket) => {
                    submitted += 1;
                    tx.send((i, ticket)).expect("waiter alive");
                }
                Err(ServeError::Busy) => early.push((i, Outcome::Busy)),
                Err(_) => early.push((i, Outcome::Error)),
            }
            sent_ns.push((start, ns(t0)));
            lag_us.push(sched.lag_us(i, start));
        }
        drop(tx);
        let (lat_us, mut outcome) = waiter.join().expect("waiter thread panicked");
        for (i, o) in early {
            outcome[i] = o;
        }
        Run { lat_us, outcome, lag_us, sent_ns, sent: n, secs: t0.elapsed().as_secs_f64() }
    })
}

/// Latencies of the requests `range` of a run that succeeded.
fn ok_lat(run: &Run, range: std::ops::Range<usize>) -> Vec<f64> {
    range.filter(|&i| run.outcome[i] == Outcome::Ok).map(|i| run.lat_us[i]).collect()
}

fn tally_of(run: &Run) -> Tally {
    let mut t = Tally::default();
    run.outcome[..run.sent].iter().for_each(|&o| t.record(o));
    t
}

/// p99 of `lat` where failed requests count as over any limit.
fn p99_with_failures(lat: &[f64], failed: usize) -> f64 {
    let mut v = lat.to_vec();
    v.extend(std::iter::repeat_n(f64::INFINITY, failed));
    quantile(&sorted(&v), 0.99)
}

// ---------------------------------------------------------------- workload

struct Served {
    path: PathBuf,
    op: Arc<CompiledOp>,
    refs: Vec<Vec<f32>>,
}

/// Compiles a 512×512 2-bit linear artifact and its reference outputs
/// (`Executor::run` on every pool input).
fn served(ctx: &Ctx, file: &str, seed: u64, pool: &[ColMatrix]) -> Result<Served, String> {
    let path = ctx.work.join(file);
    let seed = seed.to_string();
    let args = ["--model", "linear", "--d-model", "512", "--d-ff", "512", "--bits", "2", "--seed"];
    let mut args = args.to_vec();
    args.push(&seed);
    ctx.compile(&args, &path)?;
    let artifact = Artifact::open(&path).map_err(|e| format!("open: {e}"))?;
    let model = CompiledModel::from_artifact(&artifact).map_err(|e| format!("restore: {e}"))?;
    let op = model.named_linears()[0].1.compiled_op();
    let mut exec = Executor::warmed_for(&op);
    let refs = pool.iter().map(|x| exec.run(&op, x).as_slice().to_vec()).collect();
    Ok(Served { path, op, refs })
}

/// Runs `serve-steady` (`swap = false`) or `serve-swap`.
pub fn run(ctx: &Ctx, swap: bool, report: &mut Report) -> Result<(Tally, bool), String> {
    let workload = if swap { "serve-swap" } else { "serve-steady" };
    let mut g = MatrixRng::seed_from(ctx.seed ^ 0x5e7e_0001);
    let pool: Vec<ColMatrix> = (0..POOL).map(|_| g.gaussian_col(512, 1, 0.0, 1.0)).collect();
    let v1 = served(ctx, &format!("{MODEL}.biqmod"), ctx.seed, &pool)?;
    let mut accept = vec![v1.refs.clone()];
    let mut paths = None;
    if swap {
        let v2 =
            served(ctx, &format!("{MODEL}-v2.biqmod"), ctx.seed.wrapping_add(1_000_003), &pool)?;
        accept.push(v2.refs);
        paths = Some([v2.path.display().to_string(), v1.path.display().to_string()]);
    }
    let traffic = Traffic { pool: &pool, accept: &accept };
    let mut tally = Tally::default();

    // Set-up, several times: daemon spawn → first correct reply.
    let mut setup = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let d = Daemon::spawn(ctx, &v1.path, &rep.to_string())?;
        let mut c = Conn::connect(&d.addr)?;
        let mut frame = Vec::new();
        wire::encode_request_into(&mut frame, 0, OP, 512, 1, pool[0].as_slice());
        c.stream.write_all(&frame).map_err(err("send"))?;
        let outcome = match c.poll(Duration::from_secs(30))? {
            Some(Message::Reply { data, .. }) => traffic.judge(0, &data),
            _ => Outcome::Error,
        };
        setup.push(t0.elapsed().as_secs_f64());
        tally.record(outcome);
        drop(c);
        if rep + 1 < SETUP_REPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("set-up rounds ran");
    report.set("setup_s", median(&setup));
    let pid = daemon.pid();
    let addr = daemon.addr.clone();
    let mut admin = Conn::connect(&addr)?;
    let w = ctx.window.as_secs_f64();
    // Untraced runs: the light rate for the whole window. Traced runs
    // split the window into eight equal phases: light, heavy, ladder and
    // saturation untraced, light and heavy traced, then light and heavy in
    // process. `serve-swap` swaps during the light phases over TCP.
    let part = w / 8.0;
    let open = Pace::Open { cap_from: usize::MAX };

    // Open loop at the light rate, untraced.
    let light_secs = if ctx.traced { part } else { w };
    let light = Plan::new(&[("light", ctx.light_rps, light_secs)], &[], 0.0);
    let cpu0 = cpu_ns(&pid);
    let s0 = admin.stats()?;
    let (run_l, swaps_l) = light.drive(ctx, &addr, &traffic, &mut admin, paths.clone(), open)?;
    let cpu1 = cpu_ns(&pid);
    tally.merge(tally_of(&run_l));
    let light_lat = ok_lat(&run_l, 0..run_l.sent);
    let light_p50 = median(&light_lat);
    let t = tail(&light_lat);
    let ok = run_l.outcome.iter().filter(|&&o| o == Outcome::Ok).count();
    report.set("tokens_per_s", ok as f64 / run_l.secs);
    report.set("cpu_us_per_token", (cpu1 - cpu0) as f64 / 1e3 / ok.max(1) as f64);
    report.set("latency.p50_us", light_p50);
    report.set("latency.tail_us", t.value);
    report.set("latency.tail_q", t.q);
    let lag = sorted(&run_l.lag_us);
    report.set("gen.lag_p99_us", quantile(&lag, 0.99));
    println!(
        "light {} req/s open loop: lat_p50_us.light {light_p50:.1} us, tail p{} {:.1} us (n={}); \
         generator lag p50 {:.1} us, p99 {:.1} us",
        ctx.light_rps,
        t.q * 100.0,
        t.value,
        t.n,
        quantile(&lag, 0.5),
        quantile(&lag, 0.99)
    );
    if let Some(swaps) = &swaps_l {
        swap_metrics(swaps, &run_l, &light.sched, report, &mut tally);
    }
    let mut swap_count = swaps_l.as_ref().map_or(0, Vec::len);

    // Capacity: the heavy rate, the rate ladder and saturation.
    let mut heavy_p50 = 0.0;
    if ctx.traced {
        let plan = Plan::new(&[("heavy", ctx.heavy_rps, part)], &ctx.ladder_rps, part);
        let (run_h, _) = plan.drive(
            ctx,
            &addr,
            &traffic,
            &mut admin,
            None,
            Pace::Open { cap_from: plan.ladder_from },
        )?;
        tally.merge(tally_of(&run_h));
        let heavy = sorted(&ok_lat(&run_h, plan.seg("heavy")));
        heavy_p50 = quantile(&heavy, 0.5);
        report.set("net.tcp_p50_us.heavy", heavy_p50);
        report.set("net.tcp_p99_us.heavy", quantile(&heavy, 0.99));
        println!(
            "heavy {} req/s open loop: lat_p50_us.heavy {heavy_p50:.1} us, lat_p99_us.heavy {:.1} us",
            ctx.heavy_rps,
            quantile(&heavy, 0.99)
        );
        {
            let steps = plan.ladder_steps(&run_h);
            for s in &steps {
                println!(
                    "ladder {:.0} req/s: p99 {:.1} us, sent {}, failed {},{} served {:.0} req/s: {}",
                    s.rate,
                    s.p99_us,
                    s.sent,
                    s.failed,
                    if s.cut { " cut at the backlog cap," } else { "" },
                    s.served_rps,
                    if s.passes(ctx.p99_limit_us) { "pass" } else { "stop" }
                );
            }
            let last = ladder_last_pass(&steps, ctx.p99_limit_us).map_or(0.0, |k| steps[k].rate);
            let gp = goodput(&steps, ctx.p99_limit_us);
            report.set("serve.goodput_rps", gp);
            println!(
                "goodput_rps = {gp:.1} (p99 limit {} us; last passing step {last} req/s)",
                ctx.p99_limit_us
            );
        }

        // Saturation: a closed loop holding SAT_WINDOW requests in flight.
        let sched = Schedule { due_ns: vec![0; (part * 50_000.0) as usize] };
        let sat = Plan { sched, segs: vec![], ladder_from: usize::MAX };
        let pace = Pace::Closed { window: SAT_WINDOW, secs: part };
        let (run_s, _) = sat.drive(ctx, &addr, &traffic, &mut admin, None, pace)?;
        tally.merge(tally_of(&run_s));
        let ok = run_s.outcome.iter().filter(|&&o| o == Outcome::Ok).count();
        report.set("serve.saturation_rps", ok as f64 / run_s.secs);
        println!(
            "saturation ({SAT_WINDOW} in flight): {:.0} req/s over {:.2}s",
            ok as f64 / run_s.secs,
            run_s.secs
        );
    }
    report.set("peak_rss_mib", peak_rss_mib(&pid).unwrap_or(0.0));

    if ctx.traced {
        let mut tracer = Tracer::new(true);
        // The same light/heavy schedules again, with spans.
        let s1 = admin.stats()?;
        let mut traced_p50 = Vec::new();
        let rates = [("light", ctx.light_rps), ("heavy", ctx.heavy_rps)];
        for &(name, rate) in &rates {
            let plan = Plan::new(&[(name, rate, part)], &[], 0.0);
            let swap_paths = if name == "light" { paths.clone() } else { None };
            let (run, swaps) = plan.drive(ctx, &addr, &traffic, &mut admin, swap_paths, open)?;
            tally.merge(tally_of(&run));
            traced_p50.push(median(&ok_lat(&run, 0..run.sent)));
            for i in 0..run.sent {
                let due = plan.sched.due_ns[i];
                let done = due + (run.lat_us[i].max(0.0) * 1e3) as u64;
                let id = i as u64;
                let parent = tracer.spans().len();
                let name = format!("net.request.{name}");
                tracer.push(Span { name, start_ns: due, end_ns: done, parent: None, id });
                let (a, b) = run.sent_ns[i];
                let send = "net.send".to_string();
                tracer.push(Span { name: send, start_ns: a, end_ns: b, parent: Some(parent), id });
            }
            for (k, &(a, b, loaded)) in swaps.iter().flatten().enumerate() {
                let name = "registry.swap".to_string();
                tracer.push(Span { name, start_ns: a, end_ns: b, parent: None, id: k as u64 });
                tally.record(if loaded { Outcome::Ok } else { Outcome::Refused });
            }
            swap_count += swaps.map_or(0, |s| s.len());
        }
        let s2 = admin.stats()?;
        report.set("trace.overhead_us", traced_p50[0] - light_p50);
        println!(
            "tracing overhead: traced light p50 {:.1} us vs untraced {light_p50:.1} us",
            traced_p50[0]
        );

        // Stats-verb deltas over the traced window, per completed request.
        let completed = (total(&s2, "biq_serve_completed_total")
            - total(&s1, "biq_serve_completed_total"))
        .max(1.0);
        let per = |name: &str| (total(&s2, name) - total(&s1, name)) / completed;
        for (metric, counter) in [
            ("net.read_syscalls", "biq_net_read_syscalls_total"),
            ("net.write_syscalls", "biq_net_write_syscalls_total"),
            ("net.wakeups", "biq_net_reactor_wakeups_total"),
            ("net.bytes_in", "biq_net_bytes_in_total"),
            ("net.bytes_out", "biq_net_bytes_out_total"),
        ] {
            report.set(metric, per(counter));
        }
        let query = per("biq_kernel_query_ns_total") / 1e3;
        probe::core_phases(
            per("biq_kernel_build_ns_total") / 1e3,
            query,
            per("biq_kernel_replace_ns_total") / 1e3,
            report,
        );
        let rejected =
            total(&s2, "biq_serve_rejected_total") - total(&s0, "biq_serve_rejected_total");

        // The same rates in process: Client::try_submit → Ticket::wait.
        let artifact = Artifact::open(&v1.path).map_err(|e| format!("open: {e}"))?;
        let mut registry = ModelRegistry::new();
        registry.set_model_name(MODEL);
        let (_model, ids) =
            registry.load_artifact(&artifact).map_err(|e| format!("restore: {e}"))?;
        let server = Server::start(registry, server_config(&ctx.serve_flags));
        let mut busy = 0;
        for (k, &(name, rate)) in rates.iter().enumerate() {
            let before = server.stats();
            let sched = Plan::new(&[(name, rate, part)], &[], 0.0).sched;
            let run = drive_inproc(&server, ids[0].1, &sched, &traffic);
            let after = server.stats();
            tally.merge(tally_of(&run));
            busy += run.outcome.iter().filter(|&&o| o == Outcome::Busy).count();
            let done = (after.completed() - before.completed()).max(1) as f64;
            let batches: u64 = after.ops.iter().map(|o| o.batches).sum::<u64>()
                - before.ops.iter().map(|o| o.batches).sum::<u64>();
            let cols = done / batches.max(1) as f64;
            let exec_per_col =
                after.profile.delta_since(&before.profile).total().as_secs_f64() * 1e6 / done;
            let p50 = median(&ok_lat(&run, 0..run.sent));
            let tcp = if name == "light" { light_p50 } else { heavy_p50 };
            report.set(&format!("serve.inproc_p50_us.{name}"), p50);
            report.set(&format!("serve.batch_cols_mean.{name}"), cols);
            report.set(&format!("net.tax_us.{name}"), tcp - p50);
            if name == "light" {
                report.set("serve.exec_us_per_col", exec_per_col);
                report.set("serve.wait_us", p50 - exec_per_col * cols);
            }
            println!(
                "{name}: tcp p50 {tcp:.1} us = in-process p50 {p50:.1} us + net tax {:.1} us; \
                 batch {cols:.2} cols, exec {exec_per_col:.1} us/col",
                tcp - p50
            );
            check_sum(
                &format!("serve.inproc + net.tax ~ traced tcp ({name})"),
                tcp,
                traced_p50[k],
                0.25,
            );
        }
        server.shutdown();
        report.set("serve.rejected", rejected + busy as f64);

        // Layer probes on the served artifact.
        artifact_probe(&v1, report)?;
        let ops = vec![(OP.to_string(), Arc::clone(&v1.op))];
        probe::exec(&ops, 1, ctx.seed, report);
        probe::core_counts(&ops, 1, query, report);
        report.set("registry.load_ms", probe::registry_load_ms(&v1.path)?);
        write_trace(ctx, workload, &tracer);
    }
    report.set("gen.sent", tally.attempted as f64);
    report.set("gen.ok", (tally.attempted - tally.failed) as f64);
    report.set("gen.failed", tally.failed as f64);
    if swap {
        println!(
            "registry: {swap_count} swaps on this daemon; it refuses every load once it has \
             tracked {} model versions (retired versions are never dropped)",
            biq_serve::registry::MAX_MODELS
        );
    }
    drop(admin);
    daemon.stop()?;
    let correct = tally.failed == 0;
    Ok((tally, correct))
}

/// `serve-swap`'s registry metrics: swap time, stalled data requests, and
/// swaps loaded versus refused.
fn swap_metrics(
    swaps: &[(u64, u64, bool)],
    run: &Run,
    sched: &Schedule,
    report: &mut Report,
    tally: &mut Tally,
) {
    let ms: Vec<f64> = swaps.iter().map(|&(a, b, _)| (b - a) as f64 / 1e6).collect();
    let t = tail(&ms);
    report.set("registry.swap_p50_ms", median(&ms));
    report.set("registry.swap_tail_ms", t.value);
    let loaded = swaps.iter().filter(|s| s.2).count();
    report.set("registry.swaps", loaded as f64);
    report.set("registry.refused", (swaps.len() - loaded) as f64);
    swaps.iter().for_each(|s| tally.record(if s.2 { Outcome::Ok } else { Outcome::Refused }));
    let stalled: Vec<f64> = (0..run.sent)
        .filter(|&i| {
            let due = sched.due_ns[i];
            run.outcome[i] == Outcome::Ok && swaps.iter().any(|&(a, b, _)| due >= a && due <= b)
        })
        .map(|i| run.lat_us[i])
        .collect();
    report.set("registry.stall_p99_us", quantile(&sorted(&stalled), 0.99));
    println!(
        "swap_p50_ms = {:.3} ms, swap_tail_ms = {:.3} ms (p{} of n={}); {} data requests fell due \
         during a swap",
        median(&ms),
        t.value,
        t.q * 100.0,
        t.n,
        stalled.len()
    );
}

/// `artifact` layer on the served artifact: open, restore, and the first
/// `Executor::run` minus the steady one.
fn artifact_probe(v: &Served, report: &mut Report) -> Result<(), String> {
    let (mut open, mut restore, mut warm) = (vec![], vec![], vec![]);
    let x = ColMatrix::zeros(v.op.input_size(), 1);
    for _ in 0..3 {
        let t0 = Instant::now();
        let artifact = Artifact::open(&v.path).map_err(|e| format!("open: {e}"))?;
        let t1 = Instant::now();
        let model = CompiledModel::from_artifact(&artifact).map_err(|e| format!("restore: {e}"))?;
        let t2 = Instant::now();
        let op = model.named_linears()[0].1.compiled_op();
        let mut exec = Executor::new();
        let t3 = Instant::now();
        std::hint::black_box(exec.run(&op, &x));
        let first = t3.elapsed().as_secs_f64();
        let steady: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(exec.run(&op, &x));
                t.elapsed().as_secs_f64()
            })
            .collect();
        open.push((t1 - t0).as_secs_f64() * 1e3);
        restore.push((t2 - t1).as_secs_f64() * 1e3);
        warm.push((first - median(&steady)) * 1e3);
    }
    report.set("artifact.open_ms", median(&open));
    report.set("artifact.restore_ms", median(&restore));
    report.set("artifact.warm_ms", median(&warm));
    Ok(())
}

/// An open-loop schedule made of fixed-rate segments plus an optional rate
/// ladder.
struct Plan {
    sched: Schedule,
    segs: Vec<(String, f64, std::ops::Range<usize>)>,
    /// First request of the ladder (`usize::MAX` without one).
    ladder_from: usize,
}

impl Plan {
    fn new(parts: &[(&str, f64, f64)], ladder: &[f64], ladder_secs: f64) -> Plan {
        let mut p = Plan { sched: Schedule::default(), segs: vec![], ladder_from: usize::MAX };
        let mut at = 0u64;
        let mut push = |p: &mut Plan, name: String, rate: f64, secs: f64| {
            let start = p.sched.due_ns.len();
            at = p.sched.push_rate(at, rate, (rate * secs).round().max(1.0) as usize);
            p.segs.push((name, rate, start..p.sched.due_ns.len()));
        };
        for &(name, rate, secs) in parts {
            push(&mut p, name.to_string(), rate, secs);
        }
        if !ladder.is_empty() {
            p.ladder_from = p.sched.due_ns.len();
        }
        for (k, &rate) in ladder.iter().enumerate() {
            push(&mut p, format!("ladder.{k}"), rate, ladder_secs / ladder.len() as f64);
        }
        p
    }

    fn seg(&self, name: &str) -> std::ops::Range<usize> {
        self.segs.iter().find(|s| s.0 == name).map_or(0..0, |s| s.2.clone())
    }

    fn drive(
        &self,
        ctx: &Ctx,
        addr: &str,
        traffic: &Traffic,
        admin: &mut Conn,
        swap_paths: Option<[String; 2]>,
        pace: Pace,
    ) -> Result<(Run, Option<Swaps>), String> {
        let Some(paths) = swap_paths else {
            return Ok((drive_tcp(addr, &self.sched, traffic, pace, None)?, None));
        };
        let every_ns = ctx.swap_every.as_nanos() as u64;
        let mut sw = Swapper {
            admin,
            every_ns,
            next_ns: every_ns / 2,
            paths,
            sent: 0,
            in_flight: None,
            done: vec![],
        };
        let run = drive_tcp(addr, &self.sched, traffic, pace, Some(&mut sw))?;
        Ok((run, Some(sw.done)))
    }

    /// The ladder steps that were sent, as measured. A step ends early
    /// (`cut`) when the backlog reached [`MAX_BACKLOG`].
    fn ladder_steps(&self, run: &Run) -> Vec<LadderStep> {
        let mut steps = Vec::new();
        for (_, rate, r) in self.segs.iter().filter(|s| s.0.starts_with("ladder.")) {
            if r.start >= run.sent {
                break;
            }
            let end = r.end.min(run.sent);
            let failed = run.outcome[r.start..end].iter().filter(|&&o| o != Outcome::Ok).count();
            let last_done = (r.start..end)
                .filter(|&i| run.outcome[i] == Outcome::Ok)
                .map(|i| self.sched.due_ns[i] + (run.lat_us[i] * 1e3) as u64)
                .max()
                .unwrap_or(self.sched.due_ns[r.start] + 1);
            let answered = (r.start..end).filter(|&i| run.outcome[i] == Outcome::Ok).count();
            steps.push(LadderStep {
                rate: *rate,
                p99_us: p99_with_failures(&ok_lat(run, r.start..end), failed),
                sent: end - r.start,
                failed,
                cut: end < r.end,
                served_rps: answered as f64 * 1e9 / (last_done - self.sched.due_ns[r.start]) as f64,
            });
        }
        steps
    }
}
