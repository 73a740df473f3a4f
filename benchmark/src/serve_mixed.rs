//! `serve-mixed`: a child `fj serve` under a seeded request mix.
//!
//! Load comes from two generator threads with one connection each, so at
//! most two connections are open at once. Each request is one of:
//!
//! * 60% hot: a byte-identical recompile (textual cache hit);
//! * 20% warm: the program plus a fresh trailing comment (textual miss,
//!   α-hit in the term cache);
//! * 10% cold: the program plus a dead `def bench_nonce_<n>` (a new
//!   α-class: the full pipeline and a disk write-behind; the optimizer
//!   drops the dead definition, so the answer's fingerprint is the base
//!   program's);
//! * 10% `run` on the VM backend.
//!
//! 20% of requests go out on a fresh connection (a one-shot CLI client),
//! which then replaces the thread's connection.
//!
//! The window has two phases. The base phase is an open loop: Poisson
//! arrivals at 400 req/s in total, each request timed from when it was
//! due, so a stall also delays the requests queued behind it; requests
//! still unsent [`UNSENT_GRACE`] after the phase ends count as failed. The
//! throughput phase
//! is a closed loop on the same two connections with the same mix.
//!
//! Only the median latency is scaled to nominal host speed
//! ([`crate::calibrate`]), by a kernel that a sampler thread runs each
//! time it wakes during the base phase: a typical request is thread
//! wake-ups and allocation-heavy handling, which slow with the host as the
//! woken kernel does. The p99 and the closed-loop throughput stay raw.
//! Fresh connections waiting on the accept loop's 5 ms poll, a timer the
//! host's speed does not move, set much of both, and scaling them did not
//! narrow their run-to-run spreads (see `README.md`).

use crate::calibrate::Calibrator;
use crate::oracle::{self, Checks, Oracle, Reference};
use crate::stats::{ratio, Latency};
use crate::{trace, Ctx, Measured};
use fj_server::json::{self, Value};
use fj_testkit::SplitMix64;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load of the base phase, in requests per second.
const BASE_RATE: f64 = 400.0;
/// Share of the window spent in the base phase.
const BASE_SHARE: f64 = 0.7;
/// Generator threads, and so connections.
const THREADS: u64 = 2;
/// A request sent this much after it was due counts as late.
const LATE: Duration = Duration::from_millis(1);
/// How long after the open-loop phase ends a request due within it may
/// still go out. A thread caught in one slow request at the boundary
/// sends its last request slightly late; a backlog that keeps growing
/// does not clear within this and its requests count as failed.
const UNSENT_GRACE: Duration = Duration::from_millis(100);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Hot,
    Warm,
    Cold,
    Run,
}

impl Class {
    const ALL: [Class; 4] = [Class::Hot, Class::Warm, Class::Cold, Class::Run];

    fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Warm => "warm",
            Class::Cold => "cold",
            Class::Run => "run",
        }
    }

    fn handle_span(self) -> &'static str {
        match self {
            Class::Hot => "server.handle.hot",
            Class::Warm => "server.handle.warm",
            Class::Cold => "server.handle.cold",
            Class::Run => "server.handle.run",
        }
    }

    fn wire_share(self) -> &'static str {
        match self {
            Class::Hot => "client.hot.wire_share",
            Class::Warm => "client.warm.wire_share",
            Class::Cold => "client.cold.wire_share",
            Class::Run => "client.run.wire_share",
        }
    }
}

/// One generated request.
struct Request {
    /// When it is due, from the start of the base phase (open loop only).
    due: Duration,
    class: Class,
    program: usize,
    fresh: bool,
    /// The request line, newline-terminated.
    line: String,
}

/// The seeded request mix of one generator thread.
struct Mix {
    rng: SplitMix64,
    thread: u64,
    seq: u64,
}

impl Mix {
    fn next(&mut self, refs: &[Reference], hot: &[String], run: &[String]) -> Request {
        let program = self.rng.below(refs.len() as u64) as usize;
        let class = match self.rng.below(100) {
            0..=59 => Class::Hot,
            60..=79 => Class::Warm,
            80..=89 => Class::Cold,
            _ => Class::Run,
        };
        let fresh = self.rng.below(100) < 20;
        self.seq += 1;
        let source = refs[program].source;
        let line = match class {
            Class::Hot => hot[program].clone(),
            Class::Run => run[program].clone(),
            Class::Warm => line(&oracle::compile_line(&oracle::warm_source(
                source,
                self.rng.next_u64(),
            ))),
            Class::Cold => {
                let nonce = self.seq * THREADS + self.thread;
                line(&oracle::compile_line(&oracle::cold_source(source, nonce)))
            }
        };
        Request {
            due: Duration::ZERO,
            class,
            program,
            fresh,
            line,
        }
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate`.
    fn gap(&mut self, rate: f64) -> Duration {
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(-(1.0 - u).ln() / rate)
    }
}

fn line(s: &str) -> String {
    format!("{s}\n")
}

/// A running `fj serve` child. Dropping it shuts the child down and
/// waits for it.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Start `fj serve` over `dir/serve-cache`. Its standard output goes to
    /// a file rather than a pipe, so no thread has to drain it.
    fn spawn(fj: &Path, dir: &Path) -> Result<Server, String> {
        let log = dir.join("serve.out");
        let stdout = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(fj)
            .args(["serve", "--port", "0", "--cache-dir"])
            .arg(dir.join("serve-cache"))
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fj.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline && matches!(server.child.try_wait(), Ok(None)) {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            let addr = text
                .lines()
                .next()
                .filter(|_| text.contains('\n'))
                .and_then(|l| l.rsplit(' ').next())
                .and_then(|a| a.parse().ok());
            if let Some(addr) = addr {
                server.addr = addr;
                return Ok(server);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("fj serve did not report its address".to_string())
    }

    /// One request on a one-shot connection.
    fn request(&self, line: &str) -> Result<String, String> {
        let mut conn = Conn::open(self.addr).map_err(|e| e.to_string())?;
        conn.exchange(line).map_err(|e| e.to_string())
    }

    fn stats(&self) -> Option<Value> {
        json::parse(&self.request("{\"op\": \"stats\"}\n").ok()?).ok()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A child that took the shutdown request drains and exits on its
        // own; one that cannot be reached is killed straight away.
        if self.request("{\"op\": \"shutdown\"}\n").is_ok() {
            let deadline = Instant::now() + Duration::from_secs(10);
            while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    fn exchange(&mut self, line: &str) -> std::io::Result<String> {
        trace::timed("client.send", || self.stream.write_all(line.as_bytes()))?;
        let mut response = String::new();
        trace::timed("client.recv", || self.reader.read_line(&mut response))?;
        if response.is_empty() {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(response)
    }
}

/// Send `line` on the thread's connection, first replacing it with a new
/// one for a fresh-connection request (or after an error).
fn send(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    fresh: bool,
    line: &str,
) -> std::io::Result<String> {
    if fresh || conn.is_none() {
        *conn = None;
        *conn = Some(trace::timed("client.connect", || Conn::open(addr))?);
    }
    let result = conn.as_mut().expect("connected above").exchange(line);
    if result.is_err() {
        *conn = None;
    }
    result
}

/// Check one response. Returns the pipeline wall time of a cold miss.
fn verify(
    req: &Request,
    response: std::io::Result<String>,
    refs: &[Reference],
    checks: &mut Checks,
) -> Option<f64> {
    let r = &refs[req.program];
    let response = match response {
        Ok(text) => text,
        Err(e) => {
            checks.expect(false, || {
                format!("{}: {} request failed: {e}", r.name, req.class.name())
            });
            return None;
        }
    };
    if req.class == Class::Run {
        oracle::check_run(response.trim_end(), r, checks);
        return None;
    }
    let v = oracle::check_compile(response.trim_end(), r, checks)?;
    (v.get("cache").and_then(Value::as_str) == Some("miss"))
        .then(|| v.get("wall_us").and_then(Value::as_f64))
        .flatten()
}

/// Everything set up for one window.
pub struct Setup {
    server: Server,
    hot: Vec<String>,
    run: Vec<String>,
    mixes: Vec<Mix>,
    /// The base-phase schedule of each thread.
    plans: Vec<Vec<Request>>,
    /// Σ optimized size and Σ allocations, as the priming answers reported.
    code_size_total: u64,
    allocs_total: u64,
    replay_dir: PathBuf,
}

/// Start the child over a fresh cache directory, prime it with one
/// compile and one run of every program (checking both), and generate the
/// base-phase schedule.
///
/// # Errors
///
/// A failure to start or reach the child.
pub fn setup(ctx: &Ctx, oracle: &Oracle, dir: &Path, checks: &mut Checks) -> Result<Setup, String> {
    let fj = ctx.fj.as_deref().ok_or("serve-mixed needs --fj PATH")?;
    let server = Server::spawn(fj, dir)?;
    let refs = &oracle.refs;
    let hot: Vec<String> = refs
        .iter()
        .map(|r| line(&oracle::compile_line(r.source)))
        .collect();
    let run: Vec<String> = refs
        .iter()
        .map(|r| line(&oracle::run_line(r.source)))
        .collect();
    let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
    let (mut code_size_total, mut allocs_total) = (0, 0);
    for (i, r) in refs.iter().enumerate() {
        let answer = conn.exchange(&hot[i]).map_err(|e| e.to_string())?;
        if let Some(v) = oracle::check_compile(answer.trim_end(), r, checks) {
            code_size_total += v.get("size_after").and_then(Value::as_u64).unwrap_or(0);
        }
        let answer = conn.exchange(&run[i]).map_err(|e| e.to_string())?;
        allocs_total += oracle::check_run(answer.trim_end(), r, checks).unwrap_or(0);
    }
    let mut root = SplitMix64::new(ctx.seed);
    let mut mixes: Vec<Mix> = (0..THREADS)
        .map(|thread| Mix {
            rng: root.split(),
            thread,
            seq: 0,
        })
        .collect();
    let base = Duration::from_secs_f64(ctx.seconds * BASE_SHARE);
    let per_thread_rate = BASE_RATE / THREADS as f64;
    let plans = mixes
        .iter_mut()
        .map(|mix| {
            let mut plan = Vec::new();
            let mut due = mix.gap(per_thread_rate);
            while due < base {
                let mut req = mix.next(refs, &hot, &run);
                req.due = due;
                plan.push(req);
                due += mix.gap(per_thread_rate);
            }
            plan
        })
        .collect();
    Ok(Setup {
        server,
        hot,
        run,
        mixes,
        plans,
        code_size_total,
        allocs_total,
        replay_dir: dir.join("replay-store"),
    })
}

/// One base-phase request as the client saw it.
struct Served {
    class: Class,
    fresh: bool,
    due: Duration,
    latency_us: f64,
    lag: Duration,
    traced: bool,
    pipeline_wall_us: Option<f64>,
}

/// What one generator thread brings back.
#[derive(Default)]
struct Driven {
    samples: Vec<Served>,
    unsent: u64,
    closed_ops: u64,
    checks: Checks,
    spans: Vec<trace::Span>,
}

/// Wait until `due`: sleep most of the way, then spin, so the send time
/// does not inherit the scheduler's sleep overshoot.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What every generator thread shares.
struct Shared<'a> {
    refs: &'a [Reference],
    hot: &'a [String],
    run: &'a [String],
    addr: SocketAddr,
    start: Instant,
    base_end: Instant,
    end: Instant,
    tracing: bool,
}

fn drive(thread: u64, plan: &[Request], mix: &mut Mix, sh: &Shared) -> Driven {
    let mut out = Driven::default();
    let mut conn = Conn::open(sh.addr).ok();
    for (k, req) in plan.iter().enumerate() {
        let due = sh.start + req.due;
        if Instant::now() >= sh.base_end + UNSENT_GRACE {
            out.unsent = (plan.len() - k) as u64;
            break;
        }
        wait_until(due);
        let traced = sh.tracing && k % 2 == 1;
        trace::set_on(traced);
        trace::begin_op(((thread + 1) << 32) | k as u64);
        let sent = Instant::now();
        let response = {
            let _op = trace::span("bench.op");
            send(&mut conn, sh.addr, req.fresh, &req.line)
        };
        let latency = due.elapsed();
        trace::set_on(false);
        let pipeline_wall_us = verify(req, response, sh.refs, &mut out.checks);
        out.samples.push(Served {
            class: req.class,
            fresh: req.fresh,
            due: req.due,
            latency_us: latency.as_secs_f64() * 1e6,
            lag: sent - due,
            traced,
            pipeline_wall_us,
        });
    }
    out.spans = trace::take();
    wait_until(sh.base_end);
    while Instant::now() < sh.end {
        let req = mix.next(sh.refs, sh.hot, sh.run);
        let response = send(&mut conn, sh.addr, req.fresh, &req.line);
        verify(&req, response, sh.refs, &mut out.checks);
        out.closed_ops += 1;
    }
    out
}

fn counter(v: Option<&Value>, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = cur.and_then(|c| c.get(key));
    }
    cur.and_then(Value::as_f64).unwrap_or(0.0)
}

/// Run the timed window.
pub fn measure(ctx: &Ctx, oracle: &Oracle, mut setup: Setup, m: &mut Measured) {
    let refs = &oracle.refs;
    let before = setup.server.stats();
    let start = Instant::now() + Duration::from_millis(20);
    let shared = Shared {
        refs,
        hot: &setup.hot,
        run: &setup.run,
        addr: setup.server.addr,
        start,
        base_end: start + Duration::from_secs_f64(ctx.seconds * BASE_SHARE),
        end: start + Duration::from_secs_f64(ctx.seconds),
        tracing: ctx.trace,
    };
    let pid = setup.server.child.id().to_string();
    let driven: Vec<Driven> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .plans
            .iter()
            .zip(setup.mixes.iter_mut())
            .enumerate()
            .map(|(t, (plan, mix))| {
                let shared = &shared;
                scope.spawn(move || drive(t as u64, plan, mix, shared))
            })
            .collect();
        // A thread of its own, so the kernel allocates from a fresh arena
        // rather than the main thread's heap, which set-up left in a state
        // of its own: timed there, the kernel did not track the host.
        let base_end = shared.base_end;
        let sampler = scope.spawn(move || {
            let mut clock = Calibrator::woken(start);
            wait_until(start);
            clock.sample_until(base_end);
            clock.samples
        });
        wait_until(shared.base_end);
        // The open-loop phase sends a seeded, fixed number of requests,
        // so memory read at its end does not depend on speed.
        m.peak_rss_mb = crate::peak_rss_mb(&pid);
        m.kernel = sampler.join().expect("the sampler does not panic");
        handles
            .into_iter()
            .map(|h| h.join().expect("generator threads do not panic"))
            .collect()
    });
    let closed_secs = shared
        .end
        .saturating_duration_since(shared.base_end)
        .as_secs_f64();
    let after = setup.server.stats();
    m.code_size_total = setup.code_size_total;
    m.allocs_total = setup.allocs_total;

    let mut samples = Vec::new();
    for d in driven {
        m.ops += d.samples.len() as u64 + d.closed_ops + d.unsent;
        m.checks.absorb(d.checks);
        if d.unsent > 0 {
            m.checks.fail(
                d.unsent,
                format!(
                    "{} requests were still unsent {} ms after the base phase ended",
                    d.unsent,
                    UNSENT_GRACE.as_millis()
                ),
            );
        }
        m.closed_ops += d.closed_ops;
        trace::merge(&mut m.spans, d.spans);
        samples.extend(d.samples);
    }
    for s in &samples {
        m.latency(s.traced, s.due, Duration::from_secs_f64(s.latency_us / 1e6));
    }
    m.window_s = ctx.seconds * BASE_SHARE;
    m.raw_tail = true;
    m.closed_s = closed_secs;
    report(&samples, closed_secs, (before.as_ref(), after.as_ref()), m);
    if ctx.trace {
        replay(&setup, refs, m);
        let handle = |c: Class| {
            let durs: Vec<f64> = m
                .spans
                .iter()
                .filter(|s| s.name == c.handle_span() && s.op == 0)
                .map(|s| s.dur() as f64 / 1e3)
                .collect();
            Latency::of(&durs)
        };
        m.detail
            .push(format!("{:<6} {:>14}", "class", "handle_p50_us"));
        for c in Class::ALL {
            let served = Latency::of(&class_latencies(&samples, |s| s.class == c));
            let handled = handle(c);
            m.detail
                .push(format!("{:<6} {:>14.1}", c.name(), handled.p50));
            m.extras
                .push((c.wire_share(), 1.0 - ratio(handled.p50, served.p50)));
        }
    }
}

fn class_latencies(samples: &[Served], keep: impl Fn(&Served) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.latency_us)
        .collect()
}

/// Client-side detail rows and the server's counter deltas.
fn report(
    samples: &[Served],
    closed_secs: f64,
    (before, after): (Option<&Value>, Option<&Value>),
    m: &mut Measured,
) {
    let delta = |path: &[&str]| counter(after, path) - counter(before, path);
    let hits = delta(&["cache", "hits"])
        + delta(&["cache", "source_hits"])
        + delta(&["cache", "coalesced"]);
    let lookups = hits + delta(&["cache", "misses"]);
    m.extras.extend([
        ("server.cache.hit_ratio", ratio(hits, lookups)),
        ("server.cache.evictions", delta(&["cache", "evictions"])),
        ("server.cache.coalesced", delta(&["cache", "coalesced"])),
        ("server.disk.writes", delta(&["disk", "writes"])),
        (
            "server.disk.write_failures",
            delta(&["disk", "write_failures"]),
        ),
        ("server.service.shed", delta(&["service", "shed"])),
        ("server.service.failed", delta(&["service", "failed"])),
        (
            "server.service.conns_accepted",
            delta(&["service", "conns_accepted"]),
        ),
    ]);
    let fresh = Latency::of(&class_latencies(samples, |s| s.fresh));
    let persistent = Latency::of(&class_latencies(samples, |s| !s.fresh));
    let lags: Vec<f64> = samples.iter().map(|s| s.lag.as_secs_f64() * 1e6).collect();
    let lag = Latency::of(&lags);
    let late = samples.iter().filter(|s| s.lag > LATE).count() as f64;
    let walls: f64 = samples.iter().filter_map(|s| s.pipeline_wall_us).sum();
    let cold_latency: f64 = samples
        .iter()
        .filter(|s| s.pipeline_wall_us.is_some())
        .map(|s| s.latency_us)
        .sum();
    m.extras.extend([
        (
            "client.fresh_over_persistent.p50",
            ratio(fresh.p50, persistent.p50),
        ),
        (
            "client.fresh_over_persistent.p99",
            ratio(fresh.p99, persistent.p99),
        ),
        ("client.pipeline_wall.share", ratio(walls, cold_latency)),
        ("gen.late.share", ratio(late, samples.len() as f64)),
    ]);
    m.detail.push(format!(
        "base phase: {} requests at {BASE_RATE} req/s offered; throughput phase: {} requests \
         in {closed_secs:.2} s on {THREADS} connections",
        samples.len(),
        m.closed_ops
    ));
    m.detail.push(format!(
        "{:<11} {:>6} {:>10} {:>10}",
        "client", "n", "p50_us", "p99_us"
    ));
    let mut row = |label: &str, l: Latency| {
        m.detail.push(format!(
            "{label:<11} {:>6} {:>10.1} {:>10.1}",
            l.n, l.p50, l.p99
        ));
    };
    for c in Class::ALL {
        row(
            c.name(),
            Latency::of(&class_latencies(samples, |s| s.class == c)),
        );
    }
    row("fresh", fresh);
    row("persistent", persistent);
    row("gen.lag", lag);
    let wall_list: Vec<f64> = samples.iter().filter_map(|s| s.pipeline_wall_us).collect();
    row("cold wall", Latency::of(&wall_list));
    m.detail.push(format!(
        "server: workers={} queue_cap={} cache hit ratio {hits}/{lookups}, evictions {}, disk writes {}, \
         shed {}, failed {}, connections {}",
        counter(after, &["service", "workers"]),
        counter(after, &["service", "queue_cap"]),
        delta(&["cache", "evictions"]),
        delta(&["disk", "writes"]),
        delta(&["service", "shed"]),
        delta(&["service", "failed"]),
        delta(&["service", "conns_accepted"]),
    ));
}

/// Replay the base-phase request lines in process, in due order, through
/// `ServerState::handle_line` on a fresh store-backed state primed like
/// the child, with one span per request class.
fn replay(setup: &Setup, refs: &[Reference], m: &mut Measured) {
    let _ = std::fs::remove_dir_all(&setup.replay_dir);
    let state = match oracle::served_state(&setup.replay_dir) {
        Ok(s) => s,
        Err(e) => {
            m.checks.expect(false, || e);
            return;
        }
    };
    for hot in &setup.hot {
        state.handle_line(hot.trim_end());
    }
    let mut order: Vec<&Request> = setup.plans.iter().flatten().collect();
    order.sort_by_key(|r| r.due);
    trace::set_on(true);
    trace::begin_op(0);
    for req in order {
        let answer = trace::timed(req.class.handle_span(), || {
            state.handle_line(req.line.trim_end()).0
        });
        verify(req, Ok(answer), refs, &mut m.checks);
    }
    trace::set_on(false);
    trace::merge(&mut m.spans, trace::take());
}
