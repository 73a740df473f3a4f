//! The service execution model under `fj serve`: admission control,
//! hostile-input framing, crash-only request handling, and a graceful
//! drain. Nothing on the request path sleeps or changes threads: each
//! request runs on the thread of the connection that sent it.
//!
//! ## Execution model
//!
//! ```text
//! accept loop ──> thread per admitted connection (≤ max_conns)
//! (blocking;       │ FrameReader: max-line enforced *while reading*,
//!  backoff on      │ one idle deadline per frame, lossy UTF-8 — hostile
//!  accept errors)  │ bytes become in-protocol `proto` errors or
//!                  │ counted disconnects
//!                  ▼
//!                 Gate: `workers` slots,        all taken ⇒ shed with
//!                 `queue_cap` waiting places,   `overloaded` + retry hint;
//!                 taken in arrival order        never queued without limit
//!                  │
//!                  ▼
//!                 handle_line under catch_unwind, on the same thread:
//!                 a handler panic is an `internal` error response, and
//!                 the connection and the daemon survive
//! ```
//!
//! Admission control is two-level: a **connection cap** (`max_conns`)
//! sheds whole connections at accept time, and the **request gate** lets
//! `workers` requests run at once and `queue_cap` more wait for a slot,
//! in arrival order; the next request is shed. Both sheds answer
//! in-protocol with an `overloaded` error carrying a `retry_after_ms`
//! hint, so a well-behaved client can back off instead of seeing a
//! silent close.
//!
//! Shutdown is a **drain**. `accept` blocks, so the connection that
//! served `shutdown` wakes it by connecting once to the listener; the
//! loop checks the flag before the connection cap, so that wake-up can
//! never be shed. The listener then closes, and the drain shuts down
//! the read half of every admitted connection: a reader blocked in
//! `read` returns at once, frames already buffered are still answered,
//! and requests in flight finish. [`serve`] returns when the last
//! connection ends or the `drain` deadline passes, whichever comes
//! first. A connection still busy past the deadline is abandoned
//! (crash-only exit), never waited on forever.

use crate::{error_response, ServeError, ServerState};
use fj_core::{panic_message, quiet_panics};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Upper bound on the accept-error backoff sleep.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Tuning knobs for the serving layer (the caches are configured
/// separately, on [`ServerState::new`]). Stored inside the
/// [`ServerState`] so `serve` and the `stats` op see the same values.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Requests running at once.
    pub workers: usize,
    /// Requests waiting for a slot; one more is shed.
    pub queue_cap: usize,
    /// Maximum concurrently admitted connections; excess is shed.
    pub max_conns: usize,
    /// Maximum request-frame length in bytes, enforced *while reading*.
    pub max_line: usize,
    /// Disconnect a connection that does not complete a frame within
    /// this long of the server starting to wait for it (slow-loris
    /// defense).
    pub idle_timeout: Duration,
    /// How long `shutdown` waits for in-flight work before exiting.
    pub drain: Duration,
    /// Honor the `__chaos_panic` / `__chaos_sleep` fault-injection ops
    /// (test harnesses only; off by default).
    pub chaos: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2)
            .clamp(1, 16);
        ServeConfig {
            workers,
            queue_cap: workers * 8,
            max_conns: 256,
            max_line: 1 << 20,
            idle_timeout: Duration::from_secs(10),
            drain: Duration::from_secs(2),
            chaos: false,
        }
    }
}

/// Why a connection ended, counted in [`ServiceStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Disconnect {
    /// EOF, shutdown drain, or post-`shutdown` close.
    Clean,
    /// A transport error mid-connection (previously discarded silently).
    Io,
    /// The idle timeout tripped: a slow-loris client was cut off.
    Timeout,
    /// A frame exceeded `max_line` and the connection was closed.
    Oversize,
}

/// Service-layer counters. All request-level counters reconcile:
/// `received == completed + failed + shed` once no request is in flight.
#[derive(Default)]
pub(crate) struct ServiceStats {
    pub(crate) conns_accepted: AtomicU64,
    pub(crate) conns_shed: AtomicU64,
    pub(crate) conns_active: AtomicU64,
    pub(crate) accept_errors: AtomicU64,
    pub(crate) received: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) panics: AtomicU64,
    pub(crate) disc_clean: AtomicU64,
    pub(crate) disc_io: AtomicU64,
    pub(crate) disc_timeout: AtomicU64,
    pub(crate) disc_oversize: AtomicU64,
}

/// A point-in-time copy of the service counters, for tests and the
/// `stats` op.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceSnapshot {
    /// Connections accepted by the listener (admitted + shed).
    pub conns_accepted: u64,
    /// Connections shed at the connection cap.
    pub conns_shed: u64,
    /// Connections currently admitted (gauge).
    pub conns_active: u64,
    /// Transient accept-loop errors (EMFILE and friends), backed off.
    pub accept_errors: u64,
    /// Non-empty request frames received from admitted connections.
    pub received: u64,
    /// Requests answered with `ok: true`.
    pub completed: u64,
    /// Requests answered with an in-protocol error (parse, type, …,
    /// including `internal` panic responses).
    pub failed: u64,
    /// Requests shed with `overloaded`: every slot was busy and every
    /// waiting place taken.
    pub shed: u64,
    /// Request handlers that panicked (each also counts as `failed`).
    pub panics: u64,
    /// Connections that ended cleanly (EOF, shutdown drain).
    pub disc_clean: u64,
    /// Connections that ended on a transport error.
    pub disc_io: u64,
    /// Connections cut off by the idle timeout.
    pub disc_timeout: u64,
    /// Connections closed for an oversized frame.
    pub disc_oversize: u64,
}

impl ServiceStats {
    pub(crate) fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            conns_accepted: self.conns_accepted.load(Ordering::Relaxed),
            conns_shed: self.conns_shed.load(Ordering::Relaxed),
            conns_active: self.conns_active.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            disc_clean: self.disc_clean.load(Ordering::Relaxed),
            disc_io: self.disc_io.load(Ordering::Relaxed),
            disc_timeout: self.disc_timeout.load(Ordering::Relaxed),
            disc_oversize: self.disc_oversize.load(Ordering::Relaxed),
        }
    }
}

/// The backoff sleep after `consecutive` accept errors in a row:
/// exponential from 1ms, capped at [`ACCEPT_BACKOFF_CAP`]. Transient
/// resource exhaustion (EMFILE/ENFILE) degrades into slow accepting
/// instead of a hot spin that starves the very connections whose close
/// would free descriptors.
pub fn accept_backoff(consecutive: u32) -> Duration {
    let shift = consecutive.saturating_sub(1).min(16);
    Duration::from_millis(1u64 << shift).min(ACCEPT_BACKOFF_CAP)
}

/// The `retry_after_ms` hint attached to shed responses: proportional to
/// the waiting requests per slot, clamped to a sane band.
fn retry_hint_ms(waiting: usize, workers: usize) -> u64 {
    let per_worker = waiting as u64 / workers.max(1) as u64;
    per_worker
        .saturating_add(1)
        .saturating_mul(10)
        .clamp(10, 2_000)
}

/// Request admission: at most `workers` requests run at once, and at
/// most `queue_cap` more wait for a slot, taking it in arrival order.
/// A request that finds every waiting place taken is shed.
struct Gate {
    workers: usize,
    queue_cap: usize,
    turns: Mutex<Turns>,
    /// Signalled whenever a slot frees or a waiter takes one.
    moved: Condvar,
}

#[derive(Default)]
struct Turns {
    /// Requests running now.
    running: usize,
    /// The ticket the next request that has to wait gets.
    next_ticket: u64,
    /// Tickets that have taken a slot; the rest are still waiting.
    admitted: u64,
}

impl Turns {
    fn waiting(&self) -> usize {
        (self.next_ticket - self.admitted) as usize
    }
}

/// A running request's slot in the [`Gate`], given back on drop.
struct Slot<'a>(&'a Gate);

impl Gate {
    fn new(cfg: &ServeConfig) -> Gate {
        // A zero would admit nothing; the CLI already clamps both to 1.
        Gate {
            workers: cfg.workers.max(1),
            queue_cap: cfg.queue_cap.max(1),
            turns: Mutex::default(),
            moved: Condvar::new(),
        }
    }

    fn turns(&self) -> MutexGuard<'_, Turns> {
        self.turns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a slot, waiting behind every earlier arrival: a newcomer
    /// runs at once only when a slot is free and nobody waits.
    ///
    /// # Errors
    ///
    /// The `retry_after_ms` hint, when the waiting places are full.
    fn enter(&self) -> Result<Slot<'_>, u64> {
        let mut turns = self.turns();
        if turns.waiting() == 0 && turns.running < self.workers {
            turns.running += 1;
            return Ok(Slot(self));
        }
        if turns.waiting() >= self.queue_cap {
            return Err(retry_hint_ms(turns.waiting(), self.workers));
        }
        let ticket = turns.next_ticket;
        turns.next_ticket += 1;
        let mut turns = self
            .moved
            .wait_while(turns, |t| t.admitted != ticket || t.running >= self.workers)
            .unwrap_or_else(PoisonError::into_inner);
        turns.admitted += 1;
        turns.running += 1;
        drop(turns);
        // The next ticket may fit a slot that freed at the same time.
        self.moved.notify_all();
        Ok(Slot(self))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.turns().running -= 1;
        self.0.moved.notify_all();
    }
}

/// What the accept loop shares with its connection threads.
struct Service {
    state: Arc<ServerState>,
    gate: Gate,
    /// A clone of each admitted connection's stream, by connection id,
    /// so the drain can shut down their read halves. Its length is the
    /// `conns_active` gauge.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Signalled when the last admitted connection ends.
    all_closed: Condvar,
    /// Where the `shutdown` wake-up connects: the listener's address.
    wake: SocketAddr,
}

impl Service {
    fn conns(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record the end of connection `id`, closing its last clone; the
    /// last connection wakes the drain.
    fn release(&self, id: u64) {
        let mut conns = self.conns();
        conns.remove(&id);
        self.state
            .service()
            .conns_active
            .store(conns.len() as u64, Ordering::Relaxed);
        if conns.is_empty() {
            self.all_closed.notify_all();
        }
    }
}

/// The address a wake-up connects to: `addr`, with an unspecified
/// (wildcard) IP replaced by loopback.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Wake the accept loop so it sees the shutdown flag: connect once to
/// the listener. The wake-up must not be lost, so a failed connect is
/// retried under [`accept_backoff`] until it succeeds or is refused; a
/// refusal means the listener has already closed.
fn wake_accept(addr: SocketAddr) {
    let mut failures = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(_) => return,
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => return,
            Err(_) => {
                failures = failures.saturating_add(1);
                std::thread::sleep(accept_backoff(failures));
            }
        }
    }
}

/// Serve requests on `listener` until a `shutdown` op arrives, then
/// drain and return. The execution model is described in the module
/// docs; all tuning comes from the state's [`ServeConfig`]. Blocks the
/// calling thread.
///
/// # Errors
///
/// Propagates the listener's `local_addr` error. Per-connection errors
/// never escape: they are counted in the service stats and end only
/// that connection.
pub fn serve(listener: TcpListener, state: Arc<ServerState>) -> std::io::Result<()> {
    let cfg = state.config().clone();
    let service = Arc::new(Service {
        gate: Gate::new(&cfg),
        conns: Mutex::default(),
        all_closed: Condvar::new(),
        wake: wake_addr(listener.local_addr()?),
        state,
    });
    let sv = service.state.service();
    let mut next_id = 0u64;
    let mut consecutive_errors = 0u32;
    loop {
        let accepted = listener.accept();
        // Checked before the connection cap, so the wake-up connection
        // that `shutdown` makes can never be shed.
        if service.state.shutting_down() {
            break;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                sv.accept_errors.fetch_add(1, Ordering::Relaxed);
                consecutive_errors = consecutive_errors.saturating_add(1);
                std::thread::sleep(accept_backoff(consecutive_errors));
                continue;
            }
        };
        consecutive_errors = 0;
        // One-line request/response traffic is latency-bound: without
        // this, Nagle + delayed ACK add ~40ms per turn.
        let _ = stream.set_nodelay(true);
        sv.conns_accepted.fetch_add(1, Ordering::Relaxed);
        if sv.conns_active.load(Ordering::Relaxed) >= cfg.max_conns as u64 {
            // Over the connection cap: shed in-protocol, close.
            sv.conns_shed.fetch_add(1, Ordering::Relaxed);
            let gate = &service.gate;
            let e = ServeError::overloaded(
                "connection shed: server at its connection cap",
                retry_hint_ms(gate.turns().waiting(), gate.workers),
            );
            let _ = write_line(&stream, &error_response(&e));
            continue;
        }
        let Ok(read_half) = stream.try_clone() else {
            sv.disc_io.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let id = next_id;
        next_id += 1;
        {
            let mut conns = service.conns();
            conns.insert(id, read_half);
            sv.conns_active.store(conns.len() as u64, Ordering::Relaxed);
        }
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            handle_connection(stream, &service);
            service.release(id);
        });
    }

    // Graceful drain: stop accepting (the listener drops here), wake
    // every reader blocked in `read`, and wait for the connections to
    // finish what they have already read. Past the deadline, anything
    // still running is abandoned rather than waited on.
    drop(listener);
    let conns = service.conns();
    for read_half in conns.values() {
        let _ = read_half.shutdown(Shutdown::Read);
    }
    let _ = service
        .all_closed
        .wait_timeout_while(conns, cfg.drain, |conns| !conns.is_empty());
    Ok(())
}

/// Run one admitted request under `catch_unwind`, and count its
/// outcome. A panic becomes a structured `internal` error response and a
/// counter bump — the connection and the daemon survive (crash-only
/// requests).
fn run_request(state: &ServerState, line: &str) -> (String, bool) {
    let run = || catch_unwind(AssertUnwindSafe(|| state.handle_line(line)));
    // Chaos harnesses inject panics on purpose; keep their reports off
    // stderr. Real deployments keep the default hook and log.
    let outcome = if state.config().chaos {
        quiet_panics(run)
    } else {
        run()
    };
    let sv = state.service();
    let (response, shutdown) = match outcome {
        Ok(reply) => reply,
        Err(payload) => {
            sv.panics.fetch_add(1, Ordering::Relaxed);
            let e = ServeError::Internal(format!(
                "request handler panicked: {}",
                panic_message(payload)
            ));
            (error_response(&e), false)
        }
    };
    // Every response is built by `ok_response`/`error_response`, so the
    // leading field is authoritative for the outcome counters.
    if response.starts_with("{\"ok\": false") {
        sv.failed.fetch_add(1, Ordering::Relaxed);
    } else {
        sv.completed.fetch_add(1, Ordering::Relaxed);
    }
    (response, shutdown)
}

/// What one attempt to read a frame produced.
enum Frame {
    /// A complete newline-terminated request line (lossy UTF-8: hostile
    /// bytes become replacement characters and fail JSON parsing
    /// in-protocol rather than killing the connection).
    Line(String),
    /// Clean EOF, or the drain shut the read half (any partial trailing
    /// frame is discarded).
    Eof,
    /// No complete frame within the idle timeout of the reader starting
    /// to wait for it.
    Timeout,
    /// The frame exceeded `max_line` before a newline arrived.
    Oversize,
    /// A transport error.
    Io,
    /// The server is draining; stop reading new requests.
    Shutdown,
}

/// An incremental line framer over a blocking socket. The buffer never
/// grows past `max_line` plus one read chunk: oversized frames are
/// rejected *while reading*, not after buffering.
struct FrameReader {
    pending: Vec<u8>,
    /// Bytes of `pending` already scanned for a newline.
    scanned: usize,
    max_line: usize,
    idle_timeout: Duration,
}

impl FrameReader {
    fn new(cfg: &ServeConfig) -> FrameReader {
        FrameReader {
            pending: Vec::new(),
            scanned: 0,
            max_line: cfg.max_line,
            idle_timeout: cfg.idle_timeout,
        }
    }

    /// The next frame from `stream`. It must be complete within
    /// `idle_timeout` of this call, however the client paces its bytes;
    /// each `read` waits only for what remains of that deadline.
    fn read_frame(&mut self, mut stream: &TcpStream, shutting_down: impl Fn() -> bool) -> Frame {
        let deadline = Instant::now() + self.idle_timeout;
        loop {
            if let Some(pos) = self.pending[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                let pos = self.scanned + pos;
                let rest = self.pending.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                self.scanned = 0;
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Frame::Line(String::from_utf8_lossy(&line).into_owned());
            }
            self.scanned = self.pending.len();
            if self.pending.len() > self.max_line {
                return Frame::Oversize;
            }
            // Already-buffered complete frames (pipelining) are served
            // above even while draining; only *new* reads stop.
            if shutting_down() {
                return Frame::Shutdown;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Frame::Timeout;
            }
            if stream.set_read_timeout(Some(left)).is_err() {
                return Frame::Io;
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Frame::Eof,
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) => match e.kind() {
                    // The deadline passed (the next turn reports it), or
                    // a signal interrupted the read.
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted => {}
                    _ => return Frame::Io,
                },
            }
        }
    }
}

fn write_line(mut writer: &TcpStream, line: &str) -> std::io::Result<()> {
    // One write per response: a trailing-newline write of its own can
    // stall behind Nagle until the previous segment is acknowledged.
    let mut framed = Vec::with_capacity(line.len() + 1);
    framed.extend_from_slice(line.as_bytes());
    framed.push(b'\n');
    writer.write_all(&framed)?;
    writer.flush()
}

/// Drive one admitted connection: frame requests defensively, pass each
/// through the gate (or shed it), run it here, write responses in order,
/// and record why the connection ended.
fn handle_connection(stream: TcpStream, service: &Service) {
    let state = &*service.state;
    let cfg = state.config();
    let sv = state.service();
    let mut framer = FrameReader::new(cfg);
    let reason = loop {
        match framer.read_frame(&stream, || state.shutting_down()) {
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                sv.received.fetch_add(1, Ordering::Relaxed);
                let (response, shutdown) = match service.gate.enter() {
                    Ok(slot) => {
                        let reply = run_request(state, &line);
                        // Give the slot back before writing, so a client
                        // that reads slowly holds none.
                        drop(slot);
                        reply
                    }
                    // Admission refused: shed this request, keep the
                    // connection — the client may back off and retry.
                    Err(hint) => {
                        sv.shed.fetch_add(1, Ordering::Relaxed);
                        let e = ServeError::overloaded(
                            "request shed: every slot is busy and every waiting place taken",
                            hint,
                        );
                        (error_response(&e), false)
                    }
                };
                let written = write_line(&stream, &response);
                if shutdown {
                    wake_accept(service.wake);
                }
                match written {
                    Err(_) => break Disconnect::Io,
                    Ok(()) if shutdown => break Disconnect::Clean,
                    Ok(()) => {}
                }
            }
            Frame::Eof | Frame::Shutdown => break Disconnect::Clean,
            Frame::Timeout => {
                let e = ServeError::Proto(format!(
                    "idle timeout: no complete request within {}ms",
                    cfg.idle_timeout.as_millis()
                ));
                let _ = write_line(&stream, &error_response(&e));
                break Disconnect::Timeout;
            }
            Frame::Oversize => {
                let e = ServeError::Proto(format!(
                    "request line exceeds the {}-byte frame limit",
                    cfg.max_line
                ));
                let _ = write_line(&stream, &error_response(&e));
                break Disconnect::Oversize;
            }
            Frame::Io => break Disconnect::Io,
        }
    };
    let counter = match reason {
        Disconnect::Clean => &sv.disc_clean,
        Disconnect::Io => &sv.disc_io,
        Disconnect::Timeout => &sv.disc_timeout,
        Disconnect::Oversize => &sv.disc_oversize,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_grows_exponentially_and_caps() {
        assert_eq!(accept_backoff(1), Duration::from_millis(1));
        assert_eq!(accept_backoff(2), Duration::from_millis(2));
        assert_eq!(accept_backoff(3), Duration::from_millis(4));
        assert_eq!(accept_backoff(6), Duration::from_millis(32));
        // Capped: a long error streak never sleeps unboundedly...
        assert_eq!(accept_backoff(11), ACCEPT_BACKOFF_CAP);
        // ...and huge streak counters don't overflow the shift.
        assert_eq!(accept_backoff(u32::MAX), ACCEPT_BACKOFF_CAP);
    }

    #[test]
    fn retry_hint_tracks_queue_depth() {
        assert_eq!(retry_hint_ms(0, 4), 10);
        assert!(retry_hint_ms(64, 4) > retry_hint_ms(8, 4));
        assert_eq!(retry_hint_ms(usize::MAX, 1), 2_000, "hint is clamped");
    }

    #[test]
    fn gate_admits_waiters_in_arrival_order_and_sheds_past_queue_cap() {
        let gate = Gate::new(&ServeConfig {
            workers: 1,
            queue_cap: 2,
            ..ServeConfig::default()
        });
        let running = gate.enter().expect("a free slot");
        let order = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for i in 0..2 {
                let (gate, order) = (&gate, &order);
                s.spawn(move || {
                    let _slot = gate.enter().expect("a waiting place");
                    order.lock().expect("no panic holds it").push(i);
                });
                // Waiter `i` holds its ticket before the next one arrives.
                while gate.turns().waiting() != i + 1 {
                    std::thread::yield_now();
                }
            }
            assert!(gate.enter().is_err(), "a third waiter must be shed");
            drop(running);
        });
        assert_eq!(*order.lock().expect("no panic holds it"), [0, 1]);
    }

    #[test]
    fn wake_up_reaches_a_wildcard_listener_on_loopback() {
        let at = |s: &str| s.parse::<SocketAddr>().unwrap();
        assert_eq!(wake_addr(at("0.0.0.0:7117")), at("127.0.0.1:7117"));
        assert_eq!(wake_addr(at("[::]:7117")), at("[::1]:7117"));
        assert_eq!(wake_addr(at("10.1.2.3:80")), at("10.1.2.3:80"));
    }
}
