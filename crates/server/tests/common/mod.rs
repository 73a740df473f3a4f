//! Shared harness for the service-layer integration tests: spawn a real
//! TCP server on an ephemeral port, talk to it over sockets.

// Each test binary uses a different subset of the harness.
#![allow(dead_code)]

use fj_server::{serve, ServeConfig, ServerState};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the serve thread may take to return after `shutdown`. A
/// serve loop that never wakes fails the test instead of hanging it.
const JOIN_DEADLINE: Duration = Duration::from_secs(10);

/// A running server and the handle to join it after `shutdown`.
pub struct Server {
    pub addr: SocketAddr,
    pub state: Arc<ServerState>,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    /// Bind an ephemeral port and serve `state` on a background thread.
    pub fn spawn(cfg: ServeConfig) -> Server {
        let state = Arc::new(ServerState::with_config(4, 16 << 20, cfg));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let handle = std::thread::spawn({
            let state = Arc::clone(&state);
            move || serve(listener, state)
        });
        Server {
            addr,
            state,
            handle: Some(handle),
        }
    }

    /// Send `shutdown` on a fresh connection and join the serve thread.
    /// Returns whether the serve loop exited cleanly.
    pub fn shutdown(self) -> bool {
        self.send_shutdown();
        self.join()
    }

    /// Join the serve thread, which something else told to shut down.
    /// Returns whether the serve loop exited cleanly; panics if it has
    /// not returned within [`JOIN_DEADLINE`].
    pub fn join(mut self) -> bool {
        let handle = self.handle.take().expect("serve thread not joined yet");
        assert!(
            finishes_within(&handle, JOIN_DEADLINE),
            "serve did not return within {JOIN_DEADLINE:?} of shutdown"
        );
        handle.join().map(|r| r.is_ok()).unwrap_or(false)
    }

    /// Send `shutdown` on a fresh connection, backing off and retrying
    /// while the server sheds it at its connection cap: a connection the
    /// test just closed may hold its slot until its thread reads the EOF.
    fn send_shutdown(&self) {
        let deadline = Instant::now() + JOIN_DEADLINE;
        while Instant::now() < deadline {
            let Ok(mut c) = Client::connect(self.addr) else {
                return;
            };
            match c.roundtrip("{\"op\": \"shutdown\"}") {
                Ok(resp) if resp.contains("\"tag\": \"overloaded\"") => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => return,
            }
        }
    }
}

/// Wait for `handle`'s thread to finish, for at most `budget`.
fn finishes_within<T>(handle: &JoinHandle<T>, budget: Duration) -> bool {
    let deadline = Instant::now() + budget;
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

impl Drop for Server {
    fn drop(&mut self) {
        // Belt-and-braces: a panicking test should still stop the serve
        // thread so `cargo test` does not leak listeners.
        if let Some(handle) = self.handle.take() {
            self.send_shutdown();
            let finished = finishes_within(&handle, JOIN_DEADLINE);
            // A second panic while unwinding would abort the whole test
            // binary; the first failure is the one to report.
            if !finished && !std::thread::panicking() {
                panic!("serve did not return within {JOIN_DEADLINE:?} of shutdown");
            }
        }
    }
}

/// A line-oriented test client with a read timeout so a server bug can
/// never hang the suite.
pub struct Client {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one line (newline appended).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        self.writer.flush()
    }

    /// Send raw bytes exactly as given.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Read one response line (trailing newline stripped). `Ok(None)`
    /// means the server closed the connection.
    pub fn recv(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Ok(None);
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    /// Send a request, expect exactly one response line back.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        match self.recv()? {
            Some(resp) => Ok(resp),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection instead of answering",
            )),
        }
    }
}

/// Poll `cond` until it holds or `budget` expires; returns whether it
/// ever held. Counter-based assertions use this instead of sleeps.
pub fn eventually(budget: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + budget;
    loop {
        if cond() {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Assert a response is the error envelope with the given tag and code.
pub fn assert_error(resp: &str, tag: &str, code: u8) {
    assert!(
        resp.starts_with("{\"ok\": false"),
        "expected an error envelope, got: {resp}"
    );
    assert!(
        resp.contains(&format!("\"tag\": \"{tag}\"")),
        "expected tag {tag} in: {resp}"
    );
    assert!(
        resp.contains(&format!("\"code\": {code}")),
        "expected code {code} in: {resp}"
    );
}

/// A tiny always-compiles program for liveness probes.
pub const PROBE: &str = "{\"op\": \"compile\", \"program\": \"def main : Int = 1 + 2;\"}";

/// Assert the server still answers a well-formed compile on a fresh
/// connection — the "still healthy" check after every hostile input.
pub fn assert_healthy(addr: SocketAddr) {
    let mut c = Client::connect(addr).expect("healthy connect");
    let resp = c.roundtrip(PROBE).expect("healthy roundtrip");
    assert!(
        resp.starts_with("{\"ok\": true"),
        "server unhealthy after hostile input: {resp}"
    );
}
