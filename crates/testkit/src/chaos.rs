//! A seeded **client saboteur** for the compile service.
//!
//! The fuzz farm's [`saboteur`](crate::saboteur) attacks the optimizer
//! from *inside* the process; this module attacks `fj serve` from the
//! *wire*. Each [`Episode`] is one hostile client behaviour — a slow
//! writer dribbling bytes across frame boundaries, a torn frame cut off
//! mid-JSON, raw garbage, an oversized line, a mid-request disconnect,
//! or a connection flood — chosen deterministically from a
//! [`SplitMix64`] stream so every chaos-soak failure replays from its
//! seed alone.
//!
//! The module is std-only (TCP + threads); it has no dependency on the
//! server crate, so `fj-server` can use it as a dev-dependency without
//! a cycle. An episode never asserts anything about the server beyond
//! "my socket did not hang": correctness assertions live in the soak
//! test, which runs honest clients alongside the saboteur and audits
//! the server's counters afterwards.

use crate::rng::SplitMix64;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One hostile client behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Episode {
    /// Connect, then dribble a valid request one byte at a time with
    /// pauses — a slow-loris probe of the idle/read timeout.
    SlowLoris,
    /// Send the first half of a valid frame, then disconnect.
    TornFrame,
    /// Send random non-UTF-8 garbage followed by a newline.
    Garbage,
    /// Send a single line larger than any sane frame cap.
    Oversize,
    /// Send a complete valid request, then disconnect without reading
    /// the response.
    MidRequestDisconnect,
    /// Open many connections at once and hold them idle briefly.
    Flood,
    /// Send a chaos panic op (only honoured by servers built with
    /// `chaos: true`; otherwise an unknown-op error, equally fine).
    PanicOp,
}

const EPISODES: [Episode; 7] = [
    Episode::SlowLoris,
    Episode::TornFrame,
    Episode::Garbage,
    Episode::Oversize,
    Episode::MidRequestDisconnect,
    Episode::Flood,
    Episode::PanicOp,
];

impl Episode {
    /// Pick an episode from the RNG stream.
    pub fn pick(rng: &mut SplitMix64) -> Episode {
        EPISODES[rng.below(EPISODES.len() as u64) as usize]
    }

    /// Short stable name, for logs and failure messages.
    pub fn name(self) -> &'static str {
        match self {
            Episode::SlowLoris => "slow-loris",
            Episode::TornFrame => "torn-frame",
            Episode::Garbage => "garbage",
            Episode::Oversize => "oversize",
            Episode::MidRequestDisconnect => "mid-request-disconnect",
            Episode::Flood => "flood",
            Episode::PanicOp => "panic-op",
        }
    }
}

/// What one episode did, for the soak test's bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct EpisodeReport {
    /// Episode kind that ran.
    pub name: &'static str,
    /// Complete request lines the episode sent (frames the server should
    /// count as `received`).
    pub requests_sent: u64,
    /// Connections the episode opened (even if refused/shed).
    pub conns_opened: u64,
}

/// Tuning for a chaos episode run; everything is bounded so a soak test
/// finishes in seconds.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Bytes of a slow-loris dribble (also its pause count).
    pub loris_bytes: usize,
    /// Pause between dribbled bytes.
    pub loris_pause: Duration,
    /// Size of an oversized line, bytes (pick > the server's max-line).
    pub oversize_len: usize,
    /// Connections a flood opens.
    pub flood_conns: usize,
    /// How long flood connections are held open.
    pub flood_hold: Duration,
    /// Socket read timeout guarding every episode against hangs.
    pub socket_timeout: Duration,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            loris_bytes: 24,
            loris_pause: Duration::from_millis(2),
            oversize_len: 1 << 13,
            flood_conns: 12,
            flood_hold: Duration::from_millis(20),
            socket_timeout: Duration::from_secs(5),
        }
    }
}

fn connect(addr: SocketAddr, cfg: &ChaosConfig) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(cfg.socket_timeout))?;
    stream.set_write_timeout(Some(cfg.socket_timeout))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Run one episode against the server at `addr`. All socket errors are
/// swallowed: the server shedding, timing out, or slamming the door on
/// a hostile client is *desired* behaviour, not a test failure. The
/// report says how much well-formed load the episode contributed.
pub fn run_episode(
    episode: Episode,
    addr: SocketAddr,
    rng: &mut SplitMix64,
    cfg: &ChaosConfig,
) -> EpisodeReport {
    let mut report = EpisodeReport {
        name: episode.name(),
        ..EpisodeReport::default()
    };
    match episode {
        Episode::SlowLoris => {
            let Ok(mut stream) = connect(addr, cfg) else {
                return report;
            };
            report.conns_opened = 1;
            // Dribble a prefix of a valid request; never finish the line,
            // so the idle timeout (not the parser) must reap us.
            let req = br#"{"op": "compile", "program": "def main : Int = 1;"}"#;
            for &b in req.iter().take(cfg.loris_bytes) {
                if stream.write_all(&[b]).is_err() {
                    break;
                }
                std::thread::sleep(cfg.loris_pause);
            }
        }
        Episode::TornFrame => {
            let Ok(mut stream) = connect(addr, cfg) else {
                return report;
            };
            report.conns_opened = 1;
            let req = br#"{"op": "compile", "program": "def main ="#;
            let cut = 1 + rng.below(req.len() as u64 - 1) as usize;
            let _ = stream.write_all(&req[..cut]);
            // Drop the connection with the frame incomplete.
        }
        Episode::Garbage => {
            let Ok(mut stream) = connect(addr, cfg) else {
                return report;
            };
            report.conns_opened = 1;
            let len = 1 + rng.below(256) as usize;
            let mut junk: Vec<u8> = (0..len).map(|_| rng.u8()).collect();
            // Keep the frame a single line so it parses as one request.
            for b in &mut junk {
                if *b == b'\n' {
                    *b = 0xFF;
                }
            }
            junk.push(b'\n');
            if stream.write_all(&junk).is_ok() {
                report.requests_sent = 1;
                let mut resp = String::new();
                let _ = BufReader::new(&stream).read_line(&mut resp);
            }
        }
        Episode::Oversize => {
            let Ok(mut stream) = connect(addr, cfg) else {
                return report;
            };
            report.conns_opened = 1;
            // The server must reject this *while reading*, without
            // buffering the whole line; it never reaches the parser, so
            // it does not count as a received request.
            let line = vec![b'x'; cfg.oversize_len];
            if stream.write_all(&line).is_ok() {
                let _ = stream.write_all(b"\n");
                let mut resp = String::new();
                let _ = BufReader::new(&stream).read_line(&mut resp);
            }
        }
        Episode::MidRequestDisconnect => {
            let Ok(mut stream) = connect(addr, cfg) else {
                return report;
            };
            report.conns_opened = 1;
            let req = br#"{"op": "compile", "program": "def main : Int = 1;"}"#;
            if stream.write_all(req).is_ok() && stream.write_all(b"\n").is_ok() {
                report.requests_sent = 1;
            }
            drop(stream); // Walk away before the answer arrives.
        }
        Episode::Flood => {
            let mut held = Vec::with_capacity(cfg.flood_conns);
            for _ in 0..cfg.flood_conns {
                if let Ok(stream) = connect(addr, cfg) {
                    report.conns_opened += 1;
                    held.push(stream);
                }
            }
            std::thread::sleep(cfg.flood_hold);
            // Connections close when `held` drops.
        }
        Episode::PanicOp => {
            let Ok(mut stream) = connect(addr, cfg) else {
                return report;
            };
            report.conns_opened = 1;
            if stream.write_all(b"{\"op\": \"__chaos_panic\"}\n").is_ok() {
                report.requests_sent = 1;
                let mut resp = String::new();
                let _ = BufReader::new(&stream).read_line(&mut resp);
            }
        }
    }
    report
}

/// An honest client for the soak test: sends `count` compile requests
/// for `source` on one connection, reading each response, and returns
/// `(ok, overloaded, other)` tallies. Returns an error only if the
/// *socket* fails — protocol-level errors are tallied, not raised.
///
/// # Errors
///
/// Connection setup or I/O failure on the honest connection. The soak
/// test treats that as a real failure: the server must never break an
/// honest client, no matter what the saboteur is doing.
pub fn honest_client(
    addr: SocketAddr,
    source: &str,
    count: usize,
    cfg: &ChaosConfig,
) -> std::io::Result<(u64, u64, u64)> {
    let stream = connect(addr, cfg)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let escaped: String = source
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect();
    let req = format!("{{\"op\": \"compile\", \"program\": \"{escaped}\"}}\n");
    let (mut ok, mut overloaded, mut other) = (0u64, 0u64, 0u64);
    for _ in 0..count {
        writer.write_all(req.as_bytes())?;
        writer.flush()?;
        let mut resp = String::new();
        let n = reader.read_line(&mut resp)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed an honest connection mid-conversation",
            ));
        }
        if resp.starts_with("{\"ok\": true") {
            ok += 1;
        } else if resp.contains("\"tag\": \"overloaded\"") {
            overloaded += 1;
        } else {
            other += 1;
        }
    }
    Ok((ok, overloaded, other))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_pick_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..32 {
            assert_eq!(Episode::pick(&mut a), Episode::pick(&mut b));
        }
    }

    #[test]
    fn episode_pick_covers_all_kinds() {
        let mut rng = SplitMix64::new(7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..256 {
            seen.insert(Episode::pick(&mut rng).name());
        }
        assert_eq!(seen.len(), EPISODES.len(), "all episodes reachable");
    }
}
