//! Protocol-edge tests for the hostile-input surface: every malformed,
//! oversized, torn, or mistimed frame must map to the documented tag and
//! exit code — and the server must stay healthy afterwards.

mod common;

use common::{assert_error, assert_healthy, eventually, Client, Server, PROBE};
use fj_server::ServeConfig;
use std::io::ErrorKind;
use std::time::{Duration, Instant};

fn quick_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_cap: 8,
        drain: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

#[test]
fn malformed_json_is_a_proto_error_and_server_survives() {
    let server = Server::spawn(quick_cfg());
    let mut c = Client::connect(server.addr).unwrap();
    for bad in [
        "{not json",
        "]][[",
        "{\"op\": \"compile\", \"program\": }",
        "\u{fffd}\u{fffd}garbage",
    ] {
        let resp = c.roundtrip(bad).unwrap();
        assert_error(&resp, "proto", 2);
    }
    // Same connection still serves real work after the barrage.
    let resp = c.roundtrip(PROBE).unwrap();
    assert!(resp.starts_with("{\"ok\": true"), "got: {resp}");
    assert_healthy(server.addr);
    assert!(server.shutdown());
}

#[test]
fn empty_lines_are_skipped_not_answered() {
    let server = Server::spawn(quick_cfg());
    let mut c = Client::connect(server.addr).unwrap();
    // Blank and whitespace-only frames produce no response at all; the
    // next real request gets the next response line.
    c.send_raw(b"\n\r\n   \n").unwrap();
    let resp = c.roundtrip(PROBE).unwrap();
    assert!(resp.starts_with("{\"ok\": true"), "got: {resp}");
    let snap = server.state.service_snapshot();
    assert_eq!(snap.received, 1, "blank frames must not count as requests");
    assert!(server.shutdown());
}

#[test]
fn oversized_frame_is_rejected_while_reading_and_connection_closes() {
    let server = Server::spawn(ServeConfig {
        max_line: 1024,
        ..quick_cfg()
    });
    let mut c = Client::connect(server.addr).unwrap();
    // Twice the limit, no newline anywhere: the limit must trip *during*
    // the read — no terminator ever arrives, so waiting for one before
    // checking would hang forever.
    c.send_raw(&vec![b'x'; 2 * 1024]).unwrap();
    let resp = c.recv().unwrap().expect("an in-protocol rejection line");
    assert_error(&resp, "proto", 2);
    assert!(resp.contains("frame limit"), "got: {resp}");
    assert_eq!(c.recv().unwrap(), None, "connection must close after");
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().disc_oversize == 1
        }),
        "oversize disconnect must be counted"
    );
    assert_healthy(server.addr);
    assert!(server.shutdown());
}

#[test]
fn partial_frame_then_disconnect_leaves_server_healthy() {
    let server = Server::spawn(quick_cfg());
    {
        let mut c = Client::connect(server.addr).unwrap();
        c.send_raw(b"{\"op\": \"compile\", \"prog").unwrap();
        // Drop the connection with the frame torn.
    }
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().disc_clean >= 1
        }),
        "a torn-frame EOF is a clean disconnect"
    );
    let snap = server.state.service_snapshot();
    assert_eq!(snap.received, 0, "a torn frame is not a request");
    assert_healthy(server.addr);
    assert!(server.shutdown());
}

#[test]
fn pipelined_batch_after_error_gets_every_response_in_order() {
    let server = Server::spawn(quick_cfg());
    let mut c = Client::connect(server.addr).unwrap();
    // One write, three frames: bad JSON, then two real compiles. The
    // error must not desynchronize the stream — three responses, in
    // request order.
    let mut batch = Vec::new();
    batch.extend_from_slice(b"{broken\n");
    batch.extend_from_slice(PROBE.as_bytes());
    batch.push(b'\n');
    batch.extend_from_slice(b"{\"op\": \"compile\", \"program\": \"def main : Int = 2 * 3;\"}\n");
    c.send_raw(&batch).unwrap();

    let first = c.recv().unwrap().expect("response 1");
    assert_error(&first, "proto", 2);
    let second = c.recv().unwrap().expect("response 2");
    assert!(second.starts_with("{\"ok\": true"), "got: {second}");
    let third = c.recv().unwrap().expect("response 3");
    assert!(third.starts_with("{\"ok\": true"), "got: {third}");
    assert!(server.shutdown());
}

#[test]
fn idle_connection_is_cut_off_with_a_proto_error() {
    let server = Server::spawn(ServeConfig {
        idle_timeout: Duration::from_millis(150),
        ..quick_cfg()
    });
    let mut c = Client::connect(server.addr).unwrap();
    // Send nothing. The slow-loris defense must reap the connection with
    // an explanatory line, not hold a reader thread forever.
    let resp = c.recv().unwrap().expect("an idle-timeout line");
    assert_error(&resp, "proto", 2);
    assert!(resp.contains("idle timeout"), "got: {resp}");
    assert_eq!(c.recv().unwrap(), None, "connection must close after");
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().disc_timeout == 1
        }),
        "timeout disconnect must be counted"
    );
    assert_healthy(server.addr);
    assert!(server.shutdown());
}

/// The idle timeout bounds the whole frame, not the silence between
/// bytes: a client that sends a byte every 40 ms and never a newline
/// must still be cut off after 150 ms.
#[test]
fn trickling_client_is_cut_off_by_the_idle_timeout() {
    let server = Server::spawn(ServeConfig {
        idle_timeout: Duration::from_millis(150),
        ..quick_cfg()
    });
    let mut c = Client::connect(server.addr).unwrap();
    c.writer
        .set_read_timeout(Some(Duration::from_millis(40)))
        .unwrap();
    let started = Instant::now();
    let resp = loop {
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "a client trickling bytes was never cut off"
        );
        c.send_raw(b"x").unwrap();
        match c.recv() {
            Ok(Some(line)) => break line,
            Ok(None) => panic!("closed without an idle-timeout line"),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("read failed before the idle-timeout line: {e}"),
        }
    };
    assert_error(&resp, "proto", 2);
    assert!(resp.contains("idle timeout"), "got: {resp}");
    c.writer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A byte that lands just as the server gives up turns its close
    // into a reset; either way the connection is gone.
    match c.recv() {
        Ok(None) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("connection must close after, got {other:?}"),
    }
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().disc_timeout == 1
        }),
        "timeout disconnect must be counted"
    );
    assert_healthy(server.addr);
    assert!(server.shutdown());
}

#[test]
fn connection_cap_sheds_in_protocol_with_retry_hint() {
    let server = Server::spawn(ServeConfig {
        max_conns: 1,
        ..quick_cfg()
    });
    // First connection occupies the only slot.
    let mut held = Client::connect(server.addr).unwrap();
    let resp = held.roundtrip(PROBE).unwrap();
    assert!(resp.starts_with("{\"ok\": true"), "got: {resp}");

    // Second connection must be shed with `overloaded`, not ignored.
    let mut shed = Client::connect(server.addr).unwrap();
    let resp = shed.recv().unwrap().expect("an overloaded line");
    assert_error(&resp, "overloaded", 6);
    assert!(resp.contains("retry_after_ms"), "got: {resp}");
    assert_eq!(shed.recv().unwrap(), None, "shed connection closes");

    let snap = server.state.service_snapshot();
    assert_eq!(snap.conns_shed, 1);
    // The held connection is unaffected by its neighbor being shed.
    let resp = held.roundtrip(PROBE).unwrap();
    assert!(resp.starts_with("{\"ok\": true"), "got: {resp}");
    drop(held);
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().conns_active == 0
        }),
        "slot must free after the held connection closes"
    );
    assert_healthy(server.addr);
    assert!(server.shutdown());
}

#[test]
fn request_panic_is_an_internal_error_and_connection_survives() {
    let server = Server::spawn(ServeConfig {
        chaos: true,
        ..quick_cfg()
    });
    let mut c = Client::connect(server.addr).unwrap();
    let resp = c.roundtrip("{\"op\": \"__chaos_panic\"}").unwrap();
    assert_error(&resp, "internal", 7);
    assert!(resp.contains("panicked"), "got: {resp}");
    // Crash-only isolation: the same connection keeps working, and the
    // panic is visible in the counters.
    let resp = c.roundtrip(PROBE).unwrap();
    assert!(resp.starts_with("{\"ok\": true"), "got: {resp}");
    let snap = server.state.service_snapshot();
    assert_eq!(snap.panics, 1);
    assert!(snap.failed >= 1, "the panic response counts as failed");
    assert_healthy(server.addr);
    assert!(server.shutdown());
}

#[test]
fn chaos_ops_are_dead_without_the_chaos_flag() {
    let server = Server::spawn(quick_cfg());
    let mut c = Client::connect(server.addr).unwrap();
    // Without `chaos: true` the fault-injection ops are unknown ops — a
    // production server cannot be panicked from the wire.
    let resp = c.roundtrip("{\"op\": \"__chaos_panic\"}").unwrap();
    assert_error(&resp, "proto", 2);
    assert_eq!(server.state.service_snapshot().panics, 0);
    assert!(server.shutdown());
}

#[test]
fn stats_reports_the_service_geometry_and_counters() {
    let server = Server::spawn(ServeConfig {
        workers: 3,
        queue_cap: 5,
        max_conns: 7,
        ..quick_cfg()
    });
    let mut c = Client::connect(server.addr).unwrap();
    let _ = c.roundtrip(PROBE).unwrap();
    let resp = c.roundtrip("{\"op\": \"stats\"}").unwrap();
    for needle in [
        "\"service\"",
        "\"workers\": 3",
        "\"queue_cap\": 5",
        "\"max_conns\": 7",
        "\"received\"",
        "\"completed\"",
        "\"shed\"",
        "\"disconnects\"",
    ] {
        assert!(resp.contains(needle), "missing {needle} in: {resp}");
    }
    assert!(server.shutdown());
}
