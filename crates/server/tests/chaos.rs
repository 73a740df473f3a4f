//! The chaos soak: honest clients and a seeded client saboteur share one
//! server. The honest clients must get correct answers (or explicit
//! `overloaded` sheds), the saboteur must never wedge or kill the
//! daemon, and the service counters must reconcile exactly:
//! `received == completed + failed + shed` once the server is idle.

mod common;

use common::{assert_error, assert_healthy, eventually, Client, Server, PROBE};
use fj_server::ServeConfig;
use fj_testkit::chaos::{honest_client, run_episode, ChaosConfig, Episode};
use fj_testkit::SplitMix64;
use std::time::{Duration, Instant};

/// Fixed soak seed: failures replay exactly. Change it only on purpose.
const SOAK_SEED: u64 = 0xF1_5E57;

#[test]
fn chaos_soak_counters_reconcile_and_honest_clients_win() {
    let cfg = ServeConfig {
        workers: 2,
        queue_cap: 4,
        max_conns: 64,
        max_line: 4096,
        idle_timeout: Duration::from_millis(400),
        drain: Duration::from_millis(800),
        chaos: true,
    };
    let server = Server::spawn(cfg);
    let chaos_cfg = ChaosConfig {
        oversize_len: 8192, // > max_line: every Oversize episode trips the cap
        ..ChaosConfig::default()
    };

    // Two honest clients compile steadily while the saboteur rages.
    let honest: Vec<_> = (0..2)
        .map(|i| {
            let addr = server.addr;
            std::thread::spawn(move || {
                let source = format!("def main : Int = {i} + 1;");
                honest_client(addr, &source, 40, &chaos_cfg)
            })
        })
        .collect();

    // The saboteur: three threads, each running a deterministic stream
    // of hostile episodes derived from the soak seed.
    let saboteurs: Vec<_> = (0..3)
        .map(|t| {
            let addr = server.addr;
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(SOAK_SEED.wrapping_add(t));
                let mut opened = 0u64;
                for _ in 0..12 {
                    let episode = Episode::pick(&mut rng);
                    let report = run_episode(episode, addr, &mut rng, &chaos_cfg);
                    opened += report.conns_opened;
                }
                opened
            })
        })
        .collect();

    let mut sab_conns = 0u64;
    for s in saboteurs {
        sab_conns += s.join().expect("saboteur thread panicked");
    }
    let (mut ok, mut overloaded, mut other) = (0u64, 0u64, 0u64);
    for h in honest {
        let (o, ov, ot) = h
            .join()
            .expect("honest thread panicked")
            .expect("the server broke an honest connection");
        ok += o;
        overloaded += ov;
        other += ot;
    }

    // Honest clients: every request answered, correctly or with an
    // explicit shed — never a silent drop or a wrong-tag error.
    assert_eq!(ok + overloaded + other, 80, "every honest request answered");
    assert_eq!(other, 0, "honest compiles only succeed or shed");
    assert!(ok > 0, "some honest requests must get through");
    assert!(sab_conns > 0, "the saboteur must actually connect");

    // Let in-flight hostile stragglers finish, then audit the books.
    let state = std::sync::Arc::clone(&server.state);
    assert!(
        eventually(Duration::from_secs(5), || {
            let s = state.service_snapshot();
            s.conns_active == 0 && s.received == s.completed + s.failed + s.shed
        }),
        "counters must reconcile once idle: {:?}",
        state.service_snapshot()
    );
    let snap = state.service_snapshot();
    assert!(
        snap.received >= 80,
        "at least the honest load was received: {snap:?}"
    );
    // Bounds held: nothing exceeded the configured admission caps.
    assert!(snap.conns_active <= 64);
    // The saboteur's oversize and slow-loris work shows up as counted
    // disconnects, not silent thread deaths.
    assert!(
        snap.disc_clean + snap.disc_io + snap.disc_timeout + snap.disc_oversize > 0,
        "disconnect reasons must be recorded: {snap:?}"
    );
    assert_healthy(server.addr);
    assert!(server.shutdown(), "serve must exit cleanly after the soak");
}

#[test]
fn full_queue_sheds_requests_with_retry_hint_deterministically() {
    // One worker, one queue slot: with the worker parked on a chaos
    // sleep and the slot taken, every further request must shed.
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_cap: 1,
        idle_timeout: Duration::from_secs(5),
        drain: Duration::from_secs(2),
        chaos: true,
        ..ServeConfig::default()
    });

    // Park the only worker.
    let mut sleeper = Client::connect(server.addr).unwrap();
    sleeper
        .send("{\"op\": \"__chaos_sleep\", \"ms\": 600}")
        .unwrap();
    // Wait until the worker has actually dequeued the sleep, so the
    // queue slot is free for the blocker below (no race on try_push).
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().received >= 1
        }),
        "sleeper request must be received"
    );
    std::thread::sleep(Duration::from_millis(100));

    // Fill the single queue slot.
    let mut blocker = Client::connect(server.addr).unwrap();
    blocker
        .send("{\"op\": \"__chaos_sleep\", \"ms\": 10}")
        .unwrap();
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().received >= 2
        }),
        "blocker request must be received"
    );
    std::thread::sleep(Duration::from_millis(50));

    // Now the pool is saturated: this request must shed, in-protocol,
    // with a retry hint — and the connection must stay open.
    let mut shed = Client::connect(server.addr).unwrap();
    let resp = shed.roundtrip(PROBE).unwrap();
    assert_error(&resp, "overloaded", 6);
    assert!(resp.contains("\"retry_after_ms\": "), "got: {resp}");
    assert_eq!(server.state.service_snapshot().shed, 1);

    // Back off and retry on the same connection: once the sleeper wakes,
    // the retried request succeeds — shedding is per-request.
    assert!(
        eventually(Duration::from_secs(3), || {
            server.state.service_snapshot().completed >= 2
        }),
        "parked work must eventually finish"
    );
    let resp = shed.roundtrip(PROBE).unwrap();
    assert!(resp.starts_with("{\"ok\": true"), "got: {resp}");

    // The parked clients got their answers too.
    assert_eq!(
        sleeper.recv().unwrap().as_deref(),
        Some("{\"ok\": true, \"slept_ms\": 600}")
    );
    assert_eq!(
        blocker.recv().unwrap().as_deref(),
        Some("{\"ok\": true, \"slept_ms\": 10}")
    );
    assert!(server.shutdown());
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let server = Server::spawn(ServeConfig {
        workers: 2,
        queue_cap: 4,
        drain: Duration::from_secs(2),
        chaos: true,
        ..ServeConfig::default()
    });

    // A slow request is mid-flight when shutdown arrives.
    let mut slow = Client::connect(server.addr).unwrap();
    slow.send("{\"op\": \"__chaos_sleep\", \"ms\": 300}")
        .unwrap();
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().received >= 1
        }),
        "slow request must be in flight first"
    );

    let state = std::sync::Arc::clone(&server.state);
    let clean = server.shutdown();
    assert!(clean, "serve must exit cleanly");
    // Drain semantics: the in-flight request completed — it was not
    // abandoned mid-compile.
    assert_eq!(
        slow.recv().unwrap().as_deref(),
        Some("{\"ok\": true, \"slept_ms\": 300}"),
        "in-flight work must finish inside the drain window"
    );
    let snap = state.service_snapshot();
    assert_eq!(snap.received, snap.completed + snap.failed + snap.shed);
}

/// The drain wakes a reader blocked in `read` instead of waiting out
/// its deadline: with an idle kept-alive connection open, `shutdown` on
/// another connection makes `serve` return well inside `drain`, and the
/// idle client reads EOF.
#[test]
fn shutdown_wakes_an_idle_kept_alive_connection() {
    let drain = Duration::from_secs(10);
    let server = Server::spawn(ServeConfig {
        idle_timeout: Duration::from_secs(30),
        drain,
        ..ServeConfig::default()
    });
    let mut idle = Client::connect(server.addr).unwrap();
    let resp = idle.roundtrip(PROBE).unwrap();
    assert!(resp.starts_with("{\"ok\": true"), "got: {resp}");

    let started = Instant::now();
    assert!(server.shutdown(), "serve must exit cleanly");
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown took {took:?} with an idle connection open (drain {drain:?})"
    );
    assert_eq!(
        idle.recv().unwrap(),
        None,
        "the idle connection must be closed by the drain"
    );
}

/// The wake-up connection that `shutdown` makes is checked before the
/// connection cap: with the only slot held by the connection that sent
/// `shutdown`, it must still stop `serve` rather than be shed.
#[test]
fn shutdown_at_the_connection_cap_still_stops_serve() {
    let server = Server::spawn(ServeConfig {
        max_conns: 1,
        ..ServeConfig::default()
    });
    let mut only = Client::connect(server.addr).unwrap();
    let resp = only.roundtrip("{\"op\": \"shutdown\"}").unwrap();
    assert!(resp.contains("\"shutting_down\": true"), "got: {resp}");
    let state = std::sync::Arc::clone(&server.state);
    assert!(server.join(), "serve must exit cleanly");
    assert_eq!(
        state.service_snapshot().conns_shed,
        0,
        "the wake-up connection must not be shed"
    );
}

#[test]
fn new_connections_refused_while_draining() {
    let server = Server::spawn(ServeConfig {
        workers: 1,
        queue_cap: 2,
        drain: Duration::from_secs(2),
        chaos: true,
        ..ServeConfig::default()
    });
    // Park the worker so the drain window stays open after shutdown.
    let mut sleeper = Client::connect(server.addr).unwrap();
    sleeper
        .send("{\"op\": \"__chaos_sleep\", \"ms\": 500}")
        .unwrap();
    assert!(
        eventually(Duration::from_secs(2), || {
            server.state.service_snapshot().received >= 1
        }),
        "sleeper must be in flight"
    );

    // Shutdown on a second connection (queued behind the sleeper).
    let mut ctl = Client::connect(server.addr).unwrap();
    ctl.send("{\"op\": \"shutdown\"}").unwrap();

    // While draining, the listener is gone: new connections fail fast
    // (refused) instead of being accepted and silently dropped.
    assert!(
        eventually(Duration::from_secs(2), || {
            Client::connect(server.addr).is_err()
        }),
        "the listener must stop accepting during drain"
    );
    assert_eq!(
        sleeper.recv().unwrap().as_deref(),
        Some("{\"ok\": true, \"slept_ms\": 500}"),
        "drain still finishes the in-flight request"
    );
}
