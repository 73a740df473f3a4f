//! `restart-warm`: the read side of the persistent cache tier.
//!
//! Closed loop, one thread. Set-up filled a `FileStore` through a
//! store-backed `ServerState`. Each round builds a fresh
//! `ServerState::with_defaults().with_store(..)` over that directory and
//! times the first `compile_source` of each program, in seeded order:
//! memory tiers start empty, the page cache is warm, and no optimizer
//! pass runs. Traced rounds replay the same disk hit one public function
//! at a time ([`oracle::replay_restart`]) so each stage gets a span.

use crate::calibrate::Calibrator;
use crate::oracle::{self, Oracle, TracedStore};
use crate::stats::{median, percentile, sorted};
use crate::{permutation, trace, Ctx, Measured};
use fj_ast::{alpha_fingerprint, Expr};
use fj_core::{Census, OptConfig};
use fj_server::{CacheDisposition, CompileOpts, FileStore, ServerState};
use fj_testkit::SplitMix64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The replayed stages, in order.
const STAGES: [&str; 5] = [
    "surface.compile",
    "core.fingerprint",
    "persist.load",
    "core.alpha_verify",
    "check.lint_output",
];

/// Operations after which peak memory is read (200 rounds).
const RSS_AFTER_OPS: u64 = 5_800;

/// Run the timed window.
pub fn measure(ctx: &Ctx, oracle: &Oracle, m: &mut Measured) {
    let refs = &oracle.refs;
    let cfg_fp = OptConfig::join_points()
        .fingerprint()
        .expect("an untapped configuration has a fingerprint");
    let opts = CompileOpts::default();
    let mut rng = SplitMix64::new(ctx.seed);
    let mut restart_us = vec![Vec::new(); refs.len()];
    let mut traced_program = Vec::new();
    let mut firsts: Vec<Option<Arc<Expr>>> = vec![None; refs.len()];
    let window = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let mut clock = Calibrator::new(start);
    let mut round = 0u64;
    'rounds: loop {
        let traced = ctx.trace && round % 2 == 1;
        let store = match FileStore::open(&oracle.store_dir) {
            Ok(s) => s,
            Err(e) => {
                m.checks
                    .expect(false, || format!("cannot open the store: {e}"));
                break;
            }
        };
        let (state, replay) = if traced {
            (None, Some(TracedStore(store)))
        } else {
            (
                Some(ServerState::with_defaults().with_store(Arc::new(store))),
                None,
            )
        };
        for i in permutation(&mut rng, refs.len()) {
            if start.elapsed() >= window {
                break 'rounds;
            }
            let r = &refs[i];
            m.ops += 1;
            trace::set_on(traced);
            trace::begin_op(m.ops);
            let t0 = Instant::now();
            let out: Result<Arc<Expr>, String> = match (&state, &replay) {
                (Some(state), _) => state
                    .compile_source(r.source, &opts)
                    .map_err(|e| e.message().to_string())
                    .and_then(|c| match c.cache {
                        CacheDisposition::Hit => Ok(c.term),
                        other => Err(format!("a restart compile was a {}", other.as_str())),
                    }),
                (None, Some(store)) => {
                    let _op = trace::span("bench.op");
                    oracle::replay_restart(r.source, store, cfg_fp).map(Arc::new)
                }
                (None, None) => unreachable!("one of the two is built per round"),
            };
            let elapsed = t0.elapsed();
            m.latency(traced, t0 - start, elapsed);
            trace::set_on(false);
            m.rss_after(RSS_AFTER_OPS);
            clock.tick();
            if traced {
                traced_program.push((m.ops, i));
            } else {
                restart_us[i].push(elapsed.as_secs_f64() * 1e6);
            }
            let ok = out.as_ref().is_ok_and(|term| {
                Census::of(term) == r.after
                    && (round > 1 || alpha_fingerprint(term) == r.fingerprint)
            });
            m.checks.expect(ok, || {
                format!(
                    "{}: restart output differs: {:?}",
                    r.name,
                    out.as_ref().err()
                )
            });
            if ok && firsts[i].is_none() {
                firsts[i] = out.ok();
            }
        }
        round += 1;
    }
    m.window_s = ctx.seconds;
    m.kernel = clock.samples;
    for term in firsts.iter().flatten() {
        m.code_size_total += term.size() as u64;
        m.allocs_total += fj_vm::run(term, fj_eval::EvalMode::CallByValue, fj_nofib::VM_FUEL)
            .map_or(0, |o| o.metrics.total_allocs());
    }
    let spans = trace::take();
    stage_rows(refs, &restart_us, &traced_program, &spans, m);
    trace::merge(&mut m.spans, spans);
}

/// Per-program restart rows: the served cold compile from set-up, the
/// restart median, and (traced) the median of each replayed stage.
fn stage_rows(
    refs: &[oracle::Reference],
    restart_us: &[Vec<f64>],
    traced_program: &[(u64, usize)],
    spans: &[trace::Span],
    m: &mut Measured,
) {
    let mut stage_us = vec![vec![Vec::new(); STAGES.len()]; refs.len()];
    let program_of: std::collections::HashMap<u64, usize> =
        traced_program.iter().copied().collect();
    for s in spans {
        if let (Some(&p), Some(k)) = (
            program_of.get(&s.op),
            STAGES.iter().position(|n| *n == s.name),
        ) {
            stage_us[p][k].push(s.dur() as f64 / 1e3);
        }
    }
    let mut header = format!(
        "{:<16} {:>10} {:>11} {:>8}",
        "program", "cold_us", "restart_us", "ratio"
    );
    for stage in STAGES {
        header.push_str(&format!(" {stage:>17}"));
    }
    m.detail.push(
        "restart rows (restart: p50 µs; cold: a single in-process served cold compile with \
         its disk write, timed once in the last set-up, so the ratio rests on one cold sample):"
            .to_string(),
    );
    m.detail.push(header);
    for (i, r) in refs.iter().enumerate() {
        let restart = median(&restart_us[i]);
        let mut row = format!(
            "{:<16} {:>10.1} {:>11.1} {:>8.2}",
            r.name,
            r.served_cold_us,
            restart,
            restart / r.served_cold_us
        );
        for stage in &stage_us[i] {
            row.push_str(&format!(" {:>17.1}", percentile(&sorted(stage), 50.0)));
        }
        m.detail.push(row);
    }
}
