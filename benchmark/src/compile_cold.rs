//! `compile-cold`: the frontend and the optimizer, no cache.
//!
//! Closed loop, one thread. Each operation takes one nofib program
//! through `fj_surface::compile`, `fj_check::lint` and the join-points
//! pipeline; each round is a fresh seeded permutation of all 29
//! programs. `vm`, `eval` and `server` are idle while it is timed.

use crate::calibrate::Calibrator;
use crate::oracle::{self, Oracle};
use crate::{permutation, trace, Ctx, Measured};
use fj_ast::alpha_fingerprint;
use fj_core::{OptConfig, PipelineReport};
use fj_eval::EvalMode;
use fj_testkit::SplitMix64;
use std::time::{Duration, Instant};

fn compile(source: &str, cfg: &OptConfig) -> Result<(fj_ast::Expr, PipelineReport), String> {
    let mut lowered = trace::timed("surface.compile", || fj_surface::compile(source))
        .map_err(|e| e.to_string())?;
    trace::timed("check.lint", || {
        fj_check::lint(&lowered.expr, &lowered.data_env)
    })
    .map_err(|e| format!("lint: {e}"))?;
    oracle::optimize_traced(&lowered.expr, &lowered.data_env, &mut lowered.supply, cfg)
        .map_err(|e| format!("optimize: {e}"))
}

/// Operations after which peak memory is read (100 rounds).
const RSS_AFTER_OPS: u64 = 2_900;

/// Run the timed window.
pub fn measure(ctx: &Ctx, oracle: &Oracle, m: &mut Measured) {
    let cfg = OptConfig::join_points();
    let refs = &oracle.refs;
    let mut rng = SplitMix64::new(ctx.seed);
    // The first output of each program, kept to measure size and
    // allocations after the window.
    let mut firsts: Vec<Option<fj_ast::Expr>> = vec![None; refs.len()];
    let window = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let mut clock = Calibrator::new(start);
    'rounds: loop {
        for i in permutation(&mut rng, refs.len()) {
            if start.elapsed() >= window {
                break 'rounds;
            }
            let r = &refs[i];
            m.ops += 1;
            let traced = ctx.trace && m.ops.is_multiple_of(2);
            trace::set_on(traced);
            trace::begin_op(m.ops);
            let t0 = Instant::now();
            let out = {
                let _op = trace::span("bench.op");
                compile(r.source, &cfg)
            };
            m.latency(traced, t0 - start, t0.elapsed());
            trace::set_on(false);
            m.rss_after(RSS_AFTER_OPS);
            clock.tick();
            let first = firsts[i].is_none();
            let ok = match &out {
                Ok((term, report)) => {
                    report.census_after == r.after
                        && (!first || alpha_fingerprint(term) == r.fingerprint)
                }
                Err(_) => false,
            };
            let detail = out.as_ref().err();
            if m.checks.expect(ok, || {
                format!(
                    "{}: compile output differs from the reference ({detail:?})",
                    r.name
                )
            }) && first
            {
                firsts[i] = out.ok().map(|(term, _)| term);
            }
        }
    }
    m.window_s = ctx.seconds;
    m.kernel = clock.samples;
    for (r, term) in refs.iter().zip(&firsts) {
        let Some(term) = term else { continue };
        m.code_size_total += term.size() as u64;
        let run = fj_vm::run(term, EvalMode::CallByValue, fj_nofib::VM_FUEL);
        let allocs = run.as_ref().map(|o| o.metrics.total_allocs());
        m.checks
            .expect(allocs.as_ref() == Ok(&r.vm.total_allocs()), || {
                format!("{}: compiled output allocates {allocs:?}", r.name)
            });
        m.allocs_total += allocs.unwrap_or(0);
    }
}
