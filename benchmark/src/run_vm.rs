//! `run-vm`: bytecode codegen and execution, no optimizer.
//!
//! Closed loop, one thread. The 29 terms are the references' optimized
//! outputs, built in set-up; each operation is `fj_vm::compile` plus
//! `fj_vm::run_program`, call-by-value, for one program in seeded order.

use crate::calibrate::Calibrator;
use crate::oracle::Oracle;
use crate::{permutation, trace, Ctx, Measured};
use fj_eval::{EvalMode, Value};
use fj_testkit::SplitMix64;
use std::time::{Duration, Instant};

/// Operations after which peak memory is read (1000 rounds).
const RSS_AFTER_OPS: u64 = 29_000;

/// Run the timed window.
pub fn measure(ctx: &Ctx, oracle: &Oracle, m: &mut Measured) {
    let refs = &oracle.refs;
    let mut rng = SplitMix64::new(ctx.seed);
    let mut seen = vec![false; refs.len()];
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
                trace::timed("vm.compile", || {
                    fj_vm::compile(&r.term, EvalMode::CallByValue)
                })
                .map_err(|e| e.to_string())
                .and_then(|prog| {
                    trace::timed("vm.exec", || fj_vm::run_program(&prog, fj_nofib::VM_FUEL))
                        .map_err(|e| e.to_string())
                })
            };
            m.latency(traced, t0 - start, t0.elapsed());
            trace::set_on(false);
            m.rss_after(RSS_AFTER_OPS);
            clock.tick();
            let ok = out.as_ref().is_ok_and(|o| {
                o.value == Value::Int(r.value)
                    && [
                        o.metrics.let_allocs,
                        o.metrics.arg_allocs,
                        o.metrics.con_allocs,
                        o.metrics.jumps,
                    ] == [
                        r.machine.let_allocs,
                        r.machine.arg_allocs,
                        r.machine.con_allocs,
                        r.machine.jumps,
                    ]
            });
            let detail = out.as_ref().map(|o| (o.value.to_string(), o.metrics));
            if m.checks.expect(ok, || {
                format!("{}: VM run differs from the machine: {detail:?}", r.name)
            }) && !seen[i]
            {
                seen[i] = true;
                if let Ok(o) = &out {
                    m.allocs_total += o.metrics.total_allocs();
                    m.code_size_total += r.term.size() as u64;
                }
            }
        }
    }
    m.window_s = ctx.seconds;
    m.kernel = clock.samples;
}
