//! The references every workload checks against, and the set-up work
//! that builds them.
//!
//! Each run of every workload first compiles the 29 nofib programs and
//! checks the results against references that do not come from the
//! compiler: each program's pinned `expected` value and its native-Rust
//! candle. The VM's allocation and jump counters are checked against the
//! Fig. 3 machine, every distinct optimizer output is linted, and the
//! served route (a store-backed `ServerState`, in process) must answer
//! hot, warm, cold and `run` requests with the in-process fingerprint and
//! values. A restart replay then reads every stored entry back from disk.
//! Because this is traced like any other work, every layer has spans in
//! every workload's trace.

use crate::calibrate::Calibrator;
use crate::trace;
use fj_ast::{alpha_eq, alpha_fingerprint, DataEnv, Expr, NameSupply};
use fj_core::{CacheKey, CacheStore, Census, DiskLoad, OptConfig, OptError, PipelineReport};
use fj_eval::{EvalMode, Metrics, Value as MValue};
use fj_server::json::{self, Value};
use fj_server::{FileStore, ServerState};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Mismatches found while checking outputs.
#[derive(Default)]
pub struct Checks {
    /// Number of failed checks.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Record `ok`; on failure count it and keep the message. Returns `ok`.
    pub fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) -> bool {
        if !ok {
            self.fail(1, message());
        }
        ok
    }

    /// Count `count` failures under one message.
    pub fn fail(&mut self, count: u64, message: String) {
        self.failed += count;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    /// Fold another set of checks into this one.
    pub fn absorb(&mut self, other: Checks) {
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

/// One program with everything known about its correct compilation.
pub struct Reference {
    /// nofib row name.
    pub name: &'static str,
    /// Surface source.
    pub source: &'static str,
    /// The value `main` must produce: the pinned `expected` value, or the
    /// native candle's value where none is pinned.
    pub value: i64,
    /// The optimized term.
    pub term: Arc<Expr>,
    /// Its α-fingerprint.
    pub fingerprint: u64,
    /// Census of the input term.
    pub before: Census,
    /// Census of the optimized term.
    pub after: Census,
    /// Join points the pipeline inferred.
    pub contified: u64,
    /// Counters of the Fig. 3 machine, call-by-value.
    pub machine: Metrics,
    /// Counters of the bytecode VM, call-by-value.
    pub vm: Metrics,
    /// Bytecode length of the compiled term.
    pub code_ops: usize,
    /// Wall time of the served cold compile, in µs.
    pub served_cold_us: f64,
}

impl Reference {
    /// The fingerprint as the service spells it.
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

/// All references, plus the disk store the served route filled.
pub struct Oracle {
    /// One per nofib program, in suite order.
    pub refs: Vec<Reference>,
    /// A `FileStore` directory holding every program's stored entry.
    pub store_dir: PathBuf,
    /// Programs checked.
    pub checked: u64,
}

/// Run the pipeline inside a `core.optimize` span, recording each pass
/// from the pipeline report's own wall times as a child span (laid end to
/// end from the start; the gaps left are the pipeline's own time between
/// passes).
///
/// # Errors
///
/// The pipeline's error.
pub fn optimize_traced(
    e: &Expr,
    env: &DataEnv,
    supply: &mut NameSupply,
    cfg: &OptConfig,
) -> Result<(Expr, PipelineReport), OptError> {
    let _span = trace::span("core.optimize");
    let start = Instant::now();
    let result = fj_core::optimize_with_report(e, env, supply, cfg);
    if let Ok((_, report)) = &result {
        let mut at = start;
        for p in &report.passes {
            let end = at + p.wall;
            trace::record(pass_span(p.pass), at, end, p.rewrites.total());
            at = end;
        }
    }
    result
}

/// Span name of an optimizer pass.
pub fn pass_span(pass: &str) -> &'static str {
    match pass {
        "simplify" => "core.simplify",
        "contify" => "core.contify",
        "float-in" => "core.float-in",
        "float-out" => "core.float-out",
        "cse" => "core.cse",
        _ => "core.pass",
    }
}

/// A [`CacheStore`] that records `persist.load` / `persist.store` spans
/// around a [`FileStore`].
pub struct TracedStore(pub FileStore);

impl CacheStore for TracedStore {
    fn load(&self, key: &CacheKey) -> DiskLoad {
        trace::timed("persist.load", || self.0.load(key))
    }

    fn store(&self, key: &CacheKey, input: &Expr, output: &Expr, env: &DataEnv) -> bool {
        trace::timed("persist.store", || self.0.store(key, input, output, env))
    }
}

/// A store-backed server state over `dir`, traced at the disk boundary.
///
/// # Errors
///
/// The error creating the directory.
pub fn served_state(dir: &Path) -> Result<ServerState, String> {
    let store = FileStore::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    Ok(ServerState::with_defaults().with_store(Arc::new(TracedStore(store))))
}

/// The stages a restarted server runs on a disk hit, replayed one public
/// function at a time so each gets its own span: re-lower the request,
/// fingerprint it, load the stored entry, α-verify the stored input, and
/// lint the stored output. Returns the stored output.
///
/// # Errors
///
/// Which stage failed.
pub fn replay_restart(source: &str, store: &dyn CacheStore, cfg_fp: u64) -> Result<Expr, String> {
    let lowered = trace::timed("surface.compile", || fj_surface::compile(source))
        .map_err(|e| e.to_string())?;
    let key = trace::timed("core.fingerprint", || CacheKey {
        term: alpha_fingerprint(&lowered.expr),
        cfg: cfg_fp,
        env: lowered.data_env.fingerprint(),
        resilient: false,
    });
    let DiskLoad::Entry(stored) = store.load(&key) else {
        return Err("stored entry missing or corrupt".to_string());
    };
    let verified = trace::timed("core.alpha_verify", || {
        stored.env_fingerprint == key.env && alpha_eq(&lowered.expr, &stored.input)
    });
    if !verified {
        return Err("stored input is not α-equal to the request".to_string());
    }
    trace::timed("check.lint_output", || {
        fj_check::lint(&stored.output, &lowered.data_env)
    })
    .map_err(|e| format!("stored output fails lint: {e}"))?;
    Ok(stored.output)
}

/// A `compile` request line for `program` (no trailing newline).
pub fn compile_line(program: &str) -> String {
    Value::obj([
        ("op", Value::str("compile")),
        ("program", Value::str(program)),
    ])
    .to_string()
}

/// A `run` request line on the VM backend.
pub fn run_line(program: &str) -> String {
    Value::obj([
        ("op", Value::str("run")),
        ("program", Value::str(program)),
        ("backend", Value::str("vm")),
    ])
    .to_string()
}

/// The program with a trailing comment: a textual miss, an α-hit.
pub fn warm_source(source: &str, tag: u64) -> String {
    format!("{source}\n-- edited {tag:016x}\n")
}

/// The program plus a dead definition: a new α-class that the optimizer
/// reduces to the base program's output.
pub fn cold_source(source: &str, nonce: u64) -> String {
    format!("{source}\ndef bench_nonce_{nonce} : Int = {nonce};\n")
}

/// Check a `compile` response: success and the reference fingerprint.
/// Returns the parsed response.
pub fn check_compile(response: &str, r: &Reference, checks: &mut Checks) -> Option<Value> {
    let v = parse_ok(response, r, checks)?;
    let fp = v.get("fingerprint").and_then(Value::as_str);
    let ok = checks.expect(fp == Some(r.fingerprint_hex().as_str()), || {
        format!(
            "{}: served fingerprint {fp:?}, expected {}",
            r.name,
            r.fingerprint_hex()
        )
    });
    ok.then_some(v)
}

/// Check a `run` response: the reference value and the VM's counters.
/// Returns the allocations the server counted, when the answer is right.
pub fn check_run(response: &str, r: &Reference, checks: &mut Checks) -> Option<u64> {
    let v = parse_ok(response, r, checks)?;
    let value = v.get("value").and_then(Value::as_str);
    let counter = |k: &str| {
        v.get("metrics")
            .and_then(|m| m.get(k))
            .and_then(Value::as_u64)
    };
    let counters = [
        counter("let_allocs"),
        counter("arg_allocs"),
        counter("con_allocs"),
        counter("jumps"),
    ];
    let want = [
        Some(r.vm.let_allocs),
        Some(r.vm.arg_allocs),
        Some(r.vm.con_allocs),
        Some(r.vm.jumps),
    ];
    let ok = checks.expect(value == Some(r.value.to_string().as_str()), || {
        format!("{}: served value {value:?}, expected {}", r.name, r.value)
    }) && checks.expect(counters == want, || {
        format!(
            "{}: served counters {counters:?}, expected {want:?}",
            r.name
        )
    });
    ok.then(|| counters[..3].iter().flatten().sum())
}

fn parse_ok(response: &str, r: &Reference, checks: &mut Checks) -> Option<Value> {
    let v = json::parse(response)
        .ok()
        .filter(|v| v.get("ok").and_then(Value::as_bool) == Some(true));
    checks.expect(v.is_some(), || {
        format!("{}: request failed: {response}", r.name)
    });
    v
}

fn int_value(v: &MValue) -> Option<i64> {
    match v {
        MValue::Int(n) => Some(*n),
        _ => None,
    }
}

fn allocation_counters(m: &Metrics) -> [u64; 4] {
    [m.let_allocs, m.arg_allocs, m.con_allocs, m.jumps]
}

impl Oracle {
    /// Compile, run and serve every program, checking everything against
    /// the references, with the calibration kernel run between programs.
    /// Mismatches land in `checks`; a program whose own compile fails is
    /// dropped from the result.
    pub fn build(
        store_dir: &Path,
        checks: &mut Checks,
        clock: &mut Calibrator,
    ) -> Result<Oracle, String> {
        let cfg = OptConfig::join_points();
        let mut refs = Vec::new();
        let mut checked = 0;
        for p in fj_nofib::programs() {
            checked += 1;
            match reference(&p, &cfg, checks) {
                Ok(r) => refs.push(r),
                Err(e) => {
                    checks.expect(false, || format!("{}: {e}", p.name));
                }
            }
            clock.tick();
        }
        let _ = std::fs::remove_dir_all(store_dir);
        let state = served_state(store_dir)?;
        for (i, r) in refs.iter_mut().enumerate() {
            serve_checks(&state, r, i as u64, checks);
            clock.tick();
        }
        let store = TracedStore(FileStore::open(store_dir).map_err(|e| e.to_string())?);
        let cfg_fp = cfg
            .fingerprint()
            .ok_or("untapped configs have fingerprints")?;
        for r in &refs {
            let replayed = replay_restart(r.source, &store, cfg_fp);
            let fp = replayed.as_ref().map(alpha_fingerprint);
            checks.expect(fp.as_ref() == Ok(&r.fingerprint), || {
                format!("{}: restart replay gave {fp:?}", r.name)
            });
            clock.tick();
        }
        Ok(Oracle {
            refs,
            store_dir: store_dir.to_path_buf(),
            checked,
        })
    }
}

fn reference(
    p: &fj_nofib::Program,
    cfg: &OptConfig,
    checks: &mut Checks,
) -> Result<Reference, String> {
    let mut lowered = trace::timed("surface.compile", || fj_surface::compile(p.source))
        .map_err(|e| e.to_string())?;
    trace::timed("check.lint", || {
        fj_check::lint(&lowered.expr, &lowered.data_env)
    })
    .map_err(|e| format!("lint: {e}"))?;
    let (term, report) =
        optimize_traced(&lowered.expr, &lowered.data_env, &mut lowered.supply, cfg)
            .map_err(|e| format!("optimize: {e}"))?;
    trace::timed("check.lint_output", || {
        fj_check::lint(&term, &lowered.data_env)
    })
    .map_err(|e| format!("optimized output fails lint: {e}"))?;
    let fingerprint = trace::timed("core.fingerprint", || alpha_fingerprint(&term));
    let machine = trace::timed("eval.run", || {
        fj_eval::run(&term, EvalMode::CallByValue, fj_nofib::FUEL)
    })
    .map_err(|e| format!("machine: {e}"))?;
    let prog = trace::timed("vm.compile", || {
        fj_vm::compile(&term, EvalMode::CallByValue)
    })
    .map_err(|e| format!("vm compile: {e}"))?;
    let vm = trace::timed("vm.exec", || fj_vm::run_program(&prog, fj_nofib::VM_FUEL))
        .map_err(|e| format!("vm: {e}"))?;
    let candle = (fj_nofib::candles::candle(p.name).ok_or("no native candle")?)();
    let value = p.expected.unwrap_or(candle);
    checks.expect(candle == value, || {
        format!(
            "{}: candle {candle} disagrees with expected {value}",
            p.name
        )
    });
    let got = int_value(&machine.value);
    checks.expect(got == Some(value), || {
        format!(
            "{}: machine gave {}, expected {value}",
            p.name, machine.value
        )
    });
    let got = int_value(&vm.value);
    checks.expect(got == Some(value), || {
        format!("{}: VM gave {}, expected {value}", p.name, vm.value)
    });
    checks.expect(
        allocation_counters(&vm.metrics) == allocation_counters(&machine.metrics),
        || {
            format!(
                "{}: VM counters {:?} differ from the machine's {:?}",
                p.name,
                allocation_counters(&vm.metrics),
                allocation_counters(&machine.metrics)
            )
        },
    );
    Ok(Reference {
        name: p.name,
        source: p.source,
        value,
        fingerprint,
        before: report.census_before,
        after: report.census_after,
        contified: report.totals().contified,
        machine: machine.metrics,
        vm: vm.metrics,
        code_ops: prog.code.ops.len(),
        term: Arc::new(term),
        served_cold_us: 0.0,
    })
}

/// Serve one program through every request class in process: a cold
/// compile (disk write-behind), a hot recompile, a warm edit, a cold
/// variant with a dead definition, and a VM run.
fn serve_checks(state: &ServerState, r: &mut Reference, nonce: u64, checks: &mut Checks) {
    let handle =
        |class: &'static str, line: &str| trace::timed(class, || state.handle_line(line).0);
    let cold = compile_line(r.source);
    let start = Instant::now();
    let response = handle("server.handle.cold", &cold);
    r.served_cold_us = start.elapsed().as_secs_f64() * 1e6;
    let expect_cache = |v: Option<Value>, want: &str, what: &str, checks: &mut Checks| {
        if let Some(v) = v {
            let cache = v.get("cache").and_then(Value::as_str).map(str::to_string);
            checks.expect(cache.as_deref() == Some(want), || {
                format!("{}: {what} was a cache {cache:?}, expected {want}", r.name)
            });
        }
    };
    let v = check_compile(&response, r, checks);
    expect_cache(v, "miss", "cold compile", checks);
    let v = check_compile(&handle("server.handle.hot", &cold), r, checks);
    expect_cache(v, "hit", "hot recompile", checks);
    let warm = compile_line(&warm_source(r.source, nonce));
    let v = check_compile(&handle("server.handle.warm", &warm), r, checks);
    expect_cache(v, "hit", "warm edit", checks);
    let variant = compile_line(&cold_source(r.source, nonce));
    let v = check_compile(&handle("server.handle.cold", &variant), r, checks);
    expect_cache(v, "miss", "cold variant", checks);
    check_run(&handle("server.handle.run", &run_line(r.source)), r, checks);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_reference_fails_the_served_checks() {
        let mut checks = Checks::default();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-oracle-store");
        let mut clock = Calibrator::new(Instant::now());
        let oracle = Oracle::build(&dir, &mut checks, &mut clock).expect("the oracle builds");
        assert_eq!(checks.failed, 0, "{:?}", checks.messages);
        assert_eq!(oracle.refs.len(), 29);
        let state = served_state(&dir).expect("store opens");
        let mut wrong = oracle.refs.into_iter().next().expect("29 programs");
        wrong.value += 1;
        wrong.fingerprint ^= 1;
        serve_checks(&state, &mut wrong, 99, &mut checks);
        // cold, hot, warm and the variant have the wrong fingerprint; the
        // run has the wrong value.
        assert_eq!(checks.failed, 5, "{:?}", checks.messages);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
