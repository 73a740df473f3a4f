//! ISSUE acceptance: the compile service is *transparent*. For every
//! nofib program, under both real pipelines, four compile routes must
//! agree up to α-equivalence — serial, a served parallel batch (one
//! `compile` request with `programs`), served with a cold cache (miss),
//! and served with a hot cache (hit) — and the served term must produce
//! the same value and allocation metrics as the serial one on both
//! backends.
//!
//! This is the concurrency companion of `vm_differential`: it pins down
//! the two ways a cache could lie (a stale or colliding entry served as
//! a hit, and a cross-thread name-capture bug in the batch path).

use fj_ast::{alpha_eq, alpha_fingerprint};
use fj_core::{optimize_with_report, OptConfig};
use fj_eval::EvalMode;
use fj_nofib::{programs, FUEL, VM_FUEL};
use fj_server::json::{self, Value};
use fj_server::{CacheDisposition, CompileOpts, Preset, ServerState};

fn opts_for(preset: &str) -> CompileOpts {
    CompileOpts {
        preset: Preset::parse(preset).expect("a known preset"),
        ..CompileOpts::default()
    }
}

#[test]
fn served_compiles_match_serial_and_batch_on_every_program() {
    let presets: [(&str, OptConfig); 2] = [
        ("join-points", OptConfig::join_points()),
        ("baseline", OptConfig::baseline()),
    ];
    for (preset, cfg) in presets {
        // One server per preset: every program lands in the same cache,
        // so the hot pass also exercises shard routing under load.
        let server = ServerState::new(4, 16 << 20);
        let opts = opts_for(preset);

        // Route 1: serial, the reference.
        let mut serial = Vec::new();
        for p in programs() {
            let mut lowered = fj_surface::compile(p.source)
                .unwrap_or_else(|e| panic!("{} [{preset}]: compile: {e}", p.name));
            let (term, _) =
                optimize_with_report(&lowered.expr, &lowered.data_env, &mut lowered.supply, &cfg)
                    .unwrap_or_else(|e| panic!("{} [{preset}]: serial optimize: {e}", p.name));
            serial.push(term);
        }

        // Route 2: the whole suite as one batch `compile` request on a
        // fresh server, which fans the programs out over `par_map`.
        let batch_server = ServerState::new(4, 16 << 20);
        let request = Value::obj([
            ("op", Value::str("compile")),
            ("preset", Value::str(preset)),
            (
                "programs",
                Value::Arr(programs().iter().map(|p| Value::str(p.source)).collect()),
            ),
        ]);
        let (response, _) = batch_server.handle_line(&request.to_string());
        let response = json::parse(&response).expect("batch response is JSON");
        let results = response
            .get("results")
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("[{preset}]: batch response has no results: {response}"));
        assert_eq!(
            results.len(),
            serial.len(),
            "[{preset}]: one result per program"
        );
        for ((p, want), got) in programs().iter().zip(&serial).zip(results) {
            assert_eq!(
                got.get("ok").and_then(Value::as_bool),
                Some(true),
                "{} [{preset}]: batch compile failed: {got}",
                p.name
            );
            assert_eq!(
                got.get("cache").and_then(Value::as_str),
                Some("miss"),
                "{} [{preset}]: batch compile on a fresh server must miss",
                p.name
            );
            assert_eq!(
                got.get("fingerprint").and_then(Value::as_str),
                Some(format!("{:016x}", alpha_fingerprint(want)).as_str()),
                "{} [{preset}]: batch compile disagrees with the serial pipeline",
                p.name
            );
            let again = batch_server
                .compile_source(p.source, &opts)
                .unwrap_or_else(|e| {
                    panic!("{} [{preset}]: batch recompile: {}", p.name, e.message())
                });
            assert_eq!(again.cache, CacheDisposition::Hit, "{} [{preset}]", p.name);
            assert!(
                alpha_eq(want, &again.term),
                "{} [{preset}]: textual hit on a batch-filled entry disagrees with serial",
                p.name
            );
        }
        assert_eq!(
            batch_server.cache_stats().source_hits,
            programs().len() as u64,
            "[{preset}]: every recompile after the batch must text-hit"
        );

        // Routes 3 and 4: served cold (miss), then served hot — once with
        // byte-identical text (textual front-cache hit) and once with a
        // trailing comment added (re-parses, α-hits the term cache).
        for (p, want) in programs().iter().zip(&serial) {
            let cold = server
                .compile_source(p.source, &opts)
                .unwrap_or_else(|e| panic!("{} [{preset}]: served cold: {}", p.name, e.message()));
            assert_eq!(cold.cache, CacheDisposition::Miss, "{} [{preset}]", p.name);
            assert!(
                alpha_eq(want, &cold.term),
                "{} [{preset}]: served cold compile disagrees with serial",
                p.name
            );
            let hot = server
                .compile_source(p.source, &opts)
                .unwrap_or_else(|e| panic!("{} [{preset}]: served hot: {}", p.name, e.message()));
            assert_eq!(hot.cache, CacheDisposition::Hit, "{} [{preset}]", p.name);
            assert!(
                alpha_eq(want, &hot.term),
                "{} [{preset}]: textual cache hit disagrees with serial",
                p.name
            );
            let perturbed = format!("{}\n-- differential probe\n", p.source);
            let alpha_hit = server
                .compile_source(&perturbed, &opts)
                .unwrap_or_else(|e| panic!("{} [{preset}]: served α-hit: {}", p.name, e.message()));
            assert_eq!(
                alpha_hit.cache,
                CacheDisposition::Hit,
                "{} [{preset}]",
                p.name
            );
            assert!(
                alpha_eq(want, &alpha_hit.term),
                "{} [{preset}]: term-cache hit disagrees with serial",
                p.name
            );

            // The served term must *behave* identically too: same value,
            // same allocation counters, on both backends.
            let reference = fj_eval::run(want, EvalMode::CallByValue, FUEL)
                .unwrap_or_else(|e| panic!("{} [{preset}]: machine(serial): {e}", p.name));
            let machine = fj_eval::run(&hot.term, EvalMode::CallByValue, FUEL)
                .unwrap_or_else(|e| panic!("{} [{preset}]: machine(served): {e}", p.name));
            let vm = fj_vm::run(&hot.term, EvalMode::CallByValue, VM_FUEL)
                .unwrap_or_else(|e| panic!("{} [{preset}]: vm(served): {e}", p.name));
            assert_eq!(
                reference.value, machine.value,
                "{} [{preset}]: served term computes a different value",
                p.name
            );
            assert_eq!(reference.value, vm.value, "{} [{preset}]: vm value", p.name);
            if let Some(expected) = p.expected {
                assert_eq!(
                    machine.value.to_string(),
                    expected.to_string(),
                    "{} [{preset}]: served term is wrong outright",
                    p.name
                );
            }
            let counters =
                |m: &fj_eval::Metrics| (m.let_allocs, m.arg_allocs, m.con_allocs, m.jumps);
            assert_eq!(
                counters(&reference.metrics),
                counters(&machine.metrics),
                "{} [{preset}]: served term allocates differently",
                p.name
            );
            assert_eq!(
                counters(&reference.metrics),
                counters(&vm.metrics),
                "{} [{preset}]: vm metrics diverge for the served term",
                p.name
            );
        }

        let stats = server.cache_stats();
        let n = programs().len() as u64;
        assert_eq!(stats.misses, n, "[{preset}]: every cold compile must miss");
        assert_eq!(
            stats.hits, n,
            "[{preset}]: every perturbed compile must α-hit"
        );
        assert_eq!(
            server.cache_stats().source_hits,
            n,
            "[{preset}]: every byte-identical compile must text-hit"
        );
    }
}

/// The cache key is *content*: α-equivalent programs share an entry no
/// matter how they spell their binders, while a different pipeline or a
/// different datatype environment must never share one.
#[test]
fn cache_keys_on_content_not_spelling() {
    let original = "
def main : Int =
  letrec loop : Int -> Int -> Int =
    \\(n : Int) (acc : Int) -> if n <= 0 then acc else loop (n - 1) (acc + n)
  in loop 10 0;
";
    // Same program, every binder renamed.
    let renamed = "
def main : Int =
  letrec walk : Int -> Int -> Int =
    \\(k : Int) (total : Int) -> if k <= 0 then total else walk (k - 1) (total + k)
  in walk 10 0;
";
    // Same `main`, but the program carries an extra (unused) datatype:
    // its DataEnv fingerprint differs, so it must not share an entry —
    // passes consult the environment, so reusing across it is unsound.
    let extra_data = "
data Flag = Up | Down;
def main : Int =
  letrec loop : Int -> Int -> Int =
    \\(n : Int) (acc : Int) -> if n <= 0 then acc else loop (n - 1) (acc + n)
  in loop 10 0;
";
    let server = ServerState::new(1, 16 << 20);
    let jp = opts_for("join-points");

    let first = server.compile_source(original, &jp).unwrap();
    assert_eq!(first.cache, CacheDisposition::Miss);

    let respelled = server.compile_source(renamed, &jp).unwrap();
    assert_eq!(
        respelled.cache,
        CacheDisposition::Hit,
        "α-equivalent programs must share a cache entry"
    );
    assert!(alpha_eq(&first.term, &respelled.term));
    assert_eq!(server.cache_stats().entries, 1);

    let other_pipeline = server
        .compile_source(original, &opts_for("baseline"))
        .unwrap();
    assert_eq!(
        other_pipeline.cache,
        CacheDisposition::Miss,
        "a different pipeline must get its own entry"
    );

    let other_env = server.compile_source(extra_data, &jp).unwrap();
    assert_eq!(
        other_env.cache,
        CacheDisposition::Miss,
        "a different datatype environment must get its own entry"
    );

    // And a hit is indistinguishable from a fresh compile.
    let lowered = fj_surface::compile(original).unwrap();
    let mut supply = lowered.supply;
    let (fresh, _) = optimize_with_report(
        &lowered.expr,
        &lowered.data_env,
        &mut supply,
        &OptConfig::join_points(),
    )
    .unwrap();
    assert!(alpha_eq(&fresh, &respelled.term));
}

/// The fusion matrix, *served*: every skip-less/skip-ful ×
/// {map, filter, zip, sum} pipeline is built with the fusion library,
/// unparsed back to surface text, compiled through the service under
/// both presets, and held to exact allocation bars. This pins three
/// things at once: the unparser emits text the frontend accepts for
/// real library output (not just fuzzer output), the served term is
/// the same program as the directly-optimized one, and the paper's
/// Sec. 5 claims survive the service boundary — skip-less pipelines
/// fuse to zero allocations with join points while the skip-less
/// `filter` loop costs n+1 under the baseline, skip-ful `filter`
/// fuses either way, and `zip` keeps its buffered element (n+1
/// skip-less, 2n+1 skip-ful, per its `Maybe` buffer).
#[test]
fn fusion_matrix_serves_with_exact_allocation_bars() {
    use fj_ast::{Dsl, Expr, PrimOp, Type};
    use fj_fusion::{
        enum_from_to, filter_s, int_lambda, int_lambda2, map_s, sum_s, zip_with_s, zip_with_skip,
        StepVariant,
    };

    const WORKLOADS: [&str; 4] = ["map", "filter", "zip", "sum"];

    fn build(d: &mut Dsl, v: StepVariant, workload: &str, n: i64) -> Expr {
        let base = enum_from_to(d, v, Expr::Lit(1), Expr::Lit(n));
        match workload {
            "map" => {
                let f = int_lambda(d, |_, x| {
                    Expr::prim2(
                        PrimOp::Add,
                        Expr::prim2(PrimOp::Mul, Expr::var(x), Expr::Lit(2)),
                        Expr::Lit(1),
                    )
                });
                let s = map_s(d, f, Type::Int, base);
                sum_s(d, s)
            }
            "filter" => {
                let odd = int_lambda(d, |_, x| {
                    Expr::prim2(
                        PrimOp::Eq,
                        Expr::prim2(PrimOp::Rem, Expr::var(x), Expr::Lit(2)),
                        Expr::Lit(1),
                    )
                });
                let s = filter_s(d, odd, base);
                sum_s(d, s)
            }
            "zip" => {
                let triple = int_lambda(d, |_, x| {
                    Expr::prim2(PrimOp::Mul, Expr::var(x), Expr::Lit(3))
                });
                let other = enum_from_to(d, v, Expr::Lit(1), Expr::Lit(n));
                let other = map_s(d, triple, Type::Int, other);
                let add = int_lambda2(d, |_, a, b| {
                    Expr::prim2(PrimOp::Add, Expr::var(a), Expr::var(b))
                });
                let z = match v {
                    StepVariant::Skipless => zip_with_s(d, add, Type::Int, base, other),
                    StepVariant::Skip => zip_with_skip(d, add, Type::Int, base, other),
                };
                sum_s(d, z)
            }
            "sum" => sum_s(d, base),
            other => unreachable!("unknown workload {other}"),
        }
    }

    fn reference(workload: &str, n: i64) -> i64 {
        match workload {
            "map" => (1..=n).map(|x| x * 2 + 1).sum(),
            "filter" => (1..=n).filter(|x| x % 2 == 1).sum(),
            "zip" => (1..=n)
                .zip((1..=n).map(|x| x * 3))
                .map(|(a, b)| a + b)
                .sum(),
            "sum" => (1..=n).sum(),
            other => unreachable!("unknown workload {other}"),
        }
    }

    /// The exact total-allocation bar for one matrix cell.
    fn expected_allocs(v: StepVariant, workload: &str, preset: &str, n: u64) -> u64 {
        match (workload, v, preset) {
            // zip buffers one element per step regardless of pipeline;
            // the skip-ful variant also wraps each in `Maybe`.
            ("zip", StepVariant::Skipless, _) => n + 1,
            ("zip", StepVariant::Skip, _) => 2 * n + 1,
            // The recursive skip-less filter loop is exactly what the
            // baseline cannot contify away; `SSkip` sidesteps it.
            ("filter", StepVariant::Skipless, "baseline") => n + 1,
            _ => 0,
        }
    }

    let counters = |m: &fj_eval::Metrics| (m.let_allocs, m.arg_allocs, m.con_allocs, m.jumps);
    for (preset, cfg) in [
        ("join-points", OptConfig::join_points()),
        ("baseline", OptConfig::baseline()),
    ] {
        let server = ServerState::new(2, 16 << 20);
        let opts = opts_for(preset);
        for v in [StepVariant::Skipless, StepVariant::Skip] {
            for workload in WORKLOADS {
                for n in [40i64, 80] {
                    let tag = format!("{v:?}/{workload} [{preset}] n={n}");

                    // Direct route: optimize the library-built term.
                    let mut d = Dsl::new();
                    let e = build(&mut d, v, workload, n);
                    let (direct, _) = optimize_with_report(&e, &d.data_env, &mut d.supply, &cfg)
                        .unwrap_or_else(|err| panic!("{tag}: direct optimize: {err}"));
                    let direct_run = fj_eval::run(&direct, EvalMode::CallByValue, FUEL)
                        .unwrap_or_else(|err| panic!("{tag}: machine(direct): {err}"));

                    // Served route: unparse to surface text, compile it
                    // through the service.
                    let src = fj_surface::unparse_main(&e);
                    let served = server
                        .compile_source(&src, &opts)
                        .unwrap_or_else(|err| panic!("{tag}: serve: {}", err.message()));
                    assert_eq!(served.cache, CacheDisposition::Miss, "{tag}");
                    let machine = fj_eval::run(&served.term, EvalMode::CallByValue, FUEL)
                        .unwrap_or_else(|err| panic!("{tag}: machine(served): {err}"));
                    let vm = fj_vm::run(&served.term, EvalMode::CallByValue, VM_FUEL)
                        .unwrap_or_else(|err| panic!("{tag}: vm(served): {err}"));

                    // Same value as the Rust reference on every route.
                    let want = reference(workload, n).to_string();
                    assert_eq!(direct_run.value.to_string(), want, "{tag}: direct value");
                    assert_eq!(machine.value.to_string(), want, "{tag}: served value");
                    assert_eq!(vm.value.to_string(), want, "{tag}: vm value");

                    // The service is transparent: counter-for-counter
                    // identical to the direct pipeline, on both backends.
                    assert_eq!(
                        counters(&direct_run.metrics),
                        counters(&machine.metrics),
                        "{tag}: served term allocates differently from direct"
                    );
                    assert_eq!(
                        counters(&direct_run.metrics),
                        counters(&vm.metrics),
                        "{tag}: vm counters diverge"
                    );

                    // And the exact Sec. 5 bar for this cell.
                    let bar = expected_allocs(v, workload, preset, n as u64);
                    assert_eq!(
                        machine.metrics.total_allocs(),
                        bar,
                        "{tag}: allocation bar (metrics: {})",
                        machine.metrics
                    );
                }
            }
        }
    }
}

/// A hit adopts the producer's name supply: names drawn *after* a served
/// compile must not collide with names inside the served term, even when
/// the producer's supply had advanced much further than this consumer's.
#[test]
fn names_drawn_after_a_hit_are_fresh() {
    use fj_ast::alpha_fingerprint;
    let src = "
def main : Int =
  letrec go : Int -> Int = \\(n : Int) -> if n <= 0 then 0 else go (n - 1)
  in go 3;
";
    let server = ServerState::new(1, 16 << 20);
    let opts = opts_for("join-points");
    server.compile_source(src, &opts).unwrap();
    let hit = server.compile_source(src, &opts).unwrap();
    assert_eq!(hit.cache, CacheDisposition::Hit);
    // Erasure draws fresh names from the adopting supply while rebuilding
    // the term; a capture would change (or lint-break) the result.
    let mut supply = hit.supply;
    let erased = fj_core::erase(&hit.term, &hit.data_env, &mut supply)
        .expect("erasure after a cache hit must stay well-typed");
    assert_ne!(alpha_fingerprint(&erased), 0);
}

/// ISSUE acceptance: warm restarts. A server with a `--cache-dir`
/// persists every compile; a *new* server process over the same
/// directory — both in-memory layers empty — must answer each program
/// with a verified disk hit: zero optimizer passes, a term α-equal to
/// the cold compile, and identical machine **and** VM allocation
/// counters.
#[test]
fn restarted_server_serves_alpha_equal_terms_from_disk() {
    use fj_server::FileStore;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("fj-restart-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = || Arc::new(FileStore::open(&dir).expect("cache dir"));
    let opts = opts_for("join-points");
    let counters = |m: &fj_eval::Metrics| (m.let_allocs, m.arg_allocs, m.con_allocs, m.jumps);

    // Cold generation: one server writes the whole suite through.
    let cold_server = ServerState::new(2, 16 << 20).with_store(store());
    let mut cold_terms = Vec::new();
    for p in programs() {
        let c = cold_server
            .compile_source(p.source, &opts)
            .unwrap_or_else(|e| panic!("{}: cold: {}", p.name, e.message()));
        assert_eq!(c.cache, CacheDisposition::Miss, "{}", p.name);
        cold_terms.push(c.term);
    }
    assert_eq!(
        cold_server.cache_stats().disk_writes,
        programs().len() as u64,
        "every cold compile must persist"
    );

    // Restart: fresh state, same directory.
    let warm_server = ServerState::new(2, 16 << 20).with_store(store());
    for (p, cold_term) in programs().iter().zip(&cold_terms) {
        let c = warm_server
            .compile_source(p.source, &opts)
            .unwrap_or_else(|e| panic!("{}: warm: {}", p.name, e.message()));
        assert_eq!(
            c.cache,
            CacheDisposition::Hit,
            "{}: restart must hit from disk",
            p.name
        );
        assert!(
            c.report.passes.is_empty(),
            "{}: a disk hit runs zero optimizer passes",
            p.name
        );
        assert!(
            alpha_eq(&c.term, cold_term),
            "{}: restarted term must be α-equal to the cold compile",
            p.name
        );
        let cold_m = fj_eval::run(cold_term, EvalMode::CallByValue, FUEL)
            .unwrap_or_else(|e| panic!("{}: machine(cold): {e}", p.name));
        let warm_m = fj_eval::run(&c.term, EvalMode::CallByValue, FUEL)
            .unwrap_or_else(|e| panic!("{}: machine(warm): {e}", p.name));
        let warm_v = fj_vm::run(&c.term, EvalMode::CallByValue, VM_FUEL)
            .unwrap_or_else(|e| panic!("{}: vm(warm): {e}", p.name));
        assert_eq!(
            cold_m.value.to_string(),
            warm_m.value.to_string(),
            "{}",
            p.name
        );
        assert_eq!(
            cold_m.value.to_string(),
            warm_v.value.to_string(),
            "{}",
            p.name
        );
        assert_eq!(
            counters(&cold_m.metrics),
            counters(&warm_m.metrics),
            "{}: machine counters must match the cold compile",
            p.name
        );
        assert_eq!(
            counters(&cold_m.metrics),
            counters(&warm_v.metrics),
            "{}: VM counters must match the cold compile",
            p.name
        );
    }
    let stats = warm_server.cache_stats();
    assert_eq!(
        stats.disk_hits,
        programs().len() as u64,
        "every restart compile is a disk hit: {stats:?}"
    );
    assert_eq!(stats.misses, 0, "no pipeline ran after restart: {stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
