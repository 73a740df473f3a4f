//! `fj` — the command-line driver: compile, optimize, dump, and run
//! surface-language programs.
//!
//! ```text
//! fj run program.fj                 # compile + optimize + run
//! fj run --baseline program.fj      # the join-blind pipeline
//! fj run -O0 program.fj             # no optimization
//! fj run --backend vm program.fj    # run on the bytecode VM
//! fj run --timeout-ms 500 prog.fj   # wall-clock deadline for the run
//! fj run --resilient program.fj     # roll back failing optimizer passes
//! fj dump program.fj                # print optimized Core (F_J)
//! fj dump --before program.fj       # print lowered Core, pre-optimizer
//! fj check program.fj               # lint only
//! fj erase program.fj               # print the join-free System F term
//! fj report                         # nofib: baseline vs join points,
//!                                   # Table-1-style markdown + pass stats
//! fj report --vm-ops                # VM opcode histogram over nofib:
//!                                   # top ops/pairs/triples, unfused vs
//!                                   # fused dispatch counts
//! fj bench                          # nofib timed on both backends,
//!                                   # JSON on stdout (BENCH_vm.json)
//! fj bench --phase optimize         # nofib timed through the optimizer,
//!                                   # JSON on stdout (BENCH_opt.json)
//! fj bench --phase serve            # nofib compiled twice through a live
//!                                   # compile service: cache-miss vs
//!                                   # cache-hit latency (BENCH_serve.json)
//! fj bench --phase serve-load       # concurrency load generator against
//!                                   # a live service: latency percentiles
//!                                   # and shed rate vs connection count
//!                                   # (BENCH_serve_load.json)
//! fj serve --port 0                 # compile service on an ephemeral
//!                                   # port (prints the bound address)
//! fj serve --workers 4 --queue 32   # explicit pool geometry: requests
//!                                   # beyond the bounded queue are shed
//!                                   # with an `overloaded` error
//! fj serve --cache-dir .fj-cache    # persistent cache tier: a restarted
//!                                   # server is warm from request one
//! fj fuzz --seed 1 --count 500      # fuzz farm: generated programs
//!                                   # cross-checked over every compile
//!                                   # route in parallel; failures are
//!                                   # shrunk into fuzz/corpus/*.fj
//!
//! options: --baseline | -O0, --backend machine|vm, --mode name|need|value,
//!          --fuel N, --timeout-ms N, --metrics, --resilient,
//!          --pass-deadline-ms N, --max-growth F, --max-passes N,
//!          --phase vm|optimize|serve|serve-load, --iterations N, --warmup N
//!          (bench only), --addr HOST:PORT, --port N, --shards N, --cache-bytes N,
//!          --cache-dir DIR, --workers N, --queue N, --max-conns N,
//!          --max-line BYTES, --idle-timeout-ms N, --drain-ms N (serve only),
//!          --seed N, --count N, --gen-depth N, --time-budget-ms N,
//!          --corpus DIR, --no-adversarial, --sabotage MODE:PASS (fuzz only)
//!
//! `fj serve` speaks newline-delimited JSON over TCP; see the `fj-server`
//! crate docs and README for the protocol. Request failures carry a
//! `code` field that mirrors the exit codes below.
//!
//! exit codes: 0 success; 1 I/O or other runtime error; 2 usage, lexical,
//! or parse error; 3 lowering or lint (type) error; 4 optimizer error;
//! 5 evaluation budget exhausted (fuel or wall-clock deadline). Served
//! requests additionally use 6 (`overloaded`: request or connection shed
//! by admission control — retry after `retry_after_ms`) and 7
//! (`internal`: the request handler panicked) in their `code` field.
//! ```

use std::process::ExitCode;
use std::time::Duration;

use system_fj::check::lint;
use system_fj::core::{erase, optimize_resilient, optimize_with_report, OptConfig};
use system_fj::eval::{EvalMode, MachineError};
use system_fj::nofib::Backend;
use system_fj::surface::{compile, SurfaceError};
use system_fj::testkit::farm::FarmConfig;
use system_fj::testkit::Sabotage;
use system_fj::vm::VmError;

/// Exit code for usage, lexical, and parse errors.
const EXIT_PARSE: u8 = 2;
/// Exit code for lowering and lint (type) errors.
const EXIT_TYPE: u8 = 3;
/// Exit code for optimizer failures.
const EXIT_OPT: u8 = 4;
/// Exit code for exhausted evaluation budgets (fuel or deadline).
const EXIT_BUDGET: u8 = 5;

struct Options {
    command: String,
    file: String,
    config: OptConfig,
    config_name: &'static str,
    mode: EvalMode,
    backend: Backend,
    fuel: u64,
    timeout: Option<Duration>,
    metrics: bool,
    before: bool,
    resilient: bool,
    phase: BenchPhase,
    vm_ops: bool,
    iterations: u32,
    warmup: u32,
    addr: String,
    shards: usize,
    cache_bytes: usize,
    cache_dir: Option<std::path::PathBuf>,
    serve_cfg: system_fj::server::ServeConfig,
    fuzz: FarmConfig,
}

/// What `fj bench` measures: backend execution, the optimizer itself,
/// the compile service's cache-miss vs cache-hit latency, or the
/// service under concurrent load (percentiles + shed rate).
#[derive(Clone, Copy, PartialEq, Eq)]
enum BenchPhase {
    Vm,
    Optimize,
    Serve,
    ServeLoad,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fj <run|dump|check|erase> [--baseline | -O0] [--backend machine|vm] \
         [--mode name|need|value] [--fuel N] [--timeout-ms N] [--metrics] [--before] \
         [--resilient] [--pass-deadline-ms N] [--max-growth F] [--max-passes N] <file.fj>\n\
         \x20      fj report [--vm-ops]\n\
         \x20                  (nofib suite: baseline vs join points, markdown;\n\
         \x20                   --vm-ops prints the VM opcode-dispatch histogram)\n\
         \x20      fj bench [--phase vm|optimize|serve|serve-load] [--iterations N]\n\
         \x20               [--warmup N]\n\
         \x20                  (nofib suite timed, JSON on stdout)\n\
         \x20      fj serve [--addr HOST:PORT] [--port N] [--shards N]\n\
         \x20               [--cache-bytes N] [--cache-dir DIR]\n\
         \x20               [--workers N] [--queue N] [--max-conns N] [--max-line BYTES]\n\
         \x20               [--idle-timeout-ms N] [--drain-ms N]\n\
         \x20                  (--cache-dir persists compiles across restarts;\n\
         \x20                   --cache-bytes budgets each in-memory cache layer)\n\
         \x20                  (compile service; newline-delimited JSON over TCP;\n\
         \x20                   load beyond the bounded queue or connection cap is\n\
         \x20                   shed with an `overloaded` error, code 6)\n\
         \x20      fj fuzz [--seed N] [--count N] [--gen-depth N] [--fuel N]\n\
         \x20              [--time-budget-ms N] [--corpus DIR] [--no-adversarial]\n\
         \x20              [--sabotage MODE:PASS]\n\
         \x20                  (parallel differential fuzz farm over every compile\n\
         \x20                   route; shrunk repros land in the corpus directory)\n\
         exit codes: 1 I/O or runtime, 2 usage/parse, 3 type/lint, 4 optimizer, \
         5 fuel/deadline exhausted (served requests also use 6 overloaded, \
         7 internal)"
    );
    ExitCode::from(EXIT_PARSE)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return Err(usage());
    };
    if !matches!(
        command.as_str(),
        "run" | "dump" | "check" | "erase" | "report" | "bench" | "serve" | "fuzz"
    ) {
        return Err(usage());
    }
    let mut config = OptConfig::join_points();
    let mut config_name = "join-points";
    let mut mode = EvalMode::CallByValue;
    let mut backend = Backend::Machine;
    let mut fuel = 100_000_000u64;
    let mut timeout = None;
    let mut metrics = false;
    let mut before = false;
    let mut resilient = false;
    let mut phase = BenchPhase::Vm;
    let mut vm_ops = false;
    let mut iterations = 1u32;
    let mut warmup = 0u32;
    let mut addr = "127.0.0.1:7117".to_string();
    let mut shards = system_fj::core::cache::DEFAULT_SHARDS;
    let mut cache_bytes = system_fj::core::cache::DEFAULT_CACHE_BYTES;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut serve_cfg = system_fj::server::ServeConfig::default();
    let mut fuzz = FarmConfig {
        corpus_dir: Some("fuzz/corpus".into()),
        ..FarmConfig::default()
    };
    let mut fuel_flag = None;
    let mut file = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => {
                config = OptConfig::baseline();
                config_name = "baseline";
            }
            "-O0" => {
                config = OptConfig::none();
                config_name = "unoptimized";
            }
            "--metrics" => metrics = true,
            "--before" => before = true,
            "--resilient" => resilient = true,
            "--mode" => {
                mode = match args.next().as_deref() {
                    Some("name") => EvalMode::CallByName,
                    Some("need") => EvalMode::CallByNeed,
                    Some("value") => EvalMode::CallByValue,
                    _ => return Err(usage()),
                };
            }
            "--backend" => {
                backend = match args.next().as_deref().and_then(Backend::parse) {
                    Some(b) => b,
                    None => return Err(usage()),
                };
            }
            "--fuel" => {
                fuel_flag = Some(args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?);
            }
            "--seed" => {
                fuzz.seed = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
            }
            "--count" => {
                fuzz.cases = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
            }
            "--gen-depth" => {
                fuzz.depth = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
            }
            "--time-budget-ms" => {
                let ms: u64 = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                fuzz.time_budget = Some(Duration::from_millis(ms));
            }
            "--corpus" => {
                fuzz.corpus_dir = Some(args.next().ok_or_else(usage)?.into());
            }
            "--no-adversarial" => fuzz.adversarial = false,
            "--vm-ops" => vm_ops = true,
            "--sabotage" => {
                let spec = args.next().ok_or_else(usage)?;
                let (mode_name, pass) = spec.split_once(':').ok_or_else(usage)?;
                let mode = Sabotage::ALL
                    .into_iter()
                    .find(|m| m.name() == mode_name)
                    .ok_or_else(usage)?;
                let target: usize = pass.parse().map_err(|_| usage())?;
                fuzz.sabotage = Some((mode, target));
            }
            "--timeout-ms" => {
                let ms: u64 = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                timeout = Some(Duration::from_millis(ms));
            }
            "--pass-deadline-ms" => {
                let ms: u64 = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                config = config.with_pass_deadline(Duration::from_millis(ms));
            }
            "--max-growth" => {
                let f: f64 = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                config = config.with_max_growth(f);
            }
            "--max-passes" => {
                let n: usize = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                config = config.with_max_passes(n);
            }
            "--phase" => {
                phase = match args.next().as_deref() {
                    Some("vm") => BenchPhase::Vm,
                    Some("optimize") => BenchPhase::Optimize,
                    Some("serve") => BenchPhase::Serve,
                    Some("serve-load") => BenchPhase::ServeLoad,
                    _ => return Err(usage()),
                };
            }
            "--workers" => {
                let n: usize = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                serve_cfg.workers = n.max(1);
            }
            "--queue" => {
                let n: usize = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                serve_cfg.queue_cap = n.max(1);
            }
            "--max-conns" => {
                let n: usize = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                serve_cfg.max_conns = n.max(1);
            }
            "--max-line" => {
                let n: usize = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                serve_cfg.max_line = n.max(64);
            }
            "--idle-timeout-ms" => {
                let ms: u64 = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                serve_cfg.idle_timeout = Duration::from_millis(ms.max(1));
            }
            "--drain-ms" => {
                let ms: u64 = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                serve_cfg.drain = Duration::from_millis(ms);
            }
            "--addr" => {
                addr = args.next().ok_or_else(usage)?;
            }
            "--port" => {
                let port: u16 = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
                addr = format!("127.0.0.1:{port}");
            }
            "--shards" => {
                shards = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
            }
            "--cache-bytes" => {
                cache_bytes = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
            }
            "--cache-dir" => {
                cache_dir = Some(std::path::PathBuf::from(args.next().ok_or_else(usage)?));
            }
            "--iterations" => {
                iterations = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
            }
            "--warmup" => {
                warmup = args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?;
            }
            _ if file.is_none() && !a.starts_with('-') => file = Some(a),
            _ => return Err(usage()),
        }
    }
    if let Some(f) = fuel_flag {
        fuel = f;
        fuzz.fuel = f;
    }
    // `report`, `bench`, `serve`, and `fuzz` take no file: the suite
    // commands run built-in programs, the service reads them off the
    // wire, and the farm generates its own.
    if matches!(command.as_str(), "report" | "bench" | "serve" | "fuzz") {
        return Ok(Options {
            command,
            file: String::new(),
            config,
            config_name,
            mode,
            backend,
            fuel,
            timeout,
            metrics,
            before,
            resilient,
            phase,
            vm_ops,
            iterations,
            warmup,
            addr,
            shards,
            cache_bytes,
            cache_dir,
            serve_cfg,
            fuzz,
        });
    }
    let Some(file) = file else {
        return Err(usage());
    };
    Ok(Options {
        command,
        file,
        config,
        config_name,
        mode,
        backend,
        fuel,
        timeout,
        metrics,
        before,
        resilient,
        phase,
        vm_ops,
        iterations,
        warmup,
        addr,
        shards,
        cache_bytes,
        cache_dir,
        serve_cfg,
        fuzz,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    if opts.command == "report" {
        if opts.vm_ops {
            let report = system_fj::nofib::vm_ops::run_vm_op_report();
            print!("{}", system_fj::nofib::vm_ops::format_vm_op_report(&report));
        } else {
            let rows = system_fj::nofib::run_report();
            print!("{}", system_fj::nofib::format_report(&rows));
        }
        return ExitCode::SUCCESS;
    }
    if opts.command == "bench" {
        match opts.phase {
            BenchPhase::Vm => {
                let rows = system_fj::nofib::run_bench(opts.iterations, opts.warmup);
                print!("{}", system_fj::nofib::format_bench_json(&rows));
            }
            BenchPhase::Optimize => {
                let bench = system_fj::nofib::run_bench_opt(opts.iterations, opts.warmup);
                print!("{}", system_fj::nofib::format_bench_opt_json(&bench));
            }
            BenchPhase::Serve => {
                // The service crate is nofib-blind; hand it the suite as
                // plain (name, suite, source) rows.
                let programs: Vec<(String, String, String)> = system_fj::nofib::programs()
                    .iter()
                    .map(|p| {
                        (
                            p.name.to_string(),
                            p.suite.name().to_string(),
                            p.source.to_string(),
                        )
                    })
                    .collect();
                let bench = system_fj::server::run_bench_serve(&programs);
                print!("{}", system_fj::server::format_bench_serve_json(&bench));
            }
            BenchPhase::ServeLoad => {
                let programs: Vec<(String, String, String)> = system_fj::nofib::programs()
                    .iter()
                    .map(|p| {
                        (
                            p.name.to_string(),
                            p.suite.name().to_string(),
                            p.source.to_string(),
                        )
                    })
                    .collect();
                let conns = [1usize, 2, 4, 8, 16, 32];
                match system_fj::server::run_bench_serve_load(&programs, &conns, 25) {
                    Ok(bench) => {
                        print!(
                            "{}",
                            system_fj::server::format_bench_serve_load_json(&bench)
                        );
                    }
                    Err(e) => {
                        eprintln!("fj: bench serve-load: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    if opts.command == "fuzz" {
        let cfg = &opts.fuzz;
        let sab = match cfg.sabotage {
            Some((mode, target)) => format!(", sabotage {}:{target}", mode.name()),
            None => String::new(),
        };
        println!(
            "fj fuzz: seed {}, {} cases, depth {}, adversarial bands {}{sab}",
            cfg.seed,
            cfg.cases,
            cfg.depth,
            if cfg.adversarial { "on" } else { "off" },
        );
        let report = system_fj::testkit::run_farm(cfg);
        for f in &report.failures {
            let repro = match &f.repro {
                Some(p) => format!(" (repro: {})", p.display()),
                None => String::new(),
            };
            let headline = f.shrunk_message.lines().next().unwrap_or("");
            eprintln!(
                "fj fuzz: FAIL case {} seed {:#018x}: {} vs {}: {} [shrunk {} -> {} nodes]{repro}",
                f.case,
                f.case_seed,
                f.routes.0,
                f.routes.1,
                headline,
                f.original_size,
                f.shrunk.size(),
            );
        }
        println!(
            "fj fuzz: {} run ({} with join points, {} adversarial), {} skipped, {} failures in {:.2?}",
            report.cases_run,
            report.join_programs,
            report.adversarial_cases,
            report.cases_skipped,
            report.failures.len(),
            report.elapsed,
        );
        return if report.ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    if opts.command == "serve" {
        use std::io::Write as _;
        let listener = match std::net::TcpListener::bind(&opts.addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("fj: serve: cannot bind {}: {e}", opts.addr);
                return ExitCode::from(1);
            }
        };
        let local = match listener.local_addr() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("fj: serve: {e}");
                return ExitCode::from(1);
            }
        };
        let mut state = system_fj::server::ServerState::with_config(
            opts.shards,
            opts.cache_bytes,
            opts.serve_cfg,
        );
        if let Some(dir) = &opts.cache_dir {
            match system_fj::server::FileStore::open(dir) {
                Ok(store) => state = state.with_store(std::sync::Arc::new(store)),
                Err(e) => {
                    eprintln!("fj: serve: cannot open cache dir {}: {e}", dir.display());
                    return ExitCode::from(1);
                }
            }
        }
        // Scripts parse this line to learn the ephemeral port (`--port 0`).
        println!("fj serve: listening on {local}");
        let _ = std::io::stdout().flush();
        let state = std::sync::Arc::new(state);
        return match system_fj::server::serve(listener, state) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fj: serve: {e}");
                ExitCode::from(1)
            }
        };
    }
    let src = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fj: cannot read {}: {e}", opts.file);
            return ExitCode::from(1);
        }
    };
    let mut lowered = match compile(&src) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fj: {}: {e}", opts.file);
            // Frontend stages map to distinct exit codes: lexical and
            // syntactic trouble is 2, name/type trouble during lowering
            // is 3 (the same family as lint).
            return match e {
                SurfaceError::Lex { .. } | SurfaceError::Parse { .. } => ExitCode::from(EXIT_PARSE),
                SurfaceError::Lower { .. } => ExitCode::from(EXIT_TYPE),
            };
        }
    };
    if let Err(e) = lint(&lowered.expr, &lowered.data_env) {
        eprintln!("fj: {}: lint: {e}", opts.file);
        return ExitCode::from(EXIT_TYPE);
    }
    if opts.command == "check" {
        println!("{}: OK", opts.file);
        return ExitCode::SUCCESS;
    }
    if opts.command == "dump" && opts.before {
        println!("{}", lowered.expr);
        return ExitCode::SUCCESS;
    }

    let (expr, env, config) = (&lowered.expr, &lowered.data_env, &opts.config);
    let optimized = if opts.resilient {
        optimize_resilient(expr, env, &mut lowered.supply, config)
    } else {
        optimize_with_report(expr, env, &mut lowered.supply, config)
    };
    let (optimized, report) = match optimized {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fj: optimizer: {e}");
            return ExitCode::from(EXIT_OPT);
        }
    };
    for p in report.rolled_back() {
        eprintln!("fj: optimizer: pass `{}` {}", p.pass, p.outcome);
    }

    match opts.command.as_str() {
        "dump" => {
            let (before, after) = (report.census_before.size, report.census_after.size);
            println!(
                "-- pipeline: {} ({} passes)",
                opts.config_name,
                report.passes.len()
            );
            println!("-- size: {before} -> {after}");
            println!("{optimized}");
            ExitCode::SUCCESS
        }
        "erase" => match erase(&optimized, &lowered.data_env, &mut lowered.supply) {
            Ok(erased) => {
                println!("{erased}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("fj: erase: {e}");
                ExitCode::from(1)
            }
        },
        "run" => {
            // Both backends run with the same fuel and optional deadline;
            // their budget errors map to the same exit code, so scripts
            // see `5` for "ran out of budget" regardless of backend.
            let outcome = match opts.backend {
                Backend::Machine => {
                    system_fj::eval::run_with_limits(&optimized, opts.mode, opts.fuel, opts.timeout)
                        .map_err(|e| {
                            let budget =
                                matches!(e, MachineError::OutOfFuel | MachineError::Timeout { .. });
                            (e.to_string(), budget)
                        })
                }
                Backend::Vm => {
                    system_fj::vm::run_with_limits(&optimized, opts.mode, opts.fuel, opts.timeout)
                        .map_err(|e| {
                            let budget = matches!(e, VmError::OutOfFuel | VmError::Timeout { .. });
                            (e.to_string(), budget)
                        })
                }
            };
            match outcome {
                Ok(out) => {
                    println!("{}", out.value);
                    if opts.metrics {
                        eprintln!(
                            "[{} | {:?} | {}] {}",
                            opts.config_name,
                            opts.mode,
                            opts.backend.name(),
                            out.metrics
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err((msg, budget)) => {
                    eprintln!("fj: runtime: {msg}");
                    ExitCode::from(if budget { EXIT_BUDGET } else { 1 })
                }
            }
        }
        _ => usage(),
    }
}
