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
//!                                   # Table-1-style markdown + pass stats,
//!                                   # machine / VM / native-candle times
//! fj report --vm-ops                # VM opcode histogram over nofib:
//!                                   # top ops/pairs/triples, unfused vs
//!                                   # fused dispatch counts
//! fj serve --port 0                 # compile service on an ephemeral
//!                                   # port (prints the bound address)
//! fj serve --workers 4 --queue 32   # 4 requests run at once, 32 wait
//!                                   # for a slot; the next one is shed
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
//!          --pass-deadline-ms N, --max-growth F (finite, > 0), --max-passes N,
//!          --addr HOST:PORT, --port N, --shards N, --cache-bytes N,
//!          --cache-dir DIR, --workers N, --queue N, --max-conns N,
//!          --max-line BYTES, --idle-timeout-ms N, --drain-ms N (serve only),
//!          --seed N, --count N, --gen-depth N, --time-budget-ms N,
//!          --corpus DIR, --no-adversarial, --sabotage MODE:PASS (fuzz only)
//!
//! `fj serve` speaks newline-delimited JSON over TCP; see the `fj-server`
//! crate docs and README for the protocol.
//!
//! exit codes: 0 success; 2 usage. Every other failure exits with the
//! `code` a served request answers for it (`ServeError::code`): 1 I/O or
//! other runtime error; 2 lexical or parse error; 3 lowering or lint
//! (type) error; 4 optimizer error, including a pass past `--max-growth`;
//! 5 budget exhausted (run fuel or `--timeout-ms`, `--pass-deadline-ms`
//! or `--max-passes`). Served requests also use 6 (`overloaded`: request
//! or connection shed by admission control — retry after
//! `retry_after_ms`) and 7 (`internal`: the request handler panicked).
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use system_fj::core::{erase, optimize_with_report, OptConfig};
use system_fj::eval::EvalMode;
use system_fj::server::{
    lower_checked, Backend, CompileOpts, FileStore, Preset, ServeConfig, ServeError, ServerState,
    DEFAULT_FUEL,
};
use system_fj::testkit::farm::FarmConfig;
use system_fj::testkit::Sabotage;

/// Exit code for a command line that does not parse.
const EXIT_USAGE: u8 = 2;

struct Options {
    command: String,
    file: String,
    /// Built once, after every flag is read, so flag order cannot matter.
    config: OptConfig,
    config_name: &'static str,
    mode: EvalMode,
    backend: Backend,
    fuel: u64,
    timeout: Option<Duration>,
    metrics: bool,
    before: bool,
    vm_ops: bool,
    addr: String,
    shards: usize,
    cache_bytes: usize,
    cache_dir: Option<std::path::PathBuf>,
    serve_cfg: ServeConfig,
    fuzz: FarmConfig,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fj <run|dump|check|erase> [--baseline | -O0] [--backend machine|vm] \
         [--mode name|need|value] [--fuel N] [--timeout-ms N] [--metrics] [--before] \
         [--resilient] [--pass-deadline-ms N] [--max-growth F] [--max-passes N] <file.fj>\n\
         \x20      fj report [--vm-ops]\n\
         \x20                  (nofib suite: baseline vs join points and backend\n\
         \x20                   times against native candles, markdown;\n\
         \x20                   --vm-ops prints the VM opcode-dispatch histogram)\n\
         \x20      fj serve [--addr HOST:PORT] [--port N] [--shards N]\n\
         \x20               [--cache-bytes N] [--cache-dir DIR]\n\
         \x20               [--workers N] [--queue N] [--max-conns N] [--max-line BYTES]\n\
         \x20               [--idle-timeout-ms N] [--drain-ms N]\n\
         \x20                  (--cache-dir persists compiles across restarts;\n\
         \x20                   --cache-bytes budgets each in-memory cache layer)\n\
         \x20                  (compile service; newline-delimited JSON over TCP;\n\
         \x20                   requests beyond --workers running and --queue\n\
         \x20                   waiting, and connections beyond the cap, are\n\
         \x20                   shed with an `overloaded` error, code 6)\n\
         \x20      fj fuzz [--seed N] [--count N] [--gen-depth N] [--fuel N]\n\
         \x20              [--time-budget-ms N] [--corpus DIR] [--no-adversarial]\n\
         \x20              [--sabotage MODE:PASS]\n\
         \x20                  (parallel differential fuzz farm over every compile\n\
         \x20                   route; shrunk repros land in the corpus directory)\n\
         exit codes: 1 I/O or runtime, 2 usage/parse, 3 type/lint, 4 optimizer \
         (--max-growth), 5 budget exhausted (--fuel, --timeout-ms, \
         --pass-deadline-ms, --max-passes); served requests answer the same \
         codes and also use 6 overloaded, 7 internal"
    );
    ExitCode::from(EXIT_USAGE)
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        return Err(usage());
    };
    if !matches!(
        command.as_str(),
        "run" | "dump" | "check" | "erase" | "report" | "serve" | "fuzz"
    ) {
        return Err(usage());
    }
    let mut compile = CompileOpts::default();
    let mut max_passes = None;
    let mut config_name = "join-points";
    let mut mode = EvalMode::CallByValue;
    let mut backend = Backend::Machine;
    let mut fuel = DEFAULT_FUEL;
    let mut timeout = None;
    let mut metrics = false;
    let mut before = false;
    let mut vm_ops = false;
    let mut addr = "127.0.0.1:7117".to_string();
    let mut shards = system_fj::core::cache::DEFAULT_SHARDS;
    let mut cache_bytes = system_fj::core::cache::DEFAULT_CACHE_BYTES;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut serve_cfg = ServeConfig::default();
    let mut fuzz = FarmConfig {
        corpus_dir: Some("fuzz/corpus".into()),
        ..FarmConfig::default()
    };
    let mut fuel_flag = None;
    let mut file = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => {
                compile.preset = Preset::Baseline;
                config_name = "baseline";
            }
            "-O0" => {
                compile.preset = Preset::None;
                config_name = "unoptimized";
            }
            "--metrics" => metrics = true,
            "--before" => before = true,
            "--resilient" => compile.resilient = true,
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
                compile.deadline = Some(Duration::from_millis(ms));
            }
            "--max-growth" => {
                let f = args.next().and_then(|n| n.parse().ok());
                compile.max_growth =
                    Some(f.and_then(CompileOpts::growth_factor).ok_or_else(usage)?);
            }
            "--max-passes" => {
                max_passes = Some(args.next().and_then(|n| n.parse().ok()).ok_or_else(usage)?);
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
            _ if file.is_none() && !a.starts_with('-') => file = Some(a),
            _ => return Err(usage()),
        }
    }
    if let Some(f) = fuel_flag {
        fuel = f;
        fuzz.fuel = f;
    }
    // `report`, `serve`, and `fuzz` take no file: the suite command
    // runs built-in programs, the service reads them off the wire, and
    // the farm generates its own.
    let file = if matches!(command.as_str(), "report" | "serve" | "fuzz") {
        String::new()
    } else {
        file.ok_or_else(usage)?
    };
    let mut config = compile.config();
    config.max_passes = max_passes;
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
        vm_ops,
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
    let done = match opts.command.as_str() {
        "report" => {
            report(opts.vm_ops);
            Ok(())
        }
        "fuzz" => fuzz(&opts.fuzz),
        "serve" => serve(&opts),
        _ => compile_file(&opts),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let at = if opts.file.is_empty() {
                String::new()
            } else {
                format!("{}: ", opts.file)
            };
            eprintln!("fj: {at}{}", e.message());
            ExitCode::from(e.code())
        }
    }
}

fn report(vm_ops: bool) {
    if vm_ops {
        let report = system_fj::nofib::vm_ops::run_vm_op_report();
        print!("{}", system_fj::nofib::vm_ops::format_vm_op_report(&report));
    } else {
        let rows = system_fj::nofib::run_report();
        print!("{}", system_fj::nofib::format_report(&rows));
    }
}

fn fuzz(cfg: &FarmConfig) -> Result<(), ServeError> {
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
    if report.ok() {
        Ok(())
    } else {
        Err(ServeError::Runtime(format!(
            "fuzz: {} failures",
            report.failures.len()
        )))
    }
}

fn serve(opts: &Options) -> Result<(), ServeError> {
    use std::io::Write as _;
    let io = |e: std::io::Error| ServeError::Runtime(format!("serve: {e}"));
    let listener = std::net::TcpListener::bind(&opts.addr)
        .map_err(|e| ServeError::Runtime(format!("serve: cannot bind {}: {e}", opts.addr)))?;
    let local = listener.local_addr().map_err(io)?;
    let mut state = ServerState::with_config(opts.shards, opts.cache_bytes, opts.serve_cfg.clone());
    if let Some(dir) = &opts.cache_dir {
        let store = FileStore::open(dir).map_err(|e| {
            ServeError::Runtime(format!(
                "serve: cannot open cache dir {}: {e}",
                dir.display()
            ))
        })?;
        state = state.with_store(Arc::new(store));
    }
    // Scripts parse this line to learn the ephemeral port (`--port 0`).
    println!("fj serve: listening on {local}");
    let _ = std::io::stdout().flush();
    system_fj::server::serve(listener, Arc::new(state)).map_err(io)
}

/// `run`, `dump`, `check` and `erase`: the server's uncached compile path
/// (frontend, lint, pipeline) and its backends, on one file.
fn compile_file(opts: &Options) -> Result<(), ServeError> {
    let src = std::fs::read_to_string(&opts.file)
        .map_err(|e| ServeError::Runtime(format!("cannot read: {e}")))?;
    let mut lowered = lower_checked(&src)?;
    if opts.command == "check" {
        println!("{}: OK", opts.file);
        return Ok(());
    }
    if opts.command == "dump" && opts.before {
        println!("{}", lowered.expr);
        return Ok(());
    }
    let (optimized, report) = optimize_with_report(
        &lowered.expr,
        &lowered.data_env,
        &mut lowered.supply,
        &opts.config,
    )?;
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
        }
        "erase" => println!(
            "{}",
            erase(&optimized, &lowered.data_env, &mut lowered.supply)?
        ),
        // `run`, the one command left.
        _ => {
            let out = opts
                .backend
                .run(&optimized, opts.mode, opts.fuel, opts.timeout)?;
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
        }
    }
    Ok(())
}
