//! # fj-server — `fj serve`, a sharded compile service
//!
//! A zero-dependency, std-only TCP daemon that speaks newline-delimited
//! JSON: one request object per line in, one response object per line
//! out. The point of serving compiles instead of forking `fj` per file is
//! the **content-addressed optimization cache**
//! ([`fj_core::cache::OptCache`]): editors and CI recompile the same
//! programs over and over, and optimization is a pure function of
//! `(term, datatype environment, configuration)` up to α-equivalence, so
//! the second compile of any program is a cache hit that runs **zero
//! optimizer passes**.
//!
//! That cache is one sharded, byte-budgeted LRU map with two kinds of
//! entry — **source-text entries** (a byte-identical recompile is a
//! refcount bump) and **α-class entries** (a renamed or re-spaced
//! program re-parses but runs zero passes) — over an optional
//! **persistent tier** ([`persist::FileStore`], `--cache-dir`) that
//! stores α-class entries as unparsed source and re-lowers, α-verifies,
//! and lints them on load — so a restarted daemon is warm from request
//! one, and a corrupt or stale file can only cost a miss, never a wrong
//! term. `--cache-bytes` is one budget for both entry kinds, and
//! evictions of either kind are counted; concurrent identical misses
//! are single-flighted.
//!
//! ## Protocol
//!
//! Requests are JSON objects with an `"op"` field:
//!
//! | op         | fields                                                            |
//! |------------|-------------------------------------------------------------------|
//! | `compile`  | `program` (or `programs`: array), `preset`, `resilient`, `deadline_ms`, `max_growth`, `cache` |
//! | `run`      | as `compile`, plus `backend`, `mode`, `fuel`, `timeout_ms`        |
//! | `report`   | as `compile`; responds with the full per-pass pipeline report     |
//! | `stats`    | —                                                                 |
//! | `shutdown` | —                                                                 |
//!
//! `preset` is `"join-points"` (default), `"baseline"`, or `"none"`
//! ([`Preset`]); `cache` is `"use"` (default) or `"bypass"`. A batch
//! `compile` with `"programs"` fans the batch out over
//! [`fj_core::par_map`] (scoped threads of its own, inside the one
//! request slot the batch holds) and responds with one result per
//! program, in order.
//!
//! Errors are never transport failures: the response is
//! `{"ok": false, "error": {"tag": …, "code": …, "message": …}}` where
//! `code` is [`ServeError::code`] (2 parse/protocol, 3 type/lint, 4
//! optimizer, 5 budget, 1 runtime). The `fj` CLI builds its
//! [`OptConfig`] through [`CompileOpts`], compiles through
//! [`lower_checked`] and runs through [`Backend::run`], and exits with
//! the same code for the same failure, so a served compile fails exactly
//! like a spawned one. Two tags are service-only:
//! `overloaded` (code 6) when admission control sheds a request or
//! connection — the error object carries a `retry_after_ms` hint — and
//! `internal` (code 7) when a request handler panicked and was isolated
//! by the crash-only request handling.
//!
//! ## Execution model & overload policy
//!
//! The daemon runs each request on the thread of the connection that
//! sent it, behind a **request gate** ([`service`]): a fixed number of
//! requests run at once and a bounded number wait for a slot, a
//! connection cap bounds admitted sockets, a max frame length is
//! enforced *while reading*, a connection that does not complete a frame
//! in time is disconnected, and `shutdown` drains in-flight work under a
//! deadline. When any bound is hit the server *sheds* — answers
//! `overloaded` — instead of queueing without limit. See `ServeConfig`
//! for the knobs and DESIGN.md ("Service robustness & overload policy")
//! for the rationale.

#![warn(missing_docs)]

pub mod json;
pub mod persist;
pub mod service;

pub use persist::FileStore;
pub use service::{accept_backoff, serve, ServeConfig, ServiceSnapshot};

use fj_ast::{alpha_fingerprint, DataEnv, Expr, NameSupply};
use fj_core::cache::{CacheStore, OptCache, DEFAULT_CACHE_BYTES, DEFAULT_SHARDS};
use fj_core::stats::PipelineReport;
use fj_core::{
    optimize_cached, optimize_with_report, BudgetKind, CacheStats, OptConfig, OptError, Recovery,
};
use fj_eval::{EvalMode, MachineError, Metrics, Outcome};
use fj_surface::{Lowered, SurfaceError};
use fj_vm::VmError;
use json::Value;
use service::ServiceStats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request failure, tagged with the exit code the `fj` CLI uses for
/// the same failure, so served and spawned compiles fail identically.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// Malformed request JSON, unknown op, or missing/ill-typed fields.
    Proto(String),
    /// Lexical or syntactic error in the submitted program.
    Parse(String),
    /// Lowering or lint (type) error.
    Type(String),
    /// The optimizer failed or refused a term that blew its growth budget
    /// (strict pipelines only).
    Optimizer(String),
    /// A budget was exhausted: pass deadline, pass count, run fuel, or
    /// run deadline.
    Budget(String),
    /// The program failed at runtime (`run` op), or an I/O error in the
    /// CLI.
    Runtime(String),
    /// Admission control shed this request or connection: every request
    /// slot and waiting place is taken, or the connection cap is
    /// reached. Carries a client back-off hint.
    Overloaded {
        /// What was shed (request vs connection) and why.
        message: String,
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request handler panicked; crash-only request handling
    /// isolated it.
    Internal(String),
}

impl ServeError {
    /// An [`ServeError::Overloaded`] with the given back-off hint.
    pub fn overloaded(message: &str, retry_after_ms: u64) -> ServeError {
        ServeError::Overloaded {
            message: message.to_string(),
            retry_after_ms,
        }
    }

    /// Machine-readable tag for the `error.tag` response field.
    pub fn tag(&self) -> &'static str {
        match self {
            ServeError::Proto(_) => "proto",
            ServeError::Parse(_) => "parse",
            ServeError::Type(_) => "type",
            ServeError::Optimizer(_) => "optimizer",
            ServeError::Budget(_) => "budget",
            ServeError::Runtime(_) => "runtime",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Internal(_) => "internal",
        }
    }

    /// The `fj` CLI exit code this failure maps to.
    pub fn code(&self) -> u8 {
        match self {
            ServeError::Proto(_) | ServeError::Parse(_) => 2,
            ServeError::Type(_) => 3,
            ServeError::Optimizer(_) => 4,
            ServeError::Budget(_) => 5,
            ServeError::Runtime(_) => 1,
            ServeError::Overloaded { .. } => 6,
            ServeError::Internal(_) => 7,
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            ServeError::Proto(m)
            | ServeError::Parse(m)
            | ServeError::Type(m)
            | ServeError::Optimizer(m)
            | ServeError::Budget(m)
            | ServeError::Runtime(m)
            | ServeError::Overloaded { message: m, .. }
            | ServeError::Internal(m) => m,
        }
    }

    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("tag".to_string(), Value::str(self.tag())),
            ("code".to_string(), Value::num(u64::from(self.code()))),
            ("message".to_string(), Value::str(self.message())),
        ];
        if let ServeError::Overloaded { retry_after_ms, .. } = self {
            fields.push(("retry_after_ms".to_string(), Value::num(*retry_after_ms)));
        }
        Value::obj([("error", Value::Obj(fields))])
    }
}

impl From<SurfaceError> for ServeError {
    fn from(e: SurfaceError) -> Self {
        match e {
            SurfaceError::Lex { .. } | SurfaceError::Parse { .. } => {
                ServeError::Parse(e.to_string())
            }
            SurfaceError::Lower { .. } => ServeError::Type(e.to_string()),
        }
    }
}

impl From<OptError> for ServeError {
    fn from(e: OptError) -> Self {
        match e {
            // A growth breach is the optimizer *refusing a term*, not
            // running out of time (4). The wall-clock and pass-count
            // budgets are resource exhaustion (5).
            OptError::Budget {
                kind: BudgetKind::Growth,
                ..
            } => ServeError::Optimizer(e.to_string()),
            OptError::Budget { .. } => ServeError::Budget(e.to_string()),
            OptError::Type(_) => ServeError::Type(e.to_string()),
            _ => ServeError::Optimizer(e.to_string()),
        }
    }
}

impl From<MachineError> for ServeError {
    fn from(e: MachineError) -> Self {
        match e {
            MachineError::OutOfFuel | MachineError::Timeout { .. } => {
                ServeError::Budget(e.to_string())
            }
            _ => ServeError::Runtime(e.to_string()),
        }
    }
}

impl From<VmError> for ServeError {
    fn from(e: VmError) -> Self {
        match e {
            VmError::OutOfFuel | VmError::Timeout { .. } => ServeError::Budget(e.to_string()),
            _ => ServeError::Runtime(e.to_string()),
        }
    }
}

/// Step budget of a `run` that names none (the `fuel` field, `--fuel`).
pub const DEFAULT_FUEL: u64 = 100_000_000;

/// Which execution backend runs a compiled program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The Fig. 3 substitution machine in `fj-eval` (the reference).
    Machine,
    /// The flat jump-threaded bytecode VM in `fj-vm`.
    Vm,
}

impl Backend {
    /// The name `backend` and `--backend` take.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Machine => "machine",
            Backend::Vm => "vm",
        }
    }

    /// Parse a `backend` or `--backend` value.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "machine" => Some(Backend::Machine),
            "vm" => Some(Backend::Vm),
            _ => None,
        }
    }

    /// Run a closed program under a step budget and an optional
    /// wall-clock deadline.
    ///
    /// # Errors
    ///
    /// [`ServeError::Budget`] when either budget runs out, on either
    /// backend; [`ServeError::Runtime`] for any other failure.
    pub fn run(
        self,
        term: &Expr,
        mode: EvalMode,
        fuel: u64,
        deadline: Option<Duration>,
    ) -> Result<Outcome, ServeError> {
        Ok(match self {
            Backend::Machine => fj_eval::run_with_limits(term, mode, fuel, deadline)?,
            Backend::Vm => fj_vm::run_with_limits(term, mode, fuel, deadline)?,
        })
    }
}

/// The frontend, then Core Lint: a source program lowered to a
/// well-typed Core term, ready for [`optimize_with_report`]. Uncached
/// compiles start here, in the server and in the `fj` CLI.
///
/// # Errors
///
/// [`ServeError::Parse`] for lexical and syntax errors,
/// [`ServeError::Type`] for lowering and lint errors.
pub fn lower_checked(source: &str) -> Result<Lowered, ServeError> {
    let lowered = fj_surface::compile(source)?;
    fj_check::lint(&lowered.expr, &lowered.data_env).map_err(OptError::Type)?;
    Ok(lowered)
}

/// Where a compile's result came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Served from the cache: zero passes ran.
    Hit,
    /// The pipeline ran and the result was memoized.
    Miss,
    /// The request asked to skip the cache (`"cache": "bypass"`).
    Bypass,
}

impl CacheDisposition {
    /// The `cache` response field value.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Bypass => "bypass",
        }
    }
}

/// A served compile: the optimized term, the pipeline report of the run
/// that produced it (the memoized run, on a hit), and where it came from.
pub struct Compiled {
    /// The optimized program.
    pub term: Arc<Expr>,
    /// The producing run's report.
    pub report: Arc<PipelineReport>,
    /// Hit, miss, or bypass.
    pub cache: CacheDisposition,
    /// The program's datatype environment (prelude + its `data` decls).
    pub data_env: Arc<DataEnv>,
    /// The adopting name supply, positioned past every name in `term`.
    pub supply: NameSupply,
}

/// An optimizer pipeline preset. [`Preset::name`] is the one table of
/// its wire names.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Preset {
    /// `join-points`: the paper's pipeline, the default.
    #[default]
    JoinPoints,
    /// `baseline`: the join-blind pipeline.
    Baseline,
    /// `none`: no optimizer passes.
    None,
}

impl Preset {
    const ALL: [Preset; 3] = [Preset::JoinPoints, Preset::Baseline, Preset::None];

    /// The preset's name on the wire.
    pub fn name(self) -> &'static str {
        match self {
            Preset::JoinPoints => "join-points",
            Preset::Baseline => "baseline",
            Preset::None => "none",
        }
    }

    /// The preset a wire name denotes; `None` for an unknown name.
    pub fn parse(name: &str) -> Option<Preset> {
        Preset::ALL.into_iter().find(|p| p.name() == name)
    }

    fn config(self) -> OptConfig {
        match self {
            Preset::JoinPoints => OptConfig::join_points(),
            Preset::Baseline => OptConfig::baseline(),
            Preset::None => OptConfig::none(),
        }
    }
}

/// Per-request compile options, decoded from the request object.
#[derive(Clone, Debug)]
pub struct CompileOpts {
    /// The pipeline preset.
    pub preset: Preset,
    /// Roll back failing passes instead of failing the request
    /// ([`Recovery::RollBack`]).
    pub resilient: bool,
    /// Optional per-pass deadline.
    pub deadline: Option<Duration>,
    /// Optional per-pass term-growth budget (the CLI's `--max-growth`);
    /// see [`CompileOpts::growth_factor`].
    pub max_growth: Option<f64>,
    /// `false` to skip both cache lookup and insert.
    pub use_cache: bool,
}

impl Default for CompileOpts {
    fn default() -> Self {
        CompileOpts {
            preset: Preset::JoinPoints,
            resilient: false,
            deadline: None,
            max_growth: None,
            use_cache: true,
        }
    }
}

impl CompileOpts {
    fn from_request(req: &Value) -> Result<CompileOpts, ServeError> {
        let mut opts = CompileOpts::default();
        if let Some(p) = req.get("preset") {
            let name = p
                .as_str()
                .ok_or_else(|| ServeError::Proto("`preset` must be a string".to_string()))?;
            opts.preset = Preset::parse(name)
                .ok_or_else(|| ServeError::Proto(format!("unknown preset `{name}`")))?;
        }
        if let Some(r) = req.get("resilient") {
            opts.resilient = r
                .as_bool()
                .ok_or_else(|| ServeError::Proto("`resilient` must be a boolean".to_string()))?;
        }
        if let Some(d) = req.get("deadline_ms") {
            let ms = d.as_u64().ok_or_else(|| {
                ServeError::Proto("`deadline_ms` must be a non-negative integer".to_string())
            })?;
            opts.deadline = Some(Duration::from_millis(ms));
        }
        if let Some(g) = req.get("max_growth") {
            let factor = g
                .as_f64()
                .and_then(CompileOpts::growth_factor)
                .ok_or_else(|| {
                    ServeError::Proto("`max_growth` must be a positive number".to_string())
                })?;
            opts.max_growth = Some(factor);
        }
        match req.get("cache").map(|c| c.as_str()) {
            None => {}
            Some(Some("use")) => opts.use_cache = true,
            Some(Some("bypass")) => opts.use_cache = false,
            Some(_) => {
                return Err(ServeError::Proto(
                    "`cache` must be \"use\" or \"bypass\"".to_string(),
                ))
            }
        }
        Ok(opts)
    }

    /// A growth factor the pipeline can honour: finite and above zero.
    /// Any other value would silently become a flat
    /// `GROWTH_FLOOR`-node cap, or no cap at all.
    pub fn growth_factor(factor: f64) -> Option<f64> {
        (factor.is_finite() && factor > 0.0).then_some(factor)
    }

    /// The [`OptConfig`] these options denote.
    pub fn config(&self) -> OptConfig {
        let mut cfg = self.preset.config();
        cfg.pass_deadline = self.deadline;
        cfg.max_growth = self.max_growth;
        if self.resilient {
            cfg.recovery = Recovery::RollBack;
        }
        cfg
    }
}

/// The shared state behind one `fj serve` instance: the compile cache
/// and request counters. All methods take `&self`; one
/// `Arc<ServerState>` is shared by every connection thread.
///
/// The one in-memory [`OptCache`] holds two kinds of entry under one
/// byte budget. A **source-text entry** keys on the exact source bytes
/// plus the configuration fingerprint: a byte-identical recompile skips
/// the *entire* frontend — no lexing, no parsing, no lowering, no lint —
/// and is genuinely a refcount bump. An **α-class entry** keys on the
/// α-fingerprint of the *lowered term*: a program whose binders were
/// renamed or whose whitespace moved still re-parses, but runs zero
/// optimizer passes. Both kinds serve α-equal terms by construction, so
/// either hit is reported as `"cache": "hit"` on the wire.
pub struct ServerState {
    cache: OptCache,
    requests: AtomicU64,
    started: Instant,
    shutdown: AtomicBool,
    config: ServeConfig,
    service: ServiceStats,
}

impl ServerState {
    /// A server whose [`OptCache`] spans `shards` shards under a
    /// `cache_bytes` byte budget, which both entry kinds share, and the
    /// default service geometry.
    pub fn new(shards: usize, cache_bytes: usize) -> ServerState {
        ServerState::with_config(shards, cache_bytes, ServeConfig::default())
    }

    /// A server with explicit cache geometry *and* service tuning
    /// (requests running at once, requests waiting, connection cap,
    /// frame limit, idle timeout, drain deadline).
    pub fn with_config(shards: usize, cache_bytes: usize, config: ServeConfig) -> ServerState {
        ServerState {
            cache: OptCache::with_budget(shards, cache_bytes),
            requests: AtomicU64::new(0),
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            config,
            service: ServiceStats::default(),
        }
    }

    /// A server with the default cache geometry.
    pub fn with_defaults() -> ServerState {
        ServerState::new(DEFAULT_SHARDS, DEFAULT_CACHE_BYTES)
    }

    /// Attach a persistent cache tier (e.g. a [`FileStore`]): probed on
    /// term-cache misses, written behind on every successful pipeline
    /// run, so a restarted server is warm from its first request.
    #[must_use]
    pub fn with_store(mut self, store: Arc<dyn CacheStore>) -> ServerState {
        self.cache = std::mem::take(&mut self.cache).with_store(store);
        self
    }

    /// The service tuning this server runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// A point-in-time copy of the service-layer counters (connections,
    /// admission, sheds, panics, disconnect reasons).
    pub fn service_snapshot(&self) -> ServiceSnapshot {
        self.service.snapshot()
    }

    pub(crate) fn service(&self) -> &ServiceStats {
        &self.service
    }

    /// Has a `shutdown` request been served?
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Cache counters (hits, misses, evictions, occupancy) for both
    /// entry kinds.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Frontend + optimizer for one source program, through both entry
    /// kinds of the cache.
    ///
    /// This is the library face of the `compile` op: the differential
    /// suites call it directly so they can compare *terms*, not wire
    /// strings.
    ///
    /// # Errors
    ///
    /// [`ServeError`] mirroring the CLI's exit-code families; see the
    /// crate docs.
    pub fn compile_source(&self, source: &str, opts: &CompileOpts) -> Result<Compiled, ServeError> {
        let cfg = opts.config();
        if opts.use_cache {
            if let Some((term, report, data_env, supply)) = self.cache.lookup_source(source, &cfg) {
                return Ok(Compiled {
                    term,
                    report,
                    cache: CacheDisposition::Hit,
                    data_env,
                    supply,
                });
            }
        }
        let mut lowered;
        let (term, report, cache) = if opts.use_cache {
            lowered = fj_surface::compile(source)?;
            // `optimize_cached` lints the input on every pipeline run and
            // skips the lint on α-verified hits.
            let (term, report, hit) = optimize_cached(
                &lowered.expr,
                &lowered.data_env,
                &mut lowered.supply,
                &cfg,
                &self.cache,
            )?;
            let disposition = if hit {
                CacheDisposition::Hit
            } else {
                CacheDisposition::Miss
            };
            (term, report, disposition)
        } else {
            lowered = lower_checked(source)?;
            let (out, report) =
                optimize_with_report(&lowered.expr, &lowered.data_env, &mut lowered.supply, &cfg)?;
            (Arc::new(out), Arc::new(report), CacheDisposition::Bypass)
        };
        let compiled = Compiled {
            term,
            report,
            cache,
            data_env: Arc::new(lowered.data_env),
            supply: lowered.supply,
        };
        if opts.use_cache {
            self.cache.insert_source(
                source,
                &cfg,
                &compiled.term,
                &compiled.report,
                &compiled.data_env,
                compiled.supply.peek(),
            );
        }
        Ok(compiled)
    }

    /// Handle one request line. Returns the response line (no trailing
    /// newline) and whether this request asked the server to shut down.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let req = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return (
                    error_response(&ServeError::Proto(format!("bad JSON: {e}"))),
                    false,
                )
            }
        };
        let op = req.get("op").and_then(Value::as_str).unwrap_or("");
        match op {
            "compile" => (self.op_compile(&req), false),
            "run" => (self.op_run(&req), false),
            "report" => (self.op_report(&req), false),
            "stats" => (self.op_stats(), false),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                (ok_response([("shutting_down", Value::Bool(true))]), true)
            }
            // Fault-injection ops for the chaos harness, dead unless the
            // server was built with `ServeConfig { chaos: true, .. }`:
            // a panic (exercises crash-only request isolation) and a
            // sleep (fills the request slots deterministically so tests
            // can force the queue to shed).
            "__chaos_panic" if self.config.chaos => {
                panic!("chaos: injected request panic")
            }
            "__chaos_sleep" if self.config.chaos => {
                let ms = req
                    .get("ms")
                    .and_then(Value::as_u64)
                    .unwrap_or(100)
                    .min(5_000);
                std::thread::sleep(Duration::from_millis(ms));
                (ok_response([("slept_ms", Value::num(ms))]), false)
            }
            other => (
                error_response(&ServeError::Proto(if other.is_empty() {
                    "missing `op` field".to_string()
                } else {
                    format!("unknown op `{other}`")
                })),
                false,
            ),
        }
    }

    fn op_compile(&self, req: &Value) -> String {
        let opts = match CompileOpts::from_request(req) {
            Ok(o) => o,
            Err(e) => return error_response(&e),
        };
        if let Some(batch) = req.get("programs") {
            let Some(items) = batch.as_arr() else {
                return error_response(&ServeError::Proto(
                    "`programs` must be an array of strings".to_string(),
                ));
            };
            let mut sources = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(s) => sources.push(s.to_string()),
                    None => {
                        return error_response(&ServeError::Proto(
                            "`programs` must be an array of strings".to_string(),
                        ))
                    }
                }
            }
            // The batch fans out over `par_map`, one served compile per
            // program; per-program failures stay per-program.
            let results: Vec<Value> =
                fj_core::par_map(sources, |src| match self.compile_source(&src, &opts) {
                    Ok(c) => {
                        let mut fields = vec![("ok".to_string(), Value::Bool(true))];
                        if let Value::Obj(rest) = compiled_json(&c) {
                            fields.extend(rest);
                        }
                        Value::Obj(fields)
                    }
                    Err(e) => {
                        let mut fields = vec![("ok".to_string(), Value::Bool(false))];
                        if let Value::Obj(rest) = e.to_json() {
                            fields.extend(rest);
                        }
                        Value::Obj(fields)
                    }
                });
            return Value::obj([("ok", Value::Bool(true)), ("results", Value::Arr(results))])
                .to_string();
        }
        let Some(source) = req.get("program").and_then(Value::as_str) else {
            return error_response(&ServeError::Proto(
                "missing `program` (or `programs`) field".to_string(),
            ));
        };
        match self.compile_source(source, &opts) {
            Ok(c) => {
                let mut fields = vec![("ok".to_string(), Value::Bool(true))];
                if let Value::Obj(rest) = compiled_json(&c) {
                    fields.extend(rest);
                }
                Value::Obj(fields).to_string()
            }
            Err(e) => error_response(&e),
        }
    }

    fn op_run(&self, req: &Value) -> String {
        let opts = match CompileOpts::from_request(req) {
            Ok(o) => o,
            Err(e) => return error_response(&e),
        };
        let Some(source) = req.get("program").and_then(Value::as_str) else {
            return error_response(&ServeError::Proto("missing `program` field".to_string()));
        };
        // Every run field is checked before the compile, so a malformed
        // request costs no pipeline run and leaves no cache entry.
        let backend = match req
            .get("backend")
            .map(|b| b.as_str().and_then(Backend::parse))
        {
            None => Backend::Machine,
            Some(Some(backend)) => backend,
            Some(None) => {
                return error_response(&ServeError::Proto(
                    "`backend` must be \"machine\" or \"vm\"".to_string(),
                ))
            }
        };
        let mode = match req
            .get("mode")
            .map(|m| m.as_str().and_then(EvalMode::parse))
        {
            None => EvalMode::CallByValue,
            Some(Some(mode)) => mode,
            Some(None) => {
                return error_response(&ServeError::Proto(
                    "`mode` must be \"name\", \"need\" or \"value\"".to_string(),
                ))
            }
        };
        let fuel = match req.get("fuel") {
            None => DEFAULT_FUEL,
            Some(v) => match v.as_u64() {
                Some(n) => n,
                None => {
                    return error_response(&ServeError::Proto(
                        "`fuel` must be a non-negative integer".to_string(),
                    ))
                }
            },
        };
        let timeout = match req.get("timeout_ms") {
            None => None,
            Some(v) => match v.as_u64() {
                Some(ms) => Some(Duration::from_millis(ms)),
                None => {
                    return error_response(&ServeError::Proto(
                        "`timeout_ms` must be a non-negative integer".to_string(),
                    ))
                }
            },
        };
        let compiled = match self.compile_source(source, &opts) {
            Ok(c) => c,
            Err(e) => return error_response(&e),
        };
        match backend.run(&compiled.term, mode, fuel, timeout) {
            Ok(out) => ok_response([
                ("cache", Value::str(compiled.cache.as_str())),
                ("value", Value::str(out.value.to_string())),
                ("metrics", metrics_json(&out.metrics)),
                ("backend", Value::str(backend.name())),
            ]),
            Err(e) => error_response(&e),
        }
    }

    fn op_report(&self, req: &Value) -> String {
        let opts = match CompileOpts::from_request(req) {
            Ok(o) => o,
            Err(e) => return error_response(&e),
        };
        let Some(source) = req.get("program").and_then(Value::as_str) else {
            return error_response(&ServeError::Proto("missing `program` field".to_string()));
        };
        match self.compile_source(source, &opts) {
            Ok(c) => {
                let passes: Vec<Value> = c
                    .report
                    .passes
                    .iter()
                    .map(|p| {
                        Value::obj([
                            ("pass", Value::str(p.pass)),
                            ("applied", Value::Bool(p.outcome.is_applied())),
                            ("outcome", Value::str(p.outcome.to_string())),
                            ("rewrites", Value::num(p.rewrites.total())),
                            ("size_after", Value::num(p.census_after.size as u64)),
                            ("wall_ns", Value::num(p.wall.as_nanos() as u64)),
                        ])
                    })
                    .collect();
                ok_response([
                    ("cache", Value::str(c.cache.as_str())),
                    (
                        "size_before",
                        Value::num(c.report.census_before.size as u64),
                    ),
                    ("size_after", Value::num(c.report.census_after.size as u64)),
                    ("passes", Value::Arr(passes)),
                ])
            }
            Err(e) => error_response(&e),
        }
    }

    fn op_stats(&self) -> String {
        let cache = self.cache.stats();
        let sv = self.service.snapshot();
        ok_response([
            (
                "requests",
                Value::num(self.requests.load(Ordering::Relaxed)),
            ),
            (
                "cache",
                Value::obj([
                    ("hits", Value::num(cache.hits)),
                    ("source_hits", Value::num(cache.source_hits)),
                    ("misses", Value::num(cache.misses)),
                    ("bypasses", Value::num(cache.bypasses)),
                    ("coalesced", Value::num(cache.coalesced)),
                    ("evictions", Value::num(cache.evictions)),
                    ("entries", Value::num(cache.entries as u64)),
                    ("bytes", Value::num(cache.bytes as u64)),
                    ("budget", Value::num(cache.budget as u64)),
                    ("shards", Value::num(cache.shards as u64)),
                    ("source_entries", Value::num(cache.source_entries as u64)),
                    ("source_bytes", Value::num(cache.source_bytes as u64)),
                ]),
            ),
            (
                "disk",
                Value::obj([
                    ("enabled", Value::Bool(self.cache.has_store())),
                    ("hits", Value::num(cache.disk_hits)),
                    ("misses", Value::num(cache.disk_misses)),
                    ("loads", Value::num(cache.disk_loads)),
                    ("writes", Value::num(cache.disk_writes)),
                    ("verify_failures", Value::num(cache.disk_verify_failures)),
                    ("write_failures", Value::num(cache.disk_write_failures)),
                ]),
            ),
            (
                "service",
                Value::obj([
                    ("workers", Value::num(self.config.workers as u64)),
                    ("queue_cap", Value::num(self.config.queue_cap as u64)),
                    ("max_conns", Value::num(self.config.max_conns as u64)),
                    ("max_line", Value::num(self.config.max_line as u64)),
                    ("conns_accepted", Value::num(sv.conns_accepted)),
                    ("conns_active", Value::num(sv.conns_active)),
                    ("conns_shed", Value::num(sv.conns_shed)),
                    ("accept_errors", Value::num(sv.accept_errors)),
                    ("received", Value::num(sv.received)),
                    ("completed", Value::num(sv.completed)),
                    ("failed", Value::num(sv.failed)),
                    ("shed", Value::num(sv.shed)),
                    ("panics", Value::num(sv.panics)),
                    (
                        "disconnects",
                        Value::obj([
                            ("clean", Value::num(sv.disc_clean)),
                            ("io", Value::num(sv.disc_io)),
                            ("timeout", Value::num(sv.disc_timeout)),
                            ("oversize", Value::num(sv.disc_oversize)),
                        ]),
                    ),
                    ("draining", Value::Bool(self.shutting_down())),
                ]),
            ),
            (
                "uptime_ms",
                Value::num(self.started.elapsed().as_millis() as u64),
            ),
        ])
    }
}

fn ok_response(fields: impl IntoIterator<Item = (&'static str, Value)>) -> String {
    let mut all = vec![("ok", Value::Bool(true))];
    all.extend(fields);
    Value::obj(all).to_string()
}

fn error_response(e: &ServeError) -> String {
    let mut fields = vec![("ok".to_string(), Value::Bool(false))];
    if let Value::Obj(rest) = e.to_json() {
        fields.extend(rest);
    }
    Value::Obj(fields).to_string()
}

fn compiled_json(c: &Compiled) -> Value {
    let rolled_back = c.report.rolled_back().count();
    Value::obj([
        ("cache", Value::str(c.cache.as_str())),
        (
            "fingerprint",
            Value::str(format!("{:016x}", alpha_fingerprint(&c.term))),
        ),
        (
            "size_before",
            Value::num(c.report.census_before.size as u64),
        ),
        ("size_after", Value::num(c.report.census_after.size as u64)),
        ("passes", Value::num(c.report.passes.len() as u64)),
        ("rolled_back", Value::num(rolled_back as u64)),
        ("rewrites", Value::num(c.report.totals().total())),
        ("wall_us", Value::num(c.report.wall.as_micros() as u64)),
    ])
}

fn metrics_json(m: &Metrics) -> Value {
    Value::obj([
        ("steps", Value::num(m.steps)),
        ("let_allocs", Value::num(m.let_allocs)),
        ("arg_allocs", Value::num(m.arg_allocs)),
        ("con_allocs", Value::num(m.con_allocs)),
        ("jumps", Value::num(m.jumps)),
        ("max_stack", Value::num(m.max_stack as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "\
def main : Int =
  letrec go : Int -> Int = \\(n : Int) -> if n <= 0 then 0 else go (n - 1)
  in go 5;
";

    /// A compile request line for `PROGRAM` with the given extras.
    fn compile_req(extra: &[(&'static str, Value)]) -> String {
        let mut fields = vec![
            ("op", Value::str("compile")),
            ("program", Value::str(PROGRAM)),
        ];
        fields.extend(extra.iter().cloned());
        Value::obj(fields).to_string()
    }

    #[test]
    fn second_compile_hits() {
        let state = ServerState::with_defaults();
        let (first, _) = state.handle_line(&compile_req(&[]));
        // Byte-identical resubmission: served by a source-text entry.
        let (second, _) = state.handle_line(&compile_req(&[]));
        assert!(first.contains("\"cache\": \"miss\""), "{first}");
        assert!(second.contains("\"cache\": \"hit\""), "{second}");
        // Perturbed text, α-equal term: served by an α-class entry.
        let renamed = "\
def main : Int =
  letrec walk : Int -> Int = \\(k : Int) -> if k <= 0 then 0 else walk (k - 1)
  in walk 5;
";
        let third_req = Value::obj([
            ("op", Value::str("compile")),
            ("program", Value::str(renamed)),
        ])
        .to_string();
        let (third, _) = state.handle_line(&third_req);
        assert!(third.contains("\"cache\": \"hit\""), "{third}");
        let first = json::parse(&first).unwrap();
        let second = json::parse(&second).unwrap();
        let third = json::parse(&third).unwrap();
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(
            first.get("fingerprint").and_then(Value::as_str),
            second.get("fingerprint").and_then(Value::as_str),
            "textual hit must return the same optimized term"
        );
        assert_eq!(
            first.get("fingerprint").and_then(Value::as_str),
            third.get("fingerprint").and_then(Value::as_str),
            "α-hit must return the same optimized term"
        );
        let (stats, _) = state.handle_line(r#"{"op": "stats"}"#);
        let stats = json::parse(&stats).unwrap();
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Value::as_u64), Some(1));
        assert_eq!(cache.get("source_hits").and_then(Value::as_u64), Some(1));
        assert_eq!(cache.get("misses").and_then(Value::as_u64), Some(1));
        assert_eq!(stats.get("requests").and_then(Value::as_u64), Some(4));
    }

    #[test]
    fn cache_bypass_never_hits() {
        let state = ServerState::with_defaults();
        for _ in 0..2 {
            let (resp, _) = state.handle_line(&compile_req(&[("cache", Value::str("bypass"))]));
            assert!(resp.contains("\"cache\": \"bypass\""), "{resp}");
        }
        assert_eq!(state.cache_stats().entries, 0);
    }

    #[test]
    fn error_tags_mirror_cli_exit_codes() {
        let state = ServerState::with_defaults();
        let cases: Vec<(String, &str, u64)> = vec![
            ("{not json".to_string(), "proto", 2),
            (r#"{"op": "mystery"}"#.to_string(), "proto", 2),
            (r#"{"op": "compile"}"#.to_string(), "proto", 2),
            (
                Value::obj([
                    ("op", Value::str("compile")),
                    ("program", Value::str("def main : Int = (;")),
                ])
                .to_string(),
                "parse",
                2,
            ),
            (
                Value::obj([
                    ("op", Value::str("compile")),
                    ("program", Value::str("def main : Int = nonexistent;")),
                ])
                .to_string(),
                "type",
                3,
            ),
            (
                Value::obj([
                    ("op", Value::str("run")),
                    ("program", Value::str(PROGRAM)),
                    ("fuel", Value::num(1)),
                ])
                .to_string(),
                "budget",
                5,
            ),
            (compile_req(&[("preset", Value::str("fast"))]), "proto", 2),
            (compile_req(&[("preset", Value::num(5))]), "proto", 2),
        ];
        for (line, tag, code) in cases {
            let (resp, _) = state.handle_line(&line);
            let v = json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{resp}");
            let err = v.get("error").expect("error object");
            assert_eq!(err.get("tag").and_then(Value::as_str), Some(tag), "{resp}");
            assert_eq!(
                err.get("code").and_then(Value::as_u64),
                Some(code),
                "{resp}"
            );
        }
    }

    /// The adversarial bands on the wire. One step inside the parser's
    /// depth limit compiles; one step outside is a clean `parse`/2. A
    /// strict compile that blows the per-pass growth budget is
    /// `optimizer`/4 — the optimizer refused the term, matching the
    /// CLI's exit code — while a generous budget compiles the same
    /// program, and a malformed budget is rejected at the protocol.
    #[test]
    fn adversarial_bands_fail_cleanly_on_the_served_route() {
        let state = ServerState::with_defaults();
        let compile = |extra: &[(&'static str, Value)]| {
            let (resp, _) = state.handle_line(&compile_req(extra));
            json::parse(&resp).unwrap()
        };

        // Parser depth: each paren pair descends two grammar levels.
        let deep = |pairs: usize| {
            format!(
                "def main : Int = {}1{};",
                "(".repeat(pairs),
                ")".repeat(pairs)
            )
        };
        let limit_pairs = fj_surface::MAX_NESTING_DEPTH / 2;
        let inside = compile(&[("program", Value::str(deep(limit_pairs - 1)))]);
        assert_eq!(inside.get("ok").and_then(Value::as_bool), Some(true));
        let outside = compile(&[("program", Value::str(deep(limit_pairs)))]);
        let err = outside.get("error").expect("error object");
        assert_eq!(err.get("tag").and_then(Value::as_str), Some("parse"));
        assert_eq!(err.get("code").and_then(Value::as_u64), Some(2));
        assert!(
            err.get("message")
                .and_then(Value::as_str)
                .is_some_and(|m| m.contains("nesting exceeds depth limit")),
            "{outside}"
        );

        // Growth budget: a large non-foldable loop body keeps its size
        // through contification, so a factor below 1 must trip.
        let terms: Vec<String> = (1..120).map(|i| format!("n * {i}")).collect();
        let big = format!(
            "def main : Int =\n  letrec loop : Int -> Int -> Int =\n    \
             \\(n : Int) (acc : Int) ->\n      \
             if n <= 0 then acc else loop (n - 1) (acc + {})\n  in loop 10 0;",
            terms.join(" + ")
        );
        let tripped = compile(&[
            ("program", Value::str(big.clone())),
            ("max_growth", Value::Num(0.5)),
        ]);
        let err = tripped.get("error").expect("error object");
        assert_eq!(err.get("tag").and_then(Value::as_str), Some("optimizer"));
        assert_eq!(err.get("code").and_then(Value::as_u64), Some(4));
        assert!(
            err.get("message")
                .and_then(Value::as_str)
                .is_some_and(|m| m.contains("growth budget")),
            "{tripped}"
        );
        let generous = compile(&[
            ("program", Value::str(big)),
            ("max_growth", Value::Num(100.0)),
        ]);
        assert_eq!(
            generous.get("ok").and_then(Value::as_bool),
            Some(true),
            "{generous}"
        );

        // `1e999` overflows to infinity, which is no factor either.
        for factor in ["-1", "0", "1e999"] {
            let line = compile_req(&[("max_growth", Value::num(7))])
                .replace("\"max_growth\": 7", &format!("\"max_growth\": {factor}"));
            let (resp, _) = state.handle_line(&line);
            let malformed = json::parse(&resp).unwrap();
            let err = malformed.get("error").expect("error object");
            assert_eq!(err.get("tag").and_then(Value::as_str), Some("proto"));
            assert_eq!(err.get("code").and_then(Value::as_u64), Some(2));
            assert!(
                err.get("message")
                    .and_then(Value::as_str)
                    .is_some_and(|m| m.contains("max_growth")),
                "{factor}: {resp}"
            );
        }
    }

    #[test]
    fn run_op_executes_on_both_backends() {
        let state = ServerState::with_defaults();
        for backend in ["machine", "vm"] {
            let req = Value::obj([
                ("op", Value::str("run")),
                ("program", Value::str(PROGRAM)),
                ("backend", Value::str(backend)),
            ])
            .to_string();
            let (resp, _) = state.handle_line(&req);
            let v = json::parse(&resp).unwrap();
            assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true), "{resp}");
            assert_eq!(v.get("value").and_then(Value::as_str), Some("0"), "{resp}");
            assert!(v.get("metrics").and_then(|m| m.get("steps")).is_some());
        }
    }

    /// Malformed `run` fields are refused at the protocol before the
    /// program is compiled, so they leave no cache entry behind.
    #[test]
    fn run_op_rejects_bad_backend_or_mode_before_compiling() {
        let state = ServerState::with_defaults();
        for (field, value) in [
            ("backend", Value::num(5)),
            ("mode", Value::num(5)),
            ("backend", Value::str("gpu")),
            ("mode", Value::str("lazy")),
        ] {
            let req = Value::obj([
                ("op", Value::str("run")),
                ("program", Value::str(PROGRAM)),
                (field, value),
            ])
            .to_string();
            let (resp, _) = state.handle_line(&req);
            let v = json::parse(&resp).unwrap();
            let err = v.get("error").unwrap_or_else(|| panic!("{req}: {resp}"));
            assert_eq!(
                err.get("tag").and_then(Value::as_str),
                Some("proto"),
                "{resp}"
            );
            assert_eq!(err.get("code").and_then(Value::as_u64), Some(2), "{resp}");
        }
        let stats = state.cache_stats();
        assert_eq!((stats.misses, stats.source_entries), (0, 0));
    }

    #[test]
    fn batch_compile_fans_out_and_keeps_order() {
        let state = ServerState::with_defaults();
        let programs: Vec<Value> = (0..6)
            .map(|i| Value::str(format!("def main : Int = {i} + {i};")))
            .chain([Value::str("def main : Int = (;")])
            .collect();
        let req = Value::obj([
            ("op", Value::str("compile")),
            ("programs", Value::Arr(programs)),
        ])
        .to_string();
        let (resp, _) = state.handle_line(&req);
        let v = json::parse(&resp).unwrap();
        let results = v.get("results").and_then(Value::as_arr).unwrap();
        assert_eq!(results.len(), 7);
        for r in &results[..6] {
            assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r}");
        }
        assert_eq!(
            results[6]
                .get("error")
                .and_then(|e| e.get("tag"))
                .and_then(Value::as_str),
            Some("parse")
        );
    }

    #[test]
    fn report_op_lists_passes() {
        let state = ServerState::with_defaults();
        let req = Value::obj([
            ("op", Value::str("report")),
            ("program", Value::str(PROGRAM)),
        ])
        .to_string();
        let (resp, _) = state.handle_line(&req);
        let v = json::parse(&resp).unwrap();
        let passes = v.get("passes").and_then(Value::as_arr).unwrap();
        assert!(!passes.is_empty());
        assert!(passes
            .iter()
            .all(|p| p.get("applied").and_then(Value::as_bool) == Some(true)));
    }

    #[test]
    fn live_tcp_round_trip_and_shutdown() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let state = Arc::new(ServerState::with_defaults());
        let server = std::thread::spawn({
            let state = Arc::clone(&state);
            move || serve(listener, state)
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut send = |line: &str| {
            writeln!(writer, "{line}").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            resp
        };
        let first = send(&compile_req(&[]));
        assert!(first.contains("\"cache\": \"miss\""), "{first}");
        let second = send(&compile_req(&[]));
        assert!(second.contains("\"cache\": \"hit\""), "{second}");
        let bye = send(r#"{"op": "shutdown"}"#);
        assert!(bye.contains("\"shutting_down\": true"), "{bye}");
        server.join().unwrap().unwrap();
        assert!(state.shutting_down());
    }

    #[test]
    fn source_cache_is_byte_bounded_and_lru() {
        // A budget sized for a couple of programs on one shard.
        let state = ServerState::new(1, 8_192);
        let opts = CompileOpts::default();
        let hot = "def main : Int = 7 * 6;";
        assert_eq!(
            state.compile_source(hot, &opts).unwrap().cache,
            CacheDisposition::Miss
        );
        for i in 0..12 {
            let cold = format!("def main : Int = {i} + {i} * {i};");
            let _ = state.compile_source(&cold, &opts).unwrap();
            // Re-touch the hot program between every cold insert.
            assert_eq!(
                state.compile_source(hot, &opts).unwrap().cache,
                CacheDisposition::Hit,
                "round {i}: LRU must keep the repeatedly-hit source"
            );
            let stats = state.cache_stats();
            assert!(
                stats.bytes + stats.source_bytes <= 8_192,
                "budget exceeded: {stats:?}"
            );
        }
        let stats = state.cache_stats();
        assert!(
            stats.source_entries < 13,
            "churn must have evicted cold sources"
        );
    }

    /// `--cache-bytes` is one budget: source-text and α-class entries
    /// share it, and the evictions of both are counted. Every program
    /// below is a miss that inserts one entry of each kind, and each
    /// entry fits the budget on its own.
    #[test]
    fn colliding_source_keys_replace_instead_of_starving() {
        // Regression: the source-text cache used to keep the incumbent
        // on a key collision, so the colliding program could never be
        // cached. Every key collides here, for both entry kinds.
        let mut state = ServerState::with_defaults();
        state.cache = OptCache::with_budget(1, DEFAULT_CACHE_BYTES).with_colliding_keys();
        let opts = CompileOpts::default();
        let src_a = "def main : Int = 1 + 1;";
        let src_b = "def main : Int = 2 + 2;";
        let compile = |src| state.compile_source(src, &opts).unwrap();
        let a = compile(src_a);
        // The collision is detected (exact text, then α-equality), not
        // served:
        let b = compile(src_b);
        assert_eq!(b.cache, CacheDisposition::Miss);
        assert!(!fj_ast::alpha_eq(&a.term, &b.term), "A and B must differ");
        // ...and the colliding insert replaced A, so B is cacheable:
        let b2 = compile(src_b);
        assert_eq!(b2.cache, CacheDisposition::Hit);
        assert_eq!(
            state.cache_stats().source_hits,
            1,
            "B's source-text entry was starved"
        );
        assert!(
            Arc::ptr_eq(&b2.term, &b.term),
            "replaced entry must serve B's term, not A's"
        );
        let a2 = compile(src_a);
        assert_eq!(a2.cache, CacheDisposition::Miss);
        assert!(fj_ast::alpha_eq(&a2.term, &a.term));
        let stats = state.cache_stats();
        assert_eq!((stats.entries, stats.source_entries), (1, 1));
    }

    #[test]
    fn one_budget_bounds_both_entry_kinds() {
        const BUDGET: usize = 8_192;
        const PROGRAMS: usize = 40;
        let state = ServerState::new(1, BUDGET);
        let opts = CompileOpts::default();
        for i in 0..PROGRAMS {
            let source = format!("def main : Int = {i} + {i} * {i};");
            let compiled = state.compile_source(&source, &opts).unwrap();
            assert_eq!(compiled.cache, CacheDisposition::Miss, "program {i}");
            let stats = state.cache_stats();
            assert!(
                stats.bytes + stats.source_bytes <= BUDGET,
                "program {i}: both kinds exceed the one budget: {stats:?}"
            );
        }
        let stats = state.cache_stats();
        assert_eq!(
            stats.entries + stats.source_entries + stats.evictions as usize,
            2 * PROGRAMS,
            "every inserted entry is resident or counted as evicted: {stats:?}"
        );
    }
}
