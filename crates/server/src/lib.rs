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
//! Three cache tiers stack under the service: a sharded, byte-budgeted
//! LRU **textual front cache** (a byte-identical recompile is a refcount
//! bump), the byte-budgeted LRU **term cache** above, and an optional
//! **persistent tier** ([`persist::FileStore`], `--cache-dir`) that
//! stores entries as unparsed source and re-lowers, α-verifies, and
//! lints them on load — so a restarted daemon is warm from request one,
//! and a corrupt or stale file can only cost a miss, never a wrong
//! term. `--cache-bytes` budgets each in-memory layer; concurrent
//! identical misses are single-flighted by the term cache.
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
//! `preset` is `"join-points"` (default), `"baseline"`, or `"none"`;
//! `cache` is `"use"` (default) or `"bypass"`. A batch `compile` with
//! `"programs"` fans the batch out over [`fj_core::par_map`] (scoped
//! threads of its own, not the service's worker pool) and responds with
//! one result per program, in order.
//!
//! Errors are never transport failures: the response is
//! `{"ok": false, "error": {"tag": …, "code": …, "message": …}}` where
//! `code` matches the `fj` CLI's exit codes (2 parse/protocol, 3
//! type/lint, 4 optimizer, 5 budget, 1 runtime), so a script can treat a
//! served compile exactly like a spawned one. Two tags are service-only:
//! `overloaded` (code 6) when admission control sheds a request or
//! connection — the error object carries a `retry_after_ms` hint — and
//! `internal` (code 7) when a request handler panicked and was isolated
//! by the crash-only worker pool.
//!
//! ## Execution model & overload policy
//!
//! The daemon runs a **bounded worker pool** fed by a **bounded queue**
//! ([`service`]): a fixed number of workers handle requests, a
//! connection cap bounds admitted sockets, a max frame length is
//! enforced *while reading*, idle connections are disconnected, and
//! `shutdown` drains in-flight work under a deadline. When any bound is
//! hit the server *sheds* — answers `overloaded` — instead of queueing
//! without limit. See `ServeConfig` for the knobs and DESIGN.md
//! ("Service robustness & overload policy") for the rationale.

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
    optimize_cached, optimize_resilient, optimize_with_report, BudgetKind, CacheStats, OptConfig,
    OptError,
};
use fj_eval::{EvalMode, MachineError, Metrics, Outcome};
use fj_surface::SurfaceError;
use fj_vm::VmError;
use json::Value;
use service::ServiceStats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A request failure, tagged like the `fj` CLI's exit codes so served
/// and spawned compiles fail identically.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// Malformed request JSON, unknown op, or missing/ill-typed fields.
    Proto(String),
    /// Lexical or syntactic error in the submitted program.
    Parse(String),
    /// Lowering or lint (type) error.
    Type(String),
    /// The optimizer failed (strict pipelines only).
    Optimizer(String),
    /// A budget was exhausted: pass deadline, run fuel, or run deadline.
    Budget(String),
    /// The program failed at runtime (`run` op only).
    Runtime(String),
    /// Admission control shed this request or connection: the worker
    /// queue or connection cap is full. Carries a client back-off hint.
    Overloaded {
        /// What was shed (request vs connection) and why.
        message: String,
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request handler panicked; the crash-only worker isolated it.
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

fn opt_error(e: &OptError) -> ServeError {
    match e {
        // A growth breach is the optimizer *refusing a term*, not running
        // out of time — the CLI exits 4 for it, so the served code must
        // match. The wall-clock and pass-count budgets stay in the budget
        // family (5).
        OptError::Budget {
            kind: BudgetKind::Growth,
            ..
        } => ServeError::Optimizer(e.to_string()),
        OptError::Budget { .. } => ServeError::Budget(e.to_string()),
        OptError::Type(_) => ServeError::Type(e.to_string()),
        _ => ServeError::Optimizer(e.to_string()),
    }
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

/// Per-request compile options, decoded from the request object.
#[derive(Clone, Debug)]
pub struct CompileOpts {
    /// Pipeline preset name: `join-points`, `baseline`, or `none`.
    pub preset: String,
    /// Roll back failing passes instead of failing the request.
    pub resilient: bool,
    /// Optional per-pass deadline.
    pub deadline: Option<Duration>,
    /// Optional per-pass term-growth budget (the CLI's `--max-growth`).
    pub max_growth: Option<f64>,
    /// `false` to skip both cache lookup and insert.
    pub use_cache: bool,
}

impl Default for CompileOpts {
    fn default() -> Self {
        CompileOpts {
            preset: "join-points".to_string(),
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
            opts.preset = p
                .as_str()
                .ok_or_else(|| ServeError::Proto("`preset` must be a string".to_string()))?
                .to_string();
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
            let factor = g.as_f64().filter(|f| *f > 0.0).ok_or_else(|| {
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
        opts.config()
            .ok_or_else(|| ServeError::Proto(format!("unknown preset `{}`", opts.preset)))?;
        Ok(opts)
    }

    /// The [`OptConfig`] these options denote; `None` for an unknown
    /// preset name.
    pub fn config(&self) -> Option<OptConfig> {
        let cfg = match self.preset.as_str() {
            "join-points" => OptConfig::join_points(),
            "baseline" => OptConfig::baseline(),
            "none" => OptConfig::none(),
            _ => return None,
        };
        let cfg = match self.deadline {
            Some(limit) => cfg.with_pass_deadline(limit),
            None => cfg,
        };
        Some(match self.max_growth {
            Some(factor) => cfg.with_max_growth(factor),
            None => cfg,
        })
    }
}

/// Key of the textual front cache: source hash, configuration
/// fingerprint, and mode bit. The entry stores the full source for an
/// exact-match check, so a 64-bit collision can never serve a wrong term.
type SourceKey = (u64, u64, bool);

/// One memoized `(source text, configuration)` compile.
struct SourceEntry {
    source: String,
    term: Arc<Expr>,
    report: Arc<PipelineReport>,
    data_env: Arc<DataEnv>,
    supply: NameSupply,
    /// Budget charge: source bytes plus an estimate of both terms.
    bytes: usize,
    /// LRU stamp (the server's source clock at the last hit or insert).
    stamp: u64,
}

/// One shard of the textual front cache: a byte-bounded LRU map.
#[derive(Default)]
struct SourceShard {
    map: std::collections::HashMap<SourceKey, SourceEntry>,
    /// Sum of `bytes` over resident entries; bounded by the per-shard
    /// slice of the budget.
    bytes: usize,
}

/// Per-node byte estimate when charging a source entry's retained terms
/// against the budget (mirrors the term cache's own accounting).
const SOURCE_NODE_BYTES: usize = 96;

/// Fixed overhead charged per source entry.
const SOURCE_ENTRY_OVERHEAD: usize = 256;

fn source_hash(source: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    source.hash(&mut h);
    h.finish()
}

/// The shared state behind one `fj serve` instance: the two cache layers
/// and request counters. All methods take `&self`; one
/// `Arc<ServerState>` is shared by every connection thread.
///
/// Caching is two-layered. The **textual front cache** keys on the exact
/// source bytes plus the configuration fingerprint: a byte-identical
/// recompile skips the *entire* frontend — no lexing, no parsing, no
/// lowering, no lint — and is genuinely a refcount bump. Behind it sits
/// the **content-addressed [`OptCache`]**, which keys on the
/// α-fingerprint of the *lowered term*: a program whose binders were
/// renamed or whose whitespace moved still re-parses, but runs zero
/// optimizer passes. Both layers serve α-equal terms by construction, so
/// either hit is reported as `"cache": "hit"` on the wire.
pub struct ServerState {
    cache: OptCache,
    sources: Vec<Mutex<SourceShard>>,
    /// Per-shard slice of the textual layer's byte budget.
    source_budget: usize,
    /// Monotonic LRU clock for the textual layer.
    source_clock: AtomicU64,
    source_hits: AtomicU64,
    requests: AtomicU64,
    started: Instant,
    shutdown: AtomicBool,
    config: ServeConfig,
    service: ServiceStats,
}

impl ServerState {
    /// A server whose [`OptCache`] spans `shards` shards under a
    /// `cache_bytes` byte budget (the textual front cache gets an equal
    /// budget of its own) and the default service geometry.
    pub fn new(shards: usize, cache_bytes: usize) -> ServerState {
        ServerState::with_config(shards, cache_bytes, ServeConfig::default())
    }

    /// A server with explicit cache geometry *and* service tuning
    /// (worker pool size, queue capacity, connection cap, frame limit,
    /// idle timeout, drain deadline).
    pub fn with_config(shards: usize, cache_bytes: usize, config: ServeConfig) -> ServerState {
        let shards = shards.max(1);
        ServerState {
            cache: OptCache::with_budget(shards, cache_bytes),
            sources: (0..shards)
                .map(|_| Mutex::new(SourceShard::default()))
                .collect(),
            source_budget: cache_bytes / shards,
            source_clock: AtomicU64::new(1),
            source_hits: AtomicU64::new(0),
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

    /// The shard lock for one source key, surviving poisoning: a
    /// panicking request handler (isolated by the crash-only worker
    /// pool) must degrade to an `internal` error for *that* request, not
    /// wedge every future cache lookup behind a poisoned mutex.
    fn lock_sources(&self, key: &SourceKey) -> MutexGuard<'_, SourceShard> {
        let mix = key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13)
            ^ key.1.rotate_left(29)
            ^ u64::from(key.2);
        self.sources[(mix as usize) % self.sources.len()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Cache counters (hits, misses, evictions, occupancy) for the
    /// content-addressed term cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// How many requests were served by the textual front cache.
    pub fn source_hits(&self) -> u64 {
        self.source_hits.load(Ordering::Relaxed)
    }

    fn source_lookup(&self, key: SourceKey, source: &str) -> Option<Compiled> {
        let mut shard = self.lock_sources(&key);
        let entry = shard.map.get_mut(&key)?;
        // The hash key can collide; the stored text makes the hit exact.
        if entry.source != source {
            return None;
        }
        entry.stamp = self.source_clock.fetch_add(1, Ordering::Relaxed);
        Some(Compiled {
            term: Arc::clone(&entry.term),
            report: Arc::clone(&entry.report),
            cache: CacheDisposition::Hit,
            data_env: Arc::clone(&entry.data_env),
            supply: entry.supply.clone(),
        })
    }

    fn source_insert(&self, key: SourceKey, source: &str, compiled: &Compiled) {
        let cost = source.len()
            + (compiled.report.census_before.size + compiled.report.census_after.size)
                * SOURCE_NODE_BYTES
            + SOURCE_ENTRY_OVERHEAD;
        if cost > self.source_budget {
            return;
        }
        let mut shard = self.lock_sources(&key);
        // This insert only runs after a full compile, i.e. after
        // `source_lookup` declined — either the key is vacant or it holds
        // a *different* source that hashed onto it. Replacing (rather
        // than keeping the incumbent) means a collision can never starve
        // a program of caching: last writer wins.
        if let Some(old) = shard.map.remove(&key) {
            shard.bytes -= old.bytes;
        }
        // Byte-budgeted LRU, matching the term cache's policy.
        while shard.bytes + cost > self.source_budget && !shard.map.is_empty() {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                if let Some(e) = shard.map.remove(&oldest) {
                    shard.bytes -= e.bytes;
                }
            }
        }
        shard.bytes += cost;
        shard.map.insert(
            key,
            SourceEntry {
                source: source.to_string(),
                term: Arc::clone(&compiled.term),
                report: Arc::clone(&compiled.report),
                data_env: Arc::clone(&compiled.data_env),
                supply: compiled.supply.clone(),
                bytes: cost,
                stamp: self.source_clock.fetch_add(1, Ordering::Relaxed),
            },
        );
    }

    /// Occupancy of the textual front cache: `(entries, bytes)` summed
    /// over shards.
    pub fn source_occupancy(&self) -> (usize, usize) {
        self.sources
            .iter()
            .map(|s| {
                let s = s.lock().unwrap_or_else(PoisonError::into_inner);
                (s.map.len(), s.bytes)
            })
            .fold((0, 0), |(n, b), (n2, b2)| (n + n2, b + b2))
    }

    /// Frontend + optimizer for one source program, through both cache
    /// layers.
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
        let cfg = opts
            .config()
            .ok_or_else(|| ServeError::Proto(format!("unknown preset `{}`", opts.preset)))?;
        let src_key = cfg
            .fingerprint()
            .map(|cfg_fp| (source_hash(source), cfg_fp, opts.resilient));
        if opts.use_cache {
            if let Some(key) = src_key {
                if let Some(compiled) = self.source_lookup(key, source) {
                    self.source_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(compiled);
                }
            }
        }
        let mut lowered = fj_surface::compile(source).map_err(|e| match e {
            SurfaceError::Lex { .. } | SurfaceError::Parse { .. } => {
                ServeError::Parse(e.to_string())
            }
            SurfaceError::Lower { .. } => ServeError::Type(e.to_string()),
        })?;
        let (term, report, cache) = if opts.use_cache {
            // `optimize_cached` lints the input on every pipeline run and
            // skips the lint on α-verified hits.
            let (term, report, hit) = optimize_cached(
                &lowered.expr,
                &lowered.data_env,
                &mut lowered.supply,
                &cfg,
                opts.resilient,
                &self.cache,
            )
            .map_err(|e| opt_error(&e))?;
            let disposition = if hit {
                CacheDisposition::Hit
            } else {
                CacheDisposition::Miss
            };
            (term, report, disposition)
        } else {
            fj_check::lint(&lowered.expr, &lowered.data_env)
                .map_err(|e| ServeError::Type(format!("ill-typed input: {e}")))?;
            let run = if opts.resilient {
                optimize_resilient(&lowered.expr, &lowered.data_env, &mut lowered.supply, &cfg)
            } else {
                optimize_with_report(&lowered.expr, &lowered.data_env, &mut lowered.supply, &cfg)
            };
            let (out, report) = run.map_err(|e| opt_error(&e))?;
            (Arc::new(out), Arc::new(report), CacheDisposition::Bypass)
        };
        let compiled = Compiled {
            term,
            report,
            cache,
            data_env: Arc::new(lowered.data_env),
            supply: lowered.supply,
        };
        // A deadline rollback depends on timing, so it is never memoized.
        if opts.use_cache && !compiled.report.hit_deadline() {
            if let Some(key) = src_key {
                self.source_insert(key, source, &compiled);
            }
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
            // sleep (fills the worker pool deterministically so tests
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
        let backend = match req.get("backend").map(Value::as_str) {
            None | Some(Some("machine")) => "machine",
            Some(Some("vm")) => "vm",
            Some(_) => {
                return error_response(&ServeError::Proto(
                    "`backend` must be \"machine\" or \"vm\"".to_string(),
                ))
            }
        };
        let mode = match req.get("mode").map(Value::as_str) {
            None | Some(Some("value")) => EvalMode::CallByValue,
            Some(Some("name")) => EvalMode::CallByName,
            Some(Some("need")) => EvalMode::CallByNeed,
            Some(_) => {
                return error_response(&ServeError::Proto(
                    "`mode` must be \"name\", \"need\" or \"value\"".to_string(),
                ))
            }
        };
        let fuel = match req.get("fuel") {
            None => 100_000_000,
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
        let outcome: Result<Outcome, ServeError> = if backend == "vm" {
            fj_vm::run_with_limits(&compiled.term, mode, fuel, timeout).map_err(|e| match e {
                VmError::OutOfFuel | VmError::Timeout { .. } => ServeError::Budget(e.to_string()),
                other => ServeError::Runtime(other.to_string()),
            })
        } else {
            fj_eval::run_with_limits(&compiled.term, mode, fuel, timeout).map_err(|e| match e {
                MachineError::OutOfFuel | MachineError::Timeout { .. } => {
                    ServeError::Budget(e.to_string())
                }
                other => ServeError::Runtime(other.to_string()),
            })
        };
        match outcome {
            Ok(out) => ok_response([
                ("cache", Value::str(compiled.cache.as_str())),
                ("value", Value::str(out.value.to_string())),
                ("metrics", metrics_json(&out.metrics)),
                ("backend", Value::str(backend)),
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
        let (source_entries, source_bytes) = self.source_occupancy();
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
                    ("source_hits", Value::num(self.source_hits())),
                    ("misses", Value::num(cache.misses)),
                    ("bypasses", Value::num(cache.bypasses)),
                    ("coalesced", Value::num(cache.coalesced)),
                    ("evictions", Value::num(cache.evictions)),
                    ("entries", Value::num(cache.entries as u64)),
                    ("bytes", Value::num(cache.bytes as u64)),
                    ("budget", Value::num(cache.budget as u64)),
                    ("shards", Value::num(cache.shards as u64)),
                    ("source_entries", Value::num(source_entries as u64)),
                    ("source_bytes", Value::num(source_bytes as u64)),
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
        // Byte-identical resubmission: served by the textual front cache.
        let (second, _) = state.handle_line(&compile_req(&[]));
        assert!(first.contains("\"cache\": \"miss\""), "{first}");
        assert!(second.contains("\"cache\": \"hit\""), "{second}");
        // Perturbed text, α-equal term: served by the term cache.
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

        let malformed = compile(&[("max_growth", Value::Num(-1.0))]);
        let err = malformed.get("error").expect("error object");
        assert_eq!(err.get("tag").and_then(Value::as_str), Some("proto"));
        assert_eq!(err.get("code").and_then(Value::as_u64), Some(2));
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
        assert_eq!(state.cache_stats().misses, 0);
        assert_eq!(state.source_occupancy().0, 0);
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
    fn colliding_source_keys_replace_instead_of_starving() {
        // Regression: `source_insert` used to keep the incumbent on a
        // key collision, so the colliding program could never be cached.
        // Drive the private API with a fabricated shared key.
        let state = ServerState::with_defaults();
        let opts = CompileOpts::default();
        let src_a = "def main : Int = 1 + 1;";
        let src_b = "def main : Int = 2 + 2;";
        let a = state.compile_source(src_a, &opts).unwrap();
        let b = state.compile_source(src_b, &opts).unwrap();
        let key: SourceKey = (42, 42, false);
        state.source_insert(key, src_a, &a);
        // The collision is detected (exact text mismatch), not served:
        assert!(state.source_lookup(key, src_b).is_none());
        // ...and the colliding insert replaces, so B becomes cacheable:
        state.source_insert(key, src_b, &b);
        let got = state.source_lookup(key, src_b).expect("B must be resident");
        assert!(
            fj_ast::alpha_eq(&got.term, &b.term),
            "replaced entry must serve B's term, not A's"
        );
        assert!(state.source_lookup(key, src_a).is_none());
    }

    #[test]
    fn source_cache_is_byte_bounded_and_lru() {
        // A budget sized for a couple of entries on one shard.
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
            let (_, bytes) = state.source_occupancy();
            assert!(bytes <= 8_192, "source budget exceeded: {bytes}");
        }
        let (entries, _) = state.source_occupancy();
        assert!(entries < 13, "churn must have evicted cold sources");
    }
}
