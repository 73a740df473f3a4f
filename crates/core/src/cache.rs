//! The one in-memory compile cache: sharded, content-addressed, holding
//! α-class and source-text entries under one byte-budgeted LRU policy,
//! with per-key single-flight and an optional persistent tier.
//!
//! `fj serve` compiles the same programs over and over (editors re-check
//! on every keystroke; CI re-runs whole suites), and the optimizer is a
//! *pure function* of `(term, datatype environment, configuration)` — the
//! name supply only influences the spelling of fresh binders, never the
//! shape of the output. That makes optimization memoizable **up to
//! α-equivalence**: two textually different programs that differ only in
//! binder names must produce α-equivalent output, so they can share a
//! cache entry.
//!
//! ## Keying
//!
//! A lookup writes the input term in its α-canonical form
//! ([`AlphaForm`]: bound names as de Bruijn levels, free names as ids,
//! constructor names spelled out, every list length-prefixed), once. The
//! key is the triple of the form's hash — exactly
//! [`alpha_fingerprint`](fj_ast::alpha_fingerprint) of the input —
//! [`OptConfig::fingerprint`](crate::OptConfig::fingerprint) (every knob
//! that can change the output, `None` under a fault-injection tap — tapped
//! pipelines bypass the cache), and
//! [`DataEnv::fingerprint`](fj_ast::DataEnv::fingerprint) (constructor
//! tags and field types drive `case` simplification), plus the
//! strict/resilient mode bit. Fingerprints are 64-bit and *can* collide,
//! so an α-class entry and an in-flight marker keep the form itself, and
//! a hit is only served when the stored form equals the request's — one
//! comparison of two word sequences, which makes the cache sound rather
//! than probabilistic: two forms are equal exactly when the terms are
//! α-equivalent ([`alpha_eq`](fj_ast::alpha_eq) is that same comparison).
//! On a *verified* non-match (same key, different term) the colliding
//! insert **replaces** the resident entry — last writer wins — so no
//! program can be starved of caching by an unlucky fingerprint.
//!
//! ## Two entry kinds
//!
//! Each shard's map holds two kinds of entry. An **α-class entry** is the
//! one keyed above and verified by its form; [`optimize_cached`] reads
//! and writes it. A **source-text entry** memoizes a whole compile of one
//! exact source text ([`OptCache::lookup_source`],
//! [`OptCache::insert_source`]): its key hashes the text in place of the
//! term, a hit is verified by comparing the stored text byte for byte,
//! and it carries the program's [`DataEnv`], so a byte-identical
//! recompile skips the frontend as well as the pipeline. Source-text
//! entries follow the same key rules (a tapped configuration gets no
//! entry, the mode bit comes from [`OptConfig::recovery`], a deadline
//! rollback is never kept) but never join single-flight and never go to
//! the persistent tier.
//!
//! ## Eviction: byte-budgeted LRU
//!
//! Entries of both kinds are charged by measured size (the pipeline's
//! censuses already count every node of both terms; a source-text entry
//! adds its text's length), each shard owns an equal slice of the
//! [`OptCache`] byte budget, and the budget is a hard bound: an insert
//! evicts least-recently-used entries, of either kind, until the new
//! entry fits, and an entry larger than a whole shard's slice is not
//! cached at all. A hit refreshes the entry's LRU stamp (one counter bump
//! under the shard lock it already holds).
//!
//! ## Single-flight misses
//!
//! Concurrent misses for the same key would each run the full pipeline —
//! the classic dogpile. Instead, the first miss registers an in-flight
//! marker under the shard lock and becomes the *leader*; α-equal
//! followers block on it and adopt its result (counted as `coalesced`,
//! with the same supply advance a hit performs). If the leader's pipeline
//! fails, waiters retry for themselves — errors are never cached and
//! never shared.
//!
//! ## Name-capture safety on hits
//!
//! A cached term was produced under *another* request's name supply. The
//! entry records that supply's high-water mark, and a hit advances the
//! requester's supply past it
//! ([`NameSupply::advance_past`](fj_ast::NameSupply::advance_past)) so
//! later fresh names can never collide with names inside the adopted term.
//!
//! ## The persistent tier
//!
//! An [`OptCache`] may carry a [`CacheStore`] — a content-addressed disk
//! tier consulted between the in-memory miss and the pipeline run, and
//! written behind after every successful compile. The store trafficks in
//! plain [`Expr`]s; serialization lives with the implementation (the
//! server's store unparses to surface text and **re-lowers through the
//! full frontend on load**). Adoption mirrors the in-memory hit
//! discipline: the decoded input's form must equal the request's, the
//! datatype environment fingerprint must match, and the decoded output
//! must lint — so a truncated, corrupt, or stale file can only ever cost
//! a miss, never a wrong term. A disk hit synthesizes a zero-pass
//! [`PipelineReport`] (the censuses are real walks of the adopted terms)
//! and populates the in-memory tier.
//!
//! ## Concurrency
//!
//! The map is split into shards, each behind its own [`Mutex`]; the shard
//! index is derived from the key, so concurrent requests for different
//! programs almost never contend. Values are `Arc`-shared — a hit hands
//! back refcounted pointers to the optimized term and its
//! [`PipelineReport`] and runs **zero passes**.

use crate::pipeline::{optimize_with_report, OptConfig, Recovery};
use crate::stats::{Census, PipelineReport};
use crate::OptError;
use fj_ast::{AlphaForm, DataEnv, Expr, FxHashMap, NameSupply};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default number of shards ([`OptCache::with_budget`] callers override).
pub const DEFAULT_SHARDS: usize = 16;

/// Default total byte budget (64 MiB), split evenly across shards.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Approximate resident bytes per term node when charging entries against
/// the budget. A core node is an enum behind an `Arc` with child vectors;
/// 96 bytes is a deliberate overestimate so the budget errs toward
/// evicting early rather than blowing past real memory.
const NODE_BYTES: usize = 96;

/// Fixed per-entry overhead (key, report, map slot) charged on top of the
/// per-node cost.
const ENTRY_OVERHEAD: usize = 256;

/// The full cache key: input term (up to α-equivalence), optimizer
/// configuration, datatype environment, and pipeline mode. Public so
/// [`CacheStore`] implementations can address persisted entries by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`alpha_fingerprint`](fj_ast::alpha_fingerprint) of the input
    /// term.
    pub term: u64,
    /// [`OptConfig::fingerprint`] of the configuration.
    pub cfg: u64,
    /// [`DataEnv::fingerprint`] of the datatype environment.
    pub env: u64,
    /// Strict vs. resilient pipeline mode.
    pub resilient: bool,
}

/// A map slot: the entry kind and its key. The kind is part of the slot,
/// so the two kinds never displace each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Slot {
    /// An α-class entry.
    Term(CacheKey),
    /// A source-text entry. `term` hashes the text and `env` is 0: the
    /// text determines its datatype environment.
    Source(CacheKey),
}

impl Slot {
    fn key(&self) -> &CacheKey {
        match self {
            Slot::Term(key) | Slot::Source(key) => key,
        }
    }
}

/// The exact input an entry was built from, kept to verify hits (64-bit
/// fingerprints and text hashes can collide).
enum Input {
    /// An α-class entry's input term in canonical form, compared with the
    /// request's.
    Term(Arc<AlphaForm>),
    /// A source-text entry's text, checked byte for byte, and the
    /// program's datatype environment, handed back on a hit.
    Source(Box<str>, Arc<DataEnv>),
}

/// One memoized compile.
struct CacheEntry {
    input: Input,
    /// The optimized output.
    term: Arc<Expr>,
    /// The pipeline report of the run that produced `term`.
    report: Arc<PipelineReport>,
    /// High-water mark of the producing name supply; adopters advance
    /// past it so their fresh names cannot collide with names in `term`.
    supply_high: u64,
    /// Budget charge ([`entry_cost`], plus the text's length for a
    /// source-text entry).
    bytes: usize,
    /// LRU stamp: the cache clock value at the last hit or insert.
    stamp: u64,
}

/// A source-text hit ([`OptCache::lookup_source`]): the optimized term,
/// the report of the run that produced it, the program's datatype
/// environment, and a name supply past every name in the term.
pub type SourceHit = (Arc<Expr>, Arc<PipelineReport>, Arc<DataEnv>, NameSupply);

/// A successfully decoded persisted entry, pending verification.
pub struct StoredEntry {
    /// The re-lowered input term, to α-verify against the request.
    pub input: Expr,
    /// The re-lowered optimized output.
    pub output: Expr,
    /// Fingerprint of the datatype environment the entry decoded under;
    /// must equal the request's or the entry is stale.
    pub env_fingerprint: u64,
    /// A name-supply mark past every name in `input` and `output`.
    pub supply_high: u64,
}

/// Result of probing the persistent tier for a key.
pub enum DiskLoad {
    /// No persisted entry.
    Absent,
    /// A persisted entry exists but does not decode (truncated, garbage,
    /// wrong format version). Counted as a verify failure; costs a miss.
    Corrupt,
    /// A decoded entry — still subject to α-verification, environment
    /// fingerprint equality, and an output lint before adoption.
    Entry(Box<StoredEntry>),
}

/// A persistent content-addressed tier beneath the in-memory cache.
///
/// Implementations must be infallible in the API sense: IO and decode
/// problems surface as [`DiskLoad::Absent`]/[`DiskLoad::Corrupt`] or a
/// `false` store result, never as panics or errors — the cache treats
/// the tier as advisory.
pub trait CacheStore: Send + Sync {
    /// Probe for a persisted entry.
    fn load(&self, key: &CacheKey) -> DiskLoad;
    /// Persist an entry. Returns `false` on failure (e.g. a read-only
    /// cache directory), which is counted and otherwise ignored.
    fn store(&self, key: &CacheKey, input: &Expr, output: &Expr, env: &DataEnv) -> bool;
}

/// What a leader publishes to coalesced waiters.
enum FlightState {
    Pending,
    Done(Arc<Expr>, Arc<PipelineReport>, u64),
    Failed,
}

/// An in-flight compile for one key: the leader's input in canonical form
/// (a waiter's form must equal it — the key alone could collide) and the
/// publish slot.
struct Flight {
    input: Arc<AlphaForm>,
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn publish(&self, state: FlightState) {
        *self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = state;
        self.cv.notify_all();
    }
}

/// One shard: a byte-bounded LRU map of both entry kinds plus the
/// in-flight table.
#[derive(Default)]
struct Shard {
    map: FxHashMap<Slot, CacheEntry>,
    /// Sum of `bytes` over resident entries; never exceeds the shard's
    /// slice of the budget.
    bytes: usize,
    inflight: FxHashMap<CacheKey, Arc<Flight>>,
}

impl Shard {
    /// Evict least-recently-stamped entries until `need` bytes fit under
    /// `budget`, then account for them. Returns evictions performed.
    fn make_room(&mut self, need: usize, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.bytes + need > budget && !self.map.is_empty() {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                if let Some(e) = self.map.remove(&oldest) {
                    self.bytes -= e.bytes;
                    evicted += 1;
                }
            }
        }
        evicted
    }
}

/// Point-in-time counters for one [`OptCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the in-memory tier (zero passes run).
    pub hits: u64,
    /// Lookups that ran the pipeline and inserted the result.
    pub misses: u64,
    /// Lookups that skipped the cache entirely (tapped configuration).
    pub bypasses: u64,
    /// Lookups that adopted a concurrent leader's result instead of
    /// running their own pipeline (single-flight; zero passes run).
    pub coalesced: u64,
    /// Source-text lookups served by a byte-identical entry (no frontend,
    /// zero passes run).
    pub source_hits: u64,
    /// Entries of either kind displaced by the byte budget.
    pub evictions: u64,
    /// α-class entries currently resident, summed over shards.
    pub entries: usize,
    /// Bytes the α-class entries charge against the budget.
    pub bytes: usize,
    /// Source-text entries currently resident, summed over shards.
    pub source_entries: usize,
    /// Bytes the source-text entries charge against the budget.
    pub source_bytes: usize,
    /// Total byte budget, shared by both entry kinds.
    pub budget: usize,
    /// Number of shards.
    pub shards: usize,
    /// Persistent-tier probes that found a decodable entry.
    pub disk_loads: u64,
    /// Persistent-tier entries adopted after full verification
    /// (zero passes run).
    pub disk_hits: u64,
    /// Persistent-tier probes that found nothing.
    pub disk_misses: u64,
    /// Persisted entries that failed decoding or verification
    /// (truncated, garbage, stale environment, fingerprint collision).
    pub disk_verify_failures: u64,
    /// Entries successfully written to the persistent tier.
    pub disk_writes: u64,
    /// Failed persistent-tier writes (e.g. read-only directory).
    pub disk_write_failures: u64,
}

/// A sharded content-addressed cache of optimization results. See the
/// module docs for keying, eviction, and soundness.
pub struct OptCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard slice of the byte budget.
    shard_budget: usize,
    /// Monotonic LRU clock; every hit or insert stamps the entry.
    clock: AtomicU64,
    store: Option<Arc<dyn CacheStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    coalesced: AtomicU64,
    source_hits: AtomicU64,
    evictions: AtomicU64,
    disk_loads: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_verify_failures: AtomicU64,
    disk_writes: AtomicU64,
    disk_write_failures: AtomicU64,
    /// Test hook: collapse every term fingerprint and text hash to one
    /// value so key collisions become constructible.
    #[cfg(any(test, feature = "test-hooks"))]
    collide_keys: bool,
}

impl OptCache {
    /// A cache of `shards` independently locked shards sharing a total
    /// byte budget of `max_bytes` (each shard owns an equal slice).
    /// Shards are clamped to at least 1; a zero budget caches nothing.
    pub fn with_budget(shards: usize, max_bytes: usize) -> Self {
        let shards = shards.max(1);
        OptCache {
            shard_budget: max_bytes / shards,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            clock: AtomicU64::new(1),
            store: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            source_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk_loads: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            disk_verify_failures: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            disk_write_failures: AtomicU64::new(0),
            #[cfg(any(test, feature = "test-hooks"))]
            collide_keys: false,
        }
    }

    /// Test hook: every term fingerprint and text hash becomes one
    /// value, so any two programs collide and the verified-replace path
    /// runs. Exists only under `cfg(test)` or the `test-hooks` feature.
    #[cfg(any(test, feature = "test-hooks"))]
    #[must_use]
    pub fn with_colliding_keys(mut self) -> Self {
        self.collide_keys = true;
        self
    }

    /// Attach a persistent tier (consulted on miss, written behind on
    /// every successful pipeline run).
    #[must_use]
    pub fn with_store(mut self, store: Arc<dyn CacheStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Whether a persistent tier is attached.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    fn shard_for(&self, key: &CacheKey) -> &Mutex<Shard> {
        // The key components are already hashes; mixing them with
        // distinct rotations keeps e.g. same-program/different-preset
        // entries off the same shard.
        let mix = key.term.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17)
            ^ key.cfg.rotate_left(31)
            ^ key.env
            ^ u64::from(key.resilient);
        &self.shards[(mix as usize) % self.shards.len()]
    }

    /// The key component a term fingerprint or text hash becomes.
    fn key_hash(&self, hash: u64) -> u64 {
        #[cfg(any(test, feature = "test-hooks"))]
        if self.collide_keys {
            return 0;
        }
        hash
    }

    /// The slot of `source`'s entry under `cfg`; `None` for a tapped
    /// configuration, which gets no entry.
    fn source_slot(&self, source: &str, cfg: &OptConfig) -> Option<Slot> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        source.hash(&mut h);
        Some(Slot::Source(CacheKey {
            term: self.key_hash(h.finish()),
            cfg: cfg.fingerprint()?,
            env: 0,
            resilient: cfg.recovery == Recovery::RollBack,
        }))
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            source_hits: self.source_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            budget: self.shard_budget * self.shards.len(),
            shards: self.shards.len(),
            disk_loads: self.disk_loads.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            disk_verify_failures: self.disk_verify_failures.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            disk_write_failures: self.disk_write_failures.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let shard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (slot, entry) in &shard.map {
                let (n, bytes) = match slot {
                    Slot::Term(_) => (&mut stats.entries, &mut stats.bytes),
                    Slot::Source(_) => (&mut stats.source_entries, &mut stats.source_bytes),
                };
                *n += 1;
                *bytes += entry.bytes;
            }
        }
        stats
    }

    /// Insert (or, on a verified key collision, replace) an entry of
    /// either kind, holding the byte budget invariant. The charge is
    /// [`entry_cost`], plus the text's length for a source-text entry;
    /// entries larger than a whole shard slice are not cached.
    fn insert(
        &self,
        slot: Slot,
        input: Input,
        term: &Arc<Expr>,
        report: &Arc<PipelineReport>,
        supply_high: u64,
    ) {
        let bytes = entry_cost(report)
            + match &input {
                Input::Term(_) => 0,
                Input::Source(text, _) => text.len(),
            };
        let shard = self.shard_for(slot.key());
        let mut guard = shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(old) = guard.map.remove(&slot) {
            // Same key, different (verified at lookup) input: replace.
            // Last writer wins, so a colliding program is never starved.
            guard.bytes -= old.bytes;
        }
        if bytes > self.shard_budget {
            return;
        }
        let evicted = guard.make_room(bytes, self.shard_budget);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        guard.bytes += bytes;
        let entry = CacheEntry {
            input,
            term: Arc::clone(term),
            report: Arc::clone(report),
            supply_high,
            bytes,
            stamp: self.clock.fetch_add(1, Ordering::Relaxed),
        };
        guard.map.insert(slot, entry);
    }

    /// Serve a byte-identical recompile: the entry
    /// [`OptCache::insert_source`] made for exactly this `source` text
    /// under this configuration and mode. A hit refreshes the entry's LRU
    /// stamp. `None` on a miss and for a tapped `cfg`.
    pub fn lookup_source(&self, source: &str, cfg: &OptConfig) -> Option<SourceHit> {
        let slot = self.source_slot(source, cfg)?;
        let mut guard = self
            .shard_for(slot.key())
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = guard.map.get_mut(&slot)?;
        // A source slot only ever holds a source-text entry; the text
        // hash can collide, so only the stored text makes the hit exact.
        let Input::Source(text, data_env) = &entry.input else {
            return None;
        };
        if **text != *source {
            return None;
        }
        entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let hit = (
            Arc::clone(&entry.term),
            Arc::clone(&entry.report),
            Arc::clone(data_env),
            NameSupply::starting_at(entry.supply_high),
        );
        drop(guard);
        self.source_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Memoize a compile of `source` under `cfg` for
    /// [`OptCache::lookup_source`]: the term and report
    /// [`optimize_cached`] returned, the program's datatype environment,
    /// and the high-water mark of the supply that produced them. As in
    /// [`optimize_cached`], a tapped `cfg` gets no entry and neither does
    /// a run that rolled a pass back for its deadline.
    pub fn insert_source(
        &self,
        source: &str,
        cfg: &OptConfig,
        term: &Arc<Expr>,
        report: &Arc<PipelineReport>,
        data_env: &Arc<DataEnv>,
        supply_high: u64,
    ) {
        let Some(slot) = self.source_slot(source, cfg) else {
            return;
        };
        if report.hit_deadline() {
            return;
        }
        let input = Input::Source(source.into(), Arc::clone(data_env));
        self.insert(slot, input, term, report, supply_high);
    }
}

impl Default for OptCache {
    fn default() -> Self {
        OptCache::with_budget(DEFAULT_SHARDS, DEFAULT_CACHE_BYTES)
    }
}

/// Budget charge for one entry: measured node counts of both terms times
/// a per-node cost, plus fixed overhead.
fn entry_cost(report: &PipelineReport) -> usize {
    (report.census_before.size + report.census_after.size) * NODE_BYTES + ENTRY_OVERHEAD
}

/// Removes the in-flight marker and publishes failure if the leader
/// unwinds (error return or panic) without publishing a result, so
/// waiters never hang on a dead flight.
struct FlightGuard<'a> {
    shard: &'a Mutex<Shard>,
    key: CacheKey,
    flight: Arc<Flight>,
    published: bool,
}

impl FlightGuard<'_> {
    /// Publish success and retire the flight.
    fn finish(mut self, term: Arc<Expr>, report: Arc<PipelineReport>, supply_high: u64) {
        self.retire();
        self.flight
            .publish(FlightState::Done(term, report, supply_high));
        self.published = true;
    }

    fn retire(&self) {
        let mut guard = self
            .shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Only remove our own flight (a retrying waiter may have
        // registered a new one under the same key after a failure).
        if let Some(f) = guard.inflight.get(&self.key) {
            if Arc::ptr_eq(f, &self.flight) {
                guard.inflight.remove(&self.key);
            }
        }
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.retire();
            self.flight.publish(FlightState::Failed);
        }
    }
}

/// Outcome of waiting on another request's in-flight compile.
enum Waited {
    Adopted(Arc<Expr>, Arc<PipelineReport>, u64),
    LeaderFailed,
}

fn wait_on(flight: &Flight) -> Waited {
    let mut state = flight
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    loop {
        match &*state {
            FlightState::Pending => {
                // The timeout is belt-and-braces: FlightGuard already
                // publishes on every leader exit path.
                let (s, _) = flight
                    .cv
                    .wait_timeout(state, Duration::from_secs(60))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state = s;
            }
            FlightState::Done(term, report, high) => {
                return Waited::Adopted(Arc::clone(term), Arc::clone(report), *high);
            }
            FlightState::Failed => return Waited::LeaderFailed,
        }
    }
}

/// Optimize through the cache: serve an α-verified hit when one exists,
/// otherwise coalesce onto an in-flight identical compile, otherwise
/// consult the persistent tier, otherwise run the pipeline
/// ([`optimize_with_report`], strict or resilient per `cfg.recovery`) and
/// memoize the result in every tier.
///
/// The returned flag is `true` exactly when the result came from a cache
/// tier or a coalesced flight — in which case **zero passes ran** and
/// `supply` was advanced past the producing run's high-water mark instead
/// of being drawn from.
///
/// The input is Core-Linted before every pipeline run (misses and
/// bypasses); verified hits skip the lint, which is sound because typing
/// is α-invariant and the resident entry's input was linted when it was
/// inserted. A disk adoption lints the decoded *output* instead — the
/// file is outside the process's integrity domain.
///
/// # Errors
///
/// [`OptError::Type`](crate::OptError::Type) for ill-typed input,
/// otherwise exactly the errors of [`optimize_with_report`].
/// Failed runs are never cached (an error may be budget-dependent and
/// transient), and neither are resilient runs that rolled a pass back for
/// its deadline.
#[allow(clippy::too_many_lines)]
pub fn optimize_cached(
    e: &Expr,
    data_env: &DataEnv,
    supply: &mut NameSupply,
    cfg: &OptConfig,
    cache: &OptCache,
) -> Result<(Arc<Expr>, Arc<PipelineReport>, bool), OptError> {
    // Lint gates every *pipeline run*; verified hits skip it. That is
    // sound, not just fast: typing is α-invariant, and a hit is only
    // served when the request's form equals that of an input that was
    // linted before it was inserted.
    let run = |supply: &mut NameSupply| {
        fj_check::lint(e, data_env)?;
        optimize_with_report(e, data_env, supply, cfg)
    };
    let Some(cfg_fp) = cfg.fingerprint() else {
        // Tapped configuration: uncacheable, run directly.
        cache.bypasses.fetch_add(1, Ordering::Relaxed);
        let (out, report) = run(supply)?;
        return Ok((Arc::new(out), Arc::new(report), false));
    };
    let form = Arc::new(AlphaForm::of(e));
    let key = CacheKey {
        term: cache.key_hash(form.fingerprint()),
        cfg: cfg_fp,
        env: data_env.fingerprint(),
        resilient: cfg.recovery == Recovery::RollBack,
    };
    let shard = cache.shard_for(&key);
    // Lookup loop: a waiter whose leader failed comes back around to try
    // for leadership itself.
    let flight_guard = loop {
        let mut guard = shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(entry) = guard.map.get_mut(&Slot::Term(key)) {
            // Fingerprints can collide; only equal forms make the hit
            // sound. A collision (different term, same key) falls through
            // to a pipeline run whose insert *replaces* this entry.
            if matches!(&entry.input, Input::Term(input) if *input == form) {
                entry.stamp = cache.clock.fetch_add(1, Ordering::Relaxed);
                let hit = (Arc::clone(&entry.term), Arc::clone(&entry.report));
                let supply_high = entry.supply_high;
                drop(guard);
                supply.advance_past(supply_high);
                cache.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((hit.0, hit.1, true));
            }
        }
        if let Some(flight) = guard.inflight.get(&key) {
            if flight.input == form {
                // Someone is compiling this very term: wait and adopt.
                let flight = Arc::clone(flight);
                drop(guard);
                match wait_on(&flight) {
                    Waited::Adopted(term, report, high) => {
                        supply.advance_past(high);
                        cache.coalesced.fetch_add(1, Ordering::Relaxed);
                        return Ok((term, report, true));
                    }
                    Waited::LeaderFailed => continue,
                }
            }
            // Key collision with a different in-flight term: compile
            // independently, unregistered (one flight per key).
            drop(guard);
            let (out, report) = run(supply)?;
            cache.misses.fetch_add(1, Ordering::Relaxed);
            let (term, report) = (Arc::new(out), Arc::new(report));
            if !report.hit_deadline() {
                let input = Input::Term(form);
                cache.insert(Slot::Term(key), input, &term, &report, supply.peek());
            }
            return Ok((term, report, false));
        }
        // No resident α-match, nothing in flight: lead.
        let flight = Arc::new(Flight {
            input: Arc::clone(&form),
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        });
        guard.inflight.insert(key, Arc::clone(&flight));
        break FlightGuard {
            shard,
            key,
            flight,
            published: false,
        };
    };

    // Leader path. First give the persistent tier a chance to spare us
    // the pipeline entirely.
    if let Some(store) = &cache.store {
        match store.load(&key) {
            DiskLoad::Absent => {
                cache.disk_misses.fetch_add(1, Ordering::Relaxed);
            }
            DiskLoad::Corrupt => {
                cache.disk_verify_failures.fetch_add(1, Ordering::Relaxed);
            }
            DiskLoad::Entry(stored) => {
                cache.disk_loads.fetch_add(1, Ordering::Relaxed);
                // Adoption discipline: right environment, α-equal input,
                // and a well-typed output. Anything less is a miss.
                if stored.env_fingerprint == key.env
                    && AlphaForm::of(&stored.input) == *form
                    && fj_check::lint(&stored.output, data_env).is_ok()
                {
                    let term = Arc::new(stored.output);
                    let report = Arc::new(PipelineReport {
                        census_before: Census::of(&stored.input),
                        passes: Vec::new(),
                        census_after: Census::of(&term),
                        wall: Duration::ZERO,
                    });
                    supply.advance_past(stored.supply_high);
                    let input = Input::Term(form);
                    cache.insert(Slot::Term(key), input, &term, &report, stored.supply_high);
                    cache.disk_hits.fetch_add(1, Ordering::Relaxed);
                    flight_guard.finish(Arc::clone(&term), Arc::clone(&report), stored.supply_high);
                    return Ok((term, report, true));
                }
                cache.disk_verify_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // Miss: run the pipeline outside any shard lock (a slow compile must
    // not block unrelated lookups that happen to share the shard). An
    // error drops `flight_guard`, which wakes waiters with `Failed`.
    let (out, report) = run(supply)?;
    cache.misses.fetch_add(1, Ordering::Relaxed);
    let supply_high = supply.peek();
    let (term, report) = (Arc::new(out), Arc::new(report));
    if report.hit_deadline() {
        // The rollback depended on timing, not on the key: hand the
        // degraded result to this request and its waiters, cache nothing.
        flight_guard.finish(Arc::clone(&term), Arc::clone(&report), supply_high);
        return Ok((term, report, false));
    }
    cache.insert(
        Slot::Term(key),
        Input::Term(form),
        &term,
        &report,
        supply_high,
    );
    flight_guard.finish(Arc::clone(&term), Arc::clone(&report), supply_high);
    // Write-behind after waiters are released: persistence is advisory
    // and must not extend the dogpile window.
    if let Some(store) = &cache.store {
        if store.store(&key, e, &term, data_env) {
            cache.disk_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            cache.disk_write_failures.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok((term, report, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{PassCtx, PassTap};
    use fj_ast::{alpha_eq, alpha_fingerprint, Dsl, Type};

    /// `\n. (\x. x + n) 1` — enough structure for the simplifier to act on.
    fn program(dsl: &mut Dsl) -> Expr {
        use fj_ast::PrimOp;
        let n = dsl.binder("n", Type::Int);
        let x = dsl.binder("x", Type::Int);
        let body = Expr::app(
            Expr::lam(
                x.clone(),
                Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::var(&n.name)),
            ),
            Expr::Lit(1),
        );
        Expr::lam(n, body)
    }

    /// `\x. x + <lit>` — a family of distinct same-shape programs.
    fn keyed_program(dsl: &mut Dsl, i: i64) -> Expr {
        use fj_ast::PrimOp;
        let x = dsl.binder("x", Type::Int);
        Expr::lam(
            x.clone(),
            Expr::prim2(PrimOp::Add, Expr::var(&x.name), Expr::Lit(i)),
        )
    }

    #[test]
    fn second_compile_is_a_hit_and_alpha_equal() {
        let cache = OptCache::default();
        let cfg = OptConfig::join_points();

        let mut d1 = Dsl::new();
        let e1 = program(&mut d1);
        let mut s1 = d1.supply;
        let (t1, r1, hit1) = optimize_cached(&e1, &d1.data_env, &mut s1, &cfg, &cache).unwrap();
        assert!(!hit1);
        assert!(!r1.passes.is_empty());

        // A fresh `Dsl` draws different uniques: textually different,
        // α-equivalent — must hit the same entry.
        let mut d2 = Dsl::new();
        for _ in 0..7 {
            d2.supply.fresh("skew");
        }
        let e2 = program(&mut d2);
        let mut s2 = d2.supply;
        let (t2, r2, hit2) = optimize_cached(&e2, &d2.data_env, &mut s2, &cfg, &cache).unwrap();
        assert!(hit2, "α-equivalent program must hit");
        assert!(alpha_eq(&t1, &t2));
        assert!(Arc::ptr_eq(&r1, &r2), "hit shares the report allocation");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.bytes > 0 && stats.bytes <= stats.budget);
    }

    #[test]
    fn hit_advances_the_supply_past_the_producer() {
        let cache = OptCache::default();
        let cfg = OptConfig::join_points();
        let mut d1 = Dsl::new();
        // Skew the producer's supply forward so its high-water mark is
        // strictly above anything a fresh supply has handed out.
        for _ in 0..100 {
            d1.supply.fresh("skew");
        }
        let e1 = program(&mut d1);
        let mut s1 = d1.supply;
        optimize_cached(&e1, &d1.data_env, &mut s1, &cfg, &cache).unwrap();
        let producer_high = s1.peek();

        let mut d2 = Dsl::new();
        let e2 = program(&mut d2);
        let mut s2 = d2.supply;
        assert!(s2.peek() < producer_high);
        let (_, _, hit) = optimize_cached(&e2, &d2.data_env, &mut s2, &cfg, &cache).unwrap();
        assert!(hit);
        assert!(
            s2.peek() >= producer_high,
            "adopting supply must jump past every name in the cached term"
        );
    }

    #[test]
    fn config_and_mode_changes_miss() {
        let cache = OptCache::default();
        let mut d = Dsl::new();
        let e = program(&mut d);
        let mut s = d.supply.clone();
        let join = OptConfig::join_points();
        let base = OptConfig::baseline();
        optimize_cached(&e, &d.data_env, &mut s, &join, &cache).unwrap();
        let (_, _, hit_other_cfg) =
            optimize_cached(&e, &d.data_env, &mut s, &base, &cache).unwrap();
        assert!(
            !hit_other_cfg,
            "different OptConfig must not share an entry"
        );
        let resilient = join.clone().with_recovery(Recovery::RollBack);
        let (_, _, hit_resilient) =
            optimize_cached(&e, &d.data_env, &mut s, &resilient, &cache).unwrap();
        assert!(!hit_resilient, "strict and resilient runs must not share");
        assert_eq!(cache.stats().misses, 3);
    }

    #[test]
    fn tapped_configs_bypass_the_cache() {
        let cache = OptCache::default();
        let mut d = Dsl::new();
        let e = program(&mut d);
        let mut s = d.supply.clone();
        let tapped = OptConfig::join_points().with_tap(PassTap::new(|_: &PassCtx, r| r));
        assert_eq!(tapped.fingerprint(), None);
        for _ in 0..2 {
            let (term, report, hit) =
                optimize_cached(&e, &d.data_env, &mut s, &tapped, &cache).unwrap();
            assert!(!hit);
            // Nor does a tapped compile get a source-text entry.
            let env = Arc::new(d.data_env.clone());
            cache.insert_source("tapped", &tapped, &term, &report, &env, s.peek());
            assert!(cache.lookup_source("tapped", &tapped).is_none());
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.bypasses, stats.entries, stats.source_entries),
            (2, 0, 0)
        );
    }

    /// Per-entry budget charge for this test family, measured — the
    /// tests below size budgets in units of it.
    fn one_entry_bytes() -> usize {
        let cache = OptCache::with_budget(1, usize::MAX);
        let mut d = Dsl::new();
        let mut s = d.supply.clone();
        let e = keyed_program(&mut d, 0);
        optimize_cached(&e, &d.data_env, &mut s, &OptConfig::none(), &cache).unwrap();
        cache.stats().bytes
    }

    #[test]
    fn byte_budget_is_never_exceeded_under_churn() {
        let unit = one_entry_bytes();
        // Room for two entries (plus slack), then stream 40 distinct
        // programs through: the budget must hold after every insert.
        let budget = unit * 5 / 2;
        let cache = OptCache::with_budget(1, budget);
        let mut d = Dsl::new();
        let mut s = d.supply.clone();
        for i in 0..40 {
            let e = keyed_program(&mut d, i);
            optimize_cached(&e, &d.data_env, &mut s, &OptConfig::none(), &cache).unwrap();
            let stats = cache.stats();
            assert!(
                stats.bytes <= stats.budget,
                "budget exceeded after insert {i}: {} > {}",
                stats.bytes,
                stats.budget
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 38, "churn must evict: {stats:?}");
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn lru_keeps_the_hot_entry_resident() {
        let unit = one_entry_bytes();
        let cache = OptCache::with_budget(1, unit * 5 / 2);
        let cfg = OptConfig::none();
        let mut d = Dsl::new();
        let mut s = d.supply.clone();
        let hot = keyed_program(&mut d, 1000);
        optimize_cached(&hot, &d.data_env, &mut s, &cfg, &cache).unwrap();
        // Cold traffic streams past; the hot entry is re-hit between
        // every cold insert and must stay resident throughout.
        for i in 0..10 {
            let cold = keyed_program(&mut d, i);
            optimize_cached(&cold, &d.data_env, &mut s, &cfg, &cache).unwrap();
            let (_, _, hit) = optimize_cached(&hot, &d.data_env, &mut s, &cfg, &cache).unwrap();
            assert!(hit, "LRU must keep the repeatedly-hit entry (round {i})");
        }
        // Under FIFO the hot entry (oldest insert) would have been the
        // first casualty; under LRU the evictions all hit cold entries.
        assert!(cache.stats().evictions >= 9);
    }

    #[test]
    fn oversized_entries_are_not_cached() {
        let cache = OptCache::with_budget(1, 1);
        let mut d = Dsl::new();
        let mut s = d.supply.clone();
        let e = keyed_program(&mut d, 7);
        optimize_cached(&e, &d.data_env, &mut s, &OptConfig::none(), &cache).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.bytes), (0, 0));
        let (_, _, hit) =
            optimize_cached(&e, &d.data_env, &mut s, &OptConfig::none(), &cache).unwrap();
        assert!(!hit);
    }

    #[test]
    fn colliding_keys_replace_instead_of_starving() {
        // Two different programs forced onto one key, once per entry
        // kind: the second must still get cached (replacing the first),
        // and each program recompiles with at most one miss afterward —
        // no starvation.
        let cache = OptCache::with_budget(1, usize::MAX).with_colliding_keys();
        let cfg = OptConfig::none();
        let mut d = Dsl::new();
        let mut s = d.supply.clone();
        let a = keyed_program(&mut d, 1);
        let b = keyed_program(&mut d, 2);
        optimize_cached(&a, &d.data_env, &mut s, &cfg, &cache).unwrap();
        let (_, _, hit_b) = optimize_cached(&b, &d.data_env, &mut s, &cfg, &cache).unwrap();
        assert!(!hit_b, "colliding lookup must not serve the wrong term");
        // b replaced a: b now hits, a misses (and replaces back).
        let (tb, rb, hit_b2) = optimize_cached(&b, &d.data_env, &mut s, &cfg, &cache).unwrap();
        assert!(hit_b2, "collision victim must be cacheable (was starved)");
        assert!(alpha_eq(&tb, &b), "replaced entry serves the right term");
        let (ta, ra, hit_a) = optimize_cached(&a, &d.data_env, &mut s, &cfg, &cache).unwrap();
        assert!(!hit_a);
        assert!(alpha_eq(&ta, &a));
        assert_eq!(cache.stats().entries, 1, "one key, one slot");

        // Source-text entries: the text hash collides, the exact text
        // comparison refuses the wrong entry, and the insert replaces.
        let env = Arc::new(d.data_env.clone());
        let (src_a, src_b) = ("def main : Int = 1 + 1;", "def main : Int = 2 + 2;");
        cache.insert_source(src_a, &cfg, &ta, &ra, &env, s.peek());
        assert!(
            cache.lookup_source(src_b, &cfg).is_none(),
            "colliding lookup must not serve the wrong text's term"
        );
        cache.insert_source(src_b, &cfg, &tb, &rb, &env, s.peek());
        let (got, ..) = cache
            .lookup_source(src_b, &cfg)
            .expect("collision victim must be cacheable (was starved)");
        assert!(Arc::ptr_eq(&got, &tb), "replaced entry serves B's term");
        assert!(cache.lookup_source(src_a, &cfg).is_none());
        let stats = cache.stats();
        assert_eq!((stats.source_entries, stats.source_hits), (1, 1));
    }

    #[test]
    fn concurrent_identical_misses_run_one_pipeline() {
        use std::sync::Barrier;
        // A deliberately slow disk probe holds the leader in its flight
        // long enough for every waiter to arrive and coalesce.
        struct SlowAbsent;
        impl CacheStore for SlowAbsent {
            fn load(&self, _: &CacheKey) -> DiskLoad {
                std::thread::sleep(Duration::from_millis(150));
                DiskLoad::Absent
            }
            fn store(&self, _: &CacheKey, _: &Expr, _: &Expr, _: &DataEnv) -> bool {
                true
            }
        }
        const N: usize = 8;
        let cache = Arc::new(
            OptCache::with_budget(4, DEFAULT_CACHE_BYTES).with_store(Arc::new(SlowAbsent)),
        );
        let barrier = Arc::new(Barrier::new(N));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut d = Dsl::new();
                    let e = program(&mut d);
                    let mut s = d.supply;
                    barrier.wait();
                    let (term, report, _) =
                        optimize_cached(&e, &d.data_env, &mut s, &OptConfig::join_points(), &cache)
                            .unwrap();
                    // Fresh names drawn after adoption must be past the
                    // producer's supply regardless of who compiled.
                    let high = s.peek();
                    (term, report, high)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one pipeline run: {stats:?}");
        assert_eq!(
            stats.hits + stats.coalesced,
            (N - 1) as u64,
            "everyone else adopts: {stats:?}"
        );
        assert!(
            stats.coalesced >= 1,
            "slow leader must have coalesced waiters: {stats:?}"
        );
        for (term, report, _) in &results[1..] {
            assert!(alpha_eq(term, &results[0].0));
            assert!(Arc::ptr_eq(report, &results[0].1));
        }
    }

    #[test]
    fn leader_failure_wakes_waiters_who_then_retry() {
        // An ill-typed term fails in lint for leader and waiters alike;
        // nobody hangs, nothing is cached.
        struct SlowAbsent;
        impl CacheStore for SlowAbsent {
            fn load(&self, _: &CacheKey) -> DiskLoad {
                std::thread::sleep(Duration::from_millis(100));
                DiskLoad::Absent
            }
            fn store(&self, _: &CacheKey, _: &Expr, _: &Expr, _: &DataEnv) -> bool {
                true
            }
        }
        use std::sync::Barrier;
        const N: usize = 4;
        let cache = Arc::new(
            OptCache::with_budget(1, DEFAULT_CACHE_BYTES).with_store(Arc::new(SlowAbsent)),
        );
        let barrier = Arc::new(Barrier::new(N));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut d = Dsl::new();
                    // `x` unbound: lint fails.
                    let x = d.name("x");
                    let e = Expr::var(&x);
                    let mut s = d.supply;
                    barrier.wait();
                    optimize_cached(&e, &d.data_env, &mut s, &OptConfig::join_points(), &cache)
                        .is_err()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap(), "every request must see the error");
        }
        assert_eq!(cache.stats().entries, 0, "errors are never cached");
    }

    #[test]
    fn disk_tier_round_trips_through_a_memory_wipe() {
        // An in-process store: the persistence contract without IO.
        // (File-level robustness lives in the server's persist tests.)
        #[derive(Default)]
        struct MemStore {
            map: Mutex<FxHashMap<CacheKey, (Expr, Expr, u64)>>,
        }
        impl CacheStore for MemStore {
            fn load(&self, key: &CacheKey) -> DiskLoad {
                match self.map.lock().unwrap().get(key) {
                    Some((input, output, env)) => DiskLoad::Entry(Box::new(StoredEntry {
                        input: input.clone(),
                        output: output.clone(),
                        env_fingerprint: *env,
                        // A real store re-lowers and takes the fresh
                        // supply's mark; a conservative constant is fine
                        // for an in-process test double.
                        supply_high: 1 << 20,
                    })),
                    None => DiskLoad::Absent,
                }
            }
            fn store(&self, key: &CacheKey, input: &Expr, output: &Expr, env: &DataEnv) -> bool {
                self.map
                    .lock()
                    .unwrap()
                    .insert(*key, (input.clone(), output.clone(), env.fingerprint()));
                true
            }
        }
        let store = Arc::new(MemStore::default());
        let cfg = OptConfig::join_points();
        let cache1 =
            OptCache::with_budget(4, DEFAULT_CACHE_BYTES).with_store(Arc::clone(&store) as _);
        let mut d1 = Dsl::new();
        let e1 = program(&mut d1);
        let mut s1 = d1.supply;
        let (t1, _, hit) = optimize_cached(&e1, &d1.data_env, &mut s1, &cfg, &cache1).unwrap();
        assert!(!hit);
        assert_eq!(cache1.stats().disk_writes, 1);
        // The store is addressed by the input's own fingerprint, so a
        // reader holding only the program can find the entry.
        let written: Vec<CacheKey> = store.map.lock().unwrap().keys().copied().collect();
        let want = CacheKey {
            term: alpha_fingerprint(&e1),
            cfg: cfg.fingerprint().unwrap(),
            env: d1.data_env.fingerprint(),
            resilient: false,
        };
        assert_eq!(written, [want]);

        // A "restarted" cache: same store, empty memory.
        let cache2 = OptCache::with_budget(4, DEFAULT_CACHE_BYTES).with_store(store as _);
        let mut d2 = Dsl::new();
        let e2 = program(&mut d2);
        let mut s2 = d2.supply;
        let (t2, r2, hit2) = optimize_cached(&e2, &d2.data_env, &mut s2, &cfg, &cache2).unwrap();
        assert!(hit2, "restart must be warm");
        assert!(alpha_eq(&t1, &t2));
        assert!(r2.passes.is_empty(), "disk hit runs zero passes");
        let stats = cache2.stats();
        assert_eq!((stats.disk_hits, stats.disk_loads, stats.misses), (1, 1, 0));
        // And the adoption populated the memory tier.
        let (_, _, hit3) = optimize_cached(&e2, &d2.data_env, &mut s2, &cfg, &cache2).unwrap();
        assert!(hit3);
        assert_eq!(cache2.stats().hits, 1);
    }

    #[test]
    fn stale_disk_entries_are_rejected() {
        // A store that answers every probe with a *different* program's
        // entry — α-verification must refuse it and fall back to the
        // pipeline.
        struct WrongEntry;
        impl CacheStore for WrongEntry {
            fn load(&self, _: &CacheKey) -> DiskLoad {
                let mut d = Dsl::new();
                let other = keyed_program(&mut d, 777_777);
                DiskLoad::Entry(Box::new(StoredEntry {
                    input: other.clone(),
                    output: other,
                    env_fingerprint: 0,
                    supply_high: 1_000_000,
                }))
            }
            fn store(&self, _: &CacheKey, _: &Expr, _: &Expr, _: &DataEnv) -> bool {
                true
            }
        }
        let cache = OptCache::with_budget(1, DEFAULT_CACHE_BYTES).with_store(Arc::new(WrongEntry));
        let mut d = Dsl::new();
        let e = program(&mut d);
        let mut s = d.supply;
        let (t, _, hit) =
            optimize_cached(&e, &d.data_env, &mut s, &OptConfig::join_points(), &cache).unwrap();
        assert!(!hit, "stale entry must cost a miss, not serve a wrong term");
        assert!(!alpha_eq(&t, &e) || t.size() <= e.size());
        let stats = cache.stats();
        assert_eq!((stats.disk_verify_failures, stats.misses), (1, 1));
    }

    #[test]
    fn config_fingerprint_is_stable_and_discriminating() {
        let a = OptConfig::join_points().fingerprint().unwrap();
        let b = OptConfig::join_points().fingerprint().unwrap();
        assert_eq!(a, b);
        assert_ne!(a, OptConfig::baseline().fingerprint().unwrap());
        assert_ne!(a, OptConfig::none().fingerprint().unwrap());
        assert_ne!(
            a,
            OptConfig::join_points()
                .with_max_passes(3)
                .fingerprint()
                .unwrap()
        );
        // Deadline-degraded runs are never cached, so compiles with and
        // without a deadline share entries.
        assert_eq!(
            a,
            OptConfig::join_points()
                .with_pass_deadline(Duration::from_millis(50))
                .fingerprint()
                .unwrap()
        );
        // The mode is the key's own bit, not part of the configuration's.
        assert_eq!(
            a,
            OptConfig::join_points()
                .with_recovery(Recovery::RollBack)
                .fingerprint()
                .unwrap()
        );
        // A lint never changes a cached output, so debug builds (lint on
        // by default) and release builds (off) share entries.
        for lint in [false, true] {
            assert_eq!(
                a,
                OptConfig::join_points()
                    .with_lint(lint)
                    .fingerprint()
                    .unwrap()
            );
        }
    }

    #[test]
    fn deadline_degraded_results_are_never_cached() {
        #[derive(Default)]
        struct CountingStore {
            writes: AtomicU64,
        }
        impl CacheStore for CountingStore {
            fn load(&self, _: &CacheKey) -> DiskLoad {
                DiskLoad::Absent
            }
            fn store(&self, _: &CacheKey, _: &Expr, _: &Expr, _: &DataEnv) -> bool {
                self.writes.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
        let store = Arc::new(CountingStore::default());
        let cache = OptCache::default().with_store(Arc::clone(&store) as _);
        // Every pass returns after a 1 ns deadline, so every pass rolls back.
        let cfg = OptConfig::join_points()
            .with_pass_deadline(Duration::from_nanos(1))
            .with_recovery(Recovery::RollBack);
        let mut d = Dsl::new();
        let e = program(&mut d);
        let env = Arc::new(d.data_env.clone());
        for round in 0..2 {
            let (term, report, hit) =
                optimize_cached(&e, &d.data_env, &mut d.supply, &cfg, &cache).unwrap();
            assert!(report.hit_deadline(), "round {round}: {report}");
            assert!(!hit, "round {round}: a deadline-degraded result was cached");
            cache.insert_source("degraded", &cfg, &term, &report, &env, d.supply.peek());
            assert!(
                cache.lookup_source("degraded", &cfg).is_none(),
                "round {round}: a deadline-degraded result got a source-text entry"
            );
        }
        assert_eq!(
            store.writes.load(Ordering::Relaxed),
            0,
            "degraded result persisted"
        );
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.source_entries), (0, 0));
    }
}
