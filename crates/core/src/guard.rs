//! Pass guards: panic isolation, wall-clock deadlines, and the fault-
//! injection tap behind [`Recovery::RollBack`](crate::Recovery::RollBack).
//!
//! The paper uses Core Lint "forensically" (Sec. 4.4): a pass that breaks
//! the jump-in-tail-position discipline is caught by the checker after the
//! fact. This module extends that discipline from *detection* to
//! *containment*: a pass runs inside [`run_pass_guarded`], which catches
//! panics, enforces an optional per-pass deadline, and feeds the pass
//! output through an optional [`PassTap`] (the seam the testkit's
//! `Saboteur` uses to inject faults). The driver in `pipeline.rs` decides
//! what to do with a failure — abort (strict mode) or roll back to the
//! pre-pass term and keep going (resilient mode).
//!
//! Deadlines are cooperative and run on the calling thread, the same idiom
//! as the machine's and VM's step-counted clock checks: the guard arms a
//! thread-local deadline, and every pass calls [`poll`] at the top of its
//! recursive traversal. A poll reads the clock once every
//! `POLL_MASK + 1` visits and, past the deadline, unwinds out of the pass
//! with a private payload (via `resume_unwind`, which skips the panic
//! hook) that the guard reports as [`RollbackReason::DeadlineExceeded`].
//! A pass that returns after its deadline without tripping a poll is
//! reported the same way. Tap code that waits (the Saboteur's spin mode)
//! polls [`PassCtx::cancelled`] instead.

use crate::pipeline::Pass;
use crate::simplify::SimplOpts;
use crate::stats::RewriteStats;
use crate::BudgetKind;
use crate::{apply_pass, OptError};
use fj_ast::{DataEnv, Expr, NameSupply};
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// What a [`PassTap`] sees: which pass just ran and where it sits in the
/// pipeline.
pub struct PassCtx {
    /// Pass name (as in [`Pass::name`]).
    pub pass: &'static str,
    /// Zero-based position of the pass in the pipeline.
    pub index: usize,
}

impl PassCtx {
    /// Has this pass's deadline passed? Long-running tap code should poll
    /// this and return promptly once it is set; the guard then reports the
    /// pass as [`RollbackReason::DeadlineExceeded`].
    pub fn cancelled(&self) -> bool {
        deadline_passed()
    }
}

/// The raw result a pass hands to a tap: the output term and rewrite
/// counters, or the pass's error.
pub type PassResult = Result<(Expr, RewriteStats), OptError>;

/// The function type a [`PassTap`] wraps.
type TapFn = dyn Fn(&PassCtx, PassResult) -> PassResult + Send + Sync;

/// A test seam interposed on every pass output, used by the testkit's
/// `Saboteur` to corrupt terms, panic, or spin. Production pipelines leave
/// [`OptConfig::tap`](crate::OptConfig) unset.
#[derive(Clone)]
pub struct PassTap(Arc<TapFn>);

impl PassTap {
    /// Wrap a function as a tap.
    pub fn new(f: impl Fn(&PassCtx, PassResult) -> PassResult + Send + Sync + 'static) -> Self {
        PassTap(Arc::new(f))
    }

    fn call(&self, ctx: &PassCtx, r: PassResult) -> PassResult {
        (self.0)(ctx, r)
    }
}

impl fmt::Debug for PassTap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PassTap(..)")
    }
}

/// Why the resilient driver discarded a pass's output (or refused to run
/// the pass at all). Carried in
/// [`PassOutcome::RolledBack`](crate::PassOutcome).
#[derive(Clone, Debug)]
pub enum RollbackReason {
    /// The pass itself returned an error.
    PassError(Box<OptError>),
    /// Lint rejected the pass output (always
    /// [`OptError::LintAfterPass`]).
    LintViolation(Box<OptError>),
    /// The pass (or an injected fault) panicked; the payload message.
    Panic(String),
    /// The pass ran past its wall-clock deadline.
    DeadlineExceeded {
        /// The configured per-pass deadline.
        limit: Duration,
    },
    /// The output term grew past the configured size budget.
    GrowthBudget {
        /// Term size before the pass.
        before: usize,
        /// Term size after the pass.
        after: usize,
        /// The configured growth factor
        /// ([`OptConfig::max_growth`](crate::OptConfig)).
        limit: f64,
    },
    /// The pipeline's total pass budget was already spent; the pass was
    /// skipped without running.
    PassBudget {
        /// The configured budget
        /// ([`OptConfig::max_passes`](crate::OptConfig)).
        max_passes: usize,
    },
}

impl RollbackReason {
    /// Short machine-readable tag (`panic`, `deadline`, …) for rendering.
    pub fn tag(&self) -> &'static str {
        match self {
            RollbackReason::PassError(_) => "pass-error",
            RollbackReason::LintViolation(_) => "lint",
            RollbackReason::Panic(_) => "panic",
            RollbackReason::DeadlineExceeded { .. } => "deadline",
            RollbackReason::GrowthBudget { .. } => "growth",
            RollbackReason::PassBudget { .. } => "pass-budget",
        }
    }

    /// Convert into the error a fail-fast pipeline reports for this pass.
    pub(crate) fn into_opt_error(self, pass: &'static str) -> OptError {
        match self {
            RollbackReason::PassError(e) | RollbackReason::LintViolation(e) => *e,
            RollbackReason::Panic(msg) => {
                OptError::Internal(format!("pass `{pass}` panicked: {msg}"))
            }
            RollbackReason::DeadlineExceeded { limit } => OptError::Budget {
                pass,
                kind: BudgetKind::Deadline,
                reason: format!("exceeded per-pass deadline of {limit:?}"),
            },
            RollbackReason::GrowthBudget {
                before,
                after,
                limit,
            } => OptError::Budget {
                pass,
                kind: BudgetKind::Growth,
                reason: format!(
                    "output grew {before} -> {after} nodes, past the {limit}x growth budget"
                ),
            },
            RollbackReason::PassBudget { max_passes } => OptError::Budget {
                pass,
                kind: BudgetKind::Passes,
                reason: format!("pipeline budget of {max_passes} passes already spent"),
            },
        }
    }
}

impl fmt::Display for RollbackReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RollbackReason::PassError(e) => write!(f, "pass error: {e}"),
            RollbackReason::LintViolation(e) => match e.as_ref() {
                // Elide the term dump: rollback lines are one-liners.
                OptError::LintAfterPass { error, .. } => write!(f, "lint: {error}"),
                other => write!(f, "lint: {other}"),
            },
            RollbackReason::Panic(msg) => write!(f, "panic: {msg}"),
            RollbackReason::DeadlineExceeded { limit } => {
                write!(f, "deadline exceeded ({limit:?})")
            }
            RollbackReason::GrowthBudget {
                before,
                after,
                limit,
            } => write!(
                f,
                "growth budget: {before} -> {after} nodes (limit {limit}x)"
            ),
            RollbackReason::PassBudget { max_passes } => {
                write!(f, "pass budget spent ({max_passes} passes)")
            }
        }
    }
}

/// [`poll`] reads the clock once every `POLL_MASK + 1` calls. A traversal
/// visit costs roughly 0.7 µs, so this bounds the overshoot past a
/// deadline to about 0.2 ms while keeping clock reads off the hot path.
const POLL_MASK: u32 = 0xFF;

thread_local! {
    static SUPPRESS_PANIC_REPORT: Cell<bool> = const { Cell::new(false) };
    /// The deadline of the pass running on this thread, if any.
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
    /// [`poll`] calls on this thread, for sampling the clock.
    static POLLS: Cell<u32> = const { Cell::new(0) };
}

/// The unwind payload of a [`poll`] that found its deadline passed.
struct DeadlineHit;

/// A cooperative cancellation point, called once per node at the top of
/// every pass traversal. Unwinds out of the pass once the deadline armed
/// by [`run_pass_guarded`] has passed; with no deadline armed it only
/// bumps a counter.
#[inline]
pub(crate) fn poll() {
    let n = POLLS.with(|c| {
        let n = c.get().wrapping_add(1);
        c.set(n);
        n
    });
    if n & POLL_MASK == 0 && deadline_passed() {
        panic::resume_unwind(Box::new(DeadlineHit));
    }
}

/// Has the deadline armed on this thread passed? `false` when unarmed.
fn deadline_passed() -> bool {
    DEADLINE
        .with(Cell::get)
        .is_some_and(|t| Instant::now() >= t)
}

/// RAII guard arming this thread's deadline; restores the previous one on
/// drop, unwinding included.
struct Armed(Option<Instant>);

impl Armed {
    fn new(limit: Option<Duration>) -> Armed {
        let deadline = limit.map(|limit| Instant::now() + limit);
        Armed(DEADLINE.with(|d| d.replace(deadline)))
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.0));
    }
}

/// Install (once, process-wide) a panic hook that stays silent while a
/// guarded pass is running on the current thread and delegates to the
/// previous hook otherwise. Without this, every injected panic in the
/// fault-injection suites would spray a backtrace onto test stderr.
pub(crate) fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_REPORT.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
}

/// Run `f` with panic *reports* suppressed on this thread: a panic still
/// unwinds (callers pair this with `catch_unwind`), but the process-wide
/// hook stays silent for it, so expected faults — injected saboteur
/// panics, chaos-harness request panics — don't spray backtraces onto
/// stderr. Panics on other threads report normally.
pub fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    install_quiet_panic_hook();
    let _quiet = Quiet::on();
    f()
}

/// RAII guard for the thread-local panic-report suppression flag.
pub(crate) struct Quiet(bool);

impl Quiet {
    pub(crate) fn on() -> Quiet {
        Quiet(SUPPRESS_PANIC_REPORT.with(|s| s.replace(true)))
    }
}

impl Drop for Quiet {
    fn drop(&mut self) {
        SUPPRESS_PANIC_REPORT.with(|s| s.set(self.0));
    }
}

/// The human-readable message inside a caught panic payload (the
/// `&str`/`String` cases `panic!` produces; anything else gets a stub).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_tapped(
    e: &Expr,
    data_env: &DataEnv,
    supply: &mut NameSupply,
    pass: Pass,
    simpl: &SimplOpts,
    ctx: &PassCtx,
    tap: Option<&PassTap>,
) -> Result<(Expr, RewriteStats, bool), OptError> {
    let raw = apply_pass(e, data_env, supply, pass, simpl);
    match tap {
        // A tap may rewrite the output arbitrarily, so the pass's own
        // no-change witness no longer holds: force `changed` so the driver
        // never skips lint (or anything else) on tapped output.
        Some(t) => t
            .call(ctx, raw.map(|(out, rw, _)| (out, rw)))
            .map(|(out, rw)| (out, rw, true)),
        None => raw,
    }
}

/// Run one pass inline under the full guard: `catch_unwind` panic
/// isolation and, when `deadline` is set, a cooperative deadline that the
/// pass's traversal polls. A pass that trips the deadline, or returns
/// after it, is reported as [`RollbackReason::DeadlineExceeded`]. The
/// name supply keeps whatever names the pass drew, even when its output
/// is discarded, so names are never reused.
#[allow(clippy::too_many_arguments)] // internal driver seam, not public API
pub(crate) fn run_pass_guarded(
    e: &Expr,
    data_env: &DataEnv,
    supply: &mut NameSupply,
    pass: Pass,
    simpl: &SimplOpts,
    index: usize,
    deadline: Option<Duration>,
    tap: Option<&PassTap>,
) -> Result<(Expr, RewriteStats, bool), RollbackReason> {
    install_quiet_panic_hook();
    let ctx = PassCtx {
        pass: pass.name(),
        index,
    };
    let _armed = Armed::new(deadline);
    let caught = {
        let _quiet = Quiet::on();
        panic::catch_unwind(AssertUnwindSafe(|| {
            run_tapped(e, data_env, supply, pass, simpl, &ctx, tap)
        }))
    };
    // Only an armed deadline can trip a poll or pass, so `deadline` is
    // always set where this is used.
    let timed_out = || RollbackReason::DeadlineExceeded {
        limit: deadline.unwrap_or_default(),
    };
    match caught {
        Err(payload) if payload.is::<DeadlineHit>() => Err(timed_out()),
        Err(payload) => Err(RollbackReason::Panic(panic_message(payload))),
        Ok(Err(err)) => Err(RollbackReason::PassError(Box::new(err))),
        Ok(Ok(_)) if deadline_passed() => Err(timed_out()),
        Ok(Ok(out)) => Ok(out),
    }
}
