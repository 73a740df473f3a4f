//! The optimization pipeline: pass ordering, presets, and Lint-between-
//! passes (paper Sec. 7).
//!
//! Two presets reproduce the paper's experimental conditions:
//!
//! * [`OptConfig::join_points`] — the paper's compiler: Float In exposes
//!   tail calls, contification turns them into `join`s, and the
//!   simplifier *preserves and exploits* them (`jfloat`/`abort`).
//! * [`OptConfig::baseline`] — GHC before the paper: the optimizer never
//!   creates or exploits join points (shared contexts become `let`-bound
//!   functions), and contification runs only **once, at the very end** —
//!   modelling the back end that "already recognises join points … and
//!   compiles them efficiently" but cannot stop earlier passes from
//!   destroying the opportunities.

use crate::contify::contify_counting;
use crate::cse::cse;
use crate::float_in::float_in_counting;
use crate::float_out::float_out_counting;
use crate::guard::{run_pass_guarded, PassTap, RollbackReason};
use crate::simplify::{simplify_once_changed, SimplOpts};
use crate::stats::{Census, PassOutcome, PassStats, PipelineReport, RewriteStats};
use crate::OptError;
use fj_ast::{DataEnv, Expr, NameSupply};
use fj_check::lint;
use std::time::{Duration, Instant};

/// One pipeline pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// One simplifier round (β, case-of-case, inlining, jfloat, abort, …).
    Simplify,
    /// Contification: infer join points from tail-called `let`s.
    Contify,
    /// Float `let` bindings inward.
    FloatIn,
    /// Float `let` bindings outward past lambdas.
    FloatOut,
    /// Common-subexpression elimination (Sec. 8's direct-style example).
    Cse,
}

impl Pass {
    /// Stable pass name, as it appears in [`PassStats::pass`] and Lint
    /// failures.
    pub fn name(self) -> &'static str {
        match self {
            Pass::Simplify => "simplify",
            Pass::Contify => "contify",
            Pass::FloatIn => "float-in",
            Pass::FloatOut => "float-out",
            Pass::Cse => "cse",
        }
    }
}

/// A pipeline: the pass list, simplifier options, and pass guards.
#[derive(Clone, Debug)]
pub struct OptConfig {
    /// Passes, in order.
    pub passes: Vec<Pass>,
    /// Simplifier tuning (including the join-points switch).
    pub simpl: SimplOpts,
    /// Lint after every pass, failing fast with the pass name. Under
    /// [`Recovery::RollBack`] the driver lints after every pass
    /// regardless — rollback is meaningless without detection.
    pub lint_between: bool,
    /// Per-pass wall-clock deadline, polled cooperatively by every pass
    /// traversal on the calling thread (fail-fast: [`OptError::Budget`];
    /// resilient: rollback). Default `None`: un-timed.
    pub pass_deadline: Option<Duration>,
    /// Maximum per-pass term-size growth factor. A pass whose output
    /// exceeds `max(before * factor, GROWTH_FLOOR)` nodes fails its budget.
    /// Default `None`: unlimited.
    pub max_growth: Option<f64>,
    /// Maximum number of passes actually executed; the rest of the
    /// pipeline is skipped (resilient) or errors (fail-fast). Default
    /// `None`: run everything.
    pub max_passes: Option<usize>,
    /// Test seam interposed on every pass output (fault injection).
    /// Default `None`.
    pub tap: Option<PassTap>,
    /// What the driver does when a pass fails its guard. Default
    /// [`Recovery::FailFast`].
    pub recovery: Recovery,
}

/// What [`optimize_with_report`] does when a pass fails its guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// Abort the whole pipeline with an [`OptError`].
    FailFast,
    /// Graceful degradation: every pass runs under a guard (panic
    /// isolation, optional deadline, growth and pass budgets, lint after
    /// every pass), and a failing pass is rolled back to its pre-pass term
    /// while the remaining passes continue. A misbehaving pass costs one
    /// optimization opportunity, not the compilation; each pass's fate is
    /// a [`PassOutcome`] in the report.
    RollBack,
}

/// Small terms get this much absolute headroom before
/// [`OptConfig::max_growth`] kicks in, so a 4-node term can still be
/// legitimately inlined into a 40-node one.
pub const GROWTH_FLOOR: usize = 256;

impl OptConfig {
    fn from_parts(passes: Vec<Pass>, simpl: SimplOpts) -> Self {
        OptConfig {
            passes,
            simpl,
            lint_between: cfg!(debug_assertions),
            pass_deadline: None,
            max_growth: None,
            max_passes: None,
            tap: None,
            recovery: Recovery::FailFast,
        }
    }

    /// The paper's full pipeline with join points preserved and exploited.
    pub fn join_points() -> Self {
        let round = [Pass::FloatIn, Pass::Contify, Pass::Simplify];
        let mut passes = Vec::new();
        for _ in 0..3 {
            passes.extend_from_slice(&round);
        }
        passes.push(Pass::FloatOut);
        passes.extend_from_slice(&round);
        Self::from_parts(passes, SimplOpts::default())
    }

    /// GHC-before-the-paper: join-unaware optimization, with join points
    /// recognized only at "code generation" (the trailing contify).
    pub fn baseline() -> Self {
        let mut passes = vec![
            Pass::FloatIn,
            Pass::Simplify,
            Pass::FloatIn,
            Pass::Simplify,
            Pass::FloatOut,
            Pass::FloatIn,
            Pass::Simplify,
        ];
        passes.push(Pass::Contify); // back-end join detection only
        Self::from_parts(passes, SimplOpts::baseline())
    }

    /// No optimization at all (still contifies once, as every back end
    /// including the baseline does).
    pub fn none() -> Self {
        Self::from_parts(vec![Pass::Contify], SimplOpts::baseline())
    }

    /// The join-points pipeline with a CSE round before the final
    /// simplification (the Sec. 8 direct-style bonus pass).
    pub fn join_points_with_cse() -> Self {
        let mut cfg = Self::join_points();
        let at = cfg.passes.len().saturating_sub(3);
        cfg.passes.insert(at, Pass::Cse);
        cfg
    }

    /// Ablation helper: the join-points pipeline minus one ingredient.
    pub fn join_points_without(pass: Pass) -> Self {
        let mut cfg = Self::join_points();
        cfg.passes.retain(|p| *p != pass);
        cfg
    }

    /// Toggle lint-between-passes.
    pub fn with_lint(mut self, on: bool) -> Self {
        self.lint_between = on;
        self
    }

    /// Set the per-pass wall-clock deadline.
    pub fn with_pass_deadline(mut self, limit: Duration) -> Self {
        self.pass_deadline = Some(limit);
        self
    }

    /// Set the per-pass term-size growth budget (a factor over the
    /// pre-pass size, with [`GROWTH_FLOOR`] absolute headroom).
    pub fn with_max_growth(mut self, factor: f64) -> Self {
        self.max_growth = Some(factor);
        self
    }

    /// Cap the number of passes actually executed.
    pub fn with_max_passes(mut self, n: usize) -> Self {
        self.max_passes = Some(n);
        self
    }

    /// Interpose a [`PassTap`] on every pass output (fault injection).
    pub fn with_tap(mut self, tap: PassTap) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Set what the driver does when a pass fails its guard.
    pub fn with_recovery(mut self, recovery: Recovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// A stable 64-bit digest of everything in this configuration that can
    /// influence the optimized term — the configuration component of the
    /// [`OptCache`](crate::cache::OptCache) key.
    ///
    /// Returns `None` when a [`PassTap`] is installed: taps are opaque
    /// functions (the fault-injection seam), so two configs with taps can
    /// never be proven equivalent and tapped pipelines must bypass the
    /// cache entirely.
    ///
    /// The pass deadline is left out: a run it cuts short either fails
    /// (strict) or is degraded by a rollback (resilient), and neither is
    /// ever cached, so every cached output is independent of it. So is
    /// [`OptConfig::lint_between`]: a lint never changes an output — a
    /// failed lint is an error, which is never cached, and resilient mode
    /// lints after every pass regardless — so debug and release builds,
    /// whose defaults differ, share entries. And so is
    /// [`OptConfig::recovery`]: the cache key carries the mode as a bit of
    /// its own ([`CacheKey::resilient`](crate::CacheKey::resilient)).
    pub fn fingerprint(&self) -> Option<u64> {
        use std::hash::{Hash, Hasher};
        if self.tap.is_some() {
            return None;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.passes.len().hash(&mut h);
        for p in &self.passes {
            p.name().hash(&mut h);
        }
        self.simpl.join_points.hash(&mut h);
        self.max_growth.map(f64::to_bits).hash(&mut h);
        self.max_passes.hash(&mut h);
        Some(h.finish())
    }
}

/// Run one pass over a term, returning the output, the rewrite counters
/// for that pass, and whether the pass changed the term at all.
///
/// This is the unit of both [`optimize_with_report`] and the testkit's
/// per-pass differential oracle: the same `(Expr, RewriteStats, bool)`
/// step, whether it is driven by a pipeline or checked one pass at a time.
///
/// The `changed` flag is an explicit no-change witness, *not*
/// `rewrites.total() > 0`: the simplifier can rewrite without firing a
/// counter (trivial-atom substitution), so the flag is tracked separately.
/// `changed == false` guarantees the output term is the input term, which
/// lets the driver skip re-lint, census, and repeat runs of the pass.
///
/// # Errors
///
/// Returns [`OptError`] when the pass itself fails (e.g. the simplifier
/// on an ill-typed term).
pub fn apply_pass(
    e: &Expr,
    data_env: &DataEnv,
    supply: &mut NameSupply,
    pass: Pass,
    simpl: &SimplOpts,
) -> Result<(Expr, RewriteStats, bool), OptError> {
    let mut rw = RewriteStats::default();
    let (out, changed) = match pass {
        Pass::Simplify => simplify_once_changed(e, data_env, supply, simpl, &mut rw)?,
        Pass::Contify => {
            let (out, n) = contify_counting(e);
            rw.contified = n as u64;
            (out, n > 0)
        }
        Pass::FloatIn => {
            let (out, n) = float_in_counting(e);
            rw.floated_in = n;
            (out, n > 0)
        }
        Pass::FloatOut => {
            let (out, n) = float_out_counting(e);
            rw.floated_out = n;
            (out, n > 0)
        }
        Pass::Cse => {
            let outcome = cse(e, supply);
            rw.cse_hits = outcome.replaced as u64;
            let changed = outcome.replaced > 0;
            (outcome.expr, changed)
        }
    };
    Ok((out, rw, changed))
}

/// Run a pipeline over a closed, well-typed term, returning the
/// optimized term and its per-pass [`PipelineReport`]: rewrite-firing
/// counters, a term census after every pass, and wall times. This is the
/// one pipeline driver; `cfg.recovery` chooses strict or resilient.
///
/// Strict mode ([`Recovery::FailFast`]) with no deadline and no tap calls
/// [`apply_pass`] directly (panics propagate); any other combination
/// routes through the guard. Under [`Recovery::RollBack`] the output term
/// is well-typed whenever the input was: only linted pass outputs are
/// ever committed.
///
/// # Errors
///
/// Strict mode returns [`OptError`] on a pass failure or a blown budget,
/// or [`OptError::LintAfterPass`] when `lint_between` is on and a pass
/// broke the typing discipline (the paper's "forensic" use of Core Lint).
/// Resilient mode never fails today (every per-pass failure becomes a
/// rollback); the `Result` is kept so the signature can survive future
/// fatal conditions.
pub fn optimize_with_report(
    e: &Expr,
    data_env: &DataEnv,
    supply: &mut NameSupply,
    cfg: &OptConfig,
) -> Result<(Expr, PipelineReport), OptError> {
    let started = Instant::now();
    let mut report = PipelineReport {
        census_before: Census::of(e),
        ..PipelineReport::default()
    };
    // Cheap under subtree sharing: the top node is cloned, children are
    // refcount bumps — this is also the resilient mode's O(1) rollback
    // snapshot (on rollback `cur` simply stays what it was).
    let mut cur = e.clone();
    // The census of `cur`, reused verbatim for passes that change nothing.
    let mut census = report.census_before;
    // Rollback without detection is meaningless: resilient mode always
    // lints pass outputs, whatever `lint_between` says.
    let recovery = cfg.recovery;
    let lint_after = cfg.lint_between || recovery == Recovery::RollBack;
    let needs_guard =
        recovery == Recovery::RollBack || cfg.pass_deadline.is_some() || cfg.tap.is_some();
    // A tap may rewrite pass output arbitrarily, so its `changed` flag is
    // not a no-change witness; disable every skip fast path under taps.
    let trust_changed = cfg.tap.is_none();
    // Pass kinds proven to be no-ops on the current term. Re-running one
    // before anything else changes the term is pure waste: passes are
    // deterministic functions of the term, so it would report no-change
    // again. Cleared whenever a pass commits a new term.
    let mut noop_passes: Vec<Pass> = Vec::new();
    let mut executed = 0usize;
    for (index, pass) in cfg.passes.iter().enumerate() {
        let pass_started = Instant::now();
        if let Some(max_passes) = cfg.max_passes {
            if executed >= max_passes {
                let reason = RollbackReason::PassBudget { max_passes };
                match recovery {
                    Recovery::FailFast => return Err(reason.into_opt_error(pass.name())),
                    Recovery::RollBack => {
                        report.passes.push(rolled_back(
                            pass.name(),
                            census,
                            Duration::ZERO,
                            reason,
                        ));
                        continue;
                    }
                }
            }
        }
        if trust_changed && noop_passes.contains(pass) {
            report.passes.push(PassStats {
                pass: pass.name(),
                rewrites: RewriteStats::default(),
                census_after: census,
                wall: pass_started.elapsed(),
                outcome: PassOutcome::Applied,
            });
            continue;
        }
        executed += 1;
        let ran = if needs_guard {
            run_pass_guarded(
                &cur,
                data_env,
                supply,
                *pass,
                &cfg.simpl,
                index,
                cfg.pass_deadline,
                cfg.tap.as_ref(),
            )
        } else {
            apply_pass(&cur, data_env, supply, *pass, &cfg.simpl)
                .map_err(|err| RollbackReason::PassError(Box::new(err)))
        };
        let checked = ran.and_then(|(next, rw, changed)| {
            debug_assert!(
                changed || next == cur,
                "pass `{}` reported no-change but rewrote the term",
                pass.name()
            );
            if trust_changed && !changed {
                // `changed == false` witnesses output ≡ input: the term was
                // linted when it was committed, its size didn't grow, and
                // its census is the one we already have.
                return Ok((None, rw));
            }
            if let Some(factor) = cfg.max_growth {
                let (before, after) = (cur.size(), next.size());
                let allowed = (before as f64 * factor).max(GROWTH_FLOOR as f64);
                if after as f64 > allowed {
                    return Err(RollbackReason::GrowthBudget {
                        before,
                        after,
                        limit: factor,
                    });
                }
            }
            if lint_after {
                if let Err(err) = lint(&next, data_env) {
                    return Err(RollbackReason::LintViolation(Box::new(
                        OptError::LintAfterPass {
                            pass: pass.name(),
                            error: Box::new(err),
                            dump: next.to_string(),
                        },
                    )));
                }
            }
            Ok((Some(next), rw))
        });
        match checked {
            Ok((committed, rewrites)) => {
                match committed {
                    Some(next) => {
                        cur = next;
                        census = Census::of(&cur);
                        noop_passes.clear();
                    }
                    None => noop_passes.push(*pass),
                }
                report.passes.push(PassStats {
                    pass: pass.name(),
                    rewrites,
                    census_after: census,
                    wall: pass_started.elapsed(),
                    outcome: PassOutcome::Applied,
                });
            }
            Err(reason) => match recovery {
                Recovery::FailFast => return Err(reason.into_opt_error(pass.name())),
                Recovery::RollBack => {
                    report.passes.push(rolled_back(
                        pass.name(),
                        census,
                        pass_started.elapsed(),
                        reason,
                    ));
                }
            },
        }
    }
    report.census_after = census;
    report.wall = started.elapsed();
    Ok((cur, report))
}

fn rolled_back(
    pass: &'static str,
    census: Census,
    wall: std::time::Duration,
    reason: RollbackReason,
) -> PassStats {
    PassStats {
        pass,
        rewrites: RewriteStats::default(),
        census_after: census,
        wall,
        outcome: PassOutcome::RolledBack(reason),
    }
}
