//! Pass-level observability: rewrite-firing counters, term censuses, and
//! the structured [`PipelineReport`] returned by
//! [`optimize_with_report`](crate::optimize_with_report).
//!
//! The paper's evaluation (Sec. 7, Table 1) is entirely about *counting
//! what the optimizer did* — which rewrites fired, how many join points
//! were inferred, and what the residual program allocates. These types
//! make every pass's effect observable: each pass reports how often each
//! axiom fired ([`RewriteStats`]), what the term looked like afterwards
//! ([`Census`]), and how long the pass took.

use crate::guard::RollbackReason;
use fj_ast::Expr;
use std::fmt;
use std::time::Duration;

/// How often each rewrite fired during one pass (or one whole pipeline,
/// when summed with [`RewriteStats::merge`]).
///
/// The field names follow the paper's Fig. 4 axiom names where one
/// exists; the rest are the simplifier behaviours of Sec. 7.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// `β`/`β_τ`: a lambda (or type lambda) met its argument.
    pub beta: u64,
    /// `case`: a known constructor or literal scrutinee selected its
    /// alternative outright.
    pub known_case: u64,
    /// `casefloat`/case-of-case: a pending evaluation context was pushed
    /// into the branches of a residual `case`.
    pub case_of_case: u64,
    /// Contexts too big to copy that were shared through a fresh join
    /// point (or a `let`-bound function in baseline mode) — footnote 5's
    /// "the Simplifier regularly creates join points".
    pub shared_contexts: u64,
    /// `jfloat`: the pending context was copied into a join binding's
    /// right-hand sides.
    pub jfloat: u64,
    /// `abort`: a jump discarded its pending evaluation context.
    pub abort: u64,
    /// `inline`: a `let`-bound value was substituted at its uses.
    pub inline: u64,
    /// `jinline`: a join definition was inlined at a jump.
    pub join_inline: u64,
    /// `drop`/`jdrop`: a dead `let` or `join` binding was removed.
    pub dead_drop: u64,
    /// Constant folding of primitive operations.
    pub const_fold: u64,
    /// Contification: `let`-bound functions converted to join points
    /// (groups count once, as in Fig. 5's judgement).
    pub contified: u64,
    /// Float In: `let` bindings moved inward toward their use sites.
    pub floated_in: u64,
    /// Float Out: `let` bindings hoisted out of lambdas.
    pub floated_out: u64,
    /// CSE: occurrences replaced by an earlier equal binding.
    pub cse_hits: u64,
}

impl RewriteStats {
    /// Total rewrites fired.
    pub fn total(&self) -> u64 {
        self.beta
            + self.known_case
            + self.case_of_case
            + self.shared_contexts
            + self.jfloat
            + self.abort
            + self.inline
            + self.join_inline
            + self.dead_drop
            + self.const_fold
            + self.contified
            + self.floated_in
            + self.floated_out
            + self.cse_hits
    }

    /// Accumulate another pass's counters into this one.
    pub fn merge(&mut self, other: &RewriteStats) {
        self.beta += other.beta;
        self.known_case += other.known_case;
        self.case_of_case += other.case_of_case;
        self.shared_contexts += other.shared_contexts;
        self.jfloat += other.jfloat;
        self.abort += other.abort;
        self.inline += other.inline;
        self.join_inline += other.join_inline;
        self.dead_drop += other.dead_drop;
        self.const_fold += other.const_fold;
        self.contified += other.contified;
        self.floated_in += other.floated_in;
        self.floated_out += other.floated_out;
        self.cse_hits += other.cse_hits;
    }

    /// `(label, count)` pairs for the counters that fired, for rendering.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        [
            ("beta", self.beta),
            ("known-case", self.known_case),
            ("case-of-case", self.case_of_case),
            ("shared-ctx", self.shared_contexts),
            ("jfloat", self.jfloat),
            ("abort", self.abort),
            ("inline", self.inline),
            ("jinline", self.join_inline),
            ("dead-drop", self.dead_drop),
            ("const-fold", self.const_fold),
            ("contify", self.contified),
            ("float-in", self.floated_in),
            ("float-out", self.floated_out),
            ("cse", self.cse_hits),
        ]
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .collect()
    }
}

impl fmt::Display for RewriteStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fired = self.nonzero();
        if fired.is_empty() {
            return write!(f, "(no rewrites)");
        }
        for (i, (label, n)) in fired.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{label}={n}")?;
        }
        Ok(())
    }
}

/// A syntactic census of one term: the join-point shape of the program at
/// a pipeline boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Census {
    /// Term size ([`Expr::size`]).
    pub size: usize,
    /// `let` binders (counting each binder of a recursive group).
    pub lets: usize,
    /// Join definitions (counting each definition of a recursive group).
    pub joins: usize,
    /// Jumps.
    pub jumps: usize,
    /// Value lambdas.
    pub lams: usize,
    /// `case` expressions.
    pub cases: usize,
}

impl Census {
    /// Take the census of a term in a single pre-order walk (`size` is a
    /// node count, so it is tallied alongside the shape counters).
    pub fn of(e: &Expr) -> Census {
        let mut c = Census::default();
        e.walk(&mut |node| {
            c.size += 1;
            match node {
                Expr::Let(bind, _) => c.lets += bind.binders().len(),
                Expr::Join(jb, _) => c.joins += jb.defs().len(),
                Expr::Jump(..) => c.jumps += 1,
                Expr::Lam(..) => c.lams += 1,
                Expr::Case(..) => c.cases += 1,
                _ => {}
            }
        });
        c
    }
}

impl fmt::Display for Census {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "size={} lets={} joins={} jumps={} lams={} cases={}",
            self.size, self.lets, self.joins, self.jumps, self.lams, self.cases
        )
    }
}

/// Did the driver keep a pass's output, or throw it away?
///
/// Strict pipelines ([`Recovery::FailFast`](crate::Recovery::FailFast))
/// only ever record [`PassOutcome::Applied`]: any failure aborts
/// compilation instead. The resilient pipeline
/// ([`Recovery::RollBack`](crate::Recovery::RollBack)) records
/// [`PassOutcome::RolledBack`] and continues from the pre-pass term.
#[derive(Clone, Debug, Default)]
pub enum PassOutcome {
    /// The pass ran, passed its budgets (and lint), and its output became
    /// the input of the next pass.
    #[default]
    Applied,
    /// The pass failed (error, panic, lint violation, or blown budget);
    /// its output was discarded and the pipeline continued from the
    /// pre-pass term.
    RolledBack(RollbackReason),
}

impl PassOutcome {
    /// Was the pass output kept?
    pub fn is_applied(&self) -> bool {
        matches!(self, PassOutcome::Applied)
    }
}

impl fmt::Display for PassOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassOutcome::Applied => write!(f, "applied"),
            PassOutcome::RolledBack(reason) => write!(f, "rolled back: {reason}"),
        }
    }
}

/// What one pass did: its name, rewrite counters, the census of its
/// output, and wall-clock time.
#[derive(Clone, Debug)]
pub struct PassStats {
    /// Pass name (as in [`Pass::name`](crate::Pass)).
    pub pass: &'static str,
    /// Rewrites fired during the pass. Zeroed when the pass was rolled
    /// back (discarded rewrites never happened as far as the pipeline is
    /// concerned).
    pub rewrites: RewriteStats,
    /// Census of the pass's output term — the *pre-pass* term when the
    /// pass was rolled back.
    pub census_after: Census,
    /// Wall-clock time spent in the pass.
    pub wall: Duration,
    /// Whether the output was kept or rolled back.
    pub outcome: PassOutcome,
}

/// Everything the pipeline did, pass by pass.
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// Census of the input term.
    pub census_before: Census,
    /// Per-pass statistics, in execution order.
    pub passes: Vec<PassStats>,
    /// Census of the final term (equals the last pass's `census_after`
    /// when any pass ran).
    pub census_after: Census,
    /// Total wall-clock time across passes.
    pub wall: Duration,
}

impl PipelineReport {
    /// Sum of every pass's rewrite counters.
    pub fn totals(&self) -> RewriteStats {
        let mut t = RewriteStats::default();
        for p in &self.passes {
            t.merge(&p.rewrites);
        }
        t
    }

    /// Total rewrites fired by passes with this name (e.g. `"simplify"`).
    pub fn rewrites_for(&self, pass: &str) -> u64 {
        self.passes
            .iter()
            .filter(|p| p.pass == pass)
            .map(|p| p.rewrites.total())
            .sum()
    }

    /// The passes whose output was discarded, in execution order.
    pub fn rolled_back(&self) -> impl Iterator<Item = &PassStats> {
        self.passes.iter().filter(|p| !p.outcome.is_applied())
    }

    /// Did every pass apply cleanly?
    pub fn all_applied(&self) -> bool {
        self.passes.iter().all(|p| p.outcome.is_applied())
    }

    /// Was a pass rolled back for its deadline? Such a result depends on
    /// timing rather than on the input, so no cache tier keeps it.
    pub fn hit_deadline(&self) -> bool {
        self.rolled_back().any(|p| {
            matches!(
                p.outcome,
                PassOutcome::RolledBack(RollbackReason::DeadlineExceeded { .. })
            )
        })
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "input:  {}", self.census_before)?;
        for p in &self.passes {
            match &p.outcome {
                PassOutcome::Applied => writeln!(
                    f,
                    "{:<10} {:>7.1?}  {}  [{}]",
                    p.pass, p.wall, p.census_after, p.rewrites
                )?,
                PassOutcome::RolledBack(reason) => writeln!(
                    f,
                    "{:<10} {:>7.1?}  {}  [{}]",
                    p.pass, p.wall, p.census_after, reason
                )?,
            }
        }
        write!(f, "output: {}  (total {:?})", self.census_after, self.wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_ast::{Dsl, JoinDef, PrimOp, Type};

    #[test]
    fn census_counts_shapes() {
        let mut d = Dsl::new();
        let x = d.binder("x", Type::Int);
        let j = d.name("j");
        let p = d.binder("p", Type::Int);
        let e = Expr::let1(
            x.clone(),
            Expr::Lit(1),
            Expr::join1(
                JoinDef {
                    name: j.clone(),
                    ty_params: vec![],
                    params: vec![p.clone()],
                    body: Expr::prim2(PrimOp::Add, Expr::var(&p.name), Expr::var(&x.name)),
                },
                Expr::jump(&j, vec![], vec![Expr::Lit(2)], Type::Int),
            ),
        );
        let c = Census::of(&e);
        assert_eq!(c.lets, 1);
        assert_eq!(c.joins, 1);
        assert_eq!(c.jumps, 1);
        assert_eq!(c.lams, 0);
        assert_eq!(c.cases, 0);
        assert_eq!(c.size, e.size());
    }

    #[test]
    fn merge_and_total() {
        let mut a = RewriteStats {
            beta: 2,
            contified: 1,
            ..RewriteStats::default()
        };
        let b = RewriteStats {
            beta: 3,
            cse_hits: 4,
            ..RewriteStats::default()
        };
        a.merge(&b);
        assert_eq!(a.beta, 5);
        assert_eq!(a.total(), 10);
        assert_eq!(a.nonzero().len(), 3);
    }
}
