//! Deliberate fault injection for the resilient pipeline.
//!
//! A [`Saboteur`] is a [`PassTap`] that corrupts the output of one chosen
//! pipeline pass in a deterministic, seed-driven way. Each corruption is
//! constructed so that Core Lint is *guaranteed* to reject the result:
//! the fault-injection suites assert that the resilient pipeline
//! ([`Recovery::RollBack`](fj_core::Recovery::RollBack)) catches every
//! injected fault, rolls the pass back, and still produces a
//! program that evaluates to the unoptimized program's value. Two extra
//! modes exercise the non-lint guards: an injected panic
//! (`catch_unwind` isolation) and an infinite spin (the per-pass
//! deadline).
//!
//! Corruption sites are chosen with the [`SplitMix64`] PRNG, so a failure
//! reproduces from `(mode, target pass, seed)` alone. A mode that finds
//! no eligible site in a given term injects nothing; callers consult
//! [`SaboteurHandle::fired`] to know whether a fault actually went in.

use crate::rng::SplitMix64;
use fj_ast::{occurs_free, Expr, LetBind, Name, Type};
use fj_core::{PassResult, PassTap};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The kinds of fault a [`Saboteur`] can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sabotage {
    /// Swap the right-hand sides of two case alternatives, moving a
    /// branch that uses its own field binders under the wrong pattern
    /// (Lint: unbound variable).
    SwapCaseAlts,
    /// Drop the last argument of a jump (Lint: arity mismatch).
    DropJumpArg,
    /// Rename a bound variable, orphaning its occurrences (Lint: unbound
    /// variable).
    RenameBoundVar,
    /// Change a `let` binder's type annotation to a function over itself
    /// (Lint: type mismatch at the binding).
    LieTypeAnnotation,
    /// Panic inside the pass (exercises `catch_unwind` isolation).
    InjectPanic,
    /// Spin until cancelled (exercises the per-pass deadline; only
    /// meaningful when the pipeline sets one).
    InjectSpin,
}

impl Sabotage {
    /// Every mode, for matrix tests.
    pub const ALL: [Sabotage; 6] = [
        Sabotage::SwapCaseAlts,
        Sabotage::DropJumpArg,
        Sabotage::RenameBoundVar,
        Sabotage::LieTypeAnnotation,
        Sabotage::InjectPanic,
        Sabotage::InjectSpin,
    ];

    /// Stable name for labels and failure messages.
    pub fn name(self) -> &'static str {
        match self {
            Sabotage::SwapCaseAlts => "swap-case-alts",
            Sabotage::DropJumpArg => "drop-jump-arg",
            Sabotage::RenameBoundVar => "rename-bound-var",
            Sabotage::LieTypeAnnotation => "lie-type-annotation",
            Sabotage::InjectPanic => "inject-panic",
            Sabotage::InjectSpin => "inject-spin",
        }
    }
}

/// Shared view of how many faults a [`Saboteur`] actually injected.
#[derive(Clone, Debug)]
pub struct SaboteurHandle {
    fired: Arc<AtomicU64>,
}

impl SaboteurHandle {
    /// How many faults were injected so far (0 when the target pass found
    /// no eligible corruption site).
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::SeqCst)
    }
}

/// Build a sabotaging [`PassTap`] targeting the pipeline pass at
/// `target_pass` (zero-based), plus a handle reporting whether a fault
/// actually fired. Install it with
/// [`OptConfig::with_tap`](fj_core::OptConfig::with_tap).
pub fn saboteur(mode: Sabotage, target_pass: usize, seed: u64) -> (PassTap, SaboteurHandle) {
    let fired = Arc::new(AtomicU64::new(0));
    let handle = SaboteurHandle {
        fired: fired.clone(),
    };
    let rng = Mutex::new(SplitMix64::new(seed));
    let tap = PassTap::new(move |ctx, res: PassResult| {
        if ctx.index != target_pass {
            return res;
        }
        match mode {
            Sabotage::InjectPanic => {
                fired.fetch_add(1, Ordering::SeqCst);
                panic!("saboteur: injected panic in pass `{}`", ctx.pass);
            }
            Sabotage::InjectSpin => {
                fired.fetch_add(1, Ordering::SeqCst);
                // Cooperative spin: hold the pass hostage until its
                // deadline passes.
                while !ctx.cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                res
            }
            _ => match res {
                Ok((e, rw)) => {
                    let mut rng = rng.lock().expect("saboteur rng poisoned");
                    match corrupt(&e, mode, &mut rng) {
                        Some(bad) => {
                            fired.fetch_add(1, Ordering::SeqCst);
                            Ok((bad, rw))
                        }
                        None => Ok((e, rw)),
                    }
                }
                err => err,
            },
        }
    });
    (tap, handle)
}

/// Corrupt a term according to `mode`, or `None` when the term offers no
/// site where the corruption is guaranteed to be lint-detectable.
pub fn corrupt(e: &Expr, mode: Sabotage, rng: &mut SplitMix64) -> Option<Expr> {
    let unique = unique_binders(e);
    let total = {
        let mut n = 0usize;
        e.walk(&mut |node| {
            if eligible(node, mode, &unique) {
                n += 1;
            }
        });
        n
    };
    if total == 0 {
        return None;
    }
    let target = rng.below(total as u64) as usize;
    let mut seen = 0usize;
    let mut out = map_expr(e, &mut |node| {
        if eligible(&node, mode, &unique) {
            let hit = seen == target;
            seen += 1;
            if hit {
                return apply_corruption(node, mode, rng);
            }
        }
        node
    });
    // `map_expr` is bottom-up while `walk` is top-down, so re-count if
    // nothing fired (candidate orders differ); fall back to the first.
    if seen <= target {
        seen = 0;
        out = map_expr(e, &mut |node| {
            if eligible(&node, mode, &unique) && seen == 0 {
                seen += 1;
                return apply_corruption(node, mode, rng);
            }
            node
        });
    }
    Some(out)
}

/// Names bound exactly once in the whole term. Corruptions that orphan or
/// re-home occurrences are only safe (guaranteed lint-detectable) when
/// the binder's name cannot be captured by another binder of the same
/// name elsewhere.
fn unique_binders(e: &Expr) -> HashMap<Name, usize> {
    let mut counts: HashMap<Name, usize> = HashMap::new();
    let mut bump = |n: &Name| *counts.entry(n.clone()).or_insert(0) += 1;
    e.walk(&mut |node| match node {
        Expr::Lam(b, _) => bump(&b.name),
        Expr::TyLam(a, _) => bump(a),
        Expr::Let(bind, _) => {
            for b in bind.binders() {
                bump(&b.name);
            }
        }
        Expr::Join(jb, _) => {
            for d in jb.defs() {
                bump(&d.name);
                for p in &d.params {
                    bump(&p.name);
                }
            }
        }
        Expr::Case(_, alts) => {
            for alt in alts {
                for b in &alt.binders {
                    bump(&b.name);
                }
            }
        }
        _ => {}
    });
    counts
}

fn is_unique(n: &Name, unique: &HashMap<Name, usize>) -> bool {
    unique.get(n).copied().unwrap_or(0) == 1
}

/// Is this node an eligible corruption site for `mode`, i.e. one where
/// the corruption provably breaks Lint?
fn eligible(node: &Expr, mode: Sabotage, unique: &HashMap<Name, usize>) -> bool {
    match mode {
        Sabotage::SwapCaseAlts => match node {
            Expr::Case(_, alts) => alts.len() >= 2 && swap_source(alts, unique).is_some(),
            _ => false,
        },
        Sabotage::DropJumpArg => matches!(node, Expr::Jump(_, _, args, _) if !args.is_empty()),
        Sabotage::RenameBoundVar => match node {
            Expr::Lam(b, body) => is_unique(&b.name, unique) && occurs_free(&b.name, body),
            Expr::Let(LetBind::NonRec(b, _), body) => {
                is_unique(&b.name, unique) && occurs_free(&b.name, body)
            }
            _ => false,
        },
        Sabotage::LieTypeAnnotation => matches!(node, Expr::Let(LetBind::NonRec(..), _)),
        Sabotage::InjectPanic | Sabotage::InjectSpin => false,
    }
}

/// Find an alternative whose RHS uses one of its own (term-wide unique)
/// field binders: moving that RHS under a different pattern orphans the
/// occurrence.
fn swap_source(alts: &[fj_ast::Alt], unique: &HashMap<Name, usize>) -> Option<usize> {
    alts.iter().position(|alt| {
        alt.binders
            .iter()
            .any(|b| is_unique(&b.name, unique) && occurs_free(&b.name, &alt.rhs))
    })
}

fn apply_corruption(node: Expr, mode: Sabotage, rng: &mut SplitMix64) -> Expr {
    match (mode, node) {
        (Sabotage::SwapCaseAlts, Expr::Case(scrut, mut alts)) => {
            let unique = {
                // Recompute locally: binders unique within the case are
                // enough here, since the moved RHS stays inside it.
                let probe = Expr::Case(scrut.clone(), alts.clone());
                unique_binders(&probe)
            };
            let i = swap_source(&alts, &unique).unwrap_or(0);
            let mut j = rng.below(alts.len() as u64) as usize;
            if j == i {
                j = (j + 1) % alts.len();
            }
            let tmp = alts[i].rhs.clone();
            alts[i].rhs = alts[j].rhs.clone();
            alts[j].rhs = tmp;
            Expr::Case(scrut, alts)
        }
        (Sabotage::DropJumpArg, Expr::Jump(j, tys, mut args, ty)) => {
            args.pop();
            Expr::Jump(j, tys, args, ty)
        }
        (Sabotage::RenameBoundVar, Expr::Lam(mut b, body)) => {
            b.name = orphan_name(rng);
            Expr::Lam(b, body)
        }
        (Sabotage::RenameBoundVar, Expr::Let(LetBind::NonRec(mut b, rhs), body)) => {
            b.name = orphan_name(rng);
            Expr::Let(LetBind::NonRec(b, rhs), body)
        }
        (Sabotage::LieTypeAnnotation, Expr::Let(LetBind::NonRec(mut b, rhs), body)) => {
            b.ty = Type::fun(b.ty.clone(), b.ty.clone());
            Expr::Let(LetBind::NonRec(b, rhs), body)
        }
        (_, node) => node,
    }
}

/// A fresh binder name no occurrence can refer to (ids this large are
/// never handed out by program supplies).
fn orphan_name(rng: &mut SplitMix64) -> Name {
    Name::with_id("sabotaged", 0xFAB0_0000_0000_0000u64 | rng.below(1 << 32))
}

/// Bottom-up structural map: rebuild every node, passing it through `f`.
fn map_expr(e: &Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    let node = e.map_children(|c| Some(map_expr(c, f)));
    f(node.unwrap_or_else(|| e.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{build_closed, gen};
    use fj_core::{optimize_with_report, OptConfig, PassOutcome, Recovery};
    use fj_eval::{run, EvalMode};

    const FUEL: u64 = 5_000_000;
    const CASES: u64 = 12;

    /// Expected rollback tag per sabotage mode.
    fn expected_tag(mode: Sabotage) -> &'static str {
        match mode {
            Sabotage::InjectPanic => "panic",
            Sabotage::InjectSpin => "deadline",
            _ => "lint",
        }
    }

    /// The fault-injection property, over generated programs: every fault
    /// that fires is caught and rolled back at the targeted pass, and the
    /// final program computes the same value as the unoptimized input.
    fn sabotage_generated(mode: Sabotage, target: usize, cases: u64) {
        let mut fired_total = 0u64;
        for case in 0..cases {
            let mut rng = SplitMix64::new(0xDEAD_0000 + case);
            let g = gen(&mut rng, 4);
            let (mut d, e) = build_closed(&g);
            let Ok(reference) = run(&e, EvalMode::CallByValue, FUEL) else {
                continue;
            };
            let (tap, handle) = saboteur(mode, target, 0xBEEF + case);
            let mut cfg = OptConfig::join_points()
                .with_tap(tap)
                .with_recovery(Recovery::RollBack);
            if mode == Sabotage::InjectSpin {
                cfg = cfg.with_pass_deadline(Duration::from_millis(40));
            }
            let (out, report) = optimize_with_report(&e, &d.data_env, &mut d.supply, &cfg)
                .expect("resilient pipeline never fails");
            let fired = handle.fired();
            fired_total += fired;
            let rolled: Vec<_> = report.rolled_back().collect();
            assert_eq!(
                rolled.len() as u64,
                fired,
                "mode {} case {case}: {} faults fired but {} passes rolled back",
                mode.name(),
                fired,
                rolled.len()
            );
            if fired > 0 {
                assert_eq!(rolled[0].pass, cfg.passes[target].name());
                let PassOutcome::RolledBack(reason) = &rolled[0].outcome else {
                    unreachable!()
                };
                assert_eq!(
                    reason.tag(),
                    expected_tag(mode),
                    "mode {} case {case}: wrong rollback reason: {reason}",
                    mode.name()
                );
            }
            let after = run(&out, EvalMode::CallByValue, FUEL)
                .expect("sabotaged-then-rolled-back program must still run");
            assert_eq!(
                reference.value,
                after.value,
                "mode {} case {case}: value changed",
                mode.name()
            );
        }
        assert!(
            fired_total > 0,
            "mode {} never fired over {cases} programs — the matrix is vacuous",
            mode.name()
        );
    }

    #[test]
    fn swap_case_alts_is_caught_and_rolled_back() {
        // Target the first Float In: the generator's case scrutinees are
        // known constructors, so the simplifier erases cases soon after.
        sabotage_generated(Sabotage::SwapCaseAlts, 0, CASES);
    }

    #[test]
    fn drop_jump_arg_is_caught_and_rolled_back() {
        sabotage_generated(Sabotage::DropJumpArg, 5, CASES);
    }

    #[test]
    fn rename_bound_var_is_caught_and_rolled_back() {
        sabotage_generated(Sabotage::RenameBoundVar, 0, CASES);
    }

    #[test]
    fn lie_type_annotation_is_caught_and_rolled_back() {
        sabotage_generated(Sabotage::LieTypeAnnotation, 0, CASES);
    }

    #[test]
    fn inject_panic_is_caught_and_rolled_back() {
        sabotage_generated(Sabotage::InjectPanic, 7, CASES);
    }

    #[test]
    fn inject_spin_hits_the_deadline_and_rolls_back() {
        sabotage_generated(Sabotage::InjectSpin, 0, 4);
    }

    #[test]
    fn corruption_is_deterministic_for_a_seed() {
        let mut rng = SplitMix64::new(99);
        let g = gen(&mut rng, 4);
        let (_, e) = build_closed(&g);
        let a = corrupt(&e, Sabotage::LieTypeAnnotation, &mut SplitMix64::new(5));
        let b = corrupt(&e, Sabotage::LieTypeAnnotation, &mut SplitMix64::new(5));
        assert_eq!(a, b);
    }
}
