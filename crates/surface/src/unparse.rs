//! Unparsing: System F_J → surface syntax.
//!
//! The inverse of [`crate::lower`]: terms built at the meta level (the
//! fusion library, the benchmark DSL) — or produced by the optimizer —
//! can be rendered as surface programs and fed through every
//! text-accepting route: the CLI, `fj serve`, and the persistent
//! on-disk cache, whose entries are exactly unparsed terms.
//!
//! The mapping is 1:1 where the grammars align ([`PrimOp`]↔`BinOp`,
//! `case`/`let`/`letrec`/lambdas, explicit `@ty` constructor arguments,
//! and `join`/`joinrec`/`jump` for the paper's join points) and total on
//! every core term. Core names render as `text_id` identifiers —
//! globally unique by construction, so re-lowering can never capture —
//! and re-lowering the rendered text yields a term α-equal to the
//! original (pinned by the round-trip tests; the one caveat is negative
//! literals, which re-lower as `0 - n` and constant-fold back in the
//! first simplifier pass).
//!
//! [`unparse_expr`] alone emits no `data` declarations, so only prelude
//! datatypes survive that trip; [`unparse_entry`] additionally renders
//! the non-prelude declarations of a [`DataEnv`], making any term
//! re-lowerable via [`crate::parse_entry`] + [`crate::lower_entry`].

use crate::ast::{BinOp, SAlt, SBinder, SData, SExpr, SJoinDef, SPat, STy};
use crate::print::{print_data, print_expr};
use crate::token::Pos;
use fj_ast::{Alt, AltCon, DataEnv, Expr, JoinBind, JoinDef, LetBind, Name, PrimOp, Type};

const NO_POS: Pos = Pos { line: 0, col: 0 };

/// Render a core name as a surface identifier.
///
/// The `_id` suffix keeps distinct uniques spelled distinctly (so
/// re-lowering cannot conflate two binders) and rules out keyword
/// collisions; the sanitized head keeps the lexer's lower-case-start
/// rule for variables even for names whose base text would read as a
/// constructor.
fn surface_name(n: &Name) -> String {
    let mut head: String = n
        .text()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '\'')
        .collect();
    if !head.starts_with(|c: char| c.is_ascii_lowercase() || c == '_') {
        head.insert(0, 'x');
    }
    format!("{head}_{}", n.id())
}

/// Unparse a type. Total: every core type has a surface spelling.
pub fn unparse_ty(t: &Type) -> STy {
    match t {
        Type::Int => STy::Con("Int".into(), Vec::new()),
        Type::Var(a) => STy::Var(surface_name(a)),
        Type::Con(c, args) => STy::Con(c.as_str().into(), args.iter().map(unparse_ty).collect()),
        Type::Fun(a, b) => STy::Fun(Box::new(unparse_ty(a)), Box::new(unparse_ty(b))),
        Type::Forall(a, body) => STy::Forall(surface_name(a), Box::new(unparse_ty(body))),
    }
}

/// Unparse a core term into surface syntax. Total: every core form —
/// join points included — has a surface spelling.
pub fn unparse_expr(e: &Expr) -> SExpr {
    match e {
        Expr::Var(n) => SExpr::Var(surface_name(n), NO_POS),
        Expr::Lit(n) => unparse_lit(*n),
        Expr::Prim(op, args) => {
            debug_assert_eq!(args.len(), 2, "all primops are binary");
            SExpr::BinOp(
                unparse_op(*op),
                Box::new(unparse_expr(&args[0])),
                Box::new(unparse_expr(&args[1])),
            )
        }
        Expr::Lam(..) | Expr::TyLam(..) => {
            // Collapse a run of binders into one surface lambda.
            let mut binders = Vec::new();
            let mut body = e;
            loop {
                match body {
                    Expr::Lam(b, inner) => {
                        binders.push(SBinder::Val(surface_name(&b.name), unparse_ty(&b.ty)));
                        body = inner;
                    }
                    Expr::TyLam(a, inner) => {
                        binders.push(SBinder::Ty(surface_name(a)));
                        body = inner;
                    }
                    _ => break,
                }
            }
            SExpr::Lam(binders, Box::new(unparse_expr(body)))
        }
        Expr::App(f, a) => SExpr::App(Box::new(unparse_expr(f)), Box::new(unparse_expr(a))),
        Expr::TyApp(f, t) => SExpr::TyApp(Box::new(unparse_expr(f)), unparse_ty(t)),
        Expr::Con(c, tys, args) => {
            // Constructor spine: head, `@ty…`, then fields — the exact
            // saturated shape the lowerer demands.
            let mut out = SExpr::Con(c.as_str().into(), NO_POS);
            for t in tys {
                out = SExpr::TyApp(Box::new(out), unparse_ty(t));
            }
            for a in args {
                out = SExpr::App(Box::new(out), Box::new(unparse_expr(a)));
            }
            out
        }
        Expr::Case(scrut, alts) => SExpr::Case(
            Box::new(unparse_expr(scrut)),
            alts.iter().map(unparse_alt).collect(),
            NO_POS,
        ),
        Expr::Let(LetBind::NonRec(b, rhs), body) => SExpr::Let(
            surface_name(&b.name),
            unparse_ty(&b.ty),
            Box::new(unparse_expr(rhs)),
            Box::new(unparse_expr(body)),
            NO_POS,
        ),
        Expr::Let(LetBind::Rec(binds), body) => SExpr::LetRec(
            binds
                .iter()
                .map(|(b, rhs)| (surface_name(&b.name), unparse_ty(&b.ty), unparse_expr(rhs)))
                .collect(),
            Box::new(unparse_expr(body)),
            NO_POS,
        ),
        Expr::Join(jb, body) => {
            let (rec, defs) = match jb {
                JoinBind::NonRec(d) => (false, std::slice::from_ref(&**d)),
                JoinBind::Rec(ds) => (true, ds.as_slice()),
            };
            SExpr::Join(
                rec,
                defs.iter().map(unparse_join_def).collect(),
                Box::new(unparse_expr(body)),
                NO_POS,
            )
        }
        Expr::Jump(j, tys, args, res) => SExpr::Jump(
            surface_name(j),
            tys.iter().map(unparse_ty).collect(),
            args.iter().map(unparse_expr).collect(),
            unparse_ty(res),
            NO_POS,
        ),
    }
}

fn unparse_join_def(d: &JoinDef) -> SJoinDef {
    let mut binders: Vec<SBinder> = d
        .ty_params
        .iter()
        .map(|a| SBinder::Ty(surface_name(a)))
        .collect();
    binders.extend(
        d.params
            .iter()
            .map(|b| SBinder::Val(surface_name(&b.name), unparse_ty(&b.ty))),
    );
    SJoinDef {
        name: surface_name(&d.name),
        binders,
        body: unparse_expr(&d.body),
    }
}

/// Unparse a whole closed `Int`-typed term as a runnable program:
/// `def main : Int = <expr>;`.
pub fn unparse_main(e: &Expr) -> String {
    format!("def main : Int =\n  {};\n", print_expr(&unparse_expr(e)))
}

/// Unparse a term as a self-contained cache-entry payload: the
/// non-prelude `data` declarations of `env` (sorted by name, so the
/// output is deterministic) followed by the bare expression. The result
/// parses with [`crate::parse_entry`] and re-lowers with
/// [`crate::lower_entry`] to a term α-equal to `e` — the contract the
/// persistent cache's verify-on-load discipline relies on.
pub fn unparse_entry(e: &Expr, env: &DataEnv) -> String {
    let prelude = DataEnv::prelude();
    let mut datas: Vec<SData> = env
        .iter()
        .filter(|d| prelude.datatype(&d.name).is_err())
        .map(|d| SData {
            name: d.name.as_str().into(),
            params: d.ty_vars.iter().map(surface_name).collect(),
            ctors: d
                .ctors
                .iter()
                .map(|c| {
                    (
                        c.name.as_str().into(),
                        c.fields.iter().map(unparse_ty).collect(),
                    )
                })
                .collect(),
            pos: NO_POS,
        })
        .collect();
    datas.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = String::new();
    for d in &datas {
        out.push_str(&print_data(d));
        out.push('\n');
    }
    out.push_str(&print_expr(&unparse_expr(e)));
    out.push('\n');
    out
}

fn unparse_alt(alt: &Alt) -> SAlt {
    let pat = match &alt.con {
        AltCon::Con(c) => SPat::Con(
            c.as_str().into(),
            alt.binders.iter().map(|b| surface_name(&b.name)).collect(),
        ),
        AltCon::Lit(n) => SPat::Lit(*n),
        AltCon::Default => SPat::Wild,
    };
    SAlt {
        pat,
        rhs: unparse_expr(&alt.rhs),
        pos: NO_POS,
    }
}

/// Negative literals have no literal spelling in the grammar; render
/// them as negation, which the lowerer folds straight back to the
/// literal. `i64::MIN` needs one extra step since its magnitude has no
/// literal (it round-trips to `(-MAX) - 1`, semantically equal but not
/// α-equal — the one corner where unparse → lower is not the identity).
fn unparse_lit(n: i64) -> SExpr {
    if n >= 0 {
        SExpr::Lit(n)
    } else if n == i64::MIN {
        SExpr::BinOp(
            BinOp::Sub,
            Box::new(SExpr::Neg(Box::new(SExpr::Lit(i64::MAX)))),
            Box::new(SExpr::Lit(1)),
        )
    } else {
        SExpr::Neg(Box::new(SExpr::Lit(-n)))
    }
}

fn unparse_op(op: PrimOp) -> BinOp {
    match op {
        PrimOp::Add => BinOp::Add,
        PrimOp::Sub => BinOp::Sub,
        PrimOp::Mul => BinOp::Mul,
        PrimOp::Div => BinOp::Div,
        PrimOp::Rem => BinOp::Rem,
        PrimOp::Eq => BinOp::Eq,
        PrimOp::Ne => BinOp::Ne,
        PrimOp::Lt => BinOp::Lt,
        PrimOp::Le => BinOp::Le,
        PrimOp::Gt => BinOp::Gt,
        PrimOp::Ge => BinOp::Ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, lower_entry, lower_expr, parse_entry};
    use fj_ast::alpha_eq;

    /// Compile a source program, unparse the lowered term, re-lower the
    /// unparsed text, and demand an α-equal term.
    fn round(src: &str) {
        let first = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}"));
        let sexpr = unparse_expr(&first.expr);
        let printed = print_expr(&sexpr);
        let reparsed = crate::parse_expr(&crate::lex(&printed).unwrap_or_else(|e| {
            panic!("unparsed text does not lex: {e}\n{printed}");
        }))
        .unwrap_or_else(|e| panic!("unparsed text does not parse: {e}\n{printed}"));
        let second = lower_expr(&reparsed)
            .unwrap_or_else(|e| panic!("unparsed text does not lower: {e}\n{printed}"));
        assert!(
            alpha_eq(&first.expr, &second.expr),
            "round trip changed the term\noriginal:\n{}\nunparsed:\n{printed}\nre-lowered:\n{}",
            first.expr,
            second.expr
        );
    }

    #[test]
    fn binding_and_control_forms_round_trip() {
        round(
            "def main : Int =
               let x : Int = 3 * 4 in
               letrec go : Int -> Int -> Int =
                 \\(n : Int) (acc : Int) ->
                   if n <= 0 then acc else go (n - 1) (acc + n)
               in go x 0;",
        );
        round(
            "def main : Int =
               case Just @Int 5 of { Nothing -> 0; Just y -> y + 1 };",
        );
        round(
            "def main : Int =
               case 7 % 3 of { 0 -> 10; 1 -> 20; _ -> 30 };",
        );
    }

    #[test]
    fn polymorphism_round_trips() {
        round(
            "def main : Int =
               let id : forall a. a -> a = \\@a (x : a) -> x
               in id @Int 42;",
        );
        round(
            "def main : Int =
               case MkPair @Int @(Int -> Int) 1 (\\(k : Int) -> k * 2) of {
                 MkPair a f -> f a
               };",
        );
    }

    #[test]
    fn every_operator_round_trips() {
        round(
            "def main : Int =
               if 1 + 2 * 3 - 4 / 2 % 3 < 10
               then if 1 /= 2 then 5 else 6
               else if 2 <= 1 then 7
               else if 3 > 4 then 8
               else if 4 >= 3 then 9
               else if 1 == 1 then 10 else 11;",
        );
    }

    #[test]
    fn join_forms_round_trip() {
        // Surface join points survive the unparse/re-lower trip — the
        // property the persistent cache needs for *optimized* terms,
        // which are full of them after contification.
        round(
            "def main : Int =
               join stop (r : Int) = r * 2 in
               if 1 < 2 then jump stop 3 : Int else jump stop 4 : Int;",
        );
        round(
            "def main : Int =
               joinrec go (n : Int) (acc : Int) =
                 if n <= 0 then acc else jump go (n - 1) (acc + n) : Int
               in jump go 10 0 : Int;",
        );
        round(
            "def main : Int =
               joinrec ev (n : Int) = if n == 0 then 1 else jump od (n - 1) : Int
               and od (n : Int) = if n == 0 then 0 else jump ev (n - 1) : Int
               in jump ev 8 : Int;",
        );
        round(
            "def main : Int =
               join pick @a (x : a) (y : a) (k : a -> Int) = k x in
               jump pick @Int 1 2 (\\(v : Int) -> v + 40) : Int;",
        );
    }

    #[test]
    fn optimized_terms_round_trip() {
        // The real client: run the full join-points pipeline (whose
        // output binds join points) and round-trip the *optimized* term.
        let src = "def main : Int =
               letrec go : Int -> Int -> Int =
                 \\(n : Int) (acc : Int) ->
                   if n <= 0 then acc else go (n - 1) (acc + n)
               in go 100 0;";
        let lowered = compile(src).unwrap();
        let mut supply = lowered.supply;
        let (opt, _) = fj_core::optimize_with_report(
            &lowered.expr,
            &lowered.data_env,
            &mut supply,
            &fj_core::OptConfig::join_points(),
        )
        .unwrap();
        let text = unparse_entry(&opt, &lowered.data_env);
        let (datas, sexpr) = parse_entry(&crate::lex(&text).unwrap())
            .unwrap_or_else(|e| panic!("unparsed optimized term does not parse: {e}\n{text}"));
        let second = lower_entry(&datas, &sexpr)
            .unwrap_or_else(|e| panic!("unparsed optimized term does not lower: {e}\n{text}"));
        assert!(
            alpha_eq(&opt, &second.expr),
            "optimized round trip changed the term\n{text}"
        );
        fj_check::lint(&second.expr, &second.data_env)
            .unwrap_or_else(|e| panic!("re-lowered optimized term does not lint: {e}\n{text}"));
    }

    #[test]
    fn entries_carry_user_datatypes() {
        // A term mentioning non-prelude constructors must re-lower from
        // an entry payload alone: the payload carries the `data` decls.
        let src = "data Shape = Circle Int | Square Int Int;
               def main : Int =
                 case Square 3 4 of { Circle r -> r; Square w h -> w * h };";
        let lowered = {
            let p = crate::parse_program(&crate::lex(src).unwrap()).unwrap();
            crate::lower_program(&p).unwrap()
        };
        let text = unparse_entry(&lowered.expr, &lowered.data_env);
        assert!(
            text.contains("data Shape"),
            "entry payload lost the data decl:\n{text}"
        );
        let (datas, sexpr) = parse_entry(&crate::lex(&text).unwrap()).unwrap();
        let second = lower_entry(&datas, &sexpr).unwrap();
        assert!(alpha_eq(&lowered.expr, &second.expr));
        assert_eq!(
            lowered.data_env.fingerprint(),
            second.data_env.fingerprint(),
            "re-declared datatypes changed the env fingerprint"
        );
    }

    #[test]
    fn step_programs_unparse_and_relower() {
        // The motivating client: meta-level stream steppers over the
        // prelude's Step datatype must survive the trip and lint.
        use fj_ast::{Dsl, Ident, Type};
        let mut d = Dsl::new();
        let s = d.binder("s", Type::Int);
        let step_tys = vec![Type::Int, Type::Int];
        let body = Expr::ite(
            Expr::prim2(PrimOp::Gt, Expr::var(&s.name), Expr::Lit(9)),
            Expr::Con(Ident::new("Done"), step_tys.clone(), vec![]),
            Expr::Con(
                Ident::new("Yield"),
                step_tys,
                vec![
                    Expr::var(&s.name),
                    Expr::prim2(PrimOp::Add, Expr::var(&s.name), Expr::Lit(1)),
                ],
            ),
        );
        let x = d.binder("x", Type::Int);
        let st = d.binder("st", Type::Int);
        let program = Expr::case(
            Expr::app(Expr::lam(s, body), Expr::Lit(0)),
            vec![
                Alt::simple(AltCon::Con(Ident::new("Done")), Expr::Lit(0)),
                Alt {
                    con: AltCon::Con(Ident::new("Yield")),
                    binders: vec![x.clone(), st],
                    rhs: Expr::var(&x.name),
                },
            ],
        );
        let text = unparse_main(&program);
        let lowered = compile(&text).unwrap_or_else(|e| panic!("unparsed program: {e}\n{text}"));
        fj_check::lint(&lowered.expr, &lowered.data_env)
            .unwrap_or_else(|e| panic!("re-lowered program does not lint: {e}\n{text}"));
    }

    #[test]
    fn negative_literals_relower_well_typed() {
        // Negative literals render as negation (there is no literal
        // spelling); the re-lowered `0 - n` must still lint as Int —
        // including the magnitude edge case at i64::MIN.
        let text = unparse_main(&Expr::prim2(
            PrimOp::Add,
            Expr::Lit(-7),
            Expr::Lit(i64::MIN),
        ));
        let lowered = compile(&text).unwrap_or_else(|e| panic!("compile: {e}\n{text}"));
        fj_check::lint(&lowered.expr, &lowered.data_env)
            .unwrap_or_else(|e| panic!("negative-literal program does not lint: {e}\n{text}"));
    }
}
