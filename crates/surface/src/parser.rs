//! Recursive-descent parser for the surface language.
//!
//! Grammar sketch (fully delimited — no layout):
//!
//! ```text
//! program  ::= (data | def)*
//! data     ::= 'data' ConId ident* '=' ctor ('|' ctor)* ';'
//! ctor     ::= ConId atype*
//! def      ::= 'def' ident ':' type '=' expr ';'
//! type     ::= 'forall' ident+ '.' type | btype ('->' type)?
//! btype    ::= atype+                      -- ConId application
//! atype    ::= ConId | ident | '(' type ')'
//! expr     ::= '\' binder+ '->' expr
//!            | 'let' ident ':' type '=' expr 'in' expr
//!            | 'letrec' bindgrp 'in' expr
//!            | 'join' jdef 'in' expr
//!            | 'joinrec' jdef ('and' jdef)* 'in' expr
//!            | 'jump' ident ('@' atype | aexpr)* ':' atype
//!            | 'case' expr 'of' '{' alt (';' alt)* '}'
//!            | 'if' expr 'then' expr 'else' expr
//!            | opexpr
//! jdef     ::= ident binder* '=' expr
//! opexpr   ::= arith (cmpop arith)?        -- comparisons non-associative
//! arith    ::= term (('+'|'-') term)*
//! term     ::= fexpr (('*'|'/'|'%') fexpr)*
//! fexpr    ::= aexpr (aexpr | '@' atype)*  -- application
//! aexpr    ::= ident | ConId | int | '-' aexpr | '(' expr ')'
//! binder   ::= '(' ident ':' type ')' | '@' ident
//! alt      ::= ConId ident* '->' expr | int '->' expr | '_' '->' expr
//! ```

use crate::ast::{BinOp, SAlt, SBinder, SData, SDef, SExpr, SJoinDef, SPat, SProgram, STy};
use crate::token::{Pos, Spanned, Tok};
use crate::SurfaceError;

/// Parse a whole program.
///
/// # Errors
///
/// Returns [`SurfaceError::Parse`] with a position on malformed input.
pub fn parse_program(tokens: &[Spanned]) -> Result<SProgram, SurfaceError> {
    let mut p = Parser {
        toks: tokens,
        at: 0,
        depth: 0,
    };
    let mut datas = Vec::new();
    let mut defs = Vec::new();
    loop {
        match p.peek() {
            Tok::Eof => break,
            Tok::Data => datas.push(p.data_decl()?),
            Tok::Def => defs.push(p.def_decl()?),
            other => return Err(p.err(format!("expected `data` or `def`, found `{other}`"))),
        }
    }
    Ok(SProgram { datas, defs })
}

/// Parse a single expression (used by tests and the REPL example).
///
/// # Errors
///
/// As [`parse_program`].
pub fn parse_expr(tokens: &[Spanned]) -> Result<SExpr, SurfaceError> {
    let mut p = Parser {
        toks: tokens,
        at: 0,
        depth: 0,
    };
    let e = p.expr()?;
    p.expect(&Tok::Eof)?;
    Ok(e)
}

/// Parse a cache-entry payload: `data` declarations followed by one
/// expression. This is the on-disk shape the persistent cache uses — a
/// bare term plus whatever datatypes it mentions, with no `def main`
/// wrapper (which would add a spurious `let` on re-lowering).
///
/// # Errors
///
/// As [`parse_program`].
pub fn parse_entry(tokens: &[Spanned]) -> Result<(Vec<SData>, SExpr), SurfaceError> {
    let mut p = Parser {
        toks: tokens,
        at: 0,
        depth: 0,
    };
    let mut datas = Vec::new();
    while p.peek() == &Tok::Data {
        datas.push(p.data_decl()?);
    }
    let e = p.expr()?;
    p.expect(&Tok::Eof)?;
    Ok((datas, e))
}

/// Hard ceiling on grammar recursion depth. Each level of expression or
/// type nesting costs a handful of stack frames, so 500 levels stays well
/// inside the default 2 MiB test-thread stack while still accepting any
/// program a human (or the generator) writes. Deeper nesting gets a clean
/// `ParseError` instead of overflowing the parser's stack.
///
/// It bounds the parser only, and only nesting. Two shapes parse at any
/// length yet lower to a Core term as deep as they are long: a chain of
/// binary operators (`1 + 1 + … + 1`) and many top-level `def`s (one
/// `let` each). On a 2 MiB thread, as every `fj serve` thread has, under
/// a thousand of either overflow the stack of the optimizer or erasure,
/// and a stack overflow aborts the process. One depth budget for every
/// stage is an open item ("No input may abort the process", ROADMAP.md).
pub const MAX_NESTING_DEPTH: usize = 500;

struct Parser<'a> {
    toks: &'a [Spanned],
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Tok {
        &self.toks[self.at].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.at].pos
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.at].tok.clone();
        if self.at + 1 < self.toks.len() {
            self.at += 1;
        }
        t
    }

    /// Bump the recursion depth, failing cleanly past the ceiling. Called
    /// on every entry to the recursive grammar productions (`expr`,
    /// `aexpr`, `ty`, `atype`); the shared counter covers mutual
    /// recursion between them.
    fn enter(&mut self) -> Result<(), SurfaceError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(self.err(format!("nesting exceeds depth limit ({MAX_NESTING_DEPTH})")));
        }
        Ok(())
    }

    fn err(&self, msg: String) -> SurfaceError {
        SurfaceError::Parse {
            pos: self.pos(),
            msg,
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), SurfaceError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, SurfaceError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    fn conid(&mut self) -> Result<String, SurfaceError> {
        match self.peek().clone() {
            Tok::ConId(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected constructor name, found `{other}`"))),
        }
    }

    // ---- declarations ------------------------------------------------

    fn data_decl(&mut self) -> Result<SData, SurfaceError> {
        let pos = self.pos();
        self.expect(&Tok::Data)?;
        let name = self.conid()?;
        let mut params = Vec::new();
        while let Tok::Ident(_) = self.peek() {
            params.push(self.ident()?);
        }
        self.expect(&Tok::Equals)?;
        let mut ctors = vec![self.ctor_decl()?];
        while self.peek() == &Tok::Bar {
            self.bump();
            ctors.push(self.ctor_decl()?);
        }
        self.expect(&Tok::Semi)?;
        Ok(SData {
            name,
            params,
            ctors,
            pos,
        })
    }

    fn ctor_decl(&mut self) -> Result<(String, Vec<STy>), SurfaceError> {
        let name = self.conid()?;
        let mut fields = Vec::new();
        while let Tok::ConId(_) | Tok::Ident(_) | Tok::LParen = self.peek() {
            fields.push(self.atype()?);
        }
        Ok((name, fields))
    }

    fn def_decl(&mut self) -> Result<SDef, SurfaceError> {
        let pos = self.pos();
        self.expect(&Tok::Def)?;
        let name = self.ident()?;
        self.expect(&Tok::Colon)?;
        let ty = self.ty()?;
        self.expect(&Tok::Equals)?;
        let body = self.expr()?;
        self.expect(&Tok::Semi)?;
        Ok(SDef {
            name,
            ty,
            body,
            pos,
        })
    }

    // ---- types --------------------------------------------------------

    fn ty(&mut self) -> Result<STy, SurfaceError> {
        self.enter()?;
        let r = self.ty_inner();
        self.depth -= 1;
        r
    }

    fn ty_inner(&mut self) -> Result<STy, SurfaceError> {
        if self.peek() == &Tok::Forall {
            self.bump();
            let mut vars = vec![self.ident()?];
            while let Tok::Ident(_) = self.peek() {
                vars.push(self.ident()?);
            }
            self.expect(&Tok::Dot)?;
            let body = self.ty()?;
            return Ok(vars
                .into_iter()
                .rev()
                .fold(body, |acc, v| STy::Forall(v, Box::new(acc))));
        }
        let lhs = self.btype()?;
        if self.peek() == &Tok::Arrow {
            self.bump();
            let rhs = self.ty()?;
            Ok(STy::Fun(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn btype(&mut self) -> Result<STy, SurfaceError> {
        let head = self.atype()?;
        let mut args = Vec::new();
        while let Tok::ConId(_) | Tok::Ident(_) | Tok::LParen = self.peek() {
            args.push(self.atype()?);
        }
        if args.is_empty() {
            return Ok(head);
        }
        match head {
            STy::Con(name, existing) if existing.is_empty() => Ok(STy::Con(name, args)),
            _ => Err(self.err("only type constructors can be applied".into())),
        }
    }

    fn atype(&mut self) -> Result<STy, SurfaceError> {
        self.enter()?;
        let r = self.atype_inner();
        self.depth -= 1;
        r
    }

    fn atype_inner(&mut self) -> Result<STy, SurfaceError> {
        match self.peek().clone() {
            Tok::ConId(s) => {
                self.bump();
                Ok(STy::Con(s, Vec::new()))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(STy::Var(s))
            }
            Tok::LParen => {
                self.bump();
                let t = self.ty()?;
                self.expect(&Tok::RParen)?;
                Ok(t)
            }
            other => Err(self.err(format!("expected a type, found `{other}`"))),
        }
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<SExpr, SurfaceError> {
        self.enter()?;
        let r = self.expr_inner();
        self.depth -= 1;
        r
    }

    fn expr_inner(&mut self) -> Result<SExpr, SurfaceError> {
        match self.peek() {
            Tok::Backslash => self.lambda(),
            Tok::Let => self.let_expr(),
            Tok::LetRec => self.letrec_expr(),
            Tok::Join => self.join_expr(false),
            Tok::JoinRec => self.join_expr(true),
            Tok::Jump => self.jump_expr(),
            Tok::Case => self.case_expr(),
            Tok::If => self.if_expr(),
            _ => self.op_expr(),
        }
    }

    /// `(x : t)` and `@a` binders, zero or more (shared by lambdas and
    /// join-point definitions).
    fn binders(&mut self) -> Result<Vec<SBinder>, SurfaceError> {
        let mut binders = Vec::new();
        loop {
            match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let x = self.ident()?;
                    self.expect(&Tok::Colon)?;
                    let t = self.ty()?;
                    self.expect(&Tok::RParen)?;
                    binders.push(SBinder::Val(x, t));
                }
                Tok::At => {
                    self.bump();
                    binders.push(SBinder::Ty(self.ident()?));
                }
                _ => break,
            }
        }
        Ok(binders)
    }

    fn lambda(&mut self) -> Result<SExpr, SurfaceError> {
        self.expect(&Tok::Backslash)?;
        let binders = self.binders()?;
        if binders.is_empty() {
            return Err(self.err("lambda needs at least one binder".into()));
        }
        self.expect(&Tok::Arrow)?;
        let body = self.expr()?;
        Ok(SExpr::Lam(binders, Box::new(body)))
    }

    fn join_expr(&mut self, rec: bool) -> Result<SExpr, SurfaceError> {
        let pos = self.pos();
        self.bump(); // `join` or `joinrec`
        let mut defs = Vec::new();
        loop {
            let name = self.ident()?;
            let binders = self.binders()?;
            self.expect(&Tok::Equals)?;
            let body = self.expr()?;
            defs.push(SJoinDef {
                name,
                binders,
                body,
            });
            if rec && self.peek() == &Tok::And {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::In)?;
        let body = self.expr()?;
        Ok(SExpr::Join(rec, defs, Box::new(body), pos))
    }

    fn jump_expr(&mut self) -> Result<SExpr, SurfaceError> {
        let pos = self.pos();
        self.expect(&Tok::Jump)?;
        let label = self.ident()?;
        let mut tys = Vec::new();
        let mut args = Vec::new();
        loop {
            match self.peek() {
                Tok::At => {
                    self.bump();
                    if !args.is_empty() {
                        return Err(
                            self.err("jump type arguments must precede value arguments".into())
                        );
                    }
                    tys.push(self.atype()?);
                }
                Tok::Ident(_) | Tok::ConId(_) | Tok::Int(_) | Tok::LParen | Tok::Minus => {
                    args.push(self.aexpr()?);
                }
                _ => break,
            }
        }
        self.expect(&Tok::Colon)?;
        let ret = self.atype()?;
        Ok(SExpr::Jump(label, tys, args, ret, pos))
    }

    fn let_expr(&mut self) -> Result<SExpr, SurfaceError> {
        let pos = self.pos();
        self.expect(&Tok::Let)?;
        let x = self.ident()?;
        self.expect(&Tok::Colon)?;
        let t = self.ty()?;
        self.expect(&Tok::Equals)?;
        let rhs = self.expr()?;
        self.expect(&Tok::In)?;
        let body = self.expr()?;
        Ok(SExpr::Let(x, t, Box::new(rhs), Box::new(body), pos))
    }

    fn letrec_expr(&mut self) -> Result<SExpr, SurfaceError> {
        let pos = self.pos();
        self.expect(&Tok::LetRec)?;
        let mut binds = Vec::new();
        loop {
            let x = self.ident()?;
            self.expect(&Tok::Colon)?;
            let t = self.ty()?;
            self.expect(&Tok::Equals)?;
            let rhs = self.expr()?;
            binds.push((x, t, rhs));
            if self.peek() == &Tok::And {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Tok::In)?;
        let body = self.expr()?;
        Ok(SExpr::LetRec(binds, Box::new(body), pos))
    }

    fn case_expr(&mut self) -> Result<SExpr, SurfaceError> {
        let pos = self.pos();
        self.expect(&Tok::Case)?;
        let scrut = self.expr()?;
        self.expect(&Tok::Of)?;
        self.expect(&Tok::LBrace)?;
        let mut alts = vec![self.alt()?];
        while self.peek() == &Tok::Semi {
            self.bump();
            if self.peek() == &Tok::RBrace {
                break; // allow trailing semicolon
            }
            alts.push(self.alt()?);
        }
        self.expect(&Tok::RBrace)?;
        Ok(SExpr::Case(Box::new(scrut), alts, pos))
    }

    fn alt(&mut self) -> Result<SAlt, SurfaceError> {
        let pos = self.pos();
        let pat = match self.peek().clone() {
            Tok::ConId(c) => {
                self.bump();
                let mut fields = Vec::new();
                loop {
                    match self.peek().clone() {
                        Tok::Ident(x) => {
                            self.bump();
                            fields.push(x);
                        }
                        Tok::Underscore => {
                            self.bump();
                            fields.push("_wild".to_string());
                        }
                        _ => break,
                    }
                }
                SPat::Con(c, fields)
            }
            Tok::Int(n) => {
                self.bump();
                SPat::Lit(n)
            }
            Tok::Minus => {
                self.bump();
                match self.peek().clone() {
                    Tok::Int(n) => {
                        self.bump();
                        SPat::Lit(-n)
                    }
                    other => {
                        return Err(self.err(format!(
                            "expected integer after `-` in pattern, found `{other}`"
                        )))
                    }
                }
            }
            Tok::Underscore => {
                self.bump();
                SPat::Wild
            }
            other => return Err(self.err(format!("expected a pattern, found `{other}`"))),
        };
        self.expect(&Tok::Arrow)?;
        let rhs = self.expr()?;
        Ok(SAlt { pat, rhs, pos })
    }

    fn if_expr(&mut self) -> Result<SExpr, SurfaceError> {
        self.expect(&Tok::If)?;
        let c = self.expr()?;
        self.expect(&Tok::Then)?;
        let t = self.expr()?;
        self.expect(&Tok::Else)?;
        let f = self.expr()?;
        Ok(SExpr::If(Box::new(c), Box::new(t), Box::new(f)))
    }

    fn op_expr(&mut self) -> Result<SExpr, SurfaceError> {
        let lhs = self.arith()?;
        let op = match self.peek() {
            Tok::EqEq => BinOp::Eq,
            Tok::NotEq => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.arith()?;
        Ok(SExpr::BinOp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn arith(&mut self) -> Result<SExpr, SurfaceError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.term()?;
            lhs = SExpr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn term(&mut self) -> Result<SExpr, SurfaceError> {
        let mut lhs = self.fexpr()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Rem,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.fexpr()?;
            lhs = SExpr::BinOp(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn fexpr(&mut self) -> Result<SExpr, SurfaceError> {
        let mut head = self.aexpr()?;
        loop {
            match self.peek() {
                Tok::Ident(_) | Tok::ConId(_) | Tok::Int(_) | Tok::LParen => {
                    let arg = self.aexpr()?;
                    head = SExpr::App(Box::new(head), Box::new(arg));
                }
                Tok::At => {
                    self.bump();
                    let t = self.atype()?;
                    head = SExpr::TyApp(Box::new(head), t);
                }
                _ => return Ok(head),
            }
        }
    }

    fn aexpr(&mut self) -> Result<SExpr, SurfaceError> {
        self.enter()?;
        let r = self.aexpr_inner();
        self.depth -= 1;
        r
    }

    fn aexpr_inner(&mut self) -> Result<SExpr, SurfaceError> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::Ident(x) => {
                self.bump();
                Ok(SExpr::Var(x, pos))
            }
            Tok::ConId(c) => {
                self.bump();
                Ok(SExpr::Con(c, pos))
            }
            Tok::Int(n) => {
                self.bump();
                Ok(SExpr::Lit(n))
            }
            Tok::Minus => {
                self.bump();
                let e = self.aexpr()?;
                Ok(SExpr::Neg(Box::new(e)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(self.err(format!("expected an expression, found `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn pe(src: &str) -> SExpr {
        parse_expr(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn precedence() {
        // 1 + 2 * 3 < 10  parses as (1 + (2*3)) < 10
        let e = pe("1 + 2 * 3 < 10");
        match e {
            SExpr::BinOp(BinOp::Lt, l, _) => match *l {
                SExpr::BinOp(BinOp::Add, _, r) => {
                    assert!(matches!(*r, SExpr::BinOp(BinOp::Mul, _, _)));
                }
                other => panic!("expected +, got {other:?}"),
            },
            other => panic!("expected <, got {other:?}"),
        }
    }

    #[test]
    fn application_binds_tighter_than_ops() {
        let e = pe("f 1 + g 2");
        assert!(matches!(e, SExpr::BinOp(BinOp::Add, _, _)));
    }

    #[test]
    fn lambda_and_typeapp() {
        let e = pe("\\@a (x : a) -> just @a x");
        match e {
            SExpr::Lam(bs, body) => {
                assert_eq!(bs.len(), 2);
                assert!(matches!(bs[0], SBinder::Ty(_)));
                assert!(matches!(*body, SExpr::App(..)));
            }
            other => panic!("expected lambda, got {other:?}"),
        }
    }

    #[test]
    fn case_with_patterns() {
        let e = pe("case xs of { Nil -> 0; Cons h t -> h; _ -> 9 }");
        match e {
            SExpr::Case(_, alts, _) => {
                assert_eq!(alts.len(), 3);
                assert_eq!(
                    alts[1].pat,
                    SPat::Con("Cons".into(), vec!["h".into(), "t".into()])
                );
                assert_eq!(alts[2].pat, SPat::Wild);
            }
            other => panic!("expected case, got {other:?}"),
        }
    }

    #[test]
    fn letrec_groups() {
        let e = pe("letrec ev : Int -> Bool = \\(n : Int) -> od (n - 1) \
             and od : Int -> Bool = \\(n : Int) -> ev (n - 1) in ev 4");
        match e {
            SExpr::LetRec(binds, _, _) => assert_eq!(binds.len(), 2),
            other => panic!("expected letrec, got {other:?}"),
        }
    }

    #[test]
    fn program_with_data_and_defs() {
        let src = "
            data Shape = Circle Int | Square Int Int;
            def area : Shape -> Int =
              \\(s : Shape) -> case s of { Circle r -> 3 * r * r; Square w h -> w * h };
            def main : Int = area (Square 3 4);
        ";
        let p = parse_program(&lex(src).unwrap()).unwrap();
        assert_eq!(p.datas.len(), 1);
        assert_eq!(p.defs.len(), 2);
        assert_eq!(p.datas[0].ctors.len(), 2);
    }

    #[test]
    fn negative_literals() {
        let e = pe("-5 + 3");
        assert!(matches!(e, SExpr::BinOp(BinOp::Add, _, _)));
        let alt = pe("case x of { -1 -> 0; _ -> 1 }");
        match alt {
            SExpr::Case(_, alts, _) => assert_eq!(alts[0].pat, SPat::Lit(-1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn forall_types() {
        let src = "def id : forall a. a -> a = \\@a (x : a) -> x; def main : Int = id @Int 5;";
        let p = parse_program(&lex(src).unwrap()).unwrap();
        assert!(matches!(p.defs[0].ty, STy::Forall(..)));
    }

    #[test]
    fn error_has_position() {
        let err = parse_expr(&lex("let = 5").unwrap()).unwrap_err();
        assert!(err.to_string().contains("expected identifier"));
    }
}
