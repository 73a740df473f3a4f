//! End-to-end frontend tests: compile, lint, run.

use crate::{compile, Lowered};
use fj_ast::Ident;
use fj_check::lint;
use fj_eval::{run, run_int, EvalMode, Value};

const FUEL: u64 = 2_000_000;

fn compile_lint(src: &str) -> Lowered {
    let lowered = compile(src).unwrap_or_else(|e| panic!("compile: {e}"));
    lint(&lowered.expr, &lowered.data_env)
        .unwrap_or_else(|e| panic!("lint: {e}\n{}", lowered.expr));
    lowered
}

fn run_main(src: &str) -> i64 {
    let lowered = compile_lint(src);
    run_int(&lowered.expr, EvalMode::CallByName, FUEL)
        .unwrap_or_else(|e| panic!("eval: {e}\n{}", lowered.expr))
}

#[test]
fn arithmetic_program() {
    assert_eq!(run_main("def main : Int = 1 + 2 * 3 - 4;"), 3);
}

#[test]
fn defs_see_earlier_defs() {
    let src = "
        def double : Int -> Int = \\(x : Int) -> x * 2;
        def main : Int = double (double 10);
    ";
    assert_eq!(run_main(src), 40);
}

#[test]
fn letrec_loop() {
    let src = "
        def main : Int =
          letrec go : Int -> Int -> Int =
            \\(n : Int) (acc : Int) ->
              if n <= 0 then acc else go (n - 1) (acc + n)
          in go 10 0;
    ";
    assert_eq!(run_main(src), 55);
}

#[test]
fn user_datatypes() {
    let src = "
        data Shape = Circle Int | Square Int Int;
        def area : Shape -> Int =
          \\(s : Shape) -> case s of {
            Circle r -> 3 * r * r;
            Square w h -> w * h
          };
        def main : Int = area (Circle 2) + area (Square 3 4);
    ";
    assert_eq!(run_main(src), 24);
}

#[test]
fn polymorphic_lists() {
    let src = "
        def sum : List Int -> Int =
          \\(xs : List Int) ->
            letrec go : List Int -> Int -> Int =
              \\(ys : List Int) (acc : Int) ->
                case ys of {
                  Nil -> acc;
                  Cons h t -> go t (acc + h)
                }
            in go xs 0;
        def main : Int =
          sum (Cons @Int 1 (Cons @Int 2 (Cons @Int 3 (Nil @Int))));
    ";
    assert_eq!(run_main(src), 6);
}

#[test]
fn polymorphic_identity() {
    let src = "
        def id : forall a. a -> a = \\@a (x : a) -> x;
        def main : Int = id @Int 42;
    ";
    assert_eq!(run_main(src), 42);
}

#[test]
fn maybe_results() {
    let src = "
        def safeDiv : Int -> Int -> Maybe Int =
          \\(a : Int) (b : Int) ->
            if b == 0 then Nothing @Int else Just @Int (a / b);
        def main : Int =
          case safeDiv 10 2 of {
            Nothing -> 0 - 1;
            Just q -> q
          };
    ";
    assert_eq!(run_main(src), 5);
}

#[test]
fn literal_cases() {
    let src = "
        def classify : Int -> Int =
          \\(n : Int) -> case n of { 0 -> 10; 1 -> 20; _ -> 30 };
        def main : Int = classify 1 + classify 7;
    ";
    assert_eq!(run_main(src), 50);
}

#[test]
fn boolean_value_program() {
    let src = "def main : Bool = 3 < 4;";
    let lowered = compile_lint(src);
    let v = run(&lowered.expr, EvalMode::CallByNeed, FUEL)
        .unwrap()
        .value;
    assert_eq!(v, Value::Con(Ident::new("True"), vec![]));
}

#[test]
fn pairs_and_projections() {
    let src = "
        def swap : Pair Int Bool -> Pair Bool Int =
          \\(p : Pair Int Bool) -> case p of {
            MkPair a b -> MkPair @Bool @Int b a
          };
        def main : Int =
          case swap (MkPair @Int @Bool 7 True) of {
            MkPair x y -> y
          };
    ";
    assert_eq!(run_main(src), 7);
}

#[test]
fn unbound_variable_rejected() {
    let e = compile("def main : Int = nope;").unwrap_err();
    assert!(e.to_string().contains("not in scope"), "{e}");
}

#[test]
fn unsaturated_constructor_rejected() {
    let e = compile("def main : Maybe Int = Just @Int;").unwrap_err();
    assert!(e.to_string().contains("saturated"), "{e}");
}

#[test]
fn missing_type_args_rejected() {
    let e = compile("def main : Maybe Int = Just 5;").unwrap_err();
    assert!(e.to_string().contains("type argument"), "{e}");
}

#[test]
fn missing_main_rejected() {
    let e = compile("def f : Int = 1;").unwrap_err();
    assert!(e.to_string().contains("main"), "{e}");
}

#[test]
fn duplicate_datatype_rejected() {
    let e = compile("data Bool = T | F; def main : Int = 1;").unwrap_err();
    assert!(e.to_string().contains("duplicate"), "{e}");
}

#[test]
fn mutual_recursion_via_letrec() {
    let src = "
        def main : Bool =
          letrec even : Int -> Bool =
            \\(n : Int) -> if n == 0 then True else odd (n - 1)
          and odd : Int -> Bool =
            \\(n : Int) -> if n == 0 then False else even (n - 1)
          in even 10;
    ";
    let lowered = compile_lint(src);
    let v = run(&lowered.expr, EvalMode::CallByName, FUEL)
        .unwrap()
        .value;
    assert_eq!(v, Value::Con(Ident::new("True"), vec![]));
}

/// The compiled pipeline composes with the optimizer: a surface program's
/// loop contifies and runs allocation-free under call-by-value.
#[test]
fn surface_program_optimizes() {
    let src = "
        def main : Int =
          letrec go : Int -> Int -> Int =
            \\(n : Int) (acc : Int) ->
              if n <= 0 then acc else go (n - 1) (acc + n)
          in go 100 0;
    ";
    let mut lowered = compile_lint(src);
    let cfg = fj_core::OptConfig::join_points().with_lint(true);
    let (out, _) =
        fj_core::optimize_with_report(&lowered.expr, &lowered.data_env, &mut lowered.supply, &cfg)
            .unwrap();
    assert_eq!(run_int(&out, EvalMode::CallByValue, FUEL).unwrap(), 5050);
    let m = run(&out, EvalMode::CallByValue, FUEL).unwrap().metrics;
    assert_eq!(
        m.total_allocs(),
        0,
        "contified loop must be allocation-free: {m}"
    );
}

/// Shadowing: inner binders hide outer ones.
#[test]
fn shadowing_resolves_innermost() {
    let src = "
        def main : Int =
          let x : Int = 1 in
          let x : Int = x + 10 in
          x;
    ";
    assert_eq!(run_main(src), 11);
}
