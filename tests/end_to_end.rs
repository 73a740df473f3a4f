//! Cross-crate integration tests: surface → lint → optimize → machine,
//! with erasure and mode-agreement checks — the full path a user takes.

use system_fj::check::lint;
use system_fj::core::{erase, optimize_with_report, OptConfig};
use system_fj::eval::{run, EvalMode, Value};
use system_fj::surface::compile;

const FUEL: u64 = 20_000_000;

const PROGRAMS: &[(&str, &str, i64)] = &[
    (
        "sum-loop",
        "def main : Int =
           letrec go : Int -> Int -> Int =
             \\(n : Int) (acc : Int) ->
               if n <= 0 then acc else go (n - 1) (acc + n)
           in go 100 0;",
        5050,
    ),
    (
        "mutual-even-odd",
        "def main : Int =
           letrec even : Int -> Bool =
             \\(n : Int) -> if n == 0 then True else odd (n - 1)
           and odd : Int -> Bool =
             \\(n : Int) -> if n == 0 then False else even (n - 1)
           in if even 40 then 1 else 0;",
        1,
    ),
    (
        "find-any",
        "def main : Int =
           letrec build : Int -> List Int =
             \\(i : Int) ->
               if i > 30 then Nil @Int else Cons @Int (i % 4) (build (i + 1))
           in
           letrec find : List Int -> Maybe Int =
             \\(xs : List Int) ->
               case xs of {
                 Nil -> Nothing @Int;
                 Cons y t -> if y == 3 then Just @Int y else find t
               }
           in case find (build 1) of { Nothing -> 0; Just v -> v };",
        3,
    ),
    (
        "tree-fold",
        "data Tree = Leaf Int | Node Tree Tree;
         def main : Int =
           letrec build : Int -> Tree =
             \\(d : Int) ->
               if d <= 0 then Leaf 1 else Node (build (d - 1)) (build (d - 1))
           in
           letrec sumT : Tree -> Int =
             \\(t : Tree) ->
               case t of { Leaf n -> n; Node l r -> sumT l + sumT r }
           in sumT (build 6);",
        64,
    ),
    (
        "polymorphic-map",
        "def mapInt : (Int -> Int) -> List Int -> List Int =
           \\(f : Int -> Int) (xs : List Int) ->
             letrec go : List Int -> List Int =
               \\(ys : List Int) ->
                 case ys of {
                   Nil -> Nil @Int;
                   Cons h t -> Cons @Int (f h) (go t)
                 }
             in go xs;
         def sum : List Int -> Int =
           \\(xs : List Int) ->
             letrec go : List Int -> Int -> Int =
               \\(ys : List Int) (acc : Int) ->
                 case ys of { Nil -> acc; Cons h t -> go t (acc + h) }
             in go xs 0;
         def main : Int =
           sum (mapInt (\\(x : Int) -> x * x)
                       (Cons @Int 1 (Cons @Int 2 (Cons @Int 3 (Nil @Int)))));",
        14,
    ),
    (
        "nested-pairs",
        "def main : Int =
           let p : Pair Int (Pair Int Int) =
             MkPair @Int @(Pair Int Int) 1 (MkPair @Int @Int 2 3)
           in case p of {
             MkPair a rest -> case rest of { MkPair b c -> a + 10 * b + 100 * c }
           };",
        321,
    ),
];

fn modes() -> [EvalMode; 3] {
    [
        EvalMode::CallByName,
        EvalMode::CallByNeed,
        EvalMode::CallByValue,
    ]
}

#[test]
fn optimizers_preserve_every_program() {
    for (name, src, expected) in PROGRAMS {
        for cfg in [
            OptConfig::none(),
            OptConfig::baseline(),
            OptConfig::join_points(),
            OptConfig::join_points_with_cse(),
        ] {
            let mut p = compile(src).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
            lint(&p.expr, &p.data_env).unwrap_or_else(|e| panic!("{name}: lint: {e}"));
            let (opt, _) =
                optimize_with_report(&p.expr, &p.data_env, &mut p.supply, &cfg.with_lint(true))
                    .unwrap_or_else(|e| panic!("{name}: optimize: {e}"));
            for mode in modes() {
                let o =
                    run(&opt, mode, FUEL).unwrap_or_else(|e| panic!("{name} {mode:?}: {e}\n{opt}"));
                assert_eq!(o.value, Value::Int(*expected), "{name} {mode:?}");
            }
        }
    }
}

#[test]
fn join_points_never_allocate_more() {
    for (name, src, _) in PROGRAMS {
        let measure = |cfg: &OptConfig| {
            let mut p = compile(src).unwrap();
            let (opt, _) = optimize_with_report(&p.expr, &p.data_env, &mut p.supply, cfg).unwrap();
            run(&opt, EvalMode::CallByValue, FUEL).unwrap().metrics
        };
        let base = measure(&OptConfig::baseline());
        let joined = measure(&OptConfig::join_points());
        assert!(
            joined.total_allocs() <= base.total_allocs(),
            "{name}: joined {} > baseline {}",
            joined,
            base
        );
    }
}

#[test]
fn erasure_round_trips_every_program() {
    for (name, src, expected) in PROGRAMS {
        let mut p = compile(src).unwrap();
        // Optimize WITH join points, then erase them all away again.
        let (opt, _) = optimize_with_report(
            &p.expr,
            &p.data_env,
            &mut p.supply,
            &OptConfig::join_points(),
        )
        .unwrap();
        let erased = erase(&opt, &p.data_env, &mut p.supply)
            .unwrap_or_else(|e| panic!("{name}: erase: {e}"));
        assert!(!erased.has_join_or_jump(), "{name}: joins must be gone");
        lint(&erased, &p.data_env).unwrap_or_else(|e| panic!("{name}: erased lint: {e}"));
        for mode in modes() {
            let o = run(&erased, mode, FUEL)
                .unwrap_or_else(|e| panic!("{name} {mode:?}: {e}\n{erased}"));
            assert_eq!(
                o.value,
                Value::Int(*expected),
                "{name} {mode:?} after erasure"
            );
        }
    }
}

#[test]
fn optimization_is_stable_under_reapplication() {
    for (name, src, expected) in PROGRAMS {
        let mut p = compile(src).unwrap();
        let cfg = OptConfig::join_points();
        let (once, _) = optimize_with_report(&p.expr, &p.data_env, &mut p.supply, &cfg).unwrap();
        let (twice, _) = optimize_with_report(&once, &p.data_env, &mut p.supply, &cfg).unwrap();
        let o = run(&twice, EvalMode::CallByValue, FUEL).unwrap();
        assert_eq!(o.value, Value::Int(*expected), "{name}: value stable");
        // Re-optimization never grows the program.
        assert!(
            twice.size() <= once.size() + 2,
            "{name}: re-optimization grew the term: {} -> {}",
            once.size(),
            twice.size()
        );
    }
}

/// The facade's own quickstart path, end to end.
#[test]
fn facade_quickstart_path() {
    let mut p = compile(
        "def main : Int =
           letrec go : Int -> Int -> Int =
             \\(n : Int) (acc : Int) ->
               if n <= 0 then acc else go (n - 1) (acc + n)
           in go 100 0;",
    )
    .unwrap();
    let (opt, _) = optimize_with_report(
        &p.expr,
        &p.data_env,
        &mut p.supply,
        &OptConfig::join_points(),
    )
    .unwrap();
    let out = run(&opt, EvalMode::CallByValue, 1_000_000).unwrap();
    assert_eq!(out.value, Value::Int(5050));
    assert_eq!(out.metrics.total_allocs(), 0);
}
