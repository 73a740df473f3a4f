//! Quickstart: compile a small program, optimize it with and without
//! join points, and watch the allocation counter.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use system_fj::core::{optimize_with_report, OptConfig};
use system_fj::eval::{run, EvalMode};
use system_fj::surface::compile;

const SRC: &str = "
-- find the first element > 3, tell whether one exists (Sec. 5's any)
def any4 : List Int -> Bool =
  \\(xs : List Int) ->
    letrec go : List Int -> Maybe Int =
      \\(ys : List Int) ->
        case ys of {
          Nil -> Nothing @Int;
          Cons y t -> if y > 3 then Just @Int y else go t
        }
    in case go xs of {
         Nothing -> False;
         Just _ -> True
       };

def nums : Int -> List Int =
  \\(n : Int) ->
    letrec go : Int -> List Int =
      \\(i : Int) ->
        if i > n then Nil @Int else Cons @Int (i % 3) (go (i + 1))
    in go 1;

def main : Int = if any4 (Cons @Int 9 (nums 50)) then 1 else 0;
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- source ---\n{SRC}");

    for (label, cfg) in [
        ("baseline (GHC before the paper)", OptConfig::baseline()),
        ("join points (the paper)", OptConfig::join_points()),
    ] {
        let mut p = compile(SRC)?;
        let (opt, _) = optimize_with_report(&p.expr, &p.data_env, &mut p.supply, &cfg)?;
        let out = run(&opt, EvalMode::CallByValue, 10_000_000)?;
        println!("--- {label} ---\nresult = {}\n{}\n", out.value, out.metrics);
    }

    println!("The join-points pipeline contifies `go`, and the consumer's");
    println!("case moves to the loop's return points (jfloat): the Maybe");
    println!("cells never exist at runtime.");
    Ok(())
}
